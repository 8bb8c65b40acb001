"""Self-check suites behind the validate-* CLI commands.

Each suite returns a list of CheckResult rows so the CLI can print a
uniform pass/fail table; the same helpers back the pytest oracles.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, rayleigh_channel, upa_steering
from .config import BeampatternSpec, DesignWeights, SystemGeometry
from .manifold import euclidean_gradient
from .objective import ObjectiveBundle, build_bundle, eval_f1
from .precoder import _feasibility_residuals, solve_covariance


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: float
    measured: float
    passed: bool


def random_instance(rng: np.random.Generator, m: int, n: int, k: int,
                    alpha: float | None = None
                    ) -> tuple[ChannelSet, np.ndarray, np.ndarray,
                               DesignWeights, np.ndarray]:
    """Random (channels, steering, precoder, weights, theta) tuple for
    oracle checks; theta is drawn on the unit circle."""
    geometry = SystemGeometry(
        num_radar_antennas=m, irs_rows=n, irs_cols=1,
        radar_spacing=0.5, irs_spacing=0.5,
        target_azimuth=rng.uniform(-np.pi / 2, np.pi / 2),
        target_elevation=rng.uniform(0.0, np.pi / 2))
    channels = ChannelSet(
        G=rayleigh_channel(n, m, rng),
        F=rayleigh_channel(k, m, rng),
        H=rayleigh_channel(k, n, rng),
        eta=complex(rng.standard_normal() + 1j * rng.standard_normal()))
    a_irs = upa_steering(geometry)
    w = rayleigh_channel(m, m, rng)
    if alpha is None:
        alpha = float(rng.uniform(0.05, 0.95))
    weights = DesignWeights(alpha=alpha,
                            sigma_r_sq=float(rng.uniform(0.5, 2.0)),
                            sigma_c_sq=float(rng.uniform(0.5, 2.0)))
    theta = np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))
    return channels, a_irs, w, weights, theta


def random_bundle(rng: np.random.Generator, m: int, n: int,
                  k: int = 3) -> tuple[ObjectiveBundle, np.ndarray]:
    channels, a_irs, w, weights, theta = random_instance(rng, m, n, k)
    return build_bundle(channels, a_irs, w, weights), theta


def finite_difference_gradient(theta: np.ndarray, bundle: ObjectiveBundle,
                               h: float) -> np.ndarray:
    """Central-difference gradient over the 2N real coordinates.

    Returns df/dRe + j*df/dIm, which matches euclidean_gradient under the
    grad f = 2 df/d(conj theta) convention.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    n = theta.shape[0]
    grad = np.zeros(n, dtype=complex)
    for i in range(n):
        for unit in (1.0, 1.0j):
            bump = np.zeros(n, dtype=complex)
            bump[i] = unit * h
            df = (eval_f1(theta + bump, bundle)
                  - eval_f1(theta - bump, bundle)) / (2.0 * h)
            grad[i] += df * unit
    return grad


def gradient_checks(num_instances: int = 50, h: float = 1e-6,
                    tol: float = 1e-5, seed: int = 2024,
                    gradient_fn=euclidean_gradient) -> list[CheckResult]:
    """Finite-difference cross-validation of the analytic gradient."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(num_instances):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(2, 17))
        bundle, theta = random_bundle(rng, m, n)
        analytic = gradient_fn(theta, bundle)
        numeric = finite_difference_gradient(theta, bundle, h)
        err = np.linalg.norm(analytic - numeric) \
            / max(np.linalg.norm(numeric), 1e-30)
        worst = max(worst, float(err))
    return [CheckResult(
        name=f"gradient_vs_finite_difference_{num_instances}x",
        tolerance=tol, measured=worst, passed=worst < tol)]


def sample_feasible(rng: np.random.Generator, spec: BeampatternSpec,
                    power: float, count: int) -> np.ndarray:
    """Rejection-sample Hermitian PSD points in the trace plane and ball.

    Returns an array of shape (count, M, M); intended for small M where
    the PSD acceptance rate is high.
    """
    m = spec.r_d.shape[0]
    out = np.empty((count, m, m), dtype=complex)
    filled = 0
    while filled < count:
        batch = min(4 * (count - filled), 65536)
        z = rng.standard_normal((batch, m, m)) \
            + 1j * rng.standard_normal((batch, m, m))
        d = 0.5 * (z + z.conj().transpose(0, 2, 1))
        trace = np.trace(d, axis1=1, axis2=2).real
        d -= (trace / m)[:, None, None] * np.eye(m)
        norms = np.linalg.norm(d, axis=(1, 2))
        norms[norms == 0] = 1.0
        radii = spec.gamma_bp * rng.uniform(0.0, 1.0, batch) ** 0.5
        cand = spec.r_d + (radii / norms)[:, None, None] * d
        ok = np.linalg.eigvalsh(cand)[:, 0] >= 0
        good = cand[ok]
        take = min(len(good), count - filled)
        out[filled:filled + take] = good[:take]
        filled += take
    return out


def solver_checks(num_samples: int = 100_000,
                  seed: int = 7) -> list[CheckResult]:
    """Oracle checks for the covariance solver at M = 2."""
    rng = np.random.default_rng(seed)
    results = []

    # analytic instance: C = diag(1, 0), omni R_d, wide ball -> optimum
    # puts all power on the strong eigendirection
    power = 2.0
    c = np.diag([1.0, 0.0]).astype(complex)
    spec = BeampatternSpec(r_d=(power / 2) * np.eye(2, dtype=complex),
                           gamma_bp=2.5)
    sol = solve_covariance(c, power, spec)
    bound = power * float(np.linalg.eigvalsh(c)[-1])
    results.append(CheckResult(
        name="eigenvalue_upper_bound_gap",
        tolerance=1e-6,
        measured=abs(sol.objective - bound) / bound,
        passed=abs(sol.objective - bound) / bound < 1e-6))

    samples = sample_feasible(rng, spec, power, num_samples)
    sampled_best = float(np.max(np.real(
        np.einsum("kij,ji->k", samples, c))))
    gap = (sampled_best - sol.objective) / max(abs(sampled_best), 1e-30)
    results.append(CheckResult(
        name=f"sampled_oracle_gap_{num_samples}x",
        tolerance=1e-4, measured=max(gap, 0.0), passed=gap < 1e-4))

    # random objective: solver beats sampling and stays feasible
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    c_rand = z @ z.conj().T
    spec_rand = BeampatternSpec(r_d=(power / 2) * np.eye(2, dtype=complex),
                                gamma_bp=0.8)
    sol_rand = solve_covariance(c_rand, power, spec_rand)
    samples = sample_feasible(rng, spec_rand, power, num_samples)
    sampled_best = float(np.max(np.real(
        np.einsum("kij,ji->k", samples, c_rand))))
    gap = (sampled_best - sol_rand.objective) / max(abs(sampled_best), 1e-30)
    results.append(CheckResult(
        name=f"sampled_oracle_gap_random_C_{num_samples}x",
        tolerance=1e-4, measured=max(gap, 0.0), passed=gap < 1e-4))

    residual = max(max(_feasibility_residuals(sol.r_w, power, spec)),
                   max(_feasibility_residuals(sol_rand.r_w, power,
                                              spec_rand)))
    results.append(CheckResult(
        name="solution_feasibility_residual",
        tolerance=1e-8, measured=residual, passed=residual < 1e-8))
    return results


def format_table(results: list[CheckResult]) -> str:
    lines = [f"{'check':48s} {'tolerance':>10s} {'measured':>12s} {'status':>7s}"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:48s} {r.tolerance:10.1e} "
                     f"{r.measured:12.3e} {status:>7s}")
    return "\n".join(lines)
