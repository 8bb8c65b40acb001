"""Transmit covariance design under power and beampattern-ball constraints.

The sub-problem is linear in R_w = W W^H: maximize tr(R_w C) subject to
R_w PSD, tr(R_w) = P0 and ||R_w - R_d||_F <= gamma_bp.  It is solved with
projected gradient ascent from the closed-form optimum without the PSD
constraint; the projection onto the three-set intersection uses Dykstra's
alternating-projection algorithm.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import BeampatternSpec, ComplexArray

_MAX_DYKSTRA_CYCLES = 1000
_MAX_PG_ITER = 5000
_STEP_TOL = 1e-10        # relative to max(1, power)
_PROJECTION_TOL = 1e-12  # relative to max(1, power)
_TRACE_RTOL = 1e-6       # tr(R_d) vs power, relative to max(1, |power|)


class InfeasibleSpecError(ValueError):
    """Desired covariance trace disagrees with the power budget."""


class NotPSDError(ValueError):
    """Matrix square root requested for a significantly indefinite matrix."""


class NoConvergenceError(RuntimeError):
    """Dykstra projection failed to reach the feasibility tolerance."""


@dataclass(frozen=True)
class PrecoderCovariance:
    """Optimized covariance, its PSD square root, and the attained objective."""

    r_w: ComplexArray
    w: ComplexArray
    objective: float


def trace_matches(r_d: ComplexArray, power: float) -> bool:
    """Whether tr(R_d) equals the power budget to the solver's tolerance."""
    trace_rd = float(np.trace(r_d).real)
    return abs(trace_rd - power) <= _TRACE_RTOL * max(1.0, abs(power))


def hermitize(x: ComplexArray) -> ComplexArray:
    return 0.5 * (x + x.conj().T)


def matrix_sqrt(r_w: ComplexArray) -> ComplexArray:
    """Unique Hermitian PSD square root via eigendecomposition."""
    r_w = hermitize(r_w)
    eigvals, eigvecs = np.linalg.eigh(r_w)
    scale = max(eigvals[-1], 0.0)
    if eigvals[0] < -1e-6 * max(scale, 1e-300):
        raise NotPSDError(f"matrix is indefinite (min eig {eigvals[0]:.3e})")
    root = np.sqrt(np.clip(eigvals, 0.0, None))
    return (eigvecs * root) @ eigvecs.conj().T


def _project_psd(x: ComplexArray) -> ComplexArray:
    eigvals, eigvecs = np.linalg.eigh(hermitize(x))
    if eigvals[0] >= 0:
        return hermitize(x)
    return (eigvecs * np.clip(eigvals, 0.0, None)) @ eigvecs.conj().T


def _project_trace(x: ComplexArray, power: float) -> ComplexArray:
    m = x.shape[0]
    shift = (np.trace(x).real - power) / m
    return x - shift * np.eye(m)


def _project_ball(x: ComplexArray, spec: BeampatternSpec) -> ComplexArray:
    delta = x - spec.r_d
    dist = np.linalg.norm(delta, "fro")
    if dist <= spec.gamma_bp:
        return x
    if spec.gamma_bp == 0.0 or dist == 0.0:
        return spec.r_d.copy()
    return spec.r_d + (spec.gamma_bp / dist) * delta


def _feasibility_residuals(x: ComplexArray, power: float,
                           spec: BeampatternSpec) -> tuple[float, float, float]:
    eigvals = np.linalg.eigvalsh(hermitize(x))
    psd = float(np.linalg.norm(np.clip(eigvals, None, 0.0)))
    trace = abs(float(np.trace(x).real) - power)
    ball = max(0.0, float(np.linalg.norm(x - spec.r_d, "fro")) - spec.gamma_bp)
    return psd, trace, ball


def project_feasible(x: ComplexArray, power: float, spec: BeampatternSpec,
                     tol: float = 1e-8) -> ComplexArray:
    """Dykstra projection onto {PSD} & {tr = power} & {Frobenius ball}."""
    x = hermitize(x)
    projections = (_project_psd,
                   lambda y: _project_trace(y, power),
                   lambda y: _project_ball(y, spec))
    increments = [np.zeros_like(x) for _ in projections]
    for _ in range(_MAX_DYKSTRA_CYCLES):
        for k, proj in enumerate(projections):
            y = proj(x + increments[k])
            increments[k] = x + increments[k] - y
            x = y
        if max(_feasibility_residuals(x, power, spec)) < tol:
            return x
    raise NoConvergenceError(
        f"feasibility residual above {tol:.1e} after "
        f"{_MAX_DYKSTRA_CYCLES} cycles")


def solve_covariance(c: ComplexArray, power: float,
                     spec: BeampatternSpec) -> PrecoderCovariance:
    """Maximize tr(R_w C) over the feasible covariance set.

    Ascent starts at the optimum without the PSD constraint,
    R_d + gamma_bp C0/||C0||_F with C0 the traceless part of C, which is
    exact whenever it is PSD.  The objective is linear, so projected
    gradient ascent with any step is monotone under exact projections; the
    step power/||C||_F keeps the trajectory invariant under joint
    (power, R_d, gamma_bp) rescaling, which preserves the degree-2
    homogeneity of the SNRs.
    """
    if power <= 0:
        raise ValueError("power budget must be positive")
    if not trace_matches(spec.r_d, power):
        raise InfeasibleSpecError(
            f"tr(R_d) = {float(np.trace(spec.r_d).real):.6g} does not match "
            f"the budget {power:.6g}")
    c = hermitize(c)
    c_norm = float(np.linalg.norm(c, "fro"))
    step = power / c_norm if c_norm > 0 else 1.0
    scale = max(1.0, power)
    m = c.shape[0]
    c0 = c - (np.trace(c).real / m) * np.eye(m)
    c0_norm = float(np.linalg.norm(c0, "fro"))
    r = spec.r_d + (spec.gamma_bp / c0_norm) * c0 if c0_norm > 0 \
        else spec.r_d.copy()
    for _ in range(_MAX_PG_ITER):
        r_new = project_feasible(r + step * c, power, spec,
                                 tol=_PROJECTION_TOL * scale)
        if np.linalg.norm(r_new - r, "fro") < _STEP_TOL * scale:
            r = r_new
            break
        r = r_new
    objective = float(np.real(np.trace(r @ c)))
    return PrecoderCovariance(r_w=r, w=matrix_sqrt(r), objective=objective)
