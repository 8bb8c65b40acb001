"""Alternating optimization of the precoder covariance and IRS phases,
plus Monte-Carlo experiment orchestration.

Each outer iteration solves the covariance sub-problem for the current
phase vector, rebuilds the polynomial objective coefficients, and takes
one Riemannian ascent step along the gradient it just evaluated.  The
loop stops when the relative change of the weighted SNR drops below the
tolerance or the iteration cap is hit.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .channel import (composite_comm_channel, composite_radar_channel,
                      synthesize_channels, upa_steering)
from .config import ComplexArray, ConfigError, RunConfig
from .manifold import ascent_step, euclidean_gradient, project_tangent
from .objective import build_C, build_bundle, comm_snr, radar_snr, \
    weighted_objective
from .precoder import solve_covariance

CONVERGED = "converged"
HIT_CAP = "hit_cap"


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    objective: float
    radar_snr: float
    comm_snr: float
    grad_norm: float
    elapsed: float


@dataclass(frozen=True)
class ConvergenceTrace:
    """Per-iteration history of one alternating run."""

    records: tuple[IterationRecord, ...]
    flag: str
    theta: ComplexArray
    r_w: ComplexArray

    @property
    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.records])

    @property
    def final_objective(self) -> float:
        return self.records[-1].objective

    @property
    def iterations_to_converge(self) -> int:
        return self.records[-1].iteration


@dataclass(frozen=True)
class Curve:
    """One sweep curve: mean/std of a quantity along an x-axis."""

    label: str
    param: object
    x: tuple[float, ...]
    mean: tuple[float, ...]
    std: tuple[float, ...]
    traces: tuple[ConvergenceTrace, ...]


@dataclass(frozen=True)
class ExperimentResult:
    kind: str
    curves: tuple[Curve, ...]


def initial_theta(cfg: RunConfig) -> ComplexArray:
    n = cfg.n_x * cfg.n_y
    if cfg.theta_init == "allones":
        return np.ones(n, dtype=complex)
    rng = np.random.default_rng([cfg.seed, 0x7E7A])
    return np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))


def alternate(cfg: RunConfig) -> ConvergenceTrace:
    """Run the full alternating algorithm and return its trace."""
    channels = synthesize_channels(cfg)
    a_irs = upa_steering(cfg.geometry)
    weights, beampattern = cfg.weights, cfg.beampattern
    theta = initial_theta(cfg)
    kappa = 1.0  # MM step weight, carried across steps and iterations
    records: list[IterationRecord] = []
    flag = HIT_CAP
    f_prev = None
    start = time.perf_counter()
    for j in range(cfg.j_max + 1):
        f_r = composite_radar_channel(channels, theta, a_irs)
        f_c = composite_comm_channel(channels, theta)
        c = build_C(f_r, f_c, weights)
        solution = solve_covariance(c, cfg.p0, beampattern)
        r_w, w = solution.r_w, solution.w
        snr_r = radar_snr(f_r, w, cfg.sigma_r_sq)
        snr_c = comm_snr(f_c, w, cfg.sigma_c_sq)
        f_now = weighted_objective(snr_r, snr_c, cfg.alpha)
        bundle = build_bundle(channels, a_irs, w, weights)
        egrad = euclidean_gradient(theta, bundle)
        rgrad = project_tangent(egrad, theta)
        records.append(IterationRecord(
            iteration=j, objective=f_now, radar_snr=snr_r, comm_snr=snr_c,
            grad_norm=float(np.linalg.norm(rgrad)),
            elapsed=time.perf_counter() - start))
        if f_prev is not None and \
                abs(f_now - f_prev) <= cfg.epsilon * abs(f_prev):
            flag = CONVERGED
            break
        f_prev = f_now
        if j == cfg.j_max:
            break
        theta, kappa = ascent_step(theta, bundle, kappa, egrad)
    return ConvergenceTrace(records=tuple(records), flag=flag,
                            theta=theta, r_w=r_w)


def _realization_traces(cfg: RunConfig) -> list[ConvergenceTrace]:
    if cfg.num_realizations < 1:
        raise ValueError("num_realizations must be >= 1")
    return [alternate(replace(cfg, seed=cfg.seed + idx))
            for idx in range(cfg.num_realizations)]


def _aligned_stats(traces: list[ConvergenceTrace]) -> tuple[np.ndarray,
                                                            np.ndarray]:
    """Per-iteration mean/std, padding shorter traces with their final
    objective (a converged run just holds its value)."""
    length = max(len(t.records) for t in traces)
    grid = np.empty((len(traces), length))
    for i, trace in enumerate(traces):
        obj = trace.objectives
        grid[i, :len(obj)] = obj
        grid[i, len(obj):] = obj[-1]
    return grid.mean(axis=0), grid.std(axis=0)


def run_convergence_experiment(cfg: RunConfig) -> ExperimentResult:
    """Convergence curves (objective vs iteration) for each of ``alphas``
    (or ``alpha`` alone), averaged over ``num_realizations`` channels."""
    curves = []
    for alpha in cfg.alphas or (cfg.alpha,):
        traces = _realization_traces(replace(cfg, alpha=alpha))
        mean, std = _aligned_stats(traces)
        curves.append(Curve(label=f"alpha_{alpha:g}", param=alpha,
                            x=tuple(float(i) for i in range(len(mean))),
                            mean=tuple(float(v) for v in mean),
                            std=tuple(float(v) for v in std),
                            traces=tuple(traces)))
    return ExperimentResult(kind="converge", curves=tuple(curves))


def _factor_grid(n: int) -> tuple[int, int]:
    """Split an element count into the most-square planar grid."""
    best = 1
    for k in range(1, int(np.sqrt(n)) + 1):
        if n % k == 0:
            best = k
    return best, n // best


def run_power_sweep(cfg: RunConfig) -> ExperimentResult:
    """Converged weighted SNR versus each ``sweep_p0`` power for every
    (M, N) pair of ``sweep_m`` x ``sweep_n``."""
    if not (cfg.sweep_p0 and cfg.sweep_m and cfg.sweep_n):
        raise ValueError("sweep lists must be nonempty")
    if cfg.r_d_path:
        # each (M, P0) point needs its own R_d; one file cannot supply them
        raise ConfigError("r_d_path is not supported by sweep, which "
                          "uses the isotropic R_d = (p0/m) I")
    curves = []
    for m in cfg.sweep_m:
        for n in cfg.sweep_n:
            means, stds, all_traces = [], [], []
            n_y, n_x = _factor_grid(n)
            for p0 in cfg.sweep_p0:
                # the isotropic R_d = (p0/m) I follows m and p0
                cfg_p = replace(cfg, m=m, n_y=n_y, n_x=n_x, p0=p0)
                traces = _realization_traces(cfg_p)
                finals = np.array([t.final_objective for t in traces])
                means.append(float(finals.mean()))
                stds.append(float(finals.std()))
                all_traces.extend(traces)
            curves.append(Curve(label=f"m_{m}_n_{n}", param=(m, n),
                                x=tuple(float(p) for p in cfg.sweep_p0),
                                mean=tuple(means), std=tuple(stds),
                                traces=tuple(all_traces)))
    return ExperimentResult(kind="sweep", curves=tuple(curves))
