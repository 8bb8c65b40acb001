"""Alternating optimization of the precoder covariance and IRS phases,
plus Monte-Carlo experiment orchestration.

Each outer iteration solves the covariance sub-problem for the current
phase vector, rebuilds the polynomial objective coefficients, and takes
the configured number of Riemannian ascent steps.  The loop stops when
the relative change of the weighted SNR drops below the tolerance or the
iteration cap is hit.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .channel import (ChannelSet, SystemGeometry, composite_comm_channel,
                      composite_radar_channel, synthesize_channels,
                      upa_steering)
from .config import BadValueError, RunConfig, make_beampattern
from .manifold import AscentConfig, ascent_step, euclidean_gradient, \
    project_tangent
from .objective import build_C, build_bundle, comm_snr, radar_snr, \
    weighted_objective
from .precoder import solve_covariance

ComplexArray = NDArray[np.complexfloating]

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


def make_channels(cfg: RunConfig) -> ChannelSet:
    return synthesize_channels(
        cfg.geometry, cfg.num_users, seed=cfg.seed,
        rician_factor=cfg.k_g, eta=cfg.eta,
        g_scale=cfg.g_scale, f_scale=cfg.f_scale, h_scale=cfg.h_scale,
        radar_departure_angle=cfg.los_radar_angle,
        irs_arrival_azimuth=cfg.los_irs_azimuth,
        irs_arrival_elevation=cfg.los_irs_elevation)


def initial_theta(cfg: RunConfig) -> ComplexArray:
    n = cfg.geometry.num_irs_elements
    if cfg.theta_init == "allones":
        return np.ones(n, dtype=complex)
    rng = np.random.default_rng([cfg.seed, 0x7E7A])
    return np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))


def alternate(cfg: RunConfig) -> ConvergenceTrace:
    """Run the full alternating algorithm and return its trace."""
    channels = make_channels(cfg)
    a_irs = upa_steering(cfg.geometry)
    ascent_cfg = AscentConfig(step=cfg.delta, backtracking=cfg.backtracking)
    theta = initial_theta(cfg)
    r_w = None
    records: list[IterationRecord] = []
    flag = HIT_CAP
    f_prev = None
    start = time.perf_counter()
    for j in range(cfg.j_max + 1):
        f_r = composite_radar_channel(channels, theta, a_irs)
        f_c = composite_comm_channel(channels, theta)
        c = build_C(f_r, f_c, cfg.weights)
        solution = solve_covariance(c, cfg.p0, cfg.beampattern, r_init=r_w)
        r_w, w = solution.r_w, solution.w
        snr_r = radar_snr(f_r, w, cfg.weights.sigma_r_sq)
        snr_c = comm_snr(f_c, w, cfg.weights.sigma_c_sq)
        f_now = weighted_objective(snr_r, snr_c, cfg.weights.alpha)
        bundle = build_bundle(channels, a_irs, w, cfg.weights)
        rgrad = project_tangent(euclidean_gradient(theta, bundle), theta)
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
        # the first inner step reuses the gradient behind grad_norm
        theta = ascent_step(theta, bundle, ascent_cfg, direction=rgrad)
        for _ in range(cfg.inner_steps - 1):
            theta = ascent_step(theta, bundle, ascent_cfg)
    return ConvergenceTrace(records=tuple(records), flag=flag,
                            theta=theta, r_w=r_w)


def _realization_traces(cfg: RunConfig,
                        num_realizations: int) -> list[ConvergenceTrace]:
    return [alternate(replace(cfg, seed=cfg.seed + idx))
            for idx in range(num_realizations)]


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


def run_convergence_experiment(cfg: RunConfig, num_realizations: int,
                               alphas: tuple[float, ...] | None = None
                               ) -> ExperimentResult:
    """Convergence curves (objective vs iteration) for a list of trade-off
    weights, averaged over independent channel realizations."""
    if num_realizations < 1:
        raise ValueError("num_realizations must be >= 1")
    if alphas is None:
        alphas = cfg.alphas or (cfg.weights.alpha,)
    curves = []
    for alpha in alphas:
        cfg_a = replace(cfg, weights=replace(cfg.weights, alpha=alpha))
        traces = _realization_traces(cfg_a, num_realizations)
        mean, std = _aligned_stats(traces)
        curves.append(Curve(label=f"alpha_{alpha:g}", param=alpha,
                            x=tuple(float(i) for i in range(len(mean))),
                            mean=tuple(float(v) for v in mean),
                            std=tuple(float(v) for v in std),
                            traces=tuple(traces)))
    return ExperimentResult(kind="converge", curves=tuple(curves))


def _with_geometry(cfg: RunConfig, m: int, n: int, p0: float) -> RunConfig:
    n_y, n_x = _factor_grid(n)
    geometry = SystemGeometry(
        num_radar_antennas=m, irs_rows=n_y, irs_cols=n_x,
        radar_spacing=cfg.geometry.radar_spacing,
        irs_spacing=cfg.geometry.irs_spacing,
        target_azimuth=cfg.geometry.target_azimuth,
        target_elevation=cfg.geometry.target_elevation)
    beampattern = make_beampattern(p0, m, cfg.beampattern.gamma_bp)
    return replace(cfg, geometry=geometry, beampattern=beampattern, p0=p0)


def _factor_grid(n: int) -> tuple[int, int]:
    """Split an element count into the most-square planar grid."""
    best = 1
    for k in range(1, int(np.sqrt(n)) + 1):
        if n % k == 0:
            best = k
    return best, n // best


def run_power_sweep(cfg: RunConfig,
                    p0_list: tuple[float, ...],
                    m_list: tuple[int, ...],
                    n_list: tuple[int, ...],
                    num_realizations: int) -> ExperimentResult:
    """Converged weighted SNR versus transmit power for each (M, N) pair."""
    if not (p0_list and m_list and n_list):
        raise ValueError("sweep lists must be nonempty")
    if num_realizations < 1:
        raise ValueError("num_realizations must be >= 1")
    if cfg.raw.get("r_d_path"):
        # each (M, P0) point needs its own R_d; one file cannot supply them
        raise BadValueError("r_d_path is not supported by sweep, which "
                            "uses the isotropic R_d = (p0/m) I")
    curves = []
    for m in m_list:
        for n in n_list:
            means, stds, all_traces = [], [], []
            for p0 in p0_list:
                cfg_p = _with_geometry(cfg, m, n, p0)
                traces = _realization_traces(cfg_p, num_realizations)
                finals = np.array([t.final_objective for t in traces])
                means.append(float(finals.mean()))
                stds.append(float(finals.std()))
                all_traces.extend(traces)
            curves.append(Curve(label=f"m_{m}_n_{n}", param=(m, n),
                                x=tuple(float(p) for p in p0_list),
                                mean=tuple(means), std=tuple(stds),
                                traces=tuple(all_traces)))
    return ExperimentResult(kind="sweep", curves=tuple(curves))
