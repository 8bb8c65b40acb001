"""SNRs, the covariance objective C, and the factored polynomial form in
the IRS phases.

The weighted objective is quartic in the phase vector theta through the
radar path and quadratic through the communication path.  The radar has no
line of sight to the target, so its path runs through the IRS and only the
rank-one product a a^T of the IRS steering vector enters.  With

    x = a o theta,   u = G^T x,   s = (G W)^T x,   E = H diag(theta) G W

the radar term is radar_scale * |u|^2 |s|^2 and the communication term is
ac * |F W + E|_F^2 with ac = alpha / sigma_c^2 (E is K x M).  Evaluation
and gradient cost O(N M (M + K)); no N x N matrix is formed.  The radar
channel eta u u^T enters the SNR and C only through u, so no M x M radar
channel is formed either.  alpha, eta and sigma_c^2 are read from the
RunConfig, whose real eta already carries the radar noise: it is the
paper's |eta|/sigma_r.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet
from .config import ComplexArray, RunConfig


def radar_snr(u: ComplexArray, w: ComplexArray, cfg: RunConfig) -> float:
    """|F_r W|_F^2 for the rank-one F_r = eta u u^T:
    eta^2 |u|^2 |W^T u|^2."""
    return cfg.eta ** 2 * squared_norm(u) * squared_norm(w.T @ u)


def comm_snr(f_c: ComplexArray, w: ComplexArray, cfg: RunConfig) -> float:
    """|F_c W|_F^2 / sigma_c^2."""
    return squared_norm(f_c @ w) / cfg.sigma_c_sq


def build_C(u: ComplexArray, f_c: ComplexArray,
            cfg: RunConfig) -> ComplexArray:
    """PSD matrix C with tr(W W^H C) equal to the weighted SNR, Hermitian up
    to round-off; solve_covariance hermitizes it.  The radar gram F_r^H F_r
    of F_r = eta u u^T is eta^2 |u|^2 conj(u) u^T.
    """
    radar = cfg.eta ** 2 * squared_norm(u) * np.outer(u.conj(), u)
    return (1.0 - cfg.alpha) * radar \
        + (cfg.alpha / cfg.sigma_c_sq) * (f_c.conj().T @ f_c)


@dataclass(frozen=True)
class ObjectiveBundle:
    """Factors of the phase-vector polynomial objective for a fixed W.

    f1(theta) = radar_scale |u|^2 |s|^2 + ac (|E|^2 + 2 Re<F W, E>) with
    u = G^T (a o theta), s = (G W)^T (a o theta) and E = H diag(theta) G W;
    adding the theta-independent ac |F W|^2 gives the weighted SNR.  That
    offset is left out because subtracting it from ac |F W + E|^2 would lose
    the digits that the ascent step's acceptance test compares.
    """

    a: ComplexArray          # IRS steering vector toward the target, N
    G: ComplexArray          # radar -> IRS, N x M
    GW: ComplexArray         # G @ W, N x M
    H: ComplexArray          # IRS -> users, K x N
    FW: ComplexArray         # F @ W, K x M
    radar_scale: float       # (1-alpha) eta^2
    ac: float                # alpha / sigma_c^2


def build_bundle(channels: ChannelSet, a_irs: ComplexArray,
                 w: ComplexArray, cfg: RunConfig) -> ObjectiveBundle:
    """Assemble the objective factors for a fixed precoder W."""
    g, f, h = channels.G, channels.F, channels.H
    return ObjectiveBundle(a=a_irs, G=g, GW=g @ w, H=h, FW=f @ w,
                           radar_scale=(1.0 - cfg.alpha) * cfg.eta ** 2,
                           ac=cfg.alpha / cfg.sigma_c_sq)


def squared_norm(z: ComplexArray) -> float:
    """Squared Euclidean (Frobenius) norm."""
    return float(np.real(np.vdot(z, z)))


def phase_factors(theta: ComplexArray, bundle: ObjectiveBundle
                  ) -> tuple[ComplexArray, ComplexArray, ComplexArray]:
    """(u, s, E) at theta, shared by value and gradient."""
    x = bundle.a * theta
    return (bundle.G.T @ x, bundle.GW.T @ x,
            (bundle.H * theta) @ bundle.GW)


def eval_f1(theta: ComplexArray, bundle: ObjectiveBundle) -> float:
    """Polynomial objective: the weighted SNR minus ac |F W|^2."""
    u, s, e = phase_factors(theta, bundle)
    comm = squared_norm(e) + 2.0 * float(np.real(np.vdot(bundle.FW, e)))
    return bundle.radar_scale * squared_norm(u) * squared_norm(s) \
        + bundle.ac * comm
