"""SNR objectives and the structured polynomial form in the IRS phases.

The weighted objective is quartic in the phase vector theta through the
radar path and quadratic through the communication path.  Instead of the
naive M^2 dense coefficient matrices, evaluation and differentiation use
the factored identity

    h = G^T Theta R Theta (G W)      (M x M)

whose squared Frobenius norm reproduces the quartic term; the dense
coefficient matrices remain available for verification.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .channel import ChannelSet

ComplexArray = NDArray[np.complexfloating]


@dataclass(frozen=True)
class DesignWeights:
    """Radar/communication trade-off weight and receiver noise powers."""

    alpha: float
    sigma_r_sq: float
    sigma_c_sq: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.sigma_r_sq <= 0 or self.sigma_c_sq <= 0:
            raise ValueError("noise powers must be positive")


def _output_snr(channel: ComplexArray, precoder: ComplexArray,
                noise_power: float) -> float:
    if channel.shape[1] != precoder.shape[0]:
        raise ValueError("channel/precoder dimension mismatch")
    if noise_power <= 0:
        raise ValueError("noise power must be positive")
    return float(np.linalg.norm(channel @ precoder, "fro") ** 2 / noise_power)


def radar_snr(f_r: ComplexArray, w: ComplexArray, sigma_r_sq: float) -> float:
    """tr(F_r W W^H F_r^H) / sigma_r^2."""
    return _output_snr(f_r, w, sigma_r_sq)


def comm_snr(f_c: ComplexArray, w: ComplexArray, sigma_c_sq: float) -> float:
    """tr(F_c W W^H F_c^H) / sigma_c^2."""
    return _output_snr(f_c, w, sigma_c_sq)


def weighted_objective(snr_radar: float, snr_comm: float, alpha: float) -> float:
    """(1-alpha)*radar + alpha*comm."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    return (1.0 - alpha) * snr_radar + alpha * snr_comm


def build_C(f_r: ComplexArray, f_c: ComplexArray,
            weights: DesignWeights) -> ComplexArray:
    """Hermitian PSD matrix with tr(W W^H C) equal to the weighted objective."""
    if f_r.shape[1] != f_c.shape[1]:
        raise ValueError("F_r and F_c must share the antenna dimension")
    c = ((1.0 - weights.alpha) / weights.sigma_r_sq) * (f_r.conj().T @ f_r) \
        + (weights.alpha / weights.sigma_c_sq) * (f_c.conj().T @ f_c)
    return 0.5 * (c + c.conj().T)


@dataclass(frozen=True)
class ObjectiveBundle:
    """Precomputed coefficients of the phase-vector polynomial objective.

    The quartic term is radar_scale * sum_ij |theta^T Z_ij theta|^2 with
    Z_ij = R o (G w_j g_i^T)^T; it is evaluated through the cached factors
    R, G and GW without materializing the Z stack.  `z_matrices` builds the
    dense (M, M, N, N) stack on demand for cross-checks.
    """

    R: ComplexArray          # a_irs a_irs^T, N x N
    G: ComplexArray          # N x M
    GW: ComplexArray         # G @ W, N x M
    D1: ComplexArray         # Hermitian N x N quadratic-term matrix
    v: ComplexArray          # length-N linear-term vector
    t0: float                # theta-independent offset
    radar_scale: float       # (1-alpha)|eta|^2 / sigma_r^2

    def z_matrices(self) -> ComplexArray:
        """Dense quartic coefficient stack Z[i, j] = R o (G w_j g_i^T)^T."""
        return np.einsum("pq,pi,qj->ijpq", self.R, self.G, self.GW)


def build_bundle(channels: ChannelSet, a_irs: ComplexArray,
                 w: ComplexArray, weights: DesignWeights) -> ObjectiveBundle:
    """Assemble the polynomial coefficients for a fixed precoder W."""
    g, f, h = channels.G, channels.F, channels.H
    n, m = g.shape
    if a_irs.shape != (n,):
        raise ValueError("a_irs must be a length-N vector")
    if w.shape[0] != m:
        raise ValueError("precoder row count must match radar antennas")
    ac = weights.alpha / weights.sigma_c_sq
    r = np.outer(a_irs, a_irs)
    gw = g @ w
    gram = gw @ gw.conj().T  # G W W^H G^H
    d1 = ac * (h.conj().T @ h) * gram.T
    d1 = 0.5 * (d1 + d1.conj().T)
    d2_diag = np.einsum("nm,mn->n", gw @ w.conj().T @ f.conj().T, h)
    v = ac * d2_diag
    t0 = ac * float(np.real(np.trace(w @ w.conj().T @ f.conj().T @ f)))
    radar_scale = (1.0 - weights.alpha) * abs(channels.eta) ** 2 \
        / weights.sigma_r_sq
    return ObjectiveBundle(R=r, G=g, GW=gw, D1=d1, v=v, t0=t0,
                           radar_scale=radar_scale)


def _quartic_inner(theta: ComplexArray, bundle: ObjectiveBundle) -> ComplexArray:
    """h = G^T Theta R Theta (G W), shared by value and gradient."""
    gt_theta = bundle.G.T * theta  # G^T diag(theta)
    return gt_theta @ bundle.R @ (theta[:, None] * bundle.GW)


def eval_f1(theta: ComplexArray, bundle: ObjectiveBundle) -> float:
    """Polynomial objective (weighted SNR minus the constant offset t0)."""
    h = _quartic_inner(theta, bundle)
    t4 = bundle.radar_scale * float(np.sum(np.abs(h) ** 2))
    t2 = float(np.real(theta.conj() @ bundle.D1 @ theta))
    t1 = 2.0 * float(np.real(theta @ bundle.v))
    return t4 + t2 + t1
