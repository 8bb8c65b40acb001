"""Dense reference form of the phase objective, for cross-checks only.

Expands f1(theta) into a quartic, a quadratic and a linear part with
explicit N x N coefficients:

    f1 = radar_scale sum_ij |theta^T Z_ij theta|^2 + theta^H D1 theta
         + 2 Re{theta^T v}

with R = a a^T and Z_ij = R o (G w_j g_i^T)^T.  The factored form in
dfrc.objective must agree with it; this module is what it is checked
against, and the tests that read D1, v or the Z stack run on it.  The
weighted SNR is also formed here through the dense M x M radar channel.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dfrc.channel import ChannelSet, composite_comm_channel
from dfrc.config import RunConfig


@dataclass(frozen=True)
class DenseBundle:
    R: np.ndarray            # a_irs a_irs^T, N x N
    G: np.ndarray            # N x M
    GW: np.ndarray           # G @ W, N x M
    D1: np.ndarray           # Hermitian N x N quadratic-term matrix
    v: np.ndarray            # length-N linear-term vector
    t0: float                # theta-independent offset
    radar_scale: float       # (1-alpha) eta^2


def build_dense_bundle(channels: ChannelSet, a_irs: np.ndarray,
                       w: np.ndarray, cfg: RunConfig) -> DenseBundle:
    g, f, h = channels.G, channels.F, channels.H
    ac = cfg.alpha / cfg.sigma_c_sq
    gw = g @ w
    gram = gw @ gw.conj().T  # G W W^H G^H
    d1 = ac * (h.conj().T @ h) * gram.T
    d1 = 0.5 * (d1 + d1.conj().T)
    v = ac * np.einsum("nm,mn->n", gw @ w.conj().T @ f.conj().T, h)
    t0 = ac * float(np.real(np.trace(w @ w.conj().T @ f.conj().T @ f)))
    radar_scale = (1.0 - cfg.alpha) * cfg.eta ** 2
    return DenseBundle(R=np.outer(a_irs, a_irs), G=g, GW=gw, D1=d1, v=v,
                       t0=t0, radar_scale=radar_scale)


def z_matrices(bundle: DenseBundle) -> np.ndarray:
    """Quartic coefficient stack Z[i, j] = R o (G w_j g_i^T)^T."""
    return np.einsum("pq,pi,qj->ijpq", bundle.R, bundle.G, bundle.GW)


def _quartic_inner(theta: np.ndarray, bundle: DenseBundle) -> np.ndarray:
    """h = G^T Theta R Theta (G W), with h_ij = theta^T Z_ij theta."""
    return (bundle.G.T * theta) @ bundle.R @ (theta[:, None] * bundle.GW)


def eval_f1(theta: np.ndarray, bundle: DenseBundle) -> float:
    h = _quartic_inner(theta, bundle)
    t4 = bundle.radar_scale * float(np.sum(np.abs(h) ** 2))
    t2 = float(np.real(theta.conj() @ bundle.D1 @ theta))
    t1 = 2.0 * float(np.real(theta @ bundle.v))
    return t4 + t2 + t1


def euclidean_gradient(theta: np.ndarray, bundle: DenseBundle) -> np.ndarray:
    h = _quartic_inner(theta, bundle)
    b = bundle.R.conj() * (bundle.G.conj() @ h @ bundle.GW.conj().T)
    quartic = 2.0 * bundle.radar_scale * ((b + b.T) @ theta.conj())
    return quartic + 2.0 * (bundle.D1 @ theta) + 2.0 * bundle.v.conj()


def composite_radar_channel(channels: ChannelSet, theta: np.ndarray,
                            a_irs: np.ndarray, eta: complex) -> np.ndarray:
    """Round-trip radar channel eta (G^T Theta a)(a^T Theta G), M x M."""
    u = channels.G.T @ (theta * a_irs)
    return eta * np.outer(u, u)


def weighted_snr(channels: ChannelSet, a_irs: np.ndarray, w: np.ndarray,
                 cfg: RunConfig, theta: np.ndarray) -> float:
    """(1-alpha) |F_r W|^2 + alpha |F_c W|^2 / sigma_c^2, with the radar
    noise in eta."""
    radar = np.linalg.norm(
        composite_radar_channel(channels, theta, a_irs, cfg.eta) @ w)
    comm = np.linalg.norm(composite_comm_channel(channels, theta) @ w)
    return (1.0 - cfg.alpha) * radar ** 2 \
        + cfg.alpha * comm ** 2 / cfg.sigma_c_sq
