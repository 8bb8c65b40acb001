"""Random instances and reference oracles for the tests.

Random (channels, steering, precoder, config, theta) tuples and
objective bundles, a central-difference gradient of the phase objective,
and a rejection sampler of feasible covariances.  Each is independent of
the code path it checks.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from dfrc.channel import ChannelSet, rayleigh_channel, upa_steering
from dfrc.config import BeampatternSpec, RunConfig, SystemGeometry, \
    parse_config
from dfrc.objective import ObjectiveBundle, build_bundle, eval_f1

TABLE1 = parse_config("table1")


def random_instance(rng: np.random.Generator, m: int, n: int, k: int
                    ) -> tuple[ChannelSet, np.ndarray, np.ndarray,
                               RunConfig, np.ndarray]:
    """Random (channels, steering, precoder, config, theta) tuple for
    oracle checks; the config carries a random alpha, communication noise
    power and eta, and theta is drawn on the unit circle."""
    geometry = SystemGeometry(
        num_radar_antennas=m, irs_rows=n, irs_cols=1,
        radar_spacing=0.5, irs_spacing=0.5,
        target_azimuth=rng.uniform(-np.pi / 2, np.pi / 2),
        target_elevation=rng.uniform(0.0, np.pi / 2))
    channels = ChannelSet(
        G=rayleigh_channel(n, m, rng),
        F=rayleigh_channel(k, m, rng),
        H=rayleigh_channel(k, n, rng))
    # eta = |gain| / sigma_r, a complex round-trip gain over a radar noise
    # amplitude
    gain = abs(rng.standard_normal() + 1j * rng.standard_normal())
    a_irs = upa_steering(geometry)
    w = rayleigh_channel(m, m, rng)
    alpha = float(rng.uniform(0.05, 0.95))
    eta = gain / np.sqrt(rng.uniform(0.5, 2.0))
    cfg = replace(TABLE1, alpha=alpha, eta=float(eta),
                  sigma_c_sq=float(rng.uniform(0.5, 2.0)))
    theta = np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))
    return channels, a_irs, w, cfg, theta


def random_bundle(rng: np.random.Generator, m: int,
                  n: int) -> tuple[ObjectiveBundle, np.ndarray]:
    """Random objective bundle with K = 3 users, and a theta."""
    channels, a_irs, w, cfg, theta = random_instance(rng, m, n, 3)
    return build_bundle(channels, a_irs, w, cfg), theta


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
