"""Transmit covariance design under power and beampattern-ball constraints.

The sub-problem is linear in R_w = W W^H: maximize tr(R_w C) subject to
R_w in K = {PSD, tr = P0} and ||R_w - R_d||_F <= gamma_bp, with R_d in K.
It is solved exactly by dualising only the ball (Boyd & Vandenberghe,
*Convex Optimization*, ch. 5): for the multiplier 1/s the maximizer over K
is R(s) = Pi_K(R_d + s C), one eigendecomposition and a simplex projection.
W = R_w^(1/2) is formed from the eigenpairs of the projection that gave R_w.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import _CERTIFY_RTOL, BeampatternSpec, ComplexArray, \
    ConfigError, trace_matches

_FIXED_RTOL = 1e-12    # Pi_K(R_0) = R_0 up to round-off, rel. max(1, power)
_TIE_RTOL = 1e-6       # eigenvalues of C tied with the largest, rel. ||C||_F
Eigenpairs = tuple[np.ndarray, ComplexArray]  # lambda >= 0, orthonormal V


@dataclass(frozen=True)
class PrecoderCovariance:
    """Optimized covariance, its PSD square root, and the attained objective."""

    r_w: ComplexArray
    w: ComplexArray
    objective: float


def hermitize(x: ComplexArray) -> ComplexArray:
    return 0.5 * (x + x.conj().T)


def _covariance(eigvals: np.ndarray, eigvecs: ComplexArray) -> ComplexArray:
    return (eigvecs * eigvals) @ eigvecs.conj().T


def matrix_sqrt(eigvals: np.ndarray, eigvecs: ComplexArray) -> ComplexArray:
    """Hermitian PSD square root V diag(sqrt(lambda)) V^H of a covariance."""
    return _covariance(np.sqrt(eigvals), eigvecs)


def _feasibility_residuals(x: ComplexArray, power: float,
                           spec: BeampatternSpec) -> tuple[float, float, float]:
    eigvals = np.linalg.eigvalsh(hermitize(x))
    psd = float(np.linalg.norm(np.clip(eigvals, None, 0.0)))
    trace = abs(float(np.trace(x).real) - power)
    ball = max(0.0, float(np.linalg.norm(x - spec.r_d, "fro")) - spec.gamma_bp)
    return psd, trace, ball


def project_feasible(x: ComplexArray, power: float) -> Eigenpairs:
    """Eigenpairs of the Frobenius projection of Hermitian x onto
    K = {PSD, tr = power}.

    The eigenvalues go to the simplex {lambda >= 0, sum = power}: the k
    largest are moved to mean power/k and the rest clipped at zero, with k
    counted by the sort-based test (Duchi et al., ICML 2008).  Taking the
    mean first keeps the trace when |x| >> power/eps.
    """
    eigvals, eigvecs = np.linalg.eigh(hermitize(x))
    desc = eigvals[::-1]
    counts = np.arange(1, desc.size + 1)
    means = np.cumsum(desc) / counts
    k = int(np.count_nonzero(desc - means + power / counts > 0))
    return np.clip(eigvals - means[k - 1] + power / k, 0.0, None), eigvecs


def _ball_boundary(c: ComplexArray, power: float, spec: BeampatternSpec,
                   s: float, eig: Eigenpairs) -> Eigenpairs:
    """Eigenpairs of R(s') for the largest s' >= s in the ball, to the last
    bit of s', given those of R(s) in it.  ||R(s') - R_d||_F grows with s'
    (the projection-arc lemma, Bertsekas, *Nonlinear Programming*), so
    doubling brackets the boundary and bisection closes on it."""
    lo, hi = s, math.inf
    while hi - lo > math.ulp(lo):
        mid = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
        eig_mid = project_feasible(spec.r_d + mid * c, power)
        if np.linalg.norm(_covariance(*eig_mid) - spec.r_d, "fro") \
                <= spec.gamma_bp:
            lo, eig = mid, eig_mid
        else:
            hi = mid
    return eig


def solve_covariance(c: ComplexArray, power: float,
                     spec: BeampatternSpec) -> PrecoderCovariance:
    """Maximize tr(R_w C) over the feasible covariance set, exactly.

    The first of these that applies is the optimum, with s0 = gamma_bp /
    ||C0||_F and C0 = C - (tr C/M) I:
    1. R_0 = R_d + s0 C0, the optimum without the PSD constraint, if it is
       in K, i.e. Pi_K(R_0) = R(s0) is R_0;
    2. the ball does not bind: the point U Pi_K(U^H R_d U) U^H nearest R_d
       of the face of K that maximizes tr(R C), U spanning the eigenvectors
       of C tied with the largest, if it is in the ball;
    3. R(s) on the ball's boundary, searched from s0 upwards.
    In exact arithmetic each commutes with a joint rescaling of (power,
    R_d, gamma_bp), which keeps the SNRs homogeneous of degree 2.  The
    result is certified feasible before W is formed from its eigenpairs;
    an R_d off the budget, or a ball with no such result, raises ConfigError.
    """
    trace_rd = float(np.trace(spec.r_d).real)
    if not trace_matches(trace_rd, power):
        raise ConfigError(
            f"tr(R_d) = {trace_rd!r} does not match the budget {power!r}")
    c = hermitize(c)
    m = c.shape[0]
    scale = max(1.0, power)
    c0 = c - (np.trace(c).real / m) * np.eye(m)
    c0_norm = float(np.linalg.norm(c0, "fro"))
    s0 = spec.gamma_bp / c0_norm if c0_norm > 0 else 0.0
    r0 = spec.r_d + s0 * c0
    eig = project_feasible(r0, power)
    r = _covariance(*eig)
    if np.linalg.norm(r - r0, "fro") > _FIXED_RTOL * scale:
        eigvals, eigvecs = np.linalg.eigh(c)
        tied = eigvals >= eigvals[-1] - _TIE_RTOL * np.linalg.norm(c, "fro")
        u = eigvecs[:, tied]
        lam, vecs = project_feasible(u.conj().T @ spec.r_d @ u, power)
        face = lam, u @ vecs
        if np.linalg.norm(_covariance(*face) - spec.r_d, "fro") \
                <= spec.gamma_bp:
            eig = face
        elif s0 > 0:
            eig = _ball_boundary(c, power, spec, s0, eig)
        r = _covariance(*eig)
    psd, trace, ball = _feasibility_residuals(r, power, spec)
    if max(psd, trace, ball) > _CERTIFY_RTOL * scale:
        raise ConfigError(
            f"no covariance in the ball of R_d passes the certificate "
            f"(residuals: PSD {psd:.3e}, trace {trace:.3e}, ball {ball:.3e})")
    objective = float(np.real(np.trace(r @ c)))
    return PrecoderCovariance(r_w=r, w=matrix_sqrt(*eig), objective=objective)
