"""Complex circle manifold machinery for the IRS phase vector.

Gradient convention: grad f = 2 * df/d(conj theta), so the directional
derivative along a tangent direction u is Re{grad^H u} and the standard
unit-modulus tangent projection applies unchanged.  The retraction
renormalizes elementwise, and an element that a step sends to zero keeps
its phase, so no step raises; the ascent step's acceptance test still
rejects a candidate that lowers the objective.
"""
from __future__ import annotations

import numpy as np

from .config import ComplexArray
from .objective import ObjectiveBundle, eval_f1, phase_factors, squared_norm

# Bounds on the MM step weight kappa: without the floor, halving it after
# every accepted step underflows it to 0; without the cap, round-off
# rejections at a stationary point overflow it to inf.
_KAPPA_FLOOR = 2.0 ** -30
_KAPPA_CAP = 2.0 ** 30


def euclidean_gradient(theta: ComplexArray,
                       bundle: ObjectiveBundle) -> ComplexArray:
    """Complex gradient of the polynomial objective at theta:
    2 radar_scale conj(a) o (|s|^2 conj(G) u + |u|^2 conj(GW) s)
    + 2 ac diag(H^H (F W + E) GW^H)."""
    u, s, e = phase_factors(theta, bundle)
    radar = bundle.a.conj() * (squared_norm(s) * (bundle.G.conj() @ u)
                               + squared_norm(u) * (bundle.GW.conj() @ s))
    comm = np.sum((bundle.H.conj().T @ (bundle.FW + e)) * bundle.GW.conj(),
                  axis=1)
    return 2.0 * (bundle.radar_scale * radar + bundle.ac * comm)


def project_tangent(g: ComplexArray, theta: ComplexArray) -> ComplexArray:
    """Remove the radial component: g - Re{g o conj(theta)} o theta."""
    return g - np.real(g * theta.conj()) * theta


def retract(theta: ComplexArray, direction: ComplexArray,
            step: float) -> ComplexArray:
    """Elementwise renormalization of theta + step*direction; an element
    that the step sends to zero keeps its phase."""
    moved = theta + step * direction
    mag = np.abs(moved)
    return np.divide(moved, mag, out=theta.copy(), where=mag > 0)


def ascent_step(theta: ComplexArray, bundle: ObjectiveBundle, kappa: float,
                gradient: ComplexArray) -> tuple[ComplexArray, float]:
    """One adaptive-step ascent update of the majorization-minimization (MM)
    form; returns the new theta and the kappa for the next step.

    x = exp(j arg(g + 2 lam theta)) = retract(theta, g, 1/(2 lam)) maximizes
    f(theta) + Re{g^H (x - theta)} - lam ||x - theta||^2 over unit-modulus x,
    for the Euclidean gradient g = `gradient` at theta and
    lam = kappa ||g||/sqrt(N).  That surrogate minorizes f only while lam
    bounds its curvature, which a small kappa does not, so monotonicity
    comes from the acceptance test: the step is kept only if eval_f1 does
    not fall.  A rejection doubles kappa and
    retries, an acceptance halves it, and past the cap theta stays put.
    """
    scale = float(np.linalg.norm(gradient)) / np.sqrt(theta.shape[0])
    if scale == 0.0:
        return theta, kappa
    f_old = eval_f1(theta, bundle)
    while kappa <= _KAPPA_CAP:
        candidate = retract(theta, gradient, 0.5 / (kappa * scale))
        if eval_f1(candidate, bundle) >= f_old:
            return candidate, max(0.5 * kappa, _KAPPA_FLOOR)
        kappa *= 2.0
    return theta, _KAPPA_CAP
