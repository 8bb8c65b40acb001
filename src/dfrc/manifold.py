"""Complex circle manifold machinery for the IRS phase vector.

Gradient convention: grad f = 2 * df/d(conj theta), so the directional
derivative along a tangent direction u is Re{grad^H u} and the standard
unit-modulus tangent projection applies unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .objective import ObjectiveBundle, _quartic_inner, eval_f1

ComplexArray = NDArray[np.complexfloating]

_ZERO_MAGNITUDE = 1e-14


class ZeroElementError(ValueError):
    """Retraction hit a (near-)zero element; the step is too large."""


@dataclass(frozen=True)
class AscentConfig:
    """Fixed-step ascent parameters; backtracking halves the step until the
    objective stops decreasing (at most 20 halvings) when enabled."""

    step: float = 0.1
    backtracking: bool = False

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ValueError("step must be positive")


def euclidean_gradient(theta: ComplexArray,
                       bundle: ObjectiveBundle) -> ComplexArray:
    """Complex gradient of the polynomial objective at theta."""
    h = _quartic_inner(theta, bundle)
    b = bundle.R.conj() * (bundle.G.conj() @ h @ bundle.GW.conj().T)
    quartic = 2.0 * bundle.radar_scale * ((b + b.T) @ theta.conj())
    return quartic + 2.0 * (bundle.D1 @ theta) + 2.0 * bundle.v.conj()


def project_tangent(g: ComplexArray, theta: ComplexArray) -> ComplexArray:
    """Remove the radial component: g - Re{g o conj(theta)} o theta."""
    return g - np.real(g * theta.conj()) * theta


def retract(theta: ComplexArray, direction: ComplexArray,
            step: float) -> ComplexArray:
    """Elementwise renormalization of theta + step*direction."""
    moved = theta + step * direction
    mag = np.abs(moved)
    if np.any(mag < _ZERO_MAGNITUDE):
        raise ZeroElementError(
            "retraction produced a near-zero element; shrink the step")
    return moved / mag


def ascent_step(theta: ComplexArray, bundle: ObjectiveBundle,
                cfg: AscentConfig,
                direction: ComplexArray | None = None) -> ComplexArray:
    """One gradient -> tangent projection -> retraction iteration.

    `direction` is the Riemannian gradient at theta when the caller has
    already computed it; it is computed here when omitted.
    """
    if direction is None:
        direction = project_tangent(euclidean_gradient(theta, bundle), theta)
    if not cfg.backtracking:
        return retract(theta, direction, cfg.step)
    f_old = eval_f1(theta, bundle)
    step = cfg.step
    for _ in range(21):
        candidate = retract(theta, direction, step)
        if eval_f1(candidate, bundle) >= f_old:
            return candidate
        step *= 0.5
    return theta  # no improving step found; stay put


def finite_difference_gradient(theta: ComplexArray, bundle: ObjectiveBundle,
                               h: float) -> ComplexArray:
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
