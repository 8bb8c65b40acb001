import numpy as np
import pytest

from dfrc.manifold import (AscentConfig, ZeroElementError, ascent_step,
                           euclidean_gradient, finite_difference_gradient,
                           project_tangent, retract)
from dfrc.objective import ObjectiveBundle, eval_f1
from dfrc.validation import random_bundle


def synthetic_bundle(n, d1=None, v=None):
    """Bundle with hand-picked quadratic/linear coefficients and no
    quartic part, for analytic gradient cases."""
    return ObjectiveBundle(
        R=np.zeros((n, n), dtype=complex),
        G=np.zeros((n, 1), dtype=complex),
        GW=np.zeros((n, 1), dtype=complex),
        D1=np.zeros((n, n), dtype=complex) if d1 is None else d1,
        v=np.zeros(n, dtype=complex) if v is None else v,
        t0=0.0, radar_scale=0.0)


def unit_theta(rng, n):
    return np.exp(1j * rng.uniform(0, 2 * np.pi, n))


class TestEuclideanGradient:
    def test_zero_bundle(self):
        theta = unit_theta(np.random.default_rng(0), 5)
        g = euclidean_gradient(theta, synthetic_bundle(5))
        np.testing.assert_allclose(g, np.zeros(5), atol=1e-15)

    def test_quadratic_identity(self):
        theta = unit_theta(np.random.default_rng(1), 6)
        bundle = synthetic_bundle(6, d1=np.eye(6, dtype=complex))
        np.testing.assert_allclose(euclidean_gradient(theta, bundle),
                                   2 * theta, atol=1e-14)

    def test_against_finite_differences(self):
        rng = np.random.default_rng(2)
        bundle, theta = random_bundle(rng, 2, 8)
        analytic = euclidean_gradient(theta, bundle)
        numeric = finite_difference_gradient(theta, bundle, 1e-6)
        assert np.linalg.norm(analytic - numeric) \
            < 1e-5 * np.linalg.norm(numeric)


class TestProjectTangent:
    def test_radial_direction_removed(self):
        theta = unit_theta(np.random.default_rng(3), 4)
        np.testing.assert_allclose(project_tangent(theta, theta),
                                   np.zeros(4), atol=1e-14)

    def test_tangent_direction_unchanged(self):
        theta = unit_theta(np.random.default_rng(4), 4)
        np.testing.assert_allclose(project_tangent(1j * theta, theta),
                                   1j * theta, atol=1e-14)

    def test_hand_example(self):
        out = project_tangent(np.array([3.0 + 4.0j]),
                              np.array([1.0 + 0.0j]))
        np.testing.assert_allclose(out, [4.0j])

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        theta = unit_theta(rng, 10)
        g = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        once = project_tangent(g, theta)
        twice = project_tangent(once, theta)
        assert np.max(np.abs(twice - once)) < 1e-12

    def test_real_linear(self):
        # the projection involves Re{.}, so it is linear over real scalars
        rng = np.random.default_rng(6)
        theta = unit_theta(rng, 7)
        g1 = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        g2 = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        lhs = project_tangent(2.0 * g1 - 3.0 * g2, theta)
        rhs = 2.0 * project_tangent(g1, theta) \
            - 3.0 * project_tangent(g2, theta)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_membership(self):
        rng = np.random.default_rng(7)
        theta = unit_theta(rng, 12)
        g = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        out = project_tangent(g, theta)
        assert np.max(np.abs(np.real(out * theta.conj()))) < 1e-10


class TestRetract:
    def test_zero_step(self):
        theta = unit_theta(np.random.default_rng(8), 5)
        direction = 1j * theta
        np.testing.assert_allclose(retract(theta, direction, 0.0), theta)

    def test_hand_example(self):
        out = retract(np.array([1.0 + 0j]), np.array([1.0j]), 1.0)
        np.testing.assert_allclose(out, [(1 + 1j) / np.sqrt(2)])

    def test_output_on_manifold(self):
        rng = np.random.default_rng(9)
        theta = unit_theta(rng, 20)
        direction = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        out = retract(theta, direction, 0.3)
        assert np.max(np.abs(np.abs(out) - 1.0)) < 1e-12

    def test_zero_element_error(self):
        with pytest.raises(ZeroElementError):
            retract(np.array([1.0 + 0j]), np.array([-1.0 + 0j]), 1.0)


class TestAscentStep:
    def test_zero_bundle_is_stationary(self):
        theta = unit_theta(np.random.default_rng(10), 5)
        out = ascent_step(theta, synthetic_bundle(5), AscentConfig(step=0.1))
        np.testing.assert_allclose(out, theta)

    def test_radial_gradient_is_stationary(self):
        # gradient of theta^H theta is 2*theta -> projection zero
        theta = unit_theta(np.random.default_rng(11), 6)
        bundle = synthetic_bundle(6, d1=np.eye(6, dtype=complex))
        out = ascent_step(theta, bundle, AscentConfig(step=0.1))
        np.testing.assert_allclose(out, theta, atol=1e-14)

    def test_small_step_increases_objective(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            bundle, theta = random_bundle(rng, 2, 8)
            before = eval_f1(theta, bundle)
            after = eval_f1(ascent_step(theta, bundle,
                                        AscentConfig(step=1e-3)), bundle)
            assert after >= before - 1e-9

    def test_stationarity_at_small_gradient(self):
        # near a local max the Riemannian gradient vanishes; drive there
        rng = np.random.default_rng(13)
        bundle, theta = random_bundle(rng, 2, 6)
        cfg = AscentConfig(step=0.01, backtracking=True)
        for _ in range(3000):
            theta = ascent_step(theta, bundle, cfg)
        rgrad = project_tangent(euclidean_gradient(theta, bundle), theta)
        scale = max(1.0, np.linalg.norm(euclidean_gradient(theta, bundle)))
        if np.linalg.norm(rgrad) / scale < 1e-8:
            moved = ascent_step(theta, bundle, AscentConfig(step=0.01))
            assert np.max(np.abs(moved - theta)) < 1e-7

    def test_backtracking_never_decreases(self):
        rng = np.random.default_rng(14)
        bundle, theta = random_bundle(rng, 3, 10)
        cfg = AscentConfig(step=10.0, backtracking=True)
        f = eval_f1(theta, bundle)
        for _ in range(50):
            theta = ascent_step(theta, bundle, cfg)
            f_new = eval_f1(theta, bundle)
            assert f_new >= f - 1e-12 * max(1.0, abs(f))
            f = f_new


    @pytest.mark.parametrize("backtracking", [False, True])
    def test_given_direction_matches_computed(self, backtracking):
        rng = np.random.default_rng(19)
        bundle, theta = random_bundle(rng, 3, 10)
        cfg = AscentConfig(step=10.0, backtracking=backtracking)
        rgrad = project_tangent(euclidean_gradient(theta, bundle), theta)
        np.testing.assert_array_equal(
            ascent_step(theta, bundle, cfg, direction=rgrad),
            ascent_step(theta, bundle, cfg))


class TestFiniteDifference:
    def test_analytic_quadratic(self):
        theta = unit_theta(np.random.default_rng(15), 5)
        bundle = synthetic_bundle(5, d1=np.eye(5, dtype=complex))
        g = finite_difference_gradient(theta, bundle, 1e-5)
        np.testing.assert_allclose(g, 2 * theta, atol=1e-8)

    def test_cross_validation_many_instances(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(2, 17))
            bundle, theta = random_bundle(rng, m, n)
            analytic = euclidean_gradient(theta, bundle)
            numeric = finite_difference_gradient(theta, bundle, 1e-6)
            assert np.linalg.norm(analytic - numeric) \
                < 1e-5 * np.linalg.norm(numeric)

    def test_quadratic_error_decay(self):
        rng = np.random.default_rng(17)
        bundle, theta = random_bundle(rng, 2, 6)
        exact = euclidean_gradient(theta, bundle)
        err = {h: np.linalg.norm(
            finite_difference_gradient(theta, bundle, h) - exact)
            for h in (1e-4, 1e-5)}
        # central differences: error ~ h^2, so a decade in h gives ~100x
        assert err[1e-5] < 0.05 * err[1e-4]


class TestDirectionalDerivative:
    def test_identity_along_random_tangent(self):
        rng = np.random.default_rng(18)
        bundle, theta = random_bundle(rng, 2, 8)
        u = project_tangent(
            rng.standard_normal(8) + 1j * rng.standard_normal(8), theta)
        u /= np.linalg.norm(u)
        grad = euclidean_gradient(theta, bundle)
        predicted = np.real(np.vdot(grad, u))
        errors = {}
        for h in (1e-5, 1e-6):
            secant = (eval_f1(retract(theta, u, h), bundle)
                      - eval_f1(theta, bundle)) / h
            errors[h] = abs(secant - predicted)
        assert errors[1e-6] <= 0.2 * errors[1e-5] + 1e-12
