from dataclasses import replace

import numpy as np
import pytest

from dfrc.manifold import (ascent_step, euclidean_gradient, project_tangent,
                           retract)
from dfrc.objective import ObjectiveBundle, eval_f1
from instances import finite_difference_gradient, random_bundle


def comm_bundle(n, ac=0.0, h=None, fw=None):
    """Bundle with no radar part and GW = 1, for analytic gradient cases:
    f1 = ac (|H theta|^2 + 2 Re{FW^H H theta}).  The default H = I and
    FW = 0 give f1 = ac theta^H theta (D1 = ac I, v = 0 in dense form)."""
    h = np.eye(n, dtype=complex) if h is None else h
    fw = np.zeros((h.shape[0], 1), dtype=complex) if fw is None else fw
    return ObjectiveBundle(
        a=np.ones(n, dtype=complex), G=np.zeros((n, 1), dtype=complex),
        GW=np.ones((n, 1), dtype=complex), H=h, FW=fw, radar_scale=0.0,
        ac=ac)


def unit_theta(rng, n):
    return np.exp(1j * rng.uniform(0, 2 * np.pi, n))


def concave_bundle(rng, n):
    """f1 = -theta^H B B^H theta + 2 Re{theta^T v} for a random B, on which
    the near-unregularized step (kappa tiny) overshoots and lowers f1.
    H = B^H with ac = -1 gives the quadratic part, and FW = -B^-1 conj(v)
    the linear one."""
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    fw = -np.linalg.solve(b, v.conj())[:, None]
    return comm_bundle(n, ac=-1.0, h=b.conj().T, fw=fw), unit_theta(rng, n)


class TestEuclideanGradient:
    def test_zero_bundle(self):
        theta = unit_theta(np.random.default_rng(0), 5)
        g = euclidean_gradient(theta, comm_bundle(5))
        np.testing.assert_allclose(g, np.zeros(5), atol=1e-15)

    def test_quadratic_identity(self):
        theta = unit_theta(np.random.default_rng(1), 6)
        bundle = comm_bundle(6, ac=1.0)
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
        # the step sends the first element to exactly 0: it keeps its
        # phase, and the others are renormalized as usual
        theta = np.exp(1j * np.array([0.4, 1.3, -2.0]))
        direction = np.array([-theta[0], 1.0j, 0.5 + 0j])
        out = retract(theta, direction, 1.0)
        assert out[0] == theta[0]
        moved = theta[1:] + direction[1:]
        np.testing.assert_array_equal(out[1:], moved / np.abs(moved))
        assert np.max(np.abs(np.abs(out) - 1.0)) < 1e-15


class TestAscentStep:
    def test_zero_bundle_is_stationary(self):
        theta = unit_theta(np.random.default_rng(10), 5)
        bundle = comm_bundle(5)
        out, _ = ascent_step(theta, bundle, 1.0,
                             euclidean_gradient(theta, bundle))
        np.testing.assert_allclose(out, theta)

    def test_radial_gradient_is_stationary(self):
        # gradient of theta^H theta is 2*theta -> projection zero
        theta = unit_theta(np.random.default_rng(11), 6)
        bundle = comm_bundle(6, ac=1.0)
        out, _ = ascent_step(theta, bundle, 1.0,
                             euclidean_gradient(theta, bundle))
        np.testing.assert_allclose(out, theta, atol=1e-14)

    def test_small_step_increases_objective(self):
        # a large kappa is a small step: accepted at once, since the
        # first-order gain dominates
        rng = np.random.default_rng(12)
        for _ in range(10):
            bundle, theta = random_bundle(rng, 2, 8)
            before = eval_f1(theta, bundle)
            moved, kappa = ascent_step(theta, bundle, 1e3,
                                       euclidean_gradient(theta, bundle))
            assert eval_f1(moved, bundle) >= before - 1e-9
            assert kappa == 500.0

    def test_stationarity_at_small_gradient(self):
        # near a local max the Riemannian gradient vanishes; drive there
        rng = np.random.default_rng(13)
        bundle, theta = random_bundle(rng, 2, 6)
        kappa = 1.0
        for _ in range(3000):
            theta, kappa = ascent_step(theta, bundle, kappa,
                                       euclidean_gradient(theta, bundle))
        # the step converges only linearly here, so a tangent residual of
        # about 2e-7 of the gradient is left; the cross term 2 ac Re<FW, E>
        # adds 2 ac diag(H^H FW GW^H) to the gradient, linear in FW and onto
        # when K M >= N (here 3 * 2 = 6), so shifting FW to cancel the
        # residual makes theta stationary by construction on a bundle that
        # keeps its quartic part
        grad = euclidean_gradient(theta, bundle)
        residual = project_tangent(grad, theta)
        assert np.linalg.norm(residual) < 1e-6 * np.linalg.norm(grad)
        k, m = bundle.FW.shape
        basis = np.einsum("kn,nm->nkm", bundle.H.conj(),
                          bundle.GW.conj()).reshape(-1, k * m)
        shift = np.linalg.lstsq(2.0 * bundle.ac * basis, -residual,
                                rcond=None)[0]
        bundle = replace(bundle, FW=bundle.FW + shift.reshape(k, m))
        rgrad = project_tangent(euclidean_gradient(theta, bundle), theta)
        scale = max(1.0, np.linalg.norm(euclidean_gradient(theta, bundle)))
        assert np.linalg.norm(rgrad) / scale < 1e-8
        moved, _ = ascent_step(theta, bundle, kappa,
                               euclidean_gradient(theta, bundle))
        assert np.max(np.abs(moved - theta)) < 1e-7

    def test_backtracking_never_decreases(self):
        # start from the smallest kappa, the largest step
        rng = np.random.default_rng(14)
        bundle, theta = random_bundle(rng, 3, 10)
        kappa = 2.0 ** -30
        f = eval_f1(theta, bundle)
        for _ in range(50):
            theta, kappa = ascent_step(theta, bundle, kappa,
                                       euclidean_gradient(theta, bundle))
            f_new = eval_f1(theta, bundle)
            assert f_new >= f - 1e-12 * max(1.0, abs(f))
            f = f_new

    @pytest.mark.parametrize("rejected_first", [False, True])
    def test_given_direction_matches_computed(self, rejected_first,
                                              monkeypatch):
        # every candidate, the retries after a rejection too, moves along
        # the gradient the caller computed
        from dfrc import manifold
        rng = np.random.default_rng(19)
        if rejected_first:
            (bundle, theta), kappa = concave_bundle(rng, 8), 2.0 ** -40
        else:
            (bundle, theta), kappa = random_bundle(rng, 3, 10), 0.1
        grad = euclidean_gradient(theta, bundle)
        candidates = []

        def recorded(point, direction, step):
            assert direction is grad
            candidates.append(retract(point, direction, step))
            return candidates[-1]

        monkeypatch.setattr(manifold, "retract", recorded)
        given, kappa_given = ascent_step(theta, bundle, kappa, grad)
        np.testing.assert_array_equal(given, candidates[-1])
        assert (len(candidates) > 1) == rejected_first
        assert (kappa_given > kappa) == rejected_first

    def test_step_is_retraction_along_euclidean_gradient(self):
        rng = np.random.default_rng(20)
        bundle, theta = random_bundle(rng, 3, 10)
        grad = euclidean_gradient(theta, bundle)
        lam = 0.25 * np.linalg.norm(grad) / np.sqrt(10)
        moved, kappa = ascent_step(theta, bundle, 0.25, grad)
        assert kappa == 0.125
        np.testing.assert_allclose(
            moved, np.exp(1j * np.angle(grad + 2 * lam * theta)), atol=1e-12)

    def test_many_steps_stay_finite_and_monotone(self):
        # kappa halves on every accepted step; without a floor it is 3e-151
        # after 500 steps, and the step length 1/(2 lambda) overflows
        rng = np.random.default_rng(103)
        bundle, theta = random_bundle(rng, 3, 12)
        kappa = 1.0
        f = eval_f1(theta, bundle)
        for _ in range(2000):
            theta, kappa = ascent_step(theta, bundle, kappa,
                                       euclidean_gradient(theta, bundle))
            assert np.all(np.isfinite(theta)) and kappa >= 2.0 ** -30
            assert np.max(np.abs(np.abs(theta) - 1.0)) < 1e-10
            f_new = eval_f1(theta, bundle)
            assert f_new >= f - 1e-12 * abs(f)
            f = f_new

    def test_rejected_step_doubles_kappa(self):
        bundle, theta = concave_bundle(np.random.default_rng(21), 8)
        grad = euclidean_gradient(theta, bundle)
        assert eval_f1(np.exp(1j * np.angle(grad)), bundle) \
            < eval_f1(theta, bundle)
        start = 2.0 ** -40
        moved, kappa = ascent_step(theta, bundle, start, grad)
        assert eval_f1(moved, bundle) >= eval_f1(theta, bundle)
        assert kappa > start

    def test_kappa_is_capped_when_every_step_is_rejected(self, monkeypatch):
        # at a stationary point round-off can reject every step; kappa must
        # stay finite, or no later step could move again.  An objective that
        # falls on every evaluation stands in for that round-off.
        from dfrc import manifold
        rng = np.random.default_rng(23)
        bundle, theta = random_bundle(rng, 2, 6)
        calls = []

        def falling(x, b):
            calls.append(1)
            return -float(len(calls))

        monkeypatch.setattr(manifold, "eval_f1", falling)
        kappa = 1.0
        for _ in range(20):
            moved, kappa = ascent_step(theta, bundle, kappa,
                                       euclidean_gradient(theta, bundle))
            np.testing.assert_array_equal(moved, theta)
        assert kappa == 2.0 ** 30
        monkeypatch.undo()
        _, kappa = ascent_step(theta, bundle, kappa,
                               euclidean_gradient(theta, bundle))
        assert kappa == 2.0 ** 29

    def test_candidate_that_ties_the_objective_is_kept(self, monkeypatch):
        # the acceptance test is "does not fall": on a constant objective
        # the first candidate is kept; a strict test would reject every
        # candidate and drive kappa to the cap with theta put
        from dfrc import manifold
        rng = np.random.default_rng(23)
        bundle, theta = random_bundle(rng, 2, 6)
        grad = euclidean_gradient(theta, bundle)
        monkeypatch.setattr(manifold, "eval_f1", lambda x, b: 1.0)
        moved, kappa = ascent_step(theta, bundle, 1.0, grad)
        assert kappa == 0.5
        scale = np.linalg.norm(grad) / np.sqrt(6)
        np.testing.assert_array_equal(moved,
                                      retract(theta, grad, 0.5 / scale))

    def test_zero_element_is_rejected_not_raised(self):
        # f1 = -theta^H theta is constant on the circle; its gradient
        # -2 theta sends theta_i + t g_i to exactly 0 at kappa = 0.5
        theta = unit_theta(np.random.default_rng(22), 5)
        bundle = comm_bundle(5, ac=-1.0)
        moved, _ = ascent_step(theta, bundle, 0.5,
                               euclidean_gradient(theta, bundle))
        np.testing.assert_allclose(moved, theta, atol=1e-14)


class TestFiniteDifference:
    def test_analytic_quadratic(self):
        theta = unit_theta(np.random.default_rng(15), 5)
        bundle = comm_bundle(5, ac=1.0)
        g = finite_difference_gradient(theta, bundle, 1e-5)
        np.testing.assert_allclose(g, 2 * theta, atol=1e-8)

    @staticmethod
    def worst_relative_error(seed, count, gradient):
        """Largest ||gradient - central difference|| / ||central
        difference|| (h = 1e-6) over `count` random instances with M in
        1..4 and N in 2..16."""
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(count):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(2, 17))
            bundle, theta = random_bundle(rng, m, n)
            numeric = finite_difference_gradient(theta, bundle, 1e-6)
            worst = max(worst, float(
                np.linalg.norm(gradient(theta, bundle) - numeric)
                / np.linalg.norm(numeric)))
        return worst

    def test_cross_validation_many_instances(self):
        for seed in (16, 2024):
            assert self.worst_relative_error(
                seed, 50, euclidean_gradient) < 1e-5

    def test_conjugated_gradient_is_rejected(self):
        # the oracle can fail: grad f = 2 df/d(conj theta), and its
        # conjugate misses on the first instances of the same stream
        def conjugated(theta, bundle):
            return euclidean_gradient(theta, bundle).conj()

        assert self.worst_relative_error(2024, 5, conjugated) >= 1e-5

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
