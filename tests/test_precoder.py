import numpy as np
import pytest

from dfrc import precoder
from dfrc.channel import (composite_comm_channel, composite_radar_channel,
                          synthesize_channels, upa_steering)
from dfrc.config import parse_config
from dfrc.objective import build_C
from dfrc.precoder import (BeampatternSpec, InfeasibleSpecError, NotPSDError,
                           _feasibility_residuals, hermitize, matrix_sqrt,
                           project_feasible, solve_covariance)
from dfrc.validation import sample_feasible


def random_hermitian(rng, m):
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return hermitize(z)


def random_psd(rng, m):
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return z @ z.conj().T


@pytest.fixture
def projection_calls(monkeypatch):
    """Record every project_feasible call that solve_covariance makes."""
    calls = []
    original = precoder.project_feasible

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(precoder, "project_feasible", counted)
    return calls


def omni_spec(power, m, gamma):
    return BeampatternSpec(r_d=(power / m) * np.eye(m, dtype=complex),
                           gamma_bp=gamma)


class TestMatrixSqrt:
    def test_identity(self):
        np.testing.assert_allclose(matrix_sqrt(np.eye(3, dtype=complex)),
                                   np.eye(3))

    def test_diagonal(self):
        w = matrix_sqrt(np.diag([4.0, 9.0]).astype(complex))
        np.testing.assert_allclose(w, np.diag([2.0, 3.0]), atol=1e-12)

    def test_reconstruction(self):
        r = random_psd(np.random.default_rng(0), 5)
        w = matrix_sqrt(r)
        assert np.linalg.norm(w @ w.conj().T - r, "fro") \
            < 1e-10 * np.linalg.norm(r, "fro")

    def test_hermitian_root(self):
        r = random_psd(np.random.default_rng(1), 4)
        w = matrix_sqrt(r)
        np.testing.assert_allclose(w, w.conj().T, atol=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            matrix_sqrt(np.diag([1.0, -0.5]).astype(complex))

    def test_clips_tiny_negatives(self):
        r = np.diag([1.0, -1e-9]).astype(complex)
        w = matrix_sqrt(r)
        assert w[1, 1] == 0.0


class TestProjectFeasible:
    def test_feasible_point_is_fixed(self):
        spec = omni_spec(4.0, 2, 1.0)
        out = project_feasible(spec.r_d.copy(), 4.0, spec)
        assert np.linalg.norm(out - spec.r_d, "fro") < 1e-10

    def test_trace_restored(self):
        spec = omni_spec(4.0, 2, 1.0)
        out = project_feasible(spec.r_d + 0.1 * np.eye(2), 4.0, spec)
        assert abs(np.trace(out).real - 4.0) < 1e-10

    def test_random_hermitian_all_residuals(self):
        rng = np.random.default_rng(2)
        spec = omni_spec(3.0, 3, 0.7)
        for _ in range(20):
            x = random_hermitian(rng, 3)
            out = project_feasible(x, 3.0, spec)
            assert max(_feasibility_residuals(out, 3.0, spec)) < 1e-8

    def test_point_ball(self):
        spec = omni_spec(2.0, 2, 0.0)
        x = random_hermitian(np.random.default_rng(3), 2)
        out = project_feasible(x, 2.0, spec)
        np.testing.assert_allclose(out, spec.r_d, atol=1e-8)


class TestSolveCovariance:
    def test_isotropic_objective(self):
        spec = omni_spec(3.0, 3, 0.5)
        sol = solve_covariance(2.0 * np.eye(3, dtype=complex), 3.0, spec)
        assert sol.objective == pytest.approx(6.0, rel=1e-9)
        assert max(_feasibility_residuals(sol.r_w, 3.0, spec)) < 1e-8

    def test_degenerate_ball_returns_r_d(self):
        spec = omni_spec(2.0, 2, 0.0)
        c = random_psd(np.random.default_rng(4), 2)
        sol = solve_covariance(c, 2.0, spec)
        np.testing.assert_allclose(sol.r_w, spec.r_d, atol=1e-8)

    def test_analytic_two_antenna_optimum(self):
        c = np.diag([1.0, 0.0]).astype(complex)
        sol = solve_covariance(c, 2.0, omni_spec(2.0, 2, 2.5))
        np.testing.assert_allclose(sol.r_w, np.diag([2.0, 0.0]), atol=1e-6)
        assert sol.objective == pytest.approx(2.0, abs=1e-6)

    def test_beats_random_sampling(self):
        rng = np.random.default_rng(5)
        spec = omni_spec(2.0, 2, 0.8)
        c = random_psd(rng, 2)
        sol = solve_covariance(c, 2.0, spec)
        samples = sample_feasible(rng, spec, 2.0, 20000)
        best = float(np.max(np.real(np.einsum("kij,ji->k", samples, c))))
        assert sol.objective >= best - 1e-4 * abs(best)

    def test_eigenvalue_bound_when_ball_inactive(self):
        rng = np.random.default_rng(6)
        for m in (2, 3):
            c = random_psd(rng, m)
            power = float(m)
            sol = solve_covariance(c, power, omni_spec(power, m, 100.0))
            bound = power * float(np.linalg.eigvalsh(c)[-1])
            assert abs(sol.objective - bound) < 1e-6 * bound

    def test_never_worse_than_r_d(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            spec = omni_spec(2.0, 2, float(rng.uniform(0.1, 3.0)))
            c = random_psd(rng, 2)
            sol = solve_covariance(c, 2.0, spec)
            baseline = float(np.real(np.trace(spec.r_d @ c)))
            assert sol.objective >= baseline - 1e-9 * abs(baseline)

    def test_objective_scales_with_c(self):
        rng = np.random.default_rng(8)
        spec = omni_spec(2.0, 2, 0.6)
        c = random_psd(rng, 2)
        base = solve_covariance(c, 2.0, spec).objective
        scaled = solve_covariance(3.0 * c, 2.0, spec).objective
        assert scaled == pytest.approx(3.0 * base, rel=1e-9)

    def test_monotone_iterates(self):
        # replay the projected-gradient loop and audit the trajectory
        rng = np.random.default_rng(9)
        spec = omni_spec(2.0, 2, 0.7)
        c = hermitize(random_psd(rng, 2))
        step = 2.0 / np.linalg.norm(c, "fro")
        r = spec.r_d.copy()
        prev = float(np.real(np.trace(r @ c)))
        for _ in range(200):
            r = project_feasible(r + step * c, 2.0, spec, tol=1e-13)
            obj = float(np.real(np.trace(r @ c)))
            assert obj >= prev - 1e-10 * max(1.0, abs(prev))
            prev = obj

    def test_solution_feasibility_invariants(self):
        rng = np.random.default_rng(10)
        spec = omni_spec(5.0, 3, 1.2)
        c = random_psd(rng, 3)
        sol = solve_covariance(c, 5.0, spec)
        assert abs(np.trace(sol.r_w).real - 5.0) < 1e-8 * 5.0
        assert np.linalg.norm(sol.r_w - spec.r_d, "fro") \
            <= spec.gamma_bp + 1e-6
        eig = np.linalg.eigvalsh(sol.r_w)
        assert eig[0] >= -1e-8 * max(eig[-1], 1e-300)
        assert np.linalg.norm(sol.w @ sol.w.conj().T - sol.r_w, "fro") \
            <= 1e-8 * np.linalg.norm(sol.r_w, "fro")

    def test_psd_closed_form_start_is_returned_after_one_projection(
            self, projection_calls):
        # lambda_min(R_d) = 2 >= gamma_bp = 1.5, so R_d + gamma_bp C0/||C0||
        # is PSD and hence the exact optimum
        power, m = 8.0, 4
        spec = omni_spec(power, m, 1.5)
        c = random_psd(np.random.default_rng(11), m)
        c0 = c - (np.trace(c).real / m) * np.eye(m)
        r0 = spec.r_d + (spec.gamma_bp / np.linalg.norm(c0, "fro")) * c0
        sol = solve_covariance(c, power, spec)
        assert np.linalg.norm(sol.r_w - r0, "fro") <= 1e-10 * power
        assert len(projection_calls) == 1

    def test_ball_inactive_regime_takes_at_most_two_steps(
            self, projection_calls):
        # table1 geometry at P0 = 10 <= 10.69: the ball does not bind and
        # the optimum is the rank-one P0 v1 v1^H on the PSD boundary
        cfg = parse_config("table1", ["p0=10", "gamma_bp=10"])
        channels = synthesize_channels(cfg)
        a_irs = upa_steering(cfg.geometry)
        rng = np.random.default_rng(12)
        for _ in range(3):
            theta = np.exp(1j * rng.uniform(
                0, 2 * np.pi, cfg.geometry.num_irs_elements))
            c = build_C(composite_radar_channel(channels, theta, a_irs),
                        composite_comm_channel(channels, theta), cfg.weights)
            projection_calls.clear()
            sol = solve_covariance(c, cfg.p0, cfg.beampattern)
            assert len(projection_calls) <= 2
            bound = cfg.p0 * float(np.linalg.eigvalsh(hermitize(c))[-1])
            assert sol.objective == pytest.approx(bound, rel=1e-6)

    def test_infeasible_spec_rejected(self):
        spec = BeampatternSpec(r_d=np.eye(2, dtype=complex), gamma_bp=1.0)
        with pytest.raises(InfeasibleSpecError):
            solve_covariance(np.eye(2, dtype=complex), 5.0, spec)
