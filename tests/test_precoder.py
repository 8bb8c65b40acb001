import re

import numpy as np
import pytest

from dfrc import precoder
from dfrc.channel import (composite_comm_channel, synthesize_channels,
                          ula_steering, upa_steering)
from dfrc.config import ConfigError, parse_config
from dfrc.objective import build_C
from dfrc.precoder import (BeampatternSpec, _feasibility_residuals,
                           hermitize, matrix_sqrt, project_feasible,
                           solve_covariance)
from instances import sample_feasible


def random_hermitian(rng, m):
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return hermitize(z)


def random_psd(rng, m):
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return z @ z.conj().T


def reference_projection(x, power):
    """Pi_K by bisection on the eigenvalue threshold, independent of the
    sort-based rule in project_feasible."""
    lam, vecs = np.linalg.eigh(hermitize(x))
    lo, hi = lam[0] - power / lam.size, lam[-1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.clip(lam - mid, 0.0, None).sum() > power:
            lo = mid
        else:
            hi = mid
    return (vecs * np.clip(lam - 0.5 * (lo + hi), 0.0, None)) @ vecs.conj().T


def dual_bound(c, power, spec):
    """min over mu >= 0 of the Lagrangian dual g(mu) of the ball, which is
    at least the optimum (weak duality).

    g(mu) = max_K tr(RC) - (mu/2)(||R - R_d||^2 - gamma^2), attained at
    R = Pi_K(R_d + C/mu); g(0) = power * lambda_max(C).  g is convex in mu,
    so a golden-section search over log mu finds its minimum.  The search
    keeps ||C||/mu below 1e3 power, where the projection is still accurate
    to about 1e-12 of the objective.
    """
    c = hermitize(c)

    def g(log_mu):
        mu = np.exp(log_mu)
        r = reference_projection(spec.r_d + c / mu, power)
        dist_sq = np.linalg.norm(r - spec.r_d, "fro") ** 2
        return float(np.real(np.trace(r @ c))) \
            - 0.5 * mu * (dist_sq - spec.gamma_bp ** 2)

    m = c.shape[0]
    c0 = c - (np.trace(c).real / m) * np.eye(m)
    lo = np.log(np.linalg.norm(c, "fro") / (1e3 * power))
    hi = max(lo, np.log(np.linalg.norm(c0, "fro") / spec.gamma_bp)) + 5.0
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    ga, gb = g(a), g(b)
    for _ in range(60):
        if ga <= gb:
            hi, b, gb = b, a, ga
            a = hi - ratio * (hi - lo)
            ga = g(a)
        else:
            lo, a, ga = a, b, gb
            b = lo + ratio * (hi - lo)
            gb = g(b)
    return min(ga, gb, power * float(np.linalg.eigvalsh(c)[-1]))


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


def covariance(eigvals, eigvecs):
    return (eigvecs * eigvals) @ eigvecs.conj().T


class TestMatrixSqrt:
    def test_identity(self):
        np.testing.assert_allclose(
            matrix_sqrt(np.ones(3), np.eye(3, dtype=complex)), np.eye(3))

    def test_diagonal(self):
        w = matrix_sqrt(np.array([4.0, 9.0]), np.eye(2, dtype=complex))
        np.testing.assert_allclose(w, np.diag([2.0, 3.0]), atol=1e-12)

    def test_reconstruction(self):
        # the projection of a random Hermitian matrix has clipped, zero
        # eigenvalues: the root of a rank-deficient covariance
        rng = np.random.default_rng(0)
        for m in (1, 2, 5, 8):
            lam, vecs = project_feasible(random_hermitian(rng, m), 3.0)
            r, w = covariance(lam, vecs), matrix_sqrt(lam, vecs)
            assert np.linalg.norm(w @ w.conj().T - r, "fro") \
                < 1e-12 * np.linalg.norm(r, "fro")

    def test_hermitian_root(self):
        r = random_psd(np.random.default_rng(1), 4)
        w = matrix_sqrt(*np.linalg.eigh(r))
        np.testing.assert_allclose(w, w.conj().T, atol=1e-10)
        assert np.linalg.eigvalsh(w)[0] > 0.0


class TestProjectFeasible:
    def test_feasible_point_is_fixed(self):
        spec = omni_spec(4.0, 2, 1.0)
        out = covariance(*project_feasible(spec.r_d.copy(), 4.0))
        assert np.linalg.norm(out - spec.r_d, "fro") < 1e-10

    def test_trace_restored(self):
        spec = omni_spec(4.0, 2, 1.0)
        lam, vecs = project_feasible(spec.r_d + 0.1 * np.eye(2), 4.0)
        assert abs(lam.sum() - 4.0) < 1e-10
        assert abs(np.trace(covariance(lam, vecs)).real - 4.0) < 1e-10

    def test_random_hermitian_all_residuals(self):
        rng = np.random.default_rng(2)
        spec = omni_spec(3.0, 3, 0.7)
        for _ in range(20):
            x = random_hermitian(rng, 3)
            lam, vecs = project_feasible(x, 3.0)
            # the eigenpairs matrix_sqrt takes: lambda >= 0, V unitary
            assert np.all(lam >= 0.0)
            np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(3),
                                       atol=1e-12)
            out = covariance(lam, vecs)
            psd, trace, _ = _feasibility_residuals(out, 3.0, spec)
            assert max(psd, trace) < 1e-8
            assert np.linalg.norm(out - reference_projection(x, 3.0),
                                  "fro") < 1e-10

    def test_keeps_trace_far_beyond_power(self):
        # at |x| >> power/eps, eigenvalue minus threshold cancels to
        # round-off; the top eigenvalue must still take the whole budget
        x = 1e20 * np.diag([0.5, 1.0]).astype(complex)
        out = covariance(*project_feasible(x, 1.0))
        np.testing.assert_allclose(out, np.diag([0.0, 1.0]), atol=1e-12)


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

    def test_two_antenna_oracles(self):
        # M = 2, one seed-7 stream: the analytic instance C = diag(1, 0)
        # with a wide ball, then a random C with a narrow one; each optimum
        # beats the best of 100 000 feasible samples
        rng = np.random.default_rng(7)
        power = 2.0
        c = np.diag([1.0, 0.0]).astype(complex)
        spec = omni_spec(power, 2, 2.5)
        sol = solve_covariance(c, power, spec)
        bound = power * float(np.linalg.eigvalsh(c)[-1])
        assert abs(sol.objective - bound) / bound < 1e-6
        samples = sample_feasible(rng, spec, power, 100_000)
        best = float(np.max(np.real(np.einsum("kij,ji->k", samples, c))))
        assert (best - sol.objective) / abs(best) < 1e-4

        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        c_rand = z @ z.conj().T
        spec_rand = omni_spec(power, 2, 0.8)
        sol_rand = solve_covariance(c_rand, power, spec_rand)
        samples = sample_feasible(rng, spec_rand, power, 100_000)
        best = float(np.max(np.real(
            np.einsum("kij,ji->k", samples, c_rand))))
        assert (best - sol_rand.objective) / abs(best) < 1e-4

        assert max(*_feasibility_residuals(sol.r_w, power, spec),
                   *_feasibility_residuals(sol_rand.r_w, power,
                                           spec_rand)) < 1e-8

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

    def test_closed_form_path_decomposes_once(self, monkeypatch):
        # the projection's eigh serves both R_w and W; the certificate's
        # eigvalsh stays independent of it
        calls = {"eigh": 0, "eigvalsh": 0}
        for name in calls:
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        spec = omni_spec(8.0, 4, 1.5)  # lambda_min(R_d) = 2 >= gamma_bp
        solve_covariance(random_psd(np.random.default_rng(11), 4), 8.0, spec)
        assert calls == {"eigh": 1, "eigvalsh": 1}

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
            c = build_C(channels.G.T @ (theta * a_irs),
                        composite_comm_channel(channels, theta), cfg)
            projection_calls.clear()
            sol = solve_covariance(c, cfg.p0, cfg.beampattern)
            assert len(projection_calls) <= 2
            bound = cfg.p0 * float(np.linalg.eigvalsh(hermitize(c))[-1])
            assert sol.objective == pytest.approx(bound, rel=1e-6)

    def test_infeasible_spec_rejected(self):
        spec = BeampatternSpec(r_d=np.eye(2, dtype=complex), gamma_bp=1.0)
        with pytest.raises(ConfigError):
            solve_covariance(np.eye(2, dtype=complex), 5.0, spec)

    def test_trace_mismatch_message_shows_both_numbers(self):
        # 125.0002 I is off table1's budget by 1.6e-6 relative, which six
        # significant digits would print as "1000" twice
        spec = BeampatternSpec(r_d=125.0002 * np.eye(8, dtype=complex),
                               gamma_bp=10.0)
        with pytest.raises(ConfigError) as err:
            solve_covariance(np.eye(8, dtype=complex), 1000.0, spec)
        trace, budget = re.fullmatch(
            r"tr\(R_d\) = (\S+) does not match the budget (\S+)",
            str(err.value)).groups()
        assert trace != budget and float(trace) != float(budget)

    def test_pure_beam_r_d_on_table1(self):
        # a pure beam toward the target, R_d = (P0/M) a a^H, has rank one
        # and lies on the boundary of the PSD cone
        cfg = parse_config("table1")
        channels = synthesize_channels(cfg)
        theta = np.ones(cfg.geometry.num_irs_elements, dtype=complex)
        c = build_C(channels.G.T @ (theta * upa_steering(cfg.geometry)),
                    composite_comm_channel(channels, theta), cfg)
        g = cfg.geometry
        a = ula_steering(g.num_radar_antennas, g.radar_spacing,
                         g.target_azimuth)
        spec = BeampatternSpec(
            r_d=(cfg.p0 / cfg.m) * np.outer(a, a.conj()),
            gamma_bp=cfg.gamma_bp)
        sol = solve_covariance(c, cfg.p0, spec)
        assert max(_feasibility_residuals(sol.r_w, cfg.p0, spec)) \
            <= 1e-9 * cfg.p0
        assert dual_bound(c, cfg.p0, spec) - sol.objective \
            <= 1e-9 * abs(sol.objective)

    def test_tied_top_eigenvalues(self):
        # the ball does not bind, but P0 v1 v1^H for a single top
        # eigenvector lies outside it: the optimum spreads over both
        c = np.diag([1.0, 1.0, 0.0]).astype(complex)
        spec = BeampatternSpec(r_d=np.eye(3, dtype=complex), gamma_bp=2.0)
        sol = solve_covariance(c, 3.0, spec)
        np.testing.assert_allclose(sol.r_w, np.diag([1.5, 1.5, 0.0]),
                                   atol=1e-12)

    def test_near_tied_top_eigenvalues_stay_apart(self):
        # the two top eigenvalues of C differ by 1e-3 relative and the ball
        # does not bind (||P0 v1 v1^H - R_d||_F <= 2 P0): the optimum is
        # P0 v1 v1^H, not a split over both eigenvectors
        rng = np.random.default_rng(14)
        for m in range(2, 8):
            power = float(10 ** rng.uniform(-2, 4))
            r_d = random_psd(rng, m)
            spec = BeampatternSpec(r_d=power * r_d / np.trace(r_d).real,
                                   gamma_bp=2.0 * power)
            q, _ = np.linalg.qr(rng.standard_normal((m, m))
                                + 1j * rng.standard_normal((m, m)))
            lam = rng.uniform(0.0, 1.0, m)
            lam[-2:] = 1.5 * (1.0 - 1e-3), 1.5
            c = (q * lam) @ q.conj().T
            sol = solve_covariance(c, power, spec)
            assert dual_bound(c, power, spec) - sol.objective \
                <= 1e-9 * abs(sol.objective)
            np.testing.assert_allclose(
                sol.r_w, power * np.outer(q[:, -1], q[:, -1].conj()),
                atol=1e-9 * power)

    @pytest.mark.parametrize("m", [4, 5])
    def test_top_eigenvalues_tied_to_round_off(self, m):
        # C = Q diag(1, 1, 0, ...) Q^H ties its top two eigenvalues only to
        # round-off.  The ball does not bind, P0 v1 v1^H lies outside it and
        # the optimum is the face point (P0/2) U U^H; without the tie
        # tolerance the ball search climbs to s ~ 1e15, where the
        # projection loses the trace: 15 of the 40 raise, 20 end elsewhere
        spec = BeampatternSpec(r_d=np.eye(m, dtype=complex), gamma_bp=3.0)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            q, _ = np.linalg.qr(rng.standard_normal((m, m))
                                + 1j * rng.standard_normal((m, m)))
            u = q[:, :2]
            sol = solve_covariance(u @ u.conj().T, float(m), spec)
            np.testing.assert_allclose(sol.r_w, (m / 2) * u @ u.conj().T,
                                       atol=1e-9 * m)

    @pytest.mark.parametrize("kind", ["isotropic", "steered", "rank_one",
                                      "random"])
    def test_weak_duality_oracle(self, kind):
        rng = np.random.default_rng(13)
        for m in range(2, 13):
            power = float(10 ** rng.uniform(-2, 4))
            a = np.exp(2j * np.pi * 0.5 * np.arange(m)
                       * np.sin(rng.uniform(-np.pi / 2, np.pi / 2)))
            if kind == "isotropic":
                r_d = np.eye(m, dtype=complex)
            elif kind == "steered":
                r_d = np.eye(m) + np.outer(a, a.conj())
            elif kind == "rank_one":
                r_d = np.outer(a, a.conj())
            else:
                r_d = random_psd(rng, m)
            spec = BeampatternSpec(
                r_d=power * r_d / np.trace(r_d).real,
                gamma_bp=power * float(10 ** rng.uniform(-3, 0.4)))
            # top eigenvalue simple, exactly repeated, or tied to 1e-12
            q, _ = np.linalg.qr(rng.standard_normal((m, m))
                                + 1j * rng.standard_normal((m, m)))
            lam = rng.uniform(0.0, 1.0, m)
            lam[-1] = 1.5
            if m % 3 == 1:
                lam[0] = 1.5
            elif m % 3 == 2:
                lam[0] = 1.5 * (1.0 - 1e-12)
            c = (q * lam) @ q.conj().T
            sol = solve_covariance(c, power, spec)
            assert max(_feasibility_residuals(sol.r_w, power, spec)) \
                <= 1e-9 * max(1.0, power)
            assert dual_bound(c, power, spec) - sol.objective \
                <= 1e-9 * abs(sol.objective)
            # W is the Hermitian root of R_w on every path, the face point
            # built from U V_s included
            assert np.linalg.norm(sol.w - sol.w.conj().T, "fro") \
                <= 1e-12 * np.linalg.norm(sol.w, "fro")
            assert np.linalg.norm(sol.w @ sol.w.conj().T - sol.r_w, "fro") \
                <= 1e-9 * np.linalg.norm(sol.r_w, "fro")
