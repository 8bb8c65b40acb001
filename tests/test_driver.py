from dataclasses import replace

import numpy as np
import pytest

from dfrc.channel import composite_comm_channel, synthesize_channels, \
    upa_steering
from dfrc.config import parse_config
from dfrc.driver import (CONVERGED, HIT_CAP, ConvergenceTrace,
                         IterationRecord, _aligned_stats, alternate,
                         initial_theta, run_convergence_experiment,
                         run_power_sweep)
from dfrc.manifold import euclidean_gradient, project_tangent
from dfrc.objective import build_bundle, build_C
from dfrc.precoder import solve_covariance


def small_cfg(**overrides):
    pairs = [f"{k}={v}" for k, v in {
        "m": 3, "n_x": 2, "n_y": 2, "num_users": 2, "p0": 10,
        "gamma_bp": 2, "j_max": 80, "num_realizations": 2,
        **overrides}.items()]
    return parse_config("table1", pairs)


class TestAlternate:
    def test_theta_independent_objective_converges_fast(self):
        # comm-only weight with the IRS->user link removed: nothing the
        # phases do can change the objective
        cfg = small_cfg(alpha=1, h_scale=0)
        trace = alternate(cfg)
        assert trace.flag == CONVERGED
        assert trace.iterations_to_converge <= 2

    def test_table1_scale_run_terminates(self):
        cfg = parse_config("table1", ["j_max=40"])
        trace = alternate(cfg)
        assert trace.flag in (CONVERGED, HIT_CAP)
        assert trace.iterations_to_converge <= 40
        assert len(trace.records) <= 41

    def test_table1_runs_converge_monotonically(self):
        for alpha in (0.1, 0.5, 0.9):
            for seed in range(5):
                trace = alternate(parse_config(
                    "table1", [f"alpha={alpha}", f"seed={seed}"]))
                assert trace.flag == CONVERGED
                obj = trace.objectives
                assert np.all(np.diff(obj) >= -1e-9 * np.abs(obj[:-1]))

    def test_net_ascent(self):
        for seed in range(3):
            cfg = parse_config("table1", ["j_max=60", f"seed={seed}"])
            trace = alternate(cfg)
            assert trace.final_objective >= trace.objectives[0] - 1e-6

    def test_iterates_stay_unit_modulus(self):
        trace = alternate(small_cfg())
        assert np.max(np.abs(np.abs(trace.theta) - 1.0)) < 1e-10

    def test_deterministic(self):
        cfg = small_cfg()
        a, b = alternate(cfg), alternate(cfg)
        assert a.records == b.records
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_stopping_guard_holds_when_converged(self):
        cfg = small_cfg(alpha=0.9, j_max=400)
        trace = alternate(cfg)
        if trace.flag == CONVERGED:
            f_prev, f_last = trace.objectives[-2:]
            assert abs(f_last - f_prev) <= cfg.epsilon * abs(f_prev)

    def test_warm_started_w_step_never_decreases(self):
        # the previous covariance stays feasible when the phases move, so
        # the W-step at the new C must do at least as well as starting
        # from it and keeping it
        cfg = small_cfg()
        channels = synthesize_channels(cfg)
        a_irs = upa_steering(cfg.geometry)
        rng = np.random.default_rng(0)
        r_prev = None
        for _ in range(5):
            theta = np.exp(1j * rng.uniform(
                0, 2 * np.pi, cfg.geometry.num_irs_elements))
            c = build_C(channels.G.T @ (theta * a_irs),
                        composite_comm_channel(channels, theta), cfg)
            solution = solve_covariance(c, cfg.p0, cfg.beampattern)
            if r_prev is not None:
                kept = float(np.real(np.trace(r_prev @ c)))
                assert solution.objective >= kept - 1e-9 * abs(kept)
            r_prev = solution.r_w

    def test_one_gradient_per_ascent_step(self, monkeypatch):
        from dfrc import driver, manifold
        calls = []
        original = manifold.euclidean_gradient

        def counted(theta, bundle):
            calls.append(1)
            return original(theta, bundle)

        monkeypatch.setattr(driver, "euclidean_gradient", counted)
        monkeypatch.setattr(manifold, "euclidean_gradient", counted)
        trace = alternate(small_cfg(j_max=10))
        n_records = len(trace.records)
        assert n_records > 1
        # one per record for grad_norm, which the ascent step reuses
        assert len(calls) == n_records

    def test_ascent_gets_euclidean_gradient(self, monkeypatch):
        from dfrc import driver
        original = driver.ascent_step
        steps = []

        def checked(theta, bundle, kappa, gradient):
            np.testing.assert_array_equal(
                gradient, euclidean_gradient(theta, bundle))
            steps.append(1)
            return original(theta, bundle, kappa, gradient)

        monkeypatch.setattr(driver, "ascent_step", checked)
        trace = alternate(small_cfg(j_max=10))
        assert len(steps) == len(trace.records) - 1

    def test_grad_norm_is_the_tangent_norm(self):
        cfg = small_cfg(j_max=3)
        channels = synthesize_channels(cfg)
        a_irs = upa_steering(cfg.geometry)
        theta = initial_theta(cfg)
        c = build_C(channels.G.T @ (theta * a_irs),
                    composite_comm_channel(channels, theta), cfg)
        w = solve_covariance(c, cfg.p0, cfg.beampattern).w
        egrad = euclidean_gradient(
            theta, build_bundle(channels, a_irs, w, cfg))
        tangent = float(np.linalg.norm(project_tangent(egrad, theta)))
        grad_norm = alternate(cfg).records[0].grad_norm
        assert grad_norm == pytest.approx(tangent, rel=1e-12)
        assert grad_norm < 0.9 * np.linalg.norm(egrad)

    def test_hit_cap_is_valid_result(self):
        trace = alternate(small_cfg(j_max=1))
        assert trace.flag == HIT_CAP
        assert len(trace.records) == 2

    @pytest.mark.parametrize("sets", [[], ["eta=1e-2"]],
                             ids=["table1", "balanced"])
    def test_objective_is_the_weighted_sum_of_the_snrs(self, sets):
        # the objective is the covariance solve's value, and the SNRs are
        # formed from W and the factors: this relation ties them together
        cfg = parse_config("table1", sets)
        for r in alternate(cfg).records:
            weighted = (1 - cfg.alpha) * r.radar_snr + cfg.alpha * r.comm_snr
            assert r.objective == pytest.approx(weighted, rel=1e-12)

    def test_random_initial_phases_follow_the_seed(self):
        cfg = small_cfg(theta_init="random", seed=5)
        rng = np.random.default_rng([5, 0x7E7A])
        expect = np.exp(1j * rng.uniform(0.0, 2 * np.pi, 4))
        np.testing.assert_array_equal(initial_theta(cfg), expect)


class TestConvergenceExperiment:
    def test_single_realization_stats(self):
        cfg = small_cfg(j_max=15, num_realizations=1, alphas=0.5)
        curve = run_convergence_experiment(cfg)[0]
        trace = curve.traces[0]
        np.testing.assert_allclose(curve.mean, trace.objectives)
        assert all(s == 0.0 for s in curve.std)

    def test_shorter_run_holds_its_last_objective(self):
        def trace(objectives):
            return ConvergenceTrace(
                records=tuple(IterationRecord(
                    objective=f, radar_snr=0.0, comm_snr=0.0, grad_norm=0.0)
                    for f in objectives),
                flag=CONVERGED, theta=np.ones(1))

        mean, std = _aligned_stats([trace([1.0, 2.0, 3.0]),
                                    trace([5.0, 6.0])])
        np.testing.assert_array_equal(mean, [3.0, 4.0, 4.5])
        np.testing.assert_array_equal(std, [2.0, 2.0, 1.5])

    def test_one_curve_per_alpha(self):
        curves = run_convergence_experiment(
            small_cfg(j_max=5, num_realizations=2, alphas="0.2,0.8"))
        assert [c.param for c in curves] == [0.2, 0.8]

    def test_smaller_alpha_not_slower_majority(self):
        cfg = small_cfg(j_max=120, num_realizations=6, alphas="0.1,0.9")
        fast, slow = run_convergence_experiment(cfg)
        wins = sum(a.iterations_to_converge <= b.iterations_to_converge
                   for a, b in zip(fast.traces, slow.traces))
        assert wins >= len(fast.traces) / 2

    def test_mean_curve_smoothed_nondecreasing(self):
        cfg = parse_config("table1", ["j_max=60", "num_realizations=4",
                                      "alphas=0.5"])
        mean = np.array(run_convergence_experiment(cfg)[0].mean)
        kernel = np.ones(5) / 5
        smooth = np.convolve(mean, kernel, mode="valid")
        assert np.all(np.diff(smooth) >= -0.05 * np.abs(smooth[:-1]))

    def test_rejects_zero_realizations(self):
        with pytest.raises(ValueError):
            run_convergence_experiment(replace(small_cfg(),
                                               num_realizations=0))


class TestPowerSweep:
    def test_more_irs_elements_win(self):
        cfg = small_cfg(j_max=60, sweep_p0=10, sweep_m=3, sweep_n="4,9",
                        num_realizations=4)
        by_n = {c.param: c.mean[0] for c in run_power_sweep(cfg)}
        assert by_n[(3, 9)] > by_n[(3, 4)]

    def test_more_antennas_win(self):
        cfg = small_cfg(j_max=60, sweep_p0=10, sweep_m="2,4", sweep_n=9,
                        num_realizations=4)
        by_m = {c.param: c.mean[0] for c in run_power_sweep(cfg)}
        assert by_m[(4, 9)] > by_m[(2, 9)]

    def test_power_homogeneity_at_fixed_final_theta(self):
        # re-solve the covariance at the base run's final phases under a
        # jointly scaled (P0, R_d, gamma_bp): exact degree-2 homogeneity
        cfg = small_cfg(j_max=60)
        base = alternate(cfg)
        theta = base.theta
        channels = synthesize_channels(cfg)
        a_irs = upa_steering(cfg.geometry)
        c = build_C(channels.G.T @ (theta * a_irs),
                    composite_comm_channel(channels, theta), cfg)
        base_obj = solve_covariance(c, cfg.p0, cfg.beampattern).objective
        scaled = replace(cfg, p0=4 * cfg.p0, gamma_bp=4 * cfg.gamma_bp)
        scaled_obj = solve_covariance(c, scaled.p0,
                                      scaled.beampattern).objective
        assert scaled_obj / base_obj == pytest.approx(4.0, rel=0.05)

    def test_std_is_the_population_std_of_the_finals(self):
        cfg = small_cfg(j_max=20, sweep_p0=10, sweep_m=3, sweep_n=4,
                        num_realizations=3)
        curve = run_power_sweep(cfg)[0]
        finals = np.array([t.final_objective for t in curve.traces])
        spread = np.sqrt(np.mean((finals - finals.mean()) ** 2))
        assert spread > 0.0
        assert curve.std[0] == pytest.approx(spread, rel=1e-12)

    def test_rejects_empty_sweep(self):
        with pytest.raises(ValueError):
            run_power_sweep(replace(small_cfg(), sweep_p0=()))
