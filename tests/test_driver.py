from dataclasses import replace

import numpy as np
import pytest

from dfrc.channel import ChannelSet, composite_comm_channel, \
    composite_radar_channel, upa_steering
from dfrc.config import make_beampattern, parse_config
from dfrc.driver import (CONVERGED, HIT_CAP, alternate, make_channels,
                         run_convergence_experiment, run_power_sweep)
from dfrc.objective import build_C
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
        assert trace.records[-1].iteration <= 2

    def test_table1_scale_run_terminates(self):
        cfg = parse_config("table1", ["j_max=40"])
        trace = alternate(cfg)
        assert trace.flag in (CONVERGED, HIT_CAP)
        assert trace.records[-1].iteration <= 40
        assert len(trace.records) <= 41

    def test_net_ascent(self):
        # audited at reference scale, where the fixed step is well matched
        # to the objective landscape; tiny toy instances can cycle
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
        for ra, rb in zip(a.records, b.records):
            # everything except wall-clock must match bit-for-bit
            assert (ra.iteration, ra.objective, ra.radar_snr, ra.comm_snr,
                    ra.grad_norm) == (rb.iteration, rb.objective,
                                      rb.radar_snr, rb.comm_snr, rb.grad_norm)
        np.testing.assert_array_equal(a.theta, b.theta)
        np.testing.assert_array_equal(a.r_w, b.r_w)

    def test_stopping_guard_holds_when_converged(self):
        cfg = small_cfg(alpha=0.9, j_max=400)
        trace = alternate(cfg)
        if trace.flag == CONVERGED:
            f_prev, f_last = trace.objectives[-2:]
            assert abs(f_last - f_prev) <= cfg.epsilon * abs(f_prev)

    def test_warm_started_w_step_never_decreases(self):
        cfg = small_cfg()
        channels = make_channels(cfg)
        a_irs = upa_steering(cfg.geometry)
        theta = np.exp(1j * np.random.default_rng(0).uniform(
            0, 2 * np.pi, cfg.geometry.num_irs_elements))
        f_r = composite_radar_channel(channels, theta, a_irs)
        f_c = composite_comm_channel(channels, theta)
        c = build_C(f_r, f_c, cfg.weights)
        first = solve_covariance(c, cfg.p0, cfg.beampattern)
        second = solve_covariance(c, cfg.p0, cfg.beampattern,
                                  r_init=first.r_w)
        assert second.objective >= first.objective - 1e-9 * abs(first.objective)

    @pytest.mark.parametrize("inner_steps", [1, 2])
    def test_one_gradient_per_ascent_step(self, inner_steps, monkeypatch):
        from dfrc import driver, manifold
        calls = []
        original = manifold.euclidean_gradient

        def counted(theta, bundle):
            calls.append(1)
            return original(theta, bundle)

        monkeypatch.setattr(driver, "euclidean_gradient", counted)
        monkeypatch.setattr(manifold, "euclidean_gradient", counted)
        trace = alternate(small_cfg(j_max=10, inner_steps=inner_steps))
        n_records = len(trace.records)
        assert n_records > 1
        # one per record for grad_norm; the first inner step reuses it
        assert len(calls) == n_records + (inner_steps - 1) * (n_records - 1)

    def test_hit_cap_is_valid_result(self):
        trace = alternate(small_cfg(j_max=1))
        assert trace.flag == HIT_CAP
        assert len(trace.records) == 2


class TestConvergenceExperiment:
    def test_single_realization_stats(self):
        cfg = small_cfg(j_max=15)
        result = run_convergence_experiment(cfg, 1, (0.5,))
        curve = result.curves[0]
        trace = curve.traces[0]
        np.testing.assert_allclose(curve.mean, trace.objectives)
        assert all(s == 0.0 for s in curve.std)

    def test_one_curve_per_alpha(self):
        result = run_convergence_experiment(small_cfg(j_max=5), 2,
                                            (0.2, 0.8))
        assert [c.param for c in result.curves] == [0.2, 0.8]

    def test_smaller_alpha_not_slower_majority(self):
        cfg = small_cfg(j_max=120)
        result = run_convergence_experiment(cfg, 6, (0.1, 0.9))
        fast, slow = result.curves
        wins = sum(a.iterations_to_converge <= b.iterations_to_converge
                   for a, b in zip(fast.traces, slow.traces))
        assert wins >= len(fast.traces) / 2

    def test_mean_curve_smoothed_nondecreasing(self):
        cfg = parse_config("table1", ["j_max=60"])
        result = run_convergence_experiment(cfg, 4, (0.5,))
        mean = np.array(result.curves[0].mean)
        kernel = np.ones(5) / 5
        smooth = np.convolve(mean, kernel, mode="valid")
        assert np.all(np.diff(smooth) >= -0.05 * np.abs(smooth[:-1]))

    def test_rejects_zero_realizations(self):
        with pytest.raises(ValueError):
            run_convergence_experiment(small_cfg(), 0)


class TestPowerSweep:
    def test_more_irs_elements_win(self):
        cfg = small_cfg(j_max=60)
        result = run_power_sweep(cfg, (10.0,), (3,), (4, 9), 4)
        by_n = {c.param: c.mean[0] for c in result.curves}
        assert by_n[(3, 9)] > by_n[(3, 4)]

    def test_more_antennas_win(self):
        cfg = small_cfg(j_max=60)
        result = run_power_sweep(cfg, (10.0,), (2, 4), (9,), 4)
        by_m = {c.param: c.mean[0] for c in result.curves}
        assert by_m[(4, 9)] > by_m[(2, 9)]

    def test_power_homogeneity_at_fixed_final_theta(self):
        # re-solve the covariance at the base run's final phases under a
        # jointly scaled (P0, R_d, gamma_bp): exact degree-2 homogeneity
        cfg = small_cfg(j_max=60)
        base = alternate(cfg)
        theta = base.theta
        channels = make_channels(cfg)
        a_irs = upa_steering(cfg.geometry)
        f_r = composite_radar_channel(channels, theta, a_irs)
        f_c = composite_comm_channel(channels, theta)
        c = build_C(f_r, f_c, cfg.weights)
        base_obj = solve_covariance(c, cfg.p0, cfg.beampattern).objective
        scaled_spec = make_beampattern(4 * cfg.p0,
                                       cfg.geometry.num_radar_antennas,
                                       4 * cfg.beampattern.gamma_bp)
        scaled_obj = solve_covariance(c, 4 * cfg.p0, scaled_spec).objective
        assert scaled_obj / base_obj == pytest.approx(4.0, rel=0.05)

    def test_rejects_empty_sweep(self):
        with pytest.raises(ValueError):
            run_power_sweep(small_cfg(), (), (2,), (4,), 1)
