from dataclasses import fields, replace

import numpy as np
import pytest

import dense_reference as ref
from dfrc.channel import (ChannelSet, composite_comm_channel,
                          composite_radar_channel)
from dfrc.manifold import euclidean_gradient
from dfrc.objective import (DesignWeights, build_C, build_bundle, comm_snr,
                            eval_f1, radar_snr, weighted_objective)
from instances import random_instance


def brute_force_snr(channel, w, noise):
    total = 0.0
    prod = channel @ w
    for k in range(prod.shape[0]):
        for l in range(prod.shape[1]):
            total += abs(prod[k, l]) ** 2
    return total / noise


class TestSnrs:
    def test_zero_precoder(self):
        f = np.random.default_rng(0).standard_normal((3, 3)) + 0j
        assert radar_snr(f, np.zeros((3, 3), dtype=complex), 1.0) == 0.0
        assert comm_snr(f, np.zeros((3, 3), dtype=complex), 1.0) == 0.0

    def test_identity_case(self):
        eye = np.eye(4, dtype=complex)
        assert radar_snr(eye, eye, 1.0) == pytest.approx(4.0)
        assert comm_snr(eye, eye, 1.0) == pytest.approx(4.0)

    def test_matches_elementwise_sum(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        w = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        expect = brute_force_snr(f, w, 1.7)
        assert radar_snr(f, w, 1.7) == pytest.approx(expect, rel=1e-10)

    def test_rejects_bad_noise(self):
        with pytest.raises(ValueError):
            radar_snr(np.eye(2, dtype=complex), np.eye(2, dtype=complex), 0.0)


class TestWeightedObjective:
    def test_endpoints(self):
        assert weighted_objective(4.0, 2.0, 0.0) == 4.0
        assert weighted_objective(4.0, 2.0, 1.0) == 2.0

    def test_midpoint(self):
        assert weighted_objective(4.0, 2.0, 0.5) == 3.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            weighted_objective(1.0, 1.0, 1.5)


class TestBuildC:
    def test_comm_only_identity(self):
        eye = np.eye(3, dtype=complex)
        c = build_C(np.zeros((3, 3), dtype=complex), eye,
                    DesignWeights(alpha=1.0, sigma_r_sq=1.0, sigma_c_sq=1.0))
        np.testing.assert_allclose(c, eye)

    def test_radar_only_rank_one(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        f_r = np.outer(u, u)
        c = build_C(f_r, np.zeros((2, 3), dtype=complex),
                    DesignWeights(alpha=0.0, sigma_r_sq=1.0, sigma_c_sq=1.0))
        assert np.linalg.matrix_rank(c, tol=1e-10) == 1

    def test_psd(self):
        rng = np.random.default_rng(3)
        f_r = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        f_c = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        c = build_C(f_r, f_c, DesignWeights(0.4, 1.3, 0.7))
        eig = np.linalg.eigvalsh(c)
        assert eig[0] >= -1e-10 * eig[-1]

    def test_trace_consistency_with_weighted_objective(self):
        rng = np.random.default_rng(4)
        ch, a, w, wt, th = random_instance(rng, 3, 6, 2)
        f_r = composite_radar_channel(ch, th, a)
        f_c = composite_comm_channel(ch, th)
        c = build_C(f_r, f_c, wt)
        direct = weighted_objective(radar_snr(f_r, w, wt.sigma_r_sq),
                                    comm_snr(f_c, w, wt.sigma_c_sq), wt.alpha)
        via_trace = float(np.real(np.trace(w @ w.conj().T @ c)))
        assert via_trace == pytest.approx(direct, rel=1e-10)


class TestBundle:
    def test_scalar_z_matrix(self):
        g, w = 1.4 - 0.2j, 0.7 + 0.3j
        ch = ChannelSet(G=np.array([[g]]), F=np.zeros((1, 1), dtype=complex),
                        H=np.zeros((1, 1), dtype=complex), eta=1.0)
        bundle = ref.build_dense_bundle(ch, np.ones(1, dtype=complex),
                                        np.array([[w]]),
                                        DesignWeights(0.5, 1.0, 1.0))
        np.testing.assert_allclose(ref.z_matrices(bundle), [[[[g * g * w]]]])

    def test_dense_z_matches_definition(self):
        rng = np.random.default_rng(5)
        ch, a, w, wt, _ = random_instance(rng, 3, 5, 2)
        bundle = ref.build_dense_bundle(ch, a, w, wt)
        r = np.outer(a, a)
        z = ref.z_matrices(bundle)
        for i in range(3):
            for j in range(3):
                expect = r * np.outer(ch.G @ w[:, j], ch.G[:, i]).T
                np.testing.assert_allclose(z[i, j], expect, atol=1e-12)

    def test_d1_hermitian(self):
        rng = np.random.default_rng(6)
        ch, a, w, wt, _ = random_instance(rng, 4, 8, 3)
        bundle = ref.build_dense_bundle(ch, a, w, wt)
        assert np.max(np.abs(bundle.D1 - bundle.D1.conj().T)) \
            < 1e-12 * np.max(np.abs(bundle.D1))

    def test_comm_only_kills_quartic_scale(self):
        rng = np.random.default_rng(7)
        ch, a, w, _, _ = random_instance(rng, 2, 4, 2)
        bundle = build_bundle(ch, a, w, DesignWeights(1.0, 1.0, 1.0))
        assert bundle.radar_scale == 0.0

    def test_t0_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            ch, a, w, wt, _ = random_instance(rng, 3, 6, 2)
            assert build_bundle(ch, a, w, wt).t0 >= 0.0


class TestFactoredForm:
    def test_matches_dense_reference(self):
        # 200 random shapes, then irs_large's (M=4, N=256, K=3)
        rng = np.random.default_rng(24)
        shapes = [(int(rng.integers(1, 13)), int(rng.integers(1, 65)),
                   int(rng.integers(1, 6))) for _ in range(200)]
        worst_f = worst_g = 0.0
        for m, n, k in [*shapes, (4, 256, 3)]:
            ch, a, w, wt, th = random_instance(rng, m, n, k)
            bundle = build_bundle(ch, a, w, wt)
            dense = ref.build_dense_bundle(ch, a, w, wt)
            f_ref = ref.eval_f1(th, dense)
            g_ref = ref.euclidean_gradient(th, dense)
            worst_f = max(worst_f,
                          abs(eval_f1(th, bundle) - f_ref) / abs(f_ref))
            worst_g = max(worst_g, float(
                np.linalg.norm(euclidean_gradient(th, bundle) - g_ref)
                / np.linalg.norm(g_ref)))
            assert bundle.t0 == pytest.approx(dense.t0, rel=1e-12)
        assert worst_f <= 1e-12 and worst_g <= 1e-12

    def test_no_n_by_n_field(self):
        rng = np.random.default_rng(26)
        n = 256
        ch, a, w, wt, _ = random_instance(rng, 4, n, 3)
        bundle = build_bundle(ch, a, w, wt)
        arrays = {f.name: getattr(bundle, f.name) for f in fields(bundle)
                  if isinstance(getattr(bundle, f.name), np.ndarray)}
        assert set(arrays) == {"a", "G", "GW", "H", "FW"}
        assert all(x.shape != (n, n) and x.size < n * n
                   for x in arrays.values())


def matrix_form_objective(ch, a, w, wt, theta):
    f_r = composite_radar_channel(ch, theta, a)
    f_c = composite_comm_channel(ch, theta)
    return weighted_objective(radar_snr(f_r, w, wt.sigma_r_sq),
                              comm_snr(f_c, w, wt.sigma_c_sq), wt.alpha)


class TestEvalF1:
    def test_zero_bundle(self):
        rng = np.random.default_rng(9)
        ch, a, w, wt, th = random_instance(rng, 2, 4, 2)
        bundle = build_bundle(ch, a, np.zeros_like(w), wt)
        assert eval_f1(th, bundle) == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_identity_bundle(self):
        rng = np.random.default_rng(10)
        n = 6
        ch, a, w, wt, th = random_instance(rng, 2, n, 2)
        bundle = build_bundle(ch, a, w, wt)
        # H = I, GW = 1 and FW = 0 give ac |E|^2 = ac theta^H theta
        patched = replace(bundle, H=np.eye(n, dtype=complex),
                          GW=np.ones((n, 1), dtype=complex),
                          FW=np.zeros((n, 1), dtype=complex), t0=0.0,
                          radar_scale=0.0, ac=1.0)
        assert eval_f1(th, patched) == pytest.approx(n, rel=1e-12)

    def test_full_pipeline_equivalence(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 17))
            k = int(rng.integers(1, 5))
            ch, a, w, wt, th = random_instance(rng, m, n, k)
            bundle = build_bundle(ch, a, w, wt)
            direct = matrix_form_objective(ch, a, w, wt, th)
            assert abs(eval_f1(th, bundle) + bundle.t0 - direct) \
                <= 1e-9 * max(1.0, abs(direct))

    def test_power_scaling_is_quadratic(self):
        rng = np.random.default_rng(12)
        ch, a, w, wt, th = random_instance(rng, 3, 8, 2)
        base = matrix_form_objective(ch, a, w, wt, th)
        scaled = matrix_form_objective(ch, a, 2.5 * w, wt, th)
        assert scaled == pytest.approx(2.5 ** 2 * base, rel=1e-10)
        b1 = build_bundle(ch, a, w, wt)
        b2 = build_bundle(ch, a, 2.5 * w, wt)
        assert eval_f1(th, b2) == pytest.approx(2.5 ** 2 * eval_f1(th, b1),
                                                rel=1e-10)

    def test_radar_only_ignores_comm_channels(self):
        rng = np.random.default_rng(13)
        ch, a, w, _, th = random_instance(rng, 3, 6, 2)
        wt = DesignWeights(alpha=0.0, sigma_r_sq=1.1, sigma_c_sq=0.9)
        perturbed = ChannelSet(G=ch.G, F=ch.F + 1.0, H=ch.H - 2.0j,
                               eta=ch.eta)
        b1 = build_bundle(ch, a, w, wt)
        b2 = build_bundle(perturbed, a, w, wt)
        assert abs((eval_f1(th, b1) + b1.t0) - (eval_f1(th, b2) + b2.t0)) \
            < 1e-12 * max(1.0, abs(eval_f1(th, b1)))

    def test_t2_real_from_hermitian_d1(self):
        rng = np.random.default_rng(14)
        ch, a, w, wt, th = random_instance(rng, 3, 7, 2)
        bundle = ref.build_dense_bundle(ch, a, w, wt)
        t2 = th.conj() @ bundle.D1 @ th
        assert abs(t2.imag) < 1e-10 * max(1.0, abs(t2.real))
