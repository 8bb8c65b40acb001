from dataclasses import fields, replace

import numpy as np
import pytest

import dense_reference as ref
from dfrc.channel import ChannelSet, composite_comm_channel
from dfrc.manifold import euclidean_gradient
from dfrc.config import ConfigError, parse_config
from dfrc.objective import (build_C, build_bundle, comm_snr, eval_f1,
                            radar_snr, squared_norm)
from instances import TABLE1, random_instance


def brute_force_snr(channel, w, noise):
    total = 0.0
    prod = channel @ w
    for k in range(prod.shape[0]):
        for l in range(prod.shape[1]):
            total += abs(prod[k, l]) ** 2
    return total / noise


def offset(bundle):
    """The theta-independent ac |F W|^2 that eval_f1 leaves out."""
    return bundle.ac * squared_norm(bundle.FW)


class TestSnrs:
    def test_zero_precoder(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((3, 3)) + 0j
        u = rng.standard_normal(3) + 0j
        zero = np.zeros((3, 3), dtype=complex)
        assert radar_snr(u, zero, TABLE1) == 0.0
        assert comm_snr(f, zero, TABLE1) == 0.0

    def test_identity_case(self):
        eye = np.eye(4, dtype=complex)
        # |u|^2 |W^T u|^2 = 4 * 4 for u = 1 and W = I
        assert radar_snr(np.ones(4, dtype=complex), eye, TABLE1) \
            == pytest.approx(16.0)
        assert comm_snr(eye, eye, TABLE1) == pytest.approx(4.0)

    def test_matches_elementwise_sum(self):
        # the radar SNR on the factors against the dense M x M channel
        ch, a, w, cfg, th = random_instance(np.random.default_rng(1), 3, 5, 2)
        # eta carries the radar noise, so the radar SNR divides by 1
        cfg = replace(cfg, sigma_c_sq=1.7)
        f_r = ref.composite_radar_channel(ch, th, a, cfg.eta)
        u = ch.G.T @ (a * th)
        assert radar_snr(u, w, cfg) \
            == pytest.approx(brute_force_snr(f_r, w, 1.0), rel=1e-10)
        f_c = composite_comm_channel(ch, th)
        assert comm_snr(f_c, w, cfg) \
            == pytest.approx(brute_force_snr(f_c, w, 1.7), rel=1e-10)

    def test_rejects_bad_noise(self):
        # the communication SNR divides by the noise power that RunConfig
        # has checked
        with pytest.raises(ConfigError, match="^sigma_c_sq = 0.0: must be"):
            parse_config("table1", ["sigma_c_sq=0"])


class TestBuildC:
    def test_comm_only_identity(self):
        eye = np.eye(3, dtype=complex)
        c = build_C(np.zeros(3, dtype=complex), eye,
                    replace(TABLE1, alpha=1.0))
        np.testing.assert_allclose(c, eye)

    def test_radar_only_rank_one(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        c = build_C(u, np.zeros((2, 3), dtype=complex),
                    replace(TABLE1, alpha=0.0))
        assert np.linalg.matrix_rank(c, tol=1e-10) == 1

    def test_radar_gram_matches_dense_channel(self):
        ch, a, _, cfg, th = random_instance(np.random.default_rng(15), 4, 6, 2)
        f_r = ref.composite_radar_channel(ch, th, a, cfg.eta)
        c = build_C(ch.G.T @ (a * th), np.zeros((2, 4), dtype=complex),
                    replace(cfg, alpha=0.0, sigma_c_sq=1.0))
        np.testing.assert_allclose(c, f_r.conj().T @ f_r, rtol=1e-12,
                                   atol=1e-12 * np.abs(c).max())

    def test_psd(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        f_c = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        c = build_C(u, f_c, replace(TABLE1, alpha=0.4, sigma_c_sq=0.7,
                                    eta=-1.1))
        eig = np.linalg.eigvalsh(c)
        assert eig[0] >= -1e-10 * eig[-1]

    def test_trace_consistency_with_weighted_objective(self):
        rng = np.random.default_rng(4)
        ch, a, w, cfg, th = random_instance(rng, 3, 6, 2)
        c = build_C(ch.G.T @ (a * th), composite_comm_channel(ch, th), cfg)
        direct = ref.weighted_snr(ch, a, w, cfg, th)
        via_trace = float(np.real(np.trace(w @ w.conj().T @ c)))
        assert via_trace == pytest.approx(direct, rel=1e-10)


class TestBundle:
    def test_scalar_z_matrix(self):
        g, w = 1.4 - 0.2j, 0.7 + 0.3j
        ch = ChannelSet(G=np.array([[g]]), F=np.zeros((1, 1), dtype=complex),
                        H=np.zeros((1, 1), dtype=complex))
        bundle = ref.build_dense_bundle(ch, np.ones(1, dtype=complex),
                                        np.array([[w]]), TABLE1)
        np.testing.assert_allclose(ref.z_matrices(bundle), [[[[g * g * w]]]])

    def test_dense_z_matches_definition(self):
        rng = np.random.default_rng(5)
        ch, a, w, cfg, _ = random_instance(rng, 3, 5, 2)
        bundle = ref.build_dense_bundle(ch, a, w, cfg)
        r = np.outer(a, a)
        z = ref.z_matrices(bundle)
        for i in range(3):
            for j in range(3):
                expect = r * np.outer(ch.G @ w[:, j], ch.G[:, i]).T
                np.testing.assert_allclose(z[i, j], expect, atol=1e-12)

    def test_d1_hermitian(self):
        rng = np.random.default_rng(6)
        ch, a, w, cfg, _ = random_instance(rng, 4, 8, 3)
        bundle = ref.build_dense_bundle(ch, a, w, cfg)
        assert np.max(np.abs(bundle.D1 - bundle.D1.conj().T)) \
            < 1e-12 * np.max(np.abs(bundle.D1))

    def test_comm_only_kills_quartic_scale(self):
        rng = np.random.default_rng(7)
        ch, a, w, cfg, _ = random_instance(rng, 2, 4, 2)
        bundle = build_bundle(ch, a, w, replace(cfg, alpha=1.0,
                                                sigma_c_sq=1.0))
        assert bundle.radar_scale == 0.0


class TestFactoredForm:
    def test_matches_dense_reference(self):
        # 200 random shapes, then irs_large's (M=4, N=256, K=3)
        rng = np.random.default_rng(24)
        shapes = [(int(rng.integers(1, 13)), int(rng.integers(1, 65)),
                   int(rng.integers(1, 6))) for _ in range(200)]
        worst_f = worst_g = 0.0
        for m, n, k in [*shapes, (4, 256, 3)]:
            ch, a, w, cfg, th = random_instance(rng, m, n, k)
            bundle = build_bundle(ch, a, w, cfg)
            dense = ref.build_dense_bundle(ch, a, w, cfg)
            f_ref = ref.eval_f1(th, dense)
            g_ref = ref.euclidean_gradient(th, dense)
            worst_f = max(worst_f,
                          abs(eval_f1(th, bundle) - f_ref) / abs(f_ref))
            worst_g = max(worst_g, float(
                np.linalg.norm(euclidean_gradient(th, bundle) - g_ref)
                / np.linalg.norm(g_ref)))
            assert offset(bundle) == pytest.approx(dense.t0, rel=1e-12)
        assert worst_f <= 1e-12 and worst_g <= 1e-12

    def test_no_n_by_n_field(self):
        rng = np.random.default_rng(26)
        n = 256
        ch, a, w, cfg, _ = random_instance(rng, 4, n, 3)
        bundle = build_bundle(ch, a, w, cfg)
        arrays = {f.name: getattr(bundle, f.name) for f in fields(bundle)
                  if isinstance(getattr(bundle, f.name), np.ndarray)}
        assert set(arrays) == {"a", "G", "GW", "H", "FW"}
        assert all(x.shape != (n, n) and x.size < n * n
                   for x in arrays.values())


class TestEvalF1:
    def test_zero_bundle(self):
        rng = np.random.default_rng(9)
        ch, a, w, cfg, th = random_instance(rng, 2, 4, 2)
        bundle = build_bundle(ch, a, np.zeros_like(w), cfg)
        assert eval_f1(th, bundle) == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_identity_bundle(self):
        rng = np.random.default_rng(10)
        n = 6
        ch, a, w, cfg, th = random_instance(rng, 2, n, 2)
        bundle = build_bundle(ch, a, w, cfg)
        # H = I, GW = 1 and FW = 0 give ac |E|^2 = ac theta^H theta
        patched = replace(bundle, H=np.eye(n, dtype=complex),
                          GW=np.ones((n, 1), dtype=complex),
                          FW=np.zeros((n, 1), dtype=complex),
                          radar_scale=0.0, ac=1.0)
        assert eval_f1(th, patched) == pytest.approx(n, rel=1e-12)

    def test_full_pipeline_equivalence(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 17))
            k = int(rng.integers(1, 5))
            ch, a, w, cfg, th = random_instance(rng, m, n, k)
            bundle = build_bundle(ch, a, w, cfg)
            direct = ref.weighted_snr(ch, a, w, cfg, th)
            assert abs(eval_f1(th, bundle) + offset(bundle) - direct) \
                <= 1e-9 * max(1.0, abs(direct))

    def test_power_scaling_is_quadratic(self):
        rng = np.random.default_rng(12)
        ch, a, w, cfg, th = random_instance(rng, 3, 8, 2)
        base = ref.weighted_snr(ch, a, w, cfg, th)
        scaled = ref.weighted_snr(ch, a, 2.5 * w, cfg, th)
        assert scaled == pytest.approx(2.5 ** 2 * base, rel=1e-10)
        b1 = build_bundle(ch, a, w, cfg)
        b2 = build_bundle(ch, a, 2.5 * w, cfg)
        assert eval_f1(th, b2) == pytest.approx(2.5 ** 2 * eval_f1(th, b1),
                                                rel=1e-10)

    def test_radar_only_ignores_comm_channels(self):
        rng = np.random.default_rng(13)
        ch, a, w, cfg, th = random_instance(rng, 3, 6, 2)
        cfg = replace(cfg, alpha=0.0, sigma_c_sq=0.9)
        perturbed = ChannelSet(G=ch.G, F=ch.F + 1.0, H=ch.H - 2.0j)
        b1 = build_bundle(ch, a, w, cfg)
        b2 = build_bundle(perturbed, a, w, cfg)
        assert abs((eval_f1(th, b1) + offset(b1))
                   - (eval_f1(th, b2) + offset(b2))) \
            < 1e-12 * max(1.0, abs(eval_f1(th, b1)))

    def test_t2_real_from_hermitian_d1(self):
        rng = np.random.default_rng(14)
        ch, a, w, cfg, th = random_instance(rng, 3, 7, 2)
        bundle = ref.build_dense_bundle(ch, a, w, cfg)
        t2 = th.conj() @ bundle.D1 @ th
        assert abs(t2.imag) < 1e-10 * max(1.0, abs(t2.real))
