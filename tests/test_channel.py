import numpy as np
import pytest

from dfrc.channel import (ChannelSet, SystemGeometry, composite_comm_channel,
                          composite_radar_channel, los_component,
                          rayleigh_channel, rician_channel,
                          synthesize_channels, upa_steering)
from dfrc.config import parse_config


def geom(m=2, n_y=2, n_x=2, az=0.3, el=0.7):
    return SystemGeometry(num_radar_antennas=m, irs_rows=n_y, irs_cols=n_x,
                          radar_spacing=0.5, irs_spacing=0.5,
                          target_azimuth=az, target_elevation=el)


class TestUpaSteering:
    def test_single_element(self):
        a = upa_steering(geom(n_y=1, n_x=1, az=1.1, el=0.4))
        np.testing.assert_allclose(a, [1.0])

    def test_zero_elevation_kills_y_phase(self):
        a = upa_steering(geom(n_y=4, n_x=1, az=0.9, el=0.0))
        np.testing.assert_allclose(a, np.ones(4))

    def test_broadside_two_element(self):
        # phase step 2*pi*0.5*cos(0)*sin(pi/2) = pi -> [1, -1]
        a = upa_steering(geom(n_y=2, n_x=1, az=0.0, el=np.pi / 2))
        np.testing.assert_allclose(a, [1.0, -1.0], atol=1e-12)

    def test_unit_modulus(self):
        a = upa_steering(geom(n_y=3, n_x=5, az=-0.8, el=1.2))
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)

    def test_kron_ordering_y_outer(self):
        g = geom(n_y=2, n_x=3, az=0.4, el=0.9)
        a = upa_steering(g)
        a_y = upa_steering(geom(n_y=2, n_x=1, az=0.4, el=0.9))
        a_x = upa_steering(geom(n_y=1, n_x=3, az=0.4, el=0.9))
        np.testing.assert_allclose(a, np.kron(a_y, a_x))


class TestRayleigh:
    def test_unit_entry_power(self):
        rng = np.random.default_rng(1)
        h = rayleigh_channel(1000, 1000, rng)
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.01

    def test_deterministic_given_seed(self):
        a = rayleigh_channel(3, 4, np.random.default_rng(42))
        b = rayleigh_channel(3, 4, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_scalar_size(self):
        h = rayleigh_channel(1, 1, np.random.default_rng(0))
        assert h.shape == (1, 1)

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            rayleigh_channel(0, 3, np.random.default_rng(0))


class TestRician:
    def test_infinite_factor_is_pure_los(self):
        los = los_component(geom(), 0.0, 0.0, 0.0)
        out = rician_channel(los, np.inf, np.random.default_rng(0))
        np.testing.assert_array_equal(out, los)

    def test_zero_factor_is_pure_rayleigh(self):
        los = los_component(geom(), 0.0, 0.0, 0.0)
        out = rician_channel(los, 0.0, np.random.default_rng(5))
        ref = rayleigh_channel(*los.shape, rng=np.random.default_rng(5))
        np.testing.assert_allclose(out, ref)

    def test_unit_power_at_0db_factor(self):
        los = np.exp(1j * np.random.default_rng(3).uniform(
            0, 2 * np.pi, (1000, 1000)))
        out = rician_channel(los, 1.0, np.random.default_rng(9))
        assert abs(np.mean(np.abs(out) ** 2) - 1.0) < 0.01

    @pytest.mark.parametrize("k_factor", [0.0, 0.5, 1.0, 10.0])
    def test_power_preserved_for_any_factor(self, k_factor):
        los = np.exp(1j * np.random.default_rng(4).uniform(
            0, 2 * np.pi, (1000, 1000)))
        out = rician_channel(los, k_factor, np.random.default_rng(11))
        assert abs(np.mean(np.abs(out) ** 2) - 1.0) < 0.01

    def test_rejects_negative_factor(self):
        with pytest.raises(ValueError):
            rician_channel(np.ones((2, 2), dtype=complex), -0.1,
                           np.random.default_rng(0))


def small_channels(seed=0, n=4, m=3, k=2, eta=1.0 + 0j):
    rng = np.random.default_rng(seed)
    return ChannelSet(G=rayleigh_channel(n, m, rng),
                      F=rayleigh_channel(k, m, rng),
                      H=rayleigh_channel(k, n, rng),
                      eta=eta)


class TestChannelSet:
    def test_user_counts_of_f_and_h_must_agree(self):
        ch = small_channels(k=2)
        with pytest.raises(ValueError, match="H must be 2x4"):
            ChannelSet(G=ch.G, F=ch.F, H=ch.H[:1], eta=ch.eta)
        with pytest.raises(ValueError, match="F must be Kx3"):
            ChannelSet(G=ch.G, F=ch.F[:, :2], H=ch.H, eta=ch.eta)


class TestCompositeRadar:
    def test_zero_eta_gives_zero(self):
        ch = small_channels(eta=0.0)
        theta = np.exp(1j * np.linspace(0, 1, 4))
        f_r = composite_radar_channel(ch, theta, np.ones(4, dtype=complex))
        np.testing.assert_array_equal(f_r, np.zeros((3, 3)))

    def test_scalar_expansion(self):
        g, phi, eta = 1.3 - 0.4j, 0.8, 2.0 + 1.0j
        ch = ChannelSet(G=np.array([[g]]), F=np.zeros((1, 1), dtype=complex),
                        H=np.zeros((1, 1), dtype=complex), eta=eta)
        theta = np.array([np.exp(1j * phi)])
        f_r = composite_radar_channel(ch, theta, np.ones(1, dtype=complex))
        np.testing.assert_allclose(f_r, [[eta * g ** 2 * np.exp(2j * phi)]])

    def test_rank_one(self):
        ch = small_channels(seed=2)
        theta = np.exp(1j * np.random.default_rng(7).uniform(0, 2 * np.pi, 4))
        a = upa_steering(geom(n_y=2, n_x=2))
        f_r = composite_radar_channel(ch, theta, a)
        s = np.linalg.svd(f_r, compute_uv=False)
        assert s[1] < 1e-10 * s[0]

    def test_symmetric_outer_product(self):
        ch = small_channels(seed=3)
        theta = np.exp(1j * np.random.default_rng(8).uniform(0, 2 * np.pi, 4))
        a = upa_steering(geom(n_y=2, n_x=2))
        f_r = composite_radar_channel(ch, theta, a)
        assert np.max(np.abs(f_r - f_r.T)) < 1e-12 * np.max(np.abs(f_r))

    def test_dimension_mismatch(self):
        ch = small_channels()
        with pytest.raises(ValueError):
            composite_radar_channel(ch, np.ones(3, dtype=complex),
                                    np.ones(4, dtype=complex))


class TestCompositeComm:
    def test_no_irs_path(self):
        ch = small_channels()
        ch = ChannelSet(G=ch.G, F=ch.F, H=np.zeros_like(ch.H), eta=ch.eta)
        theta = np.exp(1j * np.linspace(0, 2, 4))
        np.testing.assert_allclose(composite_comm_channel(ch, theta), ch.F)

    def test_identity_phases(self):
        ch = small_channels()
        ch = ChannelSet(G=ch.G, F=np.zeros_like(ch.F), H=ch.H, eta=ch.eta)
        f_c = composite_comm_channel(ch, np.ones(4, dtype=complex))
        np.testing.assert_allclose(f_c, ch.H @ ch.G)

    def test_scalar_expansion(self):
        ch = ChannelSet(G=np.array([[3.0 + 0j]]), F=np.array([[1.0 + 0j]]),
                        H=np.array([[2.0 + 0j]]), eta=1.0)
        f_c = composite_comm_channel(ch, np.array([1j]))
        np.testing.assert_allclose(f_c, [[1.0 + 6.0j]])


def synthesis_cfg(m=2, n_y=2, n_x=2, num_users=3, seed=0):
    return parse_config("table1", [
        f"m={m}", f"n_y={n_y}", f"n_x={n_x}", f"num_users={num_users}",
        f"seed={seed}"])


class TestSynthesis:
    def test_byte_identical_reruns(self):
        a = synthesize_channels(synthesis_cfg(seed=123))
        b = synthesize_channels(synthesis_cfg(seed=123))
        np.testing.assert_array_equal(a.G, b.G)
        np.testing.assert_array_equal(a.F, b.F)
        np.testing.assert_array_equal(a.H, b.H)

    def test_distinct_seeds_differ(self):
        a = synthesize_channels(synthesis_cfg(seed=1))
        b = synthesize_channels(synthesis_cfg(seed=2))
        assert not np.allclose(a.G, b.G)

    def test_shapes(self):
        ch = synthesize_channels(synthesis_cfg(m=5, n_y=3, n_x=2,
                                               num_users=4))
        assert ch.G.shape == (6, 5)
        assert ch.F.shape == (4, 5)
        assert ch.H.shape == (4, 6)
