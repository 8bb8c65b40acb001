"""Metamorphic relations over whole alternating runs.

Each relation maps a run's inputs through an exact symmetry of the model.
The mapped run must follow the original through every outer iteration:
the same iteration count, and objectives equal after the known scaling to
1e-12 relative.  A gain of G or F is instead matched against the run that
spells the same gain through eta, sigma_c^2 and H.  Channels and the IRS
steering vector are mapped by patching the driver's lookups of
synthesize_channels and upa_steering.
"""
from dataclasses import replace

import numpy as np
import pytest

from dfrc import driver
from dfrc.channel import synthesize_channels, upa_steering
from dfrc.config import parse_config

RTOL = 1e-12
# the radar term dominates table1; at eta = 0.01 both terms count
SCENARIOS = {"table1": [], "balanced": ["eta=0.01", "alpha=0.9"]}


@pytest.fixture(params=[(name, seed) for name in SCENARIOS
                        for seed in range(5)],
                ids=lambda p: f"{p[0]}-seed{p[1]}")
def case(request):
    """A scenario's config, its unmapped run and an rng for the mapping."""
    name, seed = request.param
    cfg = parse_config("table1", [*SCENARIOS[name], f"seed={seed}"])
    return cfg, driver.alternate(cfg), np.random.default_rng(seed)


def run(monkeypatch, cfg, channels=None, steering=None):
    """driver.alternate(cfg) with the channels and steering vector mapped."""
    if channels is not None:
        monkeypatch.setattr(driver, "synthesize_channels",
                            lambda c: channels(synthesize_channels(c)))
    if steering is not None:
        monkeypatch.setattr(driver, "upa_steering",
                            lambda g: steering(upa_steering(g)))
    return driver.alternate(cfg)


def assert_follows(trace, base, scale=1.0):
    assert len(trace.records) == len(base.records)
    np.testing.assert_allclose(trace.objectives, scale * base.objectives,
                               rtol=RTOL, atol=0.0)


@pytest.mark.parametrize("c", [1e-3, 4.0, 1e3])
def test_power_scales_every_objective(case, c):
    # the isotropic R_d = (p0/m) I scales with p0
    cfg, base, _ = case
    trace = driver.alternate(replace(cfg, p0=c * cfg.p0,
                                     gamma_bp=c * cfg.gamma_bp))
    assert_follows(trace, base, c)
    np.testing.assert_allclose(trace.theta, base.theta, rtol=0, atol=RTOL)


def test_noise_scales_every_objective(case):
    # eta is the round-trip gain over the radar noise amplitude, so a
    # tenfold radar noise power divides it by sqrt(10)
    cfg, base, _ = case
    trace = driver.alternate(replace(cfg, eta=cfg.eta / np.sqrt(10),
                                     sigma_c_sq=10 * cfg.sigma_c_sq))
    assert_follows(trace, base, 0.1)
    np.testing.assert_allclose(trace.theta, base.theta, rtol=0, atol=RTOL)


def test_user_order_changes_nothing(monkeypatch, case):
    cfg, base, rng = case
    perm = rng.permutation(cfg.num_users)
    trace = run(monkeypatch, cfg,
                channels=lambda ch: replace(ch, F=ch.F[perm], H=ch.H[perm]))
    assert_follows(trace, base)


def test_target_path_phase_changes_nothing(case):
    # eta is real, and its one phase besides 0 is pi
    cfg, base, _ = case
    trace = driver.alternate(replace(cfg, eta=-cfg.eta))
    assert_follows(trace, base)
    np.testing.assert_allclose(trace.theta, base.theta, rtol=0, atol=RTOL)


def test_irs_element_order_permutes_theta(monkeypatch, case):
    # theta starts at all ones, which every permutation fixes
    cfg, base, rng = case
    perm = rng.permutation(cfg.n_x * cfg.n_y)
    trace = run(monkeypatch, cfg,
                channels=lambda ch: replace(ch, G=ch.G[perm], H=ch.H[:, perm]),
                steering=lambda a: a[perm])
    assert_follows(trace, base)
    np.testing.assert_allclose(trace.theta, base.theta[perm], rtol=0,
                               atol=RTOL)


def test_unitary_transmit_basis_changes_nothing(monkeypatch, case):
    # (G, F) -> (G Q, F Q) maps R_w to Q^H R_w Q; the isotropic R_d is fixed
    cfg, base, rng = case
    q, _ = np.linalg.qr(rng.standard_normal((cfg.m, cfg.m))
                        + 1j * rng.standard_normal((cfg.m, cfg.m)))
    trace = run(monkeypatch, cfg,
                channels=lambda ch: replace(ch, G=ch.G @ q, F=ch.F @ q))
    assert_follows(trace, base)
    np.testing.assert_allclose(trace.theta, base.theta, rtol=0, atol=RTOL)


@pytest.mark.parametrize("c", [0.5, 3.7])
def test_radar_irs_gain_is_eta_and_h(monkeypatch, case, c):
    # G -> c G scales u, and so the radar term by c^4 as eta -> c^2 eta
    # does, and E = H diag(theta) G W by c as H -> c H does
    cfg, _, _ = case
    trace = run(monkeypatch, cfg, channels=lambda ch: replace(ch, G=c * ch.G))
    spelled = run(monkeypatch, replace(cfg, eta=cfg.eta * c ** 2),
                  channels=lambda ch: replace(ch, H=c * ch.H))
    assert_follows(trace, spelled)


@pytest.mark.parametrize("c", [0.5, 3.7])
def test_direct_link_gain_is_comm_noise_and_h(monkeypatch, case, c):
    # alpha |c F W + E|^2 / sigma_c^2 = alpha |F W + E/c|^2 / (sigma_c^2/c^2)
    cfg, _, _ = case
    trace = run(monkeypatch, cfg, channels=lambda ch: replace(ch, F=c * ch.F))
    spelled = run(monkeypatch,
                  replace(cfg, sigma_c_sq=cfg.sigma_c_sq / c ** 2),
                  channels=lambda ch: replace(ch, H=ch.H / c))
    assert_follows(trace, spelled)
