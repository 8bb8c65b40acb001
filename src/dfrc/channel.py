"""Array steering vectors, fading channel synthesis, and the composite
communication channel; the rank-one radar channel is never formed.

Geometry conventions: all element spacings are expressed as a fraction of
the carrier wavelength, so phase terms never carry an explicit lambda.
The IRS is an N_y-by-N_x uniform planar array; its steering vector is the
Kronecker product of the per-axis factors with the y-axis index outermost.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ComplexArray, RunConfig, SystemGeometry


@dataclass(frozen=True)
class ChannelSet:
    """All propagation matrices of one scenario realization.

    G: radar->IRS (N x M), F: radar->users (K x M), H: IRS->users (K x N).
    K is F's row count.
    """

    G: ComplexArray
    F: ComplexArray
    H: ComplexArray

    def __post_init__(self) -> None:
        n, m = self.G.shape
        k = len(self.F)
        if self.F.shape != (k, m):
            raise ValueError(f"F must be Kx{m}, got {self.F.shape}")
        if self.H.shape != (k, n):
            raise ValueError(f"H must be {k}x{n}, got {self.H.shape}")


def ula_steering(num_elements: int, spacing: float, angle: float) -> ComplexArray:
    """Uniform linear array response, phase 2*pi*spacing*m*sin(angle)."""
    idx = np.arange(num_elements)
    return np.exp(2j * np.pi * spacing * idx * np.sin(angle))


def upa_steering(geometry: SystemGeometry,
                 azimuth: float | None = None,
                 elevation: float | None = None) -> ComplexArray:
    """IRS planar-array steering vector a_y kron a_x (y index outer).

    The y-axis factor uses phase 2*pi*d*cos(az)*sin(el) per element step;
    the x-axis factor uses the orthogonal term 2*pi*d*sin(az)*sin(el).
    Defaults to the configured target direction.
    """
    az = geometry.target_azimuth if azimuth is None else azimuth
    el = geometry.target_elevation if elevation is None else elevation
    d = geometry.irs_spacing
    phase_y = 2 * np.pi * d * np.cos(az) * np.sin(el)
    phase_x = 2 * np.pi * d * np.sin(az) * np.sin(el)
    a_y = np.exp(1j * phase_y * np.arange(geometry.irs_rows))
    a_x = np.exp(1j * phase_x * np.arange(geometry.irs_cols))
    return np.kron(a_y, a_x)


def rayleigh_channel(rows: int, cols: int,
                     rng: np.random.Generator) -> ComplexArray:
    """I.i.d. circularly symmetric complex Gaussian entries, unit variance."""
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return (re + 1j * im) / np.sqrt(2.0)


def rician_channel(los: ComplexArray, k_factor: float,
                   rng: np.random.Generator) -> ComplexArray:
    """Mix a deterministic LOS matrix with Rayleigh scatter.

    k_factor is the linear-scale Rician factor (LOS/NLOS power ratio);
    per-entry average power stays 1 for any k_factor >= 0.
    """
    if np.isinf(k_factor):
        return los.astype(np.complex128, copy=True)
    nlos = rayleigh_channel(*los.shape, rng=rng)
    return (np.sqrt(k_factor / (1 + k_factor)) * los
            + np.sqrt(1 / (1 + k_factor)) * nlos)


def los_component(geometry: SystemGeometry, radar_departure_angle: float,
                  irs_arrival_azimuth: float,
                  irs_arrival_elevation: float) -> ComplexArray:
    """Rank-one LOS matrix outer(a_irs(az, el), a_radar), with no conjugate,
    for the radar->IRS link (N x M, unit-modulus)."""
    a_irs = upa_steering(geometry, irs_arrival_azimuth, irs_arrival_elevation)
    a_radar = ula_steering(geometry.num_radar_antennas,
                           geometry.radar_spacing, radar_departure_angle)
    return np.outer(a_irs, a_radar)


def synthesize_channels(cfg: RunConfig) -> ChannelSet:
    """Draw a full ChannelSet deterministically from the config's seed.

    G is Rician around the configured LOS geometry; F and H are Rayleigh.
    Draw order is fixed (G, F, H) so a seed pins the whole realization.
    """
    rng = np.random.default_rng(cfg.seed)
    geometry = cfg.geometry
    los = los_component(geometry, cfg.los_radar_angle, cfg.los_irs_azimuth,
                        cfg.los_irs_elevation)
    g = rician_channel(los, cfg.k_g, rng)
    f = rayleigh_channel(cfg.num_users, cfg.m, rng)
    h = cfg.h_scale * rayleigh_channel(cfg.num_users,
                                       geometry.num_irs_elements, rng)
    return ChannelSet(G=g, F=f, H=h)


def composite_comm_channel(channels: ChannelSet,
                           theta: ComplexArray) -> ComplexArray:
    """Effective downlink channel F + H Theta G."""
    return channels.F + (channels.H * theta) @ channels.G
