"""Flat key-value run configuration.

A config file holds one ``key = value`` pair per line with ``#`` comments.
Every ratio/power key may be spelled in linear form or with a ``_db`` (or
``_dbm``) suffix, which is converted to linear as it is read; a file sets
each quantity once, in either spelling, and a ``--set`` override replaces
it in whichever spelling it was set.  A ``RunConfig`` checks its own
values, so one made by ``dataclasses.replace`` is checked too.  The
built-in preset ``table1`` carries the reference simulation parameters.

This is the bottom layer: it imports nothing numerical at module level,
so parsing and printing a config load no numpy.  A desired covariance
named by ``r_d_path`` is read and checked in plain Python too; numpy
loads only when ``RunConfig.beampattern`` builds the solver's array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, TypeAlias

if TYPE_CHECKING:
    import numpy as np
    from numpy.typing import NDArray

# A string, so that resolving a config loads neither numpy nor numpy.typing
ComplexArray: TypeAlias = "NDArray[np.complexfloating]"

_TRACE_RTOL = 1e-6     # tr(R_d) vs power, relative to max(1, |power|)
_CERTIFY_RTOL = 1e-9   # feasibility residuals, relative to max(1, power)


class ConfigError(ValueError):
    """A configuration problem (CLI exit code 2); the message names the
    key, line or override at fault."""


def db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:  # past the float range; only k_g accepts inf
        return math.inf


@dataclass(frozen=True)
class SystemGeometry:
    """Radar array, IRS grid, and target-direction parameters."""

    num_radar_antennas: int
    irs_rows: int          # N_y
    irs_cols: int          # N_x
    radar_spacing: float   # in wavelengths
    irs_spacing: float     # in wavelengths
    target_azimuth: float  # rad
    target_elevation: float  # rad

    @property
    def num_irs_elements(self) -> int:
        return self.irs_rows * self.irs_cols


@dataclass(frozen=True)
class BeampatternSpec:
    """Desired covariance R_d and Frobenius-ball radius gamma_bp."""

    r_d: ComplexArray
    gamma_bp: float


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved parameters of one alternating-optimization run.

    The fields up to ``sweep_n`` are the config keys in their linear
    spelling, in ``print-config`` order; each annotation says how the key's
    text is parsed.  ``eta`` is the radar's IRS-target round-trip gain over
    its noise amplitude, the paper's |eta|/sigma_r: the radar SNR reads the
    two through that ratio alone.  ``r_d`` is not a key: it holds the matrix
    loaded from ``r_d_path`` as a tuple of rows, or None for the isotropic
    (p0/m)*I; ``beampattern`` makes either one an array.  Construction, also
    through ``dataclasses.replace``, raises ConfigError for a value out of
    range.
    """

    m: int
    n_x: int
    n_y: int
    num_users: int
    radar_spacing: float
    irs_spacing: float
    target_azimuth: float
    target_elevation: float
    los_radar_angle: float
    los_irs_azimuth: float
    los_irs_elevation: float
    alpha: float
    sigma_c_sq: float
    eta: float
    k_g: float
    h_scale: float
    p0: float
    gamma_bp: float
    r_d_path: str
    epsilon: float
    j_max: int
    seed: int
    theta_init: str
    num_realizations: int
    alphas: tuple[float, ...]
    sweep_p0: tuple[float, ...]
    sweep_m: tuple[int, ...]
    sweep_n: tuple[int, ...]
    r_d: tuple[tuple[complex, ...], ...] | None = field(
        default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        """Reject values outside the domain of the runs."""
        values = vars(self)

        def bad(key: str, why: str):
            raise ConfigError(f"{key} = {values[key]!r}: {why}")

        for key in _KEYS:
            value = values[key]
            for item in value if isinstance(value, tuple) else (value,):
                # k_g = inf is a pure line-of-sight radar->IRS link
                if isinstance(item, float) and not math.isfinite(item) \
                        and not (key == "k_g" and item == math.inf):
                    bad(key, "must be finite")
        if not 0.0 <= self.alpha <= 1.0:
            bad("alpha", "must lie in [0, 1]")
        # a complex eta would square its phase into the radar SNR
        if isinstance(self.eta, complex):
            bad("eta", "must be real")
        for key in ("sigma_c_sq", "p0", "epsilon", "radar_spacing",
                    "irs_spacing"):
            if values[key] <= 0:
                bad(key, "must be positive")
        for key in ("m", "n_x", "n_y", "num_users", "j_max",
                    "num_realizations"):
            if values[key] < 1:
                bad(key, "must be >= 1")
        if self.k_g < 0:
            bad("k_g", "must be >= 0")
        if self.gamma_bp < 0:
            bad("gamma_bp", "must be >= 0")
        if self.seed < 0:
            bad("seed", "must be >= 0")
        if self.theta_init not in ("allones", "random"):
            bad("theta_init", "must be 'allones' or 'random'")
        if any(not 0.0 <= a <= 1.0 for a in self.alphas):
            bad("alphas", "entries must lie in [0, 1]")
        for key in ("alphas", "sweep_p0", "sweep_m", "sweep_n"):
            if not values[key]:
                bad(key, "must list at least one entry")
        if any(p <= 0 for p in self.sweep_p0):
            bad("sweep_p0", "entries must be positive")
        for key in ("sweep_m", "sweep_n"):
            if any(v < 1 for v in values[key]):
                bad(key, "entries must be >= 1")
        # a repeated entry would run, and write, the same output twice
        for key in ("alphas", "sweep_p0", "sweep_m", "sweep_n"):
            if len(set(values[key])) < len(values[key]):
                bad(key, "entries must be distinct")
        # and each alpha names its converge CSV by its :g label
        if len({f"{a:g}" for a in self.alphas}) < len(self.alphas):
            bad("alphas", "entries must differ in their :g labels")

    @property
    def geometry(self) -> SystemGeometry:
        return SystemGeometry(
            num_radar_antennas=self.m, irs_rows=self.n_y, irs_cols=self.n_x,
            radar_spacing=self.radar_spacing, irs_spacing=self.irs_spacing,
            target_azimuth=self.target_azimuth,
            target_elevation=self.target_elevation)

    @property
    def beampattern(self) -> BeampatternSpec:
        import numpy as np
        if self.r_d is None:
            r_d = (self.p0 / self.m) * np.eye(self.m, dtype=complex)
        else:
            r_d = np.array(self.r_d, dtype=complex)
        return BeampatternSpec(r_d=r_d, gamma_bp=self.gamma_bp)


# config key -> its RunConfig annotation
_KEYS = {f.name: f.type for f in fields(RunConfig) if f.name != "r_d"}

# dB-suffixed spelling -> the linear key it sets
_DB_KEYS = {"sigma_c_sq_db": "sigma_c_sq", "k_g_db": "k_g", "p0_dbm": "p0",
            "gamma_bp_db": "gamma_bp", "epsilon_db": "epsilon"}


def _parse_list(item):
    return lambda text: tuple(item(tok) for tok in text.split(",")
                              if tok.strip())


_PARSERS = {
    "int": int, "float": float, "str": str.strip,
    "tuple[float, ...]": _parse_list(float),
    "tuple[int, ...]": _parse_list(int),
}

# Reference simulation preset: tolerance -30 dB, 500 iterations, 5 users,
# 0 dB Rician factor, half-wavelength spacings, 10 dB beampattern ball, 0 dB
# noise powers (the radar's is folded into eta = 1), 30 dBm budget, M=8 and
# an 8x8 IRS.
TABLE1_PRESET: dict[str, str] = {
    "m": "8",
    "n_x": "8",
    "n_y": "8",
    "num_users": "5",
    "radar_spacing": "0.5",
    "irs_spacing": "0.5",
    "target_azimuth": "1.0471975511965976",   # pi/3
    "target_elevation": "0.7853981633974483",  # pi/4
    "los_radar_angle": "0.0",
    "los_irs_azimuth": "0.0",
    "los_irs_elevation": "0.0",
    "alpha": "0.5",
    "sigma_c_sq_db": "0",
    "eta": "1.0",
    "k_g_db": "0",
    "h_scale": "1.0",
    "p0_dbm": "30",
    "gamma_bp_db": "10",
    "r_d_path": "",
    "epsilon_db": "-30",
    "j_max": "500",
    "seed": "0",
    "theta_init": "allones",
    "num_realizations": "20",
    "alphas": "0.1,0.5,0.9",
    "sweep_p0": "1000",
    "sweep_m": "4,8",
    "sweep_n": "16,36,64",
}

PRESETS = {"table1": TABLE1_PRESET}


def _parse_scalar(key: str, text: str, kind: str, where: str):
    try:
        return _PARSERS[kind](text)
    except ValueError as exc:
        raise ConfigError(
            f"{where}: cannot parse {key!r} = {text!r} as {kind}") from exc


# Each entry is linear key -> (value, where its text came from): "line N"
# of a config file, the "--set key=value" override, or the preset's name.
_Values = dict[str, tuple[object, str]]


def _set(values: _Values, key: str, text: str, where: str) -> None:
    """Parse ``key = text`` into values, a dB spelling into its linear key."""
    linear = _DB_KEYS.get(key, key)
    if linear not in _KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    if linear in values:
        named = repr(key) if key == linear else f"{linear!r} (as {key!r})"
        raise ConfigError(f"{where}: key {named} is set again "
                          f"(first on {values[linear][1]})")
    if key == linear:
        value = _parse_scalar(key, text, _KEYS[key], where)
    else:
        value = db_to_linear(_parse_scalar(key, text, "float", where))
    values[linear] = (value, where)


def _read_file(path: str | Path) -> _Values:
    values: _Values = {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:  # e.g. a directory
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {raw_line!r}")
        key, value = line.split("=", 1)
        _set(values, key.strip(), value.strip(), f"line {lineno}")
    return values


def trace_matches(trace: float, power: float) -> bool:
    """Whether tr(R_d) equals the power budget to the solver's tolerance."""
    return abs(trace - power) <= _TRACE_RTOL * max(1.0, abs(power))


def load_r_d(path: str, p0: float,
             m: int) -> tuple[tuple[complex, ...], ...]:
    """Desired covariance from a .npy file: an m x m Hermitian PSD matrix
    with trace p0, which the covariance solve needs, as rows of complex.

    The file is read with the standard library alone: header versions
    1.0-3.0, C or Fortran order, either byte order, and the numeric dtypes
    np.save writes, b1, i1-i8, u1-u8, f2, f4, f8, c8 and c16.
    """
    import ast
    import struct

    def bad(why: str) -> ConfigError:
        return ConfigError(f"r_d_path = {path!r}: {why}")

    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise bad(str(exc)) from exc
    if data.startswith(b"PK\x03\x04"):  # a zip, such as an .npz archive
        raise bad("not a .npy array")
    if len(data) < 12 or not data.startswith(b"\x93NUMPY") \
            or data[6] not in (1, 2, 3) or data[7] != 0:
        raise bad("not a .npy file")
    # version 1.0 has a 2-byte header length, 2.0 and 3.0 a 4-byte one
    start = 10 if data[6] == 1 else 12
    (size,) = struct.unpack_from("<H" if data[6] == 1 else "<I", data, 8)
    try:
        header = ast.literal_eval(data[start:start + size].decode(
            "utf-8" if data[6] == 3 else "latin-1"))
    except (ValueError, SyntaxError, TypeError, MemoryError,
            RecursionError) as exc:
        raise bad(f"unreadable .npy header: {exc}") from exc
    if not (isinstance(header, dict)
            and header.keys() == {"descr", "fortran_order", "shape"}
            and isinstance(header["fortran_order"], bool)
            and isinstance(header["shape"], tuple)
            and all(isinstance(n, int) for n in header["shape"])):
        raise bad(f"malformed .npy header {header!r}")
    descr, shape = header["descr"], header["shape"]
    # descr is a byte order and a kind with its size; complex is two floats
    codes = {"b1": "?", "i1": "b", "i2": "h", "i4": "i", "i8": "q",
             "u1": "B", "u2": "H", "u4": "I", "u8": "Q", "f2": "e",
             "f4": "f", "f8": "d", "c8": "f", "c16": "d"}
    if not isinstance(descr, str) or descr[:1] not in ("<", ">", "|") \
            or descr[1:] not in codes:
        raise bad(f"{descr!r} is not a numeric dtype np.save writes (b1, "
                  f"i1-i8, u1-u8, f2, f4, f8, c8 or c16)")
    if shape != (m, m):
        raise ConfigError(f"r_d_path matrix must be {m}x{m}, got {shape}")
    parts = 2 if descr[1] == "c" else 1
    order = ">" if descr[0] == ">" else "<"
    offset, need = start + size, m * m * int(descr[2:])
    if len(data) - offset < need:
        raise bad(f"data cut off at {len(data) - offset} of {need} bytes")
    flat = struct.unpack_from(f"{order}{parts * m * m}{codes[descr[1:]]}",
                              data, offset)
    values = [complex(*flat[k:k + parts])
              for k in range(0, len(flat), parts)]
    # row i is every m-th value of a column-major file
    r_d = tuple(tuple(values[i::m] if header["fortran_order"]
                      else values[i * m:(i + 1) * m]) for i in range(m))
    trace = math.fsum(r_d[i][i].real for i in range(m))
    if not trace_matches(trace, p0):
        raise ConfigError(f"r_d_path matrix has trace {trace:.6g}, "
                          f"but p0 is {p0:.6g}")
    # Hermitian and PSD to the covariance solve's certificate tolerance;
    # a non-finite entry fails the first test
    tol = _CERTIFY_RTOL * max(1.0, p0)
    if not math.hypot(*(abs(r_d[i][j] - r_d[j][i].conjugate())
                        for i in range(m) for j in range(m))) <= tol:
        raise bad("matrix is not Hermitian")
    # R_d + tol I has a Cholesky factor, read from the lower triangle,
    # exactly when the smallest eigenvalue of R_d is above -tol
    factor: list[list[complex]] = []
    for i, row in enumerate(r_d):
        lower: list[complex] = []
        for j, above in enumerate(factor):
            lower.append((row[j] - sum(x * y.conjugate()
                                       for x, y in zip(lower, above)))
                         / above[j])
        pivot = row[i].real + tol - sum(x.real ** 2 + x.imag ** 2
                                        for x in lower)
        if not pivot > 0:
            raise bad(f"matrix is not PSD (smallest eigenvalue below "
                      f"{-tol:.3g})")
        lower.append(complex(math.sqrt(pivot)))
        factor.append(lower)
    return r_d


def parse_config(source: str | Path,
                 overrides: list[str] | None = None) -> RunConfig:
    """Load a config file (or the name of a built-in preset) into a
    RunConfig, applying ``key=value`` override strings last."""
    name = str(source)
    if name in PRESETS:
        values: _Values = {}
        for key, text in PRESETS[name].items():
            _set(values, key, text, f"preset {name}")
    else:
        values = _read_file(source)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, text = item.split("=", 1)
        # replaces the quantity in whichever spelling it was set
        override: _Values = {}
        _set(override, key.strip(), text.strip(), f"--set {item}")
        values.update(override)
    values.setdefault("r_d_path", ("", "its default"))
    for key in _KEYS:
        if key not in values:
            db = [alias for alias, k in _DB_KEYS.items() if k == key]
            raise ConfigError(f"missing required key {key!r}"
                              + (f" (or {db[0]!r})" if db else ""))
    cfg = RunConfig(**{key: value for key, (value, _) in values.items()})
    if cfg.r_d_path:  # loading R_d needs a checked m and p0
        cfg = replace(cfg, r_d=load_r_d(cfg.r_d_path, cfg.p0, cfg.m))
    return cfg


def _format(value: object) -> str:
    if isinstance(value, tuple):
        return ",".join(_format(v) for v in value)
    return str(value)


def format_config(cfg: RunConfig) -> str:
    """Render a RunConfig as a flat, re-parseable key=value document.

    Only linear-form keys are emitted, so a round trip through
    parse_config reproduces the same RunConfig.
    """
    return "".join(f"{key} = {_format(getattr(cfg, key))}\n" for key in _KEYS)
