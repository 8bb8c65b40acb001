"""Flat key-value run configuration with dB/linear reconciliation.

A config file holds one ``key = value`` pair per line with ``#`` comments.
Every ratio/power key is accepted either in linear form or with a ``_db``
(or ``_dbm``) suffix; the dB form wins, and supplying both with
inconsistent values is an error.  The built-in preset ``table1`` carries
the reference simulation parameters.

This is the bottom layer: it imports nothing numerical at module level,
so parsing and printing a config load no numpy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
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
    """Base class for configuration problems (CLI exit code 2)."""


class MissingKeyError(ConfigError):
    pass


class UnknownKeyError(ConfigError):
    pass


class BadValueError(ConfigError):
    pass


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

    def __post_init__(self) -> None:
        if self.num_radar_antennas < 1:
            raise ValueError("num_radar_antennas must be >= 1")
        if self.irs_rows < 1 or self.irs_cols < 1:
            raise ValueError("IRS grid dimensions must be >= 1")
        if self.radar_spacing <= 0 or self.irs_spacing <= 0:
            raise ValueError("element spacings must be positive")
        for ang in (self.target_azimuth, self.target_elevation):
            if not math.isfinite(ang):
                raise ValueError("angles must be finite")

    @property
    def num_irs_elements(self) -> int:
        return self.irs_rows * self.irs_cols


@dataclass(frozen=True)
class DesignWeights:
    """Radar/communication trade-off weight and receiver noise powers."""

    alpha: float
    sigma_r_sq: float
    sigma_c_sq: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.sigma_r_sq <= 0 or self.sigma_c_sq <= 0:
            raise ValueError("noise powers must be positive")


@dataclass(frozen=True)
class BeampatternSpec:
    """Desired covariance R_d and Frobenius-ball radius gamma_bp."""

    r_d: ComplexArray
    gamma_bp: float

    def __post_init__(self) -> None:
        if self.gamma_bp < 0:
            raise ValueError("gamma_bp must be >= 0")
        if self.r_d.ndim != 2 or self.r_d.shape[0] != self.r_d.shape[1]:
            raise ValueError("R_d must be square")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved parameters of one alternating-optimization run.

    The fields up to ``sweep_n`` are the config keys in their linear
    spelling, in ``print-config`` order; each annotation says how the key's
    text is parsed.  ``r_d`` is not a key: it holds the matrix loaded from
    ``r_d_path``, or None for the isotropic (p0/m)*I.
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
    sigma_r_sq: float
    sigma_c_sq: float
    eta: complex
    k_g: float
    g_scale: float
    f_scale: float
    h_scale: float
    p0: float
    gamma_bp: float
    r_d_path: str
    epsilon: float
    j_max: int
    inner_steps: int
    seed: int
    theta_init: str
    num_realizations: int
    alphas: tuple[float, ...]
    sweep_p0: tuple[float, ...]
    sweep_m: tuple[int, ...]
    sweep_n: tuple[int, ...]
    r_d: ComplexArray | None = field(default=None, compare=False, repr=False)

    @property
    def geometry(self) -> SystemGeometry:
        return SystemGeometry(
            num_radar_antennas=self.m, irs_rows=self.n_y, irs_cols=self.n_x,
            radar_spacing=self.radar_spacing, irs_spacing=self.irs_spacing,
            target_azimuth=self.target_azimuth,
            target_elevation=self.target_elevation)

    @property
    def weights(self) -> DesignWeights:
        return DesignWeights(alpha=self.alpha, sigma_r_sq=self.sigma_r_sq,
                             sigma_c_sq=self.sigma_c_sq)

    @property
    def beampattern(self) -> BeampatternSpec:
        r_d = self.r_d
        if r_d is None:
            import numpy as np
            r_d = (self.p0 / self.m) * np.eye(self.m, dtype=complex)
        return BeampatternSpec(r_d=r_d, gamma_bp=self.gamma_bp)


# config key -> its RunConfig annotation
_KEYS = {f.name: f.type for f in fields(RunConfig) if f.name != "r_d"}

# linear key -> the dB-suffixed spelling it also accepts
_DB_ALIASES = {"sigma_r_sq": "sigma_r_sq_db", "sigma_c_sq": "sigma_c_sq_db",
               "k_g": "k_g_db", "p0": "p0_dbm", "gamma_bp": "gamma_bp_db",
               "epsilon": "epsilon_db"}


def _parse_list(item):
    return lambda text: tuple(item(tok) for tok in text.split(",")
                              if tok.strip())


_PARSERS = {
    "int": int, "float": float, "str": str.strip,
    "complex": lambda text: complex(text.replace(" ", "")),
    "tuple[float, ...]": _parse_list(float),
    "tuple[int, ...]": _parse_list(int),
}

# Reference simulation preset: tolerance -30 dB, 500 iterations, one MM
# ascent step per iteration, 5 users, 0 dB Rician factor, half-wavelength
# spacings, 10 dB beampattern ball, 0 dB noise powers, 30 dBm budget, M=8
# and an 8x8 IRS.
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
    "sigma_r_sq_db": "0",
    "sigma_c_sq_db": "0",
    "eta": "1+0j",
    "k_g_db": "0",
    "g_scale": "1.0",
    "f_scale": "1.0",
    "h_scale": "1.0",
    "p0_dbm": "30",
    "gamma_bp_db": "10",
    "r_d_path": "",
    "epsilon_db": "-30",
    "j_max": "500",
    "inner_steps": "1",
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
        raise BadValueError(
            f"{where}: cannot parse {key!r} = {text!r} as {kind}") from exc


# Each pair is key -> (value text, where it came from): "line N" of a config
# file, the "--set key=value" override, or the preset's name.
_Pairs = dict[str, tuple[str, str]]


def _read_pairs(path: str | Path) -> _Pairs:
    pairs: _Pairs = {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:  # e.g. a directory
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadValueError(f"line {lineno}: expected 'key = value', "
                                f"got {raw_line!r}")
        key, value = line.split("=", 1)
        pairs[key.strip()] = (value.strip(), f"line {lineno}")
    return pairs


def _resolve(pairs: _Pairs) -> dict[str, object]:
    """Validate keys, apply dB precedence, and type every value."""
    for key, (_, where) in pairs.items():
        if key not in _KEYS and key not in _DB_ALIASES.values():
            raise UnknownKeyError(f"{where}: unknown key {key!r}")
    resolved: dict[str, object] = {}
    for key, kind in _KEYS.items():
        db_alias = _DB_ALIASES.get(key)
        has_linear = key in pairs
        has_db = db_alias in pairs
        if not has_linear and not has_db:
            if key == "r_d_path":
                resolved[key] = ""
                continue
            raise MissingKeyError(f"missing required key {key!r}"
                                  + (f" (or {db_alias!r})" if db_alias else ""))
        linear_val = None
        if has_linear:
            text, where = pairs[key]
            linear_val = _parse_scalar(key, text, kind, where)
        if has_db:
            text, where = pairs[db_alias]
            db_val = _parse_scalar(db_alias, text, "float", where)
            converted = db_to_linear(db_val)
            if has_linear and not math.isclose(converted, linear_val,
                                               rel_tol=1e-9, abs_tol=0.0):
                raise BadValueError(
                    f"{where}: {db_alias} = {db_val} (linear "
                    f"{converted:.6g}) contradicts {key} = {linear_val}")
            resolved[key] = converted
        else:
            resolved[key] = linear_val
    return resolved


def _validate(values: dict[str, object]) -> None:
    def bad(key: str, why: str):
        raise BadValueError(f"{key} = {values[key]!r}: {why}")

    for key, value in values.items():
        for item in value if isinstance(value, tuple) else (value,):
            # k_g = inf is a pure line-of-sight radar->IRS link
            if isinstance(item, (float, complex)) \
                    and not (math.isfinite(item.real)
                             and math.isfinite(item.imag)) \
                    and not (key == "k_g" and item == math.inf):
                bad(key, "must be finite")
    if not 0.0 <= values["alpha"] <= 1.0:
        bad("alpha", "must lie in [0, 1]")
    for key in ("sigma_r_sq", "sigma_c_sq", "p0", "epsilon",
                "radar_spacing", "irs_spacing"):
        if values[key] <= 0:
            bad(key, "must be positive")
    for key in ("m", "n_x", "n_y", "num_users", "j_max", "inner_steps",
                "num_realizations"):
        if values[key] < 1:
            bad(key, "must be >= 1")
    if values["k_g"] < 0:
        bad("k_g", "must be >= 0")
    if values["gamma_bp"] < 0:
        bad("gamma_bp", "must be >= 0")
    if values["seed"] < 0:
        bad("seed", "must be >= 0")
    if values["theta_init"] not in ("allones", "random"):
        bad("theta_init", "must be 'allones' or 'random'")
    if any(not 0.0 <= a <= 1.0 for a in values["alphas"]):
        bad("alphas", "entries must lie in [0, 1]")
    for key in ("sweep_p0", "sweep_m", "sweep_n"):
        if not values[key]:
            bad(key, "must list at least one entry")
    if any(p <= 0 for p in values["sweep_p0"]):
        bad("sweep_p0", "entries must be positive")
    for key in ("sweep_m", "sweep_n"):
        if any(v < 1 for v in values[key]):
            bad(key, "entries must be >= 1")


def trace_matches(r_d: ComplexArray, power: float) -> bool:
    """Whether tr(R_d) equals the power budget to the solver's tolerance."""
    trace_rd = float(r_d.trace().real)
    return abs(trace_rd - power) <= _TRACE_RTOL * max(1.0, abs(power))


def load_r_d(path: str, p0: float, m: int) -> ComplexArray:
    """Desired covariance from a .npy file: an m x m Hermitian PSD matrix
    with trace p0, which the covariance solve needs."""
    import numpy as np
    try:
        r_d = np.load(path)
    except (OSError, ValueError, EOFError) as exc:
        raise BadValueError(f"r_d_path = {path!r}: {exc}") from exc
    if not isinstance(r_d, np.ndarray):  # an .npz archive
        raise BadValueError(f"r_d_path = {path!r}: not a .npy array")
    if r_d.shape != (m, m):
        raise BadValueError(f"r_d_path matrix must be {m}x{m}, "
                            f"got {r_d.shape}")
    r_d = np.asarray(r_d, dtype=complex)
    if not trace_matches(r_d, p0):
        raise BadValueError(
            f"r_d_path matrix has trace {np.trace(r_d).real:.6g}, "
            f"but p0 is {p0:.6g}")
    # Hermitian and PSD to the covariance solve's certificate tolerance
    tol = _CERTIFY_RTOL * max(1.0, p0)
    if np.linalg.norm(r_d - r_d.conj().T) > tol:
        raise BadValueError(f"r_d_path = {path!r}: matrix is not Hermitian")
    min_eig = float(np.linalg.eigvalsh(r_d)[0])
    if min_eig < -tol:
        raise BadValueError(f"r_d_path = {path!r}: matrix is not PSD "
                            f"(smallest eigenvalue {min_eig:.3g})")
    return r_d


def parse_config(source: str | Path,
                 overrides: list[str] | None = None) -> RunConfig:
    """Load a config file (or the name of a built-in preset) into a
    RunConfig, applying ``key=value`` override strings last."""
    name = str(source)
    if name in PRESETS:
        pairs = {k: (v, f"preset {name}") for k, v in PRESETS[name].items()}
    else:
        pairs = _read_pairs(source)
    for item in overrides or []:
        if "=" not in item:
            raise BadValueError(f"override {item!r} is not key=value")
        key, value = item.split("=", 1)
        key = key.strip()
        # an override replaces both spellings so precedence stays sane
        linear = next((k for k, a in _DB_ALIASES.items() if a == key), key)
        pairs.pop(linear, None)
        pairs.pop(_DB_ALIASES.get(linear), None)
        pairs[key] = (value.strip(), f"--set {item}")
    values = _resolve(pairs)
    _validate(values)
    path = values["r_d_path"]
    r_d = load_r_d(path, values["p0"], values["m"]) if path else None
    return RunConfig(**values, r_d=r_d)


def _format(value: object) -> str:
    if isinstance(value, tuple):
        return ",".join(_format(v) for v in value)
    if isinstance(value, complex):
        return str(value).strip("()")
    return str(value)


def format_config(cfg: RunConfig) -> str:
    """Render a RunConfig as a flat, re-parseable key=value document.

    Only linear-form keys are emitted, so a round trip through
    parse_config reproduces the same RunConfig.
    """
    return "".join(f"{key} = {_format(getattr(cfg, key))}\n" for key in _KEYS)
