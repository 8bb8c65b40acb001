"""Flat key-value run configuration with dB/linear reconciliation.

A config file holds one ``key = value`` pair per line with ``#`` comments.
Every ratio/power key is accepted either in linear form or with a ``_db``
(or ``_dbm``) suffix; the dB form wins, and supplying both with
inconsistent values is an error.  The built-in preset ``table1`` carries
the reference simulation parameters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channel import SystemGeometry
from .objective import DesignWeights
from .precoder import BeampatternSpec, trace_matches


class ConfigError(ValueError):
    """Base class for configuration problems (CLI exit code 2)."""


class MissingKeyError(ConfigError):
    pass


class UnknownKeyError(ConfigError):
    pass


class BadValueError(ConfigError):
    pass


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


# canonical key -> (type tag, dB-suffixed alias or None)
_SCHEMA: dict[str, tuple[str, str | None]] = {
    "m": ("int", None),
    "n_x": ("int", None),
    "n_y": ("int", None),
    "num_users": ("int", None),
    "radar_spacing": ("float", None),
    "irs_spacing": ("float", None),
    "target_azimuth": ("float", None),
    "target_elevation": ("float", None),
    "los_radar_angle": ("float", None),
    "los_irs_azimuth": ("float", None),
    "los_irs_elevation": ("float", None),
    "alpha": ("float", None),
    "sigma_r_sq": ("float", "sigma_r_sq_db"),
    "sigma_c_sq": ("float", "sigma_c_sq_db"),
    "eta": ("complex", None),
    "k_g": ("float", "k_g_db"),
    "g_scale": ("float", None),
    "f_scale": ("float", None),
    "h_scale": ("float", None),
    "p0": ("float", "p0_dbm"),
    "gamma_bp": ("float", "gamma_bp_db"),
    "r_d_path": ("str", None),
    "epsilon": ("float", "epsilon_db"),
    "j_max": ("int", None),
    "inner_steps": ("int", None),
    "seed": ("int", None),
    "theta_init": ("str", None),
    "num_realizations": ("int", None),
    "alphas": ("floatlist", None),
    "sweep_p0": ("floatlist", None),
    "sweep_m": ("intlist", None),
    "sweep_n": ("intlist", None),
}

_DB_ALIASES = {alias: key for key, (_, alias) in _SCHEMA.items()
               if alias is not None}

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


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved parameters of one alternating-optimization run."""

    geometry: SystemGeometry
    weights: DesignWeights
    beampattern: BeampatternSpec
    num_users: int
    eta: complex
    k_g: float
    g_scale: float
    f_scale: float
    h_scale: float
    los_radar_angle: float
    los_irs_azimuth: float
    los_irs_elevation: float
    p0: float
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
    raw: dict[str, str] = field(default_factory=dict, compare=False)


def _parse_scalar(key: str, text: str, kind: str, line: int):
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "complex":
            return complex(text.replace(" ", ""))
        if kind == "floatlist":
            return tuple(float(tok) for tok in text.split(",") if tok.strip())
        if kind == "intlist":
            return tuple(int(tok) for tok in text.split(",") if tok.strip())
        return text.strip()
    except ValueError as exc:
        raise BadValueError(
            f"line {line}: cannot parse {key!r} = {text!r} as {kind}") from exc


def _read_pairs(path: str | Path) -> dict[str, tuple[str, int]]:
    pairs: dict[str, tuple[str, int]] = {}
    text = Path(path).read_text()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadValueError(f"line {lineno}: expected 'key = value', "
                                f"got {raw_line!r}")
        key, value = line.split("=", 1)
        pairs[key.strip()] = (value.strip(), lineno)
    return pairs


def _resolve(pairs: dict[str, tuple[str, int]]) -> dict[str, object]:
    """Validate keys, apply dB precedence, and type every value."""
    for key in pairs:
        if key not in _SCHEMA and key not in _DB_ALIASES:
            line = pairs[key][1]
            raise UnknownKeyError(f"line {line}: unknown key {key!r}")
    resolved: dict[str, object] = {}
    for key, (kind, db_alias) in _SCHEMA.items():
        has_linear = key in pairs
        has_db = db_alias is not None and db_alias in pairs
        if not has_linear and not has_db:
            if key in ("r_d_path",):
                resolved[key] = ""
                continue
            raise MissingKeyError(f"missing required key {key!r}"
                                  + (f" (or {db_alias!r})" if db_alias else ""))
        linear_val = None
        if has_linear:
            text, line = pairs[key]
            linear_val = _parse_scalar(key, text, kind, line)
        if has_db:
            text, line = pairs[db_alias]
            db_val = _parse_scalar(db_alias, text, "float", line)
            converted = db_to_linear(db_val)
            if has_linear and not math.isclose(converted, linear_val,
                                               rel_tol=1e-9, abs_tol=0.0):
                raise BadValueError(
                    f"line {line}: {db_alias} = {db_val} (linear "
                    f"{converted:.6g}) contradicts {key} = {linear_val}")
            resolved[key] = converted
        else:
            resolved[key] = linear_val
    return resolved


def _validate(values: dict[str, object]) -> None:
    def bad(key: str, why: str):
        raise BadValueError(f"{key} = {values[key]!r}: {why}")

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


def _to_run_config(values: dict[str, object],
                   raw: dict[str, str]) -> RunConfig:
    geometry = SystemGeometry(
        num_radar_antennas=values["m"],
        irs_rows=values["n_y"],
        irs_cols=values["n_x"],
        radar_spacing=values["radar_spacing"],
        irs_spacing=values["irs_spacing"],
        target_azimuth=values["target_azimuth"],
        target_elevation=values["target_elevation"],
    )
    weights = DesignWeights(alpha=values["alpha"],
                            sigma_r_sq=values["sigma_r_sq"],
                            sigma_c_sq=values["sigma_c_sq"])
    beampattern = make_beampattern(values["p0"], values["m"],
                                   values["gamma_bp"], values["r_d_path"])
    return RunConfig(
        geometry=geometry, weights=weights, beampattern=beampattern,
        num_users=values["num_users"], eta=values["eta"], k_g=values["k_g"],
        g_scale=values["g_scale"], f_scale=values["f_scale"],
        h_scale=values["h_scale"],
        los_radar_angle=values["los_radar_angle"],
        los_irs_azimuth=values["los_irs_azimuth"],
        los_irs_elevation=values["los_irs_elevation"],
        p0=values["p0"], epsilon=values["epsilon"], j_max=values["j_max"],
        inner_steps=values["inner_steps"], seed=values["seed"],
        theta_init=values["theta_init"],
        num_realizations=values["num_realizations"],
        alphas=values["alphas"], sweep_p0=values["sweep_p0"],
        sweep_m=values["sweep_m"], sweep_n=values["sweep_n"], raw=raw)


def make_beampattern(p0: float, m: int, gamma_bp: float,
                     r_d_path: str = "") -> BeampatternSpec:
    """Desired covariance: omnidirectional (p0/m)*I unless a .npy override
    is given, which must be m x m with trace p0."""
    if r_d_path:
        try:
            r_d = np.load(r_d_path)
        except (OSError, ValueError, EOFError) as exc:
            raise BadValueError(f"r_d_path = {r_d_path!r}: {exc}") from exc
        if not isinstance(r_d, np.ndarray):  # an .npz archive
            raise BadValueError(f"r_d_path = {r_d_path!r}: not a .npy array")
        if r_d.shape != (m, m):
            raise BadValueError(f"r_d_path matrix must be {m}x{m}, "
                                f"got {r_d.shape}")
        r_d = np.asarray(r_d, dtype=complex)
        if not trace_matches(r_d, p0):
            raise BadValueError(
                f"r_d_path matrix has trace {np.trace(r_d).real:.6g}, "
                f"but p0 is {p0:.6g}")
    else:
        r_d = (p0 / m) * np.eye(m, dtype=complex)
    return BeampatternSpec(r_d=r_d, gamma_bp=gamma_bp)


def parse_config(source: str | Path,
                 overrides: list[str] | None = None) -> RunConfig:
    """Load a config file (or the name of a built-in preset) into a
    RunConfig, applying ``key=value`` override strings last."""
    name = str(source)
    if name in PRESETS:
        pairs = {k: (v, 0) for k, v in PRESETS[name].items()}
    else:
        if not Path(source).exists():
            raise ConfigError(f"config file not found: {source}")
        pairs = _read_pairs(source)
    for i, item in enumerate(overrides or []):
        if "=" not in item:
            raise BadValueError(f"override {item!r} is not key=value")
        key, value = item.split("=", 1)
        key = key.strip()
        # an override replaces both spellings so precedence stays sane
        if key in _DB_ALIASES:
            pairs.pop(_DB_ALIASES[key], None)
        elif key in _SCHEMA:
            alias = _SCHEMA[key][1]
            if alias:
                pairs.pop(alias, None)
        pairs[key] = (value.strip(), -(i + 1))
    values = _resolve(pairs)
    _validate(values)
    raw = {k: v for k, (v, _) in sorted(pairs.items())}
    return _to_run_config(values, raw)


def format_config(cfg: RunConfig) -> str:
    """Render a RunConfig as a flat, re-parseable key=value document.

    Only linear-form keys are emitted, so a round trip through
    parse_config reproduces the same RunConfig.
    """
    g = cfg.geometry
    w = cfg.weights
    values: dict[str, object] = {
        "m": g.num_radar_antennas, "n_x": g.irs_cols, "n_y": g.irs_rows,
        "num_users": cfg.num_users,
        "radar_spacing": repr(g.radar_spacing),
        "irs_spacing": repr(g.irs_spacing),
        "target_azimuth": repr(g.target_azimuth),
        "target_elevation": repr(g.target_elevation),
        "los_radar_angle": repr(cfg.los_radar_angle),
        "los_irs_azimuth": repr(cfg.los_irs_azimuth),
        "los_irs_elevation": repr(cfg.los_irs_elevation),
        "alpha": repr(w.alpha),
        "sigma_r_sq": repr(w.sigma_r_sq), "sigma_c_sq": repr(w.sigma_c_sq),
        "eta": str(cfg.eta).strip("()"),
        "k_g": repr(cfg.k_g),
        "g_scale": repr(cfg.g_scale), "f_scale": repr(cfg.f_scale),
        "h_scale": repr(cfg.h_scale),
        "p0": repr(cfg.p0), "gamma_bp": repr(cfg.beampattern.gamma_bp),
        "r_d_path": cfg.raw.get("r_d_path", ""),
        "epsilon": repr(cfg.epsilon), "j_max": cfg.j_max,
        "inner_steps": cfg.inner_steps,
        "seed": cfg.seed, "theta_init": cfg.theta_init,
        "num_realizations": cfg.num_realizations,
        "alphas": ",".join(repr(a) for a in cfg.alphas),
        "sweep_p0": ",".join(repr(p) for p in cfg.sweep_p0),
        "sweep_m": ",".join(str(m) for m in cfg.sweep_m),
        "sweep_n": ",".join(str(n) for n in cfg.sweep_n),
    }
    return "".join(f"{k} = {v}\n" for k, v in values.items())

