"""Command-line front end.

Commands: converge, sweep, print-config.  Exit codes: 0 success, 2
config error, 3 runtime error.  Each command imports only the modules it
runs: print-config and config errors load no numpy.
"""
from __future__ import annotations

import argparse
import gc
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

from .config import ConfigError, format_config, parse_config

if TYPE_CHECKING:
    from .driver import Curve

SCHEMA_VERSION = 1


def _git_describe() -> str:
    """Commit of the checkout this package was imported from, wherever the
    process runs."""
    import subprocess
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10,
                             cwd=Path(__file__).resolve().parent)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):  # no git, or it stalled
        pass
    return "unknown"


def emit_results(kind: str, curves: tuple[Curve, ...], out_dir: str | Path,
                 config_text: str, seed: int,
                 wall_clock: float) -> list[Path]:
    """Write one CSV per curve, named after the command ``kind``, plus a
    JSON manifest; CSV bytes depend only on the curves."""
    import json
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []
        for curve in curves:
            path = out / f"{kind}_{curve.label}.csv"
            rows = ["param,iteration,mean,std"]
            for x, mean, std in zip(curve.x, curve.mean, curve.std):
                rows.append(f"{curve.label},{x!r},{mean!r},{std!r}")
            path.write_text("\n".join(rows) + "\n")
            written.append(path)
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "kind": kind,
            "config": config_text,
            "seed": seed,
            "git_describe": _git_describe(),
            "wall_clock_seconds": wall_clock,
            "files": [p.name for p in written],
        }
        manifest_path = out / "manifest.json"
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
        written.append(manifest_path)
        return written
    except OSError as exc:
        raise OSError(f"cannot write results under {out}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfrc",
        description="Joint radar precoder and IRS phase design experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, needs_out: bool) -> None:
        p.add_argument("--config", required=True,
                       help="config file path or preset name (e.g. table1)")
        p.add_argument("--set", dest="overrides", action="append",
                       default=[], metavar="KEY=VALUE",
                       help="override a config key")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")

    add_common(sub.add_parser("converge",
                              help="objective-vs-iteration curves"), True)
    add_common(sub.add_parser("sweep",
                              help="converged SNR vs power/M/N grid"), True)
    add_common(sub.add_parser("print-config",
                              help="print the resolved config"), False)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, args.overrides)
        if args.command == "print-config":
            sys.stdout.write(format_config(cfg))
            return 0

        from . import driver
        start = time.perf_counter()
        if args.command == "converge":
            curves = driver.run_convergence_experiment(cfg)
        else:  # sweep
            curves = driver.run_power_sweep(cfg)
        wall = time.perf_counter() - start
        files = emit_results(args.command, curves, args.out,
                             format_config(cfg), cfg.seed, wall)
        for path in files:
            print(path)
        runs = [t for curve in curves for t in curve.traces]
        capped = sum(t.flag == driver.HIT_CAP for t in runs)
        if capped:
            print(f"warning: {capped} of {len(runs)} runs stopped at "
                  f"j_max={cfg.j_max} without converging", file=sys.stderr)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - stable exit-code contract
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


def run() -> NoReturn:
    """Process entry of the ``dfrc`` command: run ``main`` and exit with
    its code.

    Everything alive when ``main`` returns dies with the process, so it
    is moved into the collector's permanent generation first: interpreter
    shutdown then neither walks nor frees numpy's import graph, while
    stream flushing and ``atexit`` still run.  ``main`` itself leaves the
    collector alone, for callers that stay in the process.
    """
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    run()
