"""End-to-end and per-layer benchmark of the dfrc alternating solver.

    python3 benchmarks/run.py --workload converge_table1 --seed 1 \
        --seconds 25 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/`` directory, never from an installed copy.

``--trace 0`` runs the workload's ``dfrc`` command line again and again, one
fresh process at a time (closed loop), for ``--seconds`` seconds, and reports
the end-to-end metrics.  ``--trace 1`` runs the same command in this process,
alternately untraced and traced, and reports the per-layer metrics and the
tracing overhead.  Every invocation's outputs are checked.  The last line of
standard output is one JSON object; a longer record, with the samples and
the provenance, goes to ``benchmarks/out/results/``.
"""
from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported here or in a child, and
# keep the optional realization thread pool off.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("DFRC_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# name -> (dfrc command, realizations per point, other --set overrides).
# Each runs the table1 preset; why each one exists, and why irs_large
# averages 20 short runs, is written up in benchmarks/README.md.
WORKLOADS = {
    "converge_table1": ("converge", 1, []),
    "sweep_table1": ("sweep", 1, []),
    "irs_large": ("converge", 20, ["m=4", "n_x=16", "n_y=16", "alphas=0.5",
                                   "j_max=25"]),
    "steered_rd": ("converge", 1, []),
}
SETUP_SAMPLES = 5
CHILD_DEADLINE_S = 150.0   # no single run may come near 180 s
CSV_HEADER = "param,iteration,mean,std"


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def steered_rd(path: Path, m: int = 8, p0: float = 1000.0,
               spacing: float = 0.5, azimuth: float = math.pi / 3) -> None:
    """R_d = (P0/2M) I + (P0/2M) a a^H for table1's M, P0, spacing and
    target azimuth: trace P0, full rank, smallest eigenvalue P0/2M."""
    import numpy as np
    a = np.exp(2j * np.pi * spacing * np.arange(m) * np.sin(azimuth))
    r_d = 0.5 * (p0 / m) * (np.eye(m) + np.outer(a, a.conj()))
    np.save(path, r_d)


def workload_args(name: str, seed: int, work: Path) -> tuple[str, list[str]]:
    """The dfrc command and its arguments, without ``--out``."""
    command, realizations, overrides = WORKLOADS[name]
    # Realization i uses channel seed seed*realizations + i, so different
    # benchmark seeds share no channel.
    sets = [*overrides, f"num_realizations={realizations}",
            f"seed={seed * realizations}"]
    if name == "steered_rd":
        r_d = work / "r_d_steered.npy"
        steered_rd(r_d)
        sets.append(f"r_d_path={r_d}")
    args = ["--config", "table1"]
    for item in sets:
        args += ["--set", item]
    return command, args


# ---------------------------------------------------------------- checks

def expected_csvs(command: str, config_text: str) -> dict[str, range]:
    """CSV file name -> allowed data-row counts, from the resolved config."""
    cfg = dict(line.split(" = ", 1)
               for line in config_text.splitlines() if " = " in line)

    def floats(key: str) -> list[float]:
        return [float(tok) for tok in cfg[key].split(",") if tok.strip()]

    if command == "converge":
        alphas = floats("alphas") or [float(cfg["alpha"])]
        rows = range(1, int(cfg["j_max"]) + 2)
        return {f"converge_alpha_{a:g}.csv": rows for a in alphas}
    points = len(floats("sweep_p0"))
    return {f"sweep_m_{int(m)}_n_{int(n)}.csv": range(points, points + 1)
            for m in floats("sweep_m") for n in floats("sweep_n")}


def check_outputs(out_dir: Path, expected: dict[str, range]
                  ) -> tuple[dict[str, bytes], list[float], list[str]]:
    """Read and check the CSVs: (bytes by name, final means, errors)."""
    errors: list[str] = []
    found = {p.name for p in out_dir.glob("*.csv")}
    for name in sorted(found - expected.keys()):
        errors.append(f"unexpected output {name}")
    blobs: dict[str, bytes] = {}
    finals: list[float] = []
    for name, rows in expected.items():
        path = out_dir / name
        if not path.is_file():
            errors.append(f"missing output {name}")
            continue
        blobs[name] = path.read_bytes()
        lines = blobs[name].decode().splitlines()
        if not lines or lines[0] != CSV_HEADER:
            errors.append(f"{name}: header is not {CSV_HEADER!r}")
            continue
        if len(lines) - 1 not in rows:
            errors.append(f"{name}: {len(lines) - 1} rows, expected "
                          f"{rows.start}..{rows.stop - 1}")
        means = []
        for line in lines[1:]:
            fields = line.split(",")
            try:
                means.append(float(fields[2]))
            except (IndexError, ValueError):
                errors.append(f"{name}: malformed row {line!r}")
                break
        if not all(math.isfinite(v) and v > 0 for v in means):
            errors.append(f"{name}: a mean is not finite and positive")
        elif means:
            finals.append(means[-1])
    return blobs, finals, errors


def check_run(code: int, output: str, out_dir: Path,
              expected: dict[str, range], reference: dict[str, bytes]
              ) -> tuple[list[float], list[str]]:
    """All checks on one invocation: (final means, errors).

    The first invocation that passes fills ``reference``; every later one
    must write the same CSV bytes.
    """
    errors = [] if code == 0 else [f"exit code {code}: {output[-500:]}"]
    blobs, finals, check_errors = check_outputs(out_dir, expected)
    errors += check_errors
    if not errors:
        if not reference:
            reference.update(blobs)
        elif blobs != reference:
            errors.append("CSVs differ from the first run's bytes")
    return finals, errors


def final_objective_db(finals: list[float]) -> float:
    return statistics.fmean(10.0 * math.log10(v) for v in finals)


# ------------------------------------------------------- untraced (trace 0)

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(args: list[str], log: Path, deadline: float
            ) -> tuple[int, float, float]:
    """Run ``python -m dfrc.cli`` once: (exit code, wall s, peak RSS MB).

    The peak RSS comes from this child's own rusage (``os.wait4``).
    """
    start = time.perf_counter()
    with log.open("wb") as fh:
        proc = subprocess.Popen([sys.executable, "-m", "dfrc.cli", *args],
                                stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                 proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def measure_untraced(workload: str, seed: int, seconds: float,
                     work: Path, deadline: float) -> dict:
    command, args = workload_args(workload, seed, work)
    log = work / "cli.log"
    errors: list[str] = []

    # Set-up: start, import dfrc and resolve the config, via print-config.
    # The first call also byte-compiles the sources and is not counted.
    setup = []
    for i in range(SETUP_SAMPLES + 1):
        code, wall, _ = run_cli(["print-config", *args], log, deadline)
        if code != 0:
            raise SystemExit(f"print-config failed with exit code {code}:\n"
                             + log.read_text())
        if i:
            setup.append(wall)
    expected = expected_csvs(command, log.read_text())

    walls, rss, failed = [], [], 0
    reference: dict[str, bytes] = {}
    finals: list[float] = []
    start = time.perf_counter()
    while len(walls) < 2 or (
            time.perf_counter() - start + statistics.median(walls) <= seconds
            and time.monotonic() + 2 * max(walls) < deadline):
        out_dir = work / f"run{len(walls)}"
        shutil.rmtree(out_dir, ignore_errors=True)
        code, wall, peak = run_cli([command, *args, "--out", str(out_dir)],
                                   log, deadline)
        walls.append(wall)
        rss.append(peak)
        run_finals, run_errors = check_run(code, log.read_text(), out_dir,
                                           expected, reference)
        shutil.rmtree(out_dir, ignore_errors=True)
        if run_errors:
            failed += 1
            errors += [f"invocation {len(walls)}: {e}" for e in run_errors]
        elif not finals:
            finals = run_finals
    metrics = {"wall_s": statistics.median(walls),
               "setup_s": statistics.median(setup),
               "peak_rss_mb": statistics.median(rss)}
    if finals:
        metrics["final_objective_db"] = final_objective_db(finals)
    return {"metrics": metrics, "attempted": len(walls), "failed": failed,
            "errors": errors,
            "samples": {"wall_s": walls, "setup_s": setup,
                        "peak_rss_mb": rss}}


# ------------------------------------------------------- traced (trace 1)

def import_dfrc() -> dict:
    """Import dfrc from the checkout; the modules the tracer patches.

    A module that no longer exists maps to None, and the tracer skips it.
    """
    sys.path.insert(0, str(SRC))
    modules = {"numpy.linalg": importlib.import_module("numpy.linalg")}
    for name in ("channel", "cli", "driver", "manifold", "precoder"):
        try:
            modules[name] = importlib.import_module(f"dfrc.{name}")
        except ModuleNotFoundError:
            modules[name] = None
    cli = modules["cli"]
    if cli is None or Path(cli.__file__).resolve().parent != SRC / "dfrc":
        raise SystemExit(f"dfrc.cli not importable from {SRC}")
    return modules


def run_in_process(cli, argv: list[str]) -> tuple[int, float, str]:
    """``dfrc.cli.main(argv)`` in this process: (exit code, wall s, output)."""
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    return code, time.perf_counter() - start, sink.getvalue()


def measure_traced(workload: str, seed: int, seconds: float,
                   work: Path, deadline: float) -> dict:
    import tracing

    modules = import_dfrc()
    cli = modules["cli"]
    command, args = workload_args(workload, seed, work)
    code, _, text = run_in_process(cli, ["print-config", *args])
    if code != 0:
        raise SystemExit(f"print-config failed with exit code {code}:\n"
                         + text)
    expected = expected_csvs(command, text)

    walls: dict[bool, list[float]] = {False: [], True: []}
    per_run: list[dict[str, float]] = []
    errors: list[str] = []
    reference: dict[str, bytes] = {}
    tracer = None

    def run_once(traced: bool, timed: bool) -> bool:
        nonlocal tracer
        kind = "traced" if traced else "untraced"
        out_dir = work / kind
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [command, *args, "--out", str(out_dir)]
        if traced:
            tracer = tracing.Tracer(modules)
            tracer.install()
            try:
                code, wall, text = run_in_process(cli, argv)
            finally:
                tracer.restore()
            per_run.append(tracing.layer_metrics(tracer))
        else:
            code, wall, text = run_in_process(cli, argv)
        if timed:
            walls[traced].append(wall)
        _, run_errors = check_run(code, text, out_dir, expected, reference)
        errors.extend(f"{kind} run: {e}" for e in run_errors)
        return bool(run_errors)

    # One untimed untraced run first: the first call in a process pays for
    # lazy initialisation.  Then untraced/traced pairs, alternating which
    # goes first so that drift cancels.
    failed = run_once(False, timed=False)
    pairs = 0
    start = time.perf_counter()
    while not pairs or (
            time.perf_counter() - start + 2 * max(walls[True]) <= seconds
            and time.monotonic() + 4 * max(walls[True]) < deadline):
        for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            failed += run_once(traced, timed=True)
        pairs += 1

    metrics = {name: statistics.median(run[name] for run in per_run
                                       if name in run)
               for name in per_run[-1]}
    metrics.update(tracing.rank_deficient_probe(tracer))
    untraced = statistics.median(walls[False])
    overhead = statistics.median(walls[True]) - untraced
    metrics["bench.trace_overhead_s"] = overhead
    metrics["bench.trace_overhead_frac"] = overhead / untraced
    tracing.write_spans(tracer, OUT / "results"
                        / f"{workload}-seed{seed}.spans.jsonl")
    return {"metrics": metrics, "attempted": 1 + 2 * pairs,
            "failed": failed, "errors": errors,
            "samples": {"untraced_wall_s": walls[False],
                        "traced_wall_s": walls[True]}}


# ---------------------------------------------------------------- report

def provenance() -> dict:
    import numpy
    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    try:
        git = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        describe = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        describe = "unknown"
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "git_describe": describe,
            "blas_threads": {v: os.environ[v] for v in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS")},
            "DFRC_THREADS": os.environ.get("DFRC_THREADS", "unset")}


def summarize(samples: list[float]) -> str:
    """Median and the highest percentile with ten samples beyond it (the
    maximum when there are fewer than twenty samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 20:
        pct = math.floor(100 * (1 - 10 / n))
        high = ordered[max(0, math.ceil(pct / 100 * n) - 1)]
        label = f"p{pct}"
    else:
        high, label = ordered[-1], "max"
    return (f"median {statistics.median(ordered):.6g}  "
            f"{label} {high:.6g}  n={n}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload at both trace levels, each in its own process; the
    last line merges their results, metric names prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)], capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(proc.stdout + proc.stderr, flush=True)
                merged["correct"] = False
                continue
            print("\n".join(lines[:-1]), flush=True)
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            merged["metrics"].update(
                {f"{workload}/{name}": value
                 for name, value in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="'all' runs every workload, untraced and traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if not (SRC / "dfrc" / "cli.py").is_file():
        print(f"no dfrc sources under {SRC}", file=sys.stderr)
        return 2
    if opts.workload == "all":
        return run_all(opts.seed, opts.seconds)

    deadline = time.monotonic() + CHILD_DEADLINE_S
    seed = opts.seed % 2**32
    work = OUT / "work" / f"{opts.workload}-seed{seed}-trace{opts.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    measure = measure_traced if opts.trace else measure_untraced
    try:
        result = measure(opts.workload, seed, opts.seconds, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = declared_metrics(opts.trace)
    print(f"workload {opts.workload}  seed {seed}  trace {opts.trace}  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          f"failed_frac {result['failed'] / result['attempted']:.6g}")
    for name, values in result["samples"].items():
        print(f"  {name:<24} {summarize(values)}")
    for name in units:
        if name in result["metrics"]:
            print(f"  {name:<46} {result['metrics'][name]:.6g} "
                  f"{units[name]}")
        else:
            print(f"  {name:<46} absent")
    for err in result["errors"]:
        print(f"  check failed: {err}")

    correct = not result["errors"]
    record = {"workload": opts.workload, "seed": seed, "trace": opts.trace,
              "seconds": opts.seconds, "correct": correct,
              "attempted": result["attempted"], "failed": result["failed"],
              "failed_frac": result["failed"] / result["attempted"],
              "metrics": result["metrics"], "samples": result["samples"],
              "errors": result["errors"], "provenance": provenance()}
    (OUT / "results" / f"{opts.workload}-seed{seed}-trace{opts.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name],
                           "unit": units[name]}
                    for name in units if name in result["metrics"]}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
