"""In-process tracing of the dfrc layers, from outside the package.

The tracer replaces module-level functions with wrappers at the names their
callers look them up under (``driver.solve_covariance``,
``precoder.project_feasible``, ``numpy.linalg.eigh``, ...).  Spans and
counters stay in memory; ``layer_metrics`` reduces them to the per-layer
figures and ``write_spans`` dumps the raw spans once the run is over.

A module (given as None) or function that no longer exists is simply not
wrapped, and the metrics that depend on it are left out of the result instead
of failing the run.
"""
from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute) -> span name.  Each entry is the lookup a caller makes.
SPANS = (
    ("driver", "alternate", "driver.alternate"),
    ("driver", "synthesize_channels", "channel.synthesize_channels"),
    ("driver", "composite_radar_channel", "channel.composite"),
    ("driver", "composite_comm_channel", "channel.composite"),
    ("driver", "build_C", "objective.build_C"),
    ("driver", "radar_snr", "objective.snr"),
    ("driver", "comm_snr", "objective.snr"),
    ("driver", "build_bundle", "objective.build_bundle"),
    ("driver", "solve_covariance", "precoder.solve_covariance"),
    ("precoder", "project_feasible", "precoder.project_feasible"),
    ("precoder", "matrix_sqrt", "precoder.matrix_sqrt"),
    ("driver", "euclidean_gradient", "manifold.euclidean_gradient"),
    ("manifold", "euclidean_gradient", "manifold.euclidean_gradient"),
    ("driver", "ascent_step", "manifold.ascent_step"),
    ("cli", "parse_config", "config.parse_config"),
    ("cli", "emit_results", "cli.emit_results"),
)

# Calls counted without a span: one Dykstra cycle evaluates the feasibility
# residuals once; eigh/eigvalsh are the eigendecompositions.
COUNTERS = (
    ("precoder", "_feasibility_residuals", "dykstra_cycles"),
    ("numpy.linalg", "eigh", "eig"),
    ("numpy.linalg", "eigvalsh", "eig"),
)

# Spans inside driver.alternate reported per call and as a share of it.
LOOP_LAYERS = (
    "channel.synthesize_channels", "channel.composite", "objective.build_C",
    "objective.snr", "objective.build_bundle", "precoder.solve_covariance",
    "precoder.project_feasible", "precoder.matrix_sqrt",
    "manifold.euclidean_gradient", "manifold.ascent_step",
)


class Tracer:
    """Spans (name, start, end, parent) and named call counters.

    Spans are kept in flat arrays, so recording one allocates no object the
    garbage collector has to scan.
    """

    def __init__(self, modules: dict) -> None:
        self.modules = modules
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts: Counter = Counter()
        self.runs: list[dict] = []           # one per driver.alternate call
        self.first_c: dict[int, object] = {}  # alternate span -> first C
        self.emitted_bytes = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        hooks = {"driver.alternate": self._on_alternate,
                 "objective.build_C": self._on_build_c,
                 "cli.emit_results": self._on_emit}
        for mod, attr, name in SPANS:
            self._span(self.modules[mod], attr, name, hooks.get(name))
        for mod, attr, name in COUNTERS:
            self._counter(self.modules[mod], attr, name)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _span(self, module, attr, name, on_return) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            return
        names, starts, ends, parents = (self.names, self.starts, self.ends,
                                        self.parents)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            parent = stack[-1] if stack else -1
            names.append(name)
            parents.append(parent)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result, idx, parent)
            return result

        self._patched.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def _counter(self, module, attr, name) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            return
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._patched.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def _on_alternate(self, args, trace, idx, parent) -> None:
        records = getattr(trace, "records", None)
        if not records:
            return
        objectives = [r.objective for r in records]
        self.runs.append({
            "span": idx, "cfg": args[0] if args else None,
            "outer_iters": len(records),
            "converged": getattr(trace, "flag", None) == "converged",
            "steps": len(objectives) - 1,
            "decreases": sum(b < a for a, b in zip(objectives,
                                                   objectives[1:])),
        })

    def _on_build_c(self, args, c, idx, parent) -> None:
        self.first_c.setdefault(parent, c)

    def _on_emit(self, args, paths, idx, parent) -> None:
        self.emitted_bytes += sum(Path(p).stat().st_size for p in paths)


def _span_totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Calls, total time and self time (total minus direct children)."""
    durations = [end - start for start, end in zip(tracer.starts,
                                                    tracer.ends)]
    child = [0.0] * len(durations)
    for parent, duration in zip(tracer.parents, durations):
        if parent >= 0:
            child[parent] += duration
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for name, duration, covered in zip(tracer.names, durations, child):
        entry = totals[name]
        entry["calls"] += 1
        entry["total"] += duration
        entry["self"] += duration - covered
    return totals


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer timings (us/ms/s per call, shares) and work counts."""
    totals = _span_totals(tracer)
    out: dict[str, float] = {}
    alt = totals.get("driver.alternate")
    outer = sum(r["outer_iters"] for r in tracer.runs)
    if alt and alt["total"] > 0:
        out["driver.alternate.s_per_call"] = alt["total"] / alt["calls"]
        out["driver.self_share"] = alt["self"] / alt["total"]
        for name in LOOP_LAYERS:
            if name in totals:
                entry = totals[name]
                out[f"{name}.us_per_call"] = \
                    1e6 * entry["total"] / entry["calls"]
                out[f"{name}.share"] = entry["total"] / alt["total"]
        if outer:
            out["driver.outer_iter_ms"] = 1e3 * alt["total"] / outer
    if tracer.runs:
        steps = sum(r["steps"] for r in tracer.runs)
        out["driver.outer_iters"] = outer / len(tracer.runs)
        out["driver.converged_frac"] = \
            sum(r["converged"] for r in tracer.runs) / len(tracer.runs)
        if steps:
            out["driver.decrease_frac"] = \
                sum(r["decreases"] for r in tracer.runs) / steps
    for name in ("config.parse_config", "cli.emit_results"):
        if name in totals:
            out[f"{name}.ms"] = \
                1e3 * totals[name]["total"] / totals[name]["calls"]
    if "cli.emit_results" in totals:
        out["cli.emit_results.bytes"] = \
            tracer.emitted_bytes / totals["cli.emit_results"]["calls"]
    solves = totals.get("precoder.solve_covariance", {}).get("calls", 0)
    projections = totals.get("precoder.project_feasible", {}).get("calls", 0)
    if solves and projections:
        out["precoder.pg_iters_per_solve"] = projections / solves
    if projections and "dykstra_cycles" in tracer.counts:
        out["precoder.dykstra_cycles_per_projection"] = \
            tracer.counts["dykstra_cycles"] / projections
    if outer and "eig" in tracer.counts:
        out["precoder.eigh_per_outer"] = tracer.counts["eig"] / outer
    grads = totals.get("manifold.euclidean_gradient", {}).get("calls", 0)
    if outer and grads:
        out["manifold.gradient_evals_per_outer"] = grads / outer
    return out


def rank_deficient_probe(tracer: Tracer, limit: int = 8
                         ) -> dict[str, float]:
    """Solve each realization's first C against a pure-beam R_d.

    R_d = (P0/M) a a^H, with a the radar ULA steering vector toward the
    target, has rank one.  Returns ``precoder.solve_covariance.failed_frac``
    over the solves attempted (at most ``limit``).
    """
    precoder = tracer.modules["precoder"]
    solve = getattr(precoder, "solve_covariance", None)
    spec_type = getattr(precoder, "BeampatternSpec", None)
    steering = getattr(tracer.modules["channel"], "ula_steering", None)
    if solve is None or spec_type is None or steering is None:
        return {}
    attempted = failed = 0
    for run in tracer.runs[:limit]:
        cfg, c = run["cfg"], tracer.first_c.get(run["span"])
        if cfg is None or c is None:
            continue
        m = cfg.geometry.num_radar_antennas
        a = steering(m, cfg.geometry.radar_spacing,
                     cfg.geometry.target_azimuth)
        r_d = (cfg.p0 / m) * (a[:, None] * a.conj()[None, :])
        spec = spec_type(r_d=r_d, gamma_bp=cfg.beampattern.gamma_bp)
        attempted += 1
        try:
            solve(c, cfg.p0, spec)
        except Exception:  # noqa: BLE001 - any raise is a failed solve
            failed += 1
    if not attempted:
        return {}
    return {"precoder.solve_covariance.failed_frac": failed / attempted}


def write_spans(tracer: Tracer, path: Path) -> None:
    """One JSON line per span: name, start, end (s), parent index."""
    with path.open("w") as fh:
        for span in zip(tracer.names, tracer.starts, tracer.ends,
                        tracer.parents):
            fh.write(json.dumps(span) + "\n")
        fh.write(json.dumps({"counts": dict(tracer.counts)}) + "\n")
