"""Golden fingerprints: the end-to-end numbers of a fixed set of runs.

Eighteen ``alternate`` runs (six variants of the ``table1`` preset, each
at seeds 0-2) and one sweep point at N = 32, whose grid is not square.
Each run is stored as its iteration count, flag, final objective and
final SNRs; the sweep point as its mean and std.
``tests/test_fingerprints.py`` recomputes each entry and compares it with
``fingerprints.json``: counts and flags exactly, floats to 1e-12 relative.

A change that moves these numbers on purpose regenerates the file with

    PYTHONPATH=src python tests/fingerprints.py

and lists each changed entry, and why, in CHANGES.md.
"""
from __future__ import annotations

import json
from functools import partial
from pathlib import Path

from dfrc.config import parse_config
from dfrc.driver import alternate, run_power_sweep

STORE = Path(__file__).with_name("fingerprints.json")

# variant -> overrides of table1.  "balanced" makes the radar and
# communication terms comparable; "los" turns the LOS angles away from 0,
# where both steering vectors are all-ones, and weights the LOS part of G.
RUNS = {
    "table1": [],
    "balanced_alpha0.5": ["eta=0.01", "alpha=0.5"],
    "balanced_alpha0.9": ["eta=0.01", "alpha=0.9"],
    "p0_10": ["p0=10"],
    "los": ["los_radar_angle=0.4", "los_irs_azimuth=0.3",
            "los_irs_elevation=0.7", "k_g=10"],
    "irs_8x4": ["n_x=8", "n_y=4"],
}
SEEDS = (0, 1, 2)


def run_fingerprint(overrides: list[str], seed: int) -> dict:
    trace = alternate(parse_config("table1", [*overrides, f"seed={seed}"]))
    last = trace.records[-1]
    return {"iterations": trace.iterations_to_converge, "flag": trace.flag,
            "objective": last.objective, "radar_snr": last.radar_snr,
            "comm_snr": last.comm_snr}


def sweep_fingerprint(overrides: list[str]) -> dict:
    (curve,) = run_power_sweep(parse_config("table1", overrides))
    return {"mean": list(curve.mean), "std": list(curve.std)}


ENTRIES = {f"{name}_seed{seed}": partial(run_fingerprint, overrides, seed)
           for name, overrides in RUNS.items() for seed in SEEDS}
ENTRIES["sweep_n32"] = partial(
    sweep_fingerprint, ["sweep_m=4", "sweep_n=32", "num_realizations=2"])


if __name__ == "__main__":
    STORE.write_text(json.dumps({name: entry()
                                 for name, entry in ENTRIES.items()},
                                indent=1) + "\n")
    print(f"wrote {len(ENTRIES)} fingerprints to {STORE}")
