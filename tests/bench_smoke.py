"""Check the last line of a benchmark smoke run: strict JSON, every check
passed, 160 metrics, and the work counts of the exact covariance solve.

Pipe the result line into it:

    python3 benchmarks/run.py --workload all --seed 0 --seconds 1 \\
        | tail -n 1 | python3 tests/bench_smoke.py

A failed check ends it with exit code 1.  The name does not match
``test_*.py``, so pytest does not collect it.
"""
import json
import sys


def reject(constant):
    raise ValueError(f"{constant} in the benchmark result")


result = json.loads(sys.stdin.read(), parse_constant=reject)
# 4 workloads x (4 end-to-end + 36 per-layer metrics)
count = len(result["metrics"])
assert result["correct"] is True, result
assert result["failed"] == 0, result
assert count == 160, f"{count} metrics, expected 160"
# on every workload the closed form of the covariance solve holds: one
# projection onto {PSD, tr = P0} per solve (pg_iters_per_solve), and two
# eigendecompositions per outer iteration (projection, certificate); W is
# formed from the eigenpairs of the projection
for workload in ("converge_table1", "sweep_table1", "irs_large",
                 "steered_rd"):
    metrics = result["metrics"]
    pg = metrics[f"{workload}/precoder.pg_iters_per_solve"]["value"]
    eigh = metrics[f"{workload}/precoder.eigh_per_outer"]["value"]
    assert pg <= 1.5, f"{workload}: {pg} projections per solve"
    assert eigh <= 3.5, f"{workload}: {eigh} eigh per outer"
    # the pure-beam (rank-one) R_d probe solves without raising
    failed = metrics[
        f"{workload}/precoder.solve_covariance.failed_frac"]["value"]
    assert failed == 0.0, f"{workload}: failed_frac {failed}"
    # every run converges and no outer iteration lowers the objective
    converged = metrics[f"{workload}/driver.converged_frac"]["value"]
    decrease = metrics[f"{workload}/driver.decrease_frac"]["value"]
    assert converged == 1.0, f"{workload}: converged {converged}"
    assert decrease == 0.0, f"{workload}: decrease {decrease}"
    # one gradient per outer iteration: the ascent step reuses the one
    # behind the gradient norm
    grads = metrics[
        f"{workload}/manifold.gradient_evals_per_outer"]["value"]
    assert grads == 1.0, f"{workload}: {grads} gradients per outer"
print(f"{count} metrics, all finite")
