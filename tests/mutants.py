"""Known mutants, each killed by the test it names.

Each entry replaces one piece of text in a temporary copy of ``src/`` and
``tests/``.  The named test must pass on the copy and fail on the mutant.
Run from anywhere, with pytest installed:

    python tests/mutants.py

The name does not match ``test_*.py``, so pytest does not collect it.

One mutant is equivalent and has no entry: ``> 0`` to ``>= 0`` in
``precoder.project_feasible``'s simplex count.  A term that is exactly 0
at index k+1 means the (k+1)-th eigenvalue equals the threshold
tau_k = mean_k - power/k, so tau_(k+1) = tau_k and both counts give the
same projection; d = (2, 0) with power 2 gives lambda = (2, 0) either way.
"""
from __future__ import annotations

import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
FINGERPRINT = "tests/test_fingerprints.py::test_matches_stored"

# (file, original text, mutant text, the test that must fail)
MUTANTS = [
    ("src/dfrc/channel.py", "idx * np.sin(angle))",
     "idx * np.cos(angle))",
     "tests/test_channel.py::TestUlaSteering"
     "::test_phase_at_thirty_degrees"),
    ("src/dfrc/driver.py", "grid[i, len(obj):] = obj[-1]",
     "grid[i, len(obj):] = obj[0]",
     "tests/test_driver.py::TestConvergenceExperiment"
     "::test_shorter_run_holds_its_last_objective"),
    ("src/dfrc/driver.py", "np.linalg.norm(rgrad)",
     "np.linalg.norm(egrad)",
     "tests/test_driver.py::TestAlternate"
     "::test_grad_norm_is_the_tangent_norm"),
    ("src/dfrc/precoder.py", "_TIE_RTOL = 1e-6", "_TIE_RTOL = 1e-2",
     "tests/test_precoder.py::TestSolveCovariance"
     "::test_near_tied_top_eigenvalues_stay_apart"),
    ("src/dfrc/precoder.py", "_TIE_RTOL = 1e-6", "_TIE_RTOL = 0.0",
     "tests/test_precoder.py::TestSolveCovariance"
     "::test_top_eigenvalues_tied_to_round_off"),
    ("src/dfrc/channel.py",
     "    f = rayleigh_channel(cfg.num_users, cfg.m, rng)\n"
     "    h = cfg.h_scale * rayleigh_channel(cfg.num_users,\n"
     "                                       geometry.num_irs_elements, rng)\n",
     "    h = cfg.h_scale * rayleigh_channel(cfg.num_users,\n"
     "                                       geometry.num_irs_elements, rng)\n"
     "    f = rayleigh_channel(cfg.num_users, cfg.m, rng)\n",
     "tests/test_channel.py::TestSynthesis"
     "::test_draw_order_is_g_then_f_then_h"),
    ("src/dfrc/driver.py", "rng.uniform(0.0, 2 * np.pi, n)",
     "rng.uniform(0.0, np.pi, n)",
     "tests/test_driver.py::TestAlternate"
     "::test_random_initial_phases_follow_the_seed"),
    ("src/dfrc/driver.py", "finals.std()", "finals.std(ddof=1)",
     "tests/test_driver.py::TestPowerSweep"
     "::test_std_is_the_population_std_of_the_finals"),
    ("src/dfrc/objective.py", "np.outer(u.conj(), u)",
     "np.outer(u, u.conj())",
     "tests/test_objective.py::TestBuildC"
     "::test_radar_gram_matches_dense_channel"),
    ("src/dfrc/objective.py", "squared_norm(w.T @ u)",
     "squared_norm(w @ u)",
     "tests/test_objective.py::TestSnrs"
     "::test_matches_elementwise_sum"),
    # table1 sets eta = 1, where eta^2 = eta; a random instance tells the
    # two apart
    ("src/dfrc/objective.py", "(1.0 - cfg.alpha) * cfg.eta ** 2",
     "(1.0 - cfg.alpha) * cfg.eta",
     "tests/test_objective.py::TestFactoredForm"
     "::test_matches_dense_reference"),
    # the numbers a run reports, held by the golden fingerprints
    ("src/dfrc/driver.py", "kappa = 1.0", "kappa = 8.0",
     f"{FINGERPRINT}[table1_seed0]"),
    ("src/dfrc/manifold.py", "_KAPPA_FLOOR = 2.0 ** -30",
     "_KAPPA_FLOOR = 2.0 ** -4", f"{FINGERPRINT}[table1_seed0]"),
    ("src/dfrc/driver.py", "return best, n // best",
     "return n // best, best", f"{FINGERPRINT}[sweep_n32]"),
    ("src/dfrc/channel.py", "np.outer(a_irs, a_radar)",
     "np.outer(a_irs, a_radar.conj())", f"{FINGERPRINT}[los_seed0]"),
    ("src/dfrc/channel.py",
     "upa_steering(geometry, irs_arrival_azimuth, irs_arrival_elevation)",
     "upa_steering(geometry, irs_arrival_elevation, irs_arrival_azimuth)",
     f"{FINGERPRINT}[los_seed0]"),
    # each tolerance a desired covariance read from a file must meet
    ("src/dfrc/config.py", "_TRACE_RTOL = 1e-6", "_TRACE_RTOL = 1e-1",
     "tests/test_cli.py::TestParseConfig"
     "::test_r_d_trace_tolerance[off_1e-5]"),
    ("src/dfrc/config.py", "_CERTIFY_RTOL = 1e-9", "_CERTIFY_RTOL = 1e-3",
     "tests/test_cli.py::TestParseConfig"
     "::test_r_d_hermitian_tolerance[off_1e-6]"),
    # the .npy reader's layout, against np.load, and its PSD test: a
    # Fortran-order complex R_d read as C is its conjugate, and without
    # the shift a rank-one R_d has a zero pivot
    ("src/dfrc/config.py", 'values[i::m] if header["fortran_order"]',
     "values[i::m] if False",
     "tests/test_cli.py::TestRDFile::test_reads_every_layout_as_numpy_does"),
    ("src/dfrc/config.py", 'order = ">" if descr[0] == ">" else "<"',
     'order = "<"',
     "tests/test_cli.py::TestRDFile::test_reads_every_layout_as_numpy_does"),
    ("src/dfrc/config.py", "row[i].real + tol - sum(",
     "row[i].real - sum(",
     "tests/test_cli.py::TestRDFile::test_psd_decision_matches_eigvalsh"
     "[beam]"),
    # u formed on the conjugate steering vector misses the pure-LOS optimum
    ("src/dfrc/driver.py", "theta * a_irs", "theta * a_irs.conj()",
     "tests/test_global_optimum.py"
     "::test_pure_los_radar_only_run_reaches_rank_one_optimum[table1-0]"),
    # the iteration cap is the loop's one stop besides convergence
    ("src/dfrc/driver.py", "range(cfg.j_max + 1)", "range(cfg.j_max + 2)",
     "tests/test_driver.py::TestAlternate::test_hit_cap_is_valid_result"),
    # a candidate that ties the objective is kept
    ("src/dfrc/manifold.py", "if eval_f1(candidate, bundle) >= f_old:",
     "if eval_f1(candidate, bundle) > f_old:",
     "tests/test_manifold.py::TestAscentStep"
     "::test_candidate_that_ties_the_objective_is_kept"),
]


def passes(tree: pathlib.Path, test: str) -> bool:
    # -B: a restored file can have the mutant's size and mtime second, so a
    # cached .pyc of the mutant would be taken for it
    return subprocess.run(
        [sys.executable, "-B", "-m", "pytest", "-q", "-p",
         "no:cacheprovider", test], cwd=tree,
        stdout=subprocess.DEVNULL).returncode == 0


def main() -> None:
    with tempfile.TemporaryDirectory() as name:
        tree = pathlib.Path(name)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        for path, old, new, test in MUTANTS:
            target = tree / path
            text = target.read_text()
            if text.count(old) != 1:
                sys.exit(f"{path}: {old!r} not unique")
            if not passes(tree, test):
                sys.exit(f"{test} fails unmutated")
            target.write_text(text.replace(old, new))
            if passes(tree, test):
                sys.exit(f"{path}: {new!r} survives")
            target.write_text(text)
            print(f"killed: {path}: {new!r} by {test}")
    print(f"{len(MUTANTS)} mutants killed")


if __name__ == "__main__":
    main()
