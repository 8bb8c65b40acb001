import gc
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from dfrc import channel, cli, driver, manifold, precoder, validation
from dfrc.config import (TABLE1_PRESET, ConfigError, RunConfig,
                         format_config, parse_config)
from dfrc.validation import CheckResult, format_table

ROOT = Path(__file__).resolve().parents[1]


class TestParseConfig:
    def test_table1_preset_values(self):
        cfg = parse_config("table1")
        assert cfg.epsilon == pytest.approx(1e-3)
        assert cfg.j_max == 500
        assert cfg.num_users == 5
        assert cfg.k_g == pytest.approx(1.0)         # 0 dB
        assert cfg.geometry.radar_spacing == 0.5
        assert cfg.geometry.irs_spacing == 0.5
        assert cfg.weights.sigma_r_sq == pytest.approx(1.0)
        assert cfg.weights.sigma_c_sq == pytest.approx(1.0)
        assert cfg.p0 == pytest.approx(1000.0)       # 30 dBm
        assert cfg.beampattern.gamma_bp == pytest.approx(10.0)  # 10 dB

    def test_override_precedence(self):
        cfg = parse_config("table1", ["alpha=0.25"])
        assert cfg.weights.alpha == 0.25

    def test_override_replaces_db_form(self):
        cfg = parse_config("table1", ["epsilon=0.01"])
        assert cfg.epsilon == pytest.approx(0.01)

    def test_range_validation(self):
        with pytest.raises(ConfigError,
                           match=r"^alpha = 1.5: must lie in \[0, 1\]"):
            parse_config("table1", ["alpha=1.5"])

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(format_config(parse_config("table1"))
                        + "alpa = 0.5\n")
        with pytest.raises(ConfigError, match="^line 32: unknown key 'alpa'"):
            parse_config(path)

    def test_missing_key(self, tmp_path):
        text = format_config(parse_config("table1"))
        text = "\n".join(line for line in text.splitlines()
                         if not line.startswith("alpha"))
        path = tmp_path / "partial.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError,
                           match="^missing required key 'alpha'$"):
            parse_config(path)

    def test_inconsistent_db_and_linear(self, tmp_path):
        text = format_config(parse_config("table1")) + "epsilon_db = -20\n"
        path = tmp_path / "conflict.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match="^line 32: epsilon_db = -20.0 "
                           r"\(linear 0.01\) contradicts epsilon = 0.001$"):
            parse_config(path)

    def test_consistent_db_and_linear_accepted(self, tmp_path):
        text = format_config(parse_config("table1")) + "epsilon_db = -30\n"
        text = text.replace("epsilon = 0.001", "epsilon = 0.001")
        path = tmp_path / "consistent.cfg"
        path.write_text(text)
        assert parse_config(path).epsilon == pytest.approx(1e-3)

    def test_comments_and_blank_lines(self, tmp_path):
        text = "# header\n\n" + format_config(parse_config("table1"))
        path = tmp_path / "c.cfg"
        path.write_text(text)
        parse_config(path)

    def test_round_trip(self, tmp_path):
        # one override of each kind: int, float, complex, str and lists
        cfg = parse_config("table1", [
            "alpha=0.3", "seed=17", "eta=0.5-0.25j", "alphas=0.2,0.8",
            "sweep_m=2,4", "theta_init=random"])
        path = tmp_path / "rt.cfg"
        path.write_text(format_config(cfg))
        assert parse_config(path) == cfg

    def test_keys_are_the_run_config_fields(self):
        printed = [line.split(" = ", 1)[0]
                   for line in format_config(parse_config("table1"))
                   .splitlines()]
        # r_d holds the matrix read from r_d_path; it is not a key
        names = [f.name for f in fields(RunConfig) if f.name != "r_d"]
        preset = [re.sub(r"_dbm?$", "", key) for key in TABLE1_PRESET]
        assert printed == names == preset
        assert len(names) == 31

    @pytest.mark.parametrize("item, key", [
        ("epsilon=inf", "epsilon"), ("sigma_r_sq=inf", "sigma_r_sq"),
        ("p0=nan", "p0"), ("gamma_bp=nan", "gamma_bp"),
        ("sigma_c_sq=nan", "sigma_c_sq"), ("eta=nan", "eta"),
        ("eta=1+infj", "eta"), ("g_scale=nan", "g_scale"),
        ("target_azimuth=nan", "target_azimuth"),
        ("radar_spacing=inf", "radar_spacing"),
        ("los_radar_angle=inf", "los_radar_angle"), ("k_g=nan", "k_g"),
        ("sweep_p0=1000,inf", "sweep_p0"), ("p0_dbm=4000", "p0"),
        ("k_g=inf", None), ("k_g_db=4000", None)])
    def test_non_finite_values(self, item, key, tmp_path, capsys):
        # only k_g may be +inf (pure line of sight), also past the float
        # range in dB; every other key must be finite, in linear or dB form
        code = run_cli("converge", "--config", "table1",
                       "--set", "num_realizations=1", "--set", "alphas=0.5",
                       "--set", "j_max=5", "--set", item,
                       "--out", str(tmp_path))
        if key is None:
            assert parse_config("table1", [item]).k_g == math.inf
            assert code == 0
            return
        with pytest.raises(ConfigError, match=f"^{key} = .*finite"):
            parse_config("table1", [item])
        assert code == 2
        assert f"config error: {key} = " in capsys.readouterr().err


def run_cli(*argv):
    return cli.main(list(argv))


def src_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports dfrc from this
    checkout."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


FAST = ["--set", "m=2", "--set", "n_x=2", "--set", "n_y=2",
        "--set", "num_users=2", "--set", "j_max=5",
        "--set", "num_realizations=2", "--set", "p0=10",
        "--set", "gamma_bp=2", "--set", "alphas=0.5",
        "--set", "sweep_p0=10", "--set", "sweep_m=2", "--set", "sweep_n=4"]


class TestCommands:
    def test_print_config_round_trips(self, tmp_path, capsys):
        assert run_cli("print-config", "--config", "table1") == 0
        out = capsys.readouterr().out
        path = tmp_path / "printed.cfg"
        path.write_text(out)
        assert parse_config(path) == parse_config("table1")
        assert format_config(parse_config(path)) == out

    def test_converge_outputs(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("converge", "--config", "table1", *FAST,
                       "--out", str(out)) == 0
        csvs = sorted(out.glob("*.csv"))
        assert len(csvs) == 1
        header = csvs[0].read_text().splitlines()[0]
        assert header == "param,iteration,mean,std"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema_version"] == 1
        assert manifest["seed"] == 0

    def test_one_csv_per_alpha(self, tmp_path):
        args = [a if a != "alphas=0.5" else "alphas=0.2,0.5,0.8"
                for a in FAST]
        out = tmp_path / "run"
        assert run_cli("converge", "--config", "table1", *args,
                       "--out", str(out)) == 0
        assert len(list(out.glob("*.csv"))) == 3

    def test_csv_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli("converge", "--config", "table1", *FAST,
                           "--out", str(out)) == 0
        for p1 in sorted(out1.glob("*.csv")):
            p2 = out2 / p1.name
            assert p1.read_bytes() == p2.read_bytes()

    def test_sweep_csv_determinism(self, tmp_path):
        args = [*FAST, "--set", "sweep_p0=10,40", "--set", "sweep_n=4,9"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli("sweep", "--config", "table1", *args,
                           "--out", str(out)) == 0
        csvs = sorted(p.name for p in out1.glob("*.csv"))
        assert csvs == sorted(p.name for p in out2.glob("*.csv"))
        assert len(csvs) == 2
        for name in csvs:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_manifest_names_the_package_checkout(self, tmp_path,
                                                 monkeypatch):
        package_dir = Path(cli.__file__).resolve().parent
        try:
            expected = subprocess.run(
                ["git", "describe", "--always", "--dirty"],
                capture_output=True, text=True, timeout=10, cwd=package_dir)
        except OSError:
            pytest.skip("git is not installed")
        if expected.returncode != 0:
            pytest.skip("the source tree is not a git checkout")
        monkeypatch.chdir(tmp_path)
        assert run_cli("converge", "--config", "table1", *FAST,
                       "--out", "run") == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json")
                              .read_text())
        assert manifest["git_describe"] == expected.stdout.strip()

    def test_stalled_git_records_unknown(self, tmp_path, monkeypatch):
        def stall(args, **kwargs):
            raise subprocess.TimeoutExpired(args, kwargs.get("timeout"))

        monkeypatch.setattr(subprocess, "run", stall)
        assert run_cli("converge", "--config", "table1", *FAST,
                       "--out", str(tmp_path)) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["git_describe"] == "unknown"

    def test_sweep_outputs(self, tmp_path):
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--config", "table1", *FAST,
                       "--out", str(out)) == 0
        assert len(list(out.glob("sweep_*.csv"))) == 1

    @pytest.mark.parametrize("command", ["converge", "sweep"])
    def test_warns_when_runs_hit_cap(self, command, tmp_path, capsys):
        out = tmp_path / "capped"
        assert run_cli(command, "--config", "table1", *FAST,
                       "--set", "j_max=1", "--out", str(out)) == 0
        err = capsys.readouterr().err
        assert "warning: 2 of 2 runs stopped at j_max=1 without converging" \
            in err
        assert (out / "manifest.json").is_file()
        assert run_cli(command, "--config", "table1", *FAST,
                       "--set", "j_max=50", "--out", str(tmp_path / "ok")) == 0
        assert "warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("item", ["delta=0.1", "backtracking=true",
                                      "inner_steps=1"])
    def test_removed_step_keys_are_unknown(self, item, tmp_path, capsys):
        assert run_cli("converge", "--config", "table1", *FAST,
                       "--set", item, "--out", str(tmp_path)) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path):
        assert run_cli("converge", "--config", "table1",
                       "--set", "alpha=2", "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("item", [
        "sweep_p0=1000,-5", "sweep_m=4,0", "sweep_n=16,0",
        "sweep_p0=", "sweep_m=", "sweep_n="])
    def test_sweep_list_entries_checked_before_any_run(self, item, tmp_path,
                                                       capsys, monkeypatch):
        runs = []
        monkeypatch.setattr(driver, "alternate",
                            lambda cfg: runs.append(cfg))
        assert run_cli("sweep", "--config", "table1", "--set", item,
                       "--out", str(tmp_path)) == 2
        key = item.split("=")[0]
        assert f"config error: {key} = " in capsys.readouterr().err
        assert runs == []

    @pytest.mark.parametrize("item, why", [
        ("foo=1", "unknown key 'foo'"),
        ("sweep_m=4.5", "cannot parse 'sweep_m' = '4.5'")])
    def test_override_errors_name_the_override(self, item, why, tmp_path,
                                               capsys):
        assert run_cli("print-config", "--config", "table1",
                       "--set", item) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: --set {item}: {why}")
        # the same mistake in a file names its line: the bad line replaces
        # the key's own line, or follows the last one
        key = item.split("=")[0]
        lines = format_config(parse_config("table1")).splitlines()
        lineno = next((i for i, line in enumerate(lines, start=1)
                       if line.startswith(f"{key} = ")), len(lines) + 1)
        lines[lineno - 1:lineno] = [item]
        assert lineno == {"foo": 32, "sweep_m": 30}[key]
        path = tmp_path / "bad.cfg"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=f"^line {lineno}: {why}"):
            parse_config(path)

    def test_key_set_twice_is_config_error(self, tmp_path, capsys):
        text = format_config(parse_config("table1"))
        assert "\np0 = 1000.0\n" in text
        path = tmp_path / "twice.cfg"
        path.write_text(text + "p0 = 10\n")
        assert run_cli("print-config", "--config", str(path)) == 2
        assert capsys.readouterr().err == (
            "config error: line 32: key 'p0' is set again (first on "
            "line 20)\n")

    @pytest.mark.parametrize("content", [None, "dir", b"m = \xff\n"],
                             ids=["missing", "directory", "not-utf8"])
    def test_missing_config_file_exit_code(self, content, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        if content == "dir":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        assert run_cli("print-config", "--config", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(path) in err

    @pytest.mark.parametrize("name", ["nope.npy", "archive.npz",
                                      "strings.npy"])
    def test_unreadable_r_d_file_is_config_error(self, name, tmp_path,
                                                  capsys):
        path = tmp_path / name
        if name.endswith(".npz"):
            np.savez(path, r_d=np.eye(8))
        elif name == "strings.npy":
            np.save(path, np.full((8, 8), "x"))
        assert run_cli("print-config", "--config", "table1",
                       "--set", f"r_d_path={path}") == 2
        assert capsys.readouterr().err.startswith(
            f"config error: r_d_path = {str(path)!r}: ")

    def test_r_d_trace_mismatch_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "r_d.npy"
        np.save(path, 2.0 * np.eye(2))  # trace 4, but FAST sets p0=10
        assert run_cli("converge", "--config", "table1", *FAST,
                       "--set", f"r_d_path={path}",
                       "--out", str(tmp_path / "run")) == 2
        assert "r_d_path" in capsys.readouterr().err

    @pytest.mark.parametrize("r_d, why", [
        ([[5.0, 1.0], [0.0, 5.0]], "not Hermitian"),
        ([[12.0, 0.0], [0.0, -2.0]], "not PSD")],
        ids=["non-hermitian", "indefinite"])
    def test_r_d_outside_psd_cone_is_config_error(self, r_d, why, tmp_path,
                                                  capsys):
        path = tmp_path / "r_d.npy"
        np.save(path, np.array(r_d))  # trace matches FAST's p0=10
        assert run_cli("converge", "--config", "table1", *FAST,
                       "--set", f"r_d_path={path}",
                       "--out", str(tmp_path / "run")) == 2
        err = capsys.readouterr().err
        assert "r_d_path" in err and why in err

    def test_sweep_rejects_r_d_path(self, tmp_path, capsys):
        path = tmp_path / "r_d.npy"
        np.save(path, 5.0 * np.eye(2))  # trace matches FAST's p0=10
        args = [*FAST, "--set", f"r_d_path={path}"]
        assert run_cli("converge", "--config", "table1", *args,
                       "--out", str(tmp_path / "run")) == 0
        capsys.readouterr()
        assert run_cli("sweep", "--config", "table1", *args,
                       "--out", str(tmp_path / "sweep")) == 2
        err = capsys.readouterr().err
        assert "r_d_path" in err and "sweep" in err


class TestStartUp:
    def test_config_commands_load_no_numerical_module(self):
        # import dfrc, print-config and a config error resolve text only;
        # numpy, the driver and the validation suite load when a command
        # computes
        heavy = ("numpy", "dfrc.driver", "dfrc.validation")
        steps = [
            "import dfrc",
            "from dfrc.cli import main\n"
            "assert main(['print-config', '--config', 'table1']) == 0",
            "from dfrc.cli import main\n"
            "assert main(['converge', '--config', 'table1', '--set',"
            " 'alpha=2', '--out', 'unused']) == 2"]
        env = src_env()
        for step in steps:
            script = (f"import sys\n{step}\n"
                      f"print([m for m in {heavy!r} if m in sys.modules])")
            out = subprocess.run([sys.executable, "-c", script],
                                 capture_output=True, text=True, env=env,
                                 timeout=60)
            assert out.returncode == 0, out.stderr
            assert out.stdout.splitlines()[-1] == "[]", step

    def test_r_d_file_loads_no_solver(self, tmp_path):
        # reading R_d needs numpy, but its checks live in the config layer
        path = tmp_path / "r_d.npy"
        np.save(path, 125.0 * np.eye(8))  # trace matches table1's p0=1000
        script = ("import sys\n"
                  "from dfrc.config import parse_config\n"
                  f"parse_config('table1', ['r_d_path={path}'])\n"
                  "print('dfrc.precoder' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, env=src_env(),
                             timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "False"


class TestProcessEntry:
    # `python -m dfrc.cli` and the installed `dfrc` script exit through
    # cli.run, which freezes the collector's heap after main returns
    def test_module_entry_matches_in_process_run(self, tmp_path):
        args = ["converge", "--config", "table1", *FAST]
        out = tmp_path / "process"
        proc = subprocess.run(
            [sys.executable, "-m", "dfrc.cli", *args, "--out", str(out)],
            capture_output=True, text=True, env=src_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            str(out / "converge_alpha_0.5.csv"), str(out / "manifest.json")]
        reference = tmp_path / "in_process"
        assert run_cli(*args, "--out", str(reference)) == 0
        csvs = sorted(p.name for p in reference.glob("*.csv"))
        assert csvs == sorted(p.name for p in out.glob("*.csv"))
        for name in csvs:
            assert (out / name).read_bytes() == (reference / name).read_bytes()

    def test_main_leaves_the_collector_alone(self, tmp_path):
        before = (gc.get_freeze_count(), gc.isenabled())
        assert run_cli("converge", "--config", "table1", *FAST,
                       "--out", str(tmp_path)) == 0
        assert run_cli("print-config", "--config", "table1") == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    def test_run_exits_with_main_code_after_atexit(self):
        script = (
            "import atexit, gc, sys\n"
            "from dfrc import cli\n"
            "atexit.register(lambda: print('frozen',"
            " gc.get_freeze_count() > 0))\n"
            "sys.argv = ['dfrc', 'converge', '--config', 'table1',"
            " '--set', 'alpha=2', '--out', 'unused']\n"
            "cli.run()\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=src_env(),
                              timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: ")
        assert proc.stdout == "frozen True\n"
        pyproject = (ROOT / "pyproject.toml").read_text()
        assert 'dfrc = "dfrc.cli:run"' in pyproject.splitlines()


class TestValidateCommands:
    # the CLI looks the suites up in dfrc.validation when the command runs
    def test_validate_gradient_passes(self, capsys, monkeypatch):
        checks = validation.gradient_checks
        monkeypatch.setattr(validation, "gradient_checks",
                            lambda: checks(num_instances=10))
        assert run_cli("validate-gradient") == 0
        assert "PASS" in capsys.readouterr().out

    def test_validate_gradient_catches_conjugate_bug(self, capsys,
                                                     monkeypatch):
        from dfrc.manifold import euclidean_gradient

        def corrupted(theta, bundle):
            return euclidean_gradient(theta, bundle).conj()

        checks = validation.gradient_checks
        monkeypatch.setattr(
            validation, "gradient_checks",
            lambda: checks(num_instances=5, gradient_fn=corrupted))
        assert run_cli("validate-gradient") == 1
        captured = capsys.readouterr()
        assert "gradient_vs_finite_difference" in captured.err

    def test_validate_solver_passes(self, capsys, monkeypatch):
        checks = validation.solver_checks
        monkeypatch.setattr(validation, "solver_checks",
                            lambda: checks(num_samples=5000))
        assert run_cli("validate-solver") == 0
        out = capsys.readouterr().out
        assert "sampled_oracle_gap" in out


class TestBenchmarkContract:
    def test_traced_run_reports_every_per_layer_metric(self, tmp_path):
        # benchmarks/tracing.py wraps functions by the names their callers
        # use and silently drops a metric whose name went away
        spec = importlib.util.spec_from_file_location(
            "bench_tracing", ROOT / "benchmarks" / "tracing.py")
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer({
            "numpy.linalg": np.linalg, "channel": channel, "cli": cli,
            "driver": driver, "manifold": manifold, "precoder": precoder})
        tracer.install()
        try:
            code = cli.main(["converge", "--config", "table1", *FAST,
                             "--out", str(tmp_path)])
        finally:
            tracer.restore()
        assert code == 0
        metrics = (tracing.layer_metrics(tracer)
                   | tracing.rank_deficient_probe(tracer))
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        # benchmarks/run.py computes the bench.* metrics itself
        names = {m["name"] for m in declared["per_layer"]
                 if not m["name"].startswith("bench.")}
        assert len(names) == 34
        assert names - metrics.keys() == set()
        assert all(math.isfinite(metrics[name]) for name in names)


class TestEmitResults:
    def test_empty_result_manifest_only(self, tmp_path):
        from dfrc.driver import ExperimentResult
        files = cli.emit_results(ExperimentResult(kind="converge",
                                                  curves=()),
                                 tmp_path, "cfg", 0, 1.0)
        assert [p.name for p in files] == ["manifest.json"]

    def test_table_formatting(self):
        rows = [CheckResult("demo", 1e-5, 2e-6, True)]
        table = format_table(rows)
        assert "demo" in table and "PASS" in table
