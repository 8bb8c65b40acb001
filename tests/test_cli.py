import json

import numpy as np
import pytest

from dfrc import cli
from dfrc.config import (BadValueError, MissingKeyError, UnknownKeyError,
                         format_config, parse_config)
from dfrc.validation import CheckResult, format_table


class TestParseConfig:
    def test_table1_preset_values(self):
        cfg = parse_config("table1")
        assert cfg.epsilon == pytest.approx(1e-3)
        assert cfg.j_max == 500
        assert cfg.delta == 0.1
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
        with pytest.raises(BadValueError, match="alpha"):
            parse_config("table1", ["alpha=1.5"])

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(format_config(parse_config("table1"))
                        + "alpa = 0.5\n")
        with pytest.raises(UnknownKeyError, match="alpa"):
            parse_config(path)

    def test_missing_key(self, tmp_path):
        text = format_config(parse_config("table1"))
        text = "\n".join(line for line in text.splitlines()
                         if not line.startswith("alpha"))
        path = tmp_path / "partial.cfg"
        path.write_text(text)
        with pytest.raises(MissingKeyError, match="alpha"):
            parse_config(path)

    def test_inconsistent_db_and_linear(self, tmp_path):
        text = format_config(parse_config("table1")) + "epsilon_db = -20\n"
        path = tmp_path / "conflict.cfg"
        path.write_text(text)
        with pytest.raises(BadValueError, match="epsilon"):
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
        cfg = parse_config("table1", ["alpha=0.3", "seed=17"])
        path = tmp_path / "rt.cfg"
        path.write_text(format_config(cfg))
        again = parse_config(path)
        assert again.weights == cfg.weights
        assert again.geometry == cfg.geometry
        assert again.epsilon == cfg.epsilon
        assert again.seed == cfg.seed
        assert again.alphas == cfg.alphas
        np.testing.assert_array_equal(again.beampattern.r_d,
                                      cfg.beampattern.r_d)


def run_cli(*argv):
    return cli.main(list(argv))


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
        assert parse_config(path).raw == parse_config("table1").raw \
            or format_config(parse_config(path)) == out

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

    def test_sweep_outputs(self, tmp_path):
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--config", "table1", *FAST,
                       "--out", str(out)) == 0
        assert len(list(out.glob("sweep_*.csv"))) == 1

    def test_config_error_exit_code(self, tmp_path):
        assert run_cli("converge", "--config", "table1",
                       "--set", "alpha=2", "--out", str(tmp_path)) == 2

    def test_missing_config_file_exit_code(self, tmp_path):
        assert run_cli("print-config",
                       "--config", str(tmp_path / "nope.cfg")) == 2

    @pytest.mark.parametrize("name", ["nope.npy", "archive.npz"])
    def test_unreadable_r_d_file_is_config_error(self, name, tmp_path,
                                                  capsys):
        path = tmp_path / name
        if name.endswith(".npz"):
            np.savez(path, r_d=np.eye(8))
        assert run_cli("print-config", "--config", "table1",
                       "--set", f"r_d_path={path}") == 2
        assert "r_d_path" in capsys.readouterr().err

    def test_r_d_trace_mismatch_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "r_d.npy"
        np.save(path, 2.0 * np.eye(2))  # trace 4, but FAST sets p0=10
        assert run_cli("converge", "--config", "table1", *FAST,
                       "--set", f"r_d_path={path}",
                       "--out", str(tmp_path / "run")) == 2
        assert "r_d_path" in capsys.readouterr().err

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


class TestValidateCommands:
    def test_validate_gradient_passes(self, capsys, monkeypatch):
        from dfrc import validation
        monkeypatch.setattr(
            cli, "gradient_checks",
            lambda: validation.gradient_checks(num_instances=10))
        assert run_cli("validate-gradient") == 0
        assert "PASS" in capsys.readouterr().out

    def test_validate_gradient_catches_conjugate_bug(self, capsys,
                                                     monkeypatch):
        from dfrc import validation
        from dfrc.manifold import euclidean_gradient

        def corrupted(theta, bundle):
            return euclidean_gradient(theta, bundle).conj()

        monkeypatch.setattr(
            cli, "gradient_checks",
            lambda: validation.gradient_checks(num_instances=5,
                                               gradient_fn=corrupted))
        assert run_cli("validate-gradient") == 1
        captured = capsys.readouterr()
        assert "gradient_vs_finite_difference" in captured.err

    def test_validate_solver_passes(self, capsys, monkeypatch):
        from dfrc import validation
        monkeypatch.setattr(cli, "solver_checks",
                            lambda: validation.solver_checks(
                                num_samples=5000))
        assert run_cli("validate-solver") == 0
        out = capsys.readouterr().out
        assert "sampled_oracle_gap" in out


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
