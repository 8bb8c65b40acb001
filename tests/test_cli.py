import gc
import importlib.util
import itertools
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from dfrc import channel, cli, driver, manifold, precoder
from dfrc.config import (TABLE1_PRESET, ConfigError, RunConfig,
                         format_config, parse_config)

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
        assert cfg.eta == 1.0          # 0 dB radar noise, folded into eta
        assert cfg.sigma_c_sq == pytest.approx(1.0)
        assert cfg.p0 == pytest.approx(1000.0)       # 30 dBm
        assert cfg.beampattern.gamma_bp == pytest.approx(10.0)  # 10 dB

    def test_override_precedence(self):
        cfg = parse_config("table1", ["alpha=0.25"])
        assert cfg.alpha == 0.25

    def test_override_replaces_db_form(self):
        cfg = parse_config("table1", ["epsilon=0.01"])
        assert cfg.epsilon == pytest.approx(0.01)

    def test_range_validation(self):
        with pytest.raises(ConfigError,
                           match=r"^alpha = 1.5: must lie in \[0, 1\]"):
            parse_config("table1", ["alpha=1.5"])

    @pytest.mark.parametrize("item, why", [
        ("gamma_bp=-1", r"^gamma_bp = -1.0: must be >= 0$"),
        ("alphas=0.5,1.5",
         r"^alphas = \(0.5, 1.5\): entries must lie in \[0, 1\]$")],
        ids=["gamma_bp", "alphas"])
    def test_ball_radius_and_weights_in_range(self, item, why):
        with pytest.raises(ConfigError, match=why):
            parse_config("table1", [item])

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(format_config(parse_config("table1"))
                        + "alpa = 0.5\n")
        with pytest.raises(ConfigError, match="^line 29: unknown key 'alpa'"):
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
        # a quantity is set once per file, in either spelling
        text = format_config(parse_config("table1")) + "epsilon_db = -20\n"
        path = tmp_path / "conflict.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=r"^line 29: key 'epsilon' "
                           r"\(as 'epsilon_db'\) is set again \(first on "
                           r"line 20\)$"):
            parse_config(path)

    def test_agreeing_db_and_linear_is_config_error(self, tmp_path, capsys):
        text = format_config(parse_config("table1"))
        assert "\nepsilon = 0.001\n" in text
        path = tmp_path / "agree.cfg"
        path.write_text(text + "epsilon_db = -30\n")
        assert run_cli("print-config", "--config", str(path)) == 2
        assert "is set again (first on line 20)" in capsys.readouterr().err

    def test_db_override_replaces_linear_form(self, tmp_path):
        text = format_config(parse_config("table1"))
        assert "\np0 = 1000.0\n" in text
        path = tmp_path / "linear.cfg"
        path.write_text(text)
        assert parse_config(path, ["p0_dbm=20"]).p0 == pytest.approx(100.0)

    @pytest.mark.parametrize("key, bad, text", [
        pytest.param(*case, id=case[0]) for case in [
            ("theta_init", "randm", "randm"), ("epsilon", 0.0, "0.0"),
            ("j_max", 0, "0"), ("seed", -1, "-1"), ("sweep_m", (), "")]])
    def test_replace_is_checked(self, key, bad, text):
        # a RunConfig made by dataclasses.replace meets the same checks,
        # with the same message, as one parsed with --set key=text
        with pytest.raises(ConfigError) as parsed:
            parse_config("table1", [f"{key}={text}"])
        with pytest.raises(ConfigError) as replaced:
            replace(parse_config("table1"), **{key: bad})
        assert str(replaced.value) == str(parsed.value)
        assert str(parsed.value).startswith(f"{key} = ")

    def test_complex_eta_from_replace_is_rejected(self):
        # the text grammar reads eta as a float; a library caller's eta = 1j
        # would make eta^2, and so the radar SNR, negative
        with pytest.raises(ConfigError, match=r"^eta = 1j: must be real$"):
            replace(parse_config("table1"), eta=1j)

    def test_comments_and_blank_lines(self, tmp_path):
        text = "# header\n\n" + format_config(parse_config("table1"))
        path = tmp_path / "c.cfg"
        path.write_text(text)
        parse_config(path)

    def test_round_trip(self, tmp_path):
        # one override of each kind: int, float, str and lists
        cfg = parse_config("table1", [
            "alpha=0.3", "seed=17", "eta=-0.5", "alphas=0.2,0.8",
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
        assert len(names) == 28

    @pytest.mark.parametrize("item, key", [
        ("epsilon=inf", "epsilon"), ("eta=-inf", "eta"),
        ("p0=nan", "p0"), ("gamma_bp=nan", "gamma_bp"),
        ("sigma_c_sq=nan", "sigma_c_sq"), ("eta=nan", "eta"),
        ("sigma_c_sq_db=4000", "sigma_c_sq"), ("h_scale=nan", "h_scale"),
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

    @pytest.mark.parametrize("item, bound", [
        ("m=0", 1), ("n_x=0", 1), ("n_y=0", 1), ("num_users=0", 1),
        ("k_g=-0.1", 0)])
    def test_channel_sizes_and_rician_factor(self, item, bound):
        # channel synthesis draws its sizes and Rician factor unchecked
        key, text = item.split("=")
        with pytest.raises(ConfigError,
                           match=f"^{key} = {text}: must be >= {bound}$"):
            parse_config("table1", [item])

    @pytest.mark.parametrize("rel, loads", [(1e-5, False), (1e-7, True)],
                             ids=["off_1e-5", "off_1e-7"])
    def test_r_d_trace_tolerance(self, rel, loads, tmp_path):
        # table1 has m = 8 and p0 = 1000; the trace may be off by 1e-6
        # relative
        r_d = 125.0 * (1.0 + rel) * np.eye(8)
        assert_r_d_loads(tmp_path, r_d, loads, "has trace")

    def test_r_d_trace_message_shows_the_mismatch(self, tmp_path):
        # off by 1.6e-6 relative, which six significant digits would print
        # as "1000" twice
        path = tmp_path / "r_d.npy"
        np.save(path, 125.0002 * np.eye(8))
        with pytest.raises(ConfigError) as err:
            parse_config("table1", [f"r_d_path={path}"])
        trace, p0 = re.fullmatch(
            r"r_d_path matrix has trace (\S+), but p0 is (\S+)",
            str(err.value)).groups()
        assert trace != p0 and float(trace) != float(p0)

    @pytest.mark.parametrize("rel, loads", [(1e-6, False), (1e-11, True)],
                             ids=["off_1e-6", "off_1e-11"])
    def test_r_d_hermitian_tolerance(self, rel, loads, tmp_path):
        # a non-Hermitian part of rel * p0 in one off-diagonal entry, with
        # the trace unchanged, against the certificate's 1e-9 * p0
        r_d = 125.0 * np.eye(8, dtype=complex)
        r_d[0, 1] += rel * 1000.0
        assert_r_d_loads(tmp_path, r_d, loads, "not Hermitian")


def assert_r_d_loads(tmp_path, r_d, loads, why):
    """parse_config of table1 with r_d read from a file loads r_d as saved,
    or raises a ConfigError that says why."""
    path = tmp_path / "r_d.npy"
    np.save(path, r_d)
    if loads:
        cfg = parse_config("table1", [f"r_d_path={path}"])
        np.testing.assert_array_equal(cfg.r_d, r_d)
    else:
        with pytest.raises(ConfigError, match=why):
            parse_config("table1", [f"r_d_path={path}"])


class TestRDFile:
    # a .npy file is read without numpy; np.load is the reference
    def test_reads_every_layout_as_numpy_does(self, tmp_path):
        # each numeric dtype np.save writes, in C and Fortran order, both
        # byte orders and header versions 1.0-3.0; each matrix is Hermitian
        # and diagonally dominant, so PSD, and p0 is its trace
        rng = np.random.default_rng(8)
        m = 4
        for code, fortran, order, version in itertools.product(
                ["b1", "i1", "i2", "i4", "i8", "u1", "u2", "u4", "u8",
                 "f2", "f4", "f8", "c8", "c16"],
                [False, True], "<>", [(1, 0), (2, 0), (3, 0)]):
            x = rng.integers(0, 4, (m, m)) if code[0] in "biu" \
                else rng.standard_normal((m, m))
            if code[0] == "c":
                x = x + 1j * rng.standard_normal((m, m))
            r_d = x + x.conj().T
            r_d = r_d + (np.abs(r_d).sum() + 1.0) * np.eye(m)
            if code == "b1":
                r_d = np.eye(m)
            dtype = np.dtype(order + code)
            saved = r_d.astype(dtype, order="F" if fortran else "C")
            assert saved.flags.f_contiguous == fortran
            path = tmp_path / f"{code}_{fortran}_{order}_{version[0]}.npy"
            with open(path, "wb") as f:
                np.lib.format.write_array(f, saved, version=version)
            expected = np.load(path).astype(complex)
            p0 = float(np.trace(expected).real)
            cfg = parse_config("table1", [f"m={m}", f"p0={p0!r}",
                                          f"r_d_path={path}"])
            np.testing.assert_array_equal(cfg.r_d, expected,
                                          err_msg=path.name)

    @pytest.mark.parametrize("smallest", [2.0, 0.5, 0.0, -0.5, -2.0, None],
                             ids=["plus_2tol", "plus_half_tol", "zero",
                                  "minus_half_tol", "minus_2tol", "beam"])
    def test_psd_decision_matches_eigvalsh(self, smallest, tmp_path):
        # table1 has m = 8 and p0 = 1000, so the PSD tolerance is 1e-6;
        # R_d = Q diag(lam) Q^H has smallest eigenvalue smallest * 1e-6,
        # and the rank-one pure beam (p0/m) a a^H has seven zeros
        tol = 1e-9 * 1000.0
        rng = np.random.default_rng(11)
        for _ in range(10):
            if smallest is None:
                a = np.exp(1j * rng.uniform(0.0, 2 * np.pi, 8))
                r_d = 125.0 * np.outer(a, a.conj())
            else:
                q, _ = np.linalg.qr(rng.standard_normal((8, 8))
                                    + 1j * rng.standard_normal((8, 8)))
                lam = rng.uniform(0.0, 1.0, 8)
                lam[0] = 0.0
                lam *= 1000.0 / lam.sum()
                lam[0] = smallest * tol
                r_d = (q * lam) @ q.conj().T
            r_d = 0.5 * (r_d + r_d.conj().T)
            loads = bool(np.linalg.eigvalsh(r_d)[0] >= -tol)
            assert loads == (smallest is None or smallest > -1.0)
            assert_r_d_loads(tmp_path, r_d, loads, "not PSD")

    def test_every_cut_of_a_file_is_config_error(self, tmp_path):
        path = tmp_path / "r_d.npy"
        np.save(path, 125.0 * np.eye(8, dtype=complex))
        data = path.read_bytes()
        for size in range(len(data)):
            path.write_bytes(data[:size])
            with pytest.raises(ConfigError, match="^r_d_path = "):
                parse_config("table1", [f"r_d_path={path}"])

    @pytest.mark.parametrize("header", [
        "{'descr': '<f8', 'fortran_order': False, 'shape': (8, 8), "
        "'extra': 1}",
        "{'descr': '<f8', 'fortran_order': False, 'shape': (8.0, 8.0)}"],
        ids=["extra_key", "float_shape"])
    def test_malformed_header_is_config_error(self, header, tmp_path):
        # a header that parses, but not as np.save writes it; the same
        # bytes under the header np.save writes load
        path = tmp_path / "r_d.npy"

        def write(text: str) -> None:
            raw = text.encode("latin-1")
            raw += b" " * (-(len(raw) + 11) % 64) + b"\n"
            path.write_bytes(b"\x93NUMPY\x01\x00"
                             + len(raw).to_bytes(2, "little") + raw
                             + (125.0 * np.eye(8)).tobytes())

        write("{'descr': '<f8', 'fortran_order': False, 'shape': (8, 8)}")
        np.testing.assert_array_equal(np.load(path), 125.0 * np.eye(8))
        parse_config("table1", [f"r_d_path={path}"])
        write(header)
        with pytest.raises(ConfigError, match=r"^r_d_path = .*: malformed "
                           r"\.npy header \{"):
            parse_config("table1", [f"r_d_path={path}"])

    def test_r_d_cannot_be_written_in_place(self, tmp_path):
        path = tmp_path / "r_d.npy"
        np.save(path, 125.0 * np.eye(8))
        cfg = parse_config("table1", [f"r_d_path={path}"])
        with pytest.raises(TypeError):
            cfg.r_d[0][0] = 0.0
        # the solver's array is a copy
        cfg.beampattern.r_d[0, 0] = 0.0
        np.testing.assert_array_equal(cfg.beampattern.r_d,
                                      125.0 * np.eye(8))


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
                                      "inner_steps=1", "g_scale=1",
                                      "f_scale=1", "sigma_r_sq=1",
                                      "sigma_r_sq_db=0"])
    def test_removed_step_keys_are_unknown(self, item, tmp_path, capsys):
        # removed keys, of the ascent step, of the G and F scales and of
        # the radar noise (folded into eta), exit 2 as an override and as
        # a line of a config file
        assert run_cli("converge", "--config", "table1", *FAST,
                       "--set", item, "--out", str(tmp_path)) == 2
        assert "unknown key" in capsys.readouterr().err
        path = tmp_path / "removed.cfg"
        path.write_text(format_config(parse_config("table1"))
                        + item.replace("=", " = ") + "\n")
        assert run_cli("converge", "--config", str(path), *FAST,
                       "--out", str(tmp_path)) == 2
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

    def test_empty_alphas_rejected_before_any_run(self, tmp_path, capsys,
                                                  monkeypatch):
        # converge runs one curve per alphas entry and never falls back on
        # alpha, which is sweep's weight
        runs = []
        monkeypatch.setattr(driver, "alternate",
                            lambda cfg: runs.append(cfg))
        assert run_cli("converge", "--config", "table1", "--set", "alphas=",
                       "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == (
            "config error: alphas = (): must list at least one entry\n")
        assert runs == []

    @pytest.mark.parametrize("command, item", [
        ("converge", "alphas=0.5,0.50"), ("sweep", "sweep_p0=10,1e1"),
        ("sweep", "sweep_m=4,4"), ("sweep", "sweep_n=16,36,16")])
    def test_repeated_list_entries_rejected_before_any_run(
            self, command, item, tmp_path, capsys, monkeypatch):
        # a repeated entry would write its CSV twice
        runs = []
        monkeypatch.setattr(driver, "alternate",
                            lambda cfg: runs.append(cfg))
        out = tmp_path / "out"
        assert run_cli(command, "--config", "table1", "--set", item,
                       "--out", str(out)) == 2
        key = item.split("=")[0]
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} = (")
        assert err.endswith("): entries must be distinct\n")
        assert runs == [] and not out.exists()

    def test_alphas_with_one_label_rejected_before_any_run(
            self, tmp_path, capsys, monkeypatch):
        # both would be written to converge_alpha_0.123456.csv
        runs = []
        monkeypatch.setattr(driver, "alternate",
                            lambda cfg: runs.append(cfg))
        out = tmp_path / "out"
        assert run_cli("converge", "--config", "table1",
                       "--set", "alphas=0.1234561,0.1234562",
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: alphas = (0.1234561, 0.1234562)")
        assert err.endswith("): entries must differ in their :g labels\n")
        assert runs == [] and not out.exists()

    @pytest.mark.parametrize("item, why", [
        ("foo=1", "unknown key 'foo'"),
        ("sweep_m=4.5", "cannot parse 'sweep_m' = '4.5'"),
        # eta is a real gain: its phase never entered the SNRs
        ("eta=1+0j", "cannot parse 'eta' = '1+0j' as float")])
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
        assert lineno == {"foo": 29, "sweep_m": 27, "eta": 14}[key]
        path = tmp_path / "bad.cfg"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError,
                           match=f"^line {lineno}: {re.escape(why)}"):
            parse_config(path)

    def test_key_set_twice_is_config_error(self, tmp_path, capsys):
        text = format_config(parse_config("table1"))
        assert "\np0 = 1000.0\n" in text
        path = tmp_path / "twice.cfg"
        path.write_text(text + "p0 = 10\n")
        assert run_cli("print-config", "--config", str(path)) == 2
        assert capsys.readouterr().err == (
            "config error: line 29: key 'p0' is set again (first on "
            "line 17)\n")

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

    @pytest.mark.parametrize("name", [
        "nope.npy", "archive.npz", "strings.npy", "empty.npy", "cut.npy",
        "header.npy", "objects.npy", "cube.npy", "longdouble.npy",
        "clongdouble.npy", "nan.npy"])
    def test_unreadable_r_d_file_is_config_error(self, name, tmp_path,
                                                  capsys):
        # a malformed file exits 2, never 3 (runtime error)
        path = tmp_path / name
        r_d = 125.0 * np.eye(8)  # trace matches table1's p0=1000
        if name.endswith(".npz"):
            np.savez(path, r_d=r_d)
        elif name == "strings.npy":
            np.save(path, np.full((8, 8), "x"))
        elif name == "empty.npy":
            path.write_bytes(b"")
        elif name in ("cut.npy", "header.npy"):
            np.save(path, r_d)
            data = path.read_bytes()
            # cut inside the data, or 'False' spelled as an expression
            path.write_bytes(data[:-8] if name == "cut.npy"
                             else data.replace(b"False", b"not 1", 1))
        elif name == "objects.npy":
            np.save(path, np.full((8, 8), None, dtype=object))
        elif name == "cube.npy":
            np.save(path, np.ones((2, 2, 2)))
        elif name.endswith("longdouble.npy"):  # f16 or c32
            if np.dtype(np.longdouble).itemsize == 8:
                pytest.skip("longdouble is double on this platform")
            np.save(path, r_d.astype(np.clongdouble if name[0] == "c"
                                     else np.longdouble))
        elif name == "nan.npy":
            r_d[5, 0] = np.nan  # the lower triangle eigvalsh reads
            np.save(path, r_d)
        assert run_cli("print-config", "--config", "table1",
                       "--set", f"r_d_path={path}") == 2
        prefix = ("config error: r_d_path matrix must be 8x8, got (2, 2, 2)"
                  if name == "cube.npy"
                  else f"config error: r_d_path = {str(path)!r}: ")
        assert capsys.readouterr().err.startswith(prefix)

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

    @pytest.mark.parametrize("r_d, gamma_bp", [
        ("steered", "0"), ("indefinite", "0"), ("steered", "1e-4")],
        ids=["steered-0", "indefinite-0", "steered-1e-4"])
    def test_unsatisfiable_beampattern_spec_is_config_error(
            self, r_d, gamma_bp, tmp_path, capsys):
        # the reader's tolerances (trace to 1e-6 relative, eigenvalues down
        # to -1e-9 p0) admit these, yet no covariance within gamma_bp of
        # them passes the solve's 1e-9 p0 certificate: the benchmark's
        # steered R_d scaled by 1 + 5e-7, and trace 1000 with seven
        # eigenvalues at -0.9e-6
        if r_d == "steered":
            a = np.exp(1j * np.pi * np.arange(8) * np.sin(np.pi / 3))
            matrix = (1.0 + 5e-7) * 62.5 * (np.eye(8)
                                            + np.outer(a, a.conj()))
        else:
            matrix = np.diag([1000.0 + 6.3e-6] + [-0.9e-6] * 7)
        path = tmp_path / "r_d.npy"
        np.save(path, matrix)
        args = ["--config", "table1", "--set", f"r_d_path={path}"]
        assert run_cli("print-config", *args) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert run_cli("converge", *args, "--set", f"gamma_bp={gamma_bp}",
                       "--set", "num_realizations=1", "--set", "alphas=0.5",
                       "--set", "j_max=5", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith(
            "config error: no covariance in the ball of R_d passes the "
            "certificate (")
        assert not out.exists()

    def test_unwritable_out_is_runtime_error(self, tmp_path, capsys):
        # exit 3 is a failure of the program or the machine, not of inputs
        out = tmp_path / "taken"
        out.write_text("")
        assert run_cli("converge", "--config", "table1", *FAST,
                       "--out", str(out)) == 3
        assert capsys.readouterr().err.startswith(
            f"runtime error: cannot write results under {out}: ")

    def test_item_without_equals_sign_is_config_error(self, tmp_path,
                                                      capsys):
        assert run_cli("print-config", "--config", "table1",
                       "--set", "p0") == 2
        assert capsys.readouterr().err == (
            "config error: override 'p0' is not key=value\n")
        lines = format_config(parse_config("table1")).splitlines()
        assert lines[16] == "p0 = 1000.0"
        lines[16] = "p0  # no value"
        path = tmp_path / "no_value.cfg"
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("print-config", "--config", str(path)) == 2
        assert capsys.readouterr().err == (
            "config error: line 17: expected 'key = value', got "
            "'p0  # no value'\n")


class TestStartUp:
    def test_config_commands_load_no_numerical_module(self, tmp_path):
        # import dfrc, print-config and a config error resolve text only,
        # also with R_d read from a file; numpy and the driver load when a
        # command computes
        heavy = ("numpy", "dfrc.driver")
        good, bad = tmp_path / "good.npy", tmp_path / "bad.npy"
        np.save(good, 125.0 * np.eye(8))  # trace matches table1's p0=1000
        r_d = 125.0 * np.eye(8)
        r_d[0, 1] = r_d[1, 0] = 200.0  # eigenvalue 125 - 200 < 0
        np.save(bad, r_d)
        steps = [
            "import dfrc",
            "from dfrc.cli import main\n"
            "assert main(['print-config', '--config', 'table1']) == 0",
            "from dfrc.cli import main\n"
            "assert main(['converge', '--config', 'table1', '--set',"
            " 'alpha=2', '--out', 'unused']) == 2",
            "from dfrc.cli import main\n"
            "assert main(['print-config', '--config', 'table1', '--set',"
            f" {f'r_d_path={good}'!r}]) == 0",
            "from dfrc.cli import main\n"
            "assert main(['converge', '--config', 'table1', '--set',"
            f" {f'r_d_path={bad}'!r}, '--out', 'unused']) == 2"]
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
        # R_d is read and checked in the config layer, without numpy
        path = tmp_path / "r_d.npy"
        np.save(path, 125.0 * np.eye(8))  # trace matches table1's p0=1000
        script = ("import sys\n"
                  "from dfrc.config import parse_config\n"
                  f"parse_config('table1', [{f'r_d_path={path}'!r}])\n"
                  "print([m for m in ('numpy', 'dfrc.precoder')"
                  " if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, env=src_env(),
                             timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "[]"


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
        files = cli.emit_results("converge", (), tmp_path, "cfg", 0, 1.0)
        assert [p.name for p in files] == ["manifest.json"]
