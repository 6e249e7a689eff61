import hashlib
import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from nlo_quanta import cli, media, validation
from nlo_quanta.errors import NumericsError

REFERENCE_DIGESTS = pathlib.Path(__file__).parents[1] / "bench" / "reference_digests.json"


def run_cli(args, **kwargs):
    return subprocess.run([sys.executable, "-m", "nlo_quanta.cli", *args],
                          capture_output=True, text=True, timeout=300, **kwargs)


def all_cells_finite(csv_path) -> bool:
    """Whether every data cell of a CSV the CLI wrote (two comment lines,
    then the header) is a finite number."""
    rows = csv_path.read_text().splitlines()[3:]
    return all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))


class TestArgHandling:
    def test_no_command_is_usage_error(self):
        assert run_cli([]).returncode == cli.EXIT_USAGE

    def test_unknown_command_is_usage_error(self):
        proc = run_cli(["frobnicate"])
        assert proc.returncode == cli.EXIT_USAGE
        assert "unknown command" in proc.stderr

    def test_empty_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "empty.ini"
        cfg.write_text("")
        proc = run_cli(["--config", str(cfg)])
        assert proc.returncode == cli.EXIT_USAGE

    def test_missing_config_is_usage_error(self, tmp_path):
        proc = run_cli(["--config", str(tmp_path / "nope.ini")])
        assert proc.returncode == cli.EXIT_USAGE


def test_import_defers_optional_scipy_submodules():
    # the CLI's start-up cost: importing it loads no scipy module, and the
    # six commands that compute closed forms never load one; the names
    # checked last are the ones a tracer swaps by name
    commands = ["squeeze", "kerr", "oscillator", "medium", "dispersion", "downconv"]
    probe = (
        "import json, sys\n"
        "import nlo_quanta.cli as cli\n"
        "from nlo_quanta import evolve, soliton\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
        "loaded = {'import': scipy_modules()}\n"
        f"for command in {commands!r}:\n"
        "    cli.RUNNERS[command](cli.build_config(command, {}, 0, 1, False).params)\n"
        "    loaded[command] = scipy_modules()\n"
        "names = [hasattr(evolve, 'np'), hasattr(evolve, 'spla'),\n"
        "         callable(getattr(evolve, 'solve_ivp', None)), hasattr(soliton, 'np')]\n"
        "import scipy.sparse.linalg\n"
        "print(json.dumps({'loaded': loaded, 'names': names,\n"
        "                  'gmres': evolve.spla.gmres is scipy.sparse.linalg.gmres}))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"loaded": {c: [] for c in ["import", *commands]},
                                       "names": [True, True, True, True], "gmres": True}


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[squeeze]\nn_pump = 100\nbogus_knob = 3\n")
        proc = run_cli(["squeeze", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert proc.returncode == cli.EXIT_CONFIG
        assert "bogus_knob" in proc.stderr

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[squeeze]\nn_pump = 100\n[typo_section]\nx = 1\n")
        proc = run_cli(["squeeze", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert proc.returncode == cli.EXIT_CONFIG

    def test_command_mismatch_rejected(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[run]\ncommand = kerr\n")
        proc = run_cli(["squeeze", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert proc.returncode == cli.EXIT_CONFIG

    @pytest.mark.parametrize("command, key, value", [
        ("squeeze", "n_pump", "-5"),
        ("entangle", "points", "8"),
        ("kerr", "kt_max", "0"),
        ("kerr", "kappa", "0"),
        ("oscillator", "ratio_max", "1.5"),
        ("oscillator", "kappa", "0"),
        ("nphoton", "husimi_points", "1"),
        ("medium", "e0_min", "-0.01"),
        ("dispersion", "k_min", "0"),
        ("downconv", "k0", "0"),
        ("soliton", "g3", "0.05"),
        ("soliton", "steps", "-3"),
        ("soliton", "periods", "0"),
        ("soliton", "snapshots", "1"),
        ("squeeze", "points", "inf"),
        ("squeeze", "points", "2.7"),
        ("kerr", "alpha", "nan"),
        ("medium", "e0_max", "inf"),
        ("squeeze", "points", "1e19"),
        ("entangle", "points", "10001"),
        ("kerr", "points", "10001"),
        ("oscillator", "points", "10001"),
        ("nphoton", "n", "9"),
        ("nphoton", "signal_dim", "65"),
        ("nphoton", "pump_dim", "65"),
        ("nphoton", "points", "10001"),
        ("nphoton", "husimi_points", "402"),
        ("medium", "points", "10001"),
        ("dispersion", "points", "10001"),
        ("downconv", "points", "10001"),
        ("soliton", "grid_points", "16385"),
        ("soliton", "steps", "1000001"),
        ("soliton", "snapshots", "101"),
        ("soliton", "n0", "1001"),
        ("oscillator", "points", "0"),
        ("oscillator", "points", "-1"),
        ("nphoton", "points", "0"),
        ("nphoton", "points", "-1"),
        ("medium", "points", "0"),
        ("medium", "points", "-1"),
        ("dispersion", "points", "0"),
        ("dispersion", "points", "-1"),
        ("downconv", "points", "0"),
        ("downconv", "points", "-1"),
    ])
    def test_bad_parameter_value_rejected(self, tmp_path, command, key, value):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[{command}]\n{key} = {value}\n")
        out = tmp_path / "o"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
        assert not out.exists()

    def test_integral_float_accepted_for_int_parameter(self):
        cfg = cli.build_config("squeeze", {"points": "1e2", "n_pump": "250"}, 0, 1, False)
        assert cfg.params["points"] == 100 and type(cfg.params["points"]) is int
        assert cfg.hash() == "a4da5a7ca0368754"

    def test_seed_read_like_an_int_parameter(self, tmp_path):
        cfg = tmp_path / "seed.ini"
        cfg.write_text("[run]\nseed = 1e2\n[squeeze]\nn_pump = 250\n")
        assert cli.parse_config_file(str(cfg), "squeeze") == ("squeeze", {"n_pump": "250"}, 100)

    @pytest.mark.parametrize("seed", ["1.5", "inf"])
    def test_bad_seed_rejected(self, tmp_path, capsys, seed):
        cfg = tmp_path / "seed.ini"
        cfg.write_text(f"[run]\nseed = {seed}\n")
        out = tmp_path / "o"
        assert cli.main(["squeeze", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "n_pump = 5\n",
        "[squeeze]\nn_pump = 5\nn_pump = 6\n",
        "[squeeze]\nn_pump = 5%\n",
    ], ids=["no-section-header", "duplicate-key", "bad-interpolation"])
    def test_malformed_ini_rejected(self, tmp_path, capsys, text):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert cli.main(["squeeze", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_command_from_config_run_section(self, tmp_path):
        cfg = tmp_path / "ok.ini"
        cfg.write_text("[run]\ncommand = entangle\n[entangle]\npoints = 33\n")
        proc = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o")])
        assert proc.returncode == cli.EXIT_OK

    @pytest.mark.parametrize("command, key, value", [
        ("squeeze", "n_pump", "1e300"),
        ("oscillator", "gamma_a", "1e300"),
        ("medium", "delta", "1e-300"),
        ("soliton", "g3", "-1e-300"),
        ("squeeze", "u_max", "800"),
        ("squeeze", "n_pump", "1e-300"),
        ("medium", "e0_max", "1e300"),
    ])
    def test_numeric_fault_exits_3_without_output(self, tmp_path, capsys, recwarn, command,
                                                  key, value):
        # in-range values whose arithmetic overflows, divides by zero or
        # yields non-finite table cells; numpy raises at the operation
        # instead of warning
        cfg = tmp_path / "extreme.ini"
        cfg.write_text(f"[{command}]\n{key} = {value}\n")
        out = tmp_path / "o"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert f"numeric failure in {command}: " in err and "Traceback" not in err
        assert not out.exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("command, key, value", [
        ("squeeze", "u_max", "1e6"),
        ("entangle", "points", "16"),
        ("kerr", "bs_phi", "-1e-300"),
        ("oscillator", "kappa", "1e300"),
        ("nphoton", "husimi_radius", "1e300"),
        ("medium", "g", "1e300"),
        ("dispersion", "beta_prime_s", "1e300"),
        ("downconv", "k0", "1e-300"),
        ("soliton", "omega1_dblprime", "1e-300"),
    ])
    def test_extreme_value_exits_cleanly(self, tmp_path, capsys, command, key, value):
        # one extreme in-range value per command: a contract exit code, no
        # traceback, and output only on success, with every cell finite
        cfg = tmp_path / "extreme.ini"
        cfg.write_text(f"[{command}]\n{key} = {value}\n")
        out = tmp_path / "o"
        code = cli.main([command, "--config", str(cfg), "--out", str(out)])
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERIC)
        assert "Traceback" not in capsys.readouterr().err
        if code == cli.EXIT_OK:
            assert all(all_cells_finite(path) for path in out.glob("*.csv"))
        else:
            assert not out.exists()

    def test_kerr_vacuum_input_writes_tables(self, tmp_path):
        # a vacuum Kerr state mixed with a coherent state stays Poissonian,
        # so the beam-splitter optimum is the trivial one
        cfg = tmp_path / "vacuum.ini"
        cfg.write_text("[kerr]\nalpha = 0\n")
        out = tmp_path / "o"
        assert cli.main(["kerr", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
        assert all_cells_finite(out / "kerr.csv")
        summary = json.loads((out / "kerr_meta.json").read_text())["summary"]
        assert summary["bs_optimum_excess"] == 0.0 and summary["bs_r_opt"] == 0.0

    @pytest.mark.parametrize("config, warned", [("[kerr]\nbs_phi = 2\nalpha = 2\n", True),
                                                ("[kerr]\n", False)], ids=["phi-2", "default"])
    def test_kerr_validity_warning_in_meta(self, tmp_path, config, warned):
        # the beam-splitter closed form holds for phi << 1 with |alpha| phi
        # of order one; its warning reaches kerr_meta.json, null when valid
        cfg = tmp_path / "kerr.ini"
        cfg.write_text(config)
        out = tmp_path / "o"
        assert cli.main(["kerr", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
        warning = json.loads((out / "kerr_meta.json").read_text())["summary"]["bs_validity_warning"]
        if warned:
            assert "|alpha|*phi = 4.00 > 3.0" in warning
        else:
            assert warning is None

    @pytest.mark.parametrize("key, value", [("periods", "200"), ("grid_points", "16384")])
    def test_soliton_guided_steps_bounded(self, tmp_path, capsys, monkeypatch, key, value):
        # the guided step count grows as periods x grid_points^2; one over
        # the bound is refused before the march starts
        def march(*args):
            raise AssertionError("the march started")

        monkeypatch.setattr(cli.soliton, "split_step_snapshots", march)
        cfg = tmp_path / "long.ini"
        cfg.write_text(f"[soliton]\n{key} = {value}\n")
        out = tmp_path / "o"
        assert cli.main(["soliton", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
        assert f"at most {cli._MAX_STEPS} split steps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [c for c in cli.COMMANDS if c != "validate"])
    def test_fast_rejected_outside_validate(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        assert cli.main([command, "--fast", "--out", str(out)]) == cli.EXIT_USAGE
        assert "--fast applies to validate only" in capsys.readouterr().err
        assert not out.exists()


class TestOutputs:
    @pytest.mark.parametrize("command", [c for c in cli.COMMANDS if c != "validate"])
    def test_default_csv_bytes_match_reference(self, tmp_path, command):
        reference = json.loads(REFERENCE_DIGESTS.read_text())["csv_sha256"]
        result = cli.run(cli.build_config(command, {}, 0, 1, False), str(tmp_path))
        assert result.tables
        for table in result.tables:
            name = f"{table.name}.csv"
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == reference[name], name

    def test_dispersion_solves_each_k_three_times(self, tmp_path, monkeypatch):
        # the CLI's own root solve, group_velocity, and one shared solve inside
        # mode_norm_Ak (which used to solve again through group_velocity)
        calls = []
        solve = media.dispersion_omega

        def counted(k, c):
            calls.append(k)
            return solve(k, c)

        monkeypatch.setattr(media, "dispersion_omega", counted)
        cfg = cli.build_config("dispersion", {}, 0, 1, False)
        cli.run(cfg, str(tmp_path))
        assert len(calls) == 3 * cfg.params["points"]

    def test_squeeze_outputs(self, tmp_path):
        out = tmp_path / "out"
        proc = run_cli(["squeeze", "--out", str(out)])
        assert proc.returncode == cli.EXIT_OK
        csv_text = (out / "squeeze.csv").read_text()
        assert csv_text.startswith("# nlo-quanta")
        assert "# config_hash:" in csv_text
        header = csv_text.splitlines()[2]
        assert "u [dimensionless]" in header
        meta = json.loads((out / "squeeze_meta.json").read_text())
        assert meta["command"] == "squeeze"
        assert abs(meta["summary"]["var_min"] - 1.25e-3) < 1e-12
        assert "wall_time_s" in meta

    def test_deterministic_csv(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["downconv", "--out", str(out1)]).returncode == 0
        assert run_cli(["downconv", "--out", str(out2)]).returncode == 0
        assert (out1 / "downconv.csv").read_bytes() == (out2 / "downconv.csv").read_bytes()

    def test_oscillator_squeezing_endpoint(self, tmp_path):
        out = tmp_path / "osc"
        cfg = tmp_path / "osc.ini"
        cfg.write_text("[oscillator]\nratio_max = 0.999\npoints = 20\n")
        proc = run_cli(["oscillator", "--config", str(cfg), "--out", str(out)])
        assert proc.returncode == cli.EXIT_OK
        rows = [line for line in (out / "oscillator.csv").read_text().splitlines()
                if line and not line.startswith("#")][1:]
        last = rows[-1].split(",")
        assert abs(float(last[4]) - 0.125) < 1e-3  # squeezing column -> 1/8

    def test_entangle_minimum_summary(self, tmp_path):
        out = tmp_path / "ent"
        proc = run_cli(["entangle", "--out", str(out)])
        assert proc.returncode == cli.EXIT_OK
        meta = json.loads((out / "entangle_meta.json").read_text())
        assert abs(meta["summary"]["min_duan_sum"] - meta["summary"]["analytic_min"]) < 1e-3

    def test_downconv_exponent_summary(self, tmp_path):
        out = tmp_path / "dc"
        proc = run_cli(["downconv", "--out", str(out)])
        assert proc.returncode == cli.EXIT_OK
        meta = json.loads((out / "downconv_meta.json").read_text())
        assert abs(meta["summary"]["fitted_decay_exponent"] - 2.0) < 0.1

    def test_soliton_outputs(self, tmp_path):
        out = tmp_path / "sol"
        cfg = tmp_path / "sol.ini"
        cfg.write_text("[soliton]\ngrid_points = 512\nperiods = 0.25\nsnapshots = 3\n")
        proc = run_cli(["soliton", "--config", str(cfg), "--out", str(out)])
        assert proc.returncode == cli.EXIT_OK
        for name in ("soliton_profile.csv", "soliton_peak.csv",
                     "soliton_mean_field_peak.csv", "soliton_meta.json"):
            assert (out / name).exists()


class TestValidateCommand:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_raising_criterion_recorded_as_fail(self, tmp_path, monkeypatch, threads):
        def check_raises():
            raise NumericsError("solver blew up")

        monkeypatch.setattr(validation, "_CHECKS",
                            {2: validation._CHECKS[2], 5: ("raises", check_raises)})
        out = tmp_path / "out"
        code = cli.main(["validate", "--out", str(out), "--threads", str(threads)])
        assert code == cli.EXIT_NUMERIC
        matrix = json.loads((out / "validate_matrix.json").read_text())
        assert matrix["criteria"]["2"]["passed"] is True
        failed = matrix["criteria"]["5"]
        assert failed["passed"] is False
        assert failed["details"]["error"] == "NumericsError: solver blew up"
        assert matrix["all_passed"] is False

    def test_run_criterion_records_a_raising_check(self, monkeypatch):
        def check_raises():
            raise NumericsError("solver blew up")

        monkeypatch.setitem(validation._CHECKS, 5, ("raises", check_raises))
        result = validation.run_criterion(5)
        assert result.passed is False
        assert result.details["error"] == "NumericsError: solver blew up"
        assert "check_raises" in result.details["traceback"]
        assert result.seconds > 0

    def test_every_criterion_runs_in_the_callers_errstate(self, monkeypatch):
        # numpy's errstate is a context variable, and pool workers start from
        # a fresh context
        seen = []

        def run_criterion(number):
            seen.append((number, np.geterr()["over"], np.geterr()["invalid"]))
            return validation.CheckResult(number, "probe", True, {}, 0.0)

        monkeypatch.setattr(validation, "run_criterion", run_criterion)
        with np.errstate(over="raise", invalid="raise"):
            results = validation.run_all(fast=True, threads=2)
        assert [r.criterion for r in results] == list(validation.FAST_CRITERIA)
        assert sorted(seen) == [(n, "raise", "raise") for n in sorted(validation.FAST_CRITERIA)]

    def test_raising_criterion_keeps_its_name(self, tmp_path, monkeypatch):
        def max_squeezing(n_pump):
            raise NumericsError("solver blew up")

        monkeypatch.setattr(validation.cf, "max_squeezing", max_squeezing)
        assert validation.run_criterion(2).name == "maximum-squeezing scaling"
        monkeypatch.setattr(validation, "FAST_CRITERIA", (2,))
        out = tmp_path / "out"
        assert cli.main(["validate", "--fast", "--out", str(out)]) == cli.EXIT_NUMERIC
        matrix = json.loads((out / "validate_matrix.json").read_text())
        assert matrix["criteria"]["2"]["name"] == "maximum-squeezing scaling"

    def test_fast_tier(self, tmp_path):
        out = tmp_path / "val"
        proc = run_cli(["validate", "--fast", "--out", str(out)])
        assert proc.returncode == cli.EXIT_OK
        matrix = json.loads((out / "validate_matrix.json").read_text())
        assert matrix["all_passed"] is True
        assert sorted(int(k) for k in matrix["criteria"]) == sorted(cli.validation.FAST_CRITERIA)
        assert "PASS" in proc.stdout

    def test_refuses_mismatched_replay(self, tmp_path):
        out = tmp_path / "val"
        out.mkdir()
        (out / "validate_matrix.json").write_text(json.dumps({"config_hash": "deadbeef"}))
        proc = run_cli(["validate", "--fast", "--out", str(out)])
        assert proc.returncode == cli.EXIT_CONFIG
        assert "refusing" in proc.stderr

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, threads):
        out = tmp_path / "val"
        assert cli.main(["validate", "--fast", "--threads", threads,
                         "--out", str(out)]) == cli.EXIT_CONFIG
        assert "--threads must be an integer >= 1" in capsys.readouterr().err
        assert not out.exists()
