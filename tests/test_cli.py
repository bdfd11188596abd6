"""Config parsing, CSV output and command-line entry points."""

import dataclasses
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from etmhe import cli
from etmhe.certificate import rges_bound, rges_constants
from etmhe.cli import main, parse_config, trace_columns, write_trace_csv
from etmhe.harness import EquivalenceReport, SimConfig, run_closed_loop
from etmhe.model import BATCH_REACTOR_BOUNDS, Box, ConfigurationError, batch_reactor

from conftest import CONFIG_PATH
from test_mhe import scalar_cert, scalar_linear_model

GOOD = CONFIG_PATH.read_text()


def assert_model_equal(model, expected):
    """Same dimensions and sets, and the same f and h on random points."""
    rng = np.random.default_rng(0)
    x, w = rng.uniform(0.0, 5.0, (20, 2)), rng.uniform(-0.1, 0.1, (20, 3))
    for name in ("f", "h"):
        assert np.array_equal(getattr(model, name)(x, w), getattr(expected, name)(x, w))
    for name in ("x_set", "w_set"):
        for side in ("lower", "upper"):
            np.testing.assert_array_equal(getattr(getattr(model, name), side),
                                          getattr(getattr(expected, name), side))


def write_cfg(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# Each certificate weight at a size the batch reactor (n = 2, q = 3, p = 1)
# does not have: the config text to replace, its replacement, and the same
# weights as matrices. P1 and P2 share their text in the benchmark file.
MISFITS = {
    "P1": ("4.539, 4.171; 4.171, 3.834", "2", {"P1": [[2.0]], "P2": [[2.0]]}),
    "Q": ("Q = 1e3, 0, 0; 0, 1e4, 0; 0, 0, 1e3", "Q = 1e3, 0; 0, 1e4",
          {"Q": np.diag([1e3, 1e4])}),
    "R": ("R = 1e3", "R = 1e3, 0; 0, 1e3", {"R": 1e3 * np.eye(2)}),
}


class TestParseConfig:
    def test_benchmark_file(self, bench_cfg):
        assert bench_cfg.M == 30
        assert bench_cfg.alpha == 5.0
        assert bench_cfg.T == 100
        assert bench_cfg.cert.eta == 0.91
        np.testing.assert_allclose(bench_cfg.x0, [3.0, 1.0])
        np.testing.assert_allclose(bench_cfg.xhat0, [0.1, 4.5])
        w_set = bench_cfg.model.w_set
        np.testing.assert_allclose(w_set.upper, [1e-3, 1e-3, 0.1])
        np.testing.assert_array_equal(w_set.lower, -w_set.upper)

    def test_optional_keys_take_library_defaults(self, tmp_path, bench_cfg):
        optional = {"k1", "k2", "tau", "x_lower", "x_upper", "w_bounds", "seed"}
        text = "\n".join(line for line in GOOD.splitlines()
                         if line.split("=")[0].strip() not in optional)
        cfg = parse_config(write_cfg(tmp_path, text))
        assert_model_equal(cfg.model, batch_reactor())
        assert cfg.model.w_set is BATCH_REACTOR_BOUNDS
        assert cfg.seed == 0
        # The benchmark file spells out the same defaults.
        assert_model_equal(bench_cfg.model, cfg.model)

    def test_optional_keys_override_defaults(self, tmp_path, capsys):
        text = (GOOD.replace("tau = 0.1", "tau = 0.2")
                .replace("x_upper = inf, inf", "x_upper = 10, inf"))
        cfg = parse_config(write_cfg(tmp_path, text))
        expected = dataclasses.replace(
            batch_reactor(tau=0.2), x_set=Box(np.zeros(2), np.array([10.0, np.inf])))
        assert_model_equal(cfg.model, expected)
        # The LM internals are constants, and there is no short-horizon
        # override: neither is a key.
        for key in ("max_iterations = 7", "allow_short_horizon = 1"):
            path = write_cfg(tmp_path, text.replace("alpha = 5", f"alpha = 5\n{key}"))
            name = key.split()[0]
            with pytest.raises(ConfigurationError,
                               match=rf"case\.cfg:\d+: unknown key '{name}'"):
                parse_config(path)
            assert main(["simulate", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 2
            assert f"unknown key '{name}'" in capsys.readouterr().err

    def test_unknown_key_reports_line(self, tmp_path):
        path = write_cfg(tmp_path, GOOD.replace("seed = 0", "sed = 0"))
        with pytest.raises(ConfigurationError, match=r"case\.cfg:\d+.*sed"):
            parse_config(path)

    def test_unknown_section(self, tmp_path):
        path = write_cfg(tmp_path, GOOD + "\n[extra]\nfoo = 1\n")
        with pytest.raises(ConfigurationError, match=r"unknown section"):
            parse_config(path)

    def test_missing_required_key(self, tmp_path):
        path = write_cfg(tmp_path, GOOD.replace("eta = 0.91", ""))
        with pytest.raises(ConfigurationError, match="eta"):
            parse_config(path)

    def test_first_missing_key_is_fixed_by_schema_order(self, tmp_path):
        # The key named does not depend on Python's per-process string hash.
        text = GOOD
        for key in ("P1", "Q", "R", "eta"):
            text = re.sub(rf"^{key} = .*$", "", text, flags=re.M)
        path = write_cfg(tmp_path, text)
        src = str(Path(cli.__file__).resolve().parents[1])
        results = set()
        for hash_seed in ("0", "1", "3"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")]))}
            done = subprocess.run(
                [sys.executable, "-m", "etmhe.cli", "min-horizon", "--config", str(path)],
                capture_output=True, text=True, env=env, timeout=60)
            results.add((done.returncode, done.stderr))
        assert results == {(2, f"error: {path}: missing key 'P1' in [certificate]\n")}

    def test_duplicate_key(self, tmp_path):
        path = write_cfg(tmp_path, GOOD.replace("T = 100", "T = 100\nT = 50"))
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_config(path)

    def test_bad_number(self, tmp_path):
        path = write_cfg(tmp_path, GOOD.replace("T = 100", "T = many"))
        with pytest.raises(ConfigurationError, match="many"):
            parse_config(path)

    @pytest.mark.parametrize("old,new", [
        ("T = 100", "T = 100.9"), ("T = 100", "T = inf"), ("T = 100", "T = nan"),
        ("seed = 0", "seed = 0.5")])
    def test_inexact_values_rejected(self, tmp_path, capsys, old, new):
        path = write_cfg(tmp_path, GOOD.replace(old, new))
        with pytest.raises(ConfigurationError, match=r"case\.cfg:\d+: expected"):
            parse_config(path)
        code = main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "case.cfg" in capsys.readouterr().err

    def test_non_finite_solver_setting_rejected(self, tmp_path):
        """The former solver keys, finite or not, are unknown keys."""
        for key in ("max_iterations", "gradient_tolerance", "step_tolerance",
                    "initial_damping", "damping_increase", "damping_decrease"):
            path = write_cfg(tmp_path, GOOD.replace("alpha = 5", f"alpha = 5\n{key} = nan"))
            with pytest.raises(ConfigurationError,
                               match=rf"case\.cfg:\d+: unknown key '{key}'"):
                parse_config(path)
            assert main(["simulate", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 2

    def test_integral_numbers_accepted(self, tmp_path):
        text = GOOD.replace("T = 100", "T = 1e3").replace("seed = 0", "seed = 7.0")
        cfg = parse_config(write_cfg(tmp_path, text))
        assert cfg.T == 1000 and type(cfg.T) is int
        assert cfg.seed == 7 and type(cfg.seed) is int
        big = parse_config(write_cfg(tmp_path, GOOD.replace(
            "seed = 0", "seed = 12345678901234567891")))
        assert big.seed == 12345678901234567891

    def test_invalid_certificate_rejected(self, tmp_path):
        path = write_cfg(tmp_path, GOOD.replace("eta = 0.91", "eta = 1.5"))
        with pytest.raises(ConfigurationError):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            parse_config(tmp_path / "absent.cfg")

    @pytest.mark.parametrize("name", sorted(MISFITS))
    def test_certificate_must_fit_model(self, tmp_path, capsys, bench_cfg, name):
        old, new, weights = MISFITS[name]
        cert = dataclasses.replace(bench_cfg.cert, **weights)
        with pytest.raises(ConfigurationError, match=f"certificate {name} is"):
            dataclasses.replace(bench_cfg, cert=cert)
        path = write_cfg(tmp_path, GOOD.replace(old, new))
        with pytest.raises(ConfigurationError, match=rf"case\.cfg: certificate {name} is"):
            parse_config(path)
        for argv in (["min-horizon"], ["simulate", "--out", str(tmp_path / "out")]):
            assert main([argv[0], "--config", str(path), *argv[1:]]) == 2
            assert f"case.cfg: certificate {name} is" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["P1", "P2", "Q", "R"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_certificate_weight_rejected(self, tmp_path, capsys,
                                                    name, bad):
        # The first entry of the weight becomes bad.
        text = re.sub(rf"^{name} = [^,\n]*", f"{name} = {bad}", GOOD, flags=re.M)
        assert text != GOOD
        path = write_cfg(tmp_path, text)
        message = f"case.cfg: {name} must be finite"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            parse_config(path)
        for argv in (["min-horizon"], ["simulate", "--out", str(tmp_path / "out")]):
            assert main([argv[0], "--config", str(path), *argv[1:]]) == 2
            assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old,new", [("k1 = 0.16", "k1 = nan"),
                                         ("k2 = 0.0064", "k2 = inf"),
                                         ("tau = 0.1", "tau = -1")])
    def test_bad_model_parameter_rejected(self, tmp_path, capsys, old, new):
        path = write_cfg(tmp_path, GOOD.replace(old, new))
        message = f"case.cfg: {new.split()[0]} must be finite and nonnegative"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            parse_config(path)
        for argv in (["min-horizon"], ["simulate", "--out", str(tmp_path / "out")]):
            assert main([argv[0], "--config", str(path), *argv[1:]]) == 2
            assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("side,old,new", [
        ("lower", "x_lower = 0, 0", "x_lower = nan, 0"),
        ("upper", "x_upper = inf, inf", "x_upper = inf, nan")])
    def test_nan_state_bound_rejected(self, tmp_path, capsys, side, old, new):
        # Named as the bound, not as "x0 outside the admissible state set".
        path = write_cfg(tmp_path, GOOD.replace(old, new))
        message = f"case.cfg: box {side} bound must not be NaN"
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["-1e-3", "nan", "inf"])
    def test_bad_w_bounds_rejected(self, tmp_path, capsys, bad):
        # Each is rejected as it is parsed, at the line of w_bounds.
        text = GOOD.replace("w_bounds = 1e-3,", f"w_bounds = {bad},")
        assert text != GOOD
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigurationError,
                           match=r"case\.cfg:\d+: w_bounds must be finite and nonnegative"):
            parse_config(path)
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "w_bounds" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_rejected(self, tmp_path, capsys, bench_cfg):
        with pytest.raises(ConfigurationError, match="seed must be nonnegative"):
            dataclasses.replace(bench_cfg, seed=-1)
        path = write_cfg(tmp_path, GOOD.replace("seed = 0", "seed = -1"))
        with pytest.raises(ConfigurationError, match=r"case\.cfg: seed must be nonnegative"):
            parse_config(path)
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "case.cfg: seed must be nonnegative" in capsys.readouterr().err
        # A negative --seed is a usage error too.
        for argv in (["simulate", "--seed", "-1", "--out", str(tmp_path / "out")],
                     ["check-ioss", "--samples", "8", "--region", "0,5;0,5",
                      "--seed", "-3"]):
            assert main([argv[0], "--config", str(CONFIG_PATH), *argv[1:]]) == 2
            assert "seed must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestTraceCsv:
    def test_round_trip(self, tmp_path, bench_cfg):
        trace = run_closed_loop(dataclasses.replace(bench_cfg, T=20))
        constants = rges_constants(bench_cfg.cert, bench_cfg.alpha, bench_cfg.M)
        out = tmp_path / "trace.csv"
        write_trace_csv(trace, constants, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join(trace_columns(2, 1))
        assert lines[0] == ("t,x1,x2,xhat1,xhat2,y,gamma,delta,eps,d,err_norm,"
                            "rges_bound,solver_iters,solver_converged,tx_count")
        assert len(lines) == trace.T + 2
        data = np.genfromtxt(out, delimiter=",", names=True)
        np.testing.assert_allclose(data["x1"], trace.x[:, 0], rtol=0)
        np.testing.assert_allclose(data["d"], trace.d[:trace.T + 1], rtol=0)
        np.testing.assert_array_equal(data["gamma"], trace.gamma)
        np.testing.assert_array_equal(
            data["rges_bound"],
            rges_bound(constants, trace.err_norm[0], trace.w_norms[:trace.T]))

    def test_columns_follow_model_dimensions(self):
        cols = trace_columns(3, 2)
        assert cols[:10] == ["t", "x1", "x2", "x3", "xhat1", "xhat2", "xhat3",
                             "y1", "y2", "gamma"]

    def test_scalar_model_trace(self, tmp_path):
        b = np.array([0.01, 0.05])
        model = dataclasses.replace(scalar_linear_model(), w_set=Box(-b, b))
        cfg = SimConfig(model=model, cert=scalar_cert(), M=3, alpha=1.0, T=12,
                        x0=np.array([1.0]), xhat0=np.array([0.0]))
        trace = run_closed_loop(cfg)
        out = tmp_path / "trace.csv"
        write_trace_csv(trace, rges_constants(cfg.cert, cfg.alpha, cfg.M), out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join(trace_columns(1, 1))
        assert lines[0].startswith("t,x1,xhat1,y,gamma,")
        assert len(lines) == trace.T + 2
        data = np.genfromtxt(out, delimiter=",", names=True)
        np.testing.assert_array_equal(data["x1"], trace.x[:, 0])
        np.testing.assert_array_equal(data["xhat1"], trace.xhat[:, 0])
        np.testing.assert_array_equal(data["y"], trace.y[:, 0])
        np.testing.assert_array_equal(data["gamma"], trace.gamma)


class TestCommands:
    def test_min_horizon(self, capsys):
        code = main(["min-horizon", "--config", str(CONFIG_PATH)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "15"

    def test_min_horizon_of_short_horizon_config(self, tmp_path, capsys,
                                                 monkeypatch):
        # The minimum horizon is a condition of the error bound, not of the
        # estimator: the commands that compute the bound refuse a short
        # horizon before they run the loop, the others run it.
        cfg = write_cfg(tmp_path, GOOD.replace("M = 30", "M = 5")
                        .replace("T = 100", "T = 20"))
        code = main(["min-horizon", "--config", str(cfg)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "15"
        with monkeypatch.context() as patched:
            patched.setattr(cli, "run_closed_loop", None)
            for command in (["simulate", "--out", str(tmp_path / "out")],
                            ["check-rges"]):
                assert main([command[0], "--config", str(cfg), *command[1:]]) == 2
                assert "below stability minimum 15" in capsys.readouterr().err
        assert main(["sweep", "--config", str(cfg), "--alphas", "0,5",
                     "--seeds", "0", "--out", str(tmp_path / "out")]) == 0
        assert main(["verify-prop1", "--config", str(cfg)]) == 0
        assert "discrepancy" in capsys.readouterr().out

    @pytest.mark.parametrize("old,new", [("M = 30", "M = 0"), ("M = 30", "M = -1"),
                                         ("alpha = 5", "alpha = -1")])
    def test_bad_horizon_or_alpha_exit_code(self, tmp_path, capsys, old, new):
        cfg = write_cfg(tmp_path, GOOD.replace(old, new))
        assert main(["min-horizon", "--config", str(cfg)]) == 2
        assert "case.cfg" in capsys.readouterr().err

    def test_simulate_writes_trace(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, GOOD.replace("T = 100", "T = 20"))
        code = main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "trace.csv").exists()
        assert "events" in capsys.readouterr().out

    def test_sweep_writes_csv(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, GOOD.replace("T = 100", "T = 15"))
        code = main(["sweep", "--config", str(cfg), "--alphas", "0,5",
                     "--seeds", "0", "--out", str(tmp_path / "out")])
        assert code == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "alpha,seed,t,gamma"
        assert len(lines) == 1 + 2 * 16

    @pytest.mark.parametrize("alphas,seeds", [("5,5.0", "0"), ("0,5", "1,1")])
    def test_sweep_repeated_point_exit_code(self, tmp_path, capsys, alphas, seeds):
        code = main(["sweep", "--config", str(CONFIG_PATH), "--alphas", alphas,
                     "--seeds", seeds, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "repeat an alpha or a seed" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_sweep_output_does_not_depend_on_cpus(self, tmp_path, capsys,
                                                   monkeypatch):
        # With two usable CPUs the parent runs seeds 0 and 1 and one spawned
        # worker runs seed 2; the CSV and stdout are those of one CPU.
        cfg = write_cfg(tmp_path, GOOD.replace("T = 100", "T = 30"))
        in_parent = []
        real = cli.run_alpha_sweep

        def recorded(cfg, alphas, seeds):
            in_parent.append(list(seeds))
            return real(cfg, alphas, seeds)

        monkeypatch.setattr(cli, "run_alpha_sweep", recorded)
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            out = tmp_path / f"out{cpus}"
            assert main(["sweep", "--config", str(cfg), "--alphas", "0,5",
                         "--seeds", "0,1,2", "--out", str(out)]) == 0
            assert multiprocessing.active_children() == []
            outputs.append(((out / "sweep.csv").read_bytes(), capsys.readouterr().out))
        assert in_parent == [[0, 1, 2], [0, 1]]
        assert outputs[1] == outputs[0]
        csv, stdout = outputs[0]
        assert len(csv.splitlines()) == 1 + 6 * 31 and stdout.count("\n") == 6

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_sweep_repeat_across_shares_exit_code(self, tmp_path, capsys,
                                                  monkeypatch, cpus):
        # Split in two, 1,2,1 puts a 1 in each share: the whole grid is
        # checked before any share runs.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        code = main(["sweep", "--config", str(CONFIG_PATH), "--alphas", "0,5",
                     "--seeds", "1,2,1", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "repeat an alpha or a seed" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sweep.csv").exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("alpha", ["1e307", "1e308"])
    def test_overflowing_alpha_exit_code(self, tmp_path, capsys, alpha):
        # The cost overflows at the first solve: a config error, not a run
        # that goes on unconverged and reports no violation.
        cfg = write_cfg(tmp_path, GOOD.replace("alpha = 5", f"alpha = {alpha}"))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["check-rges", "--config", str(cfg)]) == 2
        assert "window cost not finite at the start" in capsys.readouterr().err

    def test_verify_prop1_passes(self, tmp_path, capsys):
        code = main(["verify-prop1", "--config", str(CONFIG_PATH),
                     "--horizon", "5", "--steps", "20"])
        assert code == 0
        assert "discrepancy" in capsys.readouterr().out

    @pytest.mark.parametrize("disc,cost,code", [
        (1e-6, 1e-9, 0), (2e-6, 0.0, 3), (0.0, 2e-9, 3),
        (np.nan, 0.0, 3), (0.0, np.nan, 3)])
    def test_verify_prop1_exit_code(self, monkeypatch, capsys, disc, cost, code):
        # Both the discrepancy and the cost error are gated, and NaN fails.
        monkeypatch.setattr(cli, "verify_proposition1",
                            lambda cfg: EquivalenceReport(disc, cost, 1))
        assert main(["verify-prop1", "--config", str(CONFIG_PATH)]) == code

    def test_check_rges_nan_error_exit_code(self, tmp_path, monkeypatch, capsys):
        real = cli.run_closed_loop

        def nan_at_5(cfg):
            trace = real(cfg)
            trace.err_norm[5] = np.nan
            return trace

        monkeypatch.setattr(cli, "run_closed_loop", nan_at_5)
        cfg = write_cfg(tmp_path, GOOD.replace("T = 100", "T = 25"))
        assert main(["check-rges", "--config", str(cfg)]) == 3
        assert "violations 1," in capsys.readouterr().out

    def test_check_ioss_runs(self, capsys):
        code = main(["check-ioss", "--config", str(CONFIG_PATH),
                     "--samples", "500", "--region", "0,5;0,5", "--seed", "0"])
        assert code == 0
        assert "violations" in capsys.readouterr().out

    def test_check_rges_short(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, GOOD.replace("T = 100", "T = 25"))
        code = main(["check-rges", "--config", str(cfg)])
        assert code == 0
        assert "violations 0" in capsys.readouterr().out

    def test_zero_horizon_exit_code(self, capsys):
        code = main(["verify-prop1", "--config", str(CONFIG_PATH),
                     "--horizon", "0", "--steps", "5"])
        assert code == 2
        assert "horizon must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,bad", [
        ("sweep", "--alphas", "5,x"), ("sweep", "--seeds", "1.5"),
        ("check-ioss", "--region", "a,5;0,5"),
        ("check-ioss", "--region", "nan,5;0,5")])
    def test_malformed_list_argument_exit_code(self, capsys, command, flag, bad):
        valid = {"sweep": ["--alphas", "5", "--seeds", "0", "--out", "unused"],
                 "check-ioss": ["--samples", "5", "--region", "0,5;0,5"]}[command]
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(CONFIG_PATH), *valid, flag, bad])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, GOOD.replace("eta = 0.91", "eta = 1.5"))
        code = main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_seed_override_changes_trace(self, tmp_path):
        cfg = write_cfg(tmp_path, GOOD.replace("T = 100", "T = 15"))
        for seed, name in ((0, "a"), (1, "b")):
            assert main(["simulate", "--config", str(cfg), "--seed", str(seed),
                         "--out", str(tmp_path / name)]) == 0
        a = (tmp_path / "a" / "trace.csv").read_text()
        b = (tmp_path / "b" / "trace.csv").read_text()
        assert a != b
