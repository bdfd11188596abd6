"""Config parsing, CSV output and command-line entry points."""

import dataclasses

import numpy as np
import pytest

from etmhe.cli import (ConfigFileError, main, parse_config, trace_columns,
                       write_trace_csv)
from etmhe.harness import SimConfig, run_closed_loop
from etmhe.model import BATCH_REACTOR_BOUNDS, Box, DisturbanceBounds, batch_reactor

from conftest import CONFIG_PATH
from test_mhe import scalar_cert, scalar_linear_model

GOOD = CONFIG_PATH.read_text()


def assert_model_equal(model, expected):
    """Same dimensions and sets, and the same f and h on random points."""
    rng = np.random.default_rng(0)
    x, w = rng.uniform(0.0, 5.0, (20, 2)), rng.uniform(-0.1, 0.1, (20, 3))
    u = np.zeros((20, 0))
    for name in ("f", "h"):
        assert np.array_equal(getattr(model, name)(x, u, w),
                              getattr(expected, name)(x, u, w))
    for name in ("x_set", "w_set"):
        for side in ("lower", "upper"):
            np.testing.assert_array_equal(getattr(getattr(model, name), side),
                                          getattr(getattr(expected, name), side))


def write_cfg(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_benchmark_file(self, bench_cfg):
        assert bench_cfg.M == 30
        assert bench_cfg.alpha == 5.0
        assert bench_cfg.T == 100
        assert bench_cfg.cert.eta == 0.91
        np.testing.assert_allclose(bench_cfg.x0, [3.0, 1.0])
        np.testing.assert_allclose(bench_cfg.xhat0, [0.1, 4.5])
        np.testing.assert_allclose(bench_cfg.w_bounds.bounds,
                                   [1e-3, 1e-3, 0.1])

    def test_optional_keys_take_library_defaults(self, tmp_path, bench_cfg):
        optional = {"k1", "k2", "tau", "x_lower", "x_upper", "w_bounds", "seed"}
        text = "\n".join(line for line in GOOD.splitlines()
                         if line.split("=")[0].strip() not in optional)
        cfg = parse_config(write_cfg(tmp_path, text))
        assert_model_equal(cfg.model, batch_reactor())
        np.testing.assert_array_equal(cfg.w_bounds.bounds,
                                      BATCH_REACTOR_BOUNDS.bounds)
        assert cfg.seed == 0 and cfg.allow_short_horizon is False
        # The benchmark file spells out the same defaults.
        assert_model_equal(bench_cfg.model, cfg.model)

    def test_optional_keys_override_defaults(self, tmp_path, capsys):
        text = (GOOD.replace("tau = 0.1", "tau = 0.2")
                .replace("x_upper = inf, inf", "x_upper = 10, inf")
                .replace("alpha = 5", "alpha = 5\nallow_short_horizon = 1"))
        cfg = parse_config(write_cfg(tmp_path, text))
        expected = dataclasses.replace(
            batch_reactor(tau=0.2), x_set=Box(np.zeros(2), np.array([10.0, np.inf])))
        assert_model_equal(cfg.model, expected)
        assert cfg.allow_short_horizon is True
        # The LM internals are constants, not keys.
        path = write_cfg(tmp_path, text.replace("alpha = 5", "alpha = 5\nmax_iterations = 7"))
        with pytest.raises(ConfigFileError, match=r"case\.cfg:\d+: unknown key 'max_iterations'"):
            parse_config(path)
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "case.cfg" in capsys.readouterr().err

    def test_unknown_key_reports_line(self, tmp_path):
        path = write_cfg(tmp_path, GOOD.replace("seed = 0", "sed = 0"))
        with pytest.raises(ConfigFileError, match=r"case\.cfg:\d+.*sed"):
            parse_config(path)

    def test_unknown_section(self, tmp_path):
        path = write_cfg(tmp_path, GOOD + "\n[extra]\nfoo = 1\n")
        with pytest.raises(ConfigFileError, match=r"unknown section"):
            parse_config(path)

    def test_missing_required_key(self, tmp_path):
        path = write_cfg(tmp_path, GOOD.replace("eta = 0.91", ""))
        with pytest.raises(ConfigFileError, match="eta"):
            parse_config(path)

    def test_duplicate_key(self, tmp_path):
        path = write_cfg(tmp_path, GOOD.replace("T = 100", "T = 100\nT = 50"))
        with pytest.raises(ConfigFileError, match="duplicate"):
            parse_config(path)

    def test_bad_number(self, tmp_path):
        path = write_cfg(tmp_path, GOOD.replace("T = 100", "T = many"))
        with pytest.raises(ConfigFileError, match="many"):
            parse_config(path)

    @pytest.mark.parametrize("old,new", [
        ("T = 100", "T = 100.9"), ("T = 100", "T = inf"), ("T = 100", "T = nan"),
        ("seed = 0", "seed = 0.5"),
        ("alpha = 5", "alpha = 5\nallow_short_horizon = 0.5"),
        ("alpha = 5", "alpha = 5\nallow_short_horizon = 2")])
    def test_inexact_values_rejected(self, tmp_path, capsys, old, new):
        path = write_cfg(tmp_path, GOOD.replace(old, new))
        with pytest.raises(ConfigFileError, match=r"case\.cfg:\d+: expected"):
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
            with pytest.raises(ConfigFileError,
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
        with pytest.raises(ConfigFileError):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigFileError):
            parse_config(tmp_path / "absent.cfg")


class TestTraceCsv:
    def test_round_trip(self, tmp_path, bench_cfg):
        trace = run_closed_loop(dataclasses.replace(bench_cfg, T=20))
        out = tmp_path / "trace.csv"
        write_trace_csv(trace, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join(trace_columns(2, 1))
        assert lines[0] == ("t,x1,x2,xhat1,xhat2,y,gamma,delta,eps,d,err_norm,"
                            "rges_bound,solver_iters,solver_converged,tx_count")
        assert len(lines) == trace.T + 2
        data = np.genfromtxt(out, delimiter=",", names=True)
        np.testing.assert_allclose(data["x1"], trace.x[:, 0], rtol=0)
        np.testing.assert_allclose(data["d"], trace.d[:trace.T + 1], rtol=0)
        np.testing.assert_array_equal(data["gamma"], trace.gamma)

    def test_columns_follow_model_dimensions(self):
        cols = trace_columns(3, 2)
        assert cols[:10] == ["t", "x1", "x2", "x3", "xhat1", "xhat2", "xhat3",
                             "y1", "y2", "gamma"]

    def test_scalar_model_trace(self, tmp_path):
        cfg = SimConfig(model=scalar_linear_model(), cert=scalar_cert(), M=3,
                        alpha=1.0, T=12, x0=np.array([1.0]),
                        xhat0=np.array([0.0]),
                        w_bounds=DisturbanceBounds(np.array([0.01, 0.05])))
        trace = run_closed_loop(cfg)
        out = tmp_path / "trace.csv"
        write_trace_csv(trace, out)
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

    def test_min_horizon_of_short_horizon_config(self, tmp_path, capsys):
        # The minimum-horizon rule belongs to a run, not to the config file.
        cfg = write_cfg(tmp_path, GOOD.replace("M = 30", "M = 5"))
        code = main(["min-horizon", "--config", str(cfg)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "15"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert "below stability minimum 15" in capsys.readouterr().err

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

    def test_verify_prop1_passes(self, tmp_path, capsys):
        with pytest.warns(UserWarning, match="below stability minimum"):
            code = main(["verify-prop1", "--config", str(CONFIG_PATH),
                         "--horizon", "5", "--steps", "20"])
        assert code == 0
        assert "discrepancy" in capsys.readouterr().out

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
        ("check-ioss", "--region", "a,5;0,5")])
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
