"""Closed-loop simulation, oracle comparison, sweeps and metrics."""

import dataclasses
import warnings

import numpy as np
import pytest

from etmhe import (ConfigurationError, DisturbanceBounds, harness,
                   run_alpha_sweep, run_closed_loop, trigger,
                   verify_proposition1)
from etmhe.harness import POST_TRANSIENT_START, check_rges, performance_metrics
from etmhe.certificate import rges_constants


@pytest.fixture(scope="module")
def short_cfg(bench_cfg):
    return dataclasses.replace(bench_cfg, T=40)


@pytest.fixture(scope="module")
def short_trace(short_cfg):
    return run_closed_loop(short_cfg)


class TestClosedLoop:
    def test_trace_shapes(self, short_cfg, short_trace):
        T = short_cfg.T
        assert short_trace.T == T
        assert short_trace.x.shape == (T + 1, 2)
        assert short_trace.y.shape == (T + 1, 1)
        assert short_trace.d.shape == (T + 2,)
        assert short_trace.gamma[0] == 1

    def test_deterministic(self, short_cfg, short_trace):
        again = run_closed_loop(short_cfg)
        np.testing.assert_array_equal(short_trace.x, again.x)
        np.testing.assert_array_equal(short_trace.xhat, again.xhat)
        np.testing.assert_array_equal(short_trace.gamma, again.gamma)
        np.testing.assert_array_equal(short_trace.d, again.d)

    def test_seed_changes_realization(self, short_cfg, short_trace):
        other = run_closed_loop(dataclasses.replace(short_cfg, seed=1))
        assert not np.array_equal(short_trace.w, other.w)

    def test_open_loop_between_events(self, short_cfg, short_trace):
        # At silent steps the estimate is the nominal propagation of the
        # previous one.
        model = short_cfg.model
        for t in range(1, short_trace.T + 1):
            if short_trace.gamma[t]:
                continue
            pred = model.f(short_trace.xhat[t - 1], np.zeros(0), np.zeros(3))
            np.testing.assert_allclose(short_trace.xhat[t], pred, atol=1e-14)

    def test_trigger_bookkeeping_invariants(self, short_trace):
        tr = short_trace
        for t in range(1, tr.T + 1):
            if tr.gamma[t]:
                assert tr.delta[t] == 0
                assert tr.tx_count[t] >= 1
            else:
                assert tr.d[t + 1] == tr.d[t]
                assert tr.tx_count[t] == 0
                prev_delta = tr.delta[t - 1] if not tr.gamma[t - 1] else 0
                assert tr.delta[t] == prev_delta + 1

    def test_trigger_prediction_is_silent_estimate(self, short_cfg,
                                                   monkeypatch):
        # The plant-side prediction and the estimator's open-loop fallback
        # are computed separately and must agree bit for bit.
        preds = {}

        def recording(state, gamma, *args):
            new = trigger.advance(state, gamma, *args)
            if not gamma:
                preds[state.t] = new.pred
            return new

        monkeypatch.setattr(harness, "advance", recording)
        tr = run_closed_loop(short_cfg)
        silent = np.flatnonzero(tr.gamma == 0).tolist()
        assert silent and sorted(preds) == silent
        for t in silent:
            np.testing.assert_array_equal(preds[t], tr.xhat[t])

    def test_trigger_decision_recorded(self, short_cfg, short_trace):
        tr, eta = short_trace, short_cfg.cert.eta
        assert np.isnan(tr.trigger_lhs[0]) and np.isnan(tr.trigger_threshold[0])
        for t in range(1, tr.T + 1):
            assert tr.gamma[t] == (not tr.trigger_lhs[t] < tr.trigger_threshold[t])
            assert tr.trigger_threshold[t] == (short_cfg.alpha * eta ** (t - tr.eps[t])
                                               * tr.d[t])

    def test_transmitted_block_length(self, short_cfg, short_trace):
        cfg, tr = short_cfg, short_trace
        eps = 0
        for t in range(1, tr.T + 1):
            if tr.gamma[t]:
                assert tr.tx_count[t] == min(t - eps, cfg.M)
                eps = t

    def test_error_stays_bounded(self, short_trace):
        assert np.all(np.isfinite(short_trace.err_norm))
        assert short_trace.err_norm[-1] < short_trace.err_norm[0]

    def test_all_solves_converged(self, short_trace):
        tr = short_trace
        events = tr.gamma[1:] == 1
        assert np.all(tr.solver_converged[1:][events])

    def test_non_finite_inputs_rejected(self, bench_cfg):
        for field in ("x0", "xhat0"):
            for bad in ([np.inf, 1.0], [np.nan, 1.0]):
                with pytest.raises(ConfigurationError, match=f"^{field} "):
                    dataclasses.replace(bench_cfg, **{field: np.array(bad)})
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigurationError, match="^alpha "):
                dataclasses.replace(bench_cfg, alpha=bad)


class TestOracleEquivalence:
    def test_small_case(self, bench_cfg):
        cfg = dataclasses.replace(bench_cfg, M=5, T=25,
                                  allow_short_horizon=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            report = verify_proposition1(cfg)
        assert report.max_discrepancy <= 1e-6
        assert report.max_cost_rel_err <= 1e-9
        assert report.n_events >= 1


class TestSweep:
    def test_alpha_monotonicity_tendency(self, bench_cfg):
        cfg = dataclasses.replace(bench_cfg, T=40)
        report = run_alpha_sweep(cfg, alphas=[0.0, 5.0], seeds=[0])
        by_alpha = {row.alpha: row for row in report.rows}
        # alpha = 0 solves every step; a positive alpha must not solve more.
        assert by_alpha[0.0].event_fraction == 1.0
        assert by_alpha[5.0].event_fraction <= 1.0
        assert len(report.rows) == 2
        assert by_alpha[5.0].rmse.shape == (2,)

    def test_empty_grid_rejected(self, bench_cfg):
        with pytest.raises(ConfigurationError):
            run_alpha_sweep(bench_cfg, alphas=[], seeds=[0])


class TestBoundAndMetrics:
    def test_rges_bound_holds_on_short_run(self, bench_cfg, short_trace):
        constants = rges_constants(bench_cfg.cert, bench_cfg.alpha, bench_cfg.M)
        report = check_rges(short_trace, constants)
        assert report.n_violations == 0
        assert report.worst_margin <= 0
        assert report.n_checked == short_trace.T + 1

    def test_unconverged_event_steps_excluded(self, bench_cfg, short_trace):
        constants = rges_constants(bench_cfg.cert, bench_cfg.alpha, bench_cfg.M)
        t_event = int(np.flatnonzero(short_trace.gamma[1:])[0]) + 1
        t_silent = int(np.flatnonzero(short_trace.gamma == 0)[0])

        def inflated(t, converged):
            tr = dataclasses.replace(short_trace,
                                     err_norm=short_trace.err_norm.copy(),
                                     solver_converged=short_trace.solver_converged.copy())
            tr.err_norm[t] = 1e6
            tr.solver_converged[t] = converged
            return check_rges(tr, constants)

        report = inflated(t_event, converged=False)
        assert report.n_checked == short_trace.T
        assert report.n_violations == 0
        report = inflated(t_silent, converged=True)
        assert report.n_checked == short_trace.T + 1
        assert report.violation_times == [t_silent]
        assert report.worst_margin > 0

    def test_metrics_require_shared_realization(self, bench_cfg, short_trace):
        other = run_closed_loop(dataclasses.replace(bench_cfg, T=40, seed=1))
        with pytest.raises(ConfigurationError):
            performance_metrics(short_trace, other)

    def test_metrics_fields(self, bench_cfg, short_trace):
        std = run_closed_loop(dataclasses.replace(bench_cfg, T=40, alpha=0.0))
        m = performance_metrics(short_trace, std)
        assert m.event_fraction_std == 1.0
        assert 0.0 <= m.event_fraction_et <= 1.0
        assert m.solve_reduction_pct == pytest.approx(
            100.0 * (1.0 - short_trace.n_events / std.n_events))
        assert m.post_rmse_ratio > 0.0
        assert m.rmse_et.shape == (2,)


class TestPerfectInformation:
    def test_zero_noise_zero_initial_error(self, bench_cfg):
        cfg = dataclasses.replace(
            bench_cfg, T=30, xhat0=np.array([3.0, 1.0]),
            w_bounds=DisturbanceBounds(np.zeros(3)))
        trace = run_closed_loop(cfg)
        assert np.max(trace.err_norm) <= 1e-8
