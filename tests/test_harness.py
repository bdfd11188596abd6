"""Closed-loop simulation, oracle comparison, sweeps and metrics."""

import dataclasses
import warnings

import numpy as np
import pytest

from etmhe import (Box, ConfigurationError, DisturbanceBounds, IossCertificate,
                   SimConfig, SystemModel, assemble_event_solution, harness,
                   output, run_alpha_sweep, run_closed_loop, step, trigger,
                   verify_proposition1)
from etmhe.harness import POST_TRANSIENT_START, check_rges, performance_metrics
from etmhe.certificate import rges_constants
from etmhe.cli import trace_columns, write_trace_csv


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
        # previous one, bit for bit; alpha = 20 leaves long silences.
        model = short_cfg.model
        u, zero_w = np.zeros(model.m), np.zeros(model.q)
        long_silences = run_closed_loop(dataclasses.replace(short_cfg, alpha=20.0, T=150))
        assert np.sum(long_silences.gamma == 0) > 100
        for tr in (short_trace, long_silences):
            for t in np.flatnonzero(tr.gamma == 0):
                np.testing.assert_array_equal(tr.xhat[t],
                                              model.f(tr.xhat[t - 1], u, zero_w))

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
        # The estimator's open-loop fallback is the plant-side prediction
        # that extend made for the step.
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

    @pytest.mark.parametrize("alpha", [5.0, 20.0])
    def test_event_windows_crossed_the_channel(self, bench_cfg, alpha):
        # Each event at t sends the block [t - tx_count[t], t); the window it
        # solves on, [t - M_t, t), must lie in what has been sent so far.
        cfg = dataclasses.replace(bench_cfg, alpha=alpha, T=150)
        tr = run_closed_loop(cfg)
        sent = np.zeros(tr.T + 1, dtype=bool)
        events = np.flatnonzero(tr.gamma[1:]) + 1
        assert len(events) >= 3
        for t in events:
            sent[t - tr.tx_count[t]:t] = True
            assert sent[t - min(t, cfg.M):t].all()

    def test_warm_start_is_shifted_solution(self, bench_cfg, monkeypatch):
        # _warm_start must equal the last solution extended by open-loop
        # prediction, read at the new window's start, for a window that
        # starts inside, at the end of and past the last one.
        cfg = dataclasses.replace(bench_cfg, M=5, T=40, alpha=20.0,
                                  allow_short_horizon=True)
        branches = []
        warm_start = harness._warm_start

        def checked(prev_sol, prev_t, t, window):
            x_start, w_seq = warm_start(prev_sol, prev_t, t, window)
            delta = t - prev_t
            ext = assemble_event_solution(prev_sol, delta, cfg.model,
                                          np.zeros((delta, cfg.model.m)))
            offset = (t - window.horizon) - (prev_t - len(prev_sol.w_seq))
            np.testing.assert_array_equal(x_start, ext.x_seq[offset])
            np.testing.assert_array_equal(w_seq, ext.w_seq[offset:])
            branches.append(np.sign(offset - (len(prev_sol.x_seq) - 1)))
            return x_start, w_seq

        monkeypatch.setattr(harness, "_warm_start", checked)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            run_closed_loop(cfg)
        assert set(branches) == {-1, 0, 1}

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

    def test_w_bounds_dimension_checked(self, bench_cfg):
        for bounds in ([1e-3, 1e-3], [1e-3, 1e-3, 0.1, 0.1]):
            with pytest.raises(ConfigurationError, match="^w_bounds "):
                dataclasses.replace(bench_cfg,
                                    w_bounds=DisturbanceBounds(np.array(bounds)))

    def test_zero_horizon_rejected(self, bench_cfg):
        with pytest.raises(ConfigurationError, match="horizon must be at least 1"):
            dataclasses.replace(bench_cfg, M=0, T=5, allow_short_horizon=True)


def linear_model_3x2():
    """x+ = A x + B u + (w1, w2, w3), y = (x1 + w4, x2 + x3 + w5): n=3, m=1, q=5, p=2.

    Written coordinate by coordinate so that batched rows equal unbatched
    calls bit for bit. |A|_2 < 0.5, so V = |x - x'|^2 dissipates with
    eta = 0.5 and Q = 2 on the process noise.
    """
    A = np.array([[0.4, 0.1, 0.0], [0.0, 0.3, 0.1], [0.1, 0.0, 0.2]])
    B = np.array([1.0, 0.0, 0.5])

    def f(x, u, w):
        return np.stack([A[i, 0] * x[..., 0] + A[i, 1] * x[..., 1]
                         + A[i, 2] * x[..., 2] + B[i] * u[..., 0] + w[..., i]
                         for i in range(3)], axis=-1)

    def h(x, u, w):
        return np.stack([x[..., 0] + w[..., 3], x[..., 1] + x[..., 2] + w[..., 4]],
                        axis=-1)

    return SystemModel(n=3, m=1, q=5, p=2, f=f, h=h, x_set=Box.unbounded(3),
                       w_set=Box.unbounded(5))


class TestOtherShape:
    def test_closed_loop_n3_p2_m1(self, tmp_path):
        cert = IossCertificate(P1=np.eye(3), P2=np.eye(3),
                               Q=np.diag([2.0, 2.0, 2.0, 1.0, 1.0]), R=np.eye(2),
                               eta=0.5)
        cfg = SimConfig(model=linear_model_3x2(), cert=cert, M=4, alpha=5.0,
                        T=30, x0=np.array([1.0, -1.0, 2.0]), xhat0=np.zeros(3),
                        w_bounds=DisturbanceBounds(np.array([0.01, 0.01, 0.01,
                                                             0.05, 0.05])))
        tr = run_closed_loop(cfg)
        T = cfg.T
        assert tr.x.shape == tr.xhat.shape == (T + 1, 3)
        assert tr.y.shape == (T + 1, 2) and tr.w.shape == (T + 1, 5)
        assert tr.gamma.shape == tr.err_norm.shape == (T + 1,)
        assert tr.d.shape == (T + 2,)
        assert 1 <= tr.n_events < T
        # The plant rows are those of repeated step / output calls.
        u = np.zeros(1)
        for t in range(T + 1):
            np.testing.assert_array_equal(tr.y[t], output(cfg.model, tr.x[t], u, tr.w[t]))
            if t < T:
                np.testing.assert_array_equal(
                    tr.x[t + 1], step(cfg.model, tr.x[t], u, tr.w[t]))
        report = check_rges(tr, rges_constants(cert, cfg.alpha, cfg.M))
        assert report.n_steps == T + 1 and report.n_violations == 0
        out = tmp_path / "trace.csv"
        write_trace_csv(tr, out)
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(trace_columns(3, 2))
        assert len(lines) == T + 2


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
        rows = run_alpha_sweep(cfg, alphas=[0.0, 5.0], seeds=[0])
        by_alpha = {row.alpha: row for row in rows}
        # alpha = 0 solves every step; a positive alpha must not solve more.
        assert by_alpha[0.0].event_fraction == 1.0
        assert by_alpha[5.0].event_fraction <= 1.0
        assert len(rows) == 2
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
