"""Closed-loop simulation, oracle comparison, sweeps and metrics."""

import dataclasses
import re

import numpy as np
import pytest

from etmhe import (Box, ConfigurationError, IossCertificate, MheWindow,
                   SimConfig, SystemModel, assemble_event_solution,
                   cost_residuals, eval_cost, harness, rollout, run_alpha_sweep,
                   run_closed_loop, run_closed_loop_batch, sample_disturbance,
                   solve_nlp, trigger, verify_proposition1)
from etmhe.harness import POST_TRANSIENT_START, check_rges, performance_metrics
from etmhe.certificate import rges_constants
from etmhe.cli import trace_columns, write_trace_csv

from test_mhe import scalar_cert, scalar_linear_model


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
        zero_w = np.zeros(model.q)
        long_silences = run_closed_loop(dataclasses.replace(short_cfg, alpha=20.0, T=150))
        assert np.sum(long_silences.gamma == 0) > 100
        for tr in (short_trace, long_silences):
            for t in np.flatnonzero(tr.gamma == 0):
                np.testing.assert_array_equal(tr.xhat[t],
                                              model.f(tr.xhat[t - 1], zero_w))

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

        def recording(state, *args):
            new = trigger.extend(state, *args)
            preds[new.t] = new.pred
            return new

        monkeypatch.setattr(harness, "extend", recording)
        tr = run_closed_loop(short_cfg)
        # One extend per step, each moving the clock on by one.
        assert sorted(preds) == list(range(1, tr.T + 1))
        silent = np.flatnonzero(tr.gamma == 0).tolist()
        assert silent
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
        # Each event's warm start is the last solution shifted to the new
        # window's start: its state there, or the open-loop estimate held in
        # the prior once the window starts past it, and its disturbances
        # from there on, zero-padded. Checked for a window that starts
        # inside, at the end of and past the last solution.
        cfg = dataclasses.replace(bench_cfg, M=5, T=40, alpha=20.0)
        calls = []
        solve_batch = harness.solve_nlp_batch

        def recording(problems, model):
            sols = solve_batch(problems, model)
            calls.extend((window, warm, sol)
                         for (window, _, _, warm), sol in zip(problems, sols))
            return sols

        monkeypatch.setattr(harness, "solve_nlp_batch", recording)
        tr = run_closed_loop(cfg)
        events = (np.flatnonzero(tr.gamma[1:]) + 1).tolist()
        assert len(calls) == len(events)
        assert calls[0][1] is None
        branches = []
        for i in range(1, len(events)):
            prev_t, t = events[i - 1], events[i]
            prev = calls[i - 1][2]
            window, warm, _ = calls[i]
            Mt = window.horizon
            offset = (t - Mt) - (prev_t - len(prev.w_seq))
            x_ref = prev.x_seq[offset] if offset < len(prev.x_seq) else tr.xhat[t - Mt]
            kept = prev.w_seq[offset:]
            w_ref = np.vstack([kept, np.zeros((Mt - len(kept), cfg.model.q))])
            np.testing.assert_array_equal(warm[0], x_ref)
            np.testing.assert_array_equal(warm[1], w_ref)
            branches.append(np.sign(offset - (len(prev.x_seq) - 1)))
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

    def test_w_set_must_be_finite(self, bench_cfg):
        # The plant draws its disturbances from the model's W.
        b = np.array([1e-3, 1e-3, 0.1])
        for lower, upper in ((-b, [1e-3, np.inf, 0.1]), ([-np.inf, -1e-3, -0.1], b)):
            model = dataclasses.replace(bench_cfg.model, w_set=Box(lower, upper))
            with pytest.raises(ConfigurationError, match="^w_set must be finite"):
                dataclasses.replace(bench_cfg, model=model)

    def test_disturbances_lie_in_w_set(self, bench_cfg):
        # The plant, the solver's constraint and the certificate share one W.
        runs = run_alpha_sweep(bench_cfg, [bench_cfg.alpha], range(4))
        other_shape = linear_3x2_cfg()
        runs.append((other_shape, run_closed_loop(other_shape)))
        for cfg, tr in runs:
            assert len(tr.w) == cfg.T + 1
            assert all(cfg.model.w_set.contains(w) for w in tr.w), cfg.seed

    def test_zero_horizon_rejected(self, bench_cfg):
        with pytest.raises(ConfigurationError, match="horizon must be at least 1"):
            dataclasses.replace(bench_cfg, M=0, T=5)

    def test_zero_length_rejected(self, bench_cfg):
        with pytest.raises(ConfigurationError,
                           match="^simulation length must be at least 1$"):
            dataclasses.replace(bench_cfg, T=0)

    @pytest.mark.parametrize("field", ["x0", "xhat0"])
    def test_initial_state_checked(self, bench_cfg, field):
        with pytest.raises(ConfigurationError, match=f"^{field} has wrong dimension$"):
            dataclasses.replace(bench_cfg, **{field: np.array([1.0, 2.0, 3.0])})
        # The batch reactor's X is the nonnegative quadrant.
        with pytest.raises(ConfigurationError,
                           match=f"^{field} outside the admissible state set$"):
            dataclasses.replace(bench_cfg, **{field: np.array([-0.1, 2.0])})

    @pytest.mark.parametrize("field,value", [("M", 2.5), ("M", np.float64(5.0)),
                                             ("M", 20.5), ("T", 10.5),
                                             ("seed", 2.5)])
    def test_non_integral_sizes_rejected(self, bench_cfg, field, value):
        # Rejected up front, not as an IndexError or TypeError inside the loop.
        message = re.escape(f"{field} must be an integer, got {value!r}")
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            dataclasses.replace(bench_cfg, **{field: value})
        if field == "M":  # nor are there error-bound constants for it
            with pytest.raises(ConfigurationError, match="^M must be an integer"):
                rges_constants(bench_cfg.cert, 5.0, value)
        if field == "seed":  # nor does a sweep truncate it
            with pytest.raises(ConfigurationError, match=f"^{message}$"):
                run_alpha_sweep(bench_cfg, [5.0], [value])


A_3X2 = np.array([[0.4, 0.1, 0.0], [0.0, 0.3, 0.1], [0.1, 0.0, 0.2]])


def linear_model_3x2():
    """x+ = A x + (w1, w2, w3), y = (x1 + w4, x2 + x3 + w5): n=3, q=5, p=2,
    with W = [-b, b], b = (0.01, 0.01, 0.01, 0.05, 0.05).

    Written coordinate by coordinate so that batched rows equal unbatched
    calls bit for bit. |A|_2 < 0.5, so V = |x - x'|^2 dissipates with
    eta = 0.5 and Q = 2 on the process noise.
    """
    A = A_3X2

    def f(x, w):
        return np.stack([A[i, 0] * x[..., 0] + A[i, 1] * x[..., 1]
                         + A[i, 2] * x[..., 2] + w[..., i]
                         for i in range(3)], axis=-1)

    def h(x, w):
        return np.stack([x[..., 0] + w[..., 3], x[..., 1] + x[..., 2] + w[..., 4]],
                        axis=-1)

    b = np.array([0.01, 0.01, 0.01, 0.05, 0.05])
    return SystemModel(n=3, q=5, p=2, f=f, h=h, x_set=Box.unbounded(3),
                       w_set=Box(-b, b))


def linear_3x2_cfg():
    cert = IossCertificate(P1=np.eye(3), P2=np.eye(3),
                           Q=np.diag([2.0, 2.0, 2.0, 1.0, 1.0]), R=np.eye(2),
                           eta=0.5)
    return SimConfig(model=linear_model_3x2(), cert=cert, M=4, alpha=5.0,
                     T=30, x0=np.array([1.0, -1.0, 2.0]), xhat0=np.zeros(3))


class TestOtherShape:
    def test_closed_loop_n3_p2_m1(self, tmp_path):
        cfg = linear_3x2_cfg()
        cert = cfg.cert
        tr = run_closed_loop(cfg)
        T = cfg.T
        assert tr.x.shape == tr.xhat.shape == (T + 1, 3)
        assert tr.y.shape == (T + 1, 2) and tr.w.shape == (T + 1, 5)
        assert tr.gamma.shape == tr.err_norm.shape == (T + 1,)
        assert tr.d.shape == (T + 2,)
        assert 1 <= tr.n_events < T
        # The plant rows are those of repeated f / h calls.
        for t in range(T + 1):
            np.testing.assert_array_equal(tr.y[t], cfg.model.h(tr.x[t], tr.w[t]))
            if t < T:
                np.testing.assert_array_equal(tr.x[t + 1], cfg.model.f(tr.x[t], tr.w[t]))
        constants = rges_constants(cert, cfg.alpha, cfg.M)
        report = check_rges(tr, constants)
        assert report.n_checked == T + 1 and report.n_violations == 0
        out = tmp_path / "trace.csv"
        write_trace_csv(tr, constants, out)
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(trace_columns(3, 2))
        assert len(lines) == T + 2

    def test_solves_equal_least_squares_on_linear_model(self, monkeypatch):
        # On a linear model the window cost is a linear least-squares
        # problem. Each of the 515 event solves of a sweep is re-solved from
        # its warm start with W widened, since at the unconstrained optimum
        # the box binds in 313 of them. It must match np.linalg.lstsq on the
        # residual map, whose columns are exact differences. Measured: 1.2e-7
        # relative at most, median 3.4e-8.
        recorded = []
        solve_batch = harness.solve_nlp_batch

        def recording(problems, model):
            recorded.extend(problems)
            return solve_batch(problems, model)

        monkeypatch.setattr(harness, "solve_nlp_batch", recording)
        cfg = dataclasses.replace(linear_3x2_cfg(), T=60)
        run_alpha_sweep(cfg, (0.0, 5.0), range(6))
        model = dataclasses.replace(cfg.model, w_set=Box(np.full(5, -1e6), np.full(5, 1e6)))
        n, q = model.n, model.q
        errs = []
        for window, cert, alpha, warm in recorded:
            sol = solve_nlp(window, model, cert, alpha, warm)
            assert sol.converged
            # The residuals of z = 0 and of each unit vector, in one rollout.
            nz = n + window.horizon * q
            Z = np.vstack([np.zeros(nz), np.eye(nz)])
            x_init, w_seq = Z[:, :n], Z[:, n:].reshape(nz + 1, -1, q)
            R = cost_residuals(window, cert, alpha)(
                x_init, w_seq, rollout(model, x_init, w_seq)[1])
            z_opt = np.linalg.lstsq((R[1:] - R[0]).T, -R[0], rcond=None)[0]
            z = np.concatenate([sol.x_init, sol.w_seq.ravel()])
            errs.append(np.linalg.norm(z - z_opt) / np.linalg.norm(z_opt))
        assert len(errs) > 500
        assert max(errs) < 1e-6


class TestLockstepBatch:
    @staticmethod
    def assert_equal_to_serial(cfgs, batch):
        assert len(batch) == len(cfgs)
        for cfg, trace in zip(cfgs, batch):
            serial = run_closed_loop(cfg)
            for field in dataclasses.fields(trace):
                assert np.array_equal(getattr(trace, field.name),
                                      getattr(serial, field.name), equal_nan=True), \
                    (cfg.alpha, cfg.seed, field.name)

    def test_mixed_alphas_match_serial(self, short_cfg, monkeypatch):
        # run_alpha_sweep steps the whole grid, alpha-major, in one batch.
        sizes = []
        real = harness.run_closed_loop_batch

        def counted(cfgs):
            sizes.append(len(cfgs))
            return real(cfgs)

        monkeypatch.setattr(harness, "run_closed_loop_batch", counted)
        cfgs, batch = zip(*run_alpha_sweep(short_cfg, (0.0, 5.0, 20.0), (0, 1)))
        assert sizes == [6]
        assert [(c.alpha, c.seed) for c in cfgs] == [
            (a, seed) for a in (0.0, 5.0, 20.0) for seed in (0, 1)]
        self.assert_equal_to_serial(cfgs, batch)
        # Apart from the two alpha = 0 runs, which fire at every step, the
        # runs fire at different steps.
        assert len({tuple(tr.gamma) for tr in batch}) == len(cfgs) - 1

    def test_n3_p2_m1_model_matches_serial(self):
        cfg = linear_3x2_cfg()
        cfgs = [dataclasses.replace(cfg, alpha=alpha, seed=seed)
                for alpha in (0.0, 5.0) for seed in (0, 1)]
        self.assert_equal_to_serial(cfgs, run_closed_loop_batch(cfgs))

    def test_matmul_model_matches_serial_to_rounding(self):
        # The same model written as x @ A.T + w: a batched matmul may round
        # a row differently from the unbatched one, so lockstep runs equal
        # separate runs only to rounding. They must still fire at the same
        # steps; the tolerance on the estimates was fixed before measuring.
        C = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        cfg = linear_3x2_cfg()
        model = dataclasses.replace(cfg.model, f=lambda x, w: x @ A_3X2.T + w[..., :3],
                                    h=lambda x, w: x @ C.T + w[..., 3:])
        cfgs = [dataclasses.replace(cfg, model=model, T=60, alpha=alpha, seed=seed)
                for alpha in (0.0, 5.0) for seed in range(6)]
        for cfg, trace in zip(cfgs, run_closed_loop_batch(cfgs)):
            serial = run_closed_loop(cfg)
            assert np.array_equal(trace.gamma, serial.gamma), (cfg.alpha, cfg.seed)
            np.testing.assert_allclose(trace.xhat, serial.xhat, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("field,value", [("M", 20), ("T", 41),
                                             ("model", None), ("cert", None)])
    def test_runs_must_share_model_cert_horizon_and_length(self, short_cfg,
                                                          field, value):
        if value is None:  # an equal copy is not the same object
            value = dataclasses.replace(getattr(short_cfg, field))
        other = dataclasses.replace(short_cfg, **{field: value})
        with pytest.raises(ConfigurationError, match="must share"):
            run_closed_loop_batch([short_cfg, other])

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one run"):
            run_closed_loop_batch([])


class TestOracleEquivalence:
    def test_small_case(self, bench_cfg):
        report = verify_proposition1(dataclasses.replace(bench_cfg, M=5, T=25))
        assert report.max_discrepancy <= 1e-6
        assert report.max_cost_rel_err <= 1e-9
        assert report.n_events >= 1

    @pytest.mark.parametrize("M,seed", [(30, 3), (5, 0)])
    def test_silent_step_is_extended_event_solution(self, bench_cfg, monkeypatch,
                                                    M, seed):
        # Prop 1 without a solver in the loop: at a silent step t, the last
        # event's solution extended by delta_t nominal steps costs, on that
        # event's window grown by delta_t unmeasured steps, eta^delta_t times
        # the event's optimum (measured: at most 6.1e-16 relative error), and
        # its estimate is the trace's, bit for bit.
        cfg = dataclasses.replace(bench_cfg, M=M, seed=seed)
        solved = []
        real = harness.solve_nlp_batch

        def recording(problems, model):
            sols = real(problems, model)
            solved.extend(zip([window for window, *_ in problems], sols))
            return sols

        monkeypatch.setattr(harness, "solve_nlp_batch", recording)
        trace = run_closed_loop(cfg)
        events = (np.flatnonzero(trace.gamma[1:]) + 1).tolist()
        assert len(solved) == len(events)
        by_event = dict(zip(events, solved))
        silent = np.flatnonzero(trace.gamma == 0)
        assert len(silent) > 50
        for t in silent:
            dt = int(trace.delta[t])
            window, sol = by_event[int(trace.eps[t])]
            ext = assemble_event_solution(sol, dt, cfg.model, cfg.cert.eta)
            cost = eval_cost(dataclasses.replace(window, delta=dt), ext.x_init,
                             ext.w_seq, cfg.model, cfg.cert, cfg.alpha)
            assert cost == pytest.approx(ext.cost, rel=1e-12, abs=0.0), t
            assert np.array_equal(ext.estimate, trace.xhat[t]), t


def serial_proposition1(cfg):
    """verify_proposition1 as one solve_nlp per step, in t order."""
    trace = run_closed_loop(cfg)
    xhat, cost = trace.xhat.copy(), np.full(cfg.T + 1, np.nan)
    max_disc = max_cost_err = 0.0
    for t in range(1, cfg.T + 1):
        dt = int(trace.delta[t])
        start = t - min(t, cfg.M + dt)
        window = MheWindow(delta=dt, prior=xhat[start],
                           measurements=trace.y[start:t - dt])
        sol = solve_nlp(window, cfg.model, cfg.cert, cfg.alpha)
        xhat[t], cost[t] = sol.estimate, sol.cost
        max_disc = max(max_disc, float(np.max(np.abs(xhat[t] - trace.xhat[t]))))
        if dt > 0:
            ref = cfg.cert.eta ** dt * cost[int(trace.eps[t])]
            max_cost_err = max(max_cost_err, abs(sol.cost - ref) / max(abs(ref), 1e-30))
    return max_disc, max_cost_err, trace.n_events


class TestChunkedOracle:
    @pytest.mark.parametrize("M", [1, 2, 5])
    def test_equals_serial_reference(self, bench_cfg, M):
        # At M = 1 an event step's window starts at the step before it, so a
        # chunk of two steps would read a prior not yet solved.
        cfg = dataclasses.replace(bench_cfg, M=M, T=40)
        report = verify_proposition1(cfg)
        expected = serial_proposition1(cfg)
        assert np.array_equal(dataclasses.astuple(report), expected)

    @pytest.mark.parametrize("field", ["xhat", "cost"])
    def test_nan_is_reported(self, short_cfg, monkeypatch, field):
        # The builtin max(0.0, nan) is 0.0; the report must not drop a NaN.
        real_loop, real_batch = harness.run_closed_loop, harness.solve_nlp_batch

        def nan_trace(cfg):
            trace = real_loop(cfg)
            trace.xhat[7] = np.nan
            return trace

        def nan_cost(problems, model):
            return [dataclasses.replace(sol, cost=np.nan)
                    for sol in real_batch(problems, model)]

        if field == "xhat":
            monkeypatch.setattr(harness, "run_closed_loop", nan_trace)
        else:
            monkeypatch.setattr(harness, "solve_nlp_batch", nan_cost)
        report = verify_proposition1(short_cfg)
        value = (report.max_discrepancy if field == "xhat"
                 else report.max_cost_rel_err)
        assert np.isnan(value)


class TestSweep:
    def test_alpha_monotonicity_tendency(self, bench_cfg):
        cfg = dataclasses.replace(bench_cfg, T=40)
        runs = run_alpha_sweep(cfg, alphas=[0.0, 5.0], seeds=[0, 1])
        assert [(run.alpha, run.seed) for run, _ in runs] == [
            (0.0, 0), (0.0, 1), (5.0, 0), (5.0, 1)]
        # alpha = 0 solves every step; a positive alpha must not solve more.
        for (_, std), (et_cfg, et) in zip(runs[:2], runs[2:]):
            assert std.event_fraction == 1.0
            assert et.event_fraction <= 1.0
            # Each run is the separate run of its config, bit for bit.
            np.testing.assert_array_equal(et.gamma, run_closed_loop(et_cfg).gamma)
            np.testing.assert_array_equal(et.w, std.w)
        for _, trace in runs:
            assert trace.gamma.shape == (cfg.T + 1,)

    def test_empty_grid_rejected(self, bench_cfg):
        with pytest.raises(ConfigurationError):
            run_alpha_sweep(bench_cfg, alphas=[], seeds=[0])

    @pytest.mark.parametrize("alphas,seeds", [([5, 5.0], [0]), ([0.0, 5.0], [1, 1]),
                                              ([5.0], [np.int64(1), 1])])
    def test_repeated_point_rejected(self, bench_cfg, alphas, seeds):
        # Two runs under one (alpha, seed) key would merge in any keyed reader.
        with pytest.raises(ConfigurationError, match="repeat an alpha or a seed"):
            run_alpha_sweep(bench_cfg, alphas=alphas, seeds=seeds)


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

    def test_nan_error_is_violation(self, bench_cfg, short_trace):
        constants = rges_constants(bench_cfg.cert, bench_cfg.alpha, bench_cfg.M)
        t = int(np.flatnonzero(short_trace.gamma == 0)[0])
        tr = dataclasses.replace(short_trace, err_norm=short_trace.err_norm.copy())
        tr.err_norm[t] = np.nan
        report = check_rges(tr, constants)
        assert report.n_violations == 1 and report.violation_times == [t]
        assert np.isnan(report.worst_margin)

    def test_metrics_require_shared_realization(self, bench_cfg, short_trace):
        other = run_closed_loop(dataclasses.replace(bench_cfg, T=40, seed=1))
        with pytest.raises(ConfigurationError, match="different realizations"):
            performance_metrics(short_trace, other)
        # A longer run of the same seed has a different realization too.
        longer = run_closed_loop(dataclasses.replace(bench_cfg, T=41))
        with pytest.raises(ConfigurationError, match="different realizations"):
            performance_metrics(short_trace, longer)

    def test_metrics_need_post_transient_steps(self, bench_cfg):
        cfg = dataclasses.replace(bench_cfg, T=20)
        et, std = run_closed_loop_batch([cfg, dataclasses.replace(cfg, alpha=0.0)])
        with pytest.raises(ConfigurationError,
                           match=f"cut at t = {POST_TRANSIENT_START}"):
            performance_metrics(et, std)

    def test_metrics_fields(self, bench_cfg, short_trace):
        std = run_closed_loop(dataclasses.replace(bench_cfg, T=40, alpha=0.0))
        m = performance_metrics(short_trace, std)
        assert m.solve_reduction_pct == pytest.approx(
            100.0 * (1.0 - short_trace.n_events / std.n_events))
        assert m.post_rmse_ratio > 0.0


class TestPerfectInformation:
    def test_zero_noise_zero_initial_error(self, bench_cfg, zero_disturbance):
        cfg = dataclasses.replace(bench_cfg, T=30, xhat0=np.array([3.0, 1.0]))
        trace = run_closed_loop(cfg)
        assert np.max(trace.err_norm) <= 1e-8



class TestLongSilence:
    @pytest.mark.parametrize("alpha,first", [(5.0, 1069), (1e300, 1076)])
    def test_silence_ends_when_threshold_underflows(self, alpha, first,
                                                    zero_disturbance):
        # x+ = w with no disturbance: the event at t = 1 makes the estimate
        # exact, so the residual sum stays exactly 0 and the silence lasts
        # until eta^(t - eps) in the threshold alpha * eta^(t - eps) * d
        # underflows to 0, where equality fires. Any warning on the way is
        # an error under the suite's filter.
        model = dataclasses.replace(scalar_linear_model(a=0.0),
                                    w_set=Box(-np.ones(2), np.ones(2)))
        cfg = SimConfig(model=model, cert=scalar_cert(eta=0.5), M=3, alpha=alpha,
                        T=1200, x0=np.array([1.0]), xhat0=np.array([0.0]))
        tr = run_closed_loop(cfg)
        assert np.all(np.isfinite(tr.xhat))
        events = np.flatnonzero(tr.gamma[1:]) + 1
        assert events[:2].tolist() == [1, first]
        assert np.all(tr.trigger_lhs[2:first + 1] == 0.0)
        assert tr.trigger_threshold[first - 1] > 0.0 and tr.gamma[first - 1] == 0
        assert tr.trigger_threshold[first] == 0.0 and tr.gamma[first] == 1
        if alpha == 5.0:
            # The last silent step sits on the smallest subnormal.
            assert tr.trigger_threshold[first - 1] == 5e-324

class TestEventOptimality:
    @pytest.mark.parametrize("alpha", [0.0, 5.0])
    def test_event_cost_at_most_true_cost(self, bench_cfg, alpha):
        # The proof's first inequality: the true initial state and
        # disturbances of a window are feasible, so the optimal cost of an
        # event's window cannot exceed their cost. A failed or early-stopped
        # solve shows here.
        cfgs = [dataclasses.replace(bench_cfg, alpha=alpha, seed=seed)
                for seed in range(4)]
        worst = 0.0
        for cfg, tr in zip(cfgs, run_closed_loop_batch(cfgs)):
            for t in np.flatnonzero(tr.gamma[1:]) + 1:
                start = t - min(t, cfg.M)
                window = MheWindow(delta=0, prior=tr.xhat[start],
                                   measurements=tr.y[start:t])
                true_cost = eval_cost(window, tr.x[start], tr.w[start:t],
                                      cfg.model, cfg.cert, alpha)
                assert tr.cost[t] <= true_cost, (cfg.seed, t)
                worst = max(worst, tr.cost[t] / true_cost)
        print(f"alpha {alpha:g}: largest optimal/true cost ratio {worst:.3f}")


class TestStandardMhe:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_alpha_zero_is_standard_mhe(self, bench_cfg, seed):
        # A plain always-solve MHE loop, written here from solve_nlp: the
        # window of step t is y[t-Mt:t] with prior xhat[t-Mt], warm-started
        # from the previous solution shifted to the new window start.
        cfg = dataclasses.replace(bench_cfg, alpha=0.0, seed=seed)
        model, T, M = cfg.model, cfg.T, cfg.M
        w = sample_disturbance(np.random.default_rng(seed), cfg.model.w_set, T + 1)
        x, y = [cfg.x0], []
        for t in range(T + 1):
            y.append(model.h(x[t], w[t]))
            x.append(model.f(x[t], w[t]))
        y = np.array(y)
        xhat = [cfg.xhat0]
        prev, prev_start = None, 0
        for t in range(1, T + 1):
            start = t - min(t, M)
            window = MheWindow(delta=0, prior=xhat[start], measurements=y[start:t])
            warm = None
            if prev is not None:
                shift = start - prev_start
                kept = prev.w_seq[shift:]
                warm = (prev.x_seq[shift],
                        np.vstack([kept, np.zeros((t - start - len(kept), model.q))]))
            prev = solve_nlp(window, model, cfg.cert, 0.0, warm)
            prev_start = start
            xhat.append(prev.estimate)
        trace = run_closed_loop(cfg)
        assert np.array_equal(trace.y, y)
        assert np.array_equal(trace.xhat, np.array(xhat))
