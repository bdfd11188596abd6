"""Event-triggering mechanism: decision rule, threshold statistic, bookkeeping."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from etmhe import (EtmState, MheWindow, TriggerError, advance, compute_d,
                   evaluate_trigger, extend, output, sample_disturbance,
                   solve_nlp, step)
from etmhe.model import DisturbanceBounds


def simulate(bench_model, t, seed=5):
    rng = np.random.default_rng(seed)
    bounds = DisturbanceBounds(np.array([1e-3, 1e-3, 0.1]))
    x = np.array([3.0, 1.0])
    ys, ws = [], []
    for _ in range(t):
        w = sample_disturbance(rng, bounds)
        ws.append(w)
        ys.append(output(bench_model, x, np.zeros(0), w))
        x = step(bench_model, x, np.zeros(0), w)
    return np.array(ys), np.array(ws)


class TestInitialState:
    def test_defaults(self):
        state = EtmState.initial(5.0, np.array([0.1, 4.5]))
        assert (state.t, state.eps, state.d) == (1, 0, 0.0)
        assert state.lhs == 0.0
        np.testing.assert_array_equal(state.pred, [0.1, 4.5])


def run_silence(state, model, cert, ys):
    """Feed ys to the trigger as consecutive silent steps; the state after
    the last extend is ready for the decision at time eps + len(ys)."""
    for k, y in enumerate(ys):
        if k:
            state = advance(state, False)
        state = extend(state, model, y, np.zeros(model.m), cert)
    return state


def explicit_lhs(model, cert, anchor, ys):
    """Oracle: sum_k eta^(span-1-k) |y_k - h(f^k(anchor))|_R^2 and the final
    prediction f^span(anchor), from the plant equations directly."""
    x, resids = anchor, []
    for y in ys:
        r = y - output(model, x, np.zeros(0), np.zeros(model.q))
        resids.append(float(r @ cert.R @ r))
        x = step(model, x, np.zeros(0), np.zeros(model.q))
    span = len(ys)
    return float(np.sum(cert.eta ** np.arange(span - 1, -1, -1.0)
                        * np.array(resids))), x


class TestEvaluateTrigger:
    def test_zero_threshold_always_fires(self, bench_model, bench_cert):
        # d = 0 makes the threshold zero, and the residual sum is >= 0,
        # so the comparison can never be strictly below it.
        state = EtmState.initial(5.0, np.array([0.1, 4.5]))
        ys, _ = simulate(bench_model, 1)
        state = extend(state, bench_model, ys[0], np.zeros(0), bench_cert)
        assert evaluate_trigger(state, bench_cert)
        # Equality fires too: a perfect prediction gives lhs == 0 == threshold.
        x = np.array([3.0, 1.0])
        y = output(bench_model, x, np.zeros(0), np.zeros(3))
        state = extend(EtmState.initial(5.0, x), bench_model, y, np.zeros(0),
                       bench_cert)
        assert state.lhs == 0.0 == state.threshold(bench_cert.eta)
        assert evaluate_trigger(state, bench_cert)

    def test_alpha_zero_always_fires(self, bench_model, bench_cert):
        state = EtmState(t=4, eps=1, d=100.0, alpha=0.0,
                         pred=np.array([2.0, 1.5]))
        ys, _ = simulate(bench_model, 4)
        state = extend(state, bench_model, ys[3], np.zeros(0), bench_cert)
        assert evaluate_trigger(state, bench_cert)

    def test_perfect_prediction_with_margin_stays_silent(self, bench_model,
                                                         bench_cert):
        # Residuals are exactly zero when the anchor reproduces the plant
        # and there is no measurement noise; any positive threshold wins.
        x = np.array([3.0, 1.0])
        state = EtmState(t=2, eps=1, d=1.0, alpha=5.0, pred=x)
        for _ in range(3):
            y = output(bench_model, x, np.zeros(0), np.zeros(3))
            x = step(bench_model, x, np.zeros(0), np.zeros(3))
            state = extend(state, bench_model, y, np.zeros(0), bench_cert)
            assert state.lhs == 0.0
            assert not evaluate_trigger(state, bench_cert)
            state = advance(state, False)

    def test_residual_accumulation_matches_hand_sum(self, bench_model,
                                                    bench_cert):
        # One discounted term per step since the last event, oldest first.
        anchor = np.array([2.5, 1.2])
        state = EtmState(t=2, eps=1, d=1e12, alpha=1.0, pred=anchor)
        ys, _ = simulate(bench_model, 3)
        x = anchor
        lhs = 0.0
        eta = bench_cert.eta
        for k, j in enumerate(range(1, 3)):
            resid = ys[j] - output(bench_model, x, np.zeros(0), np.zeros(3))
            lhs += eta ** (1 - k) * 1e3 * float(resid @ resid)
            x = step(bench_model, x, np.zeros(0), np.zeros(3))
        threshold = 1.0 * eta ** 2 * 1e12
        state = run_silence(state, bench_model, bench_cert, ys[1:3])
        assert state.lhs == pytest.approx(lhs, rel=1e-14)
        assert state.threshold(eta) == threshold
        np.testing.assert_array_equal(state.pred, x)
        assert evaluate_trigger(state, bench_cert) == (not lhs < threshold)

    def test_window_length_checked(self, bench_model, bench_cert):
        # extend takes the newest measurement only, not a window since eps.
        state = EtmState.initial(5.0, np.array([0.1, 4.5]))
        with pytest.raises(TriggerError):
            extend(state, bench_model, np.zeros((2, 1)), np.zeros(0),
                   bench_cert)

    @settings(max_examples=15, deadline=None)
    @given(anchor=arrays(float, 2, elements=st.floats(0.0, 10.0)),
           seed=st.integers(0, 2 ** 32 - 1), span=st.integers(1, 10_000))
    @example(anchor=np.array([0.1, 4.5]), seed=0, span=10_000)
    def test_running_sum_matches_explicit_sum(self, bench_model, bench_cert,
                                              anchor, seed, span):
        # Long enough for eta**span to underflow at eta = 0.91, where the
        # threshold is 0 and the step must fire.
        ys = np.random.default_rng(seed).uniform(0.0, 5.0, (span, 1))
        state = EtmState(t=1, eps=0, d=1e3, alpha=5.0, pred=anchor)
        state = run_silence(state, bench_model, bench_cert, ys)
        lhs, pred = explicit_lhs(bench_model, bench_cert, anchor, ys)
        assert state.t - state.eps == span
        assert state.lhs == pytest.approx(lhs, rel=1e-12)
        np.testing.assert_array_equal(state.pred, pred)
        if bench_cert.eta ** span == 0.0:
            assert state.threshold(bench_cert.eta) == 0.0
            assert evaluate_trigger(state, bench_cert)


class TestComputeD:
    def test_matches_cost_decomposition(self, bench_model, bench_cert):
        # At an event the statistic equals the discounted stage cost of the
        # solved window: (J - prior term) / (alpha + 1).
        t, alpha = 10, 5.0
        ys, _ = simulate(bench_model, t)
        window = MheWindow(delta=0, prior=np.array([0.1, 4.5]),
                           measurements=ys, inputs=np.zeros((t, 0)))
        sol = solve_nlp(window, bench_model, bench_cert, alpha)
        d = compute_d(sol, window, bench_cert)
        dp = sol.x_init - window.prior
        prior_term = 2.0 * bench_cert.eta ** t * float(dp @ bench_cert.P2 @ dp)
        expected = (sol.cost - prior_term) / (alpha + 1.0)
        assert d == pytest.approx(expected, rel=1e-9)
        assert d >= 0.0

    @pytest.mark.parametrize("t", [10, 40])
    def test_matches_explicit_sum(self, bench_model, bench_cert, t):
        # M_t = 10 < M and M_t = M = 30.
        ys, _ = simulate(bench_model, t)
        window = MheWindow(delta=0, prior=np.array([0.1, 4.5]),
                           measurements=ys[-min(t, 30):],
                           inputs=np.zeros((min(t, 30), 0)))
        sol = solve_nlp(window, bench_model, bench_cert, 5.0)
        eta, Mt = bench_cert.eta, window.horizon
        d = 0.0
        for k in range(Mt):
            w = sol.w_seq[k]
            dy = sol.y_seq[k] - window.measurements[k]
            d += eta ** (Mt - 1 - k) * (2.0 * float(w @ bench_cert.Q @ w)
                                        + float(dy @ bench_cert.R @ dy))
        assert compute_d(sol, window, bench_cert) == pytest.approx(d, rel=1e-12)

    def test_event_time_only(self, bench_model, bench_cert):
        ys, _ = simulate(bench_model, 6)
        window = MheWindow(delta=2, prior=np.array([0.1, 4.5]),
                           measurements=ys[:4], inputs=np.zeros((6, 0)))
        sol = solve_nlp(window, bench_model, bench_cert, 5.0)
        with pytest.raises(TriggerError):
            compute_d(sol, window, bench_cert)


class TestAdvance:
    def test_event_resets_bookkeeping(self):
        state = EtmState(t=7, eps=3, d=2.0, alpha=5.0,
                         pred=np.zeros(2), lhs=3.0)
        new = advance(state, True, d_next=0.5, x_new=np.array([1.0, 2.0]))
        assert (new.t, new.eps, new.d) == (8, 7, 0.5)
        assert new.lhs == 0.0
        np.testing.assert_array_equal(new.pred, [1.0, 2.0])

    def test_silence_increments_delta_and_keeps_d(self):
        state = EtmState(t=7, eps=3, d=2.0, alpha=5.0,
                         pred=np.zeros(2), lhs=3.0)
        new = advance(state, False)
        # The silence t - eps grows by one step; d and the residual sum stay.
        assert (new.t, new.eps, new.d, new.lhs) == (8, 3, 2.0, 3.0)
        np.testing.assert_array_equal(new.pred, state.pred)

    def test_event_requires_payload(self):
        state = EtmState.initial(5.0, np.zeros(2))
        with pytest.raises(TriggerError):
            advance(state, True)
        with pytest.raises(TriggerError):
            advance(state, True, d_next=-1.0, x_new=np.zeros(2))

    @pytest.mark.parametrize("d_next", [np.nan, np.inf])
    def test_non_finite_threshold_rejected(self, d_next):
        state = EtmState.initial(5.0, np.zeros(2))
        with pytest.raises(TriggerError):
            advance(state, True, d_next=d_next, x_new=np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_estimate_rejected(self, bad):
        state = EtmState.initial(5.0, np.zeros(2))
        with pytest.raises(TriggerError):
            advance(state, True, d_next=0.5, x_new=np.array([1.0, bad]))
