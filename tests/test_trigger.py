"""Event-triggering mechanism: decision rule, threshold statistic, bookkeeping."""

import numpy as np
import pytest

from etmhe import (EtmState, MheConfig, TriggerError, advance, compute_d,
                   eval_cost, evaluate_trigger, make_window, output,
                   sample_disturbance, solve_nlp, step)
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
        assert (state.t, state.eps, state.delta, state.d) == (1, 0, 0, 0.0)
        np.testing.assert_array_equal(state.anchor, [0.1, 4.5])


class TestEvaluateTrigger:
    def test_zero_threshold_always_fires(self, bench_model, bench_cert):
        # d = 0 makes the threshold zero, and the residual sum is >= 0,
        # so the comparison can never be strictly below it.
        state = EtmState.initial(5.0, np.array([0.1, 4.5]))
        ys, _ = simulate(bench_model, 1)
        assert evaluate_trigger(state, bench_model, ys, np.zeros((1, 0)),
                                bench_cert)

    def test_alpha_zero_always_fires(self, bench_model, bench_cert):
        state = EtmState(t=4, eps=1, delta=2, d=100.0, alpha=0.0,
                         anchor=np.array([2.0, 1.5]))
        ys, _ = simulate(bench_model, 4)
        assert evaluate_trigger(state, bench_model, ys[1:4],
                                np.zeros((3, 0)), bench_cert)

    def test_perfect_prediction_with_margin_stays_silent(self, bench_model,
                                                         bench_cert):
        # Residuals are exactly zero when the anchor reproduces the plant
        # and there is no measurement noise; any positive threshold wins.
        x = np.array([3.0, 1.0])
        ys = []
        for _ in range(3):
            ys.append(output(bench_model, x, np.zeros(0), np.zeros(3)))
            x = step(bench_model, x, np.zeros(0), np.zeros(3))
        state = EtmState(t=4, eps=1, delta=2, d=1.0, alpha=5.0,
                         anchor=np.array([3.0, 1.0]))
        assert not evaluate_trigger(state, bench_model, np.array(ys),
                                    np.zeros((3, 0)), bench_cert)

    def test_residual_accumulation_matches_hand_sum(self, bench_model,
                                                    bench_cert):
        # One discounted term per step since the last event, oldest first.
        state = EtmState(t=3, eps=1, delta=1, d=1e12, alpha=1.0,
                         anchor=np.array([2.5, 1.2]))
        ys, _ = simulate(bench_model, 3)
        x = state.anchor
        lhs = 0.0
        eta = bench_cert.eta
        for k, j in enumerate(range(1, 3)):
            resid = ys[j] - output(bench_model, x, np.zeros(0), np.zeros(3))
            lhs += eta ** (1 - k) * 1e3 * float(resid @ resid)
            x = step(bench_model, x, np.zeros(0), np.zeros(3))
        threshold = 1.0 * eta ** 2 * 1e12
        fired = evaluate_trigger(state, bench_model, ys[1:3],
                                 np.zeros((2, 0)), bench_cert)
        assert fired == (not lhs < threshold)

    def test_window_length_checked(self, bench_model, bench_cert):
        state = EtmState.initial(5.0, np.array([0.1, 4.5]))
        with pytest.raises(TriggerError):
            evaluate_trigger(state, bench_model, np.zeros((2, 1)),
                             np.zeros((2, 0)), bench_cert)


class TestComputeD:
    def test_matches_cost_decomposition(self, bench_model, bench_cert):
        # At an event the statistic equals the discounted stage cost of the
        # solved window: (J - prior term) / (alpha + 1).
        t, alpha = 10, 5.0
        ys, _ = simulate(bench_model, t)
        window = make_window(t=t, delta=0, M=30, prior=np.array([0.1, 4.5]),
                             measurements=ys, inputs=np.zeros((t, 0)))
        cfg = MheConfig(M=30, alpha=alpha, cert=bench_cert)
        sol = solve_nlp(window, bench_model, cfg)
        d = compute_d(sol, window, bench_cert)
        dp = sol.x_init - window.prior
        prior_term = 2.0 * bench_cert.eta ** t * float(dp @ bench_cert.P2 @ dp)
        expected = (sol.cost - prior_term) / (alpha + 1.0)
        assert d == pytest.approx(expected, rel=1e-9)
        assert d >= 0.0

    def test_event_time_only(self, bench_model, bench_cert):
        ys, _ = simulate(bench_model, 6)
        window = make_window(t=6, delta=2, M=4, prior=np.array([0.1, 4.5]),
                             measurements=ys[:4], inputs=np.zeros((6, 0)))
        with pytest.warns(UserWarning):
            cfg = MheConfig(M=4, alpha=5.0, cert=bench_cert,
                            allow_short_horizon=True)
        sol = solve_nlp(window, bench_model, cfg)
        with pytest.raises(TriggerError):
            compute_d(sol, window, bench_cert)


class TestAdvance:
    def test_event_resets_bookkeeping(self):
        state = EtmState(t=7, eps=3, delta=3, d=2.0, alpha=5.0,
                         anchor=np.zeros(2))
        new = advance(state, True, d_next=0.5, x_new=np.array([1.0, 2.0]))
        assert (new.t, new.eps, new.delta, new.d) == (8, 7, 0, 0.5)
        np.testing.assert_array_equal(new.anchor, [1.0, 2.0])

    def test_silence_increments_delta_and_keeps_d(self):
        state = EtmState(t=7, eps=3, delta=3, d=2.0, alpha=5.0,
                         anchor=np.zeros(2))
        new = advance(state, False)
        assert (new.t, new.eps, new.delta, new.d) == (8, 3, 4, 2.0)
        np.testing.assert_array_equal(new.anchor, state.anchor)

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
