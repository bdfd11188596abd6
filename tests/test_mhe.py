"""Window bookkeeping, cost evaluation and the least-squares solver."""

import dataclasses
import re

import numpy as np
import pytest

from etmhe import (Box, ConfigurationError, IossCertificate, MheWindow,
                   SystemModel, assemble_event_solution, cost_residuals,
                   eval_cost, open_loop_predict, rges_constants, rollout,
                   run_closed_loop, solve_nlp, solve_nlp_batch,
                   sample_disturbance)
from etmhe import mhe
from etmhe.model import BATCH_REACTOR_BOUNDS


def scalar_linear_model(a=0.9):
    """x+ = a x + w1, y = x + w2, everything unconstrained."""

    def f(x, w):
        return (a * x[..., 0] + w[..., 0])[..., None]

    def h(x, w):
        return (x[..., 0] + w[..., 1])[..., None]

    return SystemModel(n=1, q=2, p=1, f=f, h=h,
                       x_set=Box.unbounded(1), w_set=Box.unbounded(2))


def scalar_cert(eta=0.9):
    """Certificate with lam_max(P2, P1) = 0.2, so any horizon is admissible."""
    return IossCertificate(P1=np.array([[2.0]]), P2=np.array([[0.4]]),
                           Q=np.diag([3.0, 5.0]), R=np.array([[7.0]]), eta=eta)


def bench_window(bench_model, bench_cert, t=10, seed=5):
    """A realistic event-time window from a short plant simulation."""
    rng = np.random.default_rng(seed)
    x = np.array([3.0, 1.0])
    ys, ws, xs = [], [], [x]
    for _ in range(t):
        w = sample_disturbance(rng, BATCH_REACTOR_BOUNDS)
        ws.append(w)
        ys.append(bench_model.h(x, w))
        x = bench_model.f(x, w)
        xs.append(x)
    window = MheWindow(delta=0, prior=np.array([0.1, 4.5]),
                       measurements=np.array(ys))
    return window, np.array(xs), np.array(ws)


class TestWindow:
    @pytest.mark.parametrize("horizon,delta", [(3, 0), (34, 4), (5, 5)])
    def test_horizon_is_measurements_plus_delta(self, horizon, delta):
        w = MheWindow(delta=delta, prior=np.zeros(2),
                      measurements=np.zeros((horizon - delta, 1)))
        assert w.horizon == len(w.measurements) + delta == horizon

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="delta must be nonnegative"):
            MheWindow(delta=-1, prior=np.zeros(2), measurements=np.zeros((3, 1)))

    @pytest.mark.parametrize("delta", [1.5, 2.0, "2"])
    def test_non_integral_delta_rejected(self, delta):
        # Rejected here, not as a slice error inside the solve.
        with pytest.raises(ConfigurationError,
                           match="delta must be an integer"):
            MheWindow(delta=delta, prior=np.zeros(2), measurements=np.zeros((3, 1)))
        assert MheWindow(delta=np.int64(2), prior=np.zeros(2),
                         measurements=np.zeros((3, 1))).horizon == 5

    def test_one_dimensional_measurements_rejected(self):
        with pytest.raises(ConfigurationError, match="2-D"):
            MheWindow(delta=0, prior=np.zeros(2), measurements=np.zeros(3))

    def test_unmeasured_window(self, bench_model, bench_cert):
        # A window whose every step is unmeasured holds (0, p) measurements;
        # its optimum is the prior propagated open loop.
        prior = np.array([2.0, 2.0])
        window = MheWindow(delta=4, prior=prior, measurements=np.zeros((0, 1)))
        assert window.measurements.shape == (0, 1) and window.horizon == 4
        sol = solve_nlp(window, bench_model, bench_cert, 5.0)
        x = prior
        for _ in range(4):
            x = open_loop_predict(bench_model, x)
        np.testing.assert_allclose(sol.estimate, x, atol=1e-12)
        assert sol.cost == pytest.approx(0.0, abs=1e-20)

    def test_output_dimension_checked(self, bench_cert):
        window = MheWindow(delta=0, prior=np.zeros(2), measurements=np.zeros((3, 2)))
        with pytest.raises(ConfigurationError, match="output dimension"):
            cost_residuals(window, bench_cert, 5.0)

    def test_state_dimension_checked(self, bench_model, bench_cert):
        # Rejected by name, not as a broadcast error inside the solve.
        window = MheWindow(delta=0, prior=np.zeros(3), measurements=np.zeros((3, 1)))
        with pytest.raises(ConfigurationError, match="state dimension"):
            solve_nlp(window, bench_model, bench_cert, 5.0)

    @pytest.mark.parametrize("field", ["prior", "measurements"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, field, bad):
        data = {"prior": np.zeros(2), "measurements": np.zeros((3, 1))}
        data[field] = data[field].copy()
        data[field].flat[-1] = bad
        with pytest.raises(ConfigurationError, match=field):
            MheWindow(delta=0, **data)


class TestMheConfig:
    """The [mhe] settings M and alpha, checked by SimConfig. The minimum
    horizon is a condition of the error bound only."""

    def test_short_horizon_runs(self, bench_cfg):
        cfg = dataclasses.replace(bench_cfg, M=10, T=5)
        assert run_closed_loop(cfg).T == 5
        with pytest.raises(ConfigurationError,
                           match="horizon 10 below stability minimum 15"):
            rges_constants(cfg.cert, cfg.alpha, cfg.M)

    @pytest.mark.parametrize("alpha", [-1.0, np.nan, np.inf])
    def test_alpha_validated(self, bench_cfg, alpha):
        with pytest.raises(ConfigurationError,
                           match="alpha must be finite and nonnegative"):
            dataclasses.replace(bench_cfg, alpha=alpha)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -2.0, -1.0])
    def test_solver_rejects_bad_alpha(self, bench_model, bench_cert, alpha):
        # cost_residuals checks alpha, so a direct solve or cost evaluation
        # cannot weigh the outputs by NaN, by a negative number or by 0.
        window, _, _ = bench_window(bench_model, bench_cert)
        w_seq = np.zeros((window.horizon, bench_model.q))
        for call in (lambda: solve_nlp(window, bench_model, bench_cert, alpha),
                     lambda: eval_cost(window, window.prior, w_seq, bench_model,
                                       bench_cert, alpha)):
            with pytest.raises(ConfigurationError,
                               match="^alpha must be finite and nonnegative$"):
                call()

    @pytest.mark.parametrize("alpha", [1e307, 1e308])
    def test_overflowing_alpha_rejected(self, bench_cfg, alpha):
        # A finite alpha whose cost overflows (inf at 1e307, NaN at 1e308)
        # fails the first solve by name, rather than running on unconverged.
        # numpy warns of the overflow first; tier-1 turns that into an error.
        cfg = dataclasses.replace(bench_cfg, alpha=alpha, T=5)
        window, _, _ = bench_window(cfg.model, cfg.cert)
        message = "^" + re.escape(f"window cost not finite at the start, alpha = {alpha!r}:")
        with np.errstate(over="ignore", invalid="ignore"):
            for call in (lambda: solve_nlp(window, cfg.model, cfg.cert, alpha),
                         lambda: run_closed_loop(cfg)):
                with pytest.raises(ConfigurationError, match=message):
                    call()

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_horizon_at_least_one(self, bench_cfg, horizon):
        with pytest.raises(ConfigurationError, match="at least 1"):
            dataclasses.replace(bench_cfg, M=horizon)

    @pytest.mark.parametrize("field", ["step_tolerance", "cost_tolerance",
                                       "initial_damping", "damping_increase",
                                       "damping_decrease"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_solver_settings_finite(self, bench_model, bench_cert, field, bad):
        """The LM internals are module constants, positive and finite; no
        value, finite or not, can be passed in to solve_nlp."""
        assert 0 < getattr(mhe, "LM_" + field.upper()) < np.inf
        window, _, _ = bench_window(bench_model, bench_cert)
        with pytest.raises(TypeError, match=field):
            solve_nlp(window, bench_model, bench_cert, 5.0, **{field: bad})


class TestRollout:
    def test_matches_repeated_step(self, bench_model):
        rng = np.random.default_rng(11)
        w_seq = rng.uniform(-1e-3, 1e-3, (6, 3))
        x0 = np.array([3.0, 1.0])
        states, outputs = rollout(bench_model, x0, w_seq)
        x = x0
        for k in range(6):
            np.testing.assert_allclose(outputs[k], bench_model.h(x, w_seq[k]))
            x = bench_model.f(x, w_seq[k])
            np.testing.assert_allclose(states[k + 1], x)

    def test_batched(self, bench_model):
        rng = np.random.default_rng(12)
        X0 = rng.uniform(0.0, 4.0, (5, 2))
        W = rng.uniform(-1e-3, 1e-3, (5, 4, 3))
        states, outputs = rollout(bench_model, X0, W)
        assert states.shape == (5, 5, 2) and outputs.shape == (5, 4, 1)
        for i in range(5):
            s_i, o_i = rollout(bench_model, X0[i], W[i])
            np.testing.assert_allclose(states[i], s_i)
            np.testing.assert_allclose(outputs[i], o_i)

    def test_open_loop_predict(self, bench_model):
        x = np.array([3.0, 1.0])
        np.testing.assert_allclose(open_loop_predict(bench_model, x),
                                   [2.71328, 1.14336], rtol=1e-14)


class TestEvalCost:
    def test_single_step_closed_form(self):
        model = scalar_linear_model()
        cert = scalar_cert()
        window = MheWindow(delta=0, prior=np.array([1.2]),
                           measurements=np.array([[2.0]]))
        x0, w = np.array([1.5]), np.array([[0.1, -0.2]])
        # 2 eta P2 (x0-p)^2 + 2(alpha+1)(Q1 w1^2 + Q2 w2^2)
        # + (alpha+1) R (x0 + w2 - y)^2, all discounts eta^0 = 1.
        expected = (2.0 * 0.9 * 0.4 * 0.3 ** 2
                    + 6.0 * (3.0 * 0.01 + 5.0 * 0.04)
                    + 3.0 * 7.0 * (1.5 - 0.2 - 2.0) ** 2)
        assert eval_cost(window, x0, w, model, cert, 2.0) == pytest.approx(
            expected, rel=1e-12)

    def test_discounting_and_prior_weight(self):
        model = scalar_linear_model()
        cert = scalar_cert(eta=0.5)
        window = MheWindow(delta=0, prior=np.array([0.0]),
                           measurements=np.zeros((2, 1)))
        # Prior-only candidate: cost = 2 eta^2 P2 x0^2 + output terms.
        x0 = np.array([1.0])
        w = np.zeros((2, 2))
        # y_pred = (1, 0.9); discounts (eta, 1).
        expected = (2.0 * 0.25 * 0.4 * 1.0
                    + 0.5 * 7.0 * 1.0 + 1.0 * 7.0 * 0.81)
        assert eval_cost(window, x0, w, model, cert, 0.0) == pytest.approx(
            expected, rel=1e-12)


    def test_matches_explicit_sum(self, bench_model, bench_cert):
        # t > M with a silence (delta > 0), and a window with no measurement
        # at all (horizon == delta), for random candidates and several alphas.
        rng = np.random.default_rng(21)
        windows = [MheWindow(delta=4, prior=np.array([0.1, 4.5]),
                             measurements=rng.uniform(3.0, 5.0, (15, 1))),
                   MheWindow(delta=5, prior=np.array([2.0, 2.0]),
                             measurements=np.zeros((0, 1)))]
        for window in windows:
            for alpha in (0.0, 5.0, 20.0):
                for _ in range(5):
                    x0 = rng.uniform(0.0, 5.0, 2)
                    w = rng.uniform(-0.1, 0.1, (window.horizon, 3))
                    assert eval_cost(window, x0, w, bench_model, bench_cert, alpha) == \
                        pytest.approx(explicit_cost(window, x0, w, bench_model,
                                                    bench_cert, alpha), rel=1e-12)

    def test_batched_rows_match_single_calls(self, bench_model, bench_cert):
        rng = np.random.default_rng(22)
        window = MheWindow(delta=4, prior=np.array([0.1, 4.5]),
                           measurements=rng.uniform(3.0, 5.0, (15, 1)))
        residuals = cost_residuals(window, bench_cert, 5.0)
        X0 = rng.uniform(0.0, 5.0, (4, 2))
        W = rng.uniform(-0.1, 0.1, (4, 19, 3))
        _, Y = rollout(bench_model, X0, W)
        R = residuals(X0, W, Y)
        assert R.shape == (4, 2 + 19 * 3 + 15)
        for i in range(4):
            np.testing.assert_allclose(R[i], residuals(X0[i], W[i], Y[i]),
                                       rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("x_init,w_seq,message", [
        ((np.nan, 1.0), None, "^x_init must be finite$"),
        (None, np.full((3, 3), np.nan), "^w_seq must be finite$"),
        (np.zeros(3), None, r"^x_init must fill shape \(2,\), got 3 values$"),
        (None, np.zeros(8), r"^w_seq must fill shape \(3, 3\), got 8 values$")],
        ids=["nan_x_init", "nan_w_seq", "long_x_init", "short_w_seq"])
    def test_bad_candidate_rejected(self, bench_model, bench_cert, x_init, w_seq,
                                    message):
        # Rejected by name, not as a NaN cost or a numpy broadcast error.
        window = MheWindow(delta=0, prior=np.array([0.1, 4.5]),
                           measurements=np.zeros((3, 1)))
        x_init = window.prior if x_init is None else x_init
        w_seq = np.zeros((3, 3)) if w_seq is None else w_seq
        with pytest.raises(ConfigurationError, match=message):
            eval_cost(window, x_init, w_seq, bench_model, bench_cert, 5.0)


    def test_disturbances_flat_or_in_shape(self, bench_model, bench_cert):
        # ws is (10, 3); its transpose has the right number of values but
        # would be read in another order, so it is rejected by name.
        window, xs, ws = bench_window(bench_model, bench_cert)
        cost = eval_cost(window, xs[0], ws, bench_model, bench_cert, 5.0)
        assert eval_cost(window, xs[0], ws.ravel(), bench_model, bench_cert,
                         5.0) == cost
        with pytest.raises(ConfigurationError, match=r"^w_seq must have shape "
                           r"\(10, 3\) or be flat, got shape \(3, 10\)$"):
            eval_cost(window, xs[0], ws.T, bench_model, bench_cert, 5.0)


def explicit_cost(window, x_init, w_seq, model, cert, alpha):
    """Oracle: the window cost summed term by term."""
    eta, Mt = cert.eta, window.horizon
    P2, Q, R = cert.P2, cert.Q, cert.R
    _, y_seq = rollout(model, x_init, w_seq)
    dp = x_init - window.prior
    cost = 2.0 * eta ** Mt * float(dp @ P2 @ dp)
    for k in range(Mt):
        disc = eta ** (Mt - 1 - k)
        cost += 2.0 * (alpha + 1.0) * disc * float(w_seq[k] @ Q @ w_seq[k])
        if k < Mt - window.delta:
            dy = y_seq[k] - window.measurements[k]
            cost += (alpha + 1.0) * disc * float(dy @ R @ dy)
    return cost


class TestSolver:
    def test_matches_normal_equations(self):
        model = scalar_linear_model()
        cert = scalar_cert()
        prior, y = 1.2, 2.0
        window = MheWindow(delta=0, prior=np.array([prior]),
                           measurements=np.array([[y]]))
        sol = solve_nlp(window, model, cert, 2.0)
        assert sol.converged
        # Quadratic objective in (x0, w2) with w1* = 0; solve its normal
        # equations independently.
        eta, P2, Q2, R, ap1 = 0.9, 0.4, 5.0, 7.0, 3.0
        A = np.array([[4.0 * eta * P2 + 2.0 * ap1 * R, 2.0 * ap1 * R],
                      [2.0 * ap1 * R, 4.0 * ap1 * Q2 + 2.0 * ap1 * R]])
        b = np.array([4.0 * eta * P2 * prior + 2.0 * ap1 * R * y,
                      2.0 * ap1 * R * y])
        x0_ref, w2_ref = np.linalg.solve(A, b)
        assert sol.x_init[0] == pytest.approx(x0_ref, rel=1e-8)
        assert sol.w_seq[0, 0] == pytest.approx(0.0, abs=1e-8)
        assert sol.w_seq[0, 1] == pytest.approx(w2_ref, rel=1e-8)
        assert sol.estimate[0] == pytest.approx(0.9 * x0_ref, rel=1e-8)
        ref_cost = eval_cost(window, np.array([x0_ref]),
                             np.array([[0.0, w2_ref]]), model, cert, 2.0)
        assert sol.cost == pytest.approx(ref_cost, rel=1e-10)

    def test_benchmark_window(self, bench_model, bench_cert):
        window, xs, ws = bench_window(bench_model, bench_cert)
        sol = solve_nlp(window, bench_model, bench_cert, 5.0)
        assert sol.converged
        # The true trajectory is feasible, so the optimum cannot cost more.
        true_cost = eval_cost(window, xs[0], ws, bench_model, bench_cert, 5.0)
        assert sol.cost <= true_cost + 1e-9
        # Constraints hold: nonnegative states, disturbances in their box.
        assert np.all(sol.x_init >= -1e-12)
        assert np.all(np.abs(sol.w_seq[:, :2]) <= 1e-3 + 1e-12)
        assert np.all(np.abs(sol.w_seq[:, 2]) <= 0.1 + 1e-12)
        # Estimate lands near the true state despite the poor prior.
        assert np.linalg.norm(sol.estimate - xs[-1]) < 0.5

    def test_warm_start_agrees_with_cold(self, bench_model, bench_cert):
        window, xs, ws = bench_window(bench_model, bench_cert)
        cold = solve_nlp(window, bench_model, bench_cert, 5.0)
        warm = solve_nlp(window, bench_model, bench_cert, 5.0, warm_start=(xs[0], ws))
        assert warm.converged
        assert warm.cost == pytest.approx(cold.cost, rel=1e-6)
        np.testing.assert_allclose(warm.estimate, cold.estimate, atol=1e-5)

    def test_warm_start_dimension_checked(self, bench_model, bench_cert):
        window, _, _ = bench_window(bench_model, bench_cert)
        with pytest.raises(ConfigurationError):
            solve_nlp(window, bench_model, bench_cert, 5.0,
                      warm_start=(np.zeros(2), np.zeros((3, 3))))

    def test_warm_start_flat_or_in_shape(self, bench_model, bench_cert):
        # The default warm start passes the disturbances flat; a transposed
        # sequence would be a different start point, so it is rejected.
        window, xs, ws = bench_window(bench_model, bench_cert)
        shaped = solve_nlp(window, bench_model, bench_cert, 5.0, warm_start=(xs[0], ws))
        flat = solve_nlp(window, bench_model, bench_cert, 5.0,
                         warm_start=(xs[0], ws.ravel()))
        assert np.array_equal(flat.x_seq, shaped.x_seq) and flat.cost == shaped.cost
        with pytest.raises(ConfigurationError, match=r"^warm start must have shape "
                           r"\(10, 3\) or be flat, got shape \(3, 10\)$"):
            solve_nlp(window, bench_model, bench_cert, 5.0, warm_start=(xs[0], ws.T))
        with pytest.raises(ConfigurationError, match="must be a pair"):
            solve_nlp(window, bench_model, bench_cert, 5.0,
                      warm_start=(xs[0], ws, ws))

    @pytest.mark.parametrize("part", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_warm_start_rejected(self, bench_model, bench_cert,
                                            part, bad):
        window, xs, ws = bench_window(bench_model, bench_cert)
        warm = [xs[0].copy(), ws.copy()]
        warm[part].flat[1] = bad
        with pytest.raises(ConfigurationError, match="warm start must be finite"):
            solve_nlp(window, bench_model, bench_cert, 5.0, warm_start=tuple(warm))

    def test_trajectory_is_rollout_of_solution(self, bench_model, bench_cert):
        window, _, _ = bench_window(bench_model, bench_cert)
        sol = solve_nlp(window, bench_model, bench_cert, 5.0)
        x_seq, y_seq = rollout(bench_model, sol.x_init, sol.w_seq)
        assert np.array_equal(sol.x_seq, x_seq)
        assert np.array_equal(sol.y_seq, y_seq)
        # Copies, not views that would keep the solver's batch buffers alive.
        assert sol.x_seq.base is None and sol.y_seq.base is None

    def test_one_rollout_per_trial(self, bench_model, bench_cert, monkeypatch):
        calls = {"rollout": 0, "step": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(mhe, "rollout", counting("rollout", mhe.rollout))
        monkeypatch.setattr(mhe, "_boxed_step", counting("step", mhe._boxed_step))
        window, _, _ = bench_window(bench_model, bench_cert)
        sol = solve_nlp(window, bench_model, bench_cert, 5.0)
        assert sol.iterations > 1
        # The initial point plus one batched rollout per trial: no separate
        # Jacobian or final-trajectory rollouts.
        assert calls["rollout"] == calls["step"] + 1

    def test_batch_equals_one_by_one(self, bench_model, bench_cert):
        # Cold and warm starts, two alphas, and horizons 10 and 7.
        problems = []
        for t, seed in ((10, 5), (10, 6), (7, 7)):
            window, xs, ws = bench_window(bench_model, bench_cert, t=t, seed=seed)
            problems += [(window, bench_cert, 5.0, None),
                         (window, bench_cert, 0.0, (xs[0], ws))]
        batch = solve_nlp_batch(problems, bench_model)
        assert len(batch) == len(problems)
        for (window, cert, alpha, warm), sol in zip(problems, batch):
            one = solve_nlp(window, bench_model, cert, alpha, warm_start=warm)
            for field in dataclasses.fields(sol):
                assert np.array_equal(getattr(sol, field.name), getattr(one, field.name))
        assert solve_nlp_batch([], bench_model) == []

    def test_batch_shares_rollouts(self, bench_model, bench_cert, monkeypatch):
        windows = [bench_window(bench_model, bench_cert, seed=seed)[0]
                   for seed in (5, 6, 7)]
        rows = []

        def counting(model, x_init, *args):
            rows.append(len(x_init))
            return rollout(model, x_init, *args)

        monkeypatch.setattr(mhe, "rollout", counting)
        singles = []
        for window in windows:
            rows.clear()
            solve_nlp(window, bench_model, bench_cert, 5.0)
            singles.append((len(rows), sum(rows)))
        rows.clear()
        solve_nlp_batch([(w, bench_cert, 5.0, None) for w in windows], bench_model)
        # One rollout per round while any solve runs, carrying every row of
        # the separate solves.
        assert len(rows) == max(calls for calls, _ in singles)
        assert sum(rows) == sum(total for _, total in singles)

    def test_batch_of_mixed_horizons(self, bench_model, bench_cert, monkeypatch):
        # Cold starts on horizons 7-12, some with unmeasured last steps: the
        # shorter windows ride in the longest one's rollouts, zero-padded.
        problems = []
        for L, delta in zip(range(7, 13), (0, 2, 0, 1, 3, 0)):
            window, _, _ = bench_window(bench_model, bench_cert, t=L, seed=L)
            window = MheWindow(delta=delta, prior=window.prior,
                               measurements=window.measurements[:L - delta])
            problems.append((window, bench_cert, 5.0, None))
        rows = []

        def counting(model, x_init, *args):
            rows.append(len(x_init))
            return rollout(model, x_init, *args)

        monkeypatch.setattr(mhe, "rollout", counting)
        singles, calls = [], []
        for window, cert, alpha, _ in problems:
            rows.clear()
            singles.append(solve_nlp(window, bench_model, cert, alpha))
            calls.append((len(rows), sum(rows)))
        rows.clear()
        batch = solve_nlp_batch(problems, bench_model)
        for sol, one in zip(batch, singles):
            for field in dataclasses.fields(sol):
                assert np.array_equal(getattr(sol, field.name), getattr(one, field.name))
        assert len(rows) == max(n for n, _ in calls)
        assert sum(rows) == sum(total for _, total in calls)

    def test_iteration_budget_respected(self, bench_model, bench_cert, monkeypatch):
        monkeypatch.setattr(mhe, "LM_MAX_ITERATIONS", 2)
        window, _, _ = bench_window(bench_model, bench_cert)
        sol = solve_nlp(window, bench_model, bench_cert, 5.0)
        assert sol.iterations <= 2

    @pytest.mark.parametrize("zero_residual", [False, True])
    def test_damping_exhausted(self, bench_model, bench_cert, monkeypatch,
                               zero_residual):
        """Every trial goes uphill, so the damping runs out at the start. The
        solve has converged only if the start is stationary: with the true
        state as the prior and no disturbances every residual is zero, while
        the poor prior of bench_window is far from the optimum."""
        calls = {"rollout": 0, "step": 0}

        def counting_rollout(*args):
            calls["rollout"] += 1
            return rollout(*args)

        def uphill(A, g, z, lo, hi):
            calls["step"] += 1
            return np.clip(z + 1.0, lo, hi)

        window, _, _ = bench_window(bench_model, bench_cert)
        if zero_residual:
            x0 = np.array([3.0, 1.0])
            _, ys = rollout(bench_model, x0, np.zeros((10, bench_model.q)))
            window = MheWindow(delta=0, prior=x0, measurements=ys)
        monkeypatch.setattr(mhe, "rollout", counting_rollout)
        monkeypatch.setattr(mhe, "_boxed_step", uphill)
        sol = solve_nlp(window, bench_model, bench_cert, 5.0)
        # One rollout of the start, then one per trial at damping 1e-3..1e14.
        assert (sol.iterations, calls["step"], calls["rollout"]) == (1, 18, 19)
        np.testing.assert_array_equal(sol.x_init, window.prior)
        np.testing.assert_array_equal(sol.w_seq, 0.0)
        assert sol.converged == zero_residual
        assert (sol.cost == 0.0) == zero_residual

    def test_singular_step_retried_with_more_damping(self, bench_model, bench_cert,
                                                     monkeypatch):
        matrices = []
        boxed_step = mhe._boxed_step

        def singular_once(A, g, z, lo, hi):
            matrices.append(A.copy())
            if len(matrices) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return boxed_step(A, g, z, lo, hi)

        monkeypatch.setattr(mhe, "_boxed_step", singular_once)
        window, _, _ = bench_window(bench_model, bench_cert)
        sol = solve_nlp(window, bench_model, bench_cert, 5.0)
        assert sol.converged
        first, retry = matrices[:2]
        off_diagonal = ~np.eye(len(first), dtype=bool)
        np.testing.assert_array_equal(retry[off_diagonal], first[off_diagonal])
        # first = JtJ + lam0 diag(scale), with scale = diag(JtJ) clipped at 1e-12.
        lam0 = mhe.LM_INITIAL_DAMPING
        scale = np.clip(np.diag(first) / (1.0 + lam0), 1e-12, None)
        np.testing.assert_allclose(np.diag(retry - first),
                                   (mhe.LM_DAMPING_INCREASE - 1.0) * lam0 * scale,
                                   rtol=1e-12)

    def test_semidefinite_weight(self):
        # Cholesky fails on a singular weight; the eigenvalue fallback factors it.
        mat = np.diag([2.0, 0.0])
        U = mhe._sqrt_factor(mat)
        np.testing.assert_allclose(U.T @ U, mat, rtol=1e-15, atol=0.0)  # sqrt(2)^2
        # With R = 0 the outputs cost nothing: the optimum is the prior with
        # zero disturbances, whatever was measured.
        model = scalar_linear_model()
        cert = dataclasses.replace(scalar_cert(), R=np.array([[0.0]]))
        window = MheWindow(delta=0, prior=np.array([1.2]),
                           measurements=np.array([[2.0], [-1.0]]))
        sol = solve_nlp(window, model, cert, 2.0)
        assert sol.converged and sol.cost == 0.0
        np.testing.assert_array_equal(sol.x_init, window.prior)
        np.testing.assert_array_equal(sol.w_seq, 0.0)


class TestAssembledSolution:
    def test_open_loop_extension(self, bench_model, bench_cert):
        window, _, _ = bench_window(bench_model, bench_cert)
        sol = solve_nlp(window, bench_model, bench_cert, 5.0)
        ext = assemble_event_solution(sol, 3, bench_model, bench_cert.eta)
        assert len(ext.x_seq) == len(sol.x_seq) + 3
        assert len(ext.w_seq) == len(sol.w_seq) + 3
        assert len(ext.y_seq) == len(sol.y_seq) + 3
        np.testing.assert_array_equal(ext.w_seq[-3:], 0.0)
        x = sol.estimate
        for k in range(3):
            np.testing.assert_array_equal(ext.y_seq[len(sol.y_seq) + k],
                                          bench_model.h(x, np.zeros(bench_model.q)))
            x = open_loop_predict(bench_model, x)
            np.testing.assert_array_equal(ext.x_seq[len(sol.x_seq) + k], x)
        assert ext.cost == pytest.approx(sol.cost * bench_cert.eta ** 3)

    def test_zero_delta_is_identity(self, bench_model, bench_cert):
        window, _, _ = bench_window(bench_model, bench_cert)
        sol = solve_nlp(window, bench_model, bench_cert, 5.0)
        assert assemble_event_solution(sol, 0, bench_model, bench_cert.eta) is sol

    def test_input_validation(self, bench_model, bench_cert):
        window, _, _ = bench_window(bench_model, bench_cert)
        sol = solve_nlp(window, bench_model, bench_cert, 5.0)
        with pytest.raises(ConfigurationError):
            assemble_event_solution(sol, -1, bench_model, bench_cert.eta)
        for bad in (1.5, 2.0):
            with pytest.raises(ConfigurationError, match="delta"):
                assemble_event_solution(sol, bad, bench_model, bench_cert.eta)
        ext = assemble_event_solution(sol, 2, bench_model, bench_cert.eta)
        ext64 = assemble_event_solution(sol, np.int64(2), bench_model, bench_cert.eta)
        for field in dataclasses.fields(ext):
            np.testing.assert_array_equal(getattr(ext64, field.name),
                                          getattr(ext, field.name))
