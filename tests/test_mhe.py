"""Window bookkeeping, cost evaluation and the least-squares solver."""

import numpy as np
import pytest

from etmhe import (Box, ConfigurationError, IossCertificate, MheConfig,
                   MheWindow, SystemModel,
                   assemble_event_solution, cost_residuals, eval_cost, make_window,
                   open_loop_predict, rollout, solve_nlp, output,
                   sample_disturbance, step)
from etmhe import mhe
from etmhe.model import DisturbanceBounds


def scalar_linear_model(a=0.9):
    """x+ = a x + w1, y = x + w2, everything unconstrained."""

    def f(x, u, w):
        return (a * x[..., 0] + w[..., 0])[..., None]

    def h(x, u, w):
        return (x[..., 0] + w[..., 1])[..., None]

    return SystemModel(n=1, m=0, q=2, p=1, f=f, h=h,
                       x_set=Box.unbounded(1), w_set=Box.unbounded(2))


def scalar_cert(eta=0.9):
    """Certificate with lam_max(P2, P1) = 0.2, so any horizon is admissible."""
    return IossCertificate(P1=np.array([[2.0]]), P2=np.array([[0.4]]),
                           Q=np.diag([3.0, 5.0]), R=np.array([[7.0]]), eta=eta)


def bench_window(bench_model, bench_cert, t=10, seed=5):
    """A realistic event-time window from a short plant simulation."""
    rng = np.random.default_rng(seed)
    bounds = DisturbanceBounds(np.array([1e-3, 1e-3, 0.1]))
    x = np.array([3.0, 1.0])
    u = np.zeros(0)
    ys, ws, xs = [], [], [x]
    for _ in range(t):
        w = sample_disturbance(rng, bounds)
        ws.append(w)
        ys.append(output(bench_model, x, u, w))
        x = step(bench_model, x, u, w)
        xs.append(x)
    window = make_window(t=t, delta=0, M=30, prior=np.array([0.1, 4.5]),
                         measurements=np.array(ys), inputs=np.zeros((t, 0)))
    return window, np.array(xs), np.array(ws)


class TestWindow:
    def test_make_window_horizon(self):
        prior = np.zeros(2)
        w = make_window(t=3, delta=0, M=30, prior=prior,
                        measurements=np.zeros((3, 1)), inputs=np.zeros((3, 0)))
        assert w.horizon == 3
        w = make_window(t=50, delta=0, M=30, prior=prior,
                        measurements=np.zeros((30, 1)), inputs=np.zeros((30, 0)))
        assert w.horizon == 30
        w = make_window(t=50, delta=4, M=30, prior=prior,
                        measurements=np.zeros((30, 1)), inputs=np.zeros((34, 0)))
        assert w.horizon == 34

    def test_validation(self):
        prior = np.zeros(2)
        with pytest.raises(ConfigurationError):
            MheWindow(t=3, delta=-1, horizon=2, prior=prior,
                      measurements=np.zeros((3, 1)), inputs=np.zeros((2, 0)))
        with pytest.raises(ConfigurationError):
            MheWindow(t=3, delta=0, horizon=3, prior=prior,
                      measurements=np.zeros((2, 1)), inputs=np.zeros((3, 0)))
        with pytest.raises(ConfigurationError):
            MheWindow(t=3, delta=0, horizon=3, prior=prior,
                      measurements=np.zeros((3, 1)), inputs=np.zeros((2, 0)))

    @pytest.mark.parametrize("field", ["prior", "measurements", "inputs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, field, bad):
        data = {"prior": np.zeros(2), "measurements": np.zeros((3, 1)),
                "inputs": np.zeros((3, 1))}
        data[field] = data[field].copy()
        data[field].flat[-1] = bad
        with pytest.raises(ConfigurationError, match=field):
            MheWindow(t=3, delta=0, horizon=3, **data)


class TestMheConfig:
    def test_short_horizon_rejected(self, bench_cert):
        with pytest.raises(ConfigurationError):
            MheConfig(M=10, alpha=5.0, cert=bench_cert)

    def test_short_horizon_override_warns(self, bench_cert):
        with pytest.warns(UserWarning):
            cfg = MheConfig(M=10, alpha=5.0, cert=bench_cert,
                            allow_short_horizon=True)
        assert cfg.M == 10

    @pytest.mark.parametrize("alpha", [-1.0, np.nan, np.inf])
    def test_alpha_validated(self, bench_cert, alpha):
        with pytest.raises(ConfigurationError, match="alpha"):
            MheConfig(M=30, alpha=alpha, cert=bench_cert)

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_horizon_at_least_one(self, horizon):
        with pytest.raises(ConfigurationError, match="at least 1"):
            MheConfig(M=horizon, alpha=5.0, cert=scalar_cert(),
                      allow_short_horizon=True)

    @pytest.mark.parametrize("field", ["gradient_tolerance", "step_tolerance",
                                       "cost_tolerance", "initial_damping",
                                       "damping_increase", "damping_decrease"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_solver_settings_finite(self, bench_cert, field, bad):
        """The LM internals are module constants, positive and finite; no
        value, finite or not, can be passed in through MheConfig."""
        assert 0 < getattr(mhe, "LM_" + field.upper()) < np.inf
        with pytest.raises(TypeError, match=field):
            MheConfig(M=30, alpha=5.0, cert=bench_cert, **{field: bad})


class TestRollout:
    def test_matches_repeated_step(self, bench_model):
        rng = np.random.default_rng(11)
        w_seq = rng.uniform(-1e-3, 1e-3, (6, 3))
        x0 = np.array([3.0, 1.0])
        states, outputs = rollout(bench_model, x0, np.zeros((6, 0)), w_seq)
        x = x0
        for k in range(6):
            np.testing.assert_allclose(outputs[k],
                                       output(bench_model, x, np.zeros(0),
                                              w_seq[k]))
            x = step(bench_model, x, np.zeros(0), w_seq[k])
            np.testing.assert_allclose(states[k + 1], x)

    def test_batched(self, bench_model):
        rng = np.random.default_rng(12)
        X0 = rng.uniform(0.0, 4.0, (5, 2))
        W = rng.uniform(-1e-3, 1e-3, (5, 4, 3))
        states, outputs = rollout(bench_model, X0, np.zeros((4, 0)), W)
        assert states.shape == (5, 5, 2) and outputs.shape == (5, 4, 1)
        for i in range(5):
            s_i, o_i = rollout(bench_model, X0[i], np.zeros((4, 0)), W[i])
            np.testing.assert_allclose(states[i], s_i)
            np.testing.assert_allclose(outputs[i], o_i)

    def test_open_loop_predict(self, bench_model):
        x = np.array([3.0, 1.0])
        np.testing.assert_allclose(open_loop_predict(bench_model, x, np.zeros(0)),
                                   [2.71328, 1.14336], rtol=1e-14)


class TestEvalCost:
    def test_single_step_closed_form(self):
        model = scalar_linear_model()
        cert = scalar_cert()
        cfg = MheConfig(M=1, alpha=2.0, cert=cert)
        window = make_window(t=1, delta=0, M=1, prior=np.array([1.2]),
                             measurements=np.array([[2.0]]),
                             inputs=np.zeros((1, 0)))
        x0, w = np.array([1.5]), np.array([[0.1, -0.2]])
        # 2 eta P2 (x0-p)^2 + 2(alpha+1)(Q1 w1^2 + Q2 w2^2)
        # + (alpha+1) R (x0 + w2 - y)^2, all discounts eta^0 = 1.
        expected = (2.0 * 0.9 * 0.4 * 0.3 ** 2
                    + 6.0 * (3.0 * 0.01 + 5.0 * 0.04)
                    + 3.0 * 7.0 * (1.5 - 0.2 - 2.0) ** 2)
        assert eval_cost(window, x0, w, model, cfg) == pytest.approx(
            expected, rel=1e-12)

    def test_discounting_and_prior_weight(self):
        model = scalar_linear_model()
        cert = scalar_cert(eta=0.5)
        cfg = MheConfig(M=2, alpha=0.0, cert=cert)
        window = make_window(t=2, delta=0, M=2, prior=np.array([0.0]),
                             measurements=np.zeros((2, 1)),
                             inputs=np.zeros((2, 0)))
        # Prior-only candidate: cost = 2 eta^2 P2 x0^2 + output terms.
        x0 = np.array([1.0])
        w = np.zeros((2, 2))
        # y_pred = (1, 0.9); discounts (eta, 1).
        expected = (2.0 * 0.25 * 0.4 * 1.0
                    + 0.5 * 7.0 * 1.0 + 1.0 * 7.0 * 0.81)
        assert eval_cost(window, x0, w, model, cfg) == pytest.approx(
            expected, rel=1e-12)


    def test_matches_explicit_sum(self, bench_model, bench_cert):
        # t > M with a silence (delta > 0), and a window with no measurement
        # at all (horizon == delta), for random candidates and several alphas.
        rng = np.random.default_rng(21)
        windows = [make_window(t=50, delta=4, M=15, prior=np.array([0.1, 4.5]),
                               measurements=rng.uniform(3.0, 5.0, (15, 1)),
                               inputs=np.zeros((19, 0))),
                   MheWindow(t=5, delta=5, horizon=5, prior=np.array([2.0, 2.0]),
                             measurements=[], inputs=np.zeros((5, 0)))]
        for window in windows:
            for alpha in (0.0, 5.0, 20.0):
                cfg = MheConfig(M=15, alpha=alpha, cert=bench_cert)
                for _ in range(5):
                    x0 = rng.uniform(0.0, 5.0, 2)
                    w = rng.uniform(-0.1, 0.1, (window.horizon, 3))
                    assert eval_cost(window, x0, w, bench_model, cfg) == \
                        pytest.approx(explicit_cost(window, x0, w, bench_model, cfg),
                                      rel=1e-12)

    def test_batched_rows_match_single_calls(self, bench_model, bench_cert):
        rng = np.random.default_rng(22)
        window = make_window(t=50, delta=4, M=15, prior=np.array([0.1, 4.5]),
                             measurements=rng.uniform(3.0, 5.0, (15, 1)),
                             inputs=np.zeros((19, 0)))
        residuals = cost_residuals(window, bench_cert, 5.0)
        X0 = rng.uniform(0.0, 5.0, (4, 2))
        W = rng.uniform(-0.1, 0.1, (4, 19, 3))
        _, Y = rollout(bench_model, X0, window.inputs, W)
        R = residuals(X0, W, Y)
        assert R.shape == (4, 2 + 19 * 3 + 15)
        for i in range(4):
            np.testing.assert_allclose(R[i], residuals(X0[i], W[i], Y[i]),
                                       rtol=1e-15, atol=0.0)


def explicit_cost(window, x_init, w_seq, model, cfg):
    """Oracle: the window cost summed term by term."""
    eta, Mt, alpha = cfg.cert.eta, window.horizon, cfg.alpha
    P2, Q, R = cfg.cert.P2, cfg.cert.Q, cfg.cert.R
    _, y_seq = rollout(model, x_init, window.inputs, w_seq)
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
        cfg = MheConfig(M=1, alpha=2.0, cert=cert)
        prior, y = 1.2, 2.0
        window = make_window(t=1, delta=0, M=1, prior=np.array([prior]),
                             measurements=np.array([[y]]),
                             inputs=np.zeros((1, 0)))
        sol = solve_nlp(window, model, cfg)
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
                             np.array([[0.0, w2_ref]]), model, cfg)
        assert sol.cost == pytest.approx(ref_cost, rel=1e-10)

    def test_benchmark_window(self, bench_model, bench_cert):
        window, xs, ws = bench_window(bench_model, bench_cert)
        cfg = MheConfig(M=30, alpha=5.0, cert=bench_cert)
        sol = solve_nlp(window, bench_model, cfg)
        assert sol.converged
        # The true trajectory is feasible, so the optimum cannot cost more.
        true_cost = eval_cost(window, xs[0], ws, bench_model, cfg)
        assert sol.cost <= true_cost + 1e-9
        # Constraints hold: nonnegative states, disturbances in their box.
        assert np.all(sol.x_init >= -1e-12)
        assert np.all(np.abs(sol.w_seq[:, :2]) <= 1e-3 + 1e-12)
        assert np.all(np.abs(sol.w_seq[:, 2]) <= 0.1 + 1e-12)
        # Estimate lands near the true state despite the poor prior.
        assert np.linalg.norm(sol.estimate - xs[-1]) < 0.5

    def test_warm_start_agrees_with_cold(self, bench_model, bench_cert):
        window, xs, ws = bench_window(bench_model, bench_cert)
        cfg = MheConfig(M=30, alpha=5.0, cert=bench_cert)
        cold = solve_nlp(window, bench_model, cfg)
        warm = solve_nlp(window, bench_model, cfg, warm_start=(xs[0], ws))
        assert warm.converged
        assert warm.cost == pytest.approx(cold.cost, rel=1e-6)
        np.testing.assert_allclose(warm.estimate, cold.estimate, atol=1e-5)

    def test_warm_start_dimension_checked(self, bench_model, bench_cert):
        window, _, _ = bench_window(bench_model, bench_cert)
        cfg = MheConfig(M=30, alpha=5.0, cert=bench_cert)
        with pytest.raises(ConfigurationError):
            solve_nlp(window, bench_model, cfg,
                      warm_start=(np.zeros(2), np.zeros((3, 3))))

    def test_trajectory_is_rollout_of_solution(self, bench_model, bench_cert):
        window, _, _ = bench_window(bench_model, bench_cert)
        cfg = MheConfig(M=30, alpha=5.0, cert=bench_cert)
        sol = solve_nlp(window, bench_model, cfg)
        x_seq, y_seq = rollout(bench_model, sol.x_init, window.inputs, sol.w_seq)
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
        sol = solve_nlp(window, bench_model, MheConfig(M=30, alpha=5.0,
                                                       cert=bench_cert))
        assert sol.iterations > 1
        # The initial point plus one batched rollout per trial: no separate
        # Jacobian or final-trajectory rollouts.
        assert calls["rollout"] == calls["step"] + 1

    def test_iteration_budget_respected(self, bench_model, bench_cert, monkeypatch):
        monkeypatch.setattr(mhe, "LM_MAX_ITERATIONS", 2)
        window, _, _ = bench_window(bench_model, bench_cert)
        cfg = MheConfig(M=30, alpha=5.0, cert=bench_cert)
        sol = solve_nlp(window, bench_model, cfg)
        assert sol.iterations <= 2


class TestAssembledSolution:
    def test_open_loop_extension(self, bench_model, bench_cert):
        window, _, _ = bench_window(bench_model, bench_cert)
        cfg = MheConfig(M=30, alpha=5.0, cert=bench_cert)
        sol = solve_nlp(window, bench_model, cfg)
        ext = assemble_event_solution(sol, 3, bench_model, np.zeros((3, 0)),
                                      eta=bench_cert.eta)
        assert len(ext.x_seq) == len(sol.x_seq) + 3
        assert len(ext.w_seq) == len(sol.w_seq) + 3
        np.testing.assert_array_equal(ext.w_seq[-3:], 0.0)
        x = sol.estimate
        for k in range(3):
            x = open_loop_predict(bench_model, x, np.zeros(0))
            np.testing.assert_allclose(ext.x_seq[len(sol.x_seq) + k], x)
        assert ext.cost == pytest.approx(sol.cost * bench_cert.eta ** 3)
        # Without eta the cost is carried over unchanged.
        same = assemble_event_solution(sol, 3, bench_model, np.zeros((3, 0)))
        assert same.cost == sol.cost

    def test_zero_delta_is_identity(self, bench_model, bench_cert):
        window, _, _ = bench_window(bench_model, bench_cert)
        cfg = MheConfig(M=30, alpha=5.0, cert=bench_cert)
        sol = solve_nlp(window, bench_model, cfg)
        assert assemble_event_solution(sol, 0, bench_model,
                                       np.zeros((0, 0))) is sol

    def test_input_validation(self, bench_model, bench_cert):
        window, _, _ = bench_window(bench_model, bench_cert)
        cfg = MheConfig(M=30, alpha=5.0, cert=bench_cert)
        sol = solve_nlp(window, bench_model, cfg)
        with pytest.raises(ConfigurationError):
            assemble_event_solution(sol, -1, bench_model, np.zeros((0, 0)))
        with pytest.raises(ConfigurationError):
            assemble_event_solution(sol, 2, bench_model, np.zeros((1, 0)))
