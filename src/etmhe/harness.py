"""Closed-loop simulation of the event-triggered estimation scheme."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from .certificate import (CertificateError, IossCertificate, RgesConstants,
                          rges_bound, rges_constants)
# assemble_event_solution is not called here: perfbench/tracing.py wraps this name.
from .mhe import (MheConfig, MheSolution, MheWindow, assemble_event_solution,
                  make_window, open_loop_predict, rollout, solve_nlp)
from .model import (Array, ConfigurationError, DisturbanceBounds, SystemModel,
                    sample_disturbance)
from .trigger import EtmState, advance, compute_d, evaluate_trigger, extend

POST_TRANSIENT_START = 30


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce one closed-loop run."""

    model: SystemModel
    cert: IossCertificate
    M: int
    alpha: float
    T: int
    x0: Array
    xhat0: Array
    w_bounds: DisturbanceBounds
    seed: int = 0
    allow_short_horizon: bool = False

    def __post_init__(self):
        if self.T < 1:
            raise ConfigurationError("simulation length must be at least 1")
        if not math.isfinite(self.alpha):
            raise ConfigurationError("alpha must be finite")
        if self.w_bounds.bounds.shape != (self.model.q,):
            raise ConfigurationError("w_bounds has wrong dimension")
        x0 = np.asarray(self.x0, dtype=float)
        xhat0 = np.asarray(self.xhat0, dtype=float)
        for name, v in (("x0", x0), ("xhat0", xhat0)):
            if v.shape != (self.model.n,):
                raise ConfigurationError(f"{name} has wrong dimension")
            if not np.all(np.isfinite(v)):
                raise ConfigurationError(f"{name} must be finite")
            if not self.model.x_set.contains(v):
                raise ConfigurationError(f"{name} outside the admissible state set")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "xhat0", xhat0)

    def mhe_config(self) -> MheConfig:
        return MheConfig(M=self.M, alpha=self.alpha, cert=self.cert,
                         allow_short_horizon=self.allow_short_horizon)


@dataclass
class SimTrace:
    """Per-step record of one closed-loop run; arrays indexed by t = 0..T."""

    x: Array
    xhat: Array
    y: Array
    w: Array
    gamma: Array
    delta: Array
    eps: Array
    d: Array  # d[t] is the threshold statistic d_t; d has length T+2
    err_norm: Array
    bound: Array
    solver_iters: Array
    solver_converged: Array
    cost: Array
    tx_count: Array
    trigger_lhs: Array  # residual sum and threshold behind gamma[t]; NaN at 0
    trigger_threshold: Array

    @property
    def T(self) -> int:
        return len(self.x) - 1

    @property
    def n_events(self) -> int:
        return int(np.sum(self.gamma[1:]))

    @property
    def event_fraction(self) -> float:
        return self.n_events / self.T

    @property
    def w_norms(self) -> Array:
        return np.linalg.norm(self.w, axis=1)


def _warm_start(prev_sol: MheSolution, prev_t: int, window: MheWindow):
    """The solution of the event at prev_t shifted to the new window start:
    its state there (past its end, the open-loop estimate held in the
    prior) and its disturbances from there on, zero-padded."""
    offset = (window.t - window.horizon) - (prev_t - len(prev_sol.w_seq))
    x_start = prev_sol.x_seq[offset] if offset < len(prev_sol.x_seq) else window.prior
    kept = prev_sol.w_seq[offset:]
    pad = np.zeros((window.horizon - len(kept), kept.shape[1]))
    return x_start, np.vstack([kept, pad])


def run_closed_loop(cfg: SimConfig) -> SimTrace:
    """Simulate the full plant / trigger / remote-estimator loop.

    Deterministic for a fixed (config, seed). Solver failures are recorded
    in the trace and do not abort the run.
    """
    model, cert, T = cfg.model, cfg.cert, cfg.T
    mhe_cfg = cfg.mhe_config()
    rng = np.random.default_rng(cfg.seed)

    w = sample_disturbance(rng, cfg.w_bounds, T + 1)
    u = np.zeros((T + 1, model.m))
    x, y = rollout(model, cfg.x0, u[:T], w[:T])
    y = np.vstack([y, model.h(x[T], u[T], w[T])])

    try:
        constants = rges_constants(cert, cfg.alpha, cfg.M)
    except CertificateError:
        constants = None

    xhat = np.empty((T + 1, model.n))
    xhat[0] = cfg.xhat0
    gamma = np.zeros(T + 1, dtype=int)
    delta = np.zeros(T + 1, dtype=int)
    eps = np.zeros(T + 1, dtype=int)
    d = np.zeros(T + 2)
    iters = np.zeros(T + 1, dtype=int)
    converged = np.ones(T + 1, dtype=bool)
    cost = np.full(T + 1, np.nan)
    tx = np.zeros(T + 1, dtype=int)
    trig_lhs = np.full(T + 1, np.nan)
    trig_threshold = np.full(T + 1, np.nan)
    gamma[0] = 1

    etm = EtmState.initial(cfg.alpha, cfg.xhat0)
    last_sol: Optional[MheSolution] = None

    for t in range(1, T + 1):
        etm = extend(etm, model, y[t - 1], u[t - 1], cert)
        fire = evaluate_trigger(etm, cert)
        eps[t] = etm.eps
        trig_lhs[t], trig_threshold[t] = etm.lhs, etm.threshold(cert.eta)
        if fire:
            # Send the outputs since the last event, at most M; older ones went before.
            tx[t] = t - max(t - cfg.M, etm.eps)
            Mt = min(t, cfg.M)
            window = make_window(t=t, delta=0, M=cfg.M, prior=xhat[t - Mt],
                                 measurements=y[t - Mt:t], inputs=u[t - Mt:t])
            warm = None if last_sol is None else _warm_start(last_sol, etm.eps, window)
            sol = solve_nlp(window, model, mhe_cfg, warm_start=warm)
            xhat[t] = sol.estimate
            d_next = compute_d(sol, window, cert)
            gamma[t] = 1
            d[t + 1] = d_next
            iters[t] = sol.iterations
            converged[t] = sol.converged
            cost[t] = sol.cost
            last_sol = sol
            etm = advance(etm, True, d_next, xhat[t])
        else:
            xhat[t] = open_loop_predict(model, xhat[t - 1], u[t - 1])
            delta[t] = t - etm.eps
            d[t + 1] = d[t]
            etm = advance(etm, False)

    err = np.linalg.norm(x - xhat, axis=1)
    if constants is None:
        bound = np.full(T + 1, np.nan)
    else:
        bound = rges_bound(constants, err[0], np.linalg.norm(w[:T], axis=1))

    return SimTrace(x=x, xhat=xhat, y=y, w=w, gamma=gamma, delta=delta,
                    eps=eps, d=d, err_norm=err, bound=bound,
                    solver_iters=iters, solver_converged=converged,
                    cost=cost, tx_count=tx, trigger_lhs=trig_lhs,
                    trigger_threshold=trig_threshold)


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of comparing event-triggered execution with an always-solve oracle."""

    max_discrepancy: float
    max_cost_rel_err: float
    n_steps: int
    n_events: int


def verify_proposition1(cfg: SimConfig) -> EquivalenceReport:
    """Check that open-loop fallback reproduces the time-varying-horizon NLP.

    Replays the exact realization of a closed-loop run, solving the NLP
    cold-started at every step with horizon min(t, M + delta_t), and
    compares the per-step estimates. Also checks that the optimal cost at
    non-event steps is eta^delta times the cost at the last event.
    """
    trace = run_closed_loop(cfg)
    model, cert, T = cfg.model, cfg.cert, cfg.T
    mhe_cfg = cfg.mhe_config()
    u = np.zeros((T + 1, model.m))

    oracle_xhat = np.empty_like(trace.xhat)
    oracle_xhat[0] = cfg.xhat0
    oracle_cost = np.full(T + 1, np.nan)
    max_disc = 0.0
    max_cost_err = 0.0
    for t in range(1, T + 1):
        dt = int(trace.delta[t])
        Mt = min(t, cfg.M + dt)
        start = t - Mt
        meas = trace.y[start:t - dt]
        window = MheWindow(t=t, delta=dt, horizon=Mt, prior=oracle_xhat[start],
                           measurements=meas, inputs=u[start:t])
        sol = solve_nlp(window, model, mhe_cfg)
        oracle_xhat[t] = sol.estimate
        oracle_cost[t] = sol.cost
        max_disc = max(max_disc, float(np.max(np.abs(oracle_xhat[t] - trace.xhat[t]))))
        if dt > 0:
            ref = cert.eta ** dt * oracle_cost[int(trace.eps[t])]
            rel = abs(sol.cost - ref) / max(abs(ref), 1e-30)
            max_cost_err = max(max_cost_err, rel)
    return EquivalenceReport(max_discrepancy=max_disc,
                             max_cost_rel_err=max_cost_err,
                             n_steps=T, n_events=trace.n_events)


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    seed: int
    gamma: Array
    event_fraction: float
    rmse: Array


@dataclass(frozen=True)
class SweepReport:
    rows: List[SweepRow]


def run_alpha_sweep(cfg: SimConfig, alphas: Sequence[float],
                    seeds: Sequence[int]) -> SweepReport:
    """Closed-loop runs over a grid of trigger sensitivities and seeds.

    Each (alpha, seed) pair replays the identical disturbance realization
    for its seed, so event counts across alpha isolate the trigger effect.
    """
    if not len(alphas) or not len(seeds):
        raise ConfigurationError("alpha and seed lists must be nonempty")
    rows = []
    for alpha in alphas:
        for seed in seeds:
            run_cfg = replace(cfg, alpha=float(alpha), seed=int(seed))
            trace = run_closed_loop(run_cfg)
            rmse = np.sqrt(np.mean((trace.x - trace.xhat) ** 2, axis=0))
            rows.append(SweepRow(alpha=float(alpha), seed=int(seed),
                                 gamma=trace.gamma.copy(),
                                 event_fraction=trace.event_fraction,
                                 rmse=rmse))
    return SweepReport(rows=rows)


@dataclass(frozen=True)
class BoundReport:
    n_steps: int
    n_checked: int
    n_violations: int
    violation_times: List[int]
    worst_margin: float  # max of err - bound over checked steps


def check_rges(trace: SimTrace, constants: RgesConstants) -> BoundReport:
    """Compare the per-step estimation error against the exponential bound.

    Steps whose solve did not converge are excluded from the violation
    count (they are solver diagnostics, not bound failures).
    """
    bound = rges_bound(constants, trace.err_norm[0], trace.w_norms[:trace.T])
    checked = (trace.gamma == 0) | trace.solver_converged
    margin = trace.err_norm[checked] - bound[checked]
    violations = np.flatnonzero(checked)[margin > 0].tolist()
    return BoundReport(n_steps=trace.T + 1, n_checked=int(checked.sum()),
                       n_violations=len(violations), violation_times=violations,
                       worst_margin=float(margin.max(initial=-math.inf)))


@dataclass(frozen=True)
class MetricsReport:
    rmse_et: Array
    rmse_std: Array
    rmse_post_et: Array
    rmse_post_std: Array
    post_rmse_ratio: float
    event_fraction_et: float
    event_fraction_std: float
    solve_reduction_pct: float


def performance_metrics(trace_et: SimTrace, trace_mhe: SimTrace) -> MetricsReport:
    """Accuracy and solve-count comparison on a shared realization."""
    if trace_et.T != trace_mhe.T:
        raise ConfigurationError("traces have different lengths")
    if not np.array_equal(trace_et.w, trace_mhe.w):
        raise ConfigurationError("traces come from different realizations")

    def rmse(trace, start=0):
        return np.sqrt(np.mean((trace.x[start:] - trace.xhat[start:]) ** 2, axis=0))

    def overall(trace, start=0):
        return math.sqrt(float(np.mean(
            np.sum((trace.x[start:] - trace.xhat[start:]) ** 2, axis=1))))

    cut = POST_TRANSIENT_START
    post_ratio = overall(trace_et, cut) / max(overall(trace_mhe, cut), 1e-300)
    reduction = 100.0 * (1.0 - trace_et.n_events / max(trace_mhe.n_events, 1))
    return MetricsReport(rmse_et=rmse(trace_et), rmse_std=rmse(trace_mhe),
                         rmse_post_et=rmse(trace_et, cut),
                         rmse_post_std=rmse(trace_mhe, cut),
                         post_rmse_ratio=post_ratio,
                         event_fraction_et=trace_et.event_fraction,
                         event_fraction_std=trace_mhe.event_fraction,
                         solve_reduction_pct=reduction)
