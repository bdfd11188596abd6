"""Closed-loop simulation of the event-triggered estimation scheme."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .certificate import IossCertificate, RgesConstants, rges_bound
# open_loop_predict and solve_nlp are not called here (the closed loop and
# the oracle call solve_nlp_batch): perfbench/tracing.py wraps these names.
from .mhe import (MheSolution, MheWindow, assemble_event_solution, compute_d,
                  open_loop_predict, rollout, solve_nlp, solve_nlp_batch)
from .model import (Array, ConfigurationError, SystemModel, require_integer,
                    sample_disturbance)
from .trigger import EtmState, advance, evaluate_trigger, extend

POST_TRANSIENT_START = 30
# The Prop-1 oracle solves up to this many consecutive steps in one batch
# (at most M). Each member of a batch holds its own JtJ and rollout rows
# until the batch ends, so a longer chunk raises the peak memory: on an
# oracle replay at M=30, T=100 (2 CPUs, numpy 2.4), the peak RSS over the
# one-step-at-a-time oracle rose by 1.4-1.6% with chunks of 2, 3.5-5.5%
# with 3 and 6.5-6.8% with 4.
ORACLE_CHUNK = 2


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
    seed: int = 0

    def __post_init__(self):
        for name in ("M", "T", "seed"):
            require_integer(name, getattr(self, name))
        if self.T < 1:
            raise ConfigurationError("simulation length must be at least 1")
        if self.M < 1:
            raise ConfigurationError("horizon must be at least 1")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ConfigurationError("alpha must be finite and nonnegative")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")
        # P2 has the shape of P1 (IossCertificate checks that).
        for name, dim in (("P1", self.model.n), ("Q", self.model.q), ("R", self.model.p)):
            rows, cols = getattr(self.cert, name).shape
            if (rows, cols) != (dim, dim):
                raise ConfigurationError(f"certificate {name} is {rows}x{cols}, "
                                         f"the model needs {dim}x{dim}")
        if not np.all(np.isfinite((self.model.w_set.lower, self.model.w_set.upper))):
            raise ConfigurationError("w_set must be finite: the plant draws from it")
        for name in ("x0", "xhat0"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (self.model.n,):
                raise ConfigurationError(f"{name} has wrong dimension")
            if not np.all(np.isfinite(v)):
                raise ConfigurationError(f"{name} must be finite")
            if not self.model.x_set.contains(v):
                raise ConfigurationError(f"{name} outside the admissible state set")
            object.__setattr__(self, name, v)


@dataclass
class SimTrace:
    """Per-step record of one closed-loop run; arrays indexed by t = 0..T.

    delta[t] = 0 at an event, else t - eps[t]: the steps since the last event.
    tx_count[t] = t - max(t - M, eps[t]) at an event, else 0: the outputs sent.
    """

    x: Array
    xhat: Array
    y: Array
    w: Array
    gamma: Array
    delta: Array
    eps: Array
    d: Array  # d[t] is the threshold statistic d_t; d has length T+2
    err_norm: Array
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


def run_closed_loop(cfg: SimConfig) -> SimTrace:
    """Simulate the full plant / trigger / remote-estimator loop.

    Deterministic for a fixed (config, seed). Solver failures are recorded
    in the trace and do not abort the run. Any horizon M >= 1 runs: the
    minimum horizon is a condition of the error bound (rges_constants),
    not of the estimator.
    """
    return run_closed_loop_batch([cfg])[0]


def run_closed_loop_batch(cfgs: Sequence[SimConfig]) -> List[SimTrace]:
    """run_closed_loop on each config, stepped in lockstep.

    The runs must share model, cert, M and T. At each step, the solves of
    all runs that fire share their rollouts (solve_nlp_batch), so each
    trace equals its run_closed_loop trace bit for bit.
    """
    if not len(cfgs):
        raise ConfigurationError("a batch needs at least one run")
    model, cert, M, T = cfgs[0].model, cfgs[0].cert, cfgs[0].M, cfgs[0].T
    if any(c.model is not model or c.cert is not cert or c.M != M or c.T != T
           for c in cfgs):
        raise ConfigurationError("the runs of a batch must share model, cert, M and T")
    K = len(cfgs)

    # All plants in one rollout, one draw per run on the W the solver constrains.
    w = np.stack([sample_disturbance(np.random.default_rng(c.seed), model.w_set, T + 1)
                  for c in cfgs])
    x, y = rollout(model, np.stack([c.x0 for c in cfgs]), w[:, :T])
    y = np.concatenate([y, model.h(x[:, T], w[:, T])[:, None]], axis=1)

    xhat = np.empty((K, T + 1, model.n))
    xhat[:, 0] = [c.xhat0 for c in cfgs]
    gamma = np.zeros((K, T + 1), dtype=int)
    eps = np.zeros((K, T + 1), dtype=int)
    d = np.zeros((K, T + 2))
    iters = np.zeros((K, T + 1), dtype=int)
    converged = np.ones((K, T + 1), dtype=bool)
    cost = np.full((K, T + 1), np.nan)
    trig_lhs = np.full((K, T + 1), np.nan)
    trig_threshold = np.full((K, T + 1), np.nan)
    gamma[:, 0] = 1

    etm = [EtmState.initial(c.alpha, c.xhat0) for c in cfgs]
    last_sol: List[Optional[MheSolution]] = [None] * K

    for t in range(1, T + 1):
        Mt = min(t, M)
        fired, problems = [], []
        for k, cfg in enumerate(cfgs):
            etm[k] = extend(etm[k], model, y[k, t - 1], cert)
            eps[k, t] = etm[k].eps
            trig_lhs[k, t] = etm[k].lhs
            trig_threshold[k, t] = etm[k].threshold(cert.eta)
            if evaluate_trigger(etm[k], cert):
                window = MheWindow(delta=0, prior=xhat[k, t - Mt],
                                   measurements=y[k, t - Mt:t])
                warm = None
                if last_sol[k] is not None:
                    # The last solution extended to t (Prop 1), cut to the window.
                    ext = assemble_event_solution(last_sol[k], t - etm[k].eps,
                                                  model, cert.eta)
                    warm = ext.x_seq[-Mt - 1], ext.w_seq[-Mt:]
                fired.append(k)
                problems.append((window, cert, cfg.alpha, warm))
        for k, (window, *_), sol in zip(fired, problems,
                                        solve_nlp_batch(problems, model)):
            gamma[k, t] = 1
            iters[k, t] = sol.iterations
            converged[k, t] = sol.converged
            cost[k, t] = sol.cost
            last_sol[k] = sol
            etm[k] = advance(etm[k], compute_d(sol, window, cert), sol.estimate)
        # A fired run's state now holds its estimate and new d; a silent
        # run's still holds f(xhat[t-1], 0), computed by extend, and the old d.
        xhat[:, t] = [s.pred for s in etm]
        d[:, t + 1] = [s.d for s in etm]

    steps = np.arange(T + 1)
    delta = np.where(gamma == 1, 0, steps - eps)
    # An event sends the outputs since the last event, at most M; older ones
    # went before.
    tx = gamma * (steps - np.maximum(steps - M, eps))
    err = np.linalg.norm(x - xhat, axis=2)
    return [SimTrace(x=x[k], xhat=xhat[k], y=y[k], w=w[k], gamma=gamma[k],
                     delta=delta[k], eps=eps[k], d=d[k], err_norm=err[k],
                     solver_iters=iters[k], solver_converged=converged[k],
                     cost=cost[k], tx_count=tx[k], trigger_lhs=trig_lhs[k],
                     trigger_threshold=trig_threshold[k])
            for k in range(K)]


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of comparing event-triggered execution with an always-solve oracle."""

    max_discrepancy: float
    max_cost_rel_err: float
    n_events: int


def verify_proposition1(cfg: SimConfig) -> EquivalenceReport:
    """Check that open-loop fallback reproduces the time-varying-horizon NLP.

    Replays the exact realization of a closed-loop run, solving the NLP
    cold-started at every step with horizon min(t, M + delta_t), and
    compares the per-step estimates. Also checks that the optimal cost at
    non-event steps is eta^delta times the cost at the last event. A NaN
    discrepancy or cost error is reported, not dropped.

    Step t's window starts at 0 or at t - M or earlier, so the prior of
    each of min(ORACLE_CHUNK, M) consecutive steps is an estimate of an
    earlier chunk: their solves share rollouts (solve_nlp_batch).
    """
    trace = run_closed_loop(cfg)
    model, cert, T = cfg.model, cfg.cert, cfg.T

    # NaN until solved: a prior read too early is rejected by MheWindow.
    oracle_xhat = np.full_like(trace.xhat, np.nan)
    oracle_xhat[0] = cfg.xhat0
    oracle_cost = np.full(T + 1, np.nan)
    chunk = min(ORACLE_CHUNK, cfg.M)
    for t0 in range(1, T + 1, chunk):
        steps = range(t0, min(t0 + chunk, T + 1))
        problems = []
        for t in steps:
            dt = int(trace.delta[t])
            start = t - min(t, cfg.M + dt)
            window = MheWindow(delta=dt, prior=oracle_xhat[start],
                               measurements=trace.y[start:t - dt])
            problems.append((window, cert, cfg.alpha, None))
        for t, sol in zip(steps, solve_nlp_batch(problems, model)):
            oracle_xhat[t] = sol.estimate
            oracle_cost[t] = sol.cost

    silent = trace.delta > 0
    ref = cert.eta ** trace.delta[silent] * oracle_cost[trace.eps[silent]]
    cost_errs = np.abs(oracle_cost[silent] - ref) / np.maximum(np.abs(ref), 1e-30)
    # np.max, unlike the builtin max, lets a NaN through.
    disc = np.abs(oracle_xhat[1:] - trace.xhat[1:])
    return EquivalenceReport(max_discrepancy=float(np.max(disc, initial=0.0)),
                             max_cost_rel_err=float(np.max(cost_errs, initial=0.0)),
                             n_events=trace.n_events)


def sweep_configs(cfg: SimConfig, alphas: Sequence[float],
                  seeds: Sequence[int]) -> List[SimConfig]:
    """The configs of an alpha x seed grid, alpha-major. An empty list, a
    repeated alpha or seed, and an invalid point are rejected."""
    if not len(alphas) or not len(seeds):
        raise ConfigurationError("alpha and seed lists must be nonempty")
    if len({float(a) for a in alphas}) < len(alphas) or len(set(seeds)) < len(seeds):
        raise ConfigurationError("a sweep may not repeat an alpha or a seed")
    return [replace(cfg, alpha=float(alpha), seed=seed)
            for alpha in alphas for seed in seeds]


def run_alpha_sweep(cfg: SimConfig, alphas: Sequence[float],
                    seeds: Sequence[int]) -> List[Tuple[SimConfig, SimTrace]]:
    """Closed-loop runs over a grid of trigger sensitivities and seeds, as
    (config, trace) pairs, alpha-major (sweep_configs), in one batch.

    Each (alpha, seed) pair replays the identical disturbance realization
    for its seed, so event counts across alpha isolate the trigger effect.
    """
    batch = sweep_configs(cfg, alphas, seeds)
    return list(zip(batch, run_closed_loop_batch(batch)))


@dataclass(frozen=True)
class BoundReport:
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
    # A non-finite error is a violation too.
    violations = np.flatnonzero(checked)[~(margin <= 0)].tolist()
    return BoundReport(n_checked=int(checked.sum()),
                       n_violations=len(violations), violation_times=violations,
                       worst_margin=float(margin.max(initial=-math.inf)))


@dataclass(frozen=True)
class MetricsReport:
    post_rmse_ratio: float
    solve_reduction_pct: float


def performance_metrics(trace_et: SimTrace, trace_mhe: SimTrace) -> MetricsReport:
    """Accuracy and solve-count comparison on a shared realization."""
    if not np.array_equal(trace_et.w, trace_mhe.w):
        raise ConfigurationError("traces come from different realizations")
    if trace_et.T < POST_TRANSIENT_START:
        raise ConfigurationError(f"a run of {trace_et.T} steps ends before the "
                                 f"post-transient cut at t = {POST_TRANSIENT_START}")

    def overall(trace, start=0):
        return math.sqrt(float(np.mean(
            np.sum((trace.x[start:] - trace.xhat[start:]) ** 2, axis=1))))

    cut = POST_TRANSIENT_START
    post_ratio = overall(trace_et, cut) / max(overall(trace_mhe, cut), 1e-300)
    reduction = 100.0 * (1.0 - trace_et.n_events / max(trace_mhe.n_events, 1))
    return MetricsReport(post_rmse_ratio=post_ratio, solve_reduction_pct=reduction)
