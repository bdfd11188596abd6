"""Moving-horizon estimation: cost, single-shooting NLP solver, predictions."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from .certificate import IossCertificate, min_horizon
from .model import ConfigurationError, SystemModel

Array = np.ndarray


@dataclass(frozen=True)
class SolverSettings:
    """Levenberg-Marquardt parameters."""

    max_iterations: int = 100
    gradient_tolerance: float = 1e-10
    step_tolerance: float = 1e-12
    cost_tolerance: float = 1e-9
    initial_damping: float = 1e-3
    damping_increase: float = 10.0
    damping_decrease: float = 0.1

    def __post_init__(self):
        if self.max_iterations <= 0 or min(self.gradient_tolerance, self.step_tolerance,
                                           self.cost_tolerance, self.initial_damping,
                                           self.damping_increase,
                                           self.damping_decrease) <= 0:
            raise ConfigurationError("solver settings must be positive")


@dataclass(frozen=True)
class MheConfig:
    """Horizon, trigger sensitivity, cost weights and solver settings."""

    M: int
    alpha: float
    cert: IossCertificate
    solver: SolverSettings = field(default_factory=SolverSettings)
    allow_short_horizon: bool = False

    def __post_init__(self):
        if self.M < 0:
            raise ConfigurationError("horizon must be nonnegative")
        if self.alpha < 0:
            raise ConfigurationError("alpha must be nonnegative")
        M_min = min_horizon(self.cert)
        if self.M < M_min:
            if not self.allow_short_horizon:
                raise ConfigurationError(
                    f"horizon {self.M} below stability minimum {M_min} "
                    "(set allow_short_horizon to override)")
            warnings.warn(f"horizon {self.M} below stability minimum {M_min}",
                          stacklevel=2)


@dataclass(frozen=True)
class MheWindow:
    """Measurement window for one solve at time t.

    horizon is the effective length M_t = min(t, M + delta); measurements
    holds the transmitted outputs y_j for j in [t - M_t, t - delta - 1].
    """

    t: int
    delta: int
    horizon: int
    prior: Array
    measurements: Array
    inputs: Array

    def __post_init__(self):
        if self.delta < 0 or self.horizon < self.delta or self.horizon > self.t:
            raise ConfigurationError("inconsistent window bookkeeping")
        meas = np.atleast_2d(np.asarray(self.measurements, dtype=float)) \
            if np.size(self.measurements) else np.zeros((0, 0))
        if len(meas) != self.horizon - self.delta:
            raise ConfigurationError(
                f"expected {self.horizon - self.delta} measurements, got {len(meas)}")
        inputs = np.asarray(self.inputs, dtype=float)
        if len(inputs) != self.horizon:
            raise ConfigurationError(f"expected {self.horizon} inputs")
        object.__setattr__(self, "prior", np.asarray(self.prior, dtype=float))
        object.__setattr__(self, "measurements", meas)
        object.__setattr__(self, "inputs", inputs)


def make_window(t: int, delta: int, M: int, prior: Array,
                measurements: Array, inputs: Array) -> MheWindow:
    """Window with the prescribed effective horizon min(t, M + delta)."""
    return MheWindow(t=t, delta=delta, horizon=min(t, M + delta),
                     prior=prior, measurements=measurements, inputs=inputs)


@dataclass(frozen=True)
class MheSolution:
    """Optimizer result: initial window state, disturbances, rolled-out
    states/outputs, optimal cost and solver statistics."""

    x_init: Array
    w_seq: Array
    x_seq: Array
    y_seq: Array
    cost: float
    iterations: int
    converged: bool

    @property
    def estimate(self) -> Array:
        """Estimate at the window's current time, x_seq[-1]."""
        return self.x_seq[-1]


def rollout(model: SystemModel, x_init: Array, u_seq: Array,
            w_seq: Array) -> Tuple[Array, Array]:
    """Forward-simulate states and outputs from x_init; supports batches.

    Returns (states of length len(w_seq)+1, outputs of length len(w_seq)).
    """
    x_init = np.asarray(x_init, dtype=float)
    u_seq = np.asarray(u_seq, dtype=float)
    w_seq = np.asarray(w_seq, dtype=float)
    steps = w_seq.shape[-2] if w_seq.ndim >= 2 else 0
    if len(u_seq) != steps:
        raise ConfigurationError("input/disturbance length mismatch")
    batch = x_init.shape[:-1]
    states = np.empty(batch + (steps + 1, model.n))
    outputs = np.empty(batch + (steps, model.p))
    states[..., 0, :] = x_init
    for k in range(steps):
        x = states[..., k, :]
        w = w_seq[..., k, :]
        outputs[..., k, :] = model.h(x, u_seq[k], w)
        states[..., k + 1, :] = model.f(x, u_seq[k], w)
    return states, outputs


def open_loop_predict(model: SystemModel, x_prev: Array, u_prev: Array) -> Array:
    """Nominal one-step prediction f(x, u, 0)."""
    return model.f(np.asarray(x_prev, float), np.asarray(u_prev, float),
                   np.zeros(model.q))


def _cost_weights(window: MheWindow, cfg: MheConfig):
    """Per-term scalar discount weights of the cost for this window."""
    eta = cfg.cert.eta
    Mt = window.horizon
    disc = eta ** (Mt - 1 - np.arange(Mt))  # eta^(t-j-1) for j = t-Mt..t-1
    prior_w = 2.0 * eta ** Mt
    w_w = 2.0 * (cfg.alpha + 1.0) * disc
    y_w = (cfg.alpha + 1.0) * disc[: Mt - window.delta]
    return prior_w, w_w, y_w


def eval_cost(window: MheWindow, x_init: Array, w_seq: Array,
              model: SystemModel, cfg: MheConfig) -> float:
    """Discounted least-squares cost of a candidate (x_init, w_seq)."""
    x_init = np.asarray(x_init, dtype=float)
    w_seq = np.asarray(w_seq, dtype=float).reshape(window.horizon, model.q)
    _, y_seq = rollout(model, x_init, window.inputs, w_seq)
    prior_w, w_w, y_w = _cost_weights(window, cfg)
    P2, Q, R = cfg.cert.P2, cfg.cert.Q, cfg.cert.R
    dp = x_init - window.prior
    cost = prior_w * float(dp @ P2 @ dp)
    for k in range(window.horizon):
        cost += w_w[k] * float(w_seq[k] @ Q @ w_seq[k])
    for k in range(window.horizon - window.delta):
        dy = y_seq[k] - window.measurements[k]
        cost += y_w[k] * float(dy @ R @ dy)
    return cost


def _sqrt_factor(mat: Array) -> Array:
    """Upper factor U with U^T U = mat, for spd or psd matrices."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    try:
        return np.linalg.cholesky(mat).T
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(mat)
        vals = np.clip(vals, 0.0, None)
        return (vecs * np.sqrt(vals)) @ vecs.T


def _boxed_step(A: Array, g: Array, z: Array, lo: Array, hi: Array) -> Array:
    """Minimize the damped quadratic model subject to the box, by an inner
    active-set loop: solve for the free coordinates, clamp violators to
    their bound, repeat until the free part stays feasible."""
    nz = len(z)
    fixed = np.zeros(nz, dtype=bool)
    dz = np.zeros(nz)
    for _ in range(12):
        free = ~fixed
        if not free.any():
            break
        rhs = -(g[free] + A[np.ix_(free, fixed)] @ dz[fixed])
        dz[free] = np.linalg.solve(A[np.ix_(free, free)], rhs)
        z_new = z + dz
        below = (z_new < lo) & free
        above = (z_new > hi) & free
        if not below.any() and not above.any():
            break
        dz[below] = (lo - z)[below]
        dz[above] = (hi - z)[above]
        fixed |= below | above
    return np.clip(z + dz, lo, hi)


def solve_nlp(window: MheWindow, model: SystemModel, cfg: MheConfig,
              warm_start: Optional[Tuple[Array, Array]] = None) -> MheSolution:
    """Minimize the window cost over (x_init, w_seq) by projected
    Levenberg-Marquardt with single shooting.

    States are eliminated by forward rollout; box constraints on the
    decision variables are handled by projecting each trial step. A
    non-convergent solve returns the best iterate with converged=False.
    """
    s = cfg.solver
    Mt, n, q, p = window.horizon, model.n, model.q, model.p
    nz = n + Mt * q

    prior_w, w_w, y_w = _cost_weights(window, cfg)
    Up = np.sqrt(prior_w) * _sqrt_factor(cfg.cert.P2)
    Uq = _sqrt_factor(cfg.cert.Q)
    Ur = _sqrt_factor(cfg.cert.R)
    sw = np.sqrt(w_w)
    sy = np.sqrt(y_w)
    n_meas = Mt - window.delta

    lo = np.concatenate([model.x_set.lower, np.tile(model.w_set.lower, Mt)])
    hi = np.concatenate([model.x_set.upper, np.tile(model.w_set.upper, Mt)])

    def evaluate(z: Array):
        """Cost of z, then the residuals of z (row 0) and of its
        forward-difference perturbations z + h_i e_i (rows 1..nz), all from
        one batched rollout, the steps h, and copies of z's states and
        outputs."""
        h_fd = 1e-7 * (1.0 + np.abs(z))
        Z = np.vstack([z, z + np.diag(h_fd)])
        x0 = Z[:, :n]
        w = Z[:, n:].reshape(nz + 1, Mt, q)
        states, outputs = rollout(model, x0, window.inputs, w)
        r_prior = (x0 - window.prior) @ Up.T
        r_w = (w @ Uq.T) * sw[:, None]
        parts = [r_prior, r_w.reshape(nz + 1, Mt * q)]
        if n_meas:
            dy = outputs[:, :n_meas, :] - window.measurements
            r_y = (dy @ Ur.T) * sy[:, None]
            parts.append(r_y.reshape(nz + 1, n_meas * p))
        R = np.concatenate(parts, axis=-1)
        return float(R[0] @ R[0]), R, h_fd, states[0].copy(), outputs[0].copy()

    if warm_start is not None:
        z = np.concatenate([np.asarray(warm_start[0], float).ravel(),
                            np.asarray(warm_start[1], float).ravel()])
        if z.shape != (nz,):
            raise ConfigurationError("warm start has wrong dimensions")
    else:
        z = np.concatenate([window.prior, np.zeros(Mt * q)])
    z = np.clip(z, lo, hi)

    cost, R, h_fd, x_seq, y_seq = evaluate(z)
    lam = s.initial_damping
    converged = False
    iterations = 0

    while iterations < s.max_iterations:
        iterations += 1
        # Forward-difference Jacobian, formed in place in the batch residuals.
        r = R[0]
        R[1:] -= r
        R[1:] /= h_fd[:, None]
        J = R[1:].T
        g = J.T @ r
        g_proj = z - np.clip(z - g, lo, hi)
        if np.max(np.abs(g_proj)) < s.gradient_tolerance:
            converged = True
            break
        # Freeze coordinates pressed against a bound so clipping cannot
        # degrade the step; damp with the Marquardt diagonal scaling.
        bound_tol = 1e-12 * (1.0 + np.abs(z))
        active = ((z <= lo + bound_tol) & (g > 0)) | ((z >= hi - bound_tol) & (g < 0))
        free = ~active
        JtJ = np.zeros((nz, nz))
        JtJ[np.ix_(free, free)] = J[:, free].T @ J[:, free]
        g_masked = np.where(free, g, 0.0)
        scale = np.clip(np.diag(JtJ), 1e-12, None)
        # Trials need only JtJ and g: free this batch before evaluating one.
        del R, J, r
        while lam <= 1e14:
            try:
                z_new = _boxed_step(JtJ + lam * np.diag(scale), g_masked, z, lo, hi)
            except np.linalg.LinAlgError:
                lam *= s.damping_increase
                continue
            z_new[active] = z[active]
            trial = None  # release a rejected trial's batch before the next one
            trial = evaluate(z_new)
            if trial[0] <= cost:
                break
            lam *= s.damping_increase
        else:
            # Damping exhausted without descent: stationary to working precision.
            converged = np.max(np.abs(g_proj)) < 1e-6
            break
        step_norm = np.linalg.norm(z_new - z)
        cost_drop = cost - trial[0]
        z, (cost, R, h_fd, x_seq, y_seq) = z_new, trial
        lam = max(lam * s.damping_decrease, 1e-14)
        if step_norm < s.step_tolerance * (1.0 + np.linalg.norm(z)):
            converged = True
            break
        if cost_drop < s.cost_tolerance * max(cost, 1.0):
            # Flat valley: the objective no longer decreases meaningfully.
            converged = True
            break

    return MheSolution(x_init=z[:n], w_seq=z[n:].reshape(Mt, q), x_seq=x_seq,
                       y_seq=y_seq, cost=cost, iterations=iterations,
                       converged=converged)


def assemble_event_solution(prev: MheSolution, delta: int, model: SystemModel,
                            u_seq: Array, eta: Optional[float] = None) -> MheSolution:
    """Extend the last event's solution by delta nominal steps.

    Same initial window state and disturbances, zero disturbances on the
    new steps, states continued by open-loop prediction. When the discount
    rate eta is given, the cost is rescaled by eta^delta, which is the
    optimal value of the extended window.
    """
    if delta < 0:
        raise ConfigurationError("delta must be nonnegative")
    if delta == 0:
        return prev
    if len(u_seq) != delta:
        raise ConfigurationError(f"expected {delta} inputs, got {len(u_seq)}")
    w_ext = np.vstack([prev.w_seq, np.zeros((delta, model.q))])
    x_seq = list(prev.x_seq)
    y_seq = list(prev.y_seq)
    for k in range(delta):
        u = np.asarray(u_seq[k], dtype=float)
        y_seq.append(model.h(x_seq[-1], u, np.zeros(model.q)))
        x_seq.append(open_loop_predict(model, x_seq[-1], u))
    cost = prev.cost if eta is None else prev.cost * eta ** delta
    return replace(prev, w_seq=w_ext, x_seq=np.asarray(x_seq),
                   y_seq=np.asarray(y_seq), cost=cost, iterations=0)
