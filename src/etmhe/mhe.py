"""Moving-horizon estimation: cost, single-shooting NLP solver, predictions."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

# min_horizon is not called here: perfbench/tracing.py wraps this name.
from .certificate import IossCertificate, min_horizon
from .model import ConfigurationError, SystemModel

Array = np.ndarray


# Levenberg-Marquardt internals: an iteration cap, the gradient, relative
# step and flat-cost stopping tolerances, and the damping schedule.
LM_MAX_ITERATIONS = 100
LM_GRADIENT_TOLERANCE = 1e-10
LM_STEP_TOLERANCE = 1e-12
LM_COST_TOLERANCE = 1e-9
LM_INITIAL_DAMPING = 1e-3
LM_DAMPING_INCREASE = 10.0
LM_DAMPING_DECREASE = 0.1


@dataclass(frozen=True)
class MheWindow:
    """Data of one solve: a window of horizon = len(inputs) steps.

    prior is the prior for the window's first state; measurements holds
    the transmitted outputs of all but the last delta steps, shape
    (horizon - delta, p).
    """

    delta: int
    prior: Array
    measurements: Array
    inputs: Array

    def __post_init__(self):
        prior, meas, inputs = (np.asarray(v, dtype=float) for v in
                               (self.prior, self.measurements, self.inputs))
        if meas.ndim != 2:
            raise ConfigurationError("measurements must be 2-D, one row per step")
        if not 0 <= self.delta <= len(inputs):
            raise ConfigurationError("delta must lie between 0 and the horizon")
        if len(meas) != len(inputs) - self.delta:
            raise ConfigurationError(
                f"expected {len(inputs) - self.delta} measurements, got {len(meas)}")
        for name, v in (("prior", prior), ("measurements", meas), ("inputs", inputs)):
            if not np.isfinite(v).all():
                raise ConfigurationError(f"window {name} must be finite")
            object.__setattr__(self, name, v)

    @property
    def horizon(self) -> int:
        return len(self.inputs)


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


def cost_residuals(window: MheWindow, cert: IossCertificate, alpha: float):
    """The window cost as a residual map r(x_init, w_seq, y_seq).

    r stacks [prior | disturbances | measured outputs], batched over leading
    dimensions; its squared norm is the discounted cost
    2 eta^Mt |x_init - prior|_P2^2 + sum_j eta^(Mt-1-j) (2 (alpha+1) |w_j|_Q^2
    + (alpha+1) |y_j - measured y_j|_R^2), with output terms only for the
    Mt - delta measured steps. y_seq are the outputs rolled out from
    (x_init, w_seq); the map never rolls out itself.
    """
    eta, Mt = cert.eta, window.horizon
    n_meas = Mt - window.delta
    disc = eta ** (Mt - 1 - np.arange(Mt))  # eta^(t-j-1) for j = t-Mt..t-1
    Up = np.sqrt(2.0 * eta ** Mt) * _sqrt_factor(cert.P2)
    Uq = _sqrt_factor(cert.Q)
    Ur = _sqrt_factor(cert.R)
    sw = np.sqrt(2.0 * (alpha + 1.0) * disc)
    sy = np.sqrt((alpha + 1.0) * disc[:n_meas])
    meas = window.measurements
    if meas.shape[1] != len(Ur):
        raise ConfigurationError("measurements do not match the output dimension")

    def residuals(x_init: Array, w_seq: Array, y_seq: Array) -> Array:
        batch = np.shape(x_init)[:-1]
        r_w = (w_seq @ Uq.T) * sw[:, None]
        r_y = ((y_seq[..., :n_meas, :] - meas) @ Ur.T) * sy[:, None]
        return np.concatenate([(x_init - window.prior) @ Up.T,
                               r_w.reshape(batch + (-1,)),
                               r_y.reshape(batch + (-1,))], axis=-1)

    return residuals


def eval_cost(window: MheWindow, x_init: Array, w_seq: Array,
              model: SystemModel, cert: IossCertificate, alpha: float) -> float:
    """Discounted least-squares cost of a candidate (x_init, w_seq)."""
    x_init = np.asarray(x_init, dtype=float)
    w_seq = np.asarray(w_seq, dtype=float).reshape(window.horizon, model.q)
    _, y_seq = rollout(model, x_init, window.inputs, w_seq)
    r = cost_residuals(window, cert, alpha)(x_init, w_seq, y_seq)
    return float(r @ r)


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


def solve_nlp(window: MheWindow, model: SystemModel, cert: IossCertificate,
              alpha: float,
              warm_start: Optional[Tuple[Array, Array]] = None) -> MheSolution:
    """Minimize the window cost over (x_init, w_seq) by projected
    Levenberg-Marquardt with single shooting.

    States are eliminated by forward rollout; box constraints on the
    decision variables are handled by projecting each trial step. A
    non-convergent solve returns the best iterate with converged=False.
    """
    Mt, n, q = window.horizon, model.n, model.q
    nz = n + Mt * q
    residuals = cost_residuals(window, cert, alpha)

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
        R = residuals(x0, w, outputs)
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
    lam = LM_INITIAL_DAMPING
    converged = False
    iterations = 0

    while iterations < LM_MAX_ITERATIONS:
        iterations += 1
        # Forward-difference Jacobian, formed in place in the batch residuals.
        r = R[0]
        R[1:] -= r
        R[1:] /= h_fd[:, None]
        J = R[1:].T
        g = J.T @ r
        g_proj = z - np.clip(z - g, lo, hi)
        if np.max(np.abs(g_proj)) < LM_GRADIENT_TOLERANCE:
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
                lam *= LM_DAMPING_INCREASE
                continue
            z_new[active] = z[active]
            trial = None  # release a rejected trial's batch before the next one
            trial = evaluate(z_new)
            if trial[0] <= cost:
                break
            lam *= LM_DAMPING_INCREASE
        else:
            # Damping exhausted without descent: stationary to working precision.
            converged = np.max(np.abs(g_proj)) < 1e-6
            break
        step_norm = np.linalg.norm(z_new - z)
        cost_drop = cost - trial[0]
        z, (cost, R, h_fd, x_seq, y_seq) = z_new, trial
        lam = max(lam * LM_DAMPING_DECREASE, 1e-14)
        if step_norm < LM_STEP_TOLERANCE * (1.0 + np.linalg.norm(z)):
            converged = True
            break
        if cost_drop < LM_COST_TOLERANCE * max(cost, 1.0):
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
