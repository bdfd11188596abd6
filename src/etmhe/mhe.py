"""Moving-horizon estimation: cost, single-shooting NLP solver, predictions."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

# min_horizon is not called here: perfbench/tracing.py wraps this name.
from .certificate import IossCertificate, min_horizon
from .model import ConfigurationError, SystemModel, require_integer

Array = np.ndarray


# Levenberg-Marquardt internals: an iteration cap, the relative step and
# flat-cost stopping tolerances, and the damping schedule.
LM_MAX_ITERATIONS = 100
LM_STEP_TOLERANCE = 1e-12
LM_COST_TOLERANCE = 1e-9
LM_INITIAL_DAMPING = 1e-3
LM_DAMPING_INCREASE = 10.0
LM_DAMPING_DECREASE = 0.1


@dataclass(frozen=True)
class MheWindow:
    """Data of one solve: the prior for the window's first state, the
    transmitted outputs of its measured steps (one row each) and delta,
    the number of unmeasured steps that end it; its horizon is
    len(measurements) + delta.
    """

    delta: int
    prior: Array
    measurements: Array

    def __post_init__(self):
        prior = np.asarray(self.prior, dtype=float)
        meas = np.asarray(self.measurements, dtype=float)
        if meas.ndim != 2:
            raise ConfigurationError("measurements must be 2-D, one row per step")
        require_integer("delta", self.delta)
        if self.delta < 0:
            raise ConfigurationError(f"delta must be nonnegative, got {self.delta!r}")
        for name, v in (("prior", prior), ("measurements", meas)):
            if not np.isfinite(v).all():
                raise ConfigurationError(f"window {name} must be finite")
            object.__setattr__(self, name, v)

    @property
    def horizon(self) -> int:
        return len(self.measurements) + self.delta


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


def rollout(model: SystemModel, x_init: Array, w_seq: Array) -> Tuple[Array, Array]:
    """Forward-simulate states and outputs from x_init; supports batches.

    x_init is batch + (n,) and w_seq batch + (steps, q), stepped time
    first. Returns (states of length steps+1, outputs of length steps),
    batch dimensions first.
    """
    x_init = np.asarray(x_init, dtype=float)
    w = np.moveaxis(np.asarray(w_seq, dtype=float), -2, 0)
    states = np.empty((len(w) + 1,) + x_init.shape)
    states[0] = x_init
    for k in range(len(w)):
        states[k + 1] = model.f(states[k], w[k])
    # h does not feed back, so one call covers every step.
    outputs = model.h(states[:-1], w)
    return np.moveaxis(states, 0, -2), np.moveaxis(outputs, 0, -2)


def open_loop_predict(model: SystemModel, x_prev: Array) -> Array:
    """Nominal one-step prediction f(x, 0)."""
    return model.f(np.asarray(x_prev, float), np.zeros(model.q))


def cost_residuals(window: MheWindow, cert: IossCertificate, alpha: float):
    """The window cost as a residual map r(x_init, w_seq, y_seq).

    r stacks [prior | disturbances | measured outputs], batched over leading
    dimensions; its squared norm is the discounted cost
    2 eta^Mt |x_init - prior|_P2^2 + sum_j eta^(Mt-1-j) (2 (alpha+1) |w_j|_Q^2
    + (alpha+1) |y_j - measured y_j|_R^2), with output terms only for the
    Mt - delta measured steps. y_seq are the outputs rolled out from
    (x_init, w_seq); the map never rolls out itself.
    """
    if not (np.isfinite(alpha) and alpha >= 0):
        raise ConfigurationError("alpha must be finite and nonnegative")
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
    if window.prior.shape != (len(Up),):
        raise ConfigurationError("prior does not match the state dimension")

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
    x_init = _finite_array("x_init", x_init, (model.n,))
    w_seq = _finite_array("w_seq", w_seq, (window.horizon, model.q))
    _, y_seq = rollout(model, x_init, w_seq)
    r = cost_residuals(window, cert, alpha)(x_init, w_seq, y_seq)
    return float(r @ r)


def _finite_array(name: str, value: Array, shape: tuple) -> Array:
    """value as a finite array of the given shape, from that shape or flat."""
    v = np.asarray(value, dtype=float)
    if v.size != math.prod(shape):
        raise ConfigurationError(f"{name} must fill shape {shape}, got {v.size} values")
    if v.shape not in (shape, (v.size,)):
        raise ConfigurationError(f"{name} must have shape {shape} or be flat, "
                                 f"got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ConfigurationError(f"{name} must be finite")
    return v.reshape(shape)


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
    dz = np.linalg.solve(A, -g)  # first pass: nothing fixed, so no gathers
    for i in range(12):
        free = ~fixed
        if i:
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
    return solve_nlp_batch([(window, cert, alpha, warm_start)], model)[0]


def solve_nlp_batch(problems: Sequence[Tuple[MheWindow, IossCertificate, float,
                                             Optional[Tuple[Array, Array]]]],
                    model: SystemModel) -> List[MheSolution]:
    """solve_nlp on each (window, cert, alpha, warm_start), with shared rollouts.

    The solves advance together: each round, the pending rollouts of all
    solves are stacked into one batched rollout, each padded to the longest
    horizon with zero disturbances; a solve reads back its own rows and its
    own steps. Each solve's LM arithmetic is its own, and the model computes
    each batch row as the unbatched call, so every solution equals the
    solve_nlp one bit for bit.
    """
    solvers = [_lm(window, model, cert, alpha, warm)
               for window, cert, alpha, warm in problems]
    solutions: List[Optional[MheSolution]] = [None] * len(solvers)
    pending = {}

    def send(i, reply):
        try:
            pending[i] = solvers[i].send(reply)
        except StopIteration as done:
            solutions[i] = done.value

    for i in range(len(solvers)):
        send(i, None)
    n, q = model.n, model.q
    while pending:
        requests, pending = pending, {}
        members = list(requests)
        lengths = [problems[i][0].horizon for i in members]
        sizes = [n + L * q + 1 for L in lengths]  # z and its nz perturbations
        starts = np.cumsum([0] + sizes[:-1]).tolist()
        L_max = max(lengths)
        Z = np.zeros((sum(sizes), n + L_max * q))
        for i, a, rows in zip(members, starts, sizes):
            z, h_fd = requests[i]
            block = Z[a:a + rows, :rows - 1]
            block[:] = z
            np.fill_diagonal(block[1:], z + h_fd)
        x0 = Z[:, :n]
        w = Z[:, n:].reshape(len(Z), L_max, q)
        states, outputs = rollout(model, x0, w)
        replies = [(x0[a:a + rows], w[a:a + rows, :L], states[a, :L + 1].copy(),
                    outputs[a:a + rows, :L])
                   for a, rows, L in zip(starts, sizes, lengths)]
        # Only the replies hold this round's arrays, and each solve drops
        # its reply before it asks for the next rollout.
        del Z, x0, w, states, outputs
        for i in members:
            send(i, replies.pop(0))
    return solutions


def _lm(window: MheWindow, model: SystemModel, cert: IossCertificate,
        alpha: float, warm_start: Optional[Tuple[Array, Array]]):
    """The LM solve of solve_nlp as a generator. It yields each rollout it
    needs as (z, h_fd), is sent (x0, w, x_seq, outputs): x0, w and outputs
    of the nz+1 rows z, z + h_i e_i, the states of row 0, and returns the
    MheSolution."""
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
        x0, w, x_seq, outputs = yield z, h_fd
        R = residuals(x0, w, outputs)
        return float(R[0] @ R[0]), R, h_fd, x_seq, outputs[0].copy()

    if warm_start is None:
        warm_start = (window.prior, np.zeros(Mt * q))
    if len(warm_start) != 2:
        raise ConfigurationError("warm start must be a pair (x_init, w_seq)")
    z = np.concatenate([_finite_array("warm start", part, shape).ravel()
                        for part, shape in zip(warm_start, ((n,), (Mt, q)))])
    z = np.clip(z, lo, hi)

    cost, R, h_fd, x_seq, y_seq = yield from evaluate(z)
    if not math.isfinite(cost):
        # The inputs are finite, so something overflowed: no step can fix it.
        raise ConfigurationError(
            f"window cost not finite at the start, alpha = {alpha!r}: "
            "alpha, the weights P2, Q, R or the rollout overflow")
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
        # Freeze coordinates pressed against a bound: with zero rows, columns
        # and gradient, the step leaves them. Damp with the Marquardt scaling.
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
            trial = None  # release a rejected trial's batch before the next one
            trial = yield from evaluate(z_new)
            if trial[0] <= cost:
                break
            lam *= LM_DAMPING_INCREASE
        else:
            # Damping exhausted without descent: stationary to working precision.
            converged = np.max(np.abs(z - np.clip(z - g, lo, hi))) < 1e-6
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
                            eta: float) -> MheSolution:
    """Extend the last event's solution by delta nominal steps.

    Same initial window state and disturbances, zero disturbances on the
    new steps, states continued by open-loop prediction. The cost is
    rescaled by eta^delta, which is the optimal value of the extended
    window.
    """
    require_integer("delta", delta)
    if delta < 0:
        raise ConfigurationError("delta must be nonnegative")
    if delta == 0:
        return prev
    w_tail = np.zeros((delta, model.q))
    x_tail, y_tail = rollout(model, prev.x_seq[-1], w_tail)
    return replace(prev, w_seq=np.vstack([prev.w_seq, w_tail]),
                   x_seq=np.vstack([prev.x_seq, x_tail[1:]]),
                   y_seq=np.vstack([prev.y_seq, y_tail]),
                   cost=prev.cost * eta ** delta, iterations=0)
