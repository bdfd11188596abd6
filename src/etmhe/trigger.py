"""Plant-side event-triggering mechanism and its bookkeeping."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .certificate import IossCertificate
from .mhe import MheSolution, MheWindow
from .model import Array, SystemModel


class TriggerError(Exception):
    """Raised on protocol violations of the trigger state machine."""


@dataclass(frozen=True)
class EtmState:
    """Trigger bookkeeping between time steps.

    t is the next time to evaluate; eps the last event time; delta the
    steps since that event as of t-1; d the current threshold statistic;
    anchor the estimate received from the estimator at eps. The output
    prediction residuals since eps are recomputed from the anchor on each
    evaluation rather than cached, mirroring the fact that only the
    estimate and threshold cross the channel.
    """

    t: int
    eps: int
    delta: int
    d: float
    alpha: float
    anchor: Array

    @staticmethod
    def initial(alpha: float, x0_estimate: Array) -> "EtmState":
        """State after the conventional event at time 0 with d_1 = 0."""
        return EtmState(t=1, eps=0, delta=0, d=0.0, alpha=alpha,
                        anchor=np.asarray(x0_estimate, dtype=float))


def evaluate_trigger(state: EtmState, model: SystemModel, y_window: Array,
                     u_window: Array, cert: IossCertificate) -> bool:
    """Decide gamma_t from the discounted output-prediction residuals.

    y_window holds y_j for j in [eps, t-1]; predictions are the anchor
    followed by nominal open-loop propagation. Returns False (no event)
    only if the residual sum is strictly below alpha * eta^(t-eps) * d.
    """
    span = state.t - state.eps
    if span <= 0:
        raise TriggerError("trigger evaluated at or before the last event")
    y_window = np.atleast_2d(np.asarray(y_window, dtype=float))
    if len(y_window) != span or len(u_window) != span:
        raise TriggerError(f"expected {span} measurements since the last event")
    eta = cert.eta
    zero_w = np.zeros(model.q)
    x = state.anchor
    lhs = 0.0
    for k in range(span):
        u = np.asarray(u_window[k], dtype=float)
        resid = y_window[k] - model.h(x, u, zero_w)
        lhs += eta ** (span - 1 - k) * float(resid @ cert.R @ resid)
        if k + 1 < span:
            x = model.f(x, u, zero_w)
    threshold = state.alpha * eta ** span * state.d
    return not lhs < threshold


def compute_d(solution: MheSolution, window: MheWindow,
              cert: IossCertificate) -> float:
    """Threshold statistic d_{t+1} from a fresh event-time solution."""
    if window.delta != 0:
        raise TriggerError("d is computed only at event times")
    Mt = window.horizon
    if len(solution.w_seq) != Mt or len(window.measurements) != Mt:
        raise TriggerError("solution does not match the window")
    eta = cert.eta
    d = 0.0
    for k in range(Mt):
        w = solution.w_seq[k]
        dy = solution.y_seq[k] - window.measurements[k]
        d += eta ** (Mt - 1 - k) * (2.0 * float(w @ cert.Q @ w)
                                    + float(dy @ cert.R @ dy))
    return d


def advance(state: EtmState, gamma: bool, d_next: Optional[float] = None,
            x_new: Optional[Array] = None) -> EtmState:
    """Bookkeeping update after deciding gamma at time state.t."""
    if gamma:
        if d_next is None or x_new is None:
            raise TriggerError("event requires d_next and the new estimate")
        # A non-finite d or estimate would make the trigger fire on every
        # later step; note that NaN < 0 is False.
        if not (math.isfinite(d_next) and d_next >= 0):
            raise TriggerError("threshold statistic must be finite and nonnegative")
        x_new = np.asarray(x_new, dtype=float)
        if not np.isfinite(x_new).all():
            raise TriggerError("new estimate must be finite")
        return EtmState(t=state.t + 1, eps=state.t, delta=0, d=float(d_next),
                        alpha=state.alpha, anchor=x_new)
    return replace(state, t=state.t + 1, delta=state.t - state.eps)
