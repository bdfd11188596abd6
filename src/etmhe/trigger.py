"""Plant-side event-triggering mechanism and its bookkeeping."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .certificate import IossCertificate
from .model import Array, SystemModel


class TriggerError(Exception):
    """Raised on protocol violations of the trigger state machine."""


@dataclass(frozen=True)
class EtmState:
    """Trigger bookkeeping between time steps.

    t is the newest time step: ``extend`` moves it on by one and leaves the
    state ready to decide t. eps is the last event time and d the threshold
    statistic received at eps.
    Only the estimate and d cross the channel. The plant side propagates
    the estimate itself: pred is the nominal open-loop prediction for time
    t, and lhs the discounted residual sum since eps, updated by ``extend``
    as lhs <- eta * lhs + r'Rr, so each step costs one h and one f call
    however long the silence.
    """

    t: int
    eps: int
    d: float
    alpha: float
    pred: Array
    lhs: float = 0.0

    @staticmethod
    def initial(alpha: float, x0_estimate: Array) -> "EtmState":
        """State after the conventional event at time 0 with d_1 = 0."""
        return EtmState(t=0, eps=0, d=0.0, alpha=alpha,
                        pred=np.asarray(x0_estimate, dtype=float))

    def threshold(self, eta: float) -> float:
        """alpha * eta^(t-eps) * d; it underflows to 0 on long silences."""
        return self.alpha * eta ** (self.t - self.eps) * self.d


def extend(state: EtmState, model: SystemModel, y_last: Array,
           cert: IossCertificate) -> EtmState:
    """Step from time t to t + 1: fold y_t into the residual sum and move
    pred on to t + 1, ready to decide t + 1."""
    if np.shape(y_last) != (model.p,):
        raise TriggerError("extend takes the single newest measurement")
    zero_w = np.zeros(model.q)
    resid = y_last - model.h(state.pred, zero_w)
    lhs = cert.eta * state.lhs + float(resid @ cert.R @ resid)
    return replace(state, t=state.t + 1, pred=model.f(state.pred, zero_w),
                   lhs=lhs)


def evaluate_trigger(state: EtmState, cert: IossCertificate) -> bool:
    """gamma_t: False (no event) only if lhs is strictly below the threshold."""
    return not state.lhs < state.threshold(cert.eta)


def advance(state: EtmState, d_next: float, x_new: Array) -> EtmState:
    """The event at time state.t: d_next and the new estimate restart the
    residual sum."""
    # A non-finite d or estimate would make the trigger fire on every later
    # step; note that NaN < 0 is False.
    if not (math.isfinite(d_next) and d_next >= 0):
        raise TriggerError("threshold statistic must be finite and nonnegative")
    x_new = np.asarray(x_new, dtype=float)
    if not np.isfinite(x_new).all():
        raise TriggerError("new estimate must be finite")
    return EtmState(t=state.t, eps=state.t, d=float(d_next), alpha=state.alpha,
                    pred=x_new)
