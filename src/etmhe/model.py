"""Discrete-time system models and the batch-reactor benchmark."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Array = np.ndarray


class ConfigurationError(Exception):
    """Raised for any rejected input: config file, model, certificate, run."""


def require_integer(name: str, value) -> None:
    """Reject a value that is not an integer (a float, even 5.0, is not)."""
    try:
        operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Box:
    """Per-coordinate box constraints; +-inf entries mean unconstrained."""

    lower: Array
    upper: Array

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ConfigurationError("box bounds must be 1-D arrays of equal length")
        for name, bound in (("lower", lower), ("upper", upper)):
            if np.any(np.isnan(bound)):
                raise ConfigurationError(f"box {name} bound must not be NaN")
        if np.any(lower > upper):
            raise ConfigurationError("box lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def contains(self, v: Array) -> bool:
        v = np.asarray(v, dtype=float)
        return bool(np.all(v >= self.lower) and np.all(v <= self.upper))

    @staticmethod
    def unbounded(dim: int) -> "Box":
        return Box(np.full(dim, -np.inf), np.full(dim, np.inf))


@dataclass(frozen=True)
class SystemModel:
    """Discrete-time system x+ = f(x, w), y = h(x, w).

    f and h must be deterministic and broadcast over leading batch
    dimensions (arguments of shape (..., dim)). Each batch row of a batched
    call must equal the unbatched call on that row, bit for bit: the MHE
    solver evaluates a trial point and its finite-difference perturbations
    in one batched rollout and reads the trial point from row 0, and the
    runs of a lockstep batch (run_closed_loop_batch) share the model calls
    of their plants and solves, so each of its traces equals the separate
    run's. rollout calls h once for all steps, with time as an extra
    leading batch dimension, and the solves of a batch are padded to the
    longest horizon with zero w: the padded steps are computed and
    discarded.
    """

    n: int
    q: int
    p: int
    f: Callable[[Array, Array], Array]
    h: Callable[[Array, Array], Array]
    x_set: Box
    w_set: Box

    def __post_init__(self):
        if min(self.n, self.q, self.p) < 1:
            raise ConfigurationError("invalid model dimensions")
        for box, dim, name in ((self.x_set, self.n, "x_set"),
                               (self.w_set, self.q, "w_set")):
            if box.dim != dim:
                raise ConfigurationError(f"{name} dimension {box.dim} != {dim}")
        if not self.w_set.contains(np.zeros(self.q)):
            raise ConfigurationError("disturbance set must contain zero")


def sample_disturbance(rng: np.random.Generator, box: Box,
                       size: Optional[int] = None) -> Array:
    """One disturbance vector, or size of them, uniform on the box."""
    return rng.uniform(box.lower, box.upper, None if size is None else (size, box.dim))


BATCH_REACTOR_BOUNDS = Box(-np.array([1e-3, 1e-3, 0.1]),
                           np.array([1e-3, 1e-3, 0.1]))


def batch_reactor(k1: float = 0.16, k2: float = 0.0064, tau: float = 0.1,
                  w_bounds: Box = BATCH_REACTOR_BOUNDS) -> SystemModel:
    """Euler-discretized two-species batch reactor with scalar concentration output.

    x1+ = x1 + tau*(-2*k1*x1^2 + 2*k2*x2) + w1
    x2+ = x2 + tau*( k1*x1^2 -   k2*x2) + w2
    y   = x1 + x2 + w3
    """
    for name, value in (("k1", k1), ("k2", k2), ("tau", tau)):
        if not (math.isfinite(value) and value >= 0):
            raise ConfigurationError(
                f"{name} must be finite and nonnegative, got {value}")

    def f(x, w):
        x1, x2 = x[..., 0], x[..., 1]
        x1_next = x1 + tau * (-2.0 * k1 * x1 ** 2 + 2.0 * k2 * x2) + w[..., 0]
        out = np.empty(np.shape(x1_next) + (2,))
        out[..., 0] = x1_next
        out[..., 1] = x2 + tau * (k1 * x1 ** 2 - k2 * x2) + w[..., 1]
        return out

    def h(x, w):
        return (x[..., 0] + x[..., 1] + w[..., 2])[..., None]

    return SystemModel(n=2, q=3, p=1, f=f, h=h,
                       x_set=Box(np.zeros(2), np.full(2, np.inf)),
                       w_set=w_bounds)
