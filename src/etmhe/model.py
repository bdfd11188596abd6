"""Discrete-time system models and the batch-reactor benchmark."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

Array = np.ndarray


class ConfigurationError(Exception):
    """Raised for dimension mismatches and invalid model parameters."""


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
        if np.any(lower > upper):
            raise ConfigurationError("box lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def contains(self, v: Array, tol: float = 0.0) -> bool:
        v = np.asarray(v, dtype=float)
        return bool(np.all(v >= self.lower - tol) and np.all(v <= self.upper + tol))

    def project(self, v: Array) -> Array:
        return np.clip(v, self.lower, self.upper)

    @staticmethod
    def unbounded(dim: int) -> "Box":
        return Box(np.full(dim, -np.inf), np.full(dim, np.inf))


@dataclass(frozen=True)
class SystemModel:
    """Discrete-time system x+ = f(x, u, w), y = h(x, u, w).

    f and h must be deterministic and broadcast over leading batch
    dimensions (inputs of shape (..., dim)). Each batch row of a batched
    call must equal the unbatched call on that row, bit for bit: the MHE
    solver evaluates a trial point and its finite-difference perturbations
    in one batched rollout and reads the trial point from row 0.
    """

    n: int
    m: int
    q: int
    p: int
    f: Callable[[Array, Array, Array], Array]
    h: Callable[[Array, Array, Array], Array]
    x_set: Box
    w_set: Box
    y_set: Box

    def __post_init__(self):
        if min(self.n, self.q, self.p) < 1 or self.m < 0:
            raise ConfigurationError("invalid model dimensions")
        for box, dim, name in ((self.x_set, self.n, "x_set"),
                               (self.w_set, self.q, "w_set"),
                               (self.y_set, self.p, "y_set")):
            if box.dim != dim:
                raise ConfigurationError(f"{name} dimension {box.dim} != {dim}")
        if not self.w_set.contains(np.zeros(self.q)):
            raise ConfigurationError("disturbance set must contain zero")


def _check_dims(model: SystemModel, x: Array, u: Array, w: Array) -> None:
    if x.shape[-1] != model.n:
        raise ConfigurationError(f"state dimension {x.shape[-1]} != {model.n}")
    if u.shape[-1] != model.m:
        raise ConfigurationError(f"input dimension {u.shape[-1]} != {model.m}")
    if w.shape[-1] != model.q:
        raise ConfigurationError(f"disturbance dimension {w.shape[-1]} != {model.q}")


def step(model: SystemModel, x: Array, u: Array, w: Array) -> Array:
    """One transition x+ = f(x, u, w)."""
    x, u, w = np.asarray(x, float), np.asarray(u, float), np.asarray(w, float)
    _check_dims(model, x, u, w)
    return model.f(x, u, w)


def output(model: SystemModel, x: Array, u: Array, w: Array) -> Array:
    """Measured output y = h(x, u, w)."""
    x, u, w = np.asarray(x, float), np.asarray(u, float), np.asarray(w, float)
    _check_dims(model, x, u, w)
    return model.h(x, u, w)


@dataclass(frozen=True)
class DisturbanceBounds:
    """Absolute per-coordinate bounds |w_i| <= b_i for uniform sampling."""

    bounds: Array

    def __post_init__(self):
        b = np.asarray(self.bounds, dtype=float)
        if b.ndim != 1:
            raise ConfigurationError("disturbance bounds must be a vector")
        if np.any(b < 0):
            raise ConfigurationError("disturbance bounds must be nonnegative")
        object.__setattr__(self, "bounds", b)

    def as_box(self) -> Box:
        return Box(-self.bounds, self.bounds)


def sample_disturbance(rng: np.random.Generator, bounds: DisturbanceBounds) -> Array:
    """One disturbance vector, each coordinate uniform on [-b_i, b_i]."""
    b = bounds.bounds
    return rng.uniform(-b, b)


BATCH_REACTOR_BOUNDS = DisturbanceBounds(np.array([1e-3, 1e-3, 0.1]))


def batch_reactor(k1: float = 0.16, k2: float = 0.0064, tau: float = 0.1,
                  nonnegative_states: bool = True,
                  w_bounds: DisturbanceBounds = BATCH_REACTOR_BOUNDS) -> SystemModel:
    """Euler-discretized two-species batch reactor with scalar concentration output.

    x1+ = x1 + tau*(-2*k1*x1^2 + 2*k2*x2) + w1
    x2+ = x2 + tau*( k1*x1^2 -   k2*x2) + w2
    y   = x1 + x2 + w3
    """

    def f(x, u, w):
        x1, x2 = x[..., 0], x[..., 1]
        x1_next = x1 + tau * (-2.0 * k1 * x1 ** 2 + 2.0 * k2 * x2) + w[..., 0]
        out = np.empty(np.shape(x1_next) + (2,))
        out[..., 0] = x1_next
        out[..., 1] = x2 + tau * (k1 * x1 ** 2 - k2 * x2) + w[..., 1]
        return out

    def h(x, u, w):
        return (x[..., 0] + x[..., 1] + w[..., 2])[..., None]

    if nonnegative_states:
        x_set = Box(np.zeros(2), np.full(2, np.inf))
    else:
        x_set = Box.unbounded(2)
    return SystemModel(n=2, m=0, q=3, p=1, f=f, h=h,
                       x_set=x_set, w_set=w_bounds.as_box(), y_set=Box.unbounded(1))
