"""Detectability certificates and the stability constants derived from them."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (Box, ConfigurationError, SystemModel, require_integer,
                    sample_disturbance)

Array = np.ndarray

_SYM_TOL = 1e-12
_EIG_TOL = 1e-12
_HORIZON_CAP = 10 ** 6


def _check_symmetric(a: Array, name: str) -> Array:
    A = np.asarray(a, dtype=float)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ConfigurationError(f"{name} must be square")
    # NaN compares False, so the checks below would let it through.
    if not np.isfinite(A).all():
        raise ConfigurationError(f"{name} must be finite")
    norm = np.linalg.norm(A)
    if np.linalg.norm(A - A.T) > _SYM_TOL * max(norm, 1e-300):
        raise ConfigurationError(f"{name} is not symmetric")
    return 0.5 * (A + A.T)


def _require_definite(a: Array, name: str, strict: bool) -> None:
    eigs = np.linalg.eigvalsh(a)
    scale = max(abs(eigs[-1]), 1.0)
    if strict:
        if eigs[0] <= 0.0:
            raise ConfigurationError(f"{name} must be positive definite")
    elif eigs[0] < -_EIG_TOL * scale:
        raise ConfigurationError(f"{name} must be positive semidefinite")


@dataclass(frozen=True)
class IossCertificate:
    """Quadratic detectability certificate (P1, P2, Q, R, eta).

    P1, P2 bound the incremental Lyapunov function, Q and R weight the
    disturbance and output differences, eta in [0, 1) is the decay rate.
    """

    P1: Array
    P2: Array
    Q: Array
    R: Array
    eta: float

    def __post_init__(self):
        P1 = _check_symmetric(self.P1, "P1")
        P2 = _check_symmetric(self.P2, "P2")
        Q = _check_symmetric(self.Q, "Q")
        R = _check_symmetric(self.R, "R")
        _require_definite(P1, "P1", strict=True)
        _require_definite(P2, "P2", strict=True)
        _require_definite(Q, "Q", strict=False)
        _require_definite(R, "R", strict=False)
        if P1.shape != P2.shape:
            raise ConfigurationError("P1 and P2 must have equal shape")
        if not 0.0 <= self.eta < 1.0:
            raise ConfigurationError(f"eta must lie in [0, 1), got {self.eta}")
        object.__setattr__(self, "P1", P1)
        object.__setattr__(self, "P2", P2)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "eta", float(self.eta))


def max_generalized_eigenvalue(a: Array, b: Array) -> float:
    """Largest lambda with det(A - lambda*B) = 0 for spd A, B."""
    A = _check_symmetric(a, "A")
    B = _check_symmetric(b, "B")
    _require_definite(A, "A", strict=True)
    _require_definite(B, "B", strict=True)
    if A.shape != B.shape:
        raise ConfigurationError("A and B must have equal shape")
    # Reduce to a standard symmetric problem via B = L L^T.
    L = np.linalg.cholesky(B)
    C = np.linalg.solve(L, np.linalg.solve(L, A).T).T
    return float(np.linalg.eigvalsh(0.5 * (C + C.T))[-1])


def min_horizon(cert: IossCertificate) -> int:
    """Smallest horizon M with 4*lambda_max(P2,P1)*eta^M < 1 (strict)."""
    lam = max_generalized_eigenvalue(cert.P2, cert.P1)
    eta, target = cert.eta, 1.0 - 1e-12

    def ok(M: int) -> bool:
        return 4.0 * lam * eta ** M <= target

    if ok(0):
        return 0
    if eta == 0.0:
        return 1
    M = math.ceil(math.log(target / (4.0 * lam)) / math.log(eta))
    # Rounding in the logarithms can land one off the smallest admissible M.
    if ok(M - 1):
        M -= 1
    elif not ok(M):
        M += 1
    if M > _HORIZON_CAP:
        raise ConfigurationError("no admissible horizon below cap 10^6")
    return M


@dataclass(frozen=True)
class RgesConstants:
    """Gains and per-step decay rate lam of the exponential error bound."""

    C_x: float
    C_w: float
    lam: float


def rges_constants(cert: IossCertificate, alpha: float, M: int) -> RgesConstants:
    """Error-bound constants for horizon M and trigger sensitivity alpha."""
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ConfigurationError("alpha must be finite and nonnegative")
    require_integer("M", M)
    if M < 1:
        raise ConfigurationError("horizon must be at least 1")
    M_min = min_horizon(cert)
    if M < M_min:
        raise ConfigurationError(f"horizon {M} below stability minimum {M_min}")
    lam = max_generalized_eigenvalue(cert.P2, cert.P1)
    rho = (4.0 * lam * cert.eta ** M) ** (1.0 / M)
    p1_eigs = np.linalg.eigvalsh(cert.P1)
    p2_eigs = np.linalg.eigvalsh(cert.P2)
    q_max = np.linalg.eigvalsh(cert.Q)[-1]
    C_x = 2.0 * math.sqrt(p2_eigs[-1] / p1_eigs[0])
    C_w = math.sqrt((2.0 * alpha + 4.0) * q_max / p1_eigs[0])
    return RgesConstants(C_x=C_x, C_w=C_w, lam=math.sqrt(rho))


def rges_bound(constants: RgesConstants, e0_norm: float,
               w_norms: Sequence[float]) -> Array:
    """The exponential error bound b_0..b_N for N = len(w_norms), in one pass.

    b_t = C_x*e0*lam^t + s_t, where s_0 = 0 and
    s_t = lam*s_{t-1} + C_w*w_norms[t-1].
    """
    bound = constants.C_x * e0_norm * constants.lam ** np.arange(len(w_norms) + 1)
    w_part = 0.0
    for t, w in enumerate(w_norms, start=1):
        w_part = constants.lam * w_part + constants.C_w * w
        bound[t] += w_part
    return bound


@dataclass(frozen=True)
class DissipationReport:
    n_samples: int
    n_violations: int
    worst_margin: float
    violation_fraction: float


def _quad(v: Array, mat: Array) -> Array:
    return np.einsum("...i,ij,...j->...", v, mat, v)


def check_dissipation(cert: IossCertificate, model: SystemModel, region: Box,
                      n_samples: int, rng: np.random.Generator) -> DissipationReport:
    """Sampled check of the one-step dissipation inequality on a state region.

    Requires P1 == P2 (the quadratic Lyapunov function ||x - x~||_P^2).
    Samples are stratified: independent pairs, pairs sharing a disturbance,
    local state perturbations, and output-matched pairs, so near-tight
    directions of the inequality are probed as well.
    """
    if not np.allclose(cert.P1, cert.P2, rtol=1e-12, atol=0.0):
        raise ConfigurationError("dissipation check supports only P1 == P2")
    require_integer("n_samples", n_samples)
    if n_samples < 8:
        raise ConfigurationError("need at least 8 samples")
    if region.dim != model.n or not np.all(np.isfinite(region.lower)) \
            or not np.all(np.isfinite(region.upper)):
        raise ConfigurationError("region must be a bounded state box")
    if np.any(region.upper <= region.lower):
        raise ConfigurationError("empty check region")
    if not np.all(np.isfinite((model.w_set.lower, model.w_set.upper))):
        raise ConfigurationError("w_set must be finite: the check draws from it")

    P = cert.P1
    width = region.upper - region.lower

    def sample_states(k):
        return rng.uniform(region.lower, region.upper, (k, model.n))

    def sample_w(k):
        return sample_disturbance(rng, model.w_set, k)

    k = n_samples // 4
    parts = []

    # Independent pairs.
    parts.append((sample_states(k), sample_states(k), sample_w(k), sample_w(k)))
    # Shared disturbance.
    w_shared = sample_w(k)
    parts.append((sample_states(k), sample_states(k), w_shared, w_shared))
    # Local perturbations along random directions, shared disturbance.
    x = sample_states(k)
    direction = rng.normal(size=(k, model.n))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = 0.05 * rng.uniform(1e-3, 1.0, (k, 1)) * np.max(width)
    x_tilde = np.clip(x + radius * direction, region.lower, region.upper)
    w_shared = sample_w(k)
    parts.append((x, x_tilde, w_shared, w_shared))
    # Output-matched neighbors (pairs with nearly equal nominal outputs).
    k_last = n_samples - 3 * k
    pts = sample_states(k_last + 1)
    y_nom = model.h(pts, np.zeros((k_last + 1, model.q)))
    order = np.argsort(y_nom[:, 0], kind="stable")
    w_shared = sample_w(k_last)
    parts.append((pts[order[:-1]], pts[order[1:]], w_shared, w_shared))

    X = np.vstack([p[0] for p in parts])
    Xt = np.vstack([p[1] for p in parts])
    W = np.vstack([p[2] for p in parts])
    Wt = np.vstack([p[3] for p in parts])

    lhs = _quad(model.f(X, W) - model.f(Xt, Wt), P)
    dy = model.h(X, W) - model.h(Xt, Wt)
    rhs = cert.eta * _quad(X - Xt, P) + _quad(W - Wt, cert.Q) + _quad(dy, cert.R)
    margin = lhs - rhs
    violations = int(np.sum(margin > 1e-12))
    return DissipationReport(n_samples=X.shape[0], n_violations=violations,
                             worst_margin=float(np.max(margin)),
                             violation_fraction=violations / X.shape[0])
