"""Expectation over the fading law: quadrature rules and ergodic averaging.

The Rayleigh rule is the Gauss rule of the exact density 2g*exp(-g^2):
its Jacobi recurrence coefficients are recovered from the exact moments
E[G^k] = Gamma(k/2 + 1) in high precision (working precision is verified
against closed-form moments and escalated if needed), nodes come from the
double-precision tridiagonal eigenproblem and weights from the orthonormal
recurrence. Polynomials in g up to degree 2n-1 integrate exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import mpmath as mp
import numpy as np
from scipy.linalg import eigh_tridiagonal

from .model import ChannelParams, CodingParams, ConfigError, Degenerate, Discrete, FadingModel, PerStatePolicy, Rayleigh
from .rate_core import rate_per_state

#: Largest supported node count (weights underflow far earlier than this matters).
MAX_NODES = 256

PROVENANCE_TAGS = ("analytic-discrete", "Laguerre-transformed")


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights representing E_G[.]; weights sum to 1, nodes ascend."""

    nodes: tuple[float, ...]
    weights: tuple[float, ...]
    provenance: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(float(g) for g in self.nodes))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if self.provenance not in PROVENANCE_TAGS:
            raise ConfigError(f"unknown quadrature provenance {self.provenance!r}")
        if list(self.nodes) != sorted(self.nodes):
            raise ConfigError("quadrature nodes must be sorted ascending")
        if any(w <= 0 for w in self.weights):
            raise ConfigError("quadrature weights must be positive")
        if abs(math.fsum(self.weights) - 1.0) > 1e-10:
            raise ConfigError("quadrature weights must sum to 1 within 1e-10")

    def __len__(self) -> int:
        return len(self.nodes)


def _rayleigh_jacobi(n: int, dps: int) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi recurrence coefficients for the weight 2g*exp(-g^2) on [0, inf)."""
    with mp.workdps(dps):
        mu = [mp.gamma(mp.mpf(k) / 2 + 1) for k in range(2 * n + 1)]
        hankel = mp.matrix(n + 1, n + 1)
        for i in range(n + 1):
            for j in range(n + 1):
                hankel[i, j] = mu[i + j]
        r = mp.cholesky(hankel).T
        alpha, beta = [], []
        for k in range(n):
            t = r[k, k + 1] / r[k, k]
            alpha.append(t if k == 0 else t - r[k - 1, k] / r[k - 1, k - 1])
            if k >= 1:
                beta.append(r[k, k] / r[k - 1, k - 1])
    return (np.array([float(a) for a in alpha]),
            np.array([float(b) for b in beta]))


def _weights_from_recurrence(nodes: np.ndarray, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Gauss weights w_i = 1 / sum_k p_k(x_i)^2 over the orthonormal polynomials."""
    n = alpha.size
    p_prev = np.zeros_like(nodes)
    p_cur = np.ones_like(nodes)  # p_0 = 1/sqrt(mu_0), mu_0 = 1
    total = p_cur ** 2
    for k in range(n - 1):
        p_next = ((nodes - alpha[k]) * p_cur - (beta[k - 1] * p_prev if k >= 1 else 0.0)) / beta[k]
        total += p_next ** 2
        p_prev, p_cur = p_cur, p_next
    with np.errstate(over="ignore"):
        return 1.0 / total


@lru_cache(maxsize=32)
def _rayleigh_rule(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    sqrt_pi_2 = math.sqrt(math.pi) / 2.0
    for dps in (40 + 2 * n, 60 + 4 * n, 120 + 8 * n):
        alpha, beta = _rayleigh_jacobi(n, dps)
        nodes = eigh_tridiagonal(alpha, beta, eigvals_only=True)
        weights = _weights_from_recurrence(nodes, alpha, beta)
        keep = np.isfinite(weights) & (weights > 0.0)  # extreme nodes can underflow
        nodes, weights = nodes[keep], weights[keep]
        # the n-point rule is exact for degrees <= 2n-1; check what applies
        checks = [abs(float(weights.sum()) - 1.0),
                  abs(float(weights @ nodes) - sqrt_pi_2)]
        if n >= 2:
            checks.append(abs(float(weights @ nodes ** 2) - 1.0))
        if n >= 3:
            checks.append(abs(float(weights @ nodes ** 4) - 2.0) / 2.0)
        if max(checks) < 5e-14:
            return tuple(nodes), tuple(weights)
    raise ConfigError(f"could not build an accurate Rayleigh rule with n={n}")


def make_rule(fading: FadingModel, n: int = 64) -> QuadratureRule:
    """Quadrature rule for E_G[.]: exact support for discrete laws, Gauss rule for Rayleigh."""
    fading.validate()
    if isinstance(fading, Degenerate):
        return QuadratureRule((fading.g0,), (1.0,), "analytic-discrete")
    if isinstance(fading, Discrete):
        pairs = sorted((g, p) for g, p in zip(fading.points, fading.probs) if p > 0.0)
        if not pairs:
            raise ConfigError("discrete fading has no point with positive probability")
        return QuadratureRule(tuple(g for g, _ in pairs), tuple(p for _, p in pairs),
                              "analytic-discrete")
    if n < 1:
        raise ConfigError("continuous fading needs at least 1 quadrature node")
    if n > MAX_NODES:
        raise ConfigError(f"quadrature size {n} exceeds {MAX_NODES} (weight underflow risk)")
    nodes, weights = _rayleigh_rule(n)
    return QuadratureRule(nodes, weights, "Laguerre-transformed")


def expect(rule: QuadratureRule, h: Callable[[float], float]) -> float:
    """Sum w_i h(g_i) in ascending-node order."""
    values = []
    for g, w in zip(rule.nodes, rule.weights):
        v = h(g)
        if not math.isfinite(v):
            raise ArithmeticError(f"integrand is not finite at node g={g!r}: {v!r}")
        values.append(w * v)
    return math.fsum(values)


def ergodic_rate(rule: QuadratureRule, policy: PerStatePolicy, d: float,
                 ch: ChannelParams, base: float = 2.0) -> float:
    """Expected rate of a per-state policy at common distortion parameter d."""
    policy.validate()
    if policy.nodes != rule.nodes:
        raise ConfigError("policy is not defined on the rule's nodes")
    terms = []
    for g, w, P, r1, r2 in zip(rule.nodes, rule.weights, policy.power,
                               policy.rho1, policy.rho2):
        terms.append(w * rate_per_state(g, P, CodingParams(r1, r2, d), ch, base))
    return math.fsum(terms)


def avg_power(rule: QuadratureRule, policy: PerStatePolicy) -> float:
    """E_G[P(G)] of a policy; compared against the budget constraint."""
    if policy.nodes != rule.nodes:
        raise ConfigError("policy is not defined on the rule's nodes")
    return math.fsum(w * p for w, p in zip(rule.weights, policy.power))
