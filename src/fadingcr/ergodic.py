"""Expectation over the fading law: quadrature rules and ergodic averaging.

The Rayleigh rule is the Gauss rule of the exact density 2g*exp(-g^2).
Its Jacobi recurrence coefficients come from the discretized Stieltjes
procedure in double precision (Gautschi, *Orthogonal Polynomials:
Computation and Approximation*, 2004): the density is sampled on a fixed
composite Gauss-Legendre grid and the three-term recurrence runs on vectors
scaled by the square root of the grid weights, so they keep unit norm and
cannot overflow. Nodes come from the tridiagonal eigenproblem (Golub &
Welsch 1969), weights from the orthonormal recurrence, and every rule is
checked against the closed-form moments E[G^k] = Gamma(k/2 + 1).
Polynomials in g up to degree 2n-1 integrate exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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


#: Composite Gauss-Legendre grid that discretizes the Rayleigh density:
#: panels of this width, each with this many points.
PANEL_WIDTH = 0.5
PANEL_POINTS = 64


def _rayleigh_grid(n: int, width: float = PANEL_WIDTH) -> tuple[np.ndarray, np.ndarray]:
    """Points x_j and root weights sqrt(w_j) of the density 2g*exp(-g^2) on [0, sqrt(2n) + 12].

    The largest node of the n-point rule lies below sqrt(2n) + 3 (25.6 at
    n = 256), and past the 12 margin the density is below exp(-144). The
    root weights are formed from exp(-x^2/2), because exp(-x^2) underflows
    past x = 27.3, where the high-degree polynomials still carry mass.
    """
    panels = math.ceil((math.sqrt(2.0 * n) + 12.0) / width)
    t, v = np.polynomial.legendre.leggauss(PANEL_POINTS)
    x = (width * np.arange(panels)[:, None] + 0.5 * width * (t + 1.0)).ravel()
    return x, np.sqrt(np.tile(width * v, panels) * x) * np.exp(-0.5 * x * x)


def _stieltjes(x: np.ndarray, root_w: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi coefficients alpha_0..n-1 and beta_1..n-1 of the measure sum_j w_j delta(x_j).

    The recurrence runs on q_k = sqrt(w) * p_k(x), which has unit norm for
    the orthonormal p_k, so nothing overflows; beta_k is the off-diagonal
    of the Jacobi matrix (the square root of the classical beta).
    """
    q_prev = np.zeros_like(x)
    q = root_w / math.sqrt(root_w @ root_w)
    alpha, beta = np.empty(n), np.empty(n - 1)
    for k in range(n):
        alpha[k] = (x * q) @ q
        if k == n - 1:
            break
        r = (x - alpha[k]) * q - (beta[k - 1] * q_prev if k >= 1 else 0.0)
        beta[k] = math.sqrt(r @ r)
        q_prev, q = q, r / beta[k]
    return alpha, beta


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
def _rayleigh_rule(n: int) -> QuadratureRule:
    """The n-point Rayleigh rule; every make_rule call with this n shares it."""
    alpha, beta = _stieltjes(*_rayleigh_grid(n), n)
    # the eigenvalues of the Jacobi matrix, from its lower triangle
    nodes = np.linalg.eigvalsh(np.diag(alpha) + np.diag(beta, -1))
    weights = _weights_from_recurrence(nodes, alpha, beta)
    usable = np.isfinite(weights) & (weights > 0.0)  # extreme weights can underflow
    if not usable.all():
        raise ConfigError(f"Rayleigh rule with n={n} has only {int(usable.sum())} nodes "
                          "with a positive finite weight")
    # the n-point rule is exact for degrees <= 2n-1; check what applies
    checks = [abs(float(weights.sum()) - 1.0),
              abs(float(weights @ nodes) - math.sqrt(math.pi) / 2.0)]
    if n >= 2:
        checks.append(abs(float(weights @ nodes ** 2) - 1.0))
    if n >= 3:
        checks.append(abs(float(weights @ nodes ** 4) - 2.0) / 2.0)
    if max(checks) >= 5e-14:
        raise ConfigError(f"could not build an accurate Rayleigh rule with n={n}")
    return QuadratureRule(nodes.tolist(), weights.tolist(), "Laguerre-transformed")


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
    return _rayleigh_rule(n)


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
