"""Independent Gaussian verification path.

Builds the joint law of (U, T, S, X, Y) from the coding construction and
re-derives every closed form in rate_core through covariance algebra
(Schur complements, log-determinant mutual informations) and seeded
Monte-Carlo sampling. Note E[X^2] = P exactly: X carries an independent
residual on top of its U and T components, so the disk interior is covered.

At d = Q the auxiliary U is degenerate and the oracle rate is 0 regardless
of rho1; the closed form and the oracle agree there only for rho1 = 0.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import ChannelParams, CodingParams
from .rate_core import ConverseCovariance, NumericalError, PSD_EIG_TOL, _clamp0

log = logging.getLogger(__name__)

#: Variable order of the joint covariance; fixed so sub-indexing is stable.
VARIABLES = ("U", "T", "S", "X", "Y")

#: Variances below this fraction of Q are treated as degenerate coordinates.
DEGENERATE_FACTOR = 1e-14

#: PRNG scheme used by mc_estimate, recorded in its metadata.
PRNG_ALGORITHM = "pcg64-ndtri"


@dataclass(frozen=True)
class JointCovariance:
    """Symmetric covariance over (U, T, S, X, Y) plus its generating parameters."""

    matrix: np.ndarray
    g: float
    P: float
    cp: CodingParams
    ch: ChannelParams


def _coefficients(P: float, cp: CodingParams, ch: ChannelParams) -> tuple[float, float, float]:
    """(c_u, c_t, Var(W)) of X = c_u U + c_t T + W with E[X^2] = P."""
    vu = _clamp0(ch.Q - cp.d)
    vt = cp.d
    c_u = cp.rho1 * math.sqrt(P / vu) if vu > 0.0 else 0.0
    c_t = cp.rho2 * math.sqrt(P / vt)
    vw = _clamp0(P - c_u * c_u * vu - c_t * c_t * vt)
    return c_u, c_t, vw


def build_covariance(g: float, P: float, cp: CodingParams, ch: ChannelParams) -> JointCovariance:
    """Assemble the joint Gaussian law of (U, T, S, X, Y) for the coding construction."""
    if g < 0 or P < 0:
        raise NumericalError("g and P must be nonnegative")
    cp.validate(ch)
    vu = _clamp0(ch.Q - cp.d)
    vt = cp.d
    cov_ux = cp.rho1 * math.sqrt(P * vu)
    cov_tx = cp.rho2 * math.sqrt(P * vt)

    m = np.zeros((5, 5))
    m[0, 0] = vu
    m[1, 1] = vt
    m[2, 2] = ch.Q
    m[3, 3] = P
    m[0, 2] = m[2, 0] = vu
    m[1, 2] = m[2, 1] = vt
    m[0, 3] = m[3, 0] = cov_ux
    m[1, 3] = m[3, 1] = cov_tx
    m[2, 3] = m[3, 2] = cov_ux + cov_tx
    for i in range(4):
        m[i, 4] = m[4, i] = g * m[i, 3] + m[i, 2]
    m[4, 4] = g * g * P + 2.0 * g * m[2, 3] + ch.Q + ch.sigma_z2

    eigs = np.linalg.eigvalsh(m)
    if eigs.min() < -PSD_EIG_TOL * m.trace():
        raise NumericalError(f"assembled covariance is not PSD (min eig {eigs.min():.3e}); internal bug")
    return JointCovariance(matrix=m, g=g, P=P, cp=cp, ch=ch)


#: Variable order of the converse-side assembly.
CONVERSE_VARIABLES = ("X", "Shat", "Sdiff", "S", "Y")


def converse_joint_covariance(g: float, K: ConverseCovariance, ch: ChannelParams) -> np.ndarray:
    """Joint covariance of (X, S_hat, S-S_hat, S, Y) implied by a converse covariance K."""
    m = np.zeros((5, 5))
    m[0, 0] = K.k00
    m[1, 1] = K.k11
    m[2, 2] = K.k22
    m[0, 1] = m[1, 0] = K.k01
    m[0, 2] = m[2, 0] = K.k02
    # S = Shat + Sdiff
    for i in range(3):
        m[i, 3] = m[3, i] = m[i, 1] + m[i, 2]
    m[3, 3] = K.k11 + K.k22
    # Y = g X + S + Z
    for i in range(4):
        m[i, 4] = m[4, i] = g * m[i, 0] + m[i, 3]
    m[4, 4] = g * g * K.k00 + 2.0 * g * m[0, 3] + m[3, 3] + ch.sigma_z2
    return m


def _submatrix(matrix: np.ndarray, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
    return matrix[np.ix_(rows, cols)]


def _resolve(names: Iterable[str] | str, variables: Sequence[str] = VARIABLES) -> list[int]:
    if isinstance(names, str):
        names = (names,)
    return [variables.index(n) for n in names]


def schur_conditional_variance(cov: JointCovariance | np.ndarray,
                               target: str, given: Iterable[str] | str,
                               variables: Sequence[str] = VARIABLES) -> float:
    """Var(target | given) from the joint covariance via the Schur complement.

    Degenerate given-set coordinates are dropped; a rank-deficient given-set
    falls back to the pseudo-inverse (logged, not fatal).
    """
    matrix = cov.matrix if isinstance(cov, JointCovariance) else cov
    ti = _resolve(target, variables)[0]
    gi = _resolve(given, variables)
    scale = max(matrix.trace(), 1.0)
    gi = [i for i in gi if matrix[i, i] > DEGENERATE_FACTOR * scale]
    vt = float(matrix[ti, ti])
    if not gi:
        return vt
    sigma = _submatrix(matrix, gi, gi)
    c = matrix[ti, gi]
    try:
        sol = np.linalg.solve(sigma, c)
    except np.linalg.LinAlgError:
        log.info("given-set covariance is rank deficient; using pseudo-inverse")
        sol = np.linalg.pinv(sigma, rcond=1e-12) @ c
    else:
        # near-singular solves are unreliable; prefer the tolerant pseudo-inverse
        if not np.all(np.isfinite(sol)) or np.linalg.cond(sigma) > 1e13:
            log.info("given-set covariance is near singular; using pseudo-inverse")
            sol = np.linalg.pinv(sigma, rcond=1e-12) @ c
    return vt - float(c @ sol)


def mutual_information(cov: JointCovariance | np.ndarray,
                       set_a: Iterable[str] | str, set_b: Iterable[str] | str,
                       base: float = 2.0,
                       variables: Sequence[str] = VARIABLES) -> float:
    """I(A;B) = 0.5 log [det(Sigma_A) det(Sigma_B) / det(Sigma_AB)], degenerate coordinates dropped."""
    matrix = cov.matrix if isinstance(cov, JointCovariance) else cov
    ia = _resolve(set_a, variables)
    ib = _resolve(set_b, variables)
    scale = max(matrix.trace(), 1.0)
    ia = [i for i in ia if matrix[i, i] > DEGENERATE_FACTOR * scale]
    ib = [i for i in ib if matrix[i, i] > DEGENERATE_FACTOR * scale]
    if not ia or not ib:
        return 0.0
    if set(ia) & set(ib):
        raise ValueError("mutual information sets must be disjoint")
    _, ld_a = np.linalg.slogdet(_submatrix(matrix, ia, ia))
    _, ld_b = np.linalg.slogdet(_submatrix(matrix, ib, ib))
    iab = ia + ib
    _, ld_ab = np.linalg.slogdet(_submatrix(matrix, iab, iab))
    mi = 0.5 * (ld_a + ld_b - ld_ab) / math.log(base)
    if mi < -1e-10:
        raise NumericalError(f"mutual information {mi:.3e} is negative beyond tolerance")
    return mi


def gp_rate_oracle(g: float, P: float, cp: CodingParams, ch: ChannelParams,
                   base: float = 2.0) -> float:
    """I(U;Y) - I(U;S) on the assembled covariance; the rate oracle."""
    cov = build_covariance(g, P, cp, ch)
    return mutual_information(cov, "U", "Y", base) - mutual_information(cov, "U", "S", base)


def _open_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniforms on the open interval (0,1): (2k+1)/2^54 from 53-bit integers."""
    k = rng.integers(0, 1 << 53, size=shape, dtype=np.int64)
    return (2.0 * k + 1.0) * 2.0 ** -54


@dataclass(frozen=True)
class McEstimate:
    """Seeded Monte-Carlo check of the coding construction."""

    covariance: np.ndarray
    var_s_given_u: float
    rate: float
    n: int
    seed: int
    algorithm: str = PRNG_ALGORITHM


def mc_estimate(g: float, P: float, cp: CodingParams, ch: ChannelParams,
                n: int, seed: int, base: float = 2.0) -> McEstimate:
    """Sample the construction and return empirical covariance, Var(S|U) and plug-in rate.

    Deterministic given (seed, n): PCG64 uniforms mapped through the normal
    inverse CDF.
    """
    # imported here, so that scipy stays off the solver's import path
    from scipy.special import ndtri

    if n < 1000:
        raise ValueError("mc_estimate needs n >= 1000")
    cp.validate(ch)
    c_u, c_t, vw = _coefficients(P, cp, ch)
    vu = _clamp0(ch.Q - cp.d)

    rng = np.random.Generator(np.random.PCG64(seed))
    z = ndtri(_open_uniform(rng, (4, n)))
    u = math.sqrt(vu) * z[0]
    t = math.sqrt(cp.d) * z[1]
    w = math.sqrt(vw) * z[2]
    noise = math.sqrt(ch.sigma_z2) * z[3]
    s = u + t
    x = c_u * u + c_t * t + w
    y = g * x + s + noise

    samples = np.vstack((u, t, s, x, y))
    cov = np.cov(samples)

    var_u, var_s, cov_us = cov[0, 0], cov[2, 2], cov[0, 2]
    var_s_given_u = var_s - (cov_us ** 2 / var_u if var_u > 0.0 else 0.0)
    rate = (mutual_information(cov, "U", "Y", base)
            - mutual_information(cov, "U", "S", base))
    return McEstimate(covariance=cov, var_s_given_u=float(var_s_given_u),
                      rate=float(rate), n=n, seed=seed)
