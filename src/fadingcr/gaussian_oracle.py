"""Independent Gaussian verification path, stacked over draws.

Builds the joint law of (U, T, S, X, Y) from the coding construction and
re-derives every closed form in rate_core through covariance algebra
(Schur complements, log-determinant mutual informations) and seeded
Monte-Carlo sampling, streamed in blocks so that its memory does not
depend on the sample count. Note E[X^2] = P exactly: X carries an
independent residual on top of its U and T components, so the disk
interior is covered.

Every oracle works on a stack of draws: build_covariance takes arrays of g
and P with one CodingParams per draw and fills an (N, 5, 5) array,
converse_joint_covariance does so from one ConverseCovariance per draw, and
mutual_information and schur_conditional_variance take any matrix[..., n, n]
and make one stacked LAPACK call per group of rows that drop the same
degenerate coordinates. A single draw is a stack of one and returns floats.
Every check (parameter validity, PSD assembly, negative mutual information,
the pseudo-inverse fallback) is applied per row.

At d = Q the auxiliary U is degenerate and the oracle rate is 0 regardless
of rho1; the closed form and the oracle agree there only for rho1 = 0.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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
    """Symmetric covariance over (U, T, S, X, Y), or an (N, 5, 5) stack, plus its parameters."""

    matrix: np.ndarray
    g: float | np.ndarray
    P: float | np.ndarray
    cp: CodingParams | Sequence[CodingParams]
    ch: ChannelParams


def _sample_map(g: float, P: float, cp: CodingParams, ch: ChannelParams) -> np.ndarray:
    """The 5x4 map M from the normals (z_u, z_t, z_w, z_n) to the samples (u, t, s, x, y)."""
    vu = _clamp0(ch.Q - cp.d)
    c_u = cp.rho1 * math.sqrt(P / vu) if vu > 0.0 else 0.0
    c_t = cp.rho2 * math.sqrt(P / cp.d)
    vw = _clamp0(P - c_u * c_u * vu - c_t * c_t * cp.d)
    u, t = np.array([math.sqrt(vu), 0.0, 0.0, 0.0]), np.array([0.0, math.sqrt(cp.d), 0.0, 0.0])
    x = c_u * u + c_t * t + [0.0, 0.0, math.sqrt(vw), 0.0]
    y = g * x + (u + t) + [0.0, 0.0, 0.0, math.sqrt(ch.sigma_z2)]
    return np.array([u, t, u + t, x, y])


def build_covariance(g: float | np.ndarray, P: float | np.ndarray,
                     cp: CodingParams | Sequence[CodingParams],
                     ch: ChannelParams) -> JointCovariance:
    """Assemble the joint Gaussian law of (U, T, S, X, Y) for the coding construction.

    One draw (scalar g and P, one CodingParams) gives a (5, 5) matrix; N draws
    (length-N g and P, a sequence of N CodingParams) give an (N, 5, 5) stack.
    """
    single = isinstance(cp, CodingParams)
    cps = (cp,) if single else tuple(cp)
    gs = np.asarray(g, dtype=float).reshape(-1)
    Ps = np.asarray(P, dtype=float).reshape(-1)
    if not len(gs) == len(Ps) == len(cps):
        raise ValueError(f"draw stack lengths differ: g {len(gs)}, P {len(Ps)}, cp {len(cps)}")
    if np.any(gs < 0) or np.any(Ps < 0):
        raise NumericalError("g and P must be nonnegative")
    for c in cps:
        c.validate(ch)
    rho1 = np.array([c.rho1 for c in cps], dtype=float)
    rho2 = np.array([c.rho2 for c in cps], dtype=float)
    vt = np.array([c.d for c in cps], dtype=float)
    vu = np.array([_clamp0(ch.Q - c.d) for c in cps], dtype=float)
    cov_ux = rho1 * np.sqrt(Ps * vu)
    cov_tx = rho2 * np.sqrt(Ps * vt)

    m = np.zeros((len(cps), 5, 5))
    m[:, 0, 0] = vu
    m[:, 1, 1] = vt
    m[:, 2, 2] = ch.Q
    m[:, 3, 3] = Ps
    m[:, 0, 2] = m[:, 2, 0] = vu
    m[:, 1, 2] = m[:, 2, 1] = vt
    m[:, 0, 3] = m[:, 3, 0] = cov_ux
    m[:, 1, 3] = m[:, 3, 1] = cov_tx
    m[:, 2, 3] = m[:, 3, 2] = cov_ux + cov_tx
    for i in range(4):
        m[:, i, 4] = m[:, 4, i] = gs * m[:, i, 3] + m[:, i, 2]
    m[:, 4, 4] = gs * gs * Ps + 2.0 * gs * m[:, 2, 3] + ch.Q + ch.sigma_z2

    low = np.linalg.eigvalsh(m).min(axis=-1)
    bad = low < -PSD_EIG_TOL * np.trace(m, axis1=-2, axis2=-1)
    if np.any(bad):
        raise NumericalError(f"assembled covariance is not PSD (min eig {low[bad].min():.3e} "
                             f"in {np.count_nonzero(bad)} of {len(m)} draws); internal bug")
    return JointCovariance(matrix=m[0] if single else m, g=g, P=P, cp=cp, ch=ch)


#: Variable order of the converse-side assembly.
CONVERSE_VARIABLES = ("X", "Shat", "Sdiff", "S", "Y")


def converse_joint_covariance(g: float | np.ndarray,
                              K: ConverseCovariance | Sequence[ConverseCovariance],
                              ch: ChannelParams) -> np.ndarray:
    """Joint covariance of (X, S_hat, S-S_hat, S, Y) implied by a converse covariance K.

    Stacked as build_covariance is: scalar g and one K give a (5, 5) matrix,
    length-N g and a sequence of N covariances an (N, 5, 5) stack.
    """
    single = isinstance(K, ConverseCovariance)
    Ks = (K,) if single else tuple(K)
    gs = np.asarray(g, dtype=float).reshape(-1)
    if len(gs) != len(Ks):
        raise ValueError(f"draw stack lengths differ: g {len(gs)}, K {len(Ks)}")
    k00, k11, k22, k01, k02 = np.array([(c.k00, c.k11, c.k22, c.k01, c.k02) for c in Ks],
                                       dtype=float).T
    m = np.zeros((len(Ks), 5, 5))
    m[:, 0, 0] = k00
    m[:, 1, 1] = k11
    m[:, 2, 2] = k22
    m[:, 0, 1] = m[:, 1, 0] = k01
    m[:, 0, 2] = m[:, 2, 0] = k02
    # S = Shat + Sdiff
    for i in range(3):
        m[:, i, 3] = m[:, 3, i] = m[:, i, 1] + m[:, i, 2]
    m[:, 3, 3] = k11 + k22
    # Y = g X + S + Z
    for i in range(4):
        m[:, i, 4] = m[:, 4, i] = gs * m[:, i, 0] + m[:, i, 3]
    m[:, 4, 4] = gs * gs * k00 + 2.0 * gs * m[:, 0, 3] + m[:, 3, 3] + ch.sigma_z2
    return m[0] if single else m


def _resolve(names: Iterable[str] | str, variables: Sequence[str] = VARIABLES) -> np.ndarray:
    if isinstance(names, str):
        names = (names,)
    return np.array([variables.index(n) for n in names], dtype=np.intp)


def _stack(cov: JointCovariance | np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """The matrices as an (N, n, n) stack, and the leading shape of the input."""
    matrix = np.asarray(cov.matrix if isinstance(cov, JointCovariance) else cov)
    return matrix.reshape(-1, *matrix.shape[-2:]), matrix.shape[:-2]


def _unstack(values: np.ndarray, shape: tuple[int, ...]) -> float | np.ndarray:
    """Per-row results in the input's leading shape; a float for a single matrix."""
    return float(values[0]) if shape == () else values.reshape(shape)


def _mask_groups(stack: np.ndarray, idx: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(keep mask over idx, rows) for each set of rows that keep the same coordinates of idx.

    A coordinate is kept in a row when its variance exceeds DEGENERATE_FACTOR
    times the row's trace (at least 1).
    """
    scale = np.maximum(np.trace(stack, axis1=-2, axis2=-1), 1.0)
    keep = stack[:, idx, idx] > DEGENERATE_FACTOR * scale[:, None]
    code = keep @ (1 << np.arange(len(idx)))
    return [(keep[rows[0]], rows)
            for rows in (np.flatnonzero(code == c) for c in np.unique(code))]


def schur_conditional_variance(cov: JointCovariance | np.ndarray,
                               target: str, given: Iterable[str] | str,
                               variables: Sequence[str] = VARIABLES) -> float | np.ndarray:
    """Var(target | given) from the joint covariance via the Schur complement.

    Takes one matrix or a stack matrix[..., n, n] and returns a float or an
    array of the leading shape. Degenerate given-set coordinates are dropped
    per row. A row whose given-set covariance is near singular (condition
    number above 1e13 or not finite) or whose solution is not finite falls
    back to the pseudo-inverse, with one log record per row (logged, not
    fatal). A LinAlgError from a group's stacked solve names no row, so every
    row of that group falls back.
    """
    stack, shape = _stack(cov)
    ti = _resolve(target, variables)[0]
    given_idx = _resolve(given, variables)
    out = stack[:, ti, ti].copy()
    for mask, rows in _mask_groups(stack, given_idx):
        gi = given_idx[mask]
        if not len(gi):
            continue
        sub = stack[rows]
        sigma = sub[:, gi[:, None], gi]
        c = sub[:, ti, gi]
        # near-singular solves are unreliable; prefer the tolerant pseudo-inverse
        ok = np.linalg.cond(sigma) <= 1e13
        sol = np.full_like(c, np.nan)
        try:
            sol[ok] = np.linalg.solve(sigma[ok], c[ok][:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            pass  # the error names no row, so every row of the group stays nan
        fallback = ~np.all(np.isfinite(sol), axis=-1)
        if np.any(fallback):
            for r in rows[fallback]:
                log.info("given-set covariance of row %d is rank deficient; using pseudo-inverse",
                         int(r))
            sol[fallback] = (np.linalg.pinv(sigma[fallback], rcond=1e-12)
                             @ c[fallback][:, :, None])[:, :, 0]
        out[rows] -= (c[:, None, :] @ sol[:, :, None])[:, 0, 0]
    return _unstack(out, shape)


def mutual_information(cov: JointCovariance | np.ndarray,
                       set_a: Iterable[str] | str, set_b: Iterable[str] | str,
                       base: float = 2.0,
                       variables: Sequence[str] = VARIABLES) -> float | np.ndarray:
    """I(A;B) = 0.5 log [det(Sigma_A) det(Sigma_B) / det(Sigma_AB)], degenerate coordinates dropped.

    Takes one matrix or a stack matrix[..., n, n] and returns a float or an
    array of the leading shape; a row whose A or B is wholly degenerate has
    I(A;B) = 0.
    """
    stack, shape = _stack(cov)
    ia = _resolve(set_a, variables)
    ib = _resolve(set_b, variables)
    mi = np.zeros(len(stack))
    for mask, rows in _mask_groups(stack, np.concatenate((ia, ib))):
        a, b = ia[mask[:len(ia)]], ib[mask[len(ia):]]
        if not len(a) or not len(b):
            continue
        if np.intersect1d(a, b).size:
            raise ValueError("mutual information sets must be disjoint")
        sub = stack[rows]
        ab = np.concatenate((a, b))
        _, ld_a = np.linalg.slogdet(sub[:, a[:, None], a])
        _, ld_b = np.linalg.slogdet(sub[:, b[:, None], b])
        _, ld_ab = np.linalg.slogdet(sub[:, ab[:, None], ab])
        mi[rows] = 0.5 * (ld_a + ld_b - ld_ab) / math.log(base)
    if np.any(mi < -1e-10):
        raise NumericalError(f"mutual information {mi.min():.3e} is negative beyond tolerance")
    return _unstack(mi, shape)


def gp_rate_oracle(g: float | np.ndarray, P: float | np.ndarray,
                   cp: CodingParams | Sequence[CodingParams], ch: ChannelParams,
                   base: float = 2.0) -> float | np.ndarray:
    """I(U;Y) - I(U;S) on the assembled covariance; the rate oracle.

    Stacked as build_covariance is: a float for one draw, an array for N.
    """
    cov = build_covariance(g, P, cp, ch)
    return mutual_information(cov, "U", "Y", base) - mutual_information(cov, "U", "S", base)


#: Columns of the (4, n) normals that mc_estimate draws and reduces per step.
MC_BLOCK = 1 << 13


def _open_uniform(k: np.ndarray) -> np.ndarray:
    """(2k+1)/2^54 in double for 53-bit integers k: uniforms on the open interval (0,1).

    For k >= 2^52, 2k+1 rounds to even; k = 2^53 - 1 would give 1.0, so the map is held below 1.
    """
    return np.minimum((k * 2.0 + 1.0) * 2.0 ** -54, np.nextafter(1.0, 0.0))


def _normal_blocks(seed: int, n: int) -> Iterator[np.ndarray]:
    """The (4, n) standard normals of mc_estimate, MC_BLOCK columns at a time.

    Row r maps PCG64(seed) outputs rn ... rn + n - 1 (drawn by jump-ahead, shifted
    to 53 bits as Generator.integers(0, 2**53) does) through _open_uniform and ndtri.
    """
    from scipy.special import ndtri  # kept off the solver's import path

    rows = [np.random.PCG64(seed).advance(r * n) for r in range(4)]
    for i in range(0, n, MC_BLOCK):
        k = np.array([row.random_raw(min(MC_BLOCK, n - i)) for row in rows]) >> 11
        yield ndtri(_open_uniform(k))


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

    Deterministic given (seed, n). The samples are M z for the normals z of
    _normal_blocks, so their sample covariance is M C_z M^T with C_z that of z.
    """
    if n < 1000:
        raise ValueError("mc_estimate needs n >= 1000")
    cp.validate(ch)
    gram, sums = np.zeros((4, 4)), np.zeros(4)
    for z in _normal_blocks(seed, n):
        gram += z @ z.T
        sums += z.sum(axis=1)
    # the normals have mean 0, so removing the sample mean cancels no digits
    m = _sample_map(g, P, cp, ch)
    cov = m @ ((gram - np.outer(sums, sums) / n) / (n - 1)) @ m.T
    cov = 0.5 * (cov + cov.T)  # the product rounds apart across the diagonal

    var_u, var_s, cov_us = cov[0, 0], cov[2, 2], cov[0, 2]
    var_s_given_u = var_s - (cov_us ** 2 / var_u if var_u > 0.0 else 0.0)
    rate = (mutual_information(cov, "U", "Y", base)
            - mutual_information(cov, "U", "S", base))
    return McEstimate(covariance=cov, var_s_given_u=float(var_s_given_u),
                      rate=float(rate), n=n, seed=seed)
