"""Closed-form per-fading-state quantities.

The achievable rate, the outer-bound rate and the two conditional variances
share one algebraic kernel, evaluated at (K00, K11, K22) = (P, Q-d, d) on
the achievability side and at a general covariance on the converse side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ChannelParams, CodingParams

#: Negative dust below which sqrt arguments are clamped to zero.
SQRT_CLAMP = -1e-15

#: Relative eigenvalue floor for positive semi-definiteness tests.
PSD_EIG_TOL = 1e-12


class NumericalError(ArithmeticError):
    """A formula produced a non-finite or sign-violating intermediate."""


def _clamp0(x: float) -> float:
    if x < 0.0:
        if x < SQRT_CLAMP * max(1.0, abs(x)):
            raise NumericalError(f"sqrt argument {x!r} is negative beyond clamping dust")
        return 0.0
    return x


def _rate_kernel(g, k00, k11, k22, rho1, rho2, sigma_z2, base=2.0):
    """Signed rate 0.5*log_base(k22*A / ((k11+k22)*B)) with

    A = g^2 k00 + (k11+k22) + sigma_z2 + 2 g rho1 sqrt(k00 k11) + 2 g rho2 sqrt(k00 k22),
    B = (1-rho1^2) g^2 k00 + k22 + sigma_z2 + 2 g rho2 sqrt(k00 k22),

    where 1 - rho1^2 is taken as max((1 - rho1)(1 + rho1), rho2^2).

    Array-aware; all arguments broadcast.
    """
    gg = np.multiply(g, g)
    s_tot = k11 + k22
    cross1 = 2.0 * g * rho1 * np.sqrt(k00 * k11)
    cross2 = 2.0 * g * rho2 * np.sqrt(k00 * k22)
    num_inner = gg * k00 + s_tot + sigma_z2 + cross1 + cross2
    # 1 - rho1^2 without cancellation near rho1 = 1, and at least rho2^2: the
    # residual variance k00 (1 - rho1^2 - rho2^2) is clamped at 0
    k = np.maximum((1.0 - rho1) * (1.0 + rho1), rho2 * rho2)
    den_inner = k * gg * k00 + k22 + sigma_z2 + cross2
    ratio = (k22 * num_inner) / (s_tot * den_inner)
    if base == 2.0:
        return 0.5 * np.log2(ratio)
    return 0.5 * np.log(ratio) / math.log(base)


def rate_per_state(g: float, P: float, cp: CodingParams, ch: ChannelParams,
                   base: float = 2.0) -> float:
    """Achievable rate at fading amplitude g and power P; negative values are returned as-is."""
    if g < 0 or P < 0:
        raise NumericalError("g and P must be nonnegative")
    cp.validate(ch)
    k11 = _clamp0(ch.Q - cp.d)
    r = float(_rate_kernel(g, P, k11, cp.d, cp.rho1, cp.rho2, ch.sigma_z2, base))
    if not math.isfinite(r):
        raise NumericalError(
            f"rate is non-finite at g={g}, P={P}, rho=({cp.rho1},{cp.rho2}), d={cp.d}"
        )
    return r


def kappa_member(g: float, P: float, cp: CodingParams, ch: ChannelParams) -> bool:
    """Membership of (rho1, rho2, d) in the feasible set at this fading state."""
    if cp.violation(ch) is not None:
        return False
    return rate_per_state(g, P, cp, ch) >= 0.0


def cond_var_y_given_u(g: float, P: float, cp: CodingParams, ch: ChannelParams) -> float:
    """Var(Y|U) = (1-rho1^2) g^2 P + d + sigma_z2 + 2 g rho2 sqrt(P d)."""
    cp.validate(ch)
    return ((1.0 - cp.rho1 ** 2) * g * g * P + cp.d + ch.sigma_z2
            + 2.0 * g * cp.rho2 * math.sqrt(_clamp0(P * cp.d)))


@dataclass(frozen=True)
class ConverseCovariance:
    """Covariance of (X, S_hat, S - S_hat): diagonal K00, K11, K22 and the X cross terms.

    rho1 and rho2 are read back from the cross terms (0/0 as 0), except for a
    covariance built by from_rhos, which keeps the correlations it was given:
    dividing them back out is off by an ulp, which near R = 0 is a relative
    rate error above 1e-12.
    """

    k00: float
    k11: float
    k22: float
    k01: float
    k02: float
    rhos: tuple[float, float] | None = field(default=None, repr=False)

    @property
    def rho1(self) -> float:
        if self.rhos is not None:
            return self.rhos[0]
        den = math.sqrt(self.k00 * self.k11)
        return self.k01 / den if den > 0.0 else 0.0  # 0/0 read as 0

    @property
    def rho2(self) -> float:
        if self.rhos is not None:
            return self.rhos[1]
        den = math.sqrt(self.k00 * self.k22)
        return self.k02 / den if den > 0.0 else 0.0

    def matrix(self) -> np.ndarray:
        return np.array([
            [self.k00, self.k01, self.k02],
            [self.k01, self.k11, 0.0],
            [self.k02, 0.0, self.k22],
        ])

    @staticmethod
    def from_rhos(k00: float, k11: float, k22: float, rho1: float, rho2: float) -> "ConverseCovariance":
        return ConverseCovariance(
            k00, k11, k22,
            k01=rho1 * math.sqrt(k00 * k11),
            k02=rho2 * math.sqrt(k00 * k22),
            rhos=(rho1, rho2),
        )


def var_y(g: float, K: ConverseCovariance, ch: ChannelParams) -> float:
    """Var(Y) = g^2 K00 + K11 + K22 + sigma_z2 + 2 g rho1 sqrt(K00 K11) + 2 g rho2 sqrt(K00 K22)."""
    return (g * g * K.k00 + K.k11 + K.k22 + ch.sigma_z2
            + 2.0 * g * K.rho1 * math.sqrt(K.k00 * K.k11)
            + 2.0 * g * K.rho2 * math.sqrt(K.k00 * K.k22))


def cond_var_s_given_shat_y(g: float, K: ConverseCovariance, ch: ChannelParams) -> float:
    """Var(S | S_hat, Y) = K22 sigma_z2 / (g^2 (1-rho1^2) K00 + K22 + sigma_z2 + 2 g rho2 sqrt(K00 K22))."""
    den = (g * g * (1.0 - K.rho1 ** 2) * K.k00 + K.k22 + ch.sigma_z2
           + 2.0 * g * K.rho2 * math.sqrt(K.k00 * K.k22))
    return K.k22 * ch.sigma_z2 / den


def converse_rate(g: float, K: ConverseCovariance, ch: ChannelParams, base: float = 2.0) -> float:
    """Outer-bound rate; same functional form as the achievable rate."""
    r = float(_rate_kernel(g, K.k00, K.k11, K.k22, K.rho1, K.rho2, ch.sigma_z2, base))
    if not math.isfinite(r):
        raise NumericalError(f"converse rate is non-finite for K={K}")
    return r


def psd_feasible(K: ConverseCovariance) -> bool:
    """True iff the 3x3 covariance has all eigenvalues >= -1e-12 * trace."""
    m = K.matrix()
    if not np.all(np.isfinite(m)):
        return False
    eigs = np.linalg.eigvalsh(m)
    return bool(eigs.min() >= -PSD_EIG_TOL * m.trace())
