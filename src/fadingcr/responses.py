"""Exact per-node best responses to a power multiplier.

A node maximizes R(P) - lam*P over P >= 0 (Goldsmith & Varaiya, IEEE Trans.
IT 1997; Palomar & Fonollosa, IEEE Trans. SP 2005). With x = sqrt(P) the
rate of rate_core._rate_kernel is c*ln(A/B) plus a constant, c =
1/(2 ln base), where A and B are quadratics in x. So the marginal rate
dR/dP = c*N / (2T) is rational, with N = A'B - AB' of degree 2 and
T = x*A*B of degree 5, and it falls where S = N'T - NT' < 0. Every solve
here is a bracketed Newton iteration in a variable in which its function
is near linear: ln P, the distance -ln(ln P_r - ln P) to a branch end P_r
where the marginal rate falls to 0, or psi. Nothing is tabled, no power is
capped, and the caller evaluates the rates. Both classes hold a batch of
problems, one element per (problem, node), and one multiplier per problem.
An AdaptiveRho, and the state of a FixedRho, serve one solve: each element
keeps its response to its last multiplier and starts each power solve from
its last one (newton_start). FixedRho builds its structure once per
problem, at gain g = 1, on polynomials stored coefficient-major (one row
per power of x across the problems, so each step is one vector operation),
and maps it onto each node in closed form, as A and B depend on g and x
only through a = g x.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .model import ChannelParams


def newton(fun: Callable, y, lo, hi, tol: float):
    """Bracketed Newton iteration for the root of fun, positive below it and negative above.

    fun(y, idx) returns (value, slope) at y for the elements idx. lo and hi
    bracket the root and may be infinite. A Newton step that leaves the
    bracket is replaced by its midpoint, or by a move of 2 from the finite
    end when the other is infinite; no step is longer than 8. Each element
    stops once a step or its bracket is within tol, after at most 200
    iterations; only the others are evaluated again, so each result depends
    on its element alone.
    """
    shape = np.shape(y)
    out = np.array(np.broadcast_to(y, shape), dtype=float).reshape(-1)
    y, lo, hi = out.copy(), *(np.broadcast_to(a, shape).reshape(-1).astype(float)
                               for a in (lo, hi))
    act = np.arange(y.size)
    for _ in range(200):
        if not act.size:
            break
        f, df = fun(y, act)
        lo, hi = np.where(f > 0, y, lo), np.where(f < 0, y, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            ny = np.minimum(np.maximum(y - f / df, y - 8.0), y + 8.0)
            # a converged step may round onto the bracket end it came from
            conv = np.abs(ny - y) <= tol
            bad = ~(conv | ((ny > lo) & (ny < hi)))
            if bad.any():
                ny = np.where(bad, np.where(np.isinf(lo), hi - 2.0, np.where(
                    np.isinf(hi), lo + 2.0, 0.5 * (lo + hi))), ny)
        flat = (f == 0) | np.isnan(f)
        y = np.where(flat, y, ny)
        stop = conv | (hi - lo <= tol) | flat
        if stop.any():
            out[act[stop]] = y[stop]
            keep = ~stop
            y, lo, hi, act = y[keep], lo[keep], hi[keep], act[keep]
    out[act] = y
    return out.reshape(shape)


def _dpower(P, lam, s):
    """dP/dlam of powers P that solve m(P) = lam, from s = d ln m / d ln P: P / (lam s),
    and 0 where s is not negative."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(s < 0.0, P / (lam * s), 0.0)


def newton_start(lam, last: np.ndarray, c: float) -> np.ndarray:
    """Start in y = ln P of each row's power solve m(P) = lam, from its last solve.

    last holds the rows (multiplier, y, slope d ln m / d y). The start is the
    prediction y + (ln lam - ln lam_last) / slope where it moves y by less
    than 1, and ln(c / lam) otherwise, or for a row never solved (nan).
    """
    lam_last, y, slope = last
    with np.errstate(divide="ignore", invalid="ignore"):
        pred = y + (np.log(lam) - np.log(lam_last)) / slope
    return np.where(np.abs(pred - y) < 1.0, pred, np.log(c / lam))


def arc_terms(g, x, psi, d, ch: ChannelParams):
    """Partials of f = ln A - ln B at P = x^2 and rho = (cos psi, sin psi).

    Returns (f_x, f_xx, f_psi, f_psipsi, f_xpsi).
    """
    u, v = np.sqrt(ch.Q - d), np.sqrt(d)
    co, si = np.cos(psi), np.sin(psi)
    gx = g * x
    lin = u * co + v * si
    A = gx * gx + 2.0 * gx * lin + ch.Q + ch.sigma_z2
    B = (si * gx) ** 2 + 2.0 * gx * v * si + d + ch.sigma_z2
    ax, axx = 2.0 * g * (gx + lin) / A, 2.0 * g * g / A
    ap, app = 2.0 * gx * (v * co - u * si) / A, -2.0 * gx * lin / A
    axp = 2.0 * g * (v * co - u * si) / A
    bx, bxx = 2.0 * g * si * (si * gx + v) / B, 2.0 * (g * si) ** 2 / B
    bp = 2.0 * gx * co * (si * gx + v) / B
    bpp = 2.0 * gx * (gx * (co * co - si * si) - v * si) / B
    bxp = 2.0 * g * co * (2.0 * si * gx + v) / B
    return (ax - bx, axx - ax * ax - bxx + bx * bx, ap - bp, app - ap * ap - bpp + bp * bp,
            axp - ax * ap - bxp + bx * bp)


def arc_psi(g, x, d, ch: ChannelParams, psi=0.0):
    """psi in [-pi/2, pi/2] maximizing the rate on the arc at P = x^2, from the start psi.

    The psi-derivative is 2gxu*B >= 0 at -pi/2 and its negative at pi/2
    (u = sqrt(Q - d)), and the arc rate is unimodal in psi, so a bracketed
    Newton solve of the first-order condition finds the maximum.
    """
    g, x, d = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (g, x, d)))
    shape = g.shape
    g, x, d = g.reshape(-1), x.reshape(-1), d.reshape(-1)

    def fun(p, i):
        t = arc_terms(g[i], x[i], p, d[i], ch)
        return t[2], t[3]

    return newton(fun, np.broadcast_to(np.asarray(psi, dtype=float), shape),
                  -0.5 * math.pi, 0.5 * math.pi, 1e-15)


def arc_marginal(g, x, d, ch: ChannelParams, base: float):
    """Marginal rate dR/dP at P = x^2 > 0 with each node at its psi*(P).

    By the envelope theorem this is the slope of the rate maximized on the
    arc, c*f_x / (2x) at psi*(P).
    """
    fx = arc_terms(g, x, arc_psi(g, x, d, ch), d, ch)[0]
    return 0.5 / math.log(base) * fx / (2.0 * x)


class AdaptiveRho:
    """Best powers of a batch of problems, each node at its own psi*(P), for one solve.

    g and d hold one entry per (problem, node) element, n nodes per problem.
    By the envelope theorem the maximized rate R*(P) has slope
    dR/dP(P, psi*(P)), which falls in P only for sigma_z2/Q >= 1 (below,
    it can rise over one run of P; ROADMAP item 1). A node's power solves
    slope = lam by a Newton iteration over y = ln P with the reduced
    curvature f_xx - f_xpsi^2 / f_psipsi, and each of its steps solves
    psi*(P) by arc_psi. The marginal rate at P = 0+ is unbounded when
    g*sqrt(Q - d) > 0 and c*g^2/(Q + sigma_z2) otherwise; at lam = 0 every
    node with g > 0 takes unbounded power.

    Each element keeps its last solve (multiplier, y, slope d ln m / d y and
    psi*), from which newton_start starts its power solve and every psi
    solve starts. As in FixedRho it keeps its response to its last
    multiplier, P, psi* and dP/dlam = P / (lam slope): only the elements
    whose multiplier changed are solved again.
    """

    def __init__(self, g: np.ndarray, d: np.ndarray, n: int, ch: ChannelParams, base: float):
        self.g, self.d, self.n, self.ch, self.base = g, d, n, ch, base
        self.c = 0.5 / math.log(base)
        self.m0 = np.where(g * np.sqrt(ch.Q - d) > 0.0, np.inf,
                           self.c * g * g / (ch.Q + ch.sigma_z2))
        self._problem = np.arange(g.size) // n
        # each element's last interior solve: multiplier, y = ln P and slope; and psi*
        self._last, self._psi = np.full((3, g.size), np.nan), np.zeros(g.size)
        # each element's multiplier, power, psi* and dP/dlam at its last response
        self._memo = np.full((4, g.size), np.nan)

    def powers(self, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Best power, psi*(P) and dP/dlam of every element under lam (one multiplier per
        problem); psi and dP/dlam are 0 where P is 0 or inf."""
        lr = lam[self._problem]
        rows = np.flatnonzero(lr != self._memo[0])
        lm, c, ch = lr[rows], self.c, self.ch
        P = np.where((lm <= 0.0) & (self.g[rows] > 0.0), np.inf, 0.0)
        psi, dP = np.zeros(rows.size), np.zeros(rows.size)
        live = np.flatnonzero((lm > 0.0) & (lm < self.m0[rows]))
        e, ll = rows[live], lm[live]
        gl, dl, ps, slope = self.g[e], self.d[e], self._psi[e], np.zeros(live.size)

        def fun(y, i):
            # ln(m* / lam) over y = ln P, m* = c f_x / (2x)
            x = np.exp(0.5 * y)
            ps[i] = arc_psi(gl[i], x, dl[i], ch, ps[i])
            fx, fxx, _, fpp, fxp = arc_terms(gl[i], x, ps[i], dl[i], ch)
            fxx = fxx - np.where(fpp < 0.0, fxp * fxp / np.where(fpp < 0.0, fpp, -1.0), 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                slope[i] = 0.5 * (x * fxx / fx - 1.0)
                return (np.where(fx > 0.0, np.log(np.maximum(c * fx / (2.0 * ll[i] * x), 0.0)),
                                 -np.inf), slope[i])

        y = newton(fun, newton_start(ll, self._last[:, e], c), -np.inf, np.inf, 1e-9)
        P[live] = np.exp(y)
        # psi* at the final power, one short Newton solve from the last step's
        psi[live] = ps = arc_psi(gl, np.sqrt(P[live]), dl, ch, ps)
        dP[live] = _dpower(P[live], ll, slope)
        self._last[:, e], self._psi[e] = (ll, y, slope), ps
        self._memo[:, rows] = lm, P, psi, dP
        return self._memo[1].copy(), self._memo[2].copy(), self._memo[3].copy()

    def psi(self, P: np.ndarray) -> np.ndarray:
        """psi*(P) of every element at powers P, each solve from the element's last psi*."""
        inner = (P > 0.0) & np.isfinite(P)
        return np.where(inner, arc_psi(self.g, np.sqrt(np.where(inner, P, 0.0)), self.d,
                                       self.ch, self._psi), 0.0)

    def marginal(self, x) -> np.ndarray:
        """arc_marginal of every element at x = sqrt(P)."""
        return arc_marginal(self.g, x, self.d, self.ch, self.base)

    def top(self, e: np.ndarray) -> np.ndarray:
        """The limit +inf of c*ln(A/B) as P grows (psi*(P) -> 0), of elements e."""
        return np.full(e.size, np.inf)


def _pmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Products of polynomials, coefficients of x**k along the first axis."""
    out = np.zeros((p.shape[0] + q.shape[0] - 1,) + p.shape[1:])
    for k in range(p.shape[0]):
        out[k:k + q.shape[0]] += p[k] * q
    return out


def _pder(p: np.ndarray) -> np.ndarray:
    return p[1:] * np.arange(1, p.shape[0])[:, None]


def _peval(p: np.ndarray, x) -> tuple[np.ndarray, np.ndarray]:
    """Values and derivatives of polynomials p (first axis low to high) at x."""
    val, der = np.zeros(np.shape(x)), np.zeros(np.shape(x))
    for k in range(p.shape[0] - 1, -1, -1):
        der = der * x + val
        val = val * x + p[k]
    return val, der


def _sign_changes(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign changes of each coefficient sequence, and the sign of its lowest nonzero term."""
    count, prev, low = np.zeros(p.shape[1:], dtype=int), np.zeros(p.shape[1:]), None
    for k in range(p.shape[0]):
        s = np.sign(p[k])
        count += s * prev < 0
        prev = np.where(s != 0, s, prev)
        low = s if low is None else np.where(low != 0, low, s)
    return count, low


def _on_interval(p: np.ndarray, lo, hi) -> np.ndarray:
    """Coefficients whose sign changes bound the roots of p in (lo, hi) (Descartes' rule).

    They are those of (1+u)^deg p((lo + hi u) / (1 + u)) for a finite hi, of
    p(lo (1 + u)) for an infinite one, and p itself on (0, inf); the sign of
    the lowest nonzero one is that of p at lo+. Horner's scheme in the
    numerator lo + hi*u, with the binomial rows of (1+u)^k.
    """
    deg = p.shape[0] - 1
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    fin = np.isfinite(hi)
    a, b = lo, np.where(fin, hi, np.where(lo > 0.0, lo, 1.0))
    zero = np.zeros((1,) + lo.shape)
    q = p[deg:]
    for k in range(deg - 1, -1, -1):
        q = np.concatenate([a * q, zero]) + np.concatenate([zero, b * q])
        binom = np.array([math.comb(deg - k, j) for j in range(deg - k + 1)], dtype=float)
        q = q + p[k] * np.where(fin, binom[:, None], np.eye(1, deg - k + 1)[0][:, None])
    return q


def _branches(N: np.ndarray, S: np.ndarray) -> list[tuple[float, float, bool]]:
    """Branches (lo, hi, hi is a root of N) of one element, from all positive roots of N
    and S (np.roots)."""
    roots = [{float(q.real) for q in (np.roots(p[::-1]) if p.any() else ())
              if q.real > 0 and abs(q.imag) <= 1e-9 * abs(q)} for p in (N, S)]
    edges = [0.0, *sorted(roots[0] | roots[1]), math.inf]
    out: list[tuple[float, float, bool]] = []
    for lo, hi in zip(edges, edges[1:]):
        probe = (1.0 if math.isinf(hi) else 0.5 * hi) if lo == 0.0 else (
            2.0 * lo if math.isinf(hi) else 0.5 * (lo + hi))
        if _peval(N, probe)[0] > 0.0 and _peval(S, probe)[0] < 0.0:
            if out and out[-1][1] == lo:
                lo = out.pop()[0]
            out.append((lo, hi, hi in roots[0]))
    return out


def _marginal(coef: np.ndarray, c: float, x) -> np.ndarray:
    """c*N / (2 x A B), the marginal rate dR/dP at x = sqrt(P), of coefficient columns coef."""
    n0, n1, n2, a0, a1, a2, b0, b1, b2 = coef
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return c * (n0 + x * (n1 + x * n2)) / (
            2.0 * x * (a0 + x * (a1 + x * a2)) * (b0 + x * (b1 + x * b2)))


def _unit_structure(rho1, rho2, d, ch: ChannelParams, c: float):
    """FixedRho's structure of problems (rho1, rho2, d) at g = 1: the coefficients of N, A
    and B, one column per problem, and per row, in FixedRho's order, its problem, xl, xr,
    at_root, m_lo, m_hi and _nterms."""
    Q, sz = ch.Q, ch.sigma_z2
    # 1 - rho1^2 as in rate_core._rate_kernel
    k = np.maximum((1.0 - rho1) * (1.0 + rho1), rho2 * rho2)
    u, v = np.sqrt(Q - d), np.sqrt(d)
    # N, A and B, coefficients of x**0, x**1, x**2
    coef = np.stack([2.0 * u * (rho1 * (d + sz) - rho2 * u * v), 2.0 * (d + sz - k * (Q + sz)),
                     2.0 * rho1 * (rho1 * rho2 * v - k * u), np.full_like(d, Q + sz),
                     2.0 * (rho1 * u + rho2 * v), np.ones_like(d), d + sz, 2.0 * rho2 * v, k])
    N, a, b = coef[:3], coef[3:6], coef[6:]
    T = np.concatenate([np.zeros((1, d.size)), _pmul(a, b)])
    S = _pmul(_pder(N), T) - _pmul(N, _pder(T))

    n0, n1, n2 = N
    vn, n_low = _sign_changes(N)
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.sqrt(n1 * n1 - 4.0 * n0 * n2)
        # the positive root, of the pair q / n2, n0 / q, where q has no
        # cancellation: a power solve near it takes it as N's exact root
        q = -0.5 * (n1 + np.copysign(disc, n1))
        X = np.where(n0 == 0.0, -n1 / n2, np.where(n2 == 0.0, -n0 / n1,
                                                   np.maximum(q / n2, n0 / q)))
        # on (0, inf), split at the geometric mean of the magnitudes of S's roots
        nz = S != 0.0
        k_lo, k_hi = nz.argmax(0), S.shape[0] - 1 - nz[::-1].argmax(0)
        at = np.arange(d.size)
        scale = np.abs(S[k_lo, at] / S[k_hi, at]) ** (1.0 / (k_hi - k_lo))
    X = np.where(vn == 1, X, np.inf)
    L, U = np.where((n_low < 0) & (vn == 1), X, 0.0), np.where(n_low > 0, X, np.inf)
    split = np.where(np.isfinite(U), 0.5 * (L + U), np.where(
        L > 0.0, 2.0 * L, np.where(np.isfinite(scale) & (scale > 0.0), scale, 1.0)))
    c1, s_low = _sign_changes(_on_interval(S, L, split))
    c2, _ = _sign_changes(_on_interval(S, split, U))
    nice = (c1 <= 1) & (c2 <= 1) & (((n_low > 0) & (vn <= 1)) | ((n_low < 0) & (vn == 1)))
    concave = nice & (L == 0.0) & (s_low < 0) & (c1 + c2 == 0)
    rising = nice & (s_low > 0) & (c1 + c2 == 1)
    # N <= 0 throughout: the rate never rises, and P = 0 is the only candidate
    flat = (vn == 0) & (n_low <= 0)

    # the one root of S in (L, U), where m peaks: S falls through 0 there
    r = np.flatnonzero(rising)
    with np.errstate(divide="ignore"):
        yl = np.log(np.where(c1 == 1, L, split)[r])
        yh = np.log(np.where(c1 == 1, split, U)[r])

    def fun(y, i):
        val, der = _peval(S[:, r[i]], np.exp(y))
        return val, der * np.exp(y)

    peak = np.zeros(d.size)
    peak[r] = np.exp(newton(fun, np.where(np.isinf(yl), yh - 1.0, np.where(
        np.isinf(yh), yl + 1.0, 0.5 * (yl + yh))), yl, yh, 1e-14))
    # rows (problems, lo, hi, zero, hi is a root of N where finite): a
    # problem with more than one candidate gets a P = 0 row first, then its
    # branches by ascending x
    rows = [(concave, 0.0, U, False, True), (rising | flat, 0.0, 0.0, True, False),
            (rising, peak, U, False, True)]
    rows = [(np.flatnonzero(m), *r) for m, *r in rows]
    for e in np.flatnonzero(~(concave | rising | flat)):
        rows.append((np.array([e]), 0.0, 0.0, True, False))
        rows += [(np.array([e]), lo, hi, False, k) for lo, hi, k in _branches(N[:, e], S[:, e])]
    elem = np.concatenate([e for e, *_ in rows])
    order = np.argsort(elem, kind="stable")
    e = elem[order]
    xl, xr = (np.concatenate([np.broadcast_to(r[j], d.shape)[r[0]] for r in rows])[order]
              for j in (1, 2))
    zero, at_root = (np.concatenate([np.full(r[0].shape, r[j]) for r in rows])[order]
                     for j in (3, 4))

    # marginal rates at the branch ends: +inf, -inf or c*n1/(2 a0 b0) at x = 0+
    m0 = np.where(n0[e] > 0, np.inf, np.where(
        n0[e] < 0, -np.inf, c * n1[e] / (2.0 * a[0, e] * b[0, e])))
    m_lo = np.where(zero, -np.inf, np.where(xl > 0, _marginal(coef[:, e], c, xl), m0))
    # N > 0 on a branch, so its end at a root of N has marginal rate 0
    m_hi = np.where(zero, -np.inf, np.where(np.isfinite(xr), np.maximum(
        _marginal(coef[:, e], c, xr), 0.0), 0.0))
    # the rows whose branch ends at a root x_r of N, where the power solve
    # runs in the distance v = -ln(y_r - y) to that end (_stationary); and
    # per row (n_a, k) of N = n_a + d (k + n2 x): d = x - x_r and
    # N = (x - x_r)(n2 x - n0 / x_r) there, d = x and N = n0 + x (n1 + n2 x)
    # elsewhere
    at_root = at_root & np.isfinite(xr)
    with np.errstate(divide="ignore", invalid="ignore"):
        nterms = np.vstack([np.where(at_root, 0.0, n0[e]), np.where(at_root, -n0[e] / xr, n1[e])])
    return coef, e, xl, xr, at_root, m_lo, m_hi, nterms


class FixedRho:
    """Best powers of a batch of problems, each at its own shared (d, psi).

    g, d and psi hold one entry per (problem, node) element, n nodes per
    problem, which share d and psi. A branch is a maximal x-interval with
    N > 0 and S < 0, on which a multiplier has at most one stationary point
    m = lam. They are found once per problem, at g = 1 (_unit_structure):
    when N is positive near 0 with at most one positive root X, so that
    N > 0 on (L, U) = (0, X) or (X, inf), Descartes' rule on two pieces of
    (L, U) isolates S's roots there, and two shapes are certified: no root
    (concave: one branch from 0) or one root, where m peaks (one branch from
    it). When N <= 0 throughout there is no branch. Other problems, such as
    those whose m falls, rises and falls again, get their branches from
    np.roots. A node of gain g > 0 takes its problem's rows at x = a / g
    (a: x at g = 1), with m = g^2 m_1, N's coefficient of x^k times g^(k+1)
    and A's and B's times g^k; a node with g = 0 has one P = 0 row. An
    element with more than one candidate (the branches' stationary points
    and P = 0) keeps the one of largest rate - lam*P, or the one of the row
    it is held on. A row's power solve is _stationary's Newton iteration.
    The structure (coefficients, branches and their end values) is read-only
    once built. The rest is the state of one solve: each row keeps its
    response to its last multiplier and its last Newton solve in y, the
    start of its next (newton_start), and a hold restricts the rows powers
    may pick.
    """

    def __init__(self, g, d, psi, n: int, ch: ChannelParams, base: float):
        self.g, self.d, self.n, self.ch, self.base = g, d, n, ch, base
        self.c = 0.5 / math.log(base)
        p = np.arange(g.size) // n
        # rho1 = 0 exactly at the arc's ends, where cos(pi/2) leaves 6e-17
        rho2 = np.sin(psi[::n])
        rho1 = np.where(np.abs(rho2) == 1.0, 0.0, np.cos(psi[::n]))
        self.rho1, self.rho2 = rho1[p], rho2[p]
        coef, prob, al, ar, root, lo, hi, nt = _unit_structure(rho1, rho2, d[::n], ch, self.c)
        first = np.searchsorted(prob, np.arange(g.size // n))
        count = np.where(g > 0.0, np.diff(np.r_[first, prob.size])[p], 1)
        self.elem = e = np.repeat(np.arange(g.size), count)
        self.start = np.r_[0, np.cumsum(count)[:-1]]
        src = first[p[e]] + np.arange(e.size) - self.start[e]
        live = g[e] > 0.0
        ge = np.where(live, g[e], 1.0)
        self.coef = coef[:, p] * g ** np.array([1, 2, 3, 0, 1, 2, 0, 1, 2])[:, None]
        self.xl, self.xr = (np.where(live, x[src] / ge, 0.0) for x in (al, ar))
        self.m_lo, self.m_hi = (np.where(live, ge * (ge * m[src]), -np.inf) for m in (lo, hi))
        self.at_root = live & root[src]
        self._nterms = nt[:, src] * np.vstack([ge, ge * ge])

        # each row's multiplier, power and dP/dlam at its last response
        self._memo = (np.full(e.size, np.nan), np.zeros(e.size), np.zeros(e.size))
        # each row's last Newton solve: multiplier, y = ln P and slope
        self._last = np.full((3, e.size), np.nan)
        # the rows powers may pick; hold takes an element's other rows out
        self.pickable = np.ones(e.size, dtype=bool)

    def marginal(self, x, e=None) -> np.ndarray:
        """c*N / (2 x A B), the marginal rate dR/dP at x = sqrt(P), of elements e (all)."""
        return _marginal(self.coef if e is None else self.coef[:, e], self.c, x)

    def _stationary(self, rows: np.ndarray, lam: np.ndarray, y0: np.ndarray):
        """y = ln P with marginal rate lam on each row's branch, Newton from y0; and the
        slope d ln m / d y of each row's last Newton evaluation.

        A branch that ends at a root x_r of N has m proportional to x_r - x
        near that end, where ln m is log-singular in y. Its row's Newton
        iteration runs in the distance v = -ln(y_r - y) to that end instead,
        in which ln m is near linear, and N comes from x_r - x = x_r (1 -
        e^(-(y_r - y)/2)) with y_r - y = e^(-v), so a root near the end keeps
        its relative precision. Other rows run in y.
        """
        end = self.at_root[rows]
        with np.errstate(divide="ignore"):
            yl, yr = 2.0 * np.log(self.xl[rows]), 2.0 * np.log(self.xr[rows])
        slope = np.zeros(rows.size)

        def fun(z, i):
            # ln(m / lam) and its slope over z (v or y), -inf where N <= 0; each
            # coefficient is gathered where it is used, so few are held at once
            ri, e, li, co = rows[i], end[i], lam[i], self.coef
            el = self.elem[ri]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                t = np.exp(-z)  # y_r - y where e
                x = np.exp(0.5 * np.where(e, yr[i] - t, z))
                # d = x - x_r from t itself where e
                nv = self._nterms[0, ri] + np.where(e, self.xr[ri] * np.expm1(-0.5 * t), x) * (
                    self._nterms[1, ri] + co[2, el] * x)
                av, bv = co[3, el] + x * (co[4, el] + x * co[5, el]), co[6, el] + x * (
                    co[7, el] + x * co[8, el])
                dlog = x * ((co[4, el] + 2.0 * co[5, el] * x) / av
                            + (co[7, el] + 2.0 * co[8, el] * x) / bv)
                ratio = self.c * nv / (2.0 * li * x * av * bv)
                s = slope[i] = 0.5 * (x * (co[1, el] + 2.0 * co[2, el] * x) / nv - 1.0 - dlog)
                return (np.where(nv > 0.0, np.log(np.maximum(ratio, 0.0)), -np.inf),
                        np.where(e, t, 1.0) * s)

        # a start in y keeps 1e-3 from the branch ends; v has no finite upper
        # end, so a start in v needs only to lie inside the branch
        margin = np.minimum(1e-3, 0.25 * (yr - yl))
        y0 = np.where(end & (y0 > yl) & (y0 < yr), y0, np.clip(y0, yl + margin, yr - margin))
        with np.errstate(divide="ignore", invalid="ignore"):
            z0, zl = np.where(end, -np.log(yr - y0), y0), np.where(end, -np.log(yr - yl), yl)
        z = newton(fun, z0, zl, np.where(end, np.inf, yr), 1e-9)
        return np.where(end, yr - np.exp(-z), z), slope

    def hold(self, elem: np.ndarray, k: np.ndarray) -> None:
        """Hold each element elem on its k-th row: powers picks none of its other rows."""
        self.pickable[np.isin(self.elem, elem)] = False
        self.pickable[self.start[elem] + k] = True

    def powers(self, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Best power of every element under lam (one multiplier per problem), the
        row each element took and the row's dP/dlam. Each row keeps its response
        to its last multiplier, so only the rows whose multiplier changed are
        solved again, each from its last solve (newton_start). On a branch
        dP/dlam = P / (lam s), with s = d ln m / d ln P from the power solve's
        last Newton step; it is 0 at a branch end."""
        e = self.elem
        lr = lam[e // self.n]
        rows = np.flatnonzero(lr != self._memo[0])
        if rows.size:
            lm, m_lo = lr[rows], self.m_lo[rows]
            P = np.where(lm >= m_lo, self.xl[rows], self.xr[rows]) ** 2
            dP = np.zeros(rows.size)
            inner = (lm < m_lo) & (lm > self.m_hi[rows])
            if inner.any():
                i, li = rows[inner], lm[inner]
                y, s = self._stationary(i, li, newton_start(li, self._last[:, i], self.c))
                P[inner] = np.exp(y)
                dP[inner] = _dpower(P[inner], li, s)
                self._last[:, i] = li, y, s
            self._memo[0][rows], self._memo[1][rows], self._memo[2][rows] = lm, P, dP
        P, dP = self._memo[1], self._memo[2]
        if e.size == self.g.size:
            return P.copy(), e, dP.copy()
        # per element, the first row of largest c*ln(A/B) - lam*P (the rate up to a constant)
        fin = np.isfinite(P)
        x = np.sqrt(np.where(fin, P, 0.0))
        co = self.coef  # gathered a row at a time, as in _stationary
        score = np.where(fin, self.c * np.log((co[3, e] + x * (co[4, e] + x * co[5, e]))
                                              / (co[6, e] + x * (co[7, e] + x * co[8, e])))
                         - lr * np.where(fin, P, 0.0), np.inf)
        if not fin.all():
            # an unbounded power (lam = 0) scores its limit
            score[~fin] = self.top(e[~fin])
        score[~self.pickable] = -np.inf
        best = np.maximum.reduceat(score, self.start)[np.repeat(
            np.arange(self.start.size), np.diff(np.r_[self.start, e.size]))]
        pick = np.minimum.reduceat(np.where(score == best, np.arange(e.size), e.size), self.start)
        return P[pick], pick, dP[pick]

    def top(self, e: np.ndarray) -> np.ndarray:
        """The limit c*ln(a2 / b2) of c*ln(A/B) as P grows, of elements e with g > 0; +inf
        where rho1^2 = 1."""
        with np.errstate(divide="ignore"):
            return self.c * np.log(self.coef[5, e] / self.coef[8, e])

    def psi_terms(self, P: np.ndarray) -> tuple[np.ndarray, ...]:
        """R_psi, R_psipsi, R_Ppsi = c f_xpsi / (2x) and R_PP = c (x f_xx - f_x) / (4x^3) (not
        finite at x = sqrt(P) = 0) of every element at powers P, shaped like P."""
        x = np.sqrt(P.reshape(-1))
        fx, fxx, fp, fpp, fxp = arc_terms(self.g, x, np.arctan2(self.rho2, self.rho1),
                                          self.d, self.ch)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = (fp, fpp, fxp / (2.0 * x), (x * fxx - fx) / (4.0 * x ** 3))
        return tuple(self.c * t.reshape(P.shape) for t in terms)
