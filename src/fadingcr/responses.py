"""Exact per-node best responses to a power multiplier.

A node maximizes R(P) - lam*P over P >= 0 (Goldsmith & Varaiya, IEEE Trans.
IT 1997; Palomar & Fonollosa, IEEE Trans. SP 2005). With x = sqrt(P) the
rate of rate_core._rate_kernel is c*ln(A/B) plus a constant, c =
1/(2 ln base), where A and B are quadratics in x. So the marginal rate
dR/dP = c*N / (2T) is rational, with N = A'B - AB' of degree 2 and
T = x*A*B of degree 5, and it falls where S = N'T - NT' < 0. Every solve
here is a bracketed Newton iteration in ln P or in psi: nothing is tabled,
no power is capped, and the caller evaluates the rates. FixedRho and
AdaptiveRho each serve one solve: they memoize their responses by
multiplier and start every Newton iteration from earlier solves.
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


def arc_psi(g, x, d: float, ch: ChannelParams, psi=0.0):
    """psi in [-pi/2, pi/2] maximizing the rate on the arc at P = x^2, from the start psi.

    The psi-derivative is 2gxu*B >= 0 at -pi/2 and its negative at pi/2
    (u = sqrt(Q - d)), and the arc rate is unimodal in psi, so a bracketed
    Newton solve of the first-order condition finds the maximum.
    """
    g, x = np.broadcast_arrays(np.asarray(g, dtype=float), np.asarray(x, dtype=float))
    shape = g.shape
    g, x = g.reshape(-1), x.reshape(-1)

    def fun(p, i):
        t = arc_terms(g[i], x[i], p, d, ch)
        return t[2], t[3]

    return newton(fun, np.broadcast_to(np.asarray(psi, dtype=float), shape),
                  -0.5 * math.pi, 0.5 * math.pi, 1e-15)


def arc_marginal(g, x, d: float, ch: ChannelParams, base: float):
    """Marginal rate dR/dP at P = x^2 > 0 with each node at its psi*(P).

    By the envelope theorem this is the slope of the rate maximized on the
    arc, c*f_x / (2x) at psi*(P).
    """
    fx = arc_terms(g, x, arc_psi(g, x, d, ch), d, ch)[0]
    return 0.5 / math.log(base) * fx / (2.0 * x)


class AdaptiveRho:
    """Best powers of one problem's nodes, each at its own psi*(P), for one solve.

    By the envelope theorem the maximized rate R*(P) has slope
    dR/dP(P, psi*(P)), which falls in P, so a node's power solves
    slope = lam by a Newton iteration over y = ln P with the reduced
    curvature f_xx - f_xpsi^2 / f_psipsi, and each of its steps solves
    psi*(P) by arc_psi. The marginal rate at P = 0+ is unbounded when
    g*sqrt(Q - d) > 0 and c*g^2/(Q + sigma_z2) otherwise; at lam = 0 every
    node with g > 0 takes unbounded power.

    Each node keeps its last solve: multiplier, y, slope d ln m / d y and
    psi*. A power solve starts from the first-order prediction
    y + (ln lam' - ln lam) / slope where that moves y by less than 1, and
    from ln(c / lam) otherwise; every psi solve starts from the node's
    last psi*. The start thus depends on the multipliers seen before, so
    each multiplier's powers, psi* and dP/dlam = P / (lam slope) are kept
    and a visited multiplier reproduces them bit for bit.
    """

    def __init__(self, g: np.ndarray, d: float, ch: ChannelParams, base: float):
        self.g, self.d, self.ch, self.base = g, d, ch, base
        self.c = 0.5 / math.log(base)
        self.m0 = np.where(g * math.sqrt(ch.Q - d) > 0.0, np.inf,
                           self.c * g * g / (ch.Q + ch.sigma_z2))
        # each node's last interior solve: multiplier, y = ln P, slope, psi*
        self._lam, self._y = np.full(g.size, np.nan), np.zeros(g.size)
        self._slope, self._psi = np.zeros(g.size), np.zeros(g.size)
        self._memo: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def powers(self, lam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Best power, psi*(P) and dP/dlam of every node under multiplier lam (psi and
        dP/dlam are 0 where P is 0 or inf)."""
        if lam in self._memo:
            return self._memo[lam]
        g, c = self.g, self.c
        psi, dP = np.zeros(g.size), np.zeros(g.size)
        if lam <= 0.0:
            self._memo[lam] = np.where(g > 0.0, np.inf, 0.0), psi, dP
            return self._memo[lam]
        P, live = np.zeros(g.size), np.flatnonzero(lam < self.m0)
        if live.size:
            gl, ps, slope = g[live], self._psi[live], np.zeros(live.size)

            def fun(y, i):
                # ln(m* / lam) over y = ln P, m* = c f_x / (2x)
                x = np.exp(0.5 * y)
                ps[i] = arc_psi(gl[i], x, self.d, self.ch, ps[i])
                fx, fxx, _, fpp, fxp = arc_terms(gl[i], x, ps[i], self.d, self.ch)
                fxx = fxx - np.where(fpp < 0.0, fxp * fxp / np.where(fpp < 0.0, fpp, -1.0), 0.0)
                with np.errstate(divide="ignore", invalid="ignore"):
                    slope[i] = 0.5 * (x * fxx / fx - 1.0)
                    return (np.where(fx > 0.0, np.log(np.maximum(c * fx / (2.0 * lam * x), 0.0)),
                                     -np.inf), slope[i])

            cold = np.full(live.size, math.log(c / lam))
            with np.errstate(divide="ignore", invalid="ignore"):
                pred = self._y[live] + (math.log(lam) - np.log(self._lam[live])) / self._slope[live]
            y = newton(fun, np.where(np.abs(pred - self._y[live]) < 1.0, pred, cold),
                       -np.inf, np.inf, 1e-9)
            P[live] = np.exp(y)
            # psi* at the final power, one short Newton solve from the last step's
            psi[live] = ps = arc_psi(gl, np.sqrt(P[live]), self.d, self.ch, ps)
            dP[live] = _dpower(P[live], lam, slope)
            self._lam[live], self._y[live], self._slope[live], self._psi[live] = lam, y, slope, ps
        self._memo[lam] = P, psi, dP
        return P, psi, dP

    def psi(self, P: np.ndarray) -> np.ndarray:
        """psi*(P) of every node at powers P, each solve from the node's last psi*."""
        inner = (P > 0.0) & np.isfinite(P)
        return np.where(inner, arc_psi(self.g, np.sqrt(np.where(inner, P, 0.0)), self.d,
                                       self.ch, self._psi), 0.0)


def _pmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Products of polynomials, coefficients of x**k along the last axis."""
    out = np.zeros(p.shape[:-1] + (p.shape[-1] + q.shape[-1] - 1,))
    for k in range(p.shape[-1]):
        out[..., k:k + q.shape[-1]] += p[..., k:k + 1] * q
    return out


def _pder(p: np.ndarray) -> np.ndarray:
    return p[..., 1:] * np.arange(1, p.shape[-1])


def _peval(p: np.ndarray, x) -> tuple[np.ndarray, np.ndarray]:
    """Values and derivatives of polynomials p (last axis low to high) at x."""
    val, der = np.zeros(np.shape(x)), np.zeros(np.shape(x))
    for k in range(p.shape[-1] - 1, -1, -1):
        der = der * x + val
        val = val * x + p[..., k]
    return val, der


def _sign_changes(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign changes of each coefficient sequence, and the sign of its lowest nonzero term."""
    count, prev, low = np.zeros(p.shape[:-1], dtype=int), np.zeros(p.shape[:-1]), None
    for k in range(p.shape[-1]):
        s = np.sign(p[..., k])
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
    deg = p.shape[-1] - 1
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    fin = np.isfinite(hi)[..., None]
    a, b = lo[..., None], np.where(fin[..., 0], hi, np.where(lo > 0.0, lo, 1.0))[..., None]
    zero = np.zeros(lo.shape + (1,))
    q = p[..., deg:]
    for k in range(deg - 1, -1, -1):
        q = np.concatenate([a * q, zero], -1) + np.concatenate([zero, b * q], -1)
        binom = np.array([math.comb(deg - k, j) for j in range(deg - k + 1)], dtype=float)
        q = q + p[..., k:k + 1] * np.where(fin, binom, np.eye(1, deg - k + 1)[0])
    return q


def _branches(N: np.ndarray, S: np.ndarray) -> list[tuple[float, float]]:
    """Branches of one element, from all positive roots of N and S (np.roots)."""
    pts = set()
    for p in (N, S):
        if p.any():
            pts.update(float(q.real) for q in np.roots(p[::-1])
                       if q.real > 0 and abs(q.imag) <= 1e-9 * abs(q))
    edges = [0.0, *sorted(pts), math.inf]
    out: list[tuple[float, float]] = []
    for lo, hi in zip(edges, edges[1:]):
        probe = (1.0 if math.isinf(hi) else 0.5 * hi) if lo == 0.0 else (
            2.0 * lo if math.isinf(hi) else 0.5 * (lo + hi))
        if _peval(N, probe)[0] > 0.0 and _peval(S, probe)[0] < 0.0:
            if out and out[-1][1] == lo:
                lo = out.pop()[0]
            out.append((lo, hi))
    return out


class FixedRho:
    """Best powers of a batch of problems, each at its own shared (d, psi).

    g, d and psi hold one entry per (problem, node) element, n nodes per
    problem. A branch is a maximal x-interval with N > 0 and S < 0, on which
    a multiplier has at most one stationary point m = lam. They are found
    once per element: when N is positive near 0 with at most one positive
    root X, so that N > 0 on (L, U) = (0, X) or (X, inf), Descartes' rule on
    two pieces of (L, U) isolates S's roots there, and two shapes are
    certified: no root (concave: one branch from 0) or one root, where m
    peaks (one branch from it). When N <= 0 throughout there is no branch.
    Other elements, such as those whose m falls, rises and falls again, get
    their branches from np.roots. An element with more than one candidate
    (the branches' stationary points and P = 0) keeps the one of largest
    rate - lam*P, or the one of the row it is held on.
    """

    def __init__(self, g, d, psi, n: int, ch: ChannelParams, base: float):
        self.g, self.d, self.n, self.ch, self.base = g, d, n, ch, base
        self.c = 0.5 / math.log(base)
        # rho1 = 0 exactly at the arc's ends, where cos(pi/2) leaves 6e-17
        self.rho2 = np.sin(psi)
        self.rho1 = np.where(np.abs(self.rho2) == 1.0, 0.0, np.cos(psi))
        Q, sz = ch.Q, ch.sigma_z2
        u, v, k = np.sqrt(Q - d), np.sqrt(d), 1.0 - self.rho1 * self.rho1
        # N, A and B, coefficients of x**0, x**1, x**2
        coef = np.stack([2.0 * g * u * (self.rho1 * (d + sz) - self.rho2 * u * v),
                         2.0 * g * g * (d + sz - k * (Q + sz)),
                         2.0 * g ** 3 * self.rho1 * (self.rho1 * self.rho2 * v - k * u),
                         np.full_like(g, Q + sz), 2.0 * g * (self.rho1 * u + self.rho2 * v),
                         g * g, d + sz, 2.0 * g * self.rho2 * v, k * g * g], -1)
        N, a, b = coef[:, :3], coef[:, 3:6], coef[:, 6:]
        self.coef = coef.T.copy()
        T = np.concatenate([np.zeros(g.shape + (1,)), _pmul(a, b)], -1)
        S = _pmul(_pder(N), T) - _pmul(N, _pder(T))
        del T, u, v, k

        n0, n1, n2 = N.T
        vn, n_low = _sign_changes(N)
        with np.errstate(divide="ignore", invalid="ignore"):
            disc = np.sqrt(n1 * n1 - 4.0 * n0 * n2)
            # the positive root, in the form without cancellation for each sign of n0
            X = np.where(n0 == 0.0, -n1 / n2, 2.0 * n0 / np.where(n0 > 0.0, disc - n1, -n1 - disc))
            # on (0, inf), split at the geometric mean of the magnitudes of S's roots
            nz = S != 0.0
            k_lo, k_hi = nz.argmax(-1), S.shape[-1] - 1 - nz[:, ::-1].argmax(-1)
            at = np.arange(g.size)
            scale = np.abs(S[at, k_lo] / S[at, k_hi]) ** (1.0 / (k_hi - k_lo))
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
            val, der = _peval(S[r[i]], np.exp(y))
            return val, der * np.exp(y)

        peak = np.zeros(g.size)
        peak[r] = np.exp(newton(fun, np.where(np.isinf(yl), yh - 1.0, np.where(
            np.isinf(yh), yl + 1.0, 0.5 * (yl + yh))), yl, yh, 1e-14))
        # rows (elements, lo, hi, zero): an element with more than one
        # candidate gets a P = 0 row first, then its branches by ascending x
        rows = [(concave, 0.0, U, False), (rising | flat, 0.0, 0.0, True),
                (rising, peak, U, False)]
        rows = [(np.flatnonzero(m), lo, hi, z) for m, lo, hi, z in rows]
        for e in np.flatnonzero(~(concave | rising | flat)):
            rows.append((np.array([e]), 0.0, 0.0, True))
            rows += [(np.array([e]), lo, hi, False) for lo, hi in _branches(N[e], S[e])]
        elem = np.concatenate([e for e, *_ in rows])
        order = np.argsort(elem, kind="stable")
        self.elem = elem[order]
        self.xl, self.xr = (np.concatenate([np.broadcast_to(r[j], g.shape)[r[0]]
                                            for r in rows])[order] for j in (1, 2))
        zero = np.concatenate([np.full(e.shape, z) for e, *_, z in rows])[order]
        self.simple = self.elem.size == g.size
        self.start = np.flatnonzero(np.r_[True, self.elem[1:] != self.elem[:-1]])

        # marginal rates at the branch ends: +inf, -inf or c*n1/(2 a0 b0) at x = 0+
        e = self.elem
        m0 = np.where(n0[e] > 0, np.inf, np.where(
            n0[e] < 0, -np.inf, self.c * n1[e] / (2.0 * a[e, 0] * b[e, 0])))
        self.m_lo = np.where(zero, -np.inf, np.where(self.xl > 0, self.marginal(self.xl, e), m0))
        # N > 0 on a branch, so its end at a root of N has marginal rate 0
        self.m_hi = np.where(zero, -np.inf, np.where(np.isfinite(self.xr), np.maximum(
            self.marginal(self.xr, e), 0.0), 0.0))
        # each row's multiplier, power and dP/dlam at its last solve
        self._memo = (np.full(e.size, np.nan), np.zeros(e.size), np.zeros(e.size))
        # each row's Newton start: intercept and slope in ln lam, anchor solution
        self._ref = (np.full(e.size, np.nan), np.zeros(e.size), np.full(e.size, np.nan))
        # the rows powers may pick; hold takes an element's other rows out
        self.pickable = np.ones(e.size, dtype=bool)

    def marginal(self, x, e=None) -> np.ndarray:
        """c*N / (2 x A B), the marginal rate dR/dP at x = sqrt(P), of elements e (all)."""
        n0, n1, n2, a0, a1, a2, b0, b1, b2 = self.coef if e is None else self.coef[:, e]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return self.c * (n0 + x * (n1 + x * n2)) / (
                2.0 * x * (a0 + x * (a1 + x * a2)) * (b0 + x * (b1 + x * b2)))

    def _stationary(self, rows: np.ndarray, lam: np.ndarray, y0: np.ndarray):
        """y = ln P with marginal rate lam on each row's branch, Newton from y0; and the
        slope d ln m / d y of each row's last Newton evaluation."""
        coef = self.coef[:, self.elem[rows]]
        with np.errstate(divide="ignore"):
            yl, yr = 2.0 * np.log(self.xl[rows]), 2.0 * np.log(self.xr[rows])
        slope = np.zeros(rows.size)

        def fun(y, i):
            # ln(m / lam) and its slope over y, -inf where N <= 0
            n0, n1, n2, a0, a1, a2, b0, b1, b2 = coef[:, i]
            x = np.exp(0.5 * y)
            nv, av, bv = n0 + x * (n1 + x * n2), a0 + x * (a1 + x * a2), b0 + x * (b1 + x * b2)
            dlog = x * ((a1 + 2.0 * a2 * x) / av + (b1 + 2.0 * b2 * x) / bv)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = self.c * nv / (2.0 * lam[i] * x * av * bv)
                slope[i] = 0.5 * (x * (n1 + 2.0 * n2 * x) / nv - 1.0 - dlog)
                return np.where(nv > 0.0, np.log(np.maximum(ratio, 0.0)), -np.inf), slope[i]

        margin = np.minimum(1e-3, 0.25 * (yr - yl))
        return newton(fun, np.clip(y0, yl + margin, yr - margin), yl, yr, 1e-9), slope

    def hold(self, elem: np.ndarray, k: np.ndarray) -> None:
        """Hold each element elem on its k-th row: powers picks none of its other rows."""
        self.pickable[np.isin(self.elem, elem)] = False
        self.pickable[self.start[elem] + k] = True

    def anchor(self, lam: np.ndarray) -> None:
        """Solve every branch once at lam (one multiplier per problem), so that later
        solves start from the first-order prediction y + (ln lam' - ln lam) / slope."""
        lr = lam[self.elem // self.n]
        rows = np.flatnonzero((lr < self.m_lo) & (lr > self.m_hi))
        y, slope = self._stationary(rows, lr[rows], np.log(self.c / lr[rows]))
        with np.errstate(divide="ignore"):
            e_ref = 1.0 / slope
        ok = np.isfinite(e_ref)
        r = rows[ok]
        self._ref[0][r] = y[ok] - e_ref[ok] * np.log(lr[r])
        self._ref[1][r], self._ref[2][r] = e_ref[ok], y[ok]

    def powers(self, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Best power of every element under lam (one multiplier per problem), the
        row each element took and the row's dP/dlam. A power is a function of its
        multiplier, so only the rows whose multiplier changed are solved again. On
        a branch dP/dlam = P / (lam s), with s = d ln m / d ln P from the power
        solve's last Newton step; it is 0 at a branch end."""
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
                pred = self._ref[0][i] + self._ref[1][i] * np.log(li)
                # the prediction where it moves the anchor solution by < 1
                y0 = np.where(np.abs(pred - self._ref[2][i]) < 1.0, pred, np.log(self.c / li))
                y, s = self._stationary(i, li, y0)
                P[inner] = np.exp(y)
                dP[inner] = _dpower(P[inner], li, s)
            self._memo[0][rows], self._memo[1][rows], self._memo[2][rows] = lm, P, dP
        P, dP = self._memo[1], self._memo[2]
        if self.simple:
            return P.copy(), e, dP.copy()
        # per element, the first row of largest c*ln(A/B) - lam*P (the rate up to a constant)
        fin = np.isfinite(P)
        x = np.sqrt(np.where(fin, P, 0.0))
        _, _, _, a0, a1, a2, b0, b1, b2 = self.coef[:, e]
        score = np.where(fin, self.c * np.log((a0 + x * (a1 + x * a2)) / (b0 + x * (b1 + x * b2)))
                         - lr * np.where(fin, P, 0.0), np.inf)
        score[~self.pickable] = -np.inf
        best = np.maximum.reduceat(score, self.start)[np.repeat(
            np.arange(self.start.size), np.diff(np.r_[self.start, e.size]))]
        pick = np.minimum.reduceat(np.where(score == best, np.arange(e.size), e.size), self.start)
        return P[pick], pick, dP[pick]

    def slope(self, P: np.ndarray) -> np.ndarray:
        """dR/dpsi of every element at powers P, shaped like P."""
        psi = np.arctan2(self.rho2, self.rho1)
        return self.c * arc_terms(self.g, np.sqrt(P.reshape(-1)), psi, self.d,
                                  self.ch)[2].reshape(P.shape)
