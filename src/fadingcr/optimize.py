"""Ergodic rate maximization and trade-off frontiers.

Power allocation across fading states is solved by Lagrangian decomposition:
for a multiplier lam each node maximizes rate - lam*P by grid search plus
golden-section refinement, and lam is bisected to meet the average-power
budget. The per-node rho search exploits that the rate is maximized on the
disk boundary with rho1 = +sqrt(1 - rho2^2) whenever g^2 P > 0, so the rho
dimension reduces to rho2 in [-1, 1]; degenerate flat cases are
canonicalized to (0, 0). All searches are deterministic (fixed grids, fixed
iteration counts, first-index tie-breaks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq, minimize

from .ergodic import make_rule
from .model import ChannelParams, ConfigError, FadingModel, PerStatePolicy, in_disk
from .rate_core import _clamp0, _rate_kernel

MODES = ("fixed-rho", "adaptive-rho")

_GOLD = (math.sqrt(5.0) - 1.0) / 2.0

#: Budget-matching tolerance of the multiplier bisection, relative to the budget.
BUDGET_TOL = 1e-9

#: Relative budget mismatch beyond which a duality-gap fallback is attempted.
GAP_WARN = 1e-3

#: Default distortion grid: 50 log-spaced values in [1e-3 Q, Q].
DEFAULT_GRID_POINTS = 50
DEFAULT_GRID_FLOOR = 1e-3

#: Power cap and floor of the min_power bracketing.
POWER_CAP = float(2 ** 16)
POWER_FLOOR = 1e-12


class UnreachableError(RuntimeError):
    """No budget up to the cap supports the requested (rate, distortion) pair."""


def _rates(g, P, rho1, rho2, d: float, ch: ChannelParams, base: float):
    """Per-state rate, broadcasting over array arguments."""
    k11 = _clamp0(ch.Q - d)
    return _rate_kernel(g, P, k11, d, rho1, rho2, ch.sigma_z2, base)


def _golden_max(f: Callable, a, b, iters: int):
    """Vectorized golden-section maximization of f on [a, b]; returns (x*, f(x*))."""
    a = np.asarray(a, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    inv = 1.0 - _GOLD
    x1 = a + inv * (b - a)
    x2 = a + _GOLD * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        left = f1 >= f2
        b = np.where(left, x2, b)
        a = np.where(left, a, x1)
        keep_x = np.where(left, x1, x2)
        keep_f = np.where(left, f1, f2)
        x1 = np.where(left, a + inv * (b - a), keep_x)
        x2 = np.where(left, keep_x, a + _GOLD * (b - a))
        probe = np.where(left, x1, x2)
        fp = f(probe)
        f1 = np.where(left, fp, keep_f)
        f2 = np.where(left, keep_f, fp)
    pick1 = f1 >= f2
    return np.where(pick1, x1, x2), np.where(pick1, f1, f2)



def _boundary_rho1(rho2):
    """Largest rho1 with rho1^2 + rho2^2 <= 1 that also holds in floating point."""
    rho2 = np.asarray(rho2, dtype=float)
    r1 = np.sqrt(np.maximum(1.0 - rho2 * rho2, 0.0))
    for _ in range(3):
        over = r1 * r1 + rho2 * rho2 > 1.0
        if not np.any(over):
            break
        r1 = np.where(over, np.nextafter(r1, 0.0), r1)
    return r1 if r1.ndim else float(r1)


def _into_disk(r1: float, r2: float) -> tuple[float, float]:
    """Shave (r1, r2) toward zero by ulps until CodingParams accepts the pair."""
    while not in_disk(r1, r2):
        if abs(r1) >= abs(r2):
            r1 = math.nextafter(r1, 0.0)
        else:
            r2 = math.nextafter(r2, 0.0)
    return r1, r2


def _power_candidates(budget: float, n: int = 64) -> np.ndarray:
    """Geometric power grid over [0, 8*budget] including both endpoints."""
    if budget <= 0.0:
        return np.array([0.0])
    pmax = 8.0 * budget
    return np.concatenate(([0.0], np.geomspace(pmax * 1e-6, pmax, n - 1)))


@dataclass
class _Response:
    """Per-node best response to a multiplier: rates, powers and rho pair."""

    value: np.ndarray
    power: np.ndarray
    rho1: np.ndarray
    rho2: np.ndarray


@dataclass(frozen=True)
class RateSolution:
    """Outcome of maximize_rate: primal rate, achieving policy, feasibility."""

    rate: float
    policy: PerStatePolicy
    feasible: bool
    mode: str
    d: float
    lam: float
    power: float
    per_node_kappa: tuple[bool, ...]
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class FrontierPoint:
    """A (D, R) point of the trade-off region with the policy achieving it."""

    D: float
    R: float
    policy: PerStatePolicy
    d_used: float
    mode: str


@dataclass(frozen=True)
class Frontier:
    """Envelope points of the rate-distortion frontier, D ascending."""

    points: tuple[FrontierPoint, ...]
    envelope: bool = True

    def distortions(self) -> list[float]:
        return [p.D for p in self.points]

    def rates(self) -> list[float]:
        return [p.R for p in self.points]

    def evaluate(self, D: float) -> float:
        """Piecewise-linear envelope value at distortion D (inside the spanned range)."""
        if not self.points:
            raise ValueError("empty frontier")
        ds, rs = self.distortions(), self.rates()
        if D < ds[0] - 1e-12 or D > ds[-1] + 1e-12:
            raise ValueError(f"D={D} outside the frontier range [{ds[0]}, {ds[-1]}]")
        return float(np.interp(D, ds, rs))


def optimize_rho_per_state(g: float, P: float, d: float, ch: ChannelParams,
                           base: float = 2.0, grid: int = 64) -> tuple[float, float, float]:
    """Maximize the per-state rate over the closed disk rho1^2 + rho2^2 <= 1.

    Polar coarse grid plus Nelder-Mead refinement (r projected into [0, 1]),
    with a boundary line search as an extra start; ties within 1e-10 prefer
    the silent pair (0, 0).
    """
    if not (ch.d_min <= d <= ch.Q):
        raise ConfigError(f"d={d} outside [{ch.d_min:g}, {ch.Q}]")

    def rate_of(rho1, rho2):
        return _rates(g, P, rho1, rho2, d, ch, base)

    r = np.linspace(0.0, 1.0, grid)
    theta = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    vals = rate_of(rr * np.cos(tt), rr * np.sin(tt))
    flat = int(np.argmax(vals))
    seeds = [(float(rr.ravel()[flat]), float(tt.ravel()[flat]))]

    # boundary line search: rho1 = cos(psi) >= 0, rho2 = sin(psi)
    psi = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 257)
    bvals = rate_of(np.cos(psi), np.sin(psi))
    k = int(np.argmax(bvals))
    lo, hi = psi[max(k - 1, 0)], psi[min(k + 1, psi.size - 1)]
    pstar, _ = _golden_max(lambda p: rate_of(np.cos(p), np.sin(p)),
                           np.array([lo]), np.array([hi]), 70)
    seeds.append((1.0, float(pstar[0]) % (2.0 * math.pi)))

    def neg(x):
        rc = min(max(x[0], 0.0), 1.0)
        return -float(rate_of(rc * math.cos(x[1]), rc * math.sin(x[1])))

    best_val, best_rho = -math.inf, (0.0, 0.0)
    for r0, t0 in seeds:
        res = minimize(neg, x0=np.array([r0, t0]), method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 600})
        rc = min(max(res.x[0], 0.0), 1.0)
        cand = (rc * math.cos(res.x[1]), rc * math.sin(res.x[1]))
        val = float(rate_of(*cand))
        if val > best_val:
            best_val, best_rho = val, cand

    silent = float(rate_of(0.0, 0.0))
    if silent >= best_val - 1e-10:
        return 0.0, 0.0, silent
    return (*_into_disk(*best_rho), best_val)


#: Budget-matching tolerance of the bisection; residual slack is closed by top-up.
BISECT_TOL = 1e-6


def _dual_solve(respond: Callable[[float], _Response], weights: np.ndarray,
                budget: float, hint: tuple[float, float] | None = None,
                tol: float = BISECT_TOL, gap_fallback: bool = True
                ) -> tuple[_Response, float, tuple[float, float], tuple[str, ...]]:
    """Bisection on the power multiplier; returns a budget-feasible response.

    hint is a (lo, hi) multiplier bracket from a nearby solve; the returned
    bracket can seed the next one.
    """
    warnings: list[str] = []

    def power_of(resp: _Response) -> float:
        return float(weights @ resp.power)

    resp0 = respond(0.0)
    if power_of(resp0) <= budget * (1.0 + BUDGET_TOL):
        return resp0, 0.0, (0.0, 0.0), ()

    lo, hi = (0.0, 1.0) if hint is None or hint[1] <= 0.0 else hint
    resp_hi = respond(hi)
    for _ in range(80):
        if power_of(resp_hi) <= budget:
            break
        lo, hi = hi, 2.0 * hi
        resp_hi = respond(hi)
    while lo > 0.0:
        resp_lo = respond(lo)
        if power_of(resp_lo) > budget:
            break
        hi, resp_hi = lo, resp_lo
        lo = 0.0 if lo < 1e-12 else lo / 2.0
    p_hi = power_of(resp_hi)

    for _ in range(70):
        if abs(p_hi - budget) <= tol * budget or hi - lo <= 1e-9 * hi:
            break
        mid = 0.5 * (lo + hi)
        resp_mid = respond(mid)
        p_mid = power_of(resp_mid)
        if p_mid <= budget:
            hi, resp_hi, p_hi = mid, resp_mid, p_mid
        else:
            lo = mid

    if gap_fallback and abs(p_hi - budget) > GAP_WARN * budget:
        # non-concave subproblem: fine multiplier grid, best feasible primal kept
        warnings.append(
            f"duality gap: primal power {p_hi:.6g} vs budget {budget:.6g} at lam={hi:.6g}")
        best_val = float(weights @ resp_hi.value)
        for lam in np.geomspace(max(hi * 0.25, 1e-12), hi * 4.0, 200):
            cand = respond(float(lam))
            if power_of(cand) <= budget * (1.0 + BUDGET_TOL):
                v = float(weights @ cand.value)
                if v > best_val:
                    best_val, resp_hi, hi = v, cand, float(lam)
        lo = hi * 0.5

    return resp_hi, hi, (lo, hi), tuple(warnings)


def _top_up(resp: _Response, weights: np.ndarray, budget: float, lam: float,
            rebuild: Callable) -> _Response:
    """Spend residual budget slack uniformly on the powered nodes.

    At the dual optimum every powered node has marginal rate lam > 0, so the
    uniform increment raises the rate by ~lam*slack and the remaining
    suboptimality is second order in the slack.
    """
    if lam <= 0.0:
        return resp
    slack = budget - float(weights @ resp.power)
    if slack <= 0.0:
        return resp
    active = resp.power > 0.0
    power = resp.power.copy()
    w_active = float(weights[active].sum())
    if w_active > 0.0:
        power[active] += slack / w_active
    else:
        gains = rebuild(np.where(weights > 0, slack / weights, 0.0), resp.rho1, resp.rho2)
        i = int(np.argmax(gains - resp.value))
        if gains[i] <= resp.value[i]:
            return resp
        power[i] = slack / weights[i]
    cand = _Response(rebuild(power, resp.rho1, resp.rho2), power, resp.rho1, resp.rho2)
    if float(weights @ cand.value) >= float(weights @ resp.value):
        return cand
    return resp


def _finalize(respond_full: Callable[[float], _Response], weights: np.ndarray,
              budget: float, lam: float, rebuild: Callable) -> tuple[_Response, float]:
    """Full-polish response at lam, escalate lam until the budget holds, top up slack."""
    resp = respond_full(lam)
    for k in range(60):
        if budget <= 0 or float(weights @ resp.power) <= budget * (1.0 + BUDGET_TOL):
            break
        lam = (lam if lam > 0 else 1e-12) * (1.0 + 1e-7 * 2.0 ** k)
        resp = respond_full(lam)
    return _top_up(resp, weights, budget, lam, rebuild), lam


def _fixed_response(g: np.ndarray, p_cands: np.ndarray, d: float, ch: ChannelParams,
                    base: float, rho1: float, rho2: float, table: np.ndarray,
                    lam: float, polish: int) -> _Response:
    """Best power per node at shared (rho1, rho2) under multiplier lam."""
    score = table - lam * p_cands[None, :]
    idx = np.argmax(score, axis=1)
    rows = np.arange(g.size)
    p_best = p_cands[idx]
    v_best = table[rows, idx]
    if polish > 0 and p_cands.size > 1:
        lo = p_cands[np.maximum(idx - 1, 0)]
        hi = p_cands[np.minimum(idx + 1, p_cands.size - 1)]
        p_ref, s_ref = _golden_max(
            lambda P: _rates(g, P, rho1, rho2, d, ch, base) - lam * P, lo, hi, polish)
        better = s_ref > score[rows, idx]
        p_best = np.where(better, p_ref, p_best)
        v_best = np.where(better, _rates(g, p_best, rho1, rho2, d, ch, base), v_best)
    return _Response(v_best, p_best, np.full(g.size, rho1), np.full(g.size, rho2))


def _adaptive_response(g: np.ndarray, p_cands: np.ndarray, d: float, ch: ChannelParams,
                       base: float, table3: np.ndarray, rho2_grid: np.ndarray,
                       lam: float, polish: int, rounds: int) -> _Response:
    """Best (P, rho2) per node under multiplier lam, rho1 on the disk boundary."""
    n, m, k = table3.shape
    score = table3 - lam * p_cands[None, :, None]
    idx = np.argmax(score.reshape(n, m * k), axis=1)
    ip, ir = np.divmod(idx, k)
    rows = np.arange(n)
    p_best = p_cands[ip]
    r2 = rho2_grid[ir]
    r1 = _boundary_rho1(r2)
    s_best = score.reshape(n, m * k)[rows, idx]
    if polish > 0 and m > 1:
        lo = p_cands[np.maximum(ip - 1, 0)]
        hi = p_cands[np.minimum(ip + 1, m - 1)]
        r2lo = rho2_grid[np.maximum(ir - 1, 0)]
        r2hi = rho2_grid[np.minimum(ir + 1, k - 1)]
        for _ in range(max(rounds, 1)):
            p_ref, s_ref = _golden_max(
                lambda P: _rates(g, P, r1, r2, d, ch, base) - lam * P, lo, hi, polish)
            upd = s_ref > s_best
            p_best = np.where(upd, p_ref, p_best)
            s_best = np.where(upd, s_ref, s_best)
            if rounds == 0:
                break

            def over_rho2(r2x):
                r1x = _boundary_rho1(r2x)
                return _rates(g, p_best, r1x, r2x, d, ch, base) - lam * p_best

            r2_ref, s_ref2 = _golden_max(over_rho2, r2lo, r2hi, polish)
            upd = s_ref2 > s_best
            r2 = np.where(upd, r2_ref, r2)
            r1 = _boundary_rho1(r2)
            s_best = np.where(upd, s_ref2, s_best)
    v_best = s_best + lam * p_best
    return _Response(v_best, p_best, r1, r2)


def _solve_fixed(g, w, p_cands, d, budget, ch, base):
    """Shared-(rho1, rho2) mode: coarse rho2 scan, then golden refinement of the best basins."""
    rho2_grid = np.linspace(-1.0, 1.0, 49)
    bracket_hint: dict[str, tuple[float, float] | None] = {"value": None}

    def dual_at(rho2: float, polish: int, tol: float = BISECT_TOL,
                gap_fallback: bool = True):
        rho1 = _boundary_rho1(rho2)
        table = _rates(g[:, None], p_cands[None, :], rho1, rho2, d, ch, base)
        resp, lam, bracket, warns = _dual_solve(
            lambda lam_: _fixed_response(g, p_cands, d, ch, base, rho1, rho2,
                                         table, lam_, polish),
            w, budget, hint=bracket_hint["value"], tol=tol, gap_fallback=gap_fallback)
        # widened so the next solve's multiplier usually falls inside
        bracket_hint["value"] = (bracket[0] * 0.997, bracket[1] * 1.003)
        return resp, lam, warns, rho1, rho2, table

    def value_at(rho2: float, polish: int, tol: float = BISECT_TOL) -> float:
        # the top-up makes the value smooth in rho2 despite the loose bisection
        resp, lam, _, rho1, _, _ = dual_at(rho2, polish, tol, gap_fallback=False)
        resp = _top_up(resp, w, budget, lam,
                       lambda P, r1x, r2x: _rates(g, P, rho1, rho2, d, ch, base))
        return float(w @ resp.value)

    coarse = np.array([value_at(float(r2), 0, tol=1e-3) for r2 in rho2_grid])
    order = np.argsort(-coarse)
    basins = [int(order[0])]
    for idx in order[1:]:
        if all(abs(int(idx) - b) > 2 for b in basins) and \
                coarse[idx] >= coarse[order[0]] - 2e-3:
            basins.append(int(idx))
        if len(basins) == 2:
            break

    best: tuple[float, _Response, float, tuple, float] | None = None
    for bidx in basins:
        lo = rho2_grid[max(bidx - 1, 0)]
        hi = rho2_grid[min(bidx + 1, rho2_grid.size - 1)]
        r2v, _ = _golden_max(
            lambda r2: np.array([value_at(float(x), 8, tol=2e-4) for x in r2]),
            np.array([lo]), np.array([hi]), 16)
        r2 = float(r2v[0])
        resp, lam, warns, rho1, rho2, table = dual_at(r2, 18)

        def rebuild(P, r1x, r2x, rho1=rho1, rho2=rho2):
            return _rates(g, P, rho1, rho2, d, ch, base)

        resp, lam = _finalize(
            lambda lam_: _fixed_response(g, p_cands, d, ch, base, rho1, rho2,
                                         table, lam_, 60),
            w, budget, lam, rebuild)
        val = float(w @ resp.value)
        if best is None or val > best[0]:
            best = (val, resp, lam, warns, r2)

    _, resp, lam, warns, _ = best
    return resp, lam, warns


def _solve_adaptive(g, w, p_cands, d, budget, ch, base):
    """Per-node (rho1, rho2, P) mode via a joint (P, rho2) table per node."""
    rho2_grid = np.linspace(-1.0, 1.0, 65)
    rho1_grid = _boundary_rho1(rho2_grid)
    table3 = _rates(g[:, None, None], p_cands[None, :, None],
                    rho1_grid[None, None, :], rho2_grid[None, None, :], d, ch, base)

    resp, lam, _, warns = _dual_solve(
        lambda lam_: _adaptive_response(g, p_cands, d, ch, base, table3, rho2_grid,
                                        lam_, 18, rounds=0),
        w, budget)
    resp, lam = _finalize(
        lambda lam_: _adaptive_response(g, p_cands, d, ch, base, table3, rho2_grid,
                                        lam_, 55, rounds=2),
        w, budget, lam,
        lambda P, r1x, r2x: _rates(g, P, r1x, r2x, d, ch, base))
    return resp, lam, warns


def _uniform_candidate(g, w, d, budget, ch, base, mode, resp) -> _Response:
    """Profile P(g) = budget everywhere (meets the budget with equality)."""
    n = g.size
    p_uni = np.full(n, budget)
    if mode == "fixed-rho":
        r1, r2 = float(resp.rho1[0]), float(resp.rho2[0])
        return _Response(_rates(g, p_uni, r1, r2, d, ch, base), p_uni,
                         np.full(n, r1), np.full(n, r2))

    def over_rho2(r2x):
        r1x = _boundary_rho1(r2x)
        return _rates(g, p_uni, r1x, r2x, d, ch, base)

    grid = np.linspace(-1.0, 1.0, 65)
    r1g = _boundary_rho1(grid)
    vals = _rates(g[:, None], p_uni[:, None], r1g[None, :], grid[None, :], d, ch, base)
    idx = np.argmax(vals, axis=1)
    lo = grid[np.maximum(idx - 1, 0)]
    hi = grid[np.minimum(idx + 1, grid.size - 1)]
    r2, _ = _golden_max(over_rho2, lo, hi, 55)
    r1 = _boundary_rho1(r2)
    return _Response(_rates(g, p_uni, r1, r2, d, ch, base), p_uni, r1, r2)


def maximize_rate(ch: ChannelParams, fading: FadingModel, d: float, P_budget: float,
                  mode: str = "fixed-rho", nodes: int = 64,
                  base: float = 2.0) -> RateSolution:
    """Maximize the expected rate at distortion parameter d under E_G[P(G)] <= P_budget."""
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}")
    ch.validate()
    if not (ch.d_min <= d <= ch.Q):
        raise ConfigError(f"d={d} outside [{ch.d_min:g}, {ch.Q}]")
    if P_budget < 0:
        raise ConfigError("P_budget must be nonnegative")

    rule = make_rule(fading, nodes)
    g = np.array(rule.nodes)
    w = np.array(rule.weights)

    if P_budget <= 0.0:
        node_rates = np.atleast_1d(_rates(g, 0.0, 0.0, 0.0, d, ch, base))
        rate0 = float(w @ node_rates)
        policy = PerStatePolicy.silent(rule.nodes, rule.weights)
        return RateSolution(rate=rate0, policy=policy, feasible=rate0 >= 0.0,
                            mode=mode, d=d, lam=0.0, power=0.0,
                            per_node_kappa=tuple(bool(v >= 0.0) for v in node_rates))

    p_cands = _power_candidates(P_budget)
    if mode == "fixed-rho":
        resp, lam, warns = _solve_fixed(g, w, p_cands, d, P_budget, ch, base)
    else:
        resp, lam, warns = _solve_adaptive(g, w, p_cands, d, P_budget, ch, base)

    uni = _uniform_candidate(g, w, d, P_budget, ch, base, mode, resp)
    if float(w @ uni.value) > float(w @ resp.value):
        resp, lam = uni, 0.0

    # the rate at P = 0 is rho-independent: canonicalize silent nodes to (0, 0)
    zero = resp.power == 0.0
    rho1 = np.where(zero, 0.0, resp.rho1)
    rho2 = np.where(zero, 0.0, resp.rho2)
    # the solvers' x*x disk tests can pass pairs that the policy's checks reject
    rho1, rho2 = zip(*(_into_disk(float(a), float(b)) for a, b in zip(rho1, rho2)))

    value = float(w @ resp.value)
    policy = PerStatePolicy(rule.nodes, rule.weights, tuple(resp.power), rho1, rho2)
    return RateSolution(rate=value, policy=policy, feasible=value >= 0.0, mode=mode,
                        d=d, lam=lam, power=float(w @ resp.power),
                        per_node_kappa=tuple(bool(v >= 0.0) for v in resp.value),
                        warnings=warns)


def concave_envelope(points: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Upper concave majorant of a (D, R) point set; vertices are input points.

    Collinear chains are preserved; duplicate D keeps the highest R.
    """
    if not points:
        raise ValueError("need at least one point")
    ds = [p[0] for p in points]
    if any(b < a for a, b in zip(ds, ds[1:])):
        raise ValueError("points must be sorted by D ascending")
    dedup: list[tuple[float, float]] = []
    for p in points:
        p = (float(p[0]), float(p[1]))
        if dedup and p[0] == dedup[-1][0]:
            if p[1] > dedup[-1][1]:
                dedup[-1] = p
        else:
            dedup.append(p)
    hull: list[tuple[float, float]] = []
    for p in dedup:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # pop the middle point when it lies strictly below the chord
            if (x1 - x0) * (p[1] - y0) - (y1 - y0) * (p[0] - x0) > 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def rd_frontier(ch: ChannelParams, fading: FadingModel, P_budget: float,
                grid: Sequence[float] | None = None, mode: str = "fixed-rho",
                nodes: int = 64, base: float = 2.0) -> Frontier:
    """Trace the rate-distortion frontier over a distortion grid and envelope it.

    Points with a negative optimal expected rate are infeasible and skipped;
    the running best over smaller d realizes D >= d_used, so rates are
    nondecreasing before the envelope is taken.
    """
    if grid is None:
        grid = np.geomspace(DEFAULT_GRID_FLOOR * ch.Q, ch.Q, DEFAULT_GRID_POINTS)
    grid = [float(v) for v in grid]
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ConfigError("distortion grid must ascend")

    raw: list[FrontierPoint] = []
    best: FrontierPoint | None = None
    for d in grid:
        sol = maximize_rate(ch, fading, d, P_budget, mode=mode, nodes=nodes, base=base)
        if sol.feasible and (best is None or sol.rate > best.R):
            best = FrontierPoint(D=d, R=sol.rate, policy=sol.policy, d_used=d, mode=mode)
        if best is not None:
            raw.append(FrontierPoint(D=d, R=best.R, policy=best.policy,
                                     d_used=best.d_used, mode=mode))
    if not raw:
        return Frontier(points=(), envelope=True)

    env_d = {pt[0] for pt in concave_envelope([(p.D, p.R) for p in raw])}
    return Frontier(points=tuple(p for p in raw if p.D in env_d), envelope=True)


def min_power(ch: ChannelParams, fading: FadingModel, R_target: float, D_target: float,
              mode: str = "fixed-rho", nodes: int = 64, base: float = 2.0,
              p_cap: float = POWER_CAP, warm_lo: float | None = None,
              envelope_check: bool = True) -> float:
    """Smallest average power budget attaining rate >= R_target at distortion <= D_target.

    A cold call brackets the root by factors of 4 from the noise power
    sigma_z2, the natural unit of P (rates are invariant under a joint scale
    of Q, d, sigma_z2 and P): downwards, to the floor POWER_FLOOR, while the
    budget already reaches the target, upwards otherwise. A warm lower bound
    (warm_lo, from a neighbouring cell) is stepped up from gently instead.
    Brent root-finding on the attained-rate residual follows; should its
    root fall just short of the target, the smallest budget solved above it
    that reaches the target is returned. Each (d, P) is solved at most once
    per call. Raises UnreachableError when even p_cap is insufficient; the
    bracketing never steps above p_cap.
    """
    if R_target < 0:
        raise ConfigError("R_target must be nonnegative")
    if not (ch.d_min <= D_target <= ch.Q):
        raise ConfigError(f"D_target={D_target} outside ({ch.d_min:g}, {ch.Q}]")

    rates: dict[tuple[float, float], float] = {}

    def rate_at(d: float, p: float) -> float:
        if (d, p) not in rates:
            rates[(d, p)] = maximize_rate(ch, fading, d, p, mode=mode, nodes=nodes,
                                          base=base).rate
        return rates[(d, p)]

    def residual(p: float) -> float:
        return rate_at(D_target, p) - R_target

    if residual(0.0) >= 0.0:
        return 0.0

    lo = max(warm_lo or 0.0, 0.0)
    if lo > 0.0:
        if residual(lo) >= 0.0:
            return lo
        # gentler steps near a warm lower bound, growing to doubling
        hi, step, max_step = max(lo, 1e-6), 1.3, 2.0
    else:
        step = max_step = 4.0
        lo = hi = min(ch.sigma_z2, p_cap)
        while residual(lo) >= 0.0:
            if lo <= POWER_FLOOR:
                return lo
            hi, lo = lo, max(lo / step, POWER_FLOOR)
    while residual(hi) < 0.0:
        if hi >= p_cap:
            raise UnreachableError(
                f"rate {R_target} at distortion {D_target} unreachable below budget {p_cap:g}")
        lo, hi = hi, min(hi * step, p_cap)
        step = min(step * 1.3, max_step)
    root = float(brentq(residual, lo, hi, xtol=1e-12, rtol=1e-9, maxiter=200))
    if residual(root) < 0.0:
        # hi reaches the target, so the set is never empty
        root = min(p for (d, p), r in rates.items()
                   if d == D_target and p > root and r >= R_target)

    if envelope_check:
        root = _envelope_consistency(ch, R_target, D_target, root, rate_at)
    return root


def _envelope_consistency(ch: ChannelParams, R_target: float, D_target: float,
                          root: float, rate_at: Callable[[float, float], float]) -> float:
    """Guard against non-concavity of R*(d): re-solve on a local envelope if it lifts."""

    def probe_env(p: float) -> float:
        pts = []
        for f in (0.75, 1.0, 1.3):
            dd = f * D_target
            if ch.d_min <= dd <= ch.Q:
                pts.append((dd, rate_at(dd, p)))
        env = concave_envelope(sorted(pts))
        return float(np.interp(D_target, [q[0] for q in env], [q[1] for q in env]))

    if probe_env(root) <= R_target + 5e-4:
        return root
    lo = root / 2.0
    for _ in range(40):
        if probe_env(lo) < R_target or lo < POWER_FLOOR:
            break
        lo /= 2.0
    return float(brentq(lambda p: probe_env(p) - R_target, lo, root,
                        xtol=1e-12, rtol=1e-9, maxiter=200))


def power_distortion_curve(ch: ChannelParams, fading: FadingModel,
                           rates: Sequence[float], d_grid: Sequence[float],
                           mode: str = "fixed-rho", nodes: int = 64,
                           base: float = 2.0) -> dict[tuple[float, float], float | None]:
    """min_power over a (rate, distortion) product grid; None marks unreachable cells.

    Processed rate-ascending and distortion-descending with the previous
    answers as bracket lower bounds, so the monotonicity of P(R, D) in both
    arguments holds structurally (feasible-set nesting).
    """
    rates = sorted(float(r) for r in rates)
    d_grid = sorted(float(d) for d in d_grid)
    out: dict[tuple[float, float], float | None] = {}
    prev_rate: dict[float, float | None] = {d: 0.0 for d in d_grid}
    for r in rates:
        larger_d: float | None = 0.0
        for d in reversed(d_grid):
            below = prev_rate[d]
            if below is None or larger_d is None:
                out[(r, d)] = None
                prev_rate[d] = None
                larger_d = None
                continue
            warm = max(below, larger_d)
            try:
                p = min_power(ch, fading, r, d, mode=mode, nodes=nodes, base=base,
                              warm_lo=warm if warm > 0 else None)
            except UnreachableError:
                out[(r, d)] = None
                prev_rate[d] = None
                larger_d = None
                continue
            p = max(p, warm)
            out[(r, d)] = p
            prev_rate[d] = p
            larger_d = p
    return out
