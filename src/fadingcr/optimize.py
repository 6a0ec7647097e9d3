"""Ergodic rate maximization and trade-off frontiers.

Power allocation across fading states is solved by Lagrangian decomposition:
for a multiplier lam each node maximizes rate - lam*P by grid search plus
golden-section refinement, and lam is bisected to meet the average-power
budget. The bisection runs on a batch of independent problems at once (in
fixed-rho mode every (d, rho2) of a distortion grid), each with its own
multiplier and stop test. The per-node rho search exploits that the rate is
maximized on the disk boundary with rho1 = +sqrt(1 - rho2^2) whenever
g^2 P > 0, so the rho dimension reduces to rho2 in [-1, 1]; degenerate flat
cases are canonicalized to (0, 0). All searches are deterministic (fixed
grids, fixed iteration counts, first-index tie-breaks).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq

from .ergodic import make_rule
from .model import ChannelParams, ConfigError, FadingModel, PerStatePolicy, in_disk
from .rate_core import _rate_kernel

MODES = ("fixed-rho", "adaptive-rho")

_GOLD = (math.sqrt(5.0) - 1.0) / 2.0

#: Budget-matching tolerance of the multiplier bisection, relative to the budget.
BUDGET_TOL = 1e-9

#: Relative budget miss of the bisection's response reported as a duality gap.
GAP_WARN = 1e-3

#: Default distortion grid: 50 log-spaced values in [1e-3 Q, Q].
DEFAULT_GRID_POINTS = 50
DEFAULT_GRID_FLOOR = 1e-3

#: Power cap and floor of the min_power bracketing.
POWER_CAP = float(2 ** 16)
POWER_FLOOR = 1e-12

#: Relative tolerance of min_power's Brent search. The attained rate is
#: rough at ~1e-9 bits near P_min (the inner solver's tolerances), which is
#: ~3e-9 relative in P; a tolerance below that chases the roughness, and the
#: number of solves then jumps by up to 3 with ulp-level changes of the rates.
POWER_RTOL = 1e-8


class UnreachableError(RuntimeError):
    """No budget up to the cap supports the requested (rate, distortion) pair."""


def _rates(g, P, rho1, rho2, d: float, ch: ChannelParams, base: float):
    """Per-state rate, broadcasting over array arguments (d included; callers check d <= Q)."""
    return _rate_kernel(g, P, ch.Q - d, d, rho1, rho2, ch.sigma_z2, base)


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
    #: the solver warnings of the solve at d_used
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class Frontier:
    """Envelope points of the rate-distortion frontier, D ascending."""

    points: tuple[FrontierPoint, ...]

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


def _arc_max(g, P, d: float, ch: ChannelParams, base: float):
    """(psi*, rate) of the per-state rate maximized over the disk, broadcast over g and P.

    At fixed rho2 the rate rises with rho1 >= 0, so the maximum lies on the arc
    rho = (cos psi, sin psi), |psi| <= pi/2: a 257-point psi scan, then 70
    golden-section steps around the best scan point.
    """
    g, P = np.broadcast_arrays(np.asarray(g, dtype=float), np.asarray(P, dtype=float))
    psi = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 257)
    scan = _rates(g[..., None], P[..., None], np.cos(psi), np.sin(psi), d, ch, base)
    k = np.argmax(scan, axis=-1)
    return _golden_max(lambda p: _rates(g, P, np.cos(p), np.sin(p), d, ch, base),
                       psi[np.maximum(k - 1, 0)], psi[np.minimum(k + 1, psi.size - 1)], 70)


def optimize_rho_per_state(g: float, P: float, d: float, ch: ChannelParams,
                           base: float = 2.0) -> tuple[float, float, float]:
    """Maximize the per-state rate over the closed disk rho1^2 + rho2^2 <= 1.

    The arc search of _arc_max; ties within 1e-10 prefer the silent pair (0, 0).
    """
    if not (ch.d_min <= d <= ch.Q):
        raise ConfigError(f"d={d} outside [{ch.d_min:g}, {ch.Q}]")
    psi, best = _arc_max(g, P, d, ch, base)
    silent = float(_rates(g, P, 0.0, 0.0, d, ch, base))
    if silent >= float(best) - 1e-10:
        return 0.0, 0.0, silent
    return (*_into_disk(float(np.cos(psi)), float(np.sin(psi))), float(best))


#: Budget-matching tolerance of the bisection; residual slack is closed by top-up.
BISECT_TOL = 1e-6

#: Relative width of the multiplier bracket at which the bisection stops a
#: problem whose power cannot meet the tolerance (it steps across the budget).
BISECT_FLOOR = 1e-9

#: Largest (problems x nodes x power candidates) table the fixed-rho solver
#: holds at once: a batch of problems is solved in chunks of this size, so
#: the working set does not grow with the distortion grid.
CHUNK_ELEMS = 2 ** 14


def _wsum(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted sum over the node axis, one value per row.

    Each row goes through the same 1-D dot as ``weights @ row``, so a
    problem's sum does not depend on the batch it is solved in (a (B, n) @ w
    gemv rounds differently).
    """
    return (x[..., None, :] @ weights[:, None])[..., 0, 0]


def _take(new: _Response, old: _Response, rows: np.ndarray) -> _Response:
    """The rows of new where rows is True, of old elsewhere."""
    if rows.all():
        return new
    if not rows.any():
        return old
    r = rows[:, None]
    return _Response(np.where(r, new.value, old.value), np.where(r, new.power, old.power),
                     np.where(r, new.rho1, old.rho1), np.where(r, new.rho2, old.rho2))


def _dual_solve(respond: Callable[[np.ndarray], _Response], weights: np.ndarray,
                budget: np.ndarray, hint: tuple[np.ndarray, np.ndarray] | None = None,
                tol: float = BISECT_TOL, floor: float = BISECT_FLOOR
                ) -> tuple[_Response, np.ndarray, tuple[np.ndarray, np.ndarray],
                           tuple[tuple[str, ...], ...]]:
    """Bisection on the power multipliers of a batch of independent problems.

    respond maps one multiplier per problem to a _Response with one row per
    problem; budget holds the problems' budgets. hint is a (lo, hi) pair of
    multiplier vectors from nearby solves; the returned brackets can seed
    the next ones. Each problem stops on its own test: its power within tol
    of its budget, or its bracket narrower than floor relative, since the
    response's power is a step function of the multiplier and may never meet
    tol. A stopped problem is re-evaluated at its own multiplier, which
    reproduces its response, so no result depends on the rest of the batch.
    Returns budget-feasible responses, the multipliers, the brackets and per
    problem a "duality gap" warning when its power still misses the budget
    by more than GAP_WARN (it jumps across the final bracket); _finalize's
    top-up spends the slack.
    """
    zero = np.zeros_like(budget)
    resp = respond(zero)
    free = _wsum(resp.power, weights) <= budget * (1.0 + BUDGET_TOL)
    if free.all():
        return resp, zero, (zero, zero), ((),) * budget.size

    if hint is None:
        lo, hi = zero, np.ones_like(budget)
    else:
        seeded = hint[1] > 0.0
        lo, hi = np.where(seeded, hint[0], 0.0), np.where(seeded, hint[1], 1.0)
    lo, hi = np.where(free, 0.0, lo), np.where(free, 0.0, hi)
    resp_hi = respond(hi)
    p_hi = _wsum(resp_hi.power, weights)
    for _ in range(80):
        up = ~free & (p_hi > budget)
        if not up.any():
            break
        lo, hi = np.where(up, hi, lo), np.where(up, 2.0 * hi, hi)
        resp_hi = respond(hi)
        p_hi = _wsum(resp_hi.power, weights)
    down = lo > 0.0
    while down.any():
        resp = respond(np.where(down, lo, hi))
        p = _wsum(resp.power, weights)
        move = down & (p <= budget)
        resp_hi = _take(resp, resp_hi, move | ~down)
        p_hi = np.where(move, p, p_hi)
        hi = np.where(move, lo, hi)
        lo = np.where(move, np.where(lo < 1e-12, 0.0, lo / 2.0), lo)
        down = move & (lo > 0.0)

    for _ in range(70):
        done = (np.abs(p_hi - budget) <= tol * budget) | (hi - lo <= floor * hi)
        if done.all():
            break
        mid = np.where(done, hi, 0.5 * (lo + hi))
        resp_mid = respond(mid)
        p_mid = _wsum(resp_mid.power, weights)
        take = done | (p_mid <= budget)
        resp_hi = _take(resp_mid, resp_hi, take)
        lo, hi = np.where(take, lo, mid), np.where(take, mid, hi)
        p_hi = np.where(take, p_mid, p_hi)

    gap = ~free & (np.abs(p_hi - budget) > GAP_WARN * budget)
    warns = tuple((f"duality gap: primal power {p:.6g} vs budget {b:.6g} at lam={h:.6g}",)
                  if miss else () for miss, p, b, h in zip(gap, p_hi, budget, hi))
    return resp_hi, hi, (lo, hi), warns


def _top_up(resp: _Response, weights: np.ndarray, budget: np.ndarray, lam: np.ndarray,
            rebuild: Callable) -> _Response:
    """Spend each problem's residual budget slack uniformly on its powered nodes.

    At the dual optimum every powered node has marginal rate lam > 0, so the
    uniform increment raises the rate by ~lam*slack and the remaining
    suboptimality is second order in the slack. A problem keeps its response
    when the increment does not raise its rate.
    """
    slack = budget - _wsum(resp.power, weights)
    rows = (lam > 0.0) & (slack > 0.0)
    if not rows.any():
        return resp
    power = resp.power.copy()
    active = power > 0.0
    for b in np.flatnonzero(rows):
        w_active = float(weights[active[b]].sum())
        if w_active > 0.0:
            power[b, active[b]] += slack[b] / w_active
            continue
        gains = rebuild(np.where(weights > 0, slack[:, None] / weights, 0.0),
                        resp.rho1, resp.rho2)[b]
        i = int(np.argmax(gains - resp.value[b]))
        if gains[i] <= resp.value[b, i]:
            rows[b] = False
            continue
        power[b, i] = slack[b] / weights[i]
    cand = _Response(rebuild(power, resp.rho1, resp.rho2), power, resp.rho1, resp.rho2)
    return _take(cand, resp, rows & (_wsum(cand.value, weights) >= _wsum(resp.value, weights)))


def _finalize(respond_full: Callable[[np.ndarray], _Response], weights: np.ndarray,
              budget: np.ndarray, lam: np.ndarray, rebuild: Callable
              ) -> tuple[_Response, np.ndarray]:
    """Full-polish responses at lam, escalate each lam until its budget holds, top up slack."""
    resp = respond_full(lam)
    for k in range(60):
        over = _wsum(resp.power, weights) > budget * (1.0 + BUDGET_TOL)
        if not over.any():
            break
        lam = np.where(over, np.where(lam > 0, lam, 1e-12) * (1.0 + 1e-7 * 2.0 ** k), lam)
        # the problems whose lam stays re-evaluate to their response
        resp = respond_full(lam)
    return _top_up(resp, weights, budget, lam, rebuild), lam


def _fixed_response(g: np.ndarray, p_cands: np.ndarray, d: np.ndarray, ch: ChannelParams,
                    base: float, rho1: np.ndarray, rho2: np.ndarray, table: np.ndarray,
                    lam: np.ndarray, polish: int) -> _Response:
    """Best power per node of each problem at its shared (rho1, rho2) under its multiplier.

    table holds each problem's rates on the (nodes x power candidates) grid
    and lam one multiplier per problem; g, d, rho1 and rho2 are given per
    (problem, node) row, so that every rate evaluation is on flat arrays.
    """
    b, n, m = table.shape
    score = (table - (lam[:, None] * p_cands)[:, None, :]).reshape(b * n, m)
    idx = np.argmax(score, axis=1)
    rows = np.arange(b * n)
    p_best = p_cands[idx]
    v_best = table.reshape(b * n, m)[rows, idx]
    if polish > 0 and m > 1:
        lam_r = np.repeat(lam, n)
        lo = p_cands[np.maximum(idx - 1, 0)]
        hi = p_cands[np.minimum(idx + 1, m - 1)]
        p_ref, s_ref = _golden_max(
            lambda P: _rates(g, P, rho1, rho2, d, ch, base) - lam_r * P, lo, hi, polish)
        better = s_ref > score[rows, idx]
        p_best = np.where(better, p_ref, p_best)
        v_best = np.where(better, _rates(g, p_best, rho1, rho2, d, ch, base), v_best)
    return _Response(v_best.reshape(b, n), p_best.reshape(b, n),
                     rho1.reshape(b, n), rho2.reshape(b, n))


def _adaptive_response(g: np.ndarray, p_cands: np.ndarray, d: float, ch: ChannelParams,
                       base: float, table3: np.ndarray, rho2_grid: np.ndarray,
                       lam: np.ndarray, polish: int, rounds: int) -> _Response:
    """Best (P, rho2) per node under multiplier lam, rho1 on the disk boundary.

    A batch of one problem: lam has shape (1,), the response one row.
    """
    lam = lam[0]
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
    return _Response(v_best[None], p_best[None], r1[None], r2[None])


def _solve_fixed(g, w, p_cands, ds, budget, ch, base):
    """Shared-(rho1, rho2) mode for every distortion in ds at once.

    Per distortion: a 49-point coarse rho2 scan, golden refinement of the
    best one or two basins, and a final BISECT_TOL solve of each basin; each
    stage is one batched multiplier bisection over its independent (d, rho2)
    problems, CHUNK_ELEMS table elements at a time. Returns the responses
    (one row per distortion), multipliers and warnings of the best basins.
    """
    rho2_grid = np.linspace(-1.0, 1.0, 49)
    step = max(1, CHUNK_ELEMS // (g.size * p_cands.size))

    def solve(d, rho2, polish, tol, floor=BISECT_FLOOR, hint=None, final=False):
        """Solves (top-up included) of problems (d, rho2): values, widened brackets
        and, when final, the (resp, lam, warns) of each chunk."""
        values, los, his, chunks = [], [], [], []
        for c in (slice(s, s + step) for s in range(0, d.size, step)):
            dc, r2 = d[c], rho2[c]
            r1 = _boundary_rho1(r2)
            # built problem by problem: the kernel's temporaries are table-sized
            table = np.empty((dc.size, g.size, p_cands.size))
            for i in range(dc.size):
                table[i] = _rates(g[:, None], p_cands, r1[i], r2[i], dc[i], ch, base)
            budgets = np.full(dc.size, budget)
            # one entry per (problem, node) row
            g_r, d_r = np.tile(g, dc.size), np.repeat(dc, g.size)
            r1_r, r2_r = np.repeat(r1, g.size), np.repeat(r2, g.size)

            def respond(lam, polish=polish):
                return _fixed_response(g_r, p_cands, d_r, ch, base, r1_r, r2_r, table, lam,
                                       polish)

            def rebuild(P, r1x, r2x):
                return _rates(g_r, P.reshape(-1), r1_r, r2_r, d_r, ch, base).reshape(P.shape)

            resp, lam, (lo, hi), warns = _dual_solve(
                respond, w, budgets, hint=None if hint is None else (hint[0][c], hint[1][c]),
                tol=tol, floor=floor)
            if final:
                resp, lam = _finalize(lambda lam_: respond(lam_, 60), w, budgets, lam, rebuild)
                chunks.append((resp, lam, warns))
            else:
                # the top-up makes the value smooth in rho2 despite the loose bisection
                resp = _top_up(resp, w, budgets, lam, rebuild)
            values.append(_wsum(resp.value, w))
            los.append(lo)
            his.append(hi)
        # widened so the next solve's multiplier usually falls inside
        return (np.concatenate(values),
                (np.concatenate(los) * 0.997, np.concatenate(his) * 1.003), chunks)

    k = rho2_grid.size
    # the scan only ranks the grid's rho2 values, and its unpolished responses
    # never meet a power tolerance: a loose floor ends each bisection early
    coarse, coarse_hint, _ = solve(np.repeat(ds, k), np.tile(rho2_grid, ds.size), 0, 1e-3,
                                   floor=1e-6)
    coarse = coarse.reshape(ds.size, k)
    owner, basins = [], []
    for i, row in enumerate(coarse):
        order = np.argsort(-row)
        picked = [int(order[0])]
        for idx in order[1:]:
            if all(abs(int(idx) - b) > 2 for b in picked) and row[idx] >= row[order[0]] - 2e-3:
                picked.append(int(idx))
            if len(picked) == 2:
                break
        owner += [i] * len(picked)
        basins += picked
    owner, basins = np.array(owner), np.array(basins)
    d = ds[owner]
    flat = owner * k + basins
    hint = (coarse_hint[0][flat], coarse_hint[1][flat])

    def refine(r2):
        nonlocal hint
        values, hint, _ = solve(d, r2, 8, 2e-4, hint=hint)
        return values

    r2, _ = _golden_max(refine, rho2_grid[np.maximum(basins - 1, 0)],
                        rho2_grid[np.minimum(basins + 1, k - 1)], 16)
    values, _, chunks = solve(d, r2, 18, BISECT_TOL, hint=hint, final=True)
    resp = _Response(*(np.concatenate([getattr(c[0], f) for c in chunks])
                       for f in ("value", "power", "rho1", "rho2")))
    lam = np.concatenate([c[1] for c in chunks])
    warns = [wn for c in chunks for wn in c[2]]
    # the first basin wins ties
    best = np.array([np.flatnonzero(owner == i)[np.argmax(values[owner == i])]
                     for i in range(ds.size)])
    resp = _Response(resp.value[best], resp.power[best], resp.rho1[best], resp.rho2[best])
    return resp, lam[best], tuple(warns[b] for b in best)


def _solve_adaptive(g, w, p_cands, d, budget, ch, base):
    """Per-node (rho1, rho2, P) mode via a joint (P, rho2) table per node."""
    rho2_grid = np.linspace(-1.0, 1.0, 65)
    rho1_grid = _boundary_rho1(rho2_grid)
    table3 = _rates(g[:, None, None], p_cands[None, :, None],
                    rho1_grid[None, None, :], rho2_grid[None, None, :], d, ch, base)
    budgets = np.array([budget])

    resp, lam, _, warns = _dual_solve(
        lambda lam_: _adaptive_response(g, p_cands, d, ch, base, table3, rho2_grid,
                                        lam_, 18, rounds=0),
        w, budgets)
    resp, lam = _finalize(
        lambda lam_: _adaptive_response(g, p_cands, d, ch, base, table3, rho2_grid,
                                        lam_, 55, rounds=2),
        w, budgets, lam,
        lambda P, r1x, r2x: _rates(g, P, r1x, r2x, d, ch, base))
    # escalation and top-up move the powers off those the rho pairs were fitted at
    psi, best = _arc_max(g, resp.power, d, ch, base)
    fit = best > resp.value
    return _Response(np.where(fit, best, resp.value), resp.power,
                     np.where(fit, np.cos(psi), resp.rho1),
                     np.where(fit, np.sin(psi), resp.rho2)), lam, warns


def _solve_grid(ch: ChannelParams, fading: FadingModel, ds: Sequence[float],
                P_budget: float, mode: str, nodes: int, base: float) -> list[RateSolution]:
    """maximize_rate at each distortion of ds; fixed-rho solves them as one batch."""
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}")
    ch.validate()
    for d in ds:
        if not (ch.d_min <= d <= ch.Q):
            raise ConfigError(f"d={d} outside [{ch.d_min:g}, {ch.Q}]")
    if P_budget < 0:
        raise ConfigError("P_budget must be nonnegative")
    if not ds:
        return []

    rule = make_rule(fading, nodes)
    g = np.array(rule.nodes)
    w = np.array(rule.weights)

    if P_budget <= 0.0:
        out = []
        for d in ds:
            node_rates = np.atleast_1d(_rates(g, 0.0, 0.0, 0.0, d, ch, base))
            rate0 = float(w @ node_rates)
            out.append(RateSolution(
                rate=rate0, policy=PerStatePolicy.silent(rule.nodes, rule.weights),
                feasible=rate0 >= 0.0, mode=mode, d=d, lam=0.0, power=0.0,
                per_node_kappa=tuple(bool(v >= 0.0) for v in node_rates)))
        return out

    p_cands = _power_candidates(P_budget)
    if mode == "fixed-rho":
        resp, lam, warns = _solve_fixed(g, w, p_cands, np.array(ds, dtype=float),
                                        P_budget, ch, base)
        solved = [(resp, b, lam[b], warns[b]) for b in range(len(ds))]
    else:
        solved = []
        for d in ds:
            resp, lam, warns = _solve_adaptive(g, w, p_cands, d, P_budget, ch, base)
            solved.append((resp, 0, lam[0], warns[0]))

    out = []
    for d, (resp, b, lam, warns) in zip(ds, solved):
        power, value = resp.power[b], resp.value[b]
        # the rate at P = 0 is rho-independent: canonicalize silent nodes to (0, 0)
        zero = power == 0.0
        rho1 = np.where(zero, 0.0, resp.rho1[b])
        rho2 = np.where(zero, 0.0, resp.rho2[b])
        # the solvers' x*x disk tests can pass pairs that the policy's checks reject
        rho1, rho2 = zip(*(_into_disk(float(a), float(c)) for a, c in zip(rho1, rho2)))
        rate = float(w @ value)
        policy = PerStatePolicy(rule.nodes, rule.weights, tuple(power), rho1, rho2)
        out.append(RateSolution(rate=rate, policy=policy, feasible=rate >= 0.0, mode=mode,
                                d=d, lam=float(lam), power=float(w @ power),
                                per_node_kappa=tuple(bool(v >= 0.0) for v in value),
                                warnings=warns))
    return out


def maximize_rate(ch: ChannelParams, fading: FadingModel, d: float, P_budget: float,
                  mode: str = "fixed-rho", nodes: int = 64,
                  base: float = 2.0) -> RateSolution:
    """Maximize the expected rate at distortion parameter d under E_G[P(G)] <= P_budget."""
    return _solve_grid(ch, fading, [d], P_budget, mode, nodes, base)[0]


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

    Each grid point is maximize_rate at that d; fixed-rho mode solves the
    whole grid as one batch, with the same results. Points with a negative
    optimal expected rate are infeasible and skipped; the running best over
    smaller d realizes D >= d_used, so rates are nondecreasing before the
    envelope is taken. A point carries the warnings of the solve at d_used.
    """
    if grid is None:
        grid = np.geomspace(DEFAULT_GRID_FLOOR * ch.Q, ch.Q, DEFAULT_GRID_POINTS)
    grid = [float(v) for v in grid]
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ConfigError("distortion grid must ascend")

    raw: list[FrontierPoint] = []
    best: FrontierPoint | None = None
    for d, sol in zip(grid, _solve_grid(ch, fading, grid, P_budget, mode, nodes, base)):
        if sol.feasible and (best is None or sol.rate > best.R):
            best = FrontierPoint(D=d, R=sol.rate, policy=sol.policy, d_used=d, mode=mode,
                                 warnings=sol.warnings)
        if best is not None:
            raw.append(dataclasses.replace(best, D=d))
    if not raw:
        return Frontier(points=())

    env_d = {pt[0] for pt in concave_envelope([(p.D, p.R) for p in raw])}
    return Frontier(points=tuple(p for p in raw if p.D in env_d))


def min_power(ch: ChannelParams, fading: FadingModel, R_target: float, D_target: float,
              mode: str = "fixed-rho", nodes: int = 64, base: float = 2.0,
              p_cap: float = POWER_CAP, warm_lo: float | None = None) -> float:
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
        hi, step, max_step = lo, 1.3, 2.0
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
    root = float(brentq(residual, lo, hi, xtol=1e-12 * ch.sigma_z2, rtol=POWER_RTOL,
                        maxiter=200))
    if residual(root) < 0.0:
        # hi reaches the target, so the set is never empty
        root = min(p for (d, p), r in rates.items()
                   if d == D_target and p > root and r >= R_target)
    return _envelope_consistency(ch, R_target, D_target, root, rate_at)


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
                        xtol=1e-12 * ch.sigma_z2, rtol=1e-9, maxiter=200))


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
