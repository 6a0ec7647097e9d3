"""Ergodic rate maximization and trade-off frontiers.

Power allocation across fading states is solved by Lagrangian decomposition
(Goldsmith & Varaiya, IEEE Trans. IT 1997; Palomar & Fonollosa, IEEE Trans.
SP 2005). For a multiplier lam every node maximizes rate - lam*P exactly,
with no power table and no cap (responses.py), and lam is found by a
safeguarded Newton iteration on the average-power budget, starting from
the mean marginal rate at uniform power; the responses supply each node's
dP/dlam. The iteration runs on a batch of independent problems at once (in
fixed-rho mode every (d, psi) of a distortion grid), each with its own
multiplier bracket and stop test. A primal-recovery step then meets each budget
exactly: it mixes the responses at the two ends of the final multiplier
bracket. The weak-duality bound at the final multiplier certifies each
solve. In fixed-rho mode a node's response can jump across its
concave-hull segment; a problem whose rate stays more than RECOVERY_GAP
below its bound is solved again once for each row (a branch or P = 0) of
each jumping node, with that node held on that row and the others free,
and the best of these wins. A solve still more than RECOVERY_GAP below its
bound carries a "duality gap" warning.

The rate is maximized on the disk boundary rho = (cos psi, sin psi),
|psi| <= pi/2, whenever g^2 P > 0; degenerate flat cases are canonicalized
to (0, 0). In adaptive-rho mode each node takes its own psi*(P), and one
responses.AdaptiveRho per solve warm-starts each multiplier's power and psi
solves from the last ones; fixed-rho mode takes the best psi of a 49-point
scan and refines it by a regula-falsi search for a zero of the envelope
derivative dV/dpsi. All searches are deterministic.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ergodic import make_rule
from .model import ChannelParams, ConfigError, FadingModel, PerStatePolicy, in_disk
from .rate_core import _rate_kernel
from .responses import AdaptiveRho, FixedRho, arc_marginal, arc_psi

MODES = ("fixed-rho", "adaptive-rho")

#: Relative tolerance within which an allocation's spent power meets its budget.
BUDGET_TOL = 1e-9

#: Default distortion grid: 50 log-spaced values in [1e-3 Q, Q].
DEFAULT_GRID_POINTS = 50
DEFAULT_GRID_FLOOR = 1e-3

#: Power cap of the min_power bracketing, and its floor in units of sigma_z2
#: (rates are invariant under a joint scale of Q, d, sigma_z2 and P).
POWER_CAP = float(2 ** 16)
POWER_FLOOR = 1e-12

#: Relative width at which min_power's bracket of solved budgets stops. The
#: attained rate is rough at ~1e-9 bits near P_min (the inner solver's
#: tolerances), which is ~3e-9 relative in P; a tolerance below that chases
#: the roughness, and the number of solves then jumps with ulp-level changes
#: of the rates.
POWER_RTOL = 1e-8

#: Multiplier bracket floor of the solvers' Newton iterations. The primal
#: recovery mixes the responses at the bracket ends, which moves every
#: continuous node along its response curve to second order in the bracket
#: width; both allocations spend the budget, so the rate is off by the
#: fourth order.
RECOVERY_FLOOR = 1e-6

#: Most (problem, node) rows the fixed-rho solver holds at once: a batch of
#: problems is solved in chunks, so the working set does not grow with the
#: distortion grid.
CHUNK_ROWS = 2 ** 11

#: Certified duality gap, in rate units, above which a fixed-rho problem is
#: solved again with each node that jumps across its concave-hull segment
#: held on each of its rows, and above which a solve warns. Measured gaps are
#: either below 3e-13 or above 1e-7.
RECOVERY_GAP = 1e-12

#: Width in psi at which the fixed-rho search for dV/dpsi = 0 stops.
PSI_TOL = 1e-6


class UnreachableError(RuntimeError):
    """No budget up to the cap supports the requested (rate, distortion) pair."""


def _rates(g, P, rho1, rho2, d: float, ch: ChannelParams, base: float):
    """Per-state rate, broadcasting over array arguments (d included; callers check d <= Q)."""
    return _rate_kernel(g, P, ch.Q - d, d, rho1, rho2, ch.sigma_z2, base)


def _into_disk(r1: float, r2: float) -> tuple[float, float]:
    """Shave (r1, r2) toward zero by ulps until CodingParams accepts the pair."""
    while not in_disk(r1, r2):
        if abs(r1) >= abs(r2):
            r1 = math.nextafter(r1, 0.0)
        else:
            r2 = math.nextafter(r2, 0.0)
    return r1, r2


@dataclass
class _Response:
    """Per-node best response to a multiplier: rates, powers, rho pair and dP/dlam.

    dpower defaults to zeros, the value of a response without a derivative.
    """

    value: np.ndarray
    power: np.ndarray
    rho1: np.ndarray
    rho2: np.ndarray
    dpower: np.ndarray | None = None

    def __post_init__(self):
        if self.dpower is None:
            self.dpower = np.zeros_like(self.power)


@dataclass(frozen=True)
class RateSolution:
    """Outcome of maximize_rate: primal rate, achieving policy, feasibility."""

    rate: float
    policy: PerStatePolicy
    feasible: bool
    mode: str
    d: float
    #: the final power multiplier, which is the slope dR*/dB of the optimal
    #: rate in the budget (0 when the budget is not binding)
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


def optimize_rho_per_state(g: float, P: float, d: float, ch: ChannelParams,
                           base: float = 2.0) -> tuple[float, float, float]:
    """Maximize the per-state rate over the closed disk rho1^2 + rho2^2 <= 1.

    The arc solve of responses.arc_psi; ties within 1e-10 prefer the silent pair (0, 0).
    """
    if not (ch.d_min <= d <= ch.Q):
        raise ConfigError(f"d={d} outside [{ch.d_min:g}, {ch.Q}]")
    psi = float(arc_psi(g, math.sqrt(P), d, ch))
    best = float(_rates(g, P, math.cos(psi), math.sin(psi), d, ch, base))
    silent = float(_rates(g, P, 0.0, 0.0, d, ch, base))
    if silent >= best - 1e-10:
        return 0.0, 0.0, silent
    return (*_into_disk(math.cos(psi), math.sin(psi)), best)


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
    return _Response(*(np.where(r, getattr(new, f.name), getattr(old, f.name))
                       for f in dataclasses.fields(new)))


def _marginal_hint(m: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multiplier brackets (lo, hi) for _dual_solve from the marginal rates m at uniform
    power, one row per problem: their mean is near the problem's multiplier."""
    est = _wsum(np.maximum(m, 0.0), weights)
    return 0.8 * est, 1.25 * est


def _dual_solve(respond: Callable[[np.ndarray], _Response], weights: np.ndarray,
                budget: np.ndarray, hint: tuple[np.ndarray, np.ndarray], floor: float
                ) -> tuple[_Response, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Safeguarded Newton iteration on the power multipliers of a batch of independent problems.

    respond maps one multiplier per problem to a _Response with one row per
    problem; budget holds the problems' budgets. hint is a (lo, hi) pair of
    multiplier vectors near the solutions, from nearby solves or from
    _marginal_hint; a problem whose hi is not positive takes (0, 1). Each
    problem starts at the middle of its hint and keeps a bracket of
    evaluated multipliers: lo, the largest that overspends (at first 0), and
    hi, the smallest within budget (at first none). The next multiplier is
    the Newton step on the spent power, with the slope sum_i w_i dP_i/dlam
    of the response's dpower, moved at least floor/2 relative toward the
    root so that it can cross it. A step outside the open bracket, a slope
    that is not negative, or a step longer than half the one before it (as
    in Numerical Recipes' rtsafe: a jumping power's slope misleads) falls
    back to x2 from lo while there is no hi and to the midpoint otherwise.
    The power may jump and never meet the budget, so each problem stops on
    its own bracket: narrower than floor relative, or hi below 1e-12 of its
    hint's hi, where its multiplier counts as 0. A stopped problem is
    re-evaluated at its own hi, which reproduces its response, so no result
    depends on the rest of the batch. Returns budget-feasible responses, the
    multipliers and the brackets, which can seed the next solves; _recover
    spends the slack.
    """
    zero = np.zeros_like(budget)
    resp = respond(zero)
    free = _wsum(resp.power, weights) <= budget * (1.0 + BUDGET_TOL)
    if free.all():
        return resp, zero, (zero, zero)

    seeded = hint[1] > 0.0
    cut = 1e-12 * np.where(seeded, hint[1], 1.0)
    lam = np.where(seeded, 0.5 * (hint[0] + hint[1]), 0.5)
    lo, hi, last = zero, np.where(free, 0.0, np.inf), np.full_like(budget, np.inf)
    for _ in range(200):
        done = ((hi - lo <= floor * hi) & (hi < np.inf)) | (hi <= cut)
        if done.all():
            break
        lam = np.where(done, hi, lam)
        r = respond(lam)
        excess = _wsum(r.power, weights) - budget
        take = done | (excess <= 0.0)
        resp = _take(r, resp, take)
        lo, hi = np.where(take, lo, lam), np.where(take, lam, hi)
        slope = _wsum(r.dpower, weights)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.abs(excess / slope)
        step = lam + np.where(excess > 0.0, 1.0, -1.0) * np.maximum(newton, 0.5 * floor * lam)
        ok = (slope < 0.0) & (newton <= 0.5 * last) & (lo < step) & (step < hi)
        nxt = np.where(ok, step, np.where(hi == np.inf, 2.0 * lo, 0.5 * (lo + hi)))
        last, lam = np.where(ok, newton, np.abs(nxt - lam)), nxt
    return resp, hi, (lo, hi)


def _recover(respond: Callable, rebuild: Callable, weights: np.ndarray, budget: np.ndarray,
             resp: _Response, lo: np.ndarray, hi: np.ndarray) -> tuple[_Response, np.ndarray]:
    """Primal recovery: meet each problem's budget exactly after _dual_solve.

    resp is the response at hi, within budget; the one at lo exceeds it. The
    mixture of the two powers that spends the budget moves the continuous
    nodes across the bracket's width, and gives a node that jumps across its
    concave-hull segment the power that closes the budget. rebuild maps
    powers to a _Response. By weak duality (Yu & Lui, IEEE Trans. Commun.
    2006) the Lagrangian at hi, sum_i w_i (R_i - hi P_i) + hi B over resp,
    bounds every rate within the budget B. Returns the responses and each
    problem's certified gap, the bound minus the rate.
    """
    bound = _wsum(resp.value - hi[:, None] * resp.power, weights) + hi * budget
    spent = _wsum(resp.power, weights)
    rows = (lo > 0.0) & (spent < budget)
    if rows.any():
        over = respond(np.where(rows, lo, hi))
        extra = _wsum(over.power, weights) - spent
        t = np.where(rows & (extra > 0.0), (budget - spent) / np.where(extra > 0.0, extra, 1.0),
                     0.0)
        cand = rebuild(resp.power + np.minimum(t, 1.0)[:, None] * (over.power - resp.power))
        resp = _take(cand, resp, rows & (_wsum(cand.value, weights) >= _wsum(resp.value, weights)))
    return resp, bound - _wsum(resp.value, weights)


def _fixed_response(nodes: FixedRho, P: np.ndarray) -> _Response:
    """The response, one row per problem, of nodes at their shared rho and powers P."""
    P = np.asarray(P, dtype=float).reshape(-1)
    fin = np.isfinite(P)
    value = np.where(fin, _rates(nodes.g, np.where(fin, P, 0.0), nodes.rho1, nodes.rho2,
                                 nodes.d, nodes.ch, nodes.base), np.inf)
    return _Response(*(z.reshape(-1, nodes.n) for z in (value, P, nodes.rho1, nodes.rho2)))


def _arc_response(nodes: AdaptiveRho, P: np.ndarray, psi: np.ndarray) -> _Response:
    """One problem's response at per-node powers P and arc angles psi."""
    fin = np.isfinite(P)
    r1, r2 = np.cos(psi), np.sin(psi)
    value = np.where(fin, _rates(nodes.g, np.where(fin, P, 0.0), r1, r2, nodes.d, nodes.ch,
                                 nodes.base), np.inf)
    return _Response(value[None], P[None], r1[None], r2[None])


def _solve_fixed(g, w, ds, budget, ch, base):
    """Shared-(rho1, rho2) mode for every distortion in ds at once.

    Per distortion: a 49-point rho2 scan, then an Illinois regula-falsi
    search for dV/dpsi = 0 between the scan's argmax and the neighbour
    across which the slope changes sign. dV/dpsi is the envelope derivative
    sum_i w_i dR_i/dpsi at the recovered powers. Every stage is one batched
    multiplier search (_dual_solve) plus primal recovery over its
    independent (d, psi) problems, CHUNK_ROWS (problem, node) rows at a
    time. A refinement problem whose certified gap exceeds RECOVERY_GAP is
    solved again once for each row of each node whose chosen row differs at
    the bracket's ends, with that node held on that row (FixedRho.hold) and
    the others free; the best solve wins, and its gap is the first solve's
    bound minus its rate. Returns the responses (one row per distortion),
    the multipliers and the certified duality gaps.
    """
    psi_grid = np.arcsin(np.linspace(-1.0, 1.0, 49))
    k = psi_grid.size
    step = max(1, CHUNK_ROWS // g.size)

    def problems(d, psi):
        """The best responses of problems (d, psi), one element per (problem, node)."""
        return FixedRho(np.tile(g, d.size), np.repeat(d, g.size), np.repeat(psi, g.size),
                        g.size, ch, base)

    def recovered(nodes, hint, floor):
        """_dual_solve and _recover over the problems of nodes: the responses,
        multipliers, brackets and certified gaps."""
        budgets = np.full(nodes.g.size // g.size, budget)
        nodes.anchor(np.where(hint[1] > 0.0, np.sqrt(hint[0] * hint[1]), 1.0))

        def respond(lam):
            P, _, dP = nodes.powers(lam)
            return dataclasses.replace(_fixed_response(nodes, P), dpower=dP.reshape(-1, g.size))

        resp, lam, (lo, hi) = _dual_solve(respond, w, budgets, hint, floor)
        return (*_recover(respond, lambda P: _fixed_response(nodes, P), w, budgets, resp, lo, hi),
                lam, lo, hi)

    def chunk(d, psi, floor, hint, keep):
        """One chunk of solve; its solver state is freed before the next is built."""
        nodes = problems(d, psi)
        if hint is None:
            hint = _marginal_hint(nodes.marginal(math.sqrt(budget)).reshape(-1, g.size), w)
        resp, gap, lam, lo, hi = recovered(nodes, hint, floor)
        rate = _wsum(resp.value, w)
        # the scan only ranks, so its gaps get no held re-solves
        redo = keep & (lo > 0.0) & (gap > RECOVERY_GAP)
        if redo.any():
            # every row of each node whose chosen row differs at lo and hi, save
            # those whose lowest power alone spends the budget
            jump = nodes.powers(np.where(redo, lo, hi))[1] != nodes.powers(hi)[1]
            row = np.flatnonzero(jump[nodes.elem])
            row = row[w[nodes.elem[row] % g.size] * nodes.xl[row] ** 2 < budget]
            e, bound = nodes.elem[row], gap + rate
            for c in (slice(s, s + step) for s in range(0, row.size, step)):
                p = e[c] // g.size
                held = problems(d[p], psi[p])
                held.hold(np.arange(p.size) * g.size + e[c] % g.size, row[c] - nodes.start[e[c]])
                r = recovered(held, (lo[p], hi[p]), floor)[0]
                v = np.where(_wsum(r.power, w) <= budget * (1.0 + BUDGET_TOL), _wsum(r.value, w),
                             -np.inf)
                for i, q in enumerate(p):
                    if v[i] > rate[q]:
                        rate[q], gap[q] = v[i], bound[q] - v[i]
                        resp.value[q], resp.power[q] = r.value[i], r.power[i]
        return (rate, _wsum(nodes.slope(resp.power), w), lo * 0.997, hi * 1.003, lam,
                gap) + ((resp,) if keep else ())

    def solve(d, psi, floor, hint=None, keep=False):
        """Recovered solves of problems (d, psi): rates, slopes dV/dpsi, widened
        brackets, multipliers, gaps and, when keep, the responses."""
        out = [chunk(d[c], psi[c], floor, None if hint is None else (hint[0][c], hint[1][c]),
                     keep) for c in (slice(s, s + step) for s in range(0, d.size, step))]
        cat = [np.concatenate(z) for z in list(zip(*out))[:6]]
        if keep:
            cat.append(_Response(*(np.concatenate([getattr(o[6], f) for o in out])
                                   for f in ("value", "power", "rho1", "rho2"))))
        return cat

    # the scan ranks the grid's psi values: after the recovery a bracket floor
    # of 1e-3 leaves its rates off by O(1e-6 lam B)
    coarse, c_slope, c_lo, c_hi, _, _ = solve(np.repeat(ds, k), np.tile(psi_grid, ds.size), 1e-3)
    row = np.arange(ds.size) * k
    basin = np.argmax(coarse.reshape(ds.size, k), axis=1)
    best_v, f0, h_lo, h_hi, lam, gap, resp = solve(
        ds, psi_grid[basin], RECOVERY_FLOOR, (c_lo[row + basin], c_hi[row + basin]), True)
    # bracket [a, b] between the basin and the neighbour across which dV/dpsi
    # changes sign; a basin without one keeps its grid point
    right = f0 > 0.0
    nb = np.where(right, np.minimum(basin + 1, k - 1), np.maximum(basin - 1, 0))
    f_nb = c_slope[row + nb]
    a, b = np.where(right, psi_grid[basin], psi_grid[nb]), np.where(right, psi_grid[nb],
                                                                     psi_grid[basin])
    fa, fb = np.where(right, f0, f_nb), np.where(right, f_nb, f0)
    active = (fa > 0.0) & (fb < 0.0)
    side = np.zeros(ds.size)
    for _ in range(60):
        if not active.any():
            break
        i = np.flatnonzero(active)
        x = b[i] - fb[i] * (b[i] - a[i]) / (fb[i] - fa[i])
        v, fx, h_lo[i], h_hi[i], lm, gp, r = solve(ds[i], x, RECOVERY_FLOOR,
                                                   (h_lo[i], h_hi[i]), True)
        up = v > best_v[i]
        best_v[i] = np.where(up, v, best_v[i])
        lam[i] = np.where(up, lm, lam[i])
        gap[i] = np.where(up, gp, gap[i])
        for f in ("value", "power", "rho1", "rho2"):
            getattr(resp, f)[i] = np.where(up[:, None], getattr(r, f), getattr(resp, f)[i])
        # Illinois: halve the value at an end that is kept twice in a row
        pos = fx > 0.0
        fb[i] = np.where(pos & (side[i] > 0), 0.5 * fb[i], fb[i])
        fa[i] = np.where(~pos & (side[i] < 0), 0.5 * fa[i], fa[i])
        a[i], fa[i] = np.where(pos, x, a[i]), np.where(pos, fx, fa[i])
        b[i], fb[i] = np.where(pos, b[i], x), np.where(pos, fb[i], fx)
        side[i] = np.where(pos, 1.0, -1.0)
        active[i] = (b[i] - a[i] > PSI_TOL) & (fx != 0.0)
    return resp, lam, gap


def _solve_adaptive(g, w, d, budget, ch, base):
    """Per-node (rho1, rho2, P) mode: exact responses to each multiplier, then recovery.

    One AdaptiveRho lives for the solve, so each response starts from the
    previous ones and no result depends on an earlier solve.
    """
    budgets = np.array([budget])
    nodes = AdaptiveRho(g, d, ch, base)

    def respond(lam):
        P, psi, dP = nodes.powers(float(lam[0]))
        return dataclasses.replace(_arc_response(nodes, P, psi), dpower=dP[None])

    hint = _marginal_hint(arc_marginal(g, math.sqrt(budget), d, ch, base)[None], w)
    resp, lam, (lo, hi) = _dual_solve(respond, w, budgets, hint, RECOVERY_FLOOR)
    resp, gap = _recover(respond, lambda P: _arc_response(nodes, P[0], nodes.psi(P[0])), w,
                         budgets, resp, lo, hi)
    return resp, lam, gap


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
    # an integer budget would give the solver integer arrays
    P_budget = float(P_budget)
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

    if mode == "fixed-rho":
        resp, lam, gap = _solve_fixed(g, w, np.array(ds, dtype=float), P_budget, ch, base)
        solved = [(resp, b, lam[b], gap[b]) for b in range(len(ds))]
    else:
        solved = []
        for d in ds:
            resp, lam, gap = _solve_adaptive(g, w, d, P_budget, ch, base)
            solved.append((resp, 0, lam[0], gap[0]))

    out = []
    for d, (resp, b, lam, gap) in zip(ds, solved):
        power, value = resp.power[b], resp.value[b]
        # the rate at P = 0 is rho-independent: canonicalize silent nodes to (0, 0)
        zero = power == 0.0
        rho1 = np.where(zero, 0.0, resp.rho1[b])
        rho2 = np.where(zero, 0.0, resp.rho2[b])
        # the solvers' x*x disk tests can pass pairs that the policy's checks reject
        rho1, rho2 = zip(*(_into_disk(float(a), float(c)) for a, c in zip(rho1, rho2)))
        rate = float(w @ value)
        policy = PerStatePolicy(rule.nodes, rule.weights, tuple(power), rho1, rho2)
        warnings = () if gap <= RECOVERY_GAP else (
            f"duality gap: rate {gap:.3g} below the weak-duality bound at lam={lam:.6g}",)
        out.append(RateSolution(rate=rate, policy=policy, feasible=rate >= 0.0, mode=mode,
                                d=d, lam=float(lam), power=float(w @ power),
                                per_node_kappa=tuple(bool(v >= 0.0) for v in value),
                                warnings=warnings))
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
    """Smallest average budget attaining rate >= R_target at distortion parameter d = D_target.

    Every solve is maximize_rate at d = D_target. The search starts at
    warm_lo, a lower bound from a neighbouring cell that is returned at once
    if it reaches the target, or else at the noise power sigma_z2, the
    natural unit of P (rates are invariant under a joint scale of Q, d,
    sigma_z2 and P). The solved budgets bracket the answer: lo is the
    largest that misses the target (at first the zero budget) and hi the
    smallest that reaches it. Each next budget is the Newton step from the
    last solve, whose multiplier lam is the slope dR*/dB. A step outside the
    open bracket, or lam = 0, falls back to x4 from lo while hi is unknown
    (capped at p_cap), /4 from hi while lo = 0 (floored at POWER_FLOOR *
    sigma_z2), and the midpoint otherwise. Returns hi once hi - lo <=
    POWER_RTOL * hi or hi <= POWER_FLOOR * sigma_z2, so maximize_rate at the
    answer reaches the target.
    Each budget is solved at most once, and none above p_cap; raises
    UnreachableError when p_cap misses.
    """
    if R_target < 0:
        raise ConfigError("R_target must be nonnegative")
    if not (ch.d_min <= D_target <= ch.Q):
        raise ConfigError(f"D_target={D_target} outside ({ch.d_min:g}, {ch.Q}]")

    def solve(p: float) -> RateSolution:
        return maximize_rate(ch, fading, D_target, p, mode=mode, nodes=nodes, base=base)

    if solve(0.0).rate >= R_target:
        return 0.0
    warm, floor = max(warm_lo or 0.0, 0.0), POWER_FLOOR * ch.sigma_z2
    lo, hi, p = 0.0, math.inf, float(warm or min(ch.sigma_z2, p_cap))
    while True:
        sol = solve(p)
        excess = sol.rate - R_target
        if excess >= 0.0:
            if p == warm:
                return p
            hi = p
        elif p >= p_cap:
            raise UnreachableError(
                f"rate {R_target} at distortion {D_target} unreachable below budget {p_cap:g}")
        else:
            lo = p
        if hi * (1.0 - POWER_RTOL) <= lo or hi <= floor:
            return hi
        # Newton on a concave R* lands below the root from either side, so a
        # step moves at least POWER_RTOL / 2 relative toward the root and one
        # can cross it; lam = 0 gives no step, and lo lies outside the bracket
        step = lo
        if sol.lam > 0.0:
            step = p + math.copysign(max(abs(excess) / sol.lam, 0.5 * POWER_RTOL * p), -excess)
        if lo < step < min(hi, p_cap):
            p = step
        elif hi == math.inf:
            p = min(4.0 * lo, p_cap)
        elif lo == 0.0:
            p = max(hi / 4.0, floor)
        else:
            p = 0.5 * (lo + hi)


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
            p = None
            if prev_rate[d] is not None and larger_d is not None:
                try:
                    p = min_power(ch, fading, r, d, mode=mode, nodes=nodes, base=base,
                                  warm_lo=max(prev_rate[d], larger_d))
                except UnreachableError:
                    pass
            out[(r, d)] = prev_rate[d] = larger_d = p
    return out
