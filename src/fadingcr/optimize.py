"""Ergodic rate maximization, minimum power and trade-off frontiers.

Power allocation across fading states is solved by Lagrangian decomposition
(Goldsmith & Varaiya, IEEE Trans. IT 1997; Palomar & Fonollosa, IEEE Trans.
SP 2005). For a multiplier lam every node maximizes rate - lam*P exactly,
with no power table and no cap (responses.py), and lam is found by a
safeguarded Newton iteration in ln lam on one constraint row, starting from
the mean marginal rate at uniform power; the responses supply each node's
dP/dlam. maximize_rate meets the average-power budget sum_i w_i P_i <= B.
min_power meets the rate target sum_i w_i R_i >= R_t: its Lagrangian
sum_i w_i (P_i - mu R_i) + mu R_t has, with lam = 1/mu, the same per-node
minimizers, so it is one multiplier search too, followed by one
maximize_rate at the answer as a check. The iteration runs on a batch of
independent problems at once (every d of a distortion grid, and in
fixed-rho mode every (d, psi)), each with its own multiplier bracket and
stop test. A primal-recovery step then meets each row exactly: it mixes the
responses that the search evaluated at the two ends of its final bracket. The weak-duality bound at the
final multiplier certifies each solve. In fixed-rho mode a node's response
can jump across its concave-hull segment; a problem that stays more than
RECOVERY_GAP from its bound is solved again once for each row (a branch or
P = 0) of each jumping node, with that node held on that row and the others
free, and the best of these wins. A solve still more than RECOVERY_GAP
below its bound carries a "duality gap" warning.

The rate is maximized on the disk boundary rho = (cos psi, sin psi),
|psi| <= pi/2, whenever g^2 P > 0; degenerate flat cases are canonicalized
to (0, 0). In adaptive-rho mode each node takes its own psi*(P); fixed-rho
mode takes the best psi of a 25-point scan over psi <= 0, where every optimum
lies (the rate at -|psi| is never below that at |psi|), from each distortion's
certified floor (responses.psi_floor; below it every node's rate rises in
psi), screened by weak duality, and refines it between its grid neighbours by
a bracketed Newton search (responses.newton), on its exact envelope
curvature, for a zero of the envelope derivative dV/dpsi. Both modes run one
search-and-recovery path (_solved) on one responses object per solve, which
keeps each node's response to its last multiplier and starts its next power
solve from it. All searches are deterministic.
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
from .responses import AdaptiveRho, FixedRho, arc_psi, newton, psi_floor

MODES = ("fixed-rho", "adaptive-rho")

#: Relative tolerance within which an allocation's spent power meets its budget.
BUDGET_TOL = 1e-9

#: Default distortion grid: 50 log-spaced values in [1e-3 Q, Q].
DEFAULT_GRID_POINTS = 50
DEFAULT_GRID_FLOOR = 1e-3

#: Largest budget min_power solves.
POWER_CAP = float(2 ** 16)

#: Twice the least relative step of min_power's budget: from its search's
#: spend to the first check solve, and from a check that misses its target to
#: the next. The search meets the target to the last bit, and the check's own
#: rate is rough near P_min (5e-13 relative in P on Fig. 3's grid, and up to
#: ~3e-9 from the inner solvers' tolerances): a check at the spend itself
#: missed in 24 of that grid's 54 cells. A smaller step chases the roughness.
POWER_RTOL = 1e-8

#: Multiplier bracket floor of the solvers' Newton iterations. The primal
#: recovery mixes the responses at the bracket ends, which moves every
#: continuous node along its response curve to second order in the bracket
#: width; both allocations spend the budget, so the rate is off by the
#: fourth order.
RECOVERY_FLOOR = 1e-6

#: (problem, node) rows per chunk: a batch of problems is solved in chunks, so
#: the working set does not grow with the distortion grid. A chunk of the
#: fixed-rho psi scan holds 1.5 CHUNK_ROWS rows (48 problems at 64 nodes, 24 at
#: 128), cut across distortions, so on any grid that fills one the scan, not a
#: refinement chunk, sets the peak.
CHUNK_ROWS = 2 ** 11

#: Certified duality gap, in rate units, above which a fixed-rho problem is
#: solved again with each node that jumps across its concave-hull segment
#: held on each of its rows, and above which a solve warns. Measured gaps are
#: either below 3e-13 or above 1e-7.
RECOVERY_GAP = 1e-12

#: Width in psi at which the fixed-rho Newton search for dV/dpsi = 0 stops: its
#: bracket's, or its step's, which leaves V about |V''| PSI_TOL^2 / 2 short.
PSI_TOL = 1e-7


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
    """Per-node best response to a multiplier: rates, powers, rho pair, dP/dlam and the
    row each element took (pick; set only in a FixedRho's responses to a multiplier).

    dpower defaults to zeros, the value of a response without a derivative.
    """

    value: np.ndarray
    power: np.ndarray
    rho1: np.ndarray
    rho2: np.ndarray
    dpower: np.ndarray | None = None
    pick: np.ndarray | None = None

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
    pairs = ((getattr(new, f.name), getattr(old, f.name)) for f in dataclasses.fields(new))
    return _Response(*(None if a is None or b is None else np.where(r, a, b) for a, b in pairs))


def _concat(rs: Sequence[_Response]) -> _Response:
    """The rows of responses rs, in order (without dP/dlam)."""
    return _Response(*(np.concatenate([getattr(r, f) for r in rs])
                       for f in ("value", "power", "rho1", "rho2")))


def _marginal_hint(m: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multiplier brackets (lo, hi) for _dual_solve from the marginal rates m at uniform
    power, one row per problem: their mean is near the problem's multiplier."""
    est = _wsum(np.maximum(m, 0.0), weights)
    return 0.8 * est, 1.25 * est


def _dual_solve(respond: Callable[[np.ndarray], _Response], weights: np.ndarray,
                target: np.ndarray, hint: tuple[np.ndarray, np.ndarray], floor: float,
                rate: bool = False, stop: Callable | None = None
                ) -> tuple[_Response, _Response, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Safeguarded Newton iteration on the multipliers of a batch of independent problems.

    respond maps one multiplier per problem to a _Response with one row per
    problem. Each problem meets one constraint row: its budget, the spent
    power sum_i w_i P_i <= target, or when rate its rate target
    sum_i w_i R_i >= target. Both the spent power and the rate fall as lam
    rises. hint is a (lo, hi) pair of multiplier vectors near the
    solutions, from nearby solves or from _marginal_hint; a problem whose hi
    is not positive takes (0, 1). Each problem starts at the middle of its
    hint and keeps a bracket of evaluated multipliers: lo, the largest at
    which the row exceeds its target (at first 0; for a rate target, reaches
    it), and hi, the smallest at which it does not (at first none). The next
    multiplier is the Newton step on the row in u = ln lam, with the slope
    lam * sum_i w_i dP_i/dlam of the spent power from the response's dpower,
    or lam * sum_i w_i R_i' dP_i/dlam of the rate, where R_i' = lam on a
    branch: the spent power goes as C/lam, or as a - b ln lam where nodes
    saturate, so the step is near exact and stays positive from a start far
    above the root. It is moved at least floor/2 in u toward the root, so
    that it can cross it. A step outside the open bracket, a slope that is
    not negative, or a step longer than half the one before it in u (as in
    Numerical Recipes' rtsafe: a jumping power's slope misleads) falls back
    to x2 from lo while there is no hi and to the midpoint otherwise.
    The power may jump and never meet the row, so each problem stops on its
    own bracket: narrower than floor relative, or hi below 1e-12 of its
    hint's hi, where its multiplier counts as 0. A problem that lam = 0
    leaves within budget, or whose rate at lam = 0 misses its target, is done
    at 0. stop, when given, maps each evaluated multiplier vector and its
    response to the problems that need no more evaluations (a screen); such
    a problem is done at that multiplier, which it keeps as the closed
    bracket (lam, lam), with that response. A stopped problem is passed its
    last evaluated multiplier again, and that response is not taken, so a
    memoizing respond leaves it as it was: each problem sees the same
    multipliers in any batch, and a screen changes no other problem.
    Returns the feasible responses (at hi for a budget, at lo for a rate target; for an
    unreachable rate target, at 0), those at the other bracket ends (a stopped
    problem's at its stop), the multipliers and the brackets, which can seed
    the next solves; _recover meets the rows exactly from both ends.
    """
    zero = np.zeros_like(target)
    resp = other = respond(zero)
    if rate:
        free = _wsum(resp.value, weights) < target
    else:
        free = _wsum(resp.power, weights) <= target * (1.0 + BUDGET_TOL)
    if free.all():
        return resp, other, zero, (zero, zero)

    seeded = hint[1] > 0.0
    cut = 1e-12 * np.where(seeded, hint[1], 1.0)
    # a free problem is done, at its last evaluated multiplier 0
    lam = np.where(free, 0.0, np.where(seeded, 0.5 * (hint[0] + hint[1]), 0.5))
    lo, hi, last, done = zero, np.where(free, 0.0, np.inf), np.full_like(target, np.inf), free
    for _ in range(200):
        r = respond(lam)
        excess = _wsum(r.value if rate else r.power, weights) - target
        # lam lies below the root: the row still exceeds its target
        below = excess >= 0.0 if rate else excess > 0.0
        halt = ~done & stop(lam, r) if stop is not None else np.zeros_like(done)
        feas = below if rate else ~below  # the rows whose feasible end moves to lam
        resp, other = _take(r, resp, ~done & (feas | halt)), _take(r, other, ~done & (~feas | halt))
        lo, hi = np.where(done | ~below, lo, lam), np.where(done | below, hi, lam)
        lo, hi = np.where(halt, lam, lo), np.where(halt, lam, hi)
        # the slope of the excess in u = ln lam
        slope = lam * _wsum(r.dpower, weights)
        if rate:
            slope = lam * slope
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = np.abs(excess / slope)
            up = np.where(below, 1.0, -1.0)
            step = lam * np.exp(up * np.maximum(newton, 0.5 * floor))
            ok = (slope < 0.0) & (newton <= 0.5 * last) & (lo < step) & (step < hi)
            nxt = np.where(ok, step, np.where(hi == np.inf, 2.0 * lo, 0.5 * (lo + hi)))
            last = np.where(ok, newton, np.abs(np.log(nxt / lam)))
        done = ((hi - lo <= floor * hi) & (hi < np.inf)) | (hi <= cut)
        if done.all():
            break
        lam = np.where(done, lam, nxt)
    return resp, other, lo if rate else hi, (lo, hi)


def _illinois(fun: Callable, a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray,
              active: np.ndarray, tol: float) -> None:
    """Illinois regula falsi on a batch of brackets [a, b], in place.

    fun(i, x) returns the values of problems i at x. Each active problem has
    values fa and fb of opposite signs at its ends, and x replaces the end
    whose value has the sign of x's; an end kept twice in a row has its
    value halved. A problem stops once its bracket is within tol or its
    value is 0, after at most 60 steps.
    """
    side = np.zeros(a.size)
    for _ in range(60):
        if not active.any():
            break
        i = np.flatnonzero(active)
        x = b[i] - fb[i] * (b[i] - a[i]) / (fb[i] - fa[i])
        fx = fun(i, x)
        pos = np.where(fa[i] > 0.0, fx > 0.0, fx < 0.0)
        fb[i] = np.where(pos & (side[i] > 0), 0.5 * fb[i], fb[i])
        fa[i] = np.where(~pos & (side[i] < 0), 0.5 * fa[i], fa[i])
        a[i], fa[i] = np.where(pos, x, a[i]), np.where(pos, fx, fa[i])
        b[i], fb[i] = np.where(pos, b[i], x), np.where(pos, fb[i], fx)
        side[i] = np.where(pos, 1.0, -1.0)
        active[i] = (b[i] - a[i] > tol) & (fx != 0.0)


def _recover(rebuild: Callable, weights: np.ndarray, target: np.ndarray, resp: _Response,
             other: _Response, lo: np.ndarray, hi: np.ndarray, rate: bool = False
             ) -> tuple[_Response, np.ndarray]:
    """Primal recovery: meet each problem's constraint row exactly after _dual_solve.

    resp and other are _dual_solve's responses at each bracket's ends. For
    a budget, resp at hi is within budget, and other, at lo, exceeds it. The
    mixture of the two powers that spends the budget moves the continuous
    nodes across the bracket's width, and gives a node that jumps across its
    concave-hull segment the power that closes the budget.
    For a rate target, resp is the response at lo, which reaches it, and
    other, at hi, misses it. The rate of their mixture is not linear in its
    weight t, so t solves rate(t) = target by an Illinois regula falsi on
    [0, 1], and the mixture at the end of its bracket that reaches the
    target is kept. rebuild maps powers to a _Response. By weak duality
    (Yu & Lui, IEEE Trans. Commun. 2006) the Lagrangian at resp's multiplier
    m, L = sum_i w_i (R_i - m P_i) + m B over resp, bounds every rate within
    the budget B, and (L - target) / m bounds from below the spend of every
    allocation that reaches a rate target. Returns the responses and each
    problem's certified gap in rate units: L at the budget minus the rate,
    or for a rate target L at the recovered spend minus the target.
    """
    m = lo if rate else hi
    # an unreachable rate target leaves m = 0 and powers that may be inf
    with np.errstate(invalid="ignore"):
        lagr = _wsum(resp.value - m[:, None] * resp.power, weights)
    if not rate:
        bound = lagr + hi * target
        spent = _wsum(resp.power, weights)
        rows = (lo > 0.0) & (spent < target)
        if rows.any():
            over = _take(other, resp, rows)
            extra = _wsum(over.power, weights) - spent
            t = np.where(rows & (extra > 0.0),
                         (target - spent) / np.where(extra > 0.0, extra, 1.0), 0.0)
            cand = rebuild(resp.power + np.minimum(t, 1.0)[:, None] * (over.power - resp.power))
            resp = _take(cand, resp, rows & (_wsum(cand.value, weights)
                                             >= _wsum(resp.value, weights)))
        return resp, bound - _wsum(resp.value, weights)

    fb = _wsum(resp.value, weights) - target
    act = (lo > 0.0) & (hi < np.inf) & (fb > 0.0)
    if act.any():
        short = _take(other, resp, act)
        fa = _wsum(short.value, weights) - target
        # the mixture base + t step misses the target at t = 0 and reaches it at
        # t = 1; the other problems keep resp, whose powers may be inf
        base = np.where(act[:, None], short.power, resp.power)
        with np.errstate(invalid="ignore"):
            step = np.where(act[:, None], resp.power - short.power, 0.0)

        def at(i, t):
            nonlocal resp
            x = np.zeros_like(lo)
            x[i] = t
            cand = rebuild(base + x[:, None] * step)
            fc = _wsum(cand.value, weights) - target
            # keep a mixture that reaches the target with less power
            keep = np.zeros(lo.size, dtype=bool)
            keep[i] = True
            resp = _take(cand, resp, keep & (fc >= 0.0) & (_wsum(cand.power, weights)
                                                             <= _wsum(resp.power, weights)))
            return fc[i]

        _illinois(at, np.zeros_like(lo), np.ones_like(lo), fa, fb, act & (fa < 0.0), 1e-14)
    with np.errstate(invalid="ignore"):
        return resp, lagr + m * _wsum(resp.power, weights) - target


def _response(nodes: FixedRho | AdaptiveRho, P: np.ndarray, psi=None) -> _Response:
    """The response, one row per problem, of nodes at per-element powers P: at FixedRho's
    rho, or at AdaptiveRho's arc angles psi (psi*(P) when None; FixedRho ignores psi).
    An unbounded power (lam = 0) has the rate's limit."""
    P = np.asarray(P, dtype=float).reshape(-1)
    if isinstance(nodes, FixedRho):
        rho1, rho2 = nodes.rho1, nodes.rho2
    else:
        psi = nodes.psi(P) if psi is None else psi
        rho1, rho2 = np.cos(psi), np.sin(psi)
    fin = np.isfinite(P)
    value = _rates(nodes.g, np.where(fin, P, 0.0), rho1, rho2, nodes.d, nodes.ch, nodes.base)
    if not fin.all():
        # the kernel's 0.5 log(d A / (Q B)) tends to c ln(a2 / b2) + c ln(d / Q)
        d = nodes.d[~fin]
        value[~fin] = nodes.top(np.flatnonzero(~fin)) + nodes.c * np.log(d / (nodes.ch.Q - d + d))
    return _Response(*(z.reshape(-1, nodes.n) for z in (value, P, rho1, rho2)))


def _solved(nodes: FixedRho | AdaptiveRho, w: np.ndarray, target: float, start: float,
            floor: float, rate: bool, hint: tuple | None = None, stop: Callable | None = None):
    """_dual_solve from hint (or from the marginal rates at the budget start) and _recover
    over the problems of nodes: the responses, certified gaps, multipliers, brackets and,
    of a FixedRho, the elements whose rows differ at the bracket's ends (None otherwise)."""
    targets = np.full(nodes.g.size // nodes.n, target)
    if hint is None:
        hint = _marginal_hint(nodes.marginal(math.sqrt(start)).reshape(-1, nodes.n), w)

    def respond(lam):
        P, aux, dP = nodes.powers(lam)  # aux: FixedRho's picked rows, AdaptiveRho's psi*
        pick = aux.reshape(-1, nodes.n) if isinstance(nodes, FixedRho) else None
        return dataclasses.replace(_response(nodes, P, aux), dpower=dP.reshape(-1, nodes.n),
                                   pick=pick)

    resp, other, lam, (lo, hi) = _dual_solve(respond, w, targets, hint, floor, rate, stop)
    return (*_recover(lambda P: _response(nodes, P), w, targets, resp, other, lo, hi, rate),
            lam, lo, hi, None if resp.pick is None else resp.pick != other.pick)


def _screen_bounds(lam: np.ndarray, r: _Response, weights: np.ndarray, target: float,
                   rate: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weak-duality terms of responses r to multipliers lam, one per problem, in the
    units of _solve_fixed's score (a rate, or minus a spent power): a score that the
    problem's solve certainly reaches (-inf if none), an upper bound on its score,
    and the bound's rounding margin.

    A response that meets the constraint row is matched or beaten by its
    problem's solve: the powers and rates of the responses fall as lam rises,
    and the solve keeps the feasible response of least (budget) or largest
    (rate target) multiplier and recovers from it no worse. Each response
    maximizes R_i - lam P_i over P_i >= 0, so with L = sum_i w_i (R_i - lam P_i)
    (Yu & Lui, IEEE Trans. Commun. 2006) an allocation that spends at most
    B (1 + BUDGET_TOL) has rate at most L + lam B (1 + BUDGET_TOL), and one that
    reaches a rate target R_t spends at least (R_t - L) / lam. At lam = 0, L is
    the rate's supremum, and of a rate target only whether it is unreachable
    is known. The margin is 1e-12 of the sums' magnitude.
    """
    value, spent = _wsum(r.value, weights), _wsum(r.power, weights)
    pos = lam > 0.0
    # lam * sum_i w_i P_i, 0 at lam = 0, where powers may be unbounded
    cost = lam * _wsum(np.where(pos[:, None], r.power, 0.0), weights)
    margin = 1e-12 * (_wsum(np.abs(r.value), weights) + cost)
    if rate:
        # a target far beyond reach overflows the bound to -inf, its right value
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            bound = np.where(pos, (value - cost - target) / lam,
                             np.where(value < target, -np.inf, np.inf))
            margin = np.where(pos, (margin + 1e-12 * target) / lam, 0.0)
        return np.where(value >= target, -spent, -np.inf), bound, margin
    margin = margin + lam * target * (BUDGET_TOL + 1e-12)
    return np.where(spent <= target, value, -np.inf), value - cost + lam * target, margin


def _screened(dom: np.ndarray, at: np.ndarray, k: int) -> np.ndarray:
    """The problems of a chunk of psi scans that its screen stops: those dominated (dom)
    whose psi-neighbours are dominated too, at indices at of k-point scans. A neighbour
    beyond a scan's ends counts as dominated, one beyond the chunk's as undominated. So
    the scan's argmax and both its neighbours are always solved."""
    nb = np.r_[False, dom, False]
    return dom & ((at == 0) | nb[:-2]) & ((at == k - 1) | nb[2:])


def _envelope(nodes: FixedRho, P: np.ndarray, w: np.ndarray, lam: np.ndarray,
              rate: bool) -> tuple[np.ndarray, np.ndarray]:
    """dV/dpsi = f = sum_i w_i R_psi of every problem at its powers P (unbounded ones count
    as 0), and its curvature f' along the row's solution. An interior node (P_i > 0,
    R_PP < 0) keeps R_P = lam, so it moves by dP_i/dpsi = D_i (lam' - R_Ppsi) with
    D_i = 1/R_PP (0 at other nodes): f' = sum_i w_i [R_psipsi + R_Ppsi D_i (lam' - R_Ppsi)],
    where the row fixes lam' = (sum_i w_i D_i R_Ppsi + s) / sum_i w_i D_i, with s = 0
    on the budget row and s = -f/lam on the rate row."""
    P = np.where(np.isfinite(P), P, 0.0)
    r_p, r_pp, r_xp, r_xx = nodes.psi_terms(P)
    f, inner = _wsum(r_p, w), (P > 0.0) & (r_xx < 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        dr, D = np.where(inner, r_xp / r_xx, 0.0), np.where(inner, 1.0 / r_xx, 0.0)
        lam1 = (_wsum(dr, w) + (-f / lam if rate else 0.0)) / _wsum(D, w)
        return f, _wsum(r_pp + np.where(inner, dr * (lam1[:, None] - r_xp), 0.0), w)


def _solve_fixed(g, w, ds, target, ch, base, start=None):
    """Shared-(rho1, rho2) mode for every distortion in ds at once.

    Each (d, psi) problem meets one constraint row (_dual_solve): the budget target or,
    when start is given, the rate target at the least spent power, with the multiplier
    search started from the marginal rates at the budget start. A problem's score is its
    rate within the budget, or minus its spent power where it reaches the rate target
    (-inf elsewhere). Two stages per distortion. The scan ranks psi over the first 25
    points of arcsin(linspace(-1, 1, 49)), those with psi <= 0, and keeps only its best
    psi (the basin) and that problem's multiplier bracket. No psi > 0 can win: with
    a = g sqrt(P), u = sqrt(Q - d) and v = sqrt(d), the rate's A - B =
    (a cos psi + u)^2 >= 0, and flipping the sign of sin psi changes A and B by the same
    4 a v sin psi, so R(P, -|psi|) >= R(P, |psi|) at every node and power, and the score
    at -|psi| is never below that at |psi| on either row. Nor can a psi below the
    distortion's certified floor (responses.psi_floor), where every node's rate still
    rises in psi, so the scan starts there. Its (d, psi) problems are solved 1.5
    CHUNK_ROWS rows at a time, cut across distortions; the first best score wins. The
    scan is screened by weak duality (_screen_bounds): a problem whose bound, and both
    its psi-neighbours' bounds, lie below the best score that the scan certainly reaches
    at its distortion stops at its current multiplier and scores -inf (the floor counts
    as a grid end, a neighbour in another chunk as undominated). The argmax always
    finishes, with the same multipliers as unscreened, so the screen changes no output bit.
    The refinement is one bracketed Newton search (responses.newton) from the basin,
    between its grid neighbours (in [psi_23, 0] for a basin at psi = 0, the grid's last
    point, where dV/dpsi <= 0 by the same identity), for a zero of dV/dpsi =
    sum_i w_i dR_i/dpsi at the recovered powers, on its exact curvature (_envelope); for a
    rate target the spent power's envelope derivative is -dV/dpsi / lam, so the same
    search serves. It stops once its bracket or its step is within PSI_TOL or dV/dpsi = 0,
    and the best score it evaluated wins. Each round solves CHUNK_ROWS (problem, node)
    rows at a time. A problem whose certified gap exceeds RECOVERY_GAP is solved again
    once for each row of each node whose chosen row differs at the bracket's ends, with
    that node held on that row (FixedRho.hold) and the others free; the best score wins,
    and its gap is the first solve's bound minus its score (in rate units). Returns the
    responses (one row per distortion), the multipliers and the certified duality gaps.
    """
    rate, start = start is not None, target if start is None else start
    psi_grid = np.arcsin(np.linspace(-1.0, 1.0, 49))[:25]  # psi <= 0
    k = psi_grid.size
    step = max(1, CHUNK_ROWS // g.size)

    def problems(d, psi):
        """The best responses of problems (d, psi), one element per (problem, node)."""
        return FixedRho(np.tile(g, d.size), np.repeat(d, g.size), np.repeat(psi, g.size),
                        g.size, ch, base)

    def score(r):
        value, spent = _wsum(r.value, w), _wsum(r.power, w)
        if rate:
            return np.where(value >= target, -spent, -np.inf)
        return np.where(spent <= target * (1.0 + BUDGET_TOL), value, -np.inf)

    # the scan's problems, from each distortion's floor; and per distortion the best
    # score it certainly reaches, its best score (nan before its first), basin and bracket
    low = psi_floor(ds, psi_grid, ch)
    di, at = np.nonzero(np.arange(k) >= low[:, None])
    sure, top = np.full(ds.size, -np.inf), np.full(ds.size, np.nan)
    basin, hint = np.empty_like(low), np.empty((2, ds.size))

    def scan(c):
        """Rank the scan problems c, keeping per distortion the first of its best scores.
        The scan only ranks: after the recovery a bracket floor of 1e-3 leaves its rates
        off by O(1e-6 lam B). Its FixedRho is freed before the next chunk's is made."""
        p, j = di[c], at[c]
        nodes = problems(ds[p], psi_grid[j])
        dom = np.zeros(j.size, dtype=bool)

        def stop(lam, r):
            reach, bound, margin = _screen_bounds(lam, r, w, target, rate)
            np.maximum.at(sure, p, reach)
            dom[:] |= bound + margin < sure[p]
            return _screened(dom, j - low[p], k - low[p])

        resp, _, _, lo, hi, _ = _solved(nodes, w, target, start, 1e-3, rate, None, stop)
        v = score(resp)
        # a screened problem's score lies below the scan's best: it drops out
        v[_screened(dom, j - low[p], k - low[p])] = -np.inf
        for i, q in enumerate(p):
            if not v[i] <= top[q]:
                top[q], basin[q], hint[:, q] = v[i], j[i], (lo[i], hi[i])

    def refined(d, psi, hint):
        """Recovered solves of problems (d, psi) from brackets hint, with held re-solves:
        responses, scores, multipliers, gaps, brackets, dV/dpsi and its curvature."""
        nodes = problems(d, psi)
        resp, gap, lam, lo, hi, jump = _solved(nodes, w, target, start, RECOVERY_FLOOR, rate,
                                               hint)
        best = score(resp)
        redo = (lo > 0.0) & (gap > RECOVERY_GAP)
        if redo.any():
            # every row of each node whose chosen row differs at lo and hi, save
            # those whose lowest power alone spends the budget (or the spend to beat)
            row = np.flatnonzero((jump & redo[:, None]).reshape(-1)[nodes.elem])
            cap = _wsum(resp.power, w) if rate else np.full(lo.size, target)
            row = row[w[nodes.elem[row] % g.size] * nodes.xl[row] ** 2
                      < cap[nodes.elem[row] // g.size]]
            # a gap in rate units: the score's, times lam for a spent power
            unit = lam if rate else np.ones_like(lam)
            e, bound = nodes.elem[row], gap + unit * best
            for c in (slice(s, s + step) for s in range(0, row.size, step)):
                p = e[c] // g.size
                held = problems(d[p], psi[p])
                held.hold(np.arange(p.size) * g.size + e[c] % g.size, row[c] - nodes.start[e[c]])
                r = _solved(held, w, target, start, RECOVERY_FLOOR, rate, (lo[p], hi[p]))[0]
                v = score(r)
                for i, q in enumerate(p):
                    if v[i] > best[q]:
                        best[q], gap[q] = v[i], bound[q] - unit[q] * v[i]
                        resp.value[q], resp.power[q] = r.value[i], r.power[i]
        return resp, best, lam, gap, (lo, hi), *_envelope(nodes, resp.power, w, lam, rate)

    per = max(1, 3 * CHUNK_ROWS // (2 * g.size))
    for s in range(0, di.size, per):
        scan(slice(s, s + per))
    resp = _Response(*np.zeros((4, ds.size, g.size)))
    # nan until a distortion's first solve, whose responses it keeps whatever their score
    best, lam, gap = np.full(ds.size, np.nan), np.zeros(ds.size), np.zeros(ds.size)

    def fun(psi, i):
        """dV/dpsi and its curvature at psi of distortions i, each solved from its last
        widened bracket; a distortion keeps the responses of its best score."""
        f, df = np.empty(i.size), np.empty(i.size)
        for c in (slice(s, s + step) for s in range(0, i.size, step)):
            p = i[c]
            r, v, lm, gp, hint[:, p], f[c], df[c] = refined(ds[p], psi[c],
                                                            hint[:, p] * [[0.997], [1.003]])
            up = np.isnan(best[p]) | (v > best[p])
            best[p[up]], lam[p[up]], gap[p[up]] = v[up], lm[up], gp[up]
            for name in ("value", "power", "rho1", "rho2"):
                getattr(resp, name)[p[up]] = getattr(r, name)[up]
        return f, df

    newton(fun, psi_grid[basin], psi_grid[np.maximum(basin - 1, 0)],
           psi_grid[np.minimum(basin + 1, k - 1)], PSI_TOL)
    return resp, lam, gap


def _solve_adaptive(g, w, ds, target, ch, base, start=None):
    """Per-node (rho1, rho2, P) mode for every distortion in ds at once (_solved), on the
    budget row or, when start is given, the rate row, as in _solve_fixed, CHUNK_ROWS
    rows at a time. One AdaptiveRho serves a chunk's solve, so no result depends on an
    earlier solve or on the batch."""
    rate, start = start is not None, target if start is None else start
    step = max(1, CHUNK_ROWS // g.size)
    out = [_solved(AdaptiveRho(np.tile(g, c.size), np.repeat(c, g.size), g.size, ch, base), w,
                   target, start, RECOVERY_FLOOR, rate)
           for c in np.split(ds, range(step, ds.size, step))]
    return _concat([o[0] for o in out]), *(np.concatenate([o[j] for o in out]) for j in (2, 1))


#: Each mode's solver: (g, w, ds, target, ch, base, start=None) -> (responses, lam, gaps).
_SOLVERS = {"fixed-rho": _solve_fixed, "adaptive-rho": _solve_adaptive}


def _solve_grid(ch: ChannelParams, fading: FadingModel, ds: Sequence[float],
                P_budget: float, mode: str, nodes: int, base: float) -> list[RateSolution]:
    """maximize_rate at each distortion of ds, solved as one batch."""
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

    resp, lams, gaps = _SOLVERS[mode](g, w, np.array(ds, dtype=float), P_budget, ch, base)
    out = []
    for b, (d, lam, gap) in enumerate(zip(ds, lams, gaps)):
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
                  mode: str = "fixed-rho", nodes: int = 64, base: float = 2.0) -> RateSolution:
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
              mode: str = "fixed-rho", nodes: int = 64, base: float = 2.0) -> float:
    """Smallest average budget attaining rate >= R_target at distortion parameter d = D_target.

    The problem min E[P] s.t. E[R] >= R_target has the Lagrangian
    sum_i w_i (P_i - mu R_i) + mu R_target. With lam = 1/mu each node's
    minimizer is its best response to lam, as in maximize_rate, so one
    multiplier search on the rate row (_dual_solve) and its recovery give
    the least spend B* that reaches R_target at d = D_target; in fixed-rho
    mode the psi scan ranks by spent power. The search starts from the
    marginal rates at the noise power sigma_z2, the natural unit of P
    (rates are invariant under a joint scale of Q, d, sigma_z2 and P).
    A check solve, maximize_rate at B* (1 + POWER_RTOL/2), keeps the
    contract that maximize_rate at the returned budget reaches R_target: on
    a miss the budget steps up by max((R_target - rate) / lam,
    POWER_RTOL/2 * budget), with the check's lam = dR*/dB, and is checked
    again. No budget above POWER_CAP is solved; raises UnreachableError when
    POWER_CAP misses.
    """
    if not math.isfinite(R_target):
        raise ConfigError(f"rate target {R_target} is not finite")
    if R_target < 0:
        raise ConfigError("R_target must be nonnegative")
    if not (ch.d_min <= D_target <= ch.Q):
        raise ConfigError(f"D_target={D_target} outside [{ch.d_min:g}, {ch.Q}]")
    # an integer target would give the solver integer arrays
    R_target = float(R_target)

    def solve(p: float) -> RateSolution:
        return maximize_rate(ch, fading, D_target, p, mode=mode, nodes=nodes, base=base)

    if solve(0.0).rate >= R_target:
        return 0.0

    rule = make_rule(fading, nodes)
    g, w = np.array(rule.nodes), np.array(rule.weights)
    resp, lam, _ = _SOLVERS[mode](g, w, np.array([D_target], dtype=float), R_target, ch, base,
                                  min(ch.sigma_z2, POWER_CAP))
    p = math.inf
    if _wsum(resp.value, w)[0] >= R_target:
        p = float(w @ resp.power[0]) * (1.0 + 0.5 * POWER_RTOL)
    while True:
        p = min(p, POWER_CAP)
        sol = solve(p)
        if sol.rate >= R_target:
            return p
        if p >= POWER_CAP:
            raise UnreachableError(
                f"rate {R_target} at distortion {D_target} unreachable below budget {POWER_CAP:g}")
        # the check's slope dR*/dB, or the search's where the check has none
        slope = sol.lam or float(lam[0])
        p += max((R_target - sol.rate) / slope if slope > 0.0 else math.inf,
                 0.5 * POWER_RTOL * p)


def power_distortion_curve(ch: ChannelParams, fading: FadingModel,
                           rates: Sequence[float], d_grid: Sequence[float],
                           mode: str = "fixed-rho", nodes: int = 64,
                           base: float = 2.0) -> dict[tuple[float, float], float | None]:
    """min_power over a (rate, distortion) product grid; None marks unreachable cells.

    Processed rate-ascending and distortion-descending. The previous
    answers at the same distortion and at the next larger one bound a cell
    from below (feasible-set nesting): a positive bound that reaches the
    target is the cell's answer, and otherwise min_power solves the cell.
    So the monotonicity of P(R, D) in both arguments holds structurally.
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
                # the neighbours' answers bound this cell's from below
                p = max(prev_rate[d], larger_d)
                if p <= 0.0 or maximize_rate(ch, fading, d, p, mode=mode, nodes=nodes,
                                             base=base).rate < r:
                    try:
                        p = min_power(ch, fading, r, d, mode=mode, nodes=nodes, base=base)
                    except UnreachableError:
                        p = None
            out[(r, d)] = prev_rate[d] = larger_d = p
    return out
