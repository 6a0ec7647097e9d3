import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given
from hypothesis import strategies as st

from fadingcr import optimize, responses
from fadingcr.model import (ChannelParams, CodingParams, ConfigError, Degenerate, Discrete,
                            PerStatePolicy, Rayleigh, in_disk)
from fadingcr.ergodic import avg_power, ergodic_rate, make_rule
from fadingcr.optimize import (POWER_CAP, POWER_RTOL, UnreachableError, _dual_solve, _into_disk, _rates,
                               _Response, concave_envelope, maximize_rate, min_power,
                               optimize_rho_per_state, power_distortion_curve, rd_frontier)
from fadingcr.rate_core import _rate_kernel

CH = ChannelParams(Q=1.0, sigma_z2=1.0, P_avg=2.5)


def brute_disk_max(g, P, d, nr=120, nth=2400):
    r = np.linspace(0.0, 1.0, nr)[:, None]
    th = np.linspace(0.0, 2 * math.pi, nth, endpoint=False)[None, :]
    vals = _rates(g, P, r * np.cos(th), r * np.sin(th), d, CH, 2.0)
    return float(vals.max())


def test_rho_optimum_beats_brute_grid():
    rng = np.random.default_rng(31)
    draws = [(rng.uniform(0.1, 3.5), rng.uniform(0.1, 8.0), rng.uniform(0.01, 1.0))
             for _ in range(12)]
    # extreme budgets, and distortions down to the floor d_min
    draws += [(rng.uniform(0.1, 3.5), 10.0 ** rng.uniform(-8.0, 4.0),
               max(CH.d_min, CH.Q * 10.0 ** rng.uniform(-9.0, 0.0))) for _ in range(12)]
    draws += [(0.1, 1e-8, CH.d_min), (3.5, 1e4, CH.d_min)]
    for g, P, d in draws:
        r1, r2, R = optimize_rho_per_state(g, P, d, CH)
        assert R >= brute_disk_max(g, P, d) - 1e-9
        if (r1, r2) != (0.0, 0.0):
            # the maximizer lies on the arc rho1 = +sqrt(1 - rho2^2)
            assert r1 >= 0.0
            assert abs(r1 * r1 + r2 * r2 - 1.0) <= 1e-12
            assert in_disk(r1, r2)


def test_rho_optimum_zero_power_degenerates():
    r1, r2, R = optimize_rho_per_state(1.0, 0.0, 0.7, CH)
    assert (r1, r2) == (0.0, 0.0)
    assert R == pytest.approx(0.5 * math.log2(0.7 * 2.0 / (1.0 * 1.7)), rel=1e-13)
    assert R <= 0.0
    r1, r2, R = optimize_rho_per_state(0.0, 5.0, 0.7, CH)
    assert (r1, r2) == (0.0, 0.0)


def test_rho_optimum_on_boundary_at_full_distortion():
    r1, r2, R = optimize_rho_per_state(1.0, 2.5, 1.0, CH)
    assert r1 * r1 + r2 * r2 == pytest.approx(1.0, abs=1e-6)
    assert R >= brute_disk_max(1.0, 2.5, 1.0) - 1e-9
    assert R > 0


def test_rho_optimum_dominates_hand_example():
    _, _, R = optimize_rho_per_state(1.0, 2.5, 0.9, CH)
    assert R >= 0.5165


def test_envelope_single_and_collinear():
    assert concave_envelope([(0.5, 1.0)]) == [(0.5, 1.0)]
    pts = [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]
    assert concave_envelope(pts) == pts


def test_envelope_brute_force_oracle():
    rng = np.random.default_rng(33)

    def brute_upper_hull(pts):
        keep = []
        for i, (x, y) in enumerate(pts):
            below = False
            for j in range(len(pts)):
                for k in range(len(pts)):
                    xa, ya = pts[j]
                    xb, yb = pts[k]
                    if xa <= x <= xb and xb > xa:
                        chord = ya + (yb - ya) * (x - xa) / (xb - xa)
                        if chord > y + 1e-12:
                            below = True
            if not below:
                keep.append((x, y))
        return keep

    for _ in range(40):
        n = rng.integers(2, 12)
        xs = np.sort(rng.uniform(0, 1, n))
        ys = rng.uniform(0, 1, n)
        pts = list(zip(xs.tolist(), ys.tolist()))
        env = concave_envelope(pts)
        assert env == brute_upper_hull(pts)
        # majorant property
        exs = [p[0] for p in env]
        eys = [p[1] for p in env]
        for x, y in pts:
            if exs[0] <= x <= exs[-1]:
                assert np.interp(x, exs, eys) >= y - 1e-12


def test_envelope_requires_sorted():
    with pytest.raises(ValueError):
        concave_envelope([(1.0, 0.0), (0.5, 0.0)])


def test_maximize_rate_zero_budget():
    sol = maximize_rate(CH, Degenerate(1.0), CH.Q, 0.0)
    assert sol.rate == 0.0 and sol.feasible
    assert set(sol.policy.power) == {0.0}
    sol = maximize_rate(CH, Degenerate(1.0), 0.5, 0.0)
    assert not sol.feasible and sol.rate < 0


def test_maximize_rate_degenerate_equals_per_state_full_budget():
    sol = maximize_rate(CH, Degenerate(1.0), 0.9, 2.5)
    _, _, ref = optimize_rho_per_state(1.0, 2.5, 0.9, CH)
    assert sol.power == pytest.approx(2.5, rel=1e-9)
    assert sol.rate == pytest.approx(ref, abs=1e-6)


def test_maximize_rate_policy_is_reproducible():
    sol = maximize_rate(CH, Rayleigh(), 0.7, 2.5, nodes=24)
    rule = make_rule(Rayleigh(), 24)
    assert ergodic_rate(rule, sol.policy, 0.7, CH) == pytest.approx(sol.rate, abs=1e-9)
    assert avg_power(rule, sol.policy) <= 2.5 * (1 + 1e-9)


def test_mode_dominance():
    for d in (0.4, 0.9, 1.0):
        fixed = maximize_rate(CH, Rayleigh(), d, 2.5, mode="fixed-rho", nodes=24)
        adaptive = maximize_rate(CH, Rayleigh(), d, 2.5, mode="adaptive-rho", nodes=24)
        assert adaptive.rate >= fixed.rate - 1e-9


def test_budget_monotonicity():
    for mode in ("fixed-rho", "adaptive-rho"):
        for d in (0.5, 1.0):
            rates = [maximize_rate(CH, Rayleigh(), d, P, mode=mode, nodes=24).rate
                     for P in (0.5, 1.0, 2.0, 4.0)]
            assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))


def test_maximize_rate_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        maximize_rate(CH, Rayleigh(), 0.5, 2.5, mode="other")
    with pytest.raises(ConfigError):
        maximize_rate(CH, Rayleigh(), 1.5, 2.5)
    with pytest.raises(ConfigError):
        maximize_rate(CH, Rayleigh(), 0.5, -1.0)
    # the distortion-range messages name the closed interval [d_min, Q], as d_min is accepted
    for solve in (lambda d: maximize_rate(CH, Rayleigh(), d, 2.5),
                  lambda d: min_power(CH, Rayleigh(), 0.3, d)):
        with pytest.raises(ConfigError, match=r"outside \[1e-09, 1.0\]"):
            solve(1.5)


def test_frontier_envelope_properties():
    grid = np.geomspace(0.05, 1.0, 10)
    fr = rd_frontier(CH, Rayleigh(), 2.5, grid=grid, nodes=16)
    ds = fr.distortions()
    rs = fr.rates()
    assert ds == sorted(ds)
    assert all(b >= a - 1e-12 for a, b in zip(rs, rs[1:]))  # nondecreasing
    # concavity of the vertex chain
    for i in range(1, len(ds) - 1):
        left = (rs[i] - rs[i - 1]) / (ds[i] - ds[i - 1])
        right = (rs[i + 1] - rs[i]) / (ds[i + 1] - ds[i])
        assert right <= left + 1e-9
    # policies reproduce their stored rates and respect D >= d_used
    rule = make_rule(Rayleigh(), 16)
    for p in fr.points:
        assert p.D >= p.d_used
        assert ergodic_rate(rule, p.policy, p.d_used, CH) == pytest.approx(p.R, abs=1e-9)
        assert avg_power(rule, p.policy) <= 2.5 * (1 + 1e-9)


def test_frontier_last_point_is_full_distortion():
    grid = np.geomspace(0.05, 1.0, 6)
    fr = rd_frontier(CH, Degenerate(1.0), 2.5, grid=grid)
    assert fr.points[-1].D == pytest.approx(1.0)
    assert fr.points[-1].R == max(fr.rates())


def test_frontier_dead_channel():
    fr = rd_frontier(CH, Degenerate(0.0), 2.5, grid=np.geomspace(0.05, 1.0, 6))
    assert len(fr.points) == 1
    assert fr.points[-1].D == pytest.approx(1.0)
    assert fr.points[-1].R == 0.0


def test_min_power_trivial_and_monotone():
    assert min_power(CH, Degenerate(1.0), 0.0, CH.Q) == 0.0
    p_loose = min_power(CH, Degenerate(1.0), 0.2, 0.8)
    p_tight = min_power(CH, Degenerate(1.0), 0.2, 0.4)
    assert p_tight >= p_loose
    p_more_rate = min_power(CH, Degenerate(1.0), 0.4, 0.8)
    assert p_more_rate >= p_loose


def test_min_power_consistent_with_frontier():
    p = min_power(CH, Degenerate(1.0), 0.25, 0.6)
    ch = ChannelParams(CH.Q, CH.sigma_z2, p)
    fr = rd_frontier(ch, Degenerate(1.0), p, grid=np.geomspace(0.05, 1.0, 25))
    assert fr.evaluate(0.6) == pytest.approx(0.25, abs=1e-3)


def test_min_power_unreachable():
    with pytest.raises(UnreachableError):
        min_power(CH, Degenerate(0.0), 0.1, 0.5)
    # huge targets: the rate row's weak-duality bound overflowed to -inf with a
    # RuntimeWarning (fixed-rho), and the kernel warned at 20 and 50 bits
    # (adaptive-rho, d = Q)
    for mode in optimize.MODES:
        for target in (20.0, 50.0, 1e10, 1e30, 1e300):
            for D in (CH.Q, 0.3 * CH.Q):
                with pytest.raises(UnreachableError):
                    min_power(CH, Rayleigh(), target, D, mode=mode, nodes=16)
    # a non-finite target is an input error, not an unreachable one
    for target in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="not finite"):
            min_power(CH, Rayleigh(), target, CH.Q, nodes=16)


def test_power_distortion_curve_structure():
    out = power_distortion_curve(CH, Degenerate(1.0), rates=(0.05, 0.2),
                                 d_grid=(0.4, 0.7, 1.0), nodes=1)
    for d in (0.4, 0.7, 1.0):
        assert out[(0.05, d)] <= out[(0.2, d)]
    for r in (0.05, 0.2):
        ps = [out[(r, d)] for d in (0.4, 0.7, 1.0)]
        assert ps[0] >= ps[1] >= ps[2]


def test_power_distortion_curve_unreachable_propagates():
    out = power_distortion_curve(CH, Degenerate(0.0), rates=(0.1,),
                                 d_grid=(0.4, 1.0), nodes=1)
    assert out[(0.1, 0.4)] is None and out[(0.1, 1.0)] is None


def test_single_point_discrete_matches_degenerate_downstream():
    a = maximize_rate(CH, Discrete(points=(1.0,), probs=(1.0,)), 0.8, 2.5)
    b = maximize_rate(CH, Degenerate(1.0), 0.8, 2.5)
    assert a.rate == b.rate
    assert a.policy == b.policy
    assert min_power(CH, Discrete(points=(1.0,), probs=(1.0,)), 0.2, 0.8) == \
        min_power(CH, Degenerate(1.0), 0.2, 0.8)


@pytest.mark.parametrize("mode", optimize.MODES)
def test_maximize_rate_beats_constant_power(mode):
    # P(g) = budget in every state meets the budget, so the optimum is no worse;
    # fixed-rho keeps the solution's shared rho, adaptive-rho the per-state optimum
    laws = (Rayleigh(), Degenerate(1.0),
            Discrete(points=(0.3, 1.0, 2.2), probs=(0.2, 0.5, 0.3)))
    for fading in laws:
        rule = make_rule(fading, 16)
        n = len(rule.nodes)
        for d, budget in ((0.3, 2.5), (1.0, 0.25)):
            sol = maximize_rate(CH, fading, d, budget, mode=mode, nodes=16)
            if mode == "fixed-rho":
                k = int(np.argmax(sol.policy.power))
                rho = [(sol.policy.rho1[k], sol.policy.rho2[k])] * n
            else:
                rho = [optimize_rho_per_state(g, budget, d, CH)[:2] for g in rule.nodes]
            const = PerStatePolicy(rule.nodes, rule.weights, (budget,) * n,
                                   tuple(r[0] for r in rho), tuple(r[1] for r in rho))
            assert sol.rate >= ergodic_rate(rule, const, d, CH) - 1e-9


def test_discrete_two_state_fading_runs():
    fading = Discrete(points=(0.4, 1.6), probs=(0.5, 0.5))
    sol = maximize_rate(CH, fading, 0.8, 2.5)
    assert sol.feasible and sol.rate > 0
    assert sol.power == pytest.approx(2.5, rel=1e-6)
    # per-state power adapts: strong state gets at least as much as weak
    assert sol.policy.power[1] >= sol.policy.power[0]


@pytest.fixture
def solves(monkeypatch):
    """The (d, P_budget) pairs that maximize_rate is called with, in order."""
    seen = []
    orig = optimize.maximize_rate

    def counted(ch, fading, d, P_budget, **kw):
        seen.append((d, P_budget))
        return orig(ch, fading, d, P_budget, **kw)

    monkeypatch.setattr(optimize, "maximize_rate", counted)
    return seen


def test_min_power_cold_solves_each_budget_once(solves):
    min_power(CH, Degenerate(1.0), 0.2, 0.8, nodes=1)
    assert len(solves) == len(set(solves))
    assert len(solves) <= 20


def test_min_power_scale_invariant(solves):
    base = min_power(CH, Degenerate(1.0), 0.2, 0.8, nodes=1)
    n_base = len(solves)
    # at c = 1e-14 an absolute power floor of 1e-12 returned sigma_z2
    for c in (4.0, 1e-8, 1e-14):
        solves.clear()
        scaled = min_power(ChannelParams(c * CH.Q, c * CH.sigma_z2, c * CH.P_avg),
                           Degenerate(1.0), 0.2, c * 0.8, nodes=1)
        assert scaled == pytest.approx(c * base, rel=1e-8)
        assert len(solves) == n_base


def test_power_distortion_curve_scale_invariant(solves):
    # the cell at D = 0.7 starts from the answer at D = 1 as a warm lower bound
    rates, d_grid = (0.2,), (0.7, 1.0)
    base = power_distortion_curve(CH, Degenerate(1.0), rates, d_grid, nodes=1)
    n_base = len(solves)
    solves.clear()
    c = 1e-8
    scaled = power_distortion_curve(ChannelParams(c * CH.Q, c * CH.sigma_z2, c * CH.P_avg),
                                    Degenerate(1.0), rates, [c * d for d in d_grid], nodes=1)
    for (r, d), p in base.items():
        assert scaled[(r, c * d)] == pytest.approx(c * p, rel=1e-8)
    assert len(solves) == n_base


@pytest.mark.xfail(strict=True, reason="min_power solves at d = D_target only, "
                   "and R*(d) falls again near d = Q")
def test_min_power_nonincreasing_in_distortion_near_full():
    assert min_power(CH, Degenerate(1.0), 0.05, 1.0, nodes=1) <= \
        min_power(CH, Degenerate(1.0), 0.05, 0.8, nodes=1)


@pytest.mark.parametrize("sigma_z2", [1.0, 1e4])
def test_min_power_unreachable_solves_nothing_above_cap(solves, sigma_z2):
    ch = ChannelParams(CH.Q, sigma_z2, CH.P_avg)
    with pytest.raises(UnreachableError):
        min_power(ch, Degenerate(0.0), 0.1, 0.5, nodes=1)
    assert solves and max(p for _, p in solves) <= POWER_CAP


def test_min_power_reaches_target_where_brent_stops_short():
    # a root-finder that returns an unsolved budget can fall short of the
    # target (Brent's method fell 1e-8 short here); min_power returns a
    # solved budget that reaches it
    R = 0.3059469816782637
    p = min_power(CH, Rayleigh(), R, CH.Q, nodes=64)
    assert maximize_rate(CH, Rayleigh(), CH.Q, p, nodes=64).rate >= R


def test_min_power_answer_is_solved_with_a_miss_just_below(solves):
    # the answer is a solved budget that reaches the target, and a standalone
    # solve 1e-7 below it misses: the rate-row search's spend plus the check's
    # POWER_RTOL/2 margin lies within the attained rate's roughness of P_min
    R = 0.3
    for mode, d in (("fixed-rho", CH.Q), ("fixed-rho", 0.91 * CH.Q), ("adaptive-rho", CH.Q)):
        p = min_power(CH, Rayleigh(), R, d, mode=mode, nodes=64)
        assert solves[-1] == (d, p)
        assert maximize_rate(CH, Rayleigh(), d, p, mode=mode, nodes=64).rate >= R
        assert maximize_rate(CH, Rayleigh(), d, (1.0 - 1e-7) * p, mode=mode, nodes=64).rate < R


@pytest.mark.parametrize("d", [CH.Q, 0.91 * CH.Q])
def test_min_power_solves_equal_standalone_solves(monkeypatch, d):
    # min_power's check solves go through maximize_rate itself: each equals a
    # standalone maximize_rate at its (d, budget), bit for bit, and the last
    # one is at the returned budget
    seen = []
    orig = optimize.maximize_rate

    def spied(ch, fading, e, P_budget, **kw):
        seen.append(((e, P_budget), orig(ch, fading, e, P_budget, **kw)))
        return seen[-1][1]

    monkeypatch.setattr(optimize, "maximize_rate", spied)
    p = min_power(CH, Rayleigh(), 0.3, d, nodes=64)
    assert seen[-1][0] == (d, p) and p > 0.0
    for (e, q), sol in seen:
        ref = orig(CH, Rayleigh(), e, q, nodes=64)
        assert repr((sol.rate, sol.lam, sol.policy, sol.warnings)) == \
            repr((ref.rate, ref.lam, ref.policy, ref.warnings))


@pytest.mark.parametrize("mode", optimize.MODES)
def test_min_power_cold_cell_work(solves, monkeypatch, mode):
    # one multiplier search on the rate target and one check solve: the loop
    # of Newton and Hermite steps over budgets took 6 solves here, the zero
    # budget included, and 160 (fixed-rho) or 26 (adaptive-rho) respond calls
    most = {"fixed-rho": 66, "adaptive-rho": 11}[mode]
    calls = []
    orig = optimize._dual_solve
    monkeypatch.setattr(optimize, "_dual_solve", lambda respond, *a: orig(
        lambda lam: calls.append(1) or respond(lam), *a))
    min_power(CH, Rayleigh(), 0.3, CH.Q, mode=mode, nodes=64)
    assert len([p for _, p in solves if p > 0.0]) <= 2
    assert len(calls) <= most


def test_min_power_does_not_load_scipy_optimize():
    code = ("import sys\n"
            "from fadingcr.model import ChannelParams, Degenerate\n"
            "from fadingcr.optimize import min_power\n"
            "min_power(ChannelParams(1.0, 1.0, 2.5), Degenerate(1.0), 0.2, 0.8, nodes=1)\n"
            "print('scipy.optimize' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(optimize.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env=env)
    assert out.stdout.strip() == "False"


def test_solves_do_not_load_scipy():
    # the Rayleigh nodes come from numpy's eigensolver and mc_estimate imports
    # scipy.special itself, so the CLI and both solver modes load no scipy
    code = ("import sys\n"
            "import fadingcr.cli\n"
            "from fadingcr.model import ChannelParams, Rayleigh\n"
            "from fadingcr.optimize import maximize_rate\n"
            "for mode in ('fixed-rho', 'adaptive-rho'):\n"
            "    maximize_rate(ChannelParams(1.0, 1.0, 2.5), Rayleigh(), 0.3, 2.5, mode=mode,\n"
            "                  nodes=16)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(optimize.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env=env)
    assert out.stdout.strip() == "[]"


def test_into_disk_passes_the_policy_disk_test():
    r1, r2 = 0.8964758001178629, -0.4430926988825675
    assert r1 * r1 + r2 * r2 <= 1.0  # the solvers' test passes it ...
    assert CodingParams(r1, r2, 0.5).violation(CH) is not None  # ... CodingParams' does not
    s1, s2 = _into_disk(r1, r2)
    assert CodingParams(s1, s2, 0.5).violation(CH) is None
    assert (s1, s2) == (math.nextafter(r1, 0.0), r2)


def test_adaptive_policy_passes_its_own_disk_check():
    # adaptive-rho returned (0.8964758001178629, -0.4430926988825675) at node 21
    c = 1.1062982444843836
    ch = ChannelParams(Q=c, sigma_z2=c, P_avg=2.5 * c)
    d = 0.2 ** (1.0 - 6.5 / 7) * c
    sol = maximize_rate(ch, Rayleigh(), d, ch.P_avg, mode="adaptive-rho", nodes=128)
    rule = make_rule(Rayleigh(), 128)
    assert ergodic_rate(rule, sol.policy, d, ch) == pytest.approx(sol.rate, abs=1e-12)


_LAWS = {"rayleigh": Rayleigh(), "degenerate": Degenerate(1.0),
         "discrete": Discrete(points=(0.3, 1.0, 2.2), probs=(0.2, 0.5, 0.3))}


@pytest.mark.parametrize("fading,mode", [(law, mode) for mode in optimize.MODES
                                         for law in _LAWS.values()],
                         ids=[f"{pre}{name}" for pre in ("", "adaptive-") for name in _LAWS])
def test_frontier_points_equal_single_solves(fading, mode):
    # rd_frontier solves its grid as one batch; each point must be the batch of one
    fr = rd_frontier(CH, fading, 2.5, grid=np.geomspace(0.05, 1.0, 6), mode=mode, nodes=16)
    for p in fr.points:
        sol = maximize_rate(CH, fading, p.d_used, 2.5, mode=mode, nodes=16)
        assert p.R == sol.rate
        assert p.policy == sol.policy
        assert p.warnings == sol.warnings


@pytest.mark.parametrize("mode", optimize.MODES)
def test_every_response_is_a_multiplier_search_evaluation(monkeypatch, mode):
    # the recovery mixes the responses that the multiplier search evaluated at
    # its bracket ends; it used to ask for one end's response again
    searched, solved = [], []
    orig = optimize._dual_solve
    monkeypatch.setattr(optimize, "_dual_solve", lambda respond, *a: orig(
        lambda lam: searched.append(1) or respond(lam), *a))
    cls = responses.FixedRho if mode == "fixed-rho" else responses.AdaptiveRho
    powers = cls.powers
    monkeypatch.setattr(cls, "powers", lambda self, lam: solved.append(1) or powers(self, lam))
    for d in (0.3, CH.Q):
        maximize_rate(CH, Rayleigh(), d, CH.P_avg, mode=mode, nodes=16)
    assert len(solved) == len(searched) > 0


def _mp_rate(sol, d, ch):
    """The rate, in mpmath at 40 digits, of a solution's policy at its own arc angles
    atan2(rho2, rho1); a silent node at (0, 0)."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    Q, sz, d, total = mp.mpf(ch.Q), mp.mpf(ch.sigma_z2), mp.mpf(d), mp.mpf(0)
    pol = sol.policy
    for g, w, P, r1, r2 in zip(pol.nodes, pol.weights, pol.power, pol.rho1, pol.rho2):
        g, P, psi = mp.mpf(g), mp.mpf(P), mp.atan2(r2, r1)
        co, si = (mp.cos(psi), mp.sin(psi)) if (r1, r2) != (0.0, 0.0) else (0, 0)
        a = g * g * P + Q + sz + 2 * g * co * mp.sqrt(P * (Q - d)) + 2 * g * si * mp.sqrt(P * d)
        b = si * si * g * g * P + d + sz + 2 * g * si * mp.sqrt(P * d)
        total += w * mp.log(d * a / (Q * b), 2) / 2
    return total


@pytest.mark.parametrize("mode", optimize.MODES)
def test_rates_at_large_budgets_do_not_exceed_their_policy(mode):
    # the kernel formed 1 - rho1^2 as 1 - rho1 * rho1, which cancels where psi*
    # goes as 1/(g sqrt(P)): adaptive-rho returned inf bits at d = Q and budget
    # 1e16, and both modes overstated the rate of their own policy at 1e8-1e12
    for d in (0.3, 0.999, CH.Q):
        for budget in (1e8, 1e12, 1e16):
            sol = maximize_rate(CH, Rayleigh(), d, budget, mode=mode, nodes=16)
            assert math.isfinite(sol.rate)
            assert sol.rate <= _mp_rate(sol, d, CH) + 1e-9, (d, budget)


def test_frontier_points_keep_solver_warnings():
    # a Rayleigh-8 solve at d = Q and a small budget ends with a duality-gap warning
    sol = maximize_rate(CH, Rayleigh(), CH.Q, 0.02, nodes=8)
    assert sol.warnings and sol.warnings[0].startswith("duality gap")
    fr = rd_frontier(CH, Rayleigh(), 0.02, grid=[0.5, CH.Q], nodes=8)
    assert fr.points[-1].d_used == CH.Q
    assert fr.points[-1].warnings == sol.warnings


def _step_response(lam_star, calls):
    """Power 2 below each problem's lam_star and 0.5 from it on, against budget 1."""
    def respond(lam):
        calls.append(lam.copy())
        power = np.where(lam < lam_star, 2.0, 0.5)[:, None]
        return _Response(-power, power, np.zeros_like(power), np.zeros_like(power))
    return respond


#: A hint from which _dual_solve, given no derivative, bisects (0, 1) from its midpoint.
UNIT = (np.zeros(1), np.ones(1))


def test_dual_solve_stops_at_its_bracket_floor():
    # no multiplier spends the budget exactly here, so each solve stops at its
    # bracket floor
    lam_star, budget, w = np.array([0.37]), np.array([1.0]), np.array([1.0])
    for floor, most in ((1e-6, 24), (1e-9, 34)):
        calls = []
        resp, other, lam, (lo, hi) = _dual_solve(_step_response(lam_star, calls), w, budget,
                                                 hint=UNIT, floor=floor)
        assert len(calls) <= most
        assert resp.power[0, 0] <= budget[0] < other.power[0, 0] and lam[0] >= lam_star[0]
        assert hi[0] - lo[0] <= floor * hi[0] and lo[0] < lam_star[0] <= hi[0]


def test_dual_solve_stops_when_its_multiplier_tends_to_zero():
    # lam* = 1e-300 lies far below the hint: the bracket is halved down to
    # 1e-12 of the hint's hi (40 steps), where the multiplier counts as 0
    lam_star, budget, w = np.array([1e-300]), np.array([1.0]), np.array([1.0])
    calls = []
    resp, _, lam, (lo, hi) = _dual_solve(_step_response(lam_star, calls), w, budget,
                                         hint=(np.array([0.8]), np.array([1.25])), floor=1e-6)
    assert len(calls) <= 45
    assert lo[0] == 0.0 and 0.0 < lam[0] == hi[0] <= 1.25e-12
    assert resp.power[0, 0] <= budget[0]


def test_dual_solve_batch_equals_single_solves():
    # the second problem needs its multiplier doubled three times, the first does not
    lam_star, budget, w = np.array([0.37, 2.9]), np.array([1.0, 1.0]), np.array([1.0])
    resp, other, lam, bracket = _dual_solve(_step_response(lam_star, []), w, budget,
                                            hint=(np.zeros(2), np.ones(2)), floor=1e-6)
    for b in range(2):
        one = _dual_solve(_step_response(lam_star[[b]], []), w, budget[[b]], hint=UNIT,
                          floor=1e-6)
        assert lam[b] == one[2][0]
        assert (bracket[0][b], bracket[1][b]) == (one[3][0][0], one[3][1][0])
        assert (resp.power[b] == one[0].power[0]).all()
        assert (resp.value[b] == one[0].value[0]).all()
        assert (other.power[b] == one[1].power[0]).all()


def _water_filling(g, calls):
    """Powers max(1/lam - 1/g, 0) of rates ln(1 + g P), with their dP/dlam."""
    def respond(lam):
        calls.append(lam.copy())
        with np.errstate(divide="ignore"):
            inv = 1.0 / lam[:, None]
        power = np.maximum(inv - 1.0 / g, 0.0)
        dpower = np.where(power > 0.0, -inv * inv, 0.0)
        return _Response(np.log1p(g * np.minimum(power, 1e300)), power, np.zeros_like(power),
                         np.zeros_like(power), dpower)
    return respond


def _water_filling_hint(g, w, budget):
    """_marginal_hint's bracket from the marginal rates at uniform power."""
    return optimize._marginal_hint(g / (1.0 + g * budget[:, None]), w)


def test_dual_solve_newton_stops_within_six_calls():
    # water-filling on Rayleigh-16 power gains: from the marginal-rate hint the
    # Newton steps on the multiplier stop within 6 respond calls, the zero
    # multiplier included; the bisection took 22
    rule = make_rule(Rayleigh(), 16)
    g, w = np.array(rule.nodes) ** 2, np.array(rule.weights)
    for B in (1.0, 2.5, 30.0):
        budget, calls = np.array([B]), []
        respond = _water_filling(g, calls)
        resp, other, lam, (lo, hi) = _dual_solve(respond, w, budget,
                                                 _water_filling_hint(g, w, budget), floor=1e-6)
        assert len(calls) <= 6
        assert 0.0 < hi[0] - lo[0] <= 1e-6 * hi[0] and lam[0] == hi[0]
        assert w @ resp.power[0] <= B < w @ respond(lo).power[0]
        # the response at the bracket's other end is the search's own, at lo
        assert (other.power == respond(lo).power).all()


@pytest.mark.parametrize("dpower", [-1e-6, -1.0, -1e6])
def test_dual_solve_survives_a_misleading_derivative(dpower):
    # the power jumps across the budget at lam*, and the response's derivative
    # sends the Newton steps far past it (-1e-6) or barely moves them (-1e6);
    # the fallbacks still bracket lam* within the floor, in at most twice the
    # calls of a bisection without a derivative
    lam_star, budget, w, calls = np.array([0.37]), np.array([1.0]), np.array([1.0]), []
    step = _step_response(lam_star, calls)

    def respond(lam):
        r = step(lam)
        r.dpower = np.full_like(r.power, dpower)
        return r

    resp, _, lam, (lo, hi) = _dual_solve(respond, w, budget, hint=UNIT, floor=1e-6)
    assert lo[0] < lam_star[0] <= hi[0] == lam[0] and hi[0] - lo[0] <= 1e-6 * hi[0]
    assert resp.power[0, 0] <= budget[0]
    assert len(calls) <= 2 * 24


def test_dual_solve_newton_batch_equals_single_solves():
    rule = make_rule(Rayleigh(), 16)
    g, w = np.array(rule.nodes) ** 2, np.array(rule.weights)
    budget = np.array([0.1, 1.0, 2.5, 30.0])
    hint = _water_filling_hint(g, w, budget)
    resp, other, lam, bracket = _dual_solve(_water_filling(g, []), w, budget, hint, floor=1e-6)
    for b in range(budget.size):
        one = _dual_solve(_water_filling(g, []), w, budget[[b]],
                          (hint[0][[b]], hint[1][[b]]), floor=1e-6)
        assert lam[b] == one[2][0]
        assert (bracket[0][b], bracket[1][b]) == (one[3][0][0], one[3][1][0])
        assert (resp.power[b] == one[0].power[0]).all()
        assert (resp.value[b] == one[0].value[0]).all()
        assert (other.power[b] == one[1].power[0]).all()


def test_dual_solve_passes_a_stopped_problem_its_last_multiplier():
    # the first problem stops after 24 calls on a multiplier that overspent,
    # its lo; while the second halves its way toward 0, the first is passed
    # that multiplier again, so a memoizing respond is not made to solve it
    # anew at hi, and it keeps the response it had at hi
    lam_star, budget, w = np.array([0.2, 1e-300]), np.ones(2), np.array([1.0])
    calls, single = [], []
    resp, other, lam, (lo, hi) = _dual_solve(_step_response(lam_star, calls), w, budget,
                                             hint=(np.zeros(2), np.ones(2)), floor=1e-6)
    one = _dual_solve(_step_response(lam_star[:1], single), w, budget[:1], hint=UNIT, floor=1e-6)
    k, last = len(single), single[-1][0]
    assert last == one[3][0][0] < one[3][1][0]
    assert len(calls) > k
    assert [c[0] for c in calls[:k]] == [c[0] for c in single]
    assert all(c[0] == last for c in calls[k:])
    assert lo[0] == last and lam[0] == hi[0] == one[2][0]
    assert resp.power[0, 0] == one[0].power[0, 0] <= budget[0]
    assert other.power[0, 0] == one[1].power[0, 0] > budget[0]


def _saturating(a, b, lam0, cap, calls):
    """Power clip(a - b ln(lam / lam0), 0, cap) of one node, with dP/dlam = -b / lam inside
    the clip: the spent power is linear in ln lam, as when nodes saturate."""
    def respond(lam):
        calls.append(lam.copy())
        with np.errstate(divide="ignore"):
            free = a - b * np.log(lam[:, None] / lam0)
        power = np.clip(free, 0.0, cap)
        inside = (free > 0.0) & (free < cap)
        dpower = np.where(inside, -b / np.where(inside, lam[:, None], 1.0), 0.0)
        return _Response(power, power, np.zeros_like(power), np.zeros_like(power), dpower)
    return respond


def test_dual_solve_steps_in_ln_lam_from_a_far_hint():
    # a hint 150x above lam*: a Newton step in ln lam lands on lam* at once, and
    # the search stops within 5 respond calls, the zero multiplier included;
    # Newton steps in lam itself fell below 0 and halved their way down (12 calls)
    a, b, lam0, w = 1.0, 0.1, 0.37, np.array([1.0])
    for B in (1.1, 1.15):
        lam_star, calls = lam0 * math.exp((a - B) / b), []
        hint = (np.array([0.8 * 150.0 * lam_star]), np.array([1.25 * 150.0 * lam_star]))
        resp, other, lam, (lo, hi) = _dual_solve(_saturating(a, b, lam0, 2.0, calls), w,
                                                 np.array([B]), hint, floor=1e-3)
        assert len(calls) <= 5
        # the bracket holds the root of the rounded response, within 2e-15 of lam*
        assert 0.0 < hi[0] - lo[0] <= 1e-3 * hi[0] and lam[0] == hi[0]
        assert resp.power[0, 0] <= B < _saturating(a, b, lam0, 2.0, [])(lo).power[0, 0]
        assert other.power[0, 0] == _saturating(a, b, lam0, 2.0, [])(lo).power[0, 0]
        assert lo[0] * (1.0 - 2e-15) <= lam_star <= hi[0] * (1.0 + 2e-15)


@pytest.mark.parametrize("mode", optimize.MODES)
def test_bisection_is_scale_invariant(monkeypatch, mode):
    # the multiplier search starts from the mean marginal rate at uniform
    # power, which scales as 1/c: Newton steps in ln lam take 20 respond calls
    # in fixed-rho mode and 6 in adaptive-rho mode at both scales (steps in
    # lam took 21 and 6, the bisection 78 and 22), and a bisection from
    # (0, 1) took 25 respond calls at c = 1 and 65 at c = 1e12 in adaptive-rho
    # mode
    calls = []

    def counted(respond, *args, **kw):
        return orig(lambda lam: calls.append(1) or respond(lam), *args, **kw)

    orig = optimize._dual_solve
    monkeypatch.setattr(optimize, "_dual_solve", counted)
    out = []
    for c in (1.0, 1e12):
        calls.clear()
        ch = ChannelParams(c * CH.Q, c * CH.sigma_z2, c * CH.P_avg)
        rate = maximize_rate(ch, Rayleigh(), 0.3 * c, c * CH.P_avg, mode=mode, nodes=16).rate
        out.append((rate, len(calls)))
    assert out[1][1] == out[0][1]
    assert out[1][0] == pytest.approx(out[0][0], rel=1e-12)


def _arc_brute_max(law, d, budget, n_psi=201, n_split=1001):
    """Largest rate of a 2- or 3-node law on the arc at one shared psi with the whole
    budget spent: the best point of a (psi, power split) grid, refined by Nelder-Mead."""
    g, w = np.array(law.points), np.array(law.probs)

    def rate(psi, frac):
        # frac: budget shares of the nodes, along the last axis
        frac = np.maximum(frac, 0.0)
        P = budget * frac / frac.sum(axis=-1, keepdims=True) / w
        return np.sum(w * _rates(g, P, np.cos(psi)[..., None], np.sin(psi)[..., None], d, CH,
                                 2.0), axis=-1)

    s = np.linspace(0.0, 1.0, n_split if g.size == 2 else 151)
    if g.size == 2:
        frac = np.stack([s, 1.0 - s], -1)
    else:
        s1, s2 = (z.reshape(-1) for z in np.meshgrid(s, s))
        frac = np.stack([s1, s2, 1.0 - s1 - s2], -1)[s1 + s2 <= 1.0]
    psi = np.linspace(-0.5 * math.pi, 0.5 * math.pi, n_psi)
    grid = rate(psi[:, None], frac[None])
    i, j = np.unravel_index(np.argmax(grid), grid.shape)
    fit = scipy.optimize.minimize(
        lambda z: -rate(np.clip(z[0], -0.5 * math.pi, 0.5 * math.pi),
                        np.append(z[1:], 1.0 - z[1:].sum())),
        np.r_[psi[i], frac[j, :-1]], method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 4000})
    return max(float(grid[i, j]), -float(fit.fun))


def test_fixed_rho_beats_brute_force_on_small_discrete_laws():
    # one psi basin is refined, and a solve with a gap is solved again with
    # each jumping node held on each row of its response; neither may lose
    # rate against a search over (psi, power split). The 3-node law needs the
    # holds: mixing alone returned 0.4933979 bits
    rng = np.random.default_rng(7)
    cases = [(Discrete(points=(0.3, 1.0, 2.2), probs=(0.2, 0.5, 0.3)), CH.Q, 0.6)]
    for _ in range(10):
        p = rng.uniform(0.1, 0.9)
        law = Discrete(points=tuple(sorted(rng.uniform(0.1, 3.0, 2))), probs=(p, 1.0 - p))
        cases.append((law, rng.uniform(0.05, 1.0), 10.0 ** rng.uniform(-1.5, 0.5)))
    for law, d, budget in cases:
        sol = maximize_rate(CH, law, d, budget, nodes=1)
        assert sol.rate >= _arc_brute_max(law, d, budget) - 1e-9


def test_fixed_rho_frontier_working_set_is_bounded():
    # the batched grid solve holds one chunk of (problem, node) rows at a time
    # (CHUNK_ROWS, or for the psi scan 1.5 CHUNK_ROWS cut across distortions), and
    # the scan keeps only each distortion's basin, so its peak stays near one
    # chunk's however long the grid: the CLI's default 50 points peak within 5 %
    # of 12 points
    make_rule(Rayleigh(), 64)  # the cold rule build is not part of the solve
    peaks = []
    for grid in (np.geomspace(1e-3, 1.0, 12), None):
        tracemalloc.start()
        try:
            rd_frontier(CH, Rayleigh(), 2.5, grid=grid, nodes=64)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 2e6
    assert peaks[1] <= 1.05 * peaks[0], peaks


def test_fixed_rho_whole_scan_chunks_working_set_is_bounded():
    # at 128 nodes a chunk of the psi scan holds 24 (d, psi) problems, 3,072
    # rows, over CHUNK_ROWS; a distortion's scan may span two chunks
    make_rule(Rayleigh(), 128)
    tracemalloc.start()
    try:
        rd_frontier(CH, Rayleigh(), 2.5, grid=np.geomspace(1e-3, 1.0, 12), nodes=128)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_rate_at_minus_psi_dominates_plus_psi():
    # the fixed-rho psi scan covers only psi <= 0: with a = g sqrt(P), u = sqrt(Q - d)
    # and v = sqrt(d), A - B = (a cos psi + u)^2 >= 0, and flipping the sign of sin psi
    # changes A and B by the same 4 a v sin psi, so R(P, -psi) >= R(P, psi). The rate
    # depends on g and P only through a, so g = 1
    rng = np.random.default_rng(27)
    m, d_min = 200_000, CH.d_min
    sz = 10.0 ** rng.uniform(-8.0, 2.0, m)
    d = np.where(rng.random(m) < 0.125, CH.Q, 10.0 ** rng.uniform(math.log10(d_min), 0.0, m))
    psi = 0.5 * math.pi * (1.0 - rng.random(m))  # (0, pi/2]
    P = sz * 10.0 ** rng.uniform(-6.0, 6.0, m)
    plus, minus = (_rate_kernel(1.0, P, CH.Q - d, d, np.cos(psi), s * np.sin(psi), sz)
                   for s in (1.0, -1.0))
    assert d.max() == CH.Q and d.min() > d_min
    assert np.all(minus >= plus - 1e-15)
    # A - B on FixedRho's unit-gain coefficients of x**0, x**1 and x**2
    for sigma_z2 in (1e-8, 0.01, 1.0, 100.0):
        ch = ChannelParams(Q=1.0, sigma_z2=sigma_z2, P_avg=1.0)
        dd, pp = d[:500], np.r_[psi[:250], -psi[250:500]]
        coef = responses._unit_structure(np.cos(pp), np.sin(pp), dd, ch, 0.5)[0]
        u = np.sqrt(ch.Q - dd)
        diff, want = coef[3:6] - coef[6:], np.stack([u * u, 2.0 * np.cos(pp) * u,
                                                       np.cos(pp) ** 2])
        scale = np.abs(coef[3:6]) + np.abs(coef[6:])
        assert np.all(np.abs(diff - want) <= 4.0 * np.finfo(float).eps * scale)


def test_psi_cubic_matches_arc_terms():
    # f_psi = 2 a h(a) / (A B) with h the cubic of responses.psi_cubic, at a = g x,
    # against arc_terms' f_psi, up to the rounding of its two terms
    rng = np.random.default_rng(28)
    for sz in 10.0 ** rng.uniform(-8.0, 2.0, 12):
        ch = ChannelParams(Q=1.0, sigma_z2=sz, P_avg=1.0)
        d = np.r_[ch.Q, 10.0 ** rng.uniform(math.log10(ch.d_min), 0.0, 19)][:, None]
        psi = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, 30)
        a = 10.0 ** rng.uniform(-6.0, 6.0, (d.size, psi.size))
        h = sum(sum(t) * a ** k for k, t in enumerate(responses.psi_cubic(d[:, 0], psi, ch)))
        u, v, co, si = np.sqrt(ch.Q - d), np.sqrt(d), np.cos(psi), np.sin(psi)
        A = a * a + 2.0 * a * (u * co + v * si) + ch.Q + sz
        B = (si * a) ** 2 + 2.0 * a * v * si + d + sz
        scale = np.abs(2.0 * a * (v * co - u * si) / A) + np.abs(2.0 * a * co * (si * a + v) / B)
        fp = responses.arc_terms(1.0, a, psi, d, ch)[2]
        assert np.all(np.abs(2.0 * a * h / (A * B) - fp) <= 1e-11 * scale)


def test_psi_floor_angles_are_dominated():
    # every scan angle below a distortion's certified floor (responses.psi_floor) has
    # a rate no larger than the floor's at every a = g sqrt(P), so no score there
    # beats the floor's on either constraint row
    rng = np.random.default_rng(29)
    psi = np.arcsin(np.linspace(-1.0, 1.0, 49))[:25]
    rho1, rho2 = np.where(np.abs(np.sin(psi)) == 1.0, 0.0, np.cos(psi)), np.sin(psi)
    a = np.r_[0.0, np.geomspace(1e-7, 1e7, 281)]
    dropped = 0
    for sz in 10.0 ** rng.uniform(-8.0, 2.0, 24):
        ch = ChannelParams(Q=1.0, sigma_z2=sz, P_avg=1.0)
        d = np.where(rng.random(16) < 0.15, ch.Q,
                     10.0 ** rng.uniform(math.log10(ch.d_min), 0.0, 16))
        floor = responses.psi_floor(d, psi, ch)
        assert floor.min() >= 0 and floor.max() < psi.size - 1
        for dk, j in zip(d, floor):
            rate = _rate_kernel(1.0, a[:, None] ** 2, ch.Q - dk, dk, rho1[:j + 1],
                                rho2[:j + 1], sz)
            assert np.all(rate[:, :j] <= rate[:, j:] + 1e-15), (sz, dk, j)
            dropped += j
    assert dropped > 1000


def test_psi_floor_changes_no_bit(monkeypatch):
    # the fixed-rho scan skips every angle below each distortion's certified floor;
    # with a floor that keeps every angle every output keeps its bits. The 3-atom
    # law at Q = 4 has two interior maxima of V(psi), min_power scans the rate row,
    # and at sigma_z2 = 0.01 the floor keeps nearly every angle
    law3 = Discrete(points=(0.3, 1.0, 2.2), probs=(0.2, 0.5, 0.3))
    ch4 = ChannelParams(Q=4.0, sigma_z2=1.0, P_avg=0.02)
    small = ChannelParams(Q=1.0, sigma_z2=0.01, P_avg=2.0)
    grid = np.geomspace(1e-3, 1.0, 12)
    runs = {"rayleigh": lambda: rd_frontier(CH, Rayleigh(), 2.5, grid=grid, nodes=64),
            "3-atom": lambda: rd_frontier(ch4, law3, 0.02, grid=4.0 * grid, nodes=1),
            "min_power": lambda: min_power(CH, Rayleigh(), 0.3, CH.Q, nodes=64),
            "small-noise": lambda: rd_frontier(small, Rayleigh(), 2.0, grid=grid, nodes=16)}
    floors = []
    orig = optimize.psi_floor
    monkeypatch.setattr(optimize, "psi_floor", lambda *a: floors.append(orig(*a)) or floors[-1])
    floored = {}
    for name, run in runs.items():
        floors.clear()
        floored[name] = repr(run())
        assert max(f.max() for f in floors) > 0, name
    monkeypatch.setattr(optimize, "psi_floor", lambda d, *a: np.zeros(len(d), dtype=int))
    for name, run in runs.items():
        assert repr(run()) == floored[name], name


def test_fixed_rho_frontier_build_count(monkeypatch):
    # a 4-point Rayleigh-64 frontier builds one FixedRho per chunk of the psi
    # scan (48 problems at 64 nodes; the four scans keep 25 of their 100 angles,
    # from each certified floor on: one chunk) and one per round of the Newton psi
    # search (responses.newton), whose first round solves the four basins:
    # 1 + 3 builds
    builds = []
    init = responses.FixedRho.__init__
    monkeypatch.setattr(responses.FixedRho, "__init__",
                        lambda self, *args: builds.append(1) or init(self, *args))
    rd_frontier(CH, Rayleigh(), 2.5, grid=np.geomspace(1e-3, 1.0, 4), nodes=64)
    assert len(builds) <= 8


def test_fixed_rho_refines_a_basin_whose_neighbours_slope_keeps_its_sign():
    # at sigma_z2 = 0.01 the scan's best psi on Rayleigh-16 has a neighbour whose
    # dV/dpsi has the same sign as its own; it must still be refined: left at its
    # grid point it reads 2.49556 bits, below the best of a 2001-point psi grid
    # (2.51555)
    ch = ChannelParams(Q=1.0, sigma_z2=0.01, P_avg=2.0)
    rule = make_rule(Rayleigh(), 16)
    g, w = np.array(rule.nodes), np.array(rule.weights)
    psi = np.arcsin(np.linspace(-1.0, 1.0, 2001))
    nodes = responses.FixedRho(np.tile(g, psi.size), np.full(psi.size * g.size, ch.Q),
                               np.repeat(psi, g.size), g.size, ch, 2.0)
    resp = optimize._solved(nodes, w, 2.0, 2.0, optimize.RECOVERY_FLOOR, False)[0]
    within = optimize._wsum(resp.power, w) <= 2.0 * (1.0 + optimize.BUDGET_TOL)
    grid = optimize._wsum(resp.value, w)[within].max()
    sol = maximize_rate(ch, Rayleigh(), ch.Q, 2.0, nodes=16)
    assert sol.rate >= grid
    assert sol.rate <= maximize_rate(ch, Rayleigh(), ch.Q, 2.0, mode="adaptive-rho",
                                     nodes=16).rate
    assert abs(ergodic_rate(rule, sol.policy, ch.Q, ch) - sol.rate) <= 1e-12
    assert avg_power(rule, sol.policy) <= 2.0 * (1.0 + optimize.BUDGET_TOL)


@pytest.mark.parametrize("rate", [False, True], ids=["budget", "rate"])
def test_psi_curvature_matches_central_differences(rate):
    # the envelope curvature of dV/dpsi along the row's solution, from the
    # partials at one psi, against central differences of dV/dpsi itself, each
    # point solved to RECOVERY_FLOOR; on the rate row lam is its bracket's end
    law3 = Discrete(points=(0.3, 1.0, 2.2), probs=(0.2, 0.5, 0.3))
    h = 1e-5
    target, start = (0.3, CH.sigma_z2) if rate else (2.5, 2.5)
    for law, n in ((Rayleigh(), 64), (law3, 1)):
        rule = make_rule(law, n)
        g, w = np.array(rule.nodes), np.array(rule.weights)
        for d in (0.3, 0.91):
            for psi in (-0.3, 0.4):
                x = psi + np.array([0.0, -h, h])
                nodes = responses.FixedRho(np.tile(g, 3), np.full(3 * g.size, d),
                                           np.repeat(x, g.size), g.size, CH, 2.0)
                resp, _, lam, *_ = optimize._solved(nodes, w, target, start,
                                                    optimize.RECOVERY_FLOOR, rate)
                f, df = optimize._envelope(nodes, resp.power, w, lam, rate)
                central = (f[2] - f[1]) / (2.0 * h)
                assert abs(df[0] - central) <= 1e-6 * abs(central), (law, d, psi)


def test_adaptive_frontier_working_set_is_bounded():
    # an adaptive-rho grid is one batch solved CHUNK_ROWS (d, node) rows at a
    # time: 100 points at 64 nodes take four chunks (4.5 MB traced as one
    # batch), and a point of a later chunk is still its lone solve
    make_rule(Rayleigh(), 64)
    grid = list(np.geomspace(1e-3, 1.0, 100))
    tracemalloc.start()
    try:
        sols = optimize._solve_grid(CH, Rayleigh(), grid, 2.5, "adaptive-rho", 64, 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3e6
    for b in (40, 99):
        assert sols[b] == maximize_rate(CH, Rayleigh(), grid[b], 2.5, mode="adaptive-rho",
                                        nodes=64)


def test_min_power_solve_count_steady_under_tiny_target_changes(solves):
    # the attained rate is rough at ~1e-9 bits near P_min; a stop tolerance
    # below that roughness makes the solve count jump (14, 11, 11, 13 at 1e-9
    # with Brent's method)
    counts = []
    for k in range(4):
        solves.clear()
        min_power(CH, Rayleigh(), 0.3 * (1 + k * 1e-12), CH.Q, nodes=64)
        counts.append(len(solves))
    assert len(set(counts)) == 1


def test_fixed_rho_rate_has_no_step_in_the_budget():
    # the tabled per-node responses gave 0.3059470642 bits at the larger budget
    # and 0.3059469715 at the smaller, a 9.3e-8-bit step over 2.9e-10 of budget
    lo = maximize_rate(CH, Rayleigh(), CH.Q, 0.5565097032508333, nodes=64).rate
    hi = maximize_rate(CH, Rayleigh(), CH.Q, 0.5565097035393298, nodes=64).rate
    assert hi - lo <= 1e-9


@pytest.mark.parametrize("mode,floor", [("fixed-rho", 0.0262835), ("adaptive-rho", 0.0265039)])
def test_small_budget_powers_are_uncapped(mode, floor):
    # a power table capped at 8 budgets returned 0.022260 (0.021877) bits here
    sol = maximize_rate(CH, Rayleigh(), CH.Q, 0.02, mode=mode, nodes=64)
    assert sol.rate >= floor
    assert max(sol.policy.power) > 8 * 0.02


def test_adaptive_power_split_is_optimal_on_a_discrete_law():
    # coordinate ascent over (P, rho2) settled 1.36e-6 bits lower, at 1.0450504003
    law = Discrete(points=(0.3, 1.0, 2.2), probs=(0.2, 0.5, 0.3))
    assert maximize_rate(CH, law, 0.7, 2.5, mode="adaptive-rho").rate >= 1.0450517588


def _pmul_rows(p, q):
    """Product of polynomials whose coefficients (low to high) are arrays."""
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def _padd(p, q):
    n = max(len(p), len(q))
    return [(p[k] if k < len(p) else 0.0) + (q[k] if k < len(q) else 0.0) for k in range(n)]


def _sextic(g, x, d):
    """Coefficients in t = tan(psi/2), low to high, of (A_psi B - A B_psi)(1 + t^2)^3.

    A and B are the rate's numerator and denominator at rho = (cos psi, sin psi)
    and P = x^2; the polynomial has the sign of the psi-derivative of the rate.
    """
    u, v, gx = math.sqrt(CH.Q - d), math.sqrt(d), g * x
    one_p, one_m = [1.0, 0.0, 1.0], [1.0, 0.0, -1.0]
    A = _padd(_pmul_rows([gx * gx + CH.Q + CH.sigma_z2], one_p),
              _pmul_rows([2.0 * gx], _padd(_pmul_rows([u], one_m), [0.0, 2.0 * v])))
    A_psi = _pmul_rows([2.0 * gx], _padd([0.0, -2.0 * u], _pmul_rows([v], one_m)))
    B = _padd(_padd([0.0, 0.0, 4.0 * gx * gx], _pmul_rows([0.0, 4.0 * gx * v], one_p)),
              _pmul_rows([d + CH.sigma_z2], _pmul_rows(one_p, one_p)))
    B_psi = _padd(_pmul_rows([0.0, 4.0 * gx * gx], one_m),
                  _pmul_rows([2.0 * gx * v], _pmul_rows(one_m, one_p)))
    return _padd(_pmul_rows(A_psi, B), [-c for c in _pmul_rows(A, B_psi)])


def _arc_best(g, P, d):
    """Largest rate on the arc at each power P: over the real roots of the sextic
    in [-1, 1] (np.roots, batched as companion matrices) and the arc's endpoints."""
    P = np.atleast_1d(np.asarray(P, dtype=float))
    c = np.array([np.broadcast_to(ck, P.shape) for ck in _sextic(g, np.sqrt(P), d)]).T
    psi = [np.full(P.shape, -0.5 * math.pi), np.full(P.shape, 0.5 * math.pi)]
    lead = np.abs(c[:, 6]) > 1e-12 * np.abs(c).max(axis=1)
    comp = np.zeros(P.shape + (6, 6))
    comp[:, 1:, :-1] = np.eye(5)
    comp[:, :, -1] = -c[:, :6] / np.where(lead, c[:, 6], 1.0)[:, None]
    roots = np.linalg.eigvals(comp)
    for k in np.flatnonzero(~lead & np.any(c != 0.0, axis=1)):
        z = np.roots(c[k, ::-1])
        roots[k] = np.pad(z, (0, 6 - z.size), constant_values=np.nan)
    real = (np.abs(roots.imag) <= 1e-9 * np.maximum(1.0, np.abs(roots))) & (np.abs(roots.real) <= 1.0)
    psi += [np.where(real[:, j], 2.0 * np.arctan(roots[:, j].real), -0.5 * math.pi)
            for j in range(6)]
    return np.max([_rates(g, P, np.cos(p), np.sin(p), d, CH, 2.0) for p in psi], axis=0)


def _grid_dual(table, grid, w, budget):
    """Rate of the dual solution on a power grid: each node takes the grid power
    maximizing R - lam*P, lam bisected to the least multiplier within budget."""
    rows = np.arange(table.shape[0])

    def alloc(lam):
        k = np.argmax(table - lam * grid, axis=1)
        return w @ grid[k], w @ table[rows, k]

    if alloc(0.0)[0] <= budget:
        return alloc(0.0)[1]
    lo, hi = 0.0, 1.0
    while alloc(hi)[0] > budget:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if alloc(mid)[0] > budget else (lo, mid)
    return alloc(hi)[1]


@pytest.mark.parametrize("mode", optimize.MODES)
@pytest.mark.parametrize("fading,nodes", [
    (Rayleigh(), 8), (Discrete(points=(0.3, 1.0, 2.2), probs=(0.2, 0.5, 0.3)), 1),
    (Discrete(points=(0.5, 1.3), probs=(0.6, 0.4)), 1)], ids=["rayleigh8", "discrete3", "discrete2"])
def test_maximize_rate_beats_uncapped_grid_dual(fading, nodes, mode):
    # reference: the dual solved on 2001 geometric powers up to 1e3 budgets, at
    # the solution's shared rho (fixed-rho) or each power's best arc point
    # (adaptive-rho, from the sextic's roots)
    rule = make_rule(fading, nodes)
    g, w = np.array(rule.nodes), np.array(rule.weights)
    for d, budget in ((CH.Q, 0.02), (CH.Q, 0.1), (0.91, 0.05), (0.3, 2.5)):
        sol = maximize_rate(CH, fading, d, budget, mode=mode, nodes=nodes)
        assert avg_power(rule, sol.policy) <= budget * (1.0 + 1e-9)
        grid = np.concatenate(([0.0], np.geomspace(1e-6 * budget, 1e3 * budget, 2000)))
        if mode == "fixed-rho":
            k = int(np.argmax(sol.policy.power))
            r1, r2 = sol.policy.rho1[k], sol.policy.rho2[k]
            table = _rates(g[:, None], grid, r1, r2, d, CH, 2.0)
        else:
            table = np.array([_arc_best(gi, grid, d) for gi in g])
            # each powered node sits at the arc's best point for its power
            for gi, p, r1, r2 in zip(g, sol.policy.power, sol.policy.rho1, sol.policy.rho2):
                if p > 0.0:
                    assert _rates(gi, p, r1, r2, d, CH, 2.0) >= _arc_best(gi, p, d)[0] - 1e-12
        assert sol.rate >= _grid_dual(table, grid, w, budget) - 1e-9


def test_arc_solution_matches_the_sextic_roots():
    rng = np.random.default_rng(7)
    for _ in range(300):
        g, P, d = rng.uniform(0.0, 4.0), 10.0 ** rng.uniform(-6.0, 3.0), rng.uniform(1e-3, 1.0)
        _, _, R = optimize_rho_per_state(g, P, d, CH)
        assert R >= _arc_best(g, P, d)[0] - 1e-12


def test_fixed_rho_responses_maximize_the_lagrangian():
    # each node's power under a multiplier maximizes R - lam*P over P >= 0:
    # random arc points, plus one whose marginal rate falls, rises and falls
    # again (g = 0.801, d = 0.9949, psi = -0.810), so its hull segment starts
    # at P > 0 and its branches come from np.roots
    rng = np.random.default_rng(17)
    g = np.concatenate(([0.801], rng.uniform(0.0, 4.0, 60)))
    d = np.concatenate(([0.9949], rng.uniform(1e-3, 1.0, 60)))
    psi = np.concatenate(([-0.810], rng.uniform(-0.5 * math.pi, 0.5 * math.pi, 60)))
    nodes = responses.FixedRho(g, d, psi, 1, CH, 2.0)
    assert (nodes.elem == 0).sum() > 2  # the example has two branches besides P = 0
    grid = np.concatenate(([0.0], np.geomspace(1e-8, 1e4, 20001)))
    table = _rates(g[:, None], grid, nodes.rho1[:, None], nodes.rho2[:, None], d[:, None],
                   CH, 2.0)
    for lam in np.geomspace(1e-3, 10.0, 25):
        P = nodes.powers(np.full(g.size, lam))[0]
        got = _rates(g, P, nodes.rho1, nodes.rho2, d, CH, 2.0) - lam * P
        assert (got >= (table - lam * grid).max(axis=1) - 1e-12).all()


def test_adaptive_warm_start_matches_a_cold_start():
    # one state carried across a bisection-like multiplier sequence gives the
    # powers and rates of a fresh state at each multiplier; psi* itself is
    # ill-conditioned where g*sqrt(P) is small, so it is held to 1e-13 absolute
    rng = np.random.default_rng(5)
    # Rayleigh-64 and the nodes of six random 2-4-point Discrete laws
    laws = [np.array(make_rule(Rayleigh(), 64).nodes)]
    laws += [np.sort(rng.uniform(0.05, 3.0, int(rng.integers(2, 5)))) for _ in range(6)]

    def rates(g, d, P, psi):
        return _rates(g, P, np.cos(psi), np.sin(psi), d, CH, 2.0)

    for g in laws:
        for d in (1e-3, 0.3, 1.0):
            def fresh():
                return responses.AdaptiveRho(g, np.full(g.size, d), g.size, CH, 2.0)

            warm = fresh()
            lams = np.concatenate((np.geomspace(0.05, 5.0, 6), rng.uniform(0.02, 3.0, 6)))
            for lam in lams:
                P, psi, _ = warm.powers(np.array([lam]))
                P0, psi0, _ = fresh().powers(np.array([lam]))
                np.testing.assert_allclose(P, P0, rtol=1e-12, atol=0)
                np.testing.assert_allclose(psi, psi0, rtol=0, atol=1e-13)
                np.testing.assert_allclose(rates(g, d, P, psi), rates(g, d, P0, psi0),
                                           rtol=1e-12, atol=1e-15)
            # psi* at other powers, warm from the last solve, as the recovery asks
            mix = np.geomspace(1e-3, 30.0, g.size)
            psi, psi0 = warm.psi(mix), responses.arc_psi(g, np.sqrt(mix), d, CH)
            np.testing.assert_allclose(psi, psi0, rtol=0, atol=1e-13)
            np.testing.assert_allclose(rates(g, d, mix, psi), rates(g, d, mix, psi0),
                                       rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("d,psi", [(0.3, 0.2), (1.0, -0.4), (0.05, 1.2)])
def test_response_derivatives_match_central_differences(d, psi):
    # dP/dlam = P / (lam s) with s from each power solve's last Newton step;
    # at d = Q and psi = -0.4 some nodes stay silent, with dP/dlam = 0
    g = np.array(make_rule(Rayleigh(), 16).nodes)

    def fixed(lam):
        nodes = responses.FixedRho(g, np.full(g.size, d), np.full(g.size, psi), g.size, CH, 2.0)
        P, _, dP = nodes.powers(np.array([lam]))
        return P, dP

    def adaptive(lam):
        nodes = responses.AdaptiveRho(g, np.full(g.size, d), g.size, CH, 2.0)
        P, _, dP = nodes.powers(np.array([lam]))
        return P, dP

    h = 1e-5
    for powers in (fixed, adaptive):
        for lam in (0.05, 0.3, 1.0):
            central = (powers(lam * (1 + h))[0] - powers(lam * (1 - h))[0]) / (2 * h * lam)
            np.testing.assert_allclose(powers(lam)[1], central, rtol=1e-8, atol=0)


def test_repeated_multipliers_reproduce_their_response(monkeypatch):
    # in both modes each element keeps its response to its last multiplier: a
    # repeated multiplier vector gives the same bits and solves no node. The
    # dict of every multiplier's adaptive-rho response this replaced served one
    # other revisit, the recovery's of a bracket end, which now reuses the search's
    g = np.array(make_rule(Rayleigh(), 64).nodes)
    d = np.repeat([0.3, 1.0], g.size)
    evals = _count_newton_evaluations(monkeypatch)
    for nodes in (responses.FixedRho(np.tile(g, 2), d, np.full(d.size, 0.4), g.size, CH, 2.0),
                  responses.AdaptiveRho(np.tile(g, 2), d, g.size, CH, 2.0)):
        for lam in ([0.4, 0.2], [0.3, 0.2], [0.3, 0.5]):
            first = tuple(a.copy() for a in nodes.powers(np.array(lam)))
            solved = sum(evals)
            again = nodes.powers(np.array(lam))
            assert sum(evals) == solved
            assert all(np.array_equal(a, b) for a, b in zip(again, first))


def test_adaptive_solve_reuses_its_responses(monkeypatch):
    # the same Rayleigh-128 solve took 742 arc_terms evaluations when every
    # multiplier was solved from ln(c/lam) and psi from 0
    calls = []
    orig = responses.arc_terms
    monkeypatch.setattr(responses, "arc_terms", lambda *a: calls.append(1) or orig(*a))
    sol = maximize_rate(CH, Rayleigh(), 0.3 * CH.Q, CH.P_avg, mode="adaptive-rho", nodes=128)
    assert sol.rate == pytest.approx(0.369027288770711, rel=1e-12)
    assert len(calls) <= 742 // 2


def test_fixed_rho_power_solves_start_from_each_rows_last_solve(monkeypatch):
    # each row's Newton solve starts from its own last solve; a separate
    # anchor solve of every branch, the start of all later ones, made these
    # Rayleigh-64 solves take 41 and 47 _stationary calls (now 24 and 39)
    calls = []
    orig = responses.FixedRho._stationary
    monkeypatch.setattr(responses.FixedRho, "_stationary",
                        lambda *a: calls.append(1) or orig(*a))
    for d, parent in ((0.3, 41), (CH.Q, 47)):
        calls.clear()
        maximize_rate(CH, Rayleigh(), d, CH.P_avg, nodes=64)
        assert len(calls) < parent


def _count_newton_evaluations(monkeypatch) -> list:
    """One entry per fun evaluation of every responses.newton call from now on: the
    number of rows it evaluates."""
    evals = []
    orig = responses.newton
    monkeypatch.setattr(responses, "newton", lambda fun, *a: orig(
        lambda y, i: evals.append(len(i)) or fun(y, i), *a))
    return evals


def test_fixed_rho_power_solve_near_a_branch_end(monkeypatch):
    # rows whose branch ends at a root x_r of N, with the root at
    # x_r e^(-2.5e-5), i.e. 5e-5 below y_r = ln x_r^2, and a cold start from
    # ln(c / lam). A Newton iteration in y = ln P, where ln m is log-singular at
    # the end, overshot, bisected and crawled back: 10 evaluations
    evals = _count_newton_evaluations(monkeypatch)
    g = np.array(make_rule(Rayleigh(), 64).nodes)
    psi = np.arcsin(np.linspace(-1.0, 1.0, 49))
    for d in (1e-3, 1e-2):
        nodes = responses.FixedRho(np.tile(g, psi.size), np.full(g.size * psi.size, d),
                                   np.repeat(psi, g.size), g.size, CH, 2.0)
        rows = np.flatnonzero(np.isfinite(nodes.xr) & (nodes.xr > 0.0))
        assert rows.size > 2000
        lam = nodes.marginal(nodes.xr[rows] * math.exp(-2.5e-5), nodes.elem[rows])
        evals.clear()
        y, _ = nodes._stationary(rows, lam, np.log(nodes.c / lam))
        assert len(evals) <= 4
        np.testing.assert_allclose(y, 2.0 * np.log(nodes.xr[rows]) - 5e-5, rtol=0, atol=1e-13)


def test_fixed_rho_frontier_work_is_pinned(monkeypatch):
    # the 12-point Rayleigh-64 frontier made 210 respond calls and 2,380 newton
    # evaluations with Newton steps in lam and in ln P up to every branch end,
    # and 142 calls and 477,783 evaluated rows before the psi scan's screen
    # (127 and 264,953 with it)
    evals = _count_newton_evaluations(monkeypatch)
    calls = []
    orig = optimize._dual_solve
    monkeypatch.setattr(optimize, "_dual_solve", lambda respond, *a: orig(
        lambda lam: calls.append(1) or respond(lam), *a))
    rd_frontier(CH, Rayleigh(), 2.5, grid=np.geomspace(1e-3, 1.0, 12), nodes=64)
    assert len(calls) <= 150
    assert len(evals) <= 800
    assert sum(evals) <= 300_000


@pytest.mark.xfail(strict=True, reason="the 64-node rule leaves a certified gap of 3.2e-5 bits "
                   "here; 32 and 128 nodes leave none")
def test_fixed_rho_full_distortion_small_budget_has_no_gap():
    assert maximize_rate(CH, Rayleigh(), CH.Q, 0.25, nodes=64).warnings == ()


@pytest.mark.xfail(strict=True, raises=RuntimeWarning,
                   reason="ROADMAP item 2: at sigma_z2 = 1e-8 the power solves' exp(-z) in "
                   "FixedRho._stationary overflows (478 RuntimeWarnings on this solve), and the "
                   "solve carries a 1.94e-3-bit duality gap")
def test_fixed_rho_tiny_noise_solve_raises_no_warning():
    ch = ChannelParams(Q=1.0, sigma_z2=1e-8, P_avg=2.5)
    maximize_rate(ch, Rayleigh(), 0.5, 2.5, nodes=16)


def test_fixed_rho_jumping_node_reaches_the_one_free_node_optimum():
    # node 16 jumps across its hull segment at the optimal multiplier. Mixing
    # alone, or pinning it at the segment's low end, gave 0.1782545 bits and a
    # gap of 5.28e-5; the best one-free-node allocation (every other node at
    # its response to a common multiplier, node 16 closing the budget) is
    # 0.1782756 by a brute scan of that multiplier, which a hold on the
    # segment's high-power branch reaches
    sol = maximize_rate(CH, Rayleigh(), CH.Q, 0.25, nodes=64)
    assert sol.rate >= 0.1782755
    assert sol.power <= 0.25 * (1.0 + optimize.BUDGET_TOL)
    gap = float(sol.warnings[0].split()[3])
    assert gap <= 3.3e-5


def test_fixed_rho_hold_keeps_an_element_on_its_row():
    # element 0's marginal rate falls, rises and falls again, so it has a
    # P = 0 row and two branches; held on one, it takes that row under every
    # multiplier, and element 1 picks as it does without the hold
    g, d, psi = np.array([0.801, 1.3]), np.array([0.9949, 0.5]), np.array([-0.810, 0.3])
    free = responses.FixedRho(g, d, psi, 1, CH, 2.0)
    rows = np.flatnonzero(free.elem == 0)
    assert rows.size == 3
    for k in range(rows.size):
        held = responses.FixedRho(g, d, psi, 1, CH, 2.0)
        held.hold(np.array([0]), np.array([k]))
        for lam in np.geomspace(1e-3, 10.0, 9):
            P, pick, _ = held.powers(np.full(2, lam))
            P0, pick0, _ = free.powers(np.full(2, lam))
            assert pick[0] == rows[k]
            assert (pick[1], P[1]) == (pick0[1], P0[1])


def test_integer_inputs_take_the_float_path(monkeypatch):
    # an integer budget or ChannelParams gave the multiplier search integer
    # arrays: 121 respond calls against 33 here, 251 against 151 in min_power
    calls = []
    orig = optimize._dual_solve
    monkeypatch.setattr(optimize, "_dual_solve", lambda respond, *a, **kw: orig(
        lambda lam: calls.append(1) or respond(lam), *a, **kw))

    def counted(fn, *args):
        calls.clear()
        return fn(*args, nodes=16), len(calls)

    assert counted(maximize_rate, CH, Rayleigh(), 0.3, 2) == \
        counted(maximize_rate, CH, Rayleigh(), 0.3, 2.0)
    assert counted(min_power, ChannelParams(1, 1, 2.5), Rayleigh(), 0.3, 0.73) == \
        counted(min_power, ChannelParams(1.0, 1.0, 2.5), Rayleigh(), 0.3, 0.73)


@pytest.mark.parametrize("mode", optimize.MODES)
def test_degenerate_gain_trades_against_budget(mode):
    # rates depend on g only through g^2 P and g sqrt(P), so Degenerate(g0) at
    # budget P equals Degenerate(1) at g0^2 P (5.4e-16 relative when pinned)
    for d, budget in ((0.3, 2.5), (1.0, 0.25)):
        for g0 in (0.7, 1.3):
            a = maximize_rate(CH, Degenerate(g0), d, budget, mode=mode).rate
            b = maximize_rate(CH, Degenerate(1.0), d, g0 * g0 * budget, mode=mode).rate
            assert a == pytest.approx(b, rel=1e-12, abs=0.0)
    # so P_min(g0) g0^2 = P_min(1) (9.8e-13 relative when pinned)
    unit = min_power(CH, Degenerate(1.0), 0.2, 0.8, mode=mode)
    for g0 in (0.7, 1.3):
        p = min_power(CH, Degenerate(g0), 0.2, 0.8, mode=mode)
        assert p * g0 * g0 == pytest.approx(unit, rel=POWER_RTOL, abs=0.0)


@st.composite
def _power_cells(draw):
    """A channel, a fading law and node count, a distortion and a reachable rate target."""
    c = 10.0 ** draw(st.floats(-3.0, 3.0))
    ch = ChannelParams(Q=c * 10.0 ** draw(st.floats(-0.6, 0.6)), sigma_z2=c, P_avg=c)
    kind = draw(st.sampled_from(("degenerate", "discrete", "rayleigh")))
    if kind == "degenerate":
        law, nodes = Degenerate(draw(st.floats(0.3, 3.0))), 1
    elif kind == "discrete":
        k = draw(st.integers(2, 3))
        points = sorted(draw(st.lists(st.floats(0.1, 3.0), min_size=k, max_size=k,
                                      unique=True)))
        raw = draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k))
        law, nodes = Discrete(points=tuple(points), probs=tuple(p / sum(raw) for p in raw)), 1
    else:
        law, nodes = Rayleigh(), 16
    D = max(ch.Q * 10.0 ** draw(st.floats(-9.0, 0.0)), ch.d_min)
    # the target: the optimal rate at a drawn budget
    budget = ch.sigma_z2 * 10.0 ** draw(st.floats(-1.5, 1.3))
    return ch, law, nodes, D, budget, draw(st.sampled_from(optimize.MODES))


@given(_power_cells())
def test_min_power_and_maximize_rate_invert_each_other(cell):
    # maximize_rate at P_min reaches the target, and at P_min (1 - 1e-6) it
    # misses: a margin well above the attained rate's ~3e-9 roughness in P
    ch, law, nodes, D, budget, mode = cell
    R = maximize_rate(ch, law, D, budget, mode=mode, nodes=nodes).rate
    assume(R > max(maximize_rate(ch, law, D, 0.0, mode=mode, nodes=nodes).rate, 0.0) + 1e-6)
    p = min_power(ch, law, R, D, mode=mode, nodes=nodes)
    assert maximize_rate(ch, law, D, p, mode=mode, nodes=nodes).rate >= R
    assert maximize_rate(ch, law, D, p * (1.0 - 1e-6), mode=mode, nodes=nodes).rate < R


@given(_power_cells())
def test_adaptive_rho_dominates_fixed_rho(cell):
    # adaptive-rho mode relaxes the psi that fixed-rho mode shares across nodes,
    # so at the same (d, budget) it reaches at least the fixed-rho rate, up to
    # the tolerance of the benchmark's adaptive check
    ch, law, nodes, d, budget, _ = cell
    fixed, adaptive = (maximize_rate(ch, law, d, budget, mode=mode, nodes=nodes).rate
                       for mode in optimize.MODES)
    assert adaptive >= fixed - 1e-9


def test_psi_scan_screen_changes_no_bit(monkeypatch):
    # the coarse psi scan stops each problem whose weak-duality bound lies below
    # a score the scan reaches, unless a psi-neighbour's does not; with a screen
    # that stops nothing every output keeps its bits. The 3-atom law at Q = 4
    # has two interior maxima of V(psi), and min_power screens the rate row
    law3 = Discrete(points=(0.3, 1.0, 2.2), probs=(0.2, 0.5, 0.3))
    ch4 = ChannelParams(Q=4.0, sigma_z2=1.0, P_avg=0.02)
    grid = np.geomspace(1e-3, 1.0, 12)
    runs = {"rayleigh": lambda: rd_frontier(CH, Rayleigh(), 2.5, grid=grid, nodes=64),
            "degenerate": lambda: rd_frontier(CH, Degenerate(1.0), 2.5, grid=grid, nodes=64),
            "3-atom": lambda: rd_frontier(ch4, law3, 0.02, grid=4.0 * grid, nodes=1),
            "min_power": lambda: min_power(CH, Rayleigh(), 0.3, CH.Q, nodes=64)}
    stopped = []
    orig = optimize._screened

    def counted(*args):
        out = orig(*args)
        stopped.append(out.sum())
        return out

    monkeypatch.setattr(optimize, "_screened", counted)
    screened = {}
    for name, run in runs.items():
        stopped.clear()
        screened[name] = repr(run())
        if name == "rayleigh":
            assert max(stopped) > 0
    monkeypatch.setattr(optimize, "_screened", lambda dom, *a: np.zeros_like(dom))
    for name, run in runs.items():
        assert repr(run()) == screened[name], name


def _poly_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Products of the columns of p and q, coefficients of x**k down the first axis."""
    out = np.zeros((p.shape[0] + q.shape[0] - 1, p.shape[1]))
    for k in range(p.shape[0]):
        out[k:k + q.shape[0]] += p[k] * q
    return out


def _poly_der(p: np.ndarray) -> np.ndarray:
    return p[1:] * np.arange(1, p.shape[0])[:, None]


def _poly_val(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    return sum(p[k] * x ** k for k in range(p.shape[0]))


def _positive_roots(p: np.ndarray) -> np.ndarray:
    """Positive real roots of each column of p, as np.roots finds them (eigenvalues of the
    companion matrix), one row per column padded with nan."""
    deg = p.shape[0] - 1 - np.argmax(p[::-1] != 0.0, axis=0)
    out = np.full((p.shape[1], p.shape[0] - 1), np.nan)
    for k in np.unique(deg[deg > 0]):
        j = np.flatnonzero(deg == k)
        comp = np.zeros((j.size, k, k))
        comp[:, 0, :] = -(p[k - 1::-1, j] / p[k, j]).T
        comp[:, np.arange(1, k), np.arange(k - 1)] = 1.0
        r = np.linalg.eigvals(comp)
        out[j, :k] = np.where((r.real > 0.0) & (np.abs(r.imag) <= 1e-9 * np.abs(r)), r.real,
                              np.nan)
    return out


@pytest.mark.parametrize("sigma_z2", [1.0, 0.01])
@pytest.mark.parametrize("law", [Rayleigh(), Discrete((0.0, 0.5, 1.7), (0.2, 0.5, 0.3)),
                                 Degenerate(0.0)], ids=["rayleigh64", "atoms", "silent"])
def test_fixed_rho_mapped_structure_matches_each_elements_roots(law, sigma_z2):
    # FixedRho builds its structure once per (d, psi) problem and maps it onto
    # the nodes; here every element's rows come from its own N and S through
    # _branches (np.roots), and its best response to a multiplier is the best
    # of R - lam*P over P = 0 and the positive roots of c*N - 2*lam*x*A*B
    ch = ChannelParams(Q=1.0, sigma_z2=sigma_z2, P_avg=1.0)
    g0 = np.array(make_rule(law, 64).nodes)
    psi = np.arcsin(np.linspace(-1.0, 1.0, 49))
    for d in (1e-3, 0.3, 0.9, ch.Q):
        g = np.tile(g0, psi.size)
        nodes = responses.FixedRho(g, np.full(g.size, d), np.repeat(psi, g0.size), g0.size,
                                   ch, 2.0)
        # A, B, N = A'B - AB' and S = N'T - NT' with T = x*A*B, of each element
        u, v, r1, r2 = math.sqrt(ch.Q - d), math.sqrt(d), nodes.rho1, nodes.rho2
        A = np.stack([np.full(g.size, ch.Q + sigma_z2), 2.0 * g * (r1 * u + r2 * v), g * g])
        B = np.stack([np.full(g.size, d + sigma_z2), 2.0 * g * r2 * v, (g * r2) ** 2])
        N = _poly_mul(_poly_der(A), B) - _poly_mul(A, _poly_der(B))
        T = _poly_mul(np.eye(2)[:, [1] * g.size], _poly_mul(A, B))
        S = _poly_mul(_poly_der(N), T) - _poly_mul(N, _poly_der(T))
        # an element has a P = 0 row first; one whose one branch starts at 0 (and
        # so reaches P = 0) may go without
        rows, first = [], nodes.xr[nodes.start] == 0.0
        for e in range(g.size):
            br = responses._branches(N[:, e], S[:, e])
            if first[e] or not (len(br) == 1 and br[0][0] == 0.0):
                rows.append((e, 0.0, 0.0, False))
            rows += [(e, lo, hi, root and math.isfinite(hi)) for lo, hi, root in br]
        elem, xl, xr, at_root = (np.array(z) for z in zip(*rows))
        np.testing.assert_array_equal(nodes.elem, elem)
        np.testing.assert_array_equal(nodes.start, np.searchsorted(elem, np.arange(g.size)))
        np.testing.assert_array_equal(nodes.at_root, at_root)
        np.testing.assert_allclose(nodes.xl, xl, rtol=1e-11, atol=0)
        np.testing.assert_allclose(nodes.xr, xr, rtol=1e-11, atol=0)
        # the marginal rate c*N / (2 x A B) at the branch ends, -inf on P = 0 rows;
        # 0 at a root of N or at infinity, and its sign or c*n1/(2 a0 b0) at 0+
        c, zero, co = nodes.c, xr == 0.0, (N[:, elem], A[:, elem], B[:, elem])
        with np.errstate(divide="ignore", invalid="ignore"):
            m = [c * _poly_val(co[0], x) / (2.0 * x * _poly_val(co[1], x) * _poly_val(co[2], x))
                 for x in (xl, xr)]
            m0 = np.where(co[0][0] != 0.0, np.copysign(np.inf, co[0][0]),
                          c * co[0][1] / (2.0 * co[1][0] * co[2][0]))
        m_lo = np.where(zero, -np.inf, np.where(xl > 0.0, m[0], m0))
        m_hi = np.where(zero, -np.inf, np.where(at_root | np.isinf(xr), 0.0, m[1]))
        np.testing.assert_allclose(nodes.m_lo, m_lo, rtol=1e-11, atol=0)
        # at a root of N the mapped end leaves a marginal rate of rounding size
        np.testing.assert_allclose(nodes.m_hi, m_hi, rtol=1e-11,
                                   atol=1e-12 * c * float(g0.max()) ** 2)
        for lam in (0.01, 0.05, 0.2, 0.7, 3.0):
            # candidates (P = 0 and the roots) down the first axis
            x = np.vstack([np.zeros(g.size), _positive_roots(c * np.vstack(
                [N, np.zeros((T.shape[0] - N.shape[0], g.size))]) - 2.0 * lam * T).T])
            score = c * np.log(_poly_val(A, x) / _poly_val(B, x)) - lam * x * x
            best = x[np.nanargmax(score, axis=0), np.arange(g.size)] ** 2
            # the power solves stop within 1e-9 in ln P
            np.testing.assert_allclose(nodes.powers(np.full(psi.size, lam))[0], best,
                                       rtol=1e-9, atol=0)
