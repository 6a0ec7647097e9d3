import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from fadingcr import optimize, responses
from fadingcr.model import (ChannelParams, CodingParams, ConfigError, Degenerate, Discrete,
                            PerStatePolicy, Rayleigh, in_disk)
from fadingcr.ergodic import avg_power, ergodic_rate, make_rule
from fadingcr.optimize import (POWER_RTOL, UnreachableError, _dual_solve, _into_disk, _rates,
                               _Response, concave_envelope, maximize_rate, min_power,
                               optimize_rho_per_state, power_distortion_curve, rd_frontier)

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
        min_power(CH, Degenerate(0.0), 0.1, 0.5, p_cap=1e3)


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
        min_power(ch, Degenerate(0.0), 0.1, 0.5, nodes=1, p_cap=1e3)
    assert solves and max(p for _, p in solves) <= 1e3


def test_min_power_reaches_target_where_brent_stops_short():
    # a root-finder that returns an unsolved budget can fall short of the
    # target (Brent's method fell 1e-8 short here); min_power returns a
    # solved budget that reaches it
    R = 0.3059469816782637
    p = min_power(CH, Rayleigh(), R, CH.Q, nodes=64)
    assert maximize_rate(CH, Rayleigh(), CH.Q, p, nodes=64).rate >= R


def test_min_power_answer_is_solved_with_a_miss_just_below(solves):
    # the search stops on two solved budgets: the answer reaches the target,
    # and a budget at most POWER_RTOL below it misses. Newton steps on the
    # multiplier lam = dR*/dB take 7 solves on this cold cell, the zero budget
    # included; bracketing by factors of 4 and Brent's method took 9
    R = 0.3
    cold_p = min_power(CH, Rayleigh(), R, CH.Q, nodes=64)
    cold = list(solves)
    assert len(cold) < 9
    solves.clear()
    # the D = 0.91 Q cell starts from the D = Q answer as a warm lower bound,
    # and that cell's solves hold its miss
    d_warm = 0.91 * CH.Q
    curve = power_distortion_curve(CH, Rayleigh(), [R], [d_warm, CH.Q], nodes=64)
    for d, p, seen in ((CH.Q, cold_p, cold), (d_warm, curve[(R, d_warm)], list(solves))):
        assert (d, p) in seen
        assert maximize_rate(CH, Rayleigh(), d, p, nodes=64).rate >= R
        assert any(q >= (1.0 - POWER_RTOL) * p
                   and maximize_rate(CH, Rayleigh(), e, q, nodes=64).rate < R
                   for e, q in seen)


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


@pytest.mark.parametrize("fading", [Rayleigh(), Degenerate(1.0),
                                    Discrete(points=(0.3, 1.0, 2.2), probs=(0.2, 0.5, 0.3))],
                         ids=["rayleigh", "degenerate", "discrete"])
def test_frontier_points_equal_single_solves(fading):
    # rd_frontier solves its grid as one batch; each point must be the batch of one
    fr = rd_frontier(CH, fading, 2.5, grid=np.geomspace(0.05, 1.0, 6), nodes=16)
    for p in fr.points:
        sol = maximize_rate(CH, fading, p.d_used, 2.5, nodes=16)
        assert p.R == sol.rate
        assert p.policy == sol.policy
        assert p.warnings == sol.warnings


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
        resp, lam, (lo, hi) = _dual_solve(_step_response(lam_star, calls), w, budget,
                                          hint=UNIT, floor=floor)
        assert len(calls) <= most
        assert resp.power[0, 0] <= budget[0] and lam[0] >= lam_star[0]
        assert hi[0] - lo[0] <= floor * hi[0] and lo[0] < lam_star[0] <= hi[0]


def test_dual_solve_stops_when_its_multiplier_tends_to_zero():
    # lam* = 1e-300 lies far below the hint: the bracket is halved down to
    # 1e-12 of the hint's hi (40 steps), where the multiplier counts as 0
    lam_star, budget, w = np.array([1e-300]), np.array([1.0]), np.array([1.0])
    calls = []
    resp, lam, (lo, hi) = _dual_solve(_step_response(lam_star, calls), w, budget,
                                      hint=(np.array([0.8]), np.array([1.25])), floor=1e-6)
    assert len(calls) <= 45
    assert lo[0] == 0.0 and 0.0 < lam[0] == hi[0] <= 1.25e-12
    assert resp.power[0, 0] <= budget[0]


def test_dual_solve_batch_equals_single_solves():
    # the second problem needs its multiplier doubled three times, the first does not
    lam_star, budget, w = np.array([0.37, 2.9]), np.array([1.0, 1.0]), np.array([1.0])
    resp, lam, bracket = _dual_solve(_step_response(lam_star, []), w, budget,
                                     hint=(np.zeros(2), np.ones(2)), floor=1e-6)
    for b in range(2):
        one = _dual_solve(_step_response(lam_star[[b]], []), w, budget[[b]], hint=UNIT,
                          floor=1e-6)
        assert lam[b] == one[1][0]
        assert (bracket[0][b], bracket[1][b]) == (one[2][0][0], one[2][1][0])
        assert (resp.power[b] == one[0].power[0]).all()
        assert (resp.value[b] == one[0].value[0]).all()


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
        resp, lam, (lo, hi) = _dual_solve(respond, w, budget, _water_filling_hint(g, w, budget),
                                          floor=1e-6)
        assert len(calls) <= 6
        assert 0.0 < hi[0] - lo[0] <= 1e-6 * hi[0] and lam[0] == hi[0]
        assert w @ resp.power[0] <= B < w @ respond(lo).power[0]


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

    resp, lam, (lo, hi) = _dual_solve(respond, w, budget, hint=UNIT, floor=1e-6)
    assert lo[0] < lam_star[0] <= hi[0] == lam[0] and hi[0] - lo[0] <= 1e-6 * hi[0]
    assert resp.power[0, 0] <= budget[0]
    assert len(calls) <= 2 * 24


def test_dual_solve_newton_batch_equals_single_solves():
    rule = make_rule(Rayleigh(), 16)
    g, w = np.array(rule.nodes) ** 2, np.array(rule.weights)
    budget = np.array([0.1, 1.0, 2.5, 30.0])
    hint = _water_filling_hint(g, w, budget)
    resp, lam, bracket = _dual_solve(_water_filling(g, []), w, budget, hint, floor=1e-6)
    for b in range(budget.size):
        one = _dual_solve(_water_filling(g, []), w, budget[[b]],
                          (hint[0][[b]], hint[1][[b]]), floor=1e-6)
        assert lam[b] == one[1][0]
        assert (bracket[0][b], bracket[1][b]) == (one[2][0][0], one[2][1][0])
        assert (resp.power[b] == one[0].power[0]).all()
        assert (resp.value[b] == one[0].value[0]).all()


@pytest.mark.parametrize("mode", optimize.MODES)
def test_bisection_is_scale_invariant(monkeypatch, mode):
    # the multiplier search starts from the mean marginal rate at uniform
    # power, which scales as 1/c: Newton steps take 21 respond calls in
    # fixed-rho mode and 6 in adaptive-rho mode at both scales (the bisection
    # took 78 and 22), and a bisection from (0, 1) took 25 respond calls at
    # c = 1 and 65 at c = 1e12 in adaptive-rho mode
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
    # the batched grid solve holds at most CHUNK_ROWS (problem, node) rows at a
    # time, so its peak stays near one chunk's however long the grid (12 points
    # here, 50 in the CLI's default)
    make_rule(Rayleigh(), 64)  # the cold rule build is not part of the solve
    tracemalloc.start()
    try:
        rd_frontier(CH, Rayleigh(), 2.5, grid=np.geomspace(1e-3, 1.0, 12), nodes=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


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
            warm = responses.AdaptiveRho(g, d, CH, 2.0)
            lams = np.concatenate((np.geomspace(0.05, 5.0, 6), rng.uniform(0.02, 3.0, 6)))
            for lam in lams:
                P, psi, _ = warm.powers(float(lam))
                P0, psi0, _ = responses.AdaptiveRho(g, d, CH, 2.0).powers(float(lam))
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
        P, _, dP = responses.AdaptiveRho(g, d, CH, 2.0).powers(lam)
        return P, dP

    h = 1e-5
    for powers in (fixed, adaptive):
        for lam in (0.05, 0.3, 1.0):
            central = (powers(lam * (1 + h))[0] - powers(lam * (1 - h))[0]) / (2 * h * lam)
            np.testing.assert_allclose(powers(lam)[1], central, rtol=1e-8, atol=0)


def test_adaptive_revisited_multiplier_reproduces_its_response():
    g = np.array(make_rule(Rayleigh(), 64).nodes)
    nodes = responses.AdaptiveRho(g, 0.3, CH, 2.0)
    first = [tuple(a.copy() for a in nodes.powers(lam)) for lam in (0.4, 0.2, 0.3)]
    for lam, want in zip((0.3, 0.4, 0.2, 0.3), [first[2], *first]):
        again = nodes.powers(lam)
        assert all(np.array_equal(a, b) for a, b in zip(again, want))


def test_adaptive_solve_reuses_its_responses(monkeypatch):
    # the same Rayleigh-128 solve took 742 arc_terms evaluations when every
    # multiplier was solved from ln(c/lam) and psi from 0
    calls = []
    orig = responses.arc_terms
    monkeypatch.setattr(responses, "arc_terms", lambda *a: calls.append(1) or orig(*a))
    sol = maximize_rate(CH, Rayleigh(), 0.3 * CH.Q, CH.P_avg, mode="adaptive-rho", nodes=128)
    assert sol.rate == pytest.approx(0.369027288770711, rel=1e-12)
    assert len(calls) <= 742 // 2


@pytest.mark.xfail(strict=True, reason="the 64-node rule leaves a certified gap of 3.2e-5 bits "
                   "here; 32 and 128 nodes leave none")
def test_fixed_rho_full_distortion_small_budget_has_no_gap():
    assert maximize_rate(CH, Rayleigh(), CH.Q, 0.25, nodes=64).warnings == ()


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
