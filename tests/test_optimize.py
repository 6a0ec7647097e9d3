import math

import numpy as np
import pytest

from fadingcr import optimize
from fadingcr.model import (ChannelParams, CodingParams, ConfigError, Degenerate, Discrete,
                            Rayleigh)
from fadingcr.ergodic import avg_power, ergodic_rate, make_rule
from fadingcr.optimize import (UnreachableError, _into_disk, _rates, concave_envelope,
                               maximize_rate, min_power, optimize_rho_per_state,
                               power_distortion_curve, rd_frontier)

CH = ChannelParams(Q=1.0, sigma_z2=1.0, P_avg=2.5)


def brute_disk_max(g, P, d, nr=120, nth=2400):
    r = np.linspace(0.0, 1.0, nr)[:, None]
    th = np.linspace(0.0, 2 * math.pi, nth, endpoint=False)[None, :]
    vals = _rates(g, P, r * np.cos(th), r * np.sin(th), d, CH, 2.0)
    return float(vals.max())


def test_rho_optimum_beats_brute_grid():
    rng = np.random.default_rng(31)
    for _ in range(12):
        g = rng.uniform(0.1, 3.5)
        P = rng.uniform(0.1, 8.0)
        d = rng.uniform(0.01, 1.0)
        _, _, R = optimize_rho_per_state(g, P, d, CH)
        assert R >= brute_disk_max(g, P, d) - 1e-9


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
    solves.clear()
    c = 4.0
    scaled = min_power(ChannelParams(c * CH.Q, c * CH.sigma_z2, c * CH.P_avg),
                       Degenerate(1.0), 0.2, c * 0.8, nodes=1)
    assert scaled == pytest.approx(c * base, rel=1e-8)
    assert len(solves) == n_base


@pytest.mark.parametrize("sigma_z2", [1.0, 1e4])
def test_min_power_unreachable_solves_nothing_above_cap(solves, sigma_z2):
    ch = ChannelParams(CH.Q, sigma_z2, CH.P_avg)
    with pytest.raises(UnreachableError):
        min_power(ch, Degenerate(0.0), 0.1, 0.5, nodes=1, p_cap=1e3)
    assert solves and max(p for _, p in solves) <= 1e3


def test_min_power_reaches_target_where_brent_stops_short():
    # brentq's root here fell 1e-8 short of the target
    R = 0.3059469816782637
    p = min_power(CH, Rayleigh(), R, CH.Q, nodes=64)
    assert maximize_rate(CH, Rayleigh(), CH.Q, p, nodes=64).rate >= R


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
