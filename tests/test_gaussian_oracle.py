import math
import tracemalloc

import numpy as np
import pytest

from fadingcr import gaussian_oracle as go
from fadingcr.model import ChannelParams, CodingParams
from fadingcr.gaussian_oracle import (VARIABLES, build_covariance, gp_rate_oracle, mc_estimate,
                                      mutual_information, schur_conditional_variance)
from fadingcr.rate_core import rate_per_state

CH = ChannelParams(Q=1.0, sigma_z2=1.0, P_avg=2.5)


def var(cov, name):
    i = VARIABLES.index(name)
    return float(cov.matrix[i, i])


def draw(rng, d_lo=1e-6, d_hi=0.999999):
    g = rng.uniform(0.0, 4.0)
    P = rng.uniform(0.0, 10.0)
    r = math.sqrt(rng.uniform(0.0, 1.0))
    th = rng.uniform(0.0, 2.0 * math.pi)
    d = rng.uniform(d_lo, CH.Q * d_hi)
    return g, P, CodingParams(r * math.cos(th), r * math.sin(th), d)


def test_silent_transmitter():
    cov = build_covariance(1.0, 0.0, CodingParams(0.0, 0.0, 0.5), CH)
    assert var(cov, "X") == 0.0
    assert var(cov, "Y") == pytest.approx(CH.Q + CH.sigma_z2, rel=1e-14)


def test_var_y_example_and_full_power():
    cov = build_covariance(1.0, 2.5, CodingParams(0.9, 0.0, 0.9), CH)
    assert var(cov, "Y") == pytest.approx(5.4, rel=1e-13)
    assert var(cov, "X") == pytest.approx(2.5, rel=1e-14)  # E[X^2] = P exactly


def test_state_variance_exact():
    rng = np.random.default_rng(21)
    for _ in range(200):
        g, P, cp = draw(rng)
        cov = build_covariance(g, P, cp, CH)
        assert var(cov, "S") == CH.Q
        assert cov.matrix[0, 1] == 0.0  # Cov(U, T) = 0
        assert var(cov, "U") + var(cov, "T") == pytest.approx(CH.Q, rel=1e-14)


def test_y_row_structure():
    rng = np.random.default_rng(22)
    for _ in range(100):
        g, P, cp = draw(rng)
        m = build_covariance(g, P, cp, CH).matrix
        for i in range(4):
            assert m[i, 4] == pytest.approx(g * m[i, 3] + m[i, 2], rel=1e-13, abs=1e-13)
        assert m[4, 4] == pytest.approx(
            g * g * m[3, 3] + 2 * g * m[2, 3] + CH.Q + CH.sigma_z2, rel=1e-13)


def test_schur_independence_and_distortion():
    rng = np.random.default_rng(23)
    for _ in range(300):
        g, P, cp = draw(rng)
        cov = build_covariance(g, P, cp, CH)
        # Var(S|U) = d from the state split
        assert schur_conditional_variance(cov, "S", "U") == pytest.approx(cp.d, abs=1e-12)
        # conditioning on an independent variable leaves the variance
        assert schur_conditional_variance(cov, "U", "T") == pytest.approx(
            var(cov, "U"), rel=1e-13, abs=1e-15)


def test_mutual_information_properties():
    rng = np.random.default_rng(24)
    for _ in range(300):
        g, P, cp = draw(rng)
        cov = build_covariance(g, P, cp, CH)
        iuy = mutual_information(cov, "U", "Y")
        iyu = mutual_information(cov, "Y", "U")
        assert iuy == pytest.approx(iyu, rel=1e-11, abs=1e-11)
        assert iuy >= -1e-10
        # I(U;S) = 0.5 log2(Q/d) from Var(S|U) = d
        ius = mutual_information(cov, "U", "S")
        assert ius == pytest.approx(0.5 * math.log2(CH.Q / cp.d), rel=1e-10, abs=1e-11)


def test_mutual_information_block_diagonal_is_zero():
    cov = build_covariance(1.0, 2.5, CodingParams(0.0, 0.0, 0.5), CH)
    assert mutual_information(cov, "U", "T") == pytest.approx(0.0, abs=1e-13)


def test_degenerate_u_at_full_distortion():
    cov = build_covariance(1.3, 2.5, CodingParams(0.0, 0.4, 1.0), CH)
    assert mutual_information(cov, "U", "Y") == 0.0
    assert mutual_information(cov, "U", "S") == 0.0
    assert gp_rate_oracle(1.3, 2.5, CodingParams(0.0, 0.4, 1.0), CH) == 0.0


def test_disjointness_required():
    cov = build_covariance(1.0, 2.5, CodingParams(0.5, 0.0, 0.5), CH)
    with pytest.raises(ValueError):
        mutual_information(cov, ("U", "Y"), ("Y",))


def test_oracle_matches_closed_form():
    rng = np.random.default_rng(25)
    worst = 0.0
    for _ in range(2000):
        g, P, cp = draw(rng)
        worst = max(worst, abs(gp_rate_oracle(g, P, cp, CH)
                               - rate_per_state(g, P, cp, CH)))
    assert worst <= 1e-9


def test_oracle_hand_example():
    assert gp_rate_oracle(1.0, 2.5, CodingParams(0.9, 0.0, 0.9), CH) == \
        pytest.approx(0.5165144001937355, abs=1e-9)


def test_mc_determinism():
    cp = CodingParams(0.6, -0.3, 0.4)
    a = mc_estimate(1.2, 3.0, cp, CH, n=5000, seed=123)
    b = mc_estimate(1.2, 3.0, cp, CH, n=5000, seed=123)
    assert np.array_equal(a.covariance, b.covariance)
    assert a.var_s_given_u == b.var_s_given_u
    assert a.rate == b.rate
    c = mc_estimate(1.2, 3.0, cp, CH, n=5000, seed=124)
    assert not np.array_equal(a.covariance, c.covariance)
    assert a.algorithm == "pcg64-ndtri"


def test_open_uniform_stays_inside_the_unit_interval():
    # from 2^52 on, 2k+1 rounds to an even neighbour; only the top integer,
    # which rounded to 1.0 (a sample of +inf), moves
    k = np.array([0, 1, 2 ** 52 - 1, 2 ** 52, 2 ** 53 - 2, 2 ** 53 - 1], dtype=np.int64)
    u = go._open_uniform(k)
    assert np.all((u > 0.0) & (u < 1.0))
    unclamped = (k * 2.0 + 1.0) * 2.0 ** -54
    assert np.array_equal(u[:-1], unclamped[:-1])
    assert unclamped[-1] == 1.0 and u[-1] == np.nextafter(1.0, 0.0)


@pytest.mark.parametrize("n", [500_000, 2_000_000])
def test_mc_estimate_memory_does_not_grow_with_n(n):
    cp = CodingParams(0.6, -0.3, 0.4)
    mc_estimate(1.2, 3.0, cp, CH, n=1000, seed=1)  # imports scipy.special outside the trace
    tracemalloc.start()
    try:
        mc_estimate(1.2, 3.0, cp, CH, n=n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_mc_requires_min_samples():
    with pytest.raises(ValueError):
        mc_estimate(1.0, 1.0, CodingParams(0.0, 0.0, 0.5), CH, n=10, seed=0)


def test_mc_tracks_construction():
    cp = CodingParams(0.7, 0.2, 0.6)
    est = mc_estimate(1.0, 2.5, cp, CH, n=400_000, seed=42)
    assert est.var_s_given_u == pytest.approx(cp.d, rel=0.02)
    assert est.rate == pytest.approx(rate_per_state(1.0, 2.5, cp, CH), abs=0.02)
    # sample covariance close to the analytic one
    ref = build_covariance(1.0, 2.5, cp, CH).matrix
    assert np.max(np.abs(est.covariance - ref)) < 0.05


def test_mc_error_shrinks_with_n():
    # quadrupling n should roughly halve the Var(S|U) error on average
    cp = CodingParams(0.5, 0.1, 0.5)
    errs = {n: [] for n in (1000, 4000)}
    for seed in range(48):
        for n in errs:
            est = mc_estimate(0.8, 2.0, cp, CH, n=n, seed=1000 + seed)
            errs[n].append(abs(est.var_s_given_u - cp.d))
    assert np.mean(errs[4000]) < 0.75 * np.mean(errs[1000])
