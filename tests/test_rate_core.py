import math

import numpy as np
import pytest

from fadingcr.model import ChannelParams, CodingParams, ConfigError
from fadingcr import gaussian_oracle as go
from fadingcr.rate_core import (ConverseCovariance, NumericalError,
                                cond_var_s_given_shat_y, cond_var_y_given_u,
                                converse_rate, kappa_member, psd_feasible,
                                rate_per_state, var_y)

CH = ChannelParams(Q=1.0, sigma_z2=1.0, P_avg=2.5)


def draw(rng, d_lo=1e-6):
    g = rng.uniform(0.0, 4.0)
    P = rng.uniform(0.0, 10.0)
    r = math.sqrt(rng.uniform(0.0, 1.0))
    th = rng.uniform(0.0, 2.0 * math.pi)
    d = rng.uniform(d_lo, CH.Q * 0.999999)
    return g, P, CodingParams(r * math.cos(th), r * math.sin(th), d)


def test_rate_zero_at_full_distortion_no_correlation():
    assert rate_per_state(1.0, 2.5, CodingParams(0.0, 0.0, 1.0), CH) == 0.0
    for g in (0.0, 0.3, 2.0, 7.5):
        for P in (0.0, 1.0, 9.0):
            assert rate_per_state(g, P, CodingParams(0.0, 0.0, 1.0), CH) == 0.0


def test_rate_hand_example_feasible():
    # numerator 0.9*(2.5+1+1+2*0.9*0.5) = 4.86, denominator 1*(0.475+0.9+1) = 2.375
    r = rate_per_state(1.0, 2.5, CodingParams(0.9, 0.0, 0.9), CH)
    assert r == pytest.approx(0.5 * math.log2(4.86 / 2.375), rel=1e-14)
    assert r == pytest.approx(0.5165, abs=5e-5)


def test_rate_hand_example_infeasible():
    r = rate_per_state(1.0, 2.5, CodingParams(0.8, 0.0, 0.25), CH)
    assert r == pytest.approx(-0.181, abs=5e-4)
    assert r < 0


def test_kappa_member():
    assert kappa_member(1.0, 2.5, CodingParams(0.9, 0.0, 0.9), CH)
    assert not kappa_member(1.0, 2.5, CodingParams(0.8, 0.0, 0.25), CH)
    assert not kappa_member(1.0, 2.5, CodingParams(0.9, 0.9, 0.5), CH)


def test_rate_rejects_invalid():
    with pytest.raises(ConfigError):
        rate_per_state(1.0, 1.0, CodingParams(0.9, 0.9, 0.5), CH)
    with pytest.raises(NumericalError):
        rate_per_state(-1.0, 1.0, CodingParams(0.0, 0.0, 0.5), CH)


def test_rate_nats_base():
    cp = CodingParams(0.9, 0.0, 0.9)
    bits = rate_per_state(1.0, 2.5, cp, CH, base=2.0)
    nats = rate_per_state(1.0, 2.5, cp, CH, base=math.e)
    assert nats == pytest.approx(bits * math.log(2.0), rel=1e-13)


def test_rate_monotone_in_power_at_full_state_correlation():
    # at rho1 = 1, rho2 = 0 the denominator loses its P dependence and the
    # rate is nondecreasing in P; for rho1 < 1 the rate approaches its limit
    # 0.5*log2(d / ((1-rho1^2) Q)) from above, so it is eventually decreasing
    for d in (0.3, 0.9):
        cp = CodingParams(1.0, 0.0, d)
        for g in (0.5, 1.0, 3.0):
            rates = [rate_per_state(g, P, cp, CH) for P in np.linspace(0, 12, 80)]
            assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))

    cp = CodingParams(0.2, 0.0, 0.3)
    rates = [rate_per_state(0.5, P, cp, CH) for P in np.linspace(0, 12, 80)]
    assert any(b < a for a, b in zip(rates, rates[1:]))
    assert rates[-1] > 0.5 * math.log2(0.3 / 0.96)  # above the P -> inf limit


def test_cond_var_y_given_u():
    assert cond_var_y_given_u(1.0, 2.5, CodingParams(1.0, 0.0, 0.9), CH) == \
        pytest.approx(0.9 + 1.0, rel=1e-14)
    assert cond_var_y_given_u(2.0, 0.0, CodingParams(0.3, 0.4, 0.6), CH) == \
        pytest.approx(0.6 + 1.0, rel=1e-14)
    assert cond_var_y_given_u(1.0, 2.5, CodingParams(0.9, 0.0, 0.9), CH) == \
        pytest.approx(2.375, rel=1e-14)


def test_var_y_examples():
    K = ConverseCovariance.from_rhos(0.0, 0.6, 0.4, 0.0, 0.0)
    assert var_y(1.3, K, CH) == pytest.approx(CH.Q + CH.sigma_z2, rel=1e-14)
    K = ConverseCovariance.from_rhos(2.5, 0.1, 0.9, 0.9, 0.0)
    assert var_y(1.0, K, CH) == pytest.approx(5.4, rel=1e-14)
    assert var_y(0.0, K, CH) == pytest.approx(0.1 + 0.9 + 1.0, rel=1e-14)


def test_cond_var_s_given_shat_y_scalar_cases():
    K = ConverseCovariance.from_rhos(0.0, 0.0, 1.0, 0.0, 0.0)
    assert cond_var_s_given_shat_y(1.0, K, CH) == pytest.approx(0.5, rel=1e-14)
    K = ConverseCovariance.from_rhos(2.0, 1.0, 0.0, 0.5, 0.0)
    assert cond_var_s_given_shat_y(1.7, K, CH) == 0.0


def test_cond_var_s_given_shat_y_matches_schur_on_boundary():
    rng = np.random.default_rng(11)
    for _ in range(400):
        g = rng.uniform(0, 4)
        k00 = rng.uniform(0, 10)
        k22 = rng.uniform(1e-6, 0.999999)
        th = rng.uniform(0, 2 * math.pi)
        K = ConverseCovariance.from_rhos(k00, 1.0 - k22, k22,
                                         math.cos(th), math.sin(th))
        m = go.converse_joint_covariance(g, K, CH)
        schur = go.schur_conditional_variance(m, "S", ("Shat", "Y"),
                                              variables=go.CONVERSE_VARIABLES)
        assert cond_var_s_given_shat_y(g, K, CH) == pytest.approx(schur, rel=1e-10, abs=1e-12)


def test_cond_var_s_given_shat_y_interior_residual():
    # in the disk interior the closed form understates the exact conditional
    # variance by g^2 K00 (1 - rho1^2 - rho2^2) K22 / B
    rng = np.random.default_rng(12)
    for _ in range(400):
        g = rng.uniform(0, 4)
        k00 = rng.uniform(0, 10)
        k22 = rng.uniform(1e-6, 0.999999)
        r = math.sqrt(rng.uniform(0, 1))
        th = rng.uniform(0, 2 * math.pi)
        K = ConverseCovariance.from_rhos(k00, 1.0 - k22, k22,
                                         r * math.cos(th), r * math.sin(th))
        m = go.converse_joint_covariance(g, K, CH)
        schur = go.schur_conditional_variance(m, "S", ("Shat", "Y"),
                                              variables=go.CONVERSE_VARIABLES)
        den = (g * g * (1 - K.rho1 ** 2) * k00 + k22 + CH.sigma_z2
               + 2 * g * K.rho2 * math.sqrt(k00 * k22))
        residual = g * g * k00 * (1 - K.rho1 ** 2 - K.rho2 ** 2) * k22 / den
        closed = cond_var_s_given_shat_y(g, K, CH)
        assert closed + residual == pytest.approx(schur, rel=1e-10, abs=1e-12)


def test_converse_rate_identity_with_achievability():
    # K keeps the correlations it was built from, so both paths see identical
    # inputs and the shared kernel yields bit-identical rates
    rng = np.random.default_rng(13)
    for _ in range(2000):
        g, P, cp = draw(rng)
        K = ConverseCovariance.from_rhos(P, CH.Q - cp.d, cp.d, cp.rho1, cp.rho2)
        back = CodingParams(K.rho1, K.rho2, cp.d)
        assert converse_rate(g, K, CH) == rate_per_state(g, P, back, CH)
        assert converse_rate(g, K, CH) == pytest.approx(
            rate_per_state(g, P, cp, CH), rel=1e-12, abs=1e-12)


def test_converse_rate_zero_case():
    # K22 = Q, K11 = 0, K00 = 0: numerator equals denominator
    K = ConverseCovariance.from_rhos(0.0, 0.0, 1.0, 0.7, 0.0)
    assert converse_rate(1.0, K, CH) == 0.0


def test_converse_rate_dual_path():
    # independent evaluation through the entropy decomposition:
    # R = 0.5 log2( Var(Y) * Var(S|Shat,Y) / (sigma_z2 * Var(S)) )
    rng = np.random.default_rng(14)
    for _ in range(1000):
        g = rng.uniform(0, 4)
        k00 = rng.uniform(0, 10)
        k22 = rng.uniform(1e-6, 0.999999)
        th = rng.uniform(0, 2 * math.pi)
        K = ConverseCovariance.from_rhos(k00, 1.0 - k22, k22,
                                         math.cos(th), math.sin(th))
        m = go.converse_joint_covariance(g, K, CH)
        vs = m[3, 3]
        vssy = go.schur_conditional_variance(m, "S", ("Shat", "Y"),
                                             variables=go.CONVERSE_VARIABLES)
        ref = 0.5 * math.log2(m[4, 4] * vssy / (CH.sigma_z2 * vs))
        got = converse_rate(g, K, CH)
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_psd_feasible():
    assert psd_feasible(ConverseCovariance(1.0, 2.0, 3.0, 0.0, 0.0))
    assert not psd_feasible(ConverseCovariance.from_rhos(1.0, 0.5, 0.5, 0.8, 0.7))
    # exact boundary has a zero eigenvalue and stays feasible
    K = ConverseCovariance.from_rhos(2.0, 0.5, 0.5, 0.6, 0.8)
    assert psd_feasible(K)
    assert not psd_feasible(ConverseCovariance(1.0, 1.0, 1.0, math.nan, 0.0))


def test_psd_feasible_implies_disk():
    rng = np.random.default_rng(15)
    for _ in range(2000):
        K = ConverseCovariance(k00=rng.uniform(0, 5), k11=rng.uniform(0, 5),
                               k22=rng.uniform(0, 5), k01=rng.uniform(-3, 3),
                               k02=rng.uniform(-3, 3))
        if psd_feasible(K):
            assert K.rho1 ** 2 + K.rho2 ** 2 <= 1.0 + 1e-9


def test_zero_over_zero_rho_convention():
    K = ConverseCovariance(0.0, 0.5, 0.5, 0.0, 0.0)
    assert K.rho1 == 0.0 and K.rho2 == 0.0


def test_converse_keeps_the_correlations_it_was_built_from():
    # a near-zero-rate draw: read back from the cross terms, rho was off by an
    # ulp and the converse rate by 6e-12 relative
    g, P, r1, r2, d = (0.9303174716423954, 6.681883951322113, 0.059938701165300146,
                       0.4691153493056322, 0.9956447423891543)
    K = ConverseCovariance.from_rhos(P, CH.Q - d, d, r1, r2)
    assert (K.rho1, K.rho2) == (r1, r2)
    assert converse_rate(g, K, CH) == rate_per_state(g, P, CodingParams(r1, r2, d), CH)
    # a directly built covariance reads them from the cross terms, 0/0 as 0
    assert (ConverseCovariance(0.0, 0.5, 0.5, 0.0, 0.0).rho1,
            ConverseCovariance(2.0, 0.5, 0.5, 0.5, 0.0).rho1) == (0.0, 0.5)
