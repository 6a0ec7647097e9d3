import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.special import exp1

from fadingcr.model import (ChannelParams, CodingParams, ConfigError, Degenerate,
                            Discrete, PerStatePolicy, Rayleigh)
from fadingcr import ergodic
from fadingcr.ergodic import MAX_NODES, avg_power, ergodic_rate, make_rule
from fadingcr.rate_core import rate_per_state

CH = ChannelParams(Q=1.0, sigma_z2=1.0, P_avg=2.5)


def test_degenerate_rule():
    rule = make_rule(Degenerate(1.0))
    assert rule.nodes == (1.0,) and rule.weights == (1.0,)
    assert rule.provenance == "analytic-discrete"


def test_discrete_rule_sorted_and_filtered():
    rule = make_rule(Discrete(points=(2.0, 0.5, 1.0), probs=(0.25, 0.5, 0.25)))
    assert rule.nodes == (0.5, 1.0, 2.0)
    assert rule.weights == (0.5, 0.25, 0.25)
    rule = make_rule(Discrete(points=(1.0, 3.0), probs=(1.0, 0.0)))
    assert rule.nodes == (1.0,) and rule.weights == (1.0,)


def test_single_point_discrete_equals_degenerate():
    a = make_rule(Discrete(points=(1.3,), probs=(1.0,)))
    b = make_rule(Degenerate(1.3))
    assert a.nodes == b.nodes and a.weights == b.weights


@pytest.mark.parametrize("n", [2, 8, 64, 128, 256])
def test_rayleigh_moments(n):
    rule = make_rule(Rayleigh(), n)
    w = np.array(rule.weights)
    g = np.array(rule.nodes)
    assert abs(w.sum() - 1.0) < 1e-10
    assert abs(w @ g - math.sqrt(math.pi) / 2.0) < 1e-8
    assert abs(w @ g ** 2 - 1.0) < 1e-10
    if n >= 3:
        assert abs(w @ g ** 4 - 2.0) < 1e-8


def test_rayleigh_even_moment_exactness():
    # Gauss rule in g: E[G^{2k}] = k! exact for 2k <= 2n-1
    n = 16
    rule = make_rule(Rayleigh(), n)
    w = np.array(rule.weights)
    g = np.array(rule.nodes)
    for k in range(n):
        assert w @ g ** (2 * k) == pytest.approx(math.factorial(k), rel=5e-13)


def test_rayleigh_node_properties():
    rule = make_rule(Rayleigh(), 64)
    assert len(rule) == 64
    assert all(g > 0 for g in rule.nodes)
    assert all(b > a for a, b in zip(rule.nodes, rule.nodes[1:]))
    assert all(w > 0 for w in rule.weights)


def test_every_rayleigh_size_builds_full_rule():
    for n in range(1, MAX_NODES + 1):
        rule = make_rule(Rayleigh(), n)
        assert len(rule) == n


def test_rayleigh_nodes_match_the_tridiagonal_eigensolver():
    # numpy's dense symmetric eigensolver, which keeps scipy off the import
    # path, gives the nodes of scipy's tridiagonal one
    for n in range(1, MAX_NODES + 1):
        alpha, beta = ergodic._stieltjes(*ergodic._rayleigh_grid(n), n)
        ref = eigh_tridiagonal(alpha, beta, eigvals_only=True)
        np.testing.assert_allclose(make_rule(Rayleigh(), n).nodes, ref, rtol=1e-15, atol=0)


def test_rayleigh_rule_rejects_lost_nodes(monkeypatch):
    # a weight that underflows to 0 must fail the build, not shrink the rule
    real = ergodic._weights_from_recurrence

    def underflowing(nodes, alpha, beta):
        w = real(nodes, alpha, beta)
        w[-1] = 0.0
        return w

    monkeypatch.setattr(ergodic, "_weights_from_recurrence", underflowing)
    ergodic._rayleigh_rule.cache_clear()
    try:
        with pytest.raises(ConfigError, match="only 4 nodes"):
            make_rule(Rayleigh(), 5)
    finally:
        ergodic._rayleigh_rule.cache_clear()


def _hankel_cholesky_jacobi(n, dps):
    """Reference Jacobi coefficients from the exact moments Gamma(k/2 + 1) in multiprecision."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        mu = [mp.gamma(mp.mpf(k) / 2 + 1) for k in range(2 * n + 1)]
        hankel = mp.matrix(n + 1, n + 1)
        for i in range(n + 1):
            for j in range(n + 1):
                hankel[i, j] = mu[i + j]
        r = mp.cholesky(hankel).T
        alpha, beta = [], []
        for k in range(n):
            t = r[k, k + 1] / r[k, k]
            alpha.append(t if k == 0 else t - r[k - 1, k] / r[k - 1, k - 1])
            if k >= 1:
                beta.append(r[k, k] / r[k - 1, k - 1])
    return (np.array([float(a) for a in alpha]),
            np.array([float(b) for b in beta]))


@pytest.mark.parametrize("n", [2, 16, 64])
def test_rayleigh_rule_matches_multiprecision_reference(n):
    ref_alpha, ref_beta = _hankel_cholesky_jacobi(n, 40 + 2 * n)
    alpha, beta = ergodic._stieltjes(*ergodic._rayleigh_grid(n), n)
    np.testing.assert_allclose(alpha, ref_alpha, rtol=1e-13, atol=0)
    np.testing.assert_allclose(beta, ref_beta, rtol=1e-13, atol=0)
    ref_nodes = eigh_tridiagonal(ref_alpha, ref_beta, eigvals_only=True)
    ref_weights = ergodic._weights_from_recurrence(ref_nodes, ref_alpha, ref_beta)
    # a float64 eigensolve places a node to ~1e-16 of the largest one, and a
    # tail weight w ~ exp(-g^2) moves by 2g times that, so nodes and weights
    # are compared relative to the largest, and each weight only to 1e-12
    rule = make_rule(Rayleigh(), n)
    nodes, weights = np.array(rule.nodes), np.array(rule.weights)
    assert np.max(np.abs(nodes - ref_nodes)) <= 1e-13 * ref_nodes.max()
    assert np.max(np.abs(weights - ref_weights)) <= 1e-13 * ref_weights.max()
    np.testing.assert_allclose(weights, ref_weights, rtol=1e-12, atol=0)


def test_rayleigh_recurrence_converged_in_grid():
    # halving the panel width must not move any coefficient of the largest rule
    n = MAX_NODES
    alpha, beta = ergodic._stieltjes(*ergodic._rayleigh_grid(n), n)
    fine = ergodic._rayleigh_grid(n, width=ergodic.PANEL_WIDTH / 2)
    fine_alpha, fine_beta = ergodic._stieltjes(*fine, n)
    np.testing.assert_allclose(alpha, fine_alpha, rtol=1e-13, atol=0)
    np.testing.assert_allclose(beta, fine_beta, rtol=1e-13, atol=0)


@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_rayleigh_rule_integrates_log_rate(n):
    # E[log2(1 + s G^2)] = exp(1/s) E1(1/s) / ln 2 for G^2 ~ Exp(1)
    s = 2.5
    exact = math.exp(1.0 / s) * exp1(1.0 / s) / math.log(2.0)
    rule = make_rule(Rayleigh(), n)
    g = np.array(rule.nodes)
    assert np.array(rule.weights) @ np.log2(1.0 + s * g * g) == pytest.approx(exact, rel=1e-13)


def test_cli_import_does_not_load_mpmath():
    code = "import sys, fadingcr.cli; print('mpmath' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(ergodic.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env=env)
    assert out.stdout.strip() == "False"


def test_node_count_limits():
    with pytest.raises(ConfigError, match="underflow"):
        make_rule(Rayleigh(), 257)
    with pytest.raises(ConfigError, match="at least 1"):
        make_rule(Rayleigh(), 0)


def test_ergodic_rate_degenerate_reduces_to_rate_per_state():
    rule = make_rule(Degenerate(1.0))
    pol = PerStatePolicy.constant(rule.nodes, rule.weights, 2.5, 0.9, 0.0)
    cp = CodingParams(0.9, 0.0, 0.9)
    assert ergodic_rate(rule, pol, 0.9, CH) == rate_per_state(1.0, 2.5, cp, CH)


def test_ergodic_rate_silent_full_distortion_is_zero():
    rule = make_rule(Rayleigh(), 16)
    pol = PerStatePolicy.silent(rule.nodes, rule.weights)
    assert ergodic_rate(rule, pol, CH.Q, CH) == 0.0


def test_ergodic_rate_refinement_stability():
    # fixed smooth policy evaluated under n and 2n nodes
    cp = (0.8, -0.2)
    vals = {}
    for n in (64, 128):
        rule = make_rule(Rayleigh(), n)
        pol = PerStatePolicy.constant(rule.nodes, rule.weights, 2.5, cp[0], cp[1])
        vals[n] = ergodic_rate(rule, pol, 0.6, CH)
    assert abs(vals[64] - vals[128]) < 1e-8


def test_policy_rule_mismatch_rejected():
    rule = make_rule(Rayleigh(), 16)
    other = make_rule(Rayleigh(), 24)
    pol = PerStatePolicy.silent(other.nodes, other.weights)
    with pytest.raises(ConfigError, match="rule's nodes"):
        ergodic_rate(rule, pol, 0.5, CH)
    with pytest.raises(ConfigError, match="rule's nodes"):
        avg_power(rule, pol)


def test_avg_power():
    rule = make_rule(Rayleigh(), 16)
    pol = PerStatePolicy.constant(rule.nodes, rule.weights, 2.5, 0.0, 0.0)
    assert avg_power(rule, pol) == pytest.approx(2.5, rel=1e-13)
    deg = make_rule(Degenerate(0.3))
    pol = PerStatePolicy.constant(deg.nodes, deg.weights, 1.7, 0.0, 0.0)
    assert avg_power(deg, pol) == 1.7


def test_cli_import_does_not_load_scipy_optimize():
    code = "import sys, fadingcr.cli; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(ergodic.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env=env)
    assert out.stdout.strip() == "False"


def test_rayleigh_rule_is_shared():
    rule = make_rule(Rayleigh(), 128)
    assert make_rule(Rayleigh(), 128) is rule
    assert type(rule.nodes[0]) is float and type(rule.weights[0]) is float
