"""The stacked oracle and the validation suites against their per-draw forms.

The per-draw suite loop below is the reference: it calls the oracle once per
draw (a stack of one), in the order the suites draw their parameters, and
must give the stacked suites' observed errors bit for bit.
"""

import logging
import math

import numpy as np
import pytest

from fadingcr import gaussian_oracle as go
from fadingcr import rate_core as rc
from fadingcr import ergodic
from fadingcr.model import ChannelParams, CodingParams, Config, ConfigError, Rayleigh, in_disk
from fadingcr.validation import (TOLERANCES, UniformBlock, draw_converse_cov, draw_params,
                                 run_validation)

CH = ChannelParams(Q=1.0, sigma_z2=1.0, P_avg=2.5)


def _scalar_params(rng: np.random.Generator, ch: ChannelParams,
                   d_lo: float = 1e-6) -> tuple[float, float, CodingParams]:
    """draw_params written out as one Generator.uniform call per value."""
    g = rng.uniform(0.0, 4.0)
    P = rng.uniform(0.0, 10.0)
    r = math.sqrt(rng.uniform(0.0, 1.0))
    th = rng.uniform(0.0, 2.0 * math.pi)
    d = rng.uniform(d_lo, ch.Q * 0.999999)
    return g, P, CodingParams(r * math.cos(th), r * math.sin(th), d)


def _scalar_converse(rng: np.random.Generator, ch: ChannelParams,
                     boundary: bool = False) -> rc.ConverseCovariance:
    """draw_converse_cov written out as one Generator.uniform call per value."""
    k00 = rng.uniform(0.0, 10.0)
    k22 = rng.uniform(1e-6, ch.Q * 0.999999)
    r = 1.0 if boundary else math.sqrt(rng.uniform(0.0, 1.0))
    th = rng.uniform(0.0, 2.0 * math.pi)
    return rc.ConverseCovariance.from_rhos(k00, ch.Q - k22, k22,
                                           r * math.cos(th), r * math.sin(th))


def _reference_observed(cfg: Config, draws: int, samples: int, mc_sets: int,
                        seed: int) -> list[float]:
    """The 12 observed errors of run_validation, one oracle call and one uniform call per draw."""
    ch, base = cfg.channel, cfg.log_base
    rng = np.random.Generator(np.random.PCG64(seed))
    err_rate, err_conv = 0.0, 0.0
    for _ in range(draws):
        g, P, cp = _scalar_params(rng, ch)
        r_closed = rc.rate_per_state(g, P, cp, ch, base)
        err_rate = max(err_rate, abs(r_closed - go.gp_rate_oracle(g, P, cp, ch, base)))
        K = rc.ConverseCovariance.from_rhos(P, ch.Q - cp.d, cp.d, cp.rho1, cp.rho2)
        r_conv = rc.converse_rate(g, K, ch, base)
        err_conv = max(err_conv, abs(r_conv - r_closed) / max(abs(r_closed), 1e-12))
    err_dist, err_vyu, err_vssy, err_vy = 0.0, 0.0, 0.0, 0.0
    for _ in range(max(draws // 10, 100)):
        g, P, cp = _scalar_params(rng, ch)
        cov = go.build_covariance(g, P, cp, ch)
        err_dist = max(err_dist, abs(go.schur_conditional_variance(cov, "S", "U") - cp.d))
        vyu = rc.cond_var_y_given_u(g, P, cp, ch)
        err_vyu = max(err_vyu, abs(go.schur_conditional_variance(cov, "Y", "U") - vyu)
                      / max(vyu, 1e-12))
        Kb = _scalar_converse(rng, ch, boundary=True)
        mb = go.converse_joint_covariance(g, Kb, ch)
        schur = go.schur_conditional_variance(mb, "S", ("Shat", "Y"),
                                              variables=go.CONVERSE_VARIABLES)
        closed = rc.cond_var_s_given_shat_y(g, Kb, ch)
        err_vssy = max(err_vssy, abs(schur - closed) / max(closed, 1e-12))
        K = _scalar_converse(rng, ch)
        vy = rc.var_y(g, K, ch)
        err_vy = max(err_vy, abs(go.converse_joint_covariance(g, K, ch)[4, 4] - vy)
                     / max(vy, 1e-12))
    err_mc_var, err_mc_rate = 0.0, 0.0
    for i in range(mc_sets):
        g, P, cp = _scalar_params(rng, ch, d_lo=1e-3 * ch.Q)
        est = go.mc_estimate(g, P, cp, ch, n=samples, seed=seed + 1 + i, base=base)
        err_mc_var = max(err_mc_var, abs(est.var_s_given_u - cp.d) / cp.d)
        err_mc_rate = max(err_mc_rate, abs(est.rate - rc.rate_per_state(g, P, cp, ch, base)))
    rule = ergodic.make_rule(Rayleigh(), cfg.quadrature_nodes)
    w, gN = np.array(rule.weights), np.array(rule.nodes)
    return [err_rate, err_conv, err_dist, err_vyu, err_vssy, err_vy, err_mc_var, err_mc_rate,
            abs(float(w.sum()) - 1.0), abs(float(w @ gN ** 2) - 1.0),
            abs(float(w @ gN) - math.sqrt(math.pi) / 2.0), abs(float(w @ gN ** 4) - 2.0)]


@pytest.mark.parametrize("seed", [42, 7])
def test_stacked_suites_match_the_per_draw_loop(seed):
    cfg = Config(CH)
    report = run_validation(cfg, draws=300, samples=20_000, mc_sets=2, seed=seed)
    names = [e["name"] for e in report["identities"]]
    observed = [e["observed"] for e in report["identities"]]
    assert names == list(TOLERANCES)
    assert observed == _reference_observed(cfg, 300, 20_000, 2, seed)


def test_block_draws_match_scalar_uniform_calls():
    # a block drawn at once gives draw_params and draw_converse_cov the bits of
    # one Generator.uniform call per value: rows of 12 as suite (iii) draws
    # them, and rows of 5 with the Monte-Carlo suite's d_lo
    m = 100_000
    block = UniformBlock(np.random.Generator(np.random.PCG64(17)), (m, 12))
    rng = np.random.Generator(np.random.PCG64(17))
    stacked = [(*draw_params(block, CH), draw_converse_cov(block, CH, True),
                draw_converse_cov(block, CH)) for _ in range(m)]
    scalar = [(*_scalar_params(rng, CH), _scalar_converse(rng, CH, True),
               _scalar_converse(rng, CH)) for _ in range(m)]
    assert stacked == scalar
    block = UniformBlock(np.random.Generator(np.random.PCG64(18)), (m, 5))
    rng = np.random.Generator(np.random.PCG64(18))
    assert ([draw_params(block, CH, 1e-3 * CH.Q) for _ in range(m)]
            == [_scalar_params(rng, CH, 1e-3 * CH.Q) for _ in range(m)])


@pytest.mark.parametrize("kwargs", [{"draws": 0}, {"draws": -5}, {"mc_sets": 0},
                                    {"mc_sets": -2}])
def test_validation_rejects_suites_without_draws(kwargs):
    # an empty suite would report a check that never ran as passed
    with pytest.raises(ValueError):
        run_validation(Config(CH), samples=20_000, **dict({"draws": 10, "mc_sets": 1}, **kwargs))


def _stack_draws(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, list[CodingParams]]:
    """n validation draws plus rows at and next to d = Q, on the disk rim and at P = 0."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = [draw_params(rng, CH) for _ in range(n)]
    for g, P, cp in rows[:40]:
        th = math.atan2(cp.rho2, cp.rho1)
        rim = (math.cos(th), math.sin(th))
        if not in_disk(*rim):
            rim = (rim[0] * (1.0 - 1e-15), rim[1] * (1.0 - 1e-15))
        rows += [(g, P, CodingParams(cp.rho1, cp.rho2, CH.Q)),
                 (g, P, CodingParams(0.0, cp.rho2, CH.Q * (1.0 - 1e-16))),
                 (g, P, CodingParams(*rim, cp.d)),
                 (g, 0.0, cp)]
    gs, Ps, cps = zip(*rows)
    return np.array(gs), np.array(Ps), list(cps)


def test_stacked_oracle_matches_single_draws():
    gs, Ps, cps = _stack_draws(2000, 11)
    cov = go.build_covariance(gs, Ps, cps, CH)
    assert cov.matrix.shape == (len(cps), 5, 5)
    singles = [go.build_covariance(g, P, cp, CH) for g, P, cp in zip(gs, Ps, cps)]
    assert np.array_equal(cov.matrix, np.array([c.matrix for c in singles]))

    rates = go.gp_rate_oracle(gs, Ps, cps, CH)
    assert rates.tolist() == [go.gp_rate_oracle(g, P, cp, CH) for g, P, cp in zip(gs, Ps, cps)]
    # a degenerate U gives a zero rate, on its own row only
    degenerate = np.array([CH.Q - cp.d < 1e-15 for cp in cps])
    assert degenerate.sum() == 80 and np.all(rates[degenerate] == 0.0)
    assert np.count_nonzero(rates[~degenerate]) > 1900

    for target, given in (("S", "U"), ("Y", ("U", "X"))):
        stacked = go.schur_conditional_variance(cov, target, given)
        assert stacked.tolist() == [go.schur_conditional_variance(c, target, given)
                                    for c in singles]
    stacked = go.mutual_information(cov, ("U", "T"), ("X", "Y"))
    assert stacked.tolist() == [go.mutual_information(c, ("U", "T"), ("X", "Y"))
                                for c in singles]

    rng = np.random.Generator(np.random.PCG64(13))
    Ks = [draw_converse_cov(rng, CH, boundary=i % 2 == 0) for i in range(len(cps))]
    conv = go.converse_joint_covariance(gs, Ks, CH)
    assert conv.shape == (len(Ks), 5, 5)
    assert np.array_equal(conv, np.array([go.converse_joint_covariance(g, K, CH)
                                          for g, K in zip(gs, Ks)]))


def test_stacked_schur_falls_back_per_row(caplog):
    # X lies in the span of (U, T) on the disk rim, so Var(Y | U, T, X) has a
    # rank-deficient given-set there; P = 0 drops X and d = Q drops U
    gs, Ps, cps = _stack_draws(2000, 12)
    cov = go.build_covariance(gs, Ps, cps, CH)
    given = ("U", "T", "X")
    with caplog.at_level(logging.INFO, logger=go.log.name):
        stacked = go.schur_conditional_variance(cov, "Y", given)
    stacked_rows = [r.args[0] for r in caplog.records if "pseudo-inverse" in r.getMessage()]
    caplog.clear()
    singles = []
    fallback_rows = []
    for i, m in enumerate(cov.matrix):
        with caplog.at_level(logging.INFO, logger=go.log.name):
            singles.append(go.schur_conditional_variance(m, "Y", given))
        fallback_rows += [i] * len(caplog.records)
        caplog.clear()
    assert 40 <= len(fallback_rows) < len(cps)
    assert sorted(stacked_rows) == fallback_rows
    assert stacked.tolist() == singles
    # the fallback still gives the true conditional variance: Y = gX + S + Z
    rim = np.array(fallback_rows)
    assert np.allclose(stacked[rim], CH.sigma_z2, rtol=1e-6)


def test_stacked_solve_error_falls_back_on_its_group(monkeypatch, caplog):
    # a LinAlgError names no row, so every row of the failed stacked solve
    # takes the pseudo-inverse, each with its own record
    gs, Ps, cps = _stack_draws(30, 15)
    cov = go.build_covariance(gs[:30], Ps[:30], cps[:30], CH)
    expected = go.schur_conditional_variance(cov, "Y", "U")

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with caplog.at_level(logging.INFO, logger=go.log.name):
        fallback = go.schur_conditional_variance(cov, "Y", "U")
    assert sorted(r.args[0] for r in caplog.records) == list(range(30))
    assert np.allclose(fallback, expected, rtol=1e-12)


def test_oracle_keeps_the_leading_shape():
    gs, Ps, cps = _stack_draws(6, 13)
    m = go.build_covariance(gs[:6], Ps[:6], cps[:6], CH).matrix.reshape(2, 3, 5, 5)
    assert go.mutual_information(m, "U", "Y").shape == (2, 3)
    assert go.schur_conditional_variance(m, "S", "U").shape == (2, 3)
    assert isinstance(go.mutual_information(m[0, 0], "U", "Y"), float)


def test_stacked_checks_name_the_bad_row():
    gs, Ps, cps = _stack_draws(5, 14)
    with pytest.raises(rc.NumericalError):
        go.build_covariance(np.append(gs[:4], -1.0), Ps[:5], cps[:5], CH)
    with pytest.raises(ConfigError):
        go.build_covariance(gs[:5], Ps[:5], cps[:4] + [CodingParams(0.8, 0.8, 0.5)], CH)
    with pytest.raises(ValueError, match="lengths"):
        go.build_covariance(gs[:4], Ps[:5], cps[:5], CH)


def test_mc_estimate_matches_the_unfused_construction():
    # the streamed normals are the one-shot rows of each row's Generator bit for
    # bit, also with a partial last block; the covariance is reduced in another
    # order than np.cov
    for g, P, cp, seed in ((1.2, 3.0, CodingParams(0.6, -0.3, 0.4), 5),
                           (0.3, 9.0, CodingParams(-0.9, 0.1, 0.02), 6),
                           (2.0, 0.5, CodingParams(0.0, 1.0, 0.999), 7)):
        for n in (20_000, 3 * go.MC_BLOCK + 1):
            est = go.mc_estimate(g, P, cp, CH, n=n, seed=seed)
            z = np.array([np.random.Generator(np.random.PCG64(seed).jumped(r)).standard_normal(n)
                          for r in range(4)])
            assert np.array_equal(np.hstack([b.copy() for b in go._normal_blocks(seed, n)]), z)
            vu = CH.Q - cp.d
            c_u = cp.rho1 * math.sqrt(P / vu)
            c_t = cp.rho2 * math.sqrt(P / cp.d)
            vw = max(P - c_u * c_u * vu - c_t * c_t * cp.d, 0.0)
            u = math.sqrt(vu) * z[0]
            t = math.sqrt(cp.d) * z[1]
            w = math.sqrt(vw) * z[2]
            noise = math.sqrt(CH.sigma_z2) * z[3]
            s = u + t
            x = c_u * u + c_t * t + w
            y = g * x + s + noise
            cov = np.cov(np.vstack((u, t, s, x, y)))
            assert np.max(np.abs(est.covariance - cov)) <= 1e-13 * np.max(np.abs(cov))
            c = est.covariance
            assert est.var_s_given_u == float(c[2, 2] - c[0, 2] ** 2 / c[0, 0])
            assert est.rate == float(go.mutual_information(c, "U", "Y")
                                     - go.mutual_information(c, "U", "S"))
