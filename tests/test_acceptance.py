"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

All randomized draws are seeded; stated tolerances and runtime caps are
asserted as given.
"""

import contextlib
import importlib.util
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from fadingcr.model import ChannelParams, CodingParams, Rayleigh
from fadingcr import gaussian_oracle as go
from fadingcr import optimize
from fadingcr import rate_core as rc
from fadingcr.cli import main
from fadingcr.ergodic import make_rule
from fadingcr.optimize import _rates, optimize_rho_per_state

CH = ChannelParams(Q=1.0, sigma_z2=1.0, P_avg=2.5)
ROOT = Path(__file__).resolve().parent.parent
# the figures' solves and the pinned numbers come from scripts/make_reference.py
_spec = importlib.util.spec_from_file_location("make_reference",
                                               ROOT / "scripts" / "make_reference.py")
ref = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ref)


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"{criterion}: {detail}"


def _draws(n: int, seed: int = 42):
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for _ in range(n):
        g = rng.uniform(0.0, 4.0)
        P = rng.uniform(0.0, 10.0)
        r = math.sqrt(rng.uniform(0.0, 1.0))
        th = rng.uniform(0.0, 2.0 * math.pi)
        d = rng.uniform(1e-6, CH.Q)
        out.append((g, P, CodingParams(r * math.cos(th), r * math.sin(th), d)))
    return out


def test_criterion_1_formula_oracle_equivalence():
    t0 = time.monotonic()
    draws = _draws(10_000)
    gs, Ps, cps = zip(*draws)
    closed = np.array([rc.rate_per_state(g, P, cp, CH) for g, P, cp in draws])
    worst = float(np.max(np.abs(closed - go.gp_rate_oracle(np.array(gs), np.array(Ps),
                                                           cps, CH))))
    elapsed = time.monotonic() - t0
    _report("1 (formula vs oracle)", worst <= 1e-9 and elapsed < 10.0,
            f"max |closed - oracle| = {worst:.3e} (tol 1e-9), {elapsed:.1f}s (cap 10s)")


def test_criterion_2_converse_identity():
    # K stores rho via K0k = rho_k sqrt(K00 Kkk); both paths are compared at
    # the stored correlations so the shared kernel decides the identity
    worst = 0.0
    for g, P, cp in _draws(10_000):
        K = rc.ConverseCovariance.from_rhos(P, CH.Q - cp.d, cp.d, cp.rho1, cp.rho2)
        a = rc.converse_rate(g, K, CH)
        b = rc.rate_per_state(g, P, CodingParams(K.rho1, K.rho2, cp.d), CH)
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-12))
    _report("2 (converse identity)", worst <= 1e-12,
            f"max relative difference = {worst:.3e} (tol 1e-12)")


def test_criterion_3_distortion_identity():
    gs, Ps, cps = zip(*_draws(10_000))
    cov = go.build_covariance(np.array(gs), np.array(Ps), cps, CH)
    d = np.array([cp.d for cp in cps])
    worst = float(np.max(np.abs(go.schur_conditional_variance(cov, "S", "U") - d)))
    _report("3 (distortion identity)", worst <= 1e-12,
            f"max |Var(S|U) - d| = {worst:.3e} (tol 1e-12)")


def test_criterion_4_converse_variance_formulas():
    # Var(S | S_hat, Y): checked on the boundary family rho1^2 + rho2^2 = 1,
    # where the closed form is the exact Gaussian conditional variance (in the
    # disk interior it is smaller by g^2 K00 (1-rho1^2-rho2^2) K22 / B);
    # Var(Y): checked on unrestricted disk draws.
    rng = np.random.Generator(np.random.PCG64(43))
    gs, Kbs, Ks = [], [], []
    for _ in range(10_000):
        g = rng.uniform(0.0, 4.0)
        k00 = rng.uniform(0.0, 10.0)
        k22 = rng.uniform(1e-6, CH.Q * 0.999999)
        th = rng.uniform(0.0, 2.0 * math.pi)
        r = math.sqrt(rng.uniform(0.0, 1.0))
        gs.append(g)
        Kbs.append(rc.ConverseCovariance.from_rhos(k00, CH.Q - k22, k22,
                                                   math.cos(th), math.sin(th)))
        Ks.append(rc.ConverseCovariance.from_rhos(k00, CH.Q - k22, k22,
                                                  r * math.cos(th), r * math.sin(th)))
    # one stack holds the boundary draws, then the disk draws
    n = len(gs)
    m = go.converse_joint_covariance(np.tile(gs, 2), Kbs + Ks, CH)
    schur = go.schur_conditional_variance(m[:n], "S", ("Shat", "Y"),
                                          variables=go.CONVERSE_VARIABLES)
    closed = np.array([rc.cond_var_s_given_shat_y(g, Kb, CH) for g, Kb in zip(gs, Kbs)])
    worst_vssy = float(np.max(np.abs(schur - closed) / np.maximum(closed, 1e-12)))
    vy = np.array([rc.var_y(g, K, CH) for g, K in zip(gs, Ks)])
    worst_vy = float(np.max(np.abs(m[n:, 4, 4] - vy) / np.maximum(vy, 1e-12)))
    ok = worst_vssy <= 1e-10 and worst_vy <= 1e-10
    _report("4 (converse variances)", ok,
            f"Var(S|Shat,Y) err = {worst_vssy:.3e}, Var(Y) err = {worst_vy:.3e} (tol 1e-10)")


def test_criterion_5_monte_carlo():
    t0 = time.monotonic()
    rng = np.random.Generator(np.random.PCG64(42))
    worst_var, worst_rate = 0.0, 0.0
    for i in range(20):
        g = rng.uniform(0.0, 4.0)
        P = rng.uniform(0.0, 10.0)
        r = math.sqrt(rng.uniform(0.0, 1.0))
        th = rng.uniform(0.0, 2.0 * math.pi)
        d = rng.uniform(1e-3, 0.999 * CH.Q)
        cp = CodingParams(r * math.cos(th), r * math.sin(th), d)
        est = go.mc_estimate(g, P, cp, CH, n=1_000_000, seed=42 + i)
        worst_var = max(worst_var, abs(est.var_s_given_u - d) / d)
        worst_rate = max(worst_rate, abs(est.rate - rc.rate_per_state(g, P, cp, CH)))
    elapsed = time.monotonic() - t0
    ok = worst_var <= 1e-2 and worst_rate <= 1e-2 and elapsed < 60.0
    _report("5 (Monte Carlo, n=1e6)", ok,
            f"Var(S|U) rel err = {worst_var:.2e} (tol 1e-2), "
            f"rate err = {worst_rate:.2e} bits (tol 1e-2), {elapsed:.1f}s (cap 60s)")


def test_criterion_6_quadrature_moments():
    rule = make_rule(Rayleigh(), 64)
    w = np.array(rule.weights)
    g = np.array(rule.nodes)
    errs = {
        "sum w": (abs(w.sum() - 1.0), 1e-10),
        "E[G^2]": (abs(w @ g ** 2 - 1.0), 1e-10),
        "E[G]": (abs(w @ g - math.sqrt(math.pi) / 2.0), 1e-8),
        "E[G^4]": (abs(w @ g ** 4 - 2.0), 1e-8),
    }
    ok = all(err <= tol for err, tol in errs.values())
    _report("6 (quadrature moments)", ok,
            ", ".join(f"{k} err = {err:.2e} (tol {tol:g})" for k, (err, tol) in errs.items()))


@contextlib.contextmanager
def _recorded(solutions):
    """Append every RateSolution that optimize._solve_grid returns to solutions."""
    solve = optimize._solve_grid

    def recorded(*args):
        out = solve(*args)
        solutions.extend(out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "_solve_grid", recorded)
        yield


@pytest.fixture(scope="module")
def solutions():
    """The RateSolutions of the figures' and the pinned solves, filled as they run."""
    return []


@pytest.fixture(scope="module")
def fig2(solutions):
    """Fig. 2's fading and static frontiers, and the seconds they took."""
    t0 = time.monotonic()
    with _recorded(solutions):
        return ref.fig2(), time.monotonic() - t0


@pytest.fixture(scope="module")
def fig3(solutions):
    """Fig. 3's curve, P(0, Q), and the seconds they took."""
    t0 = time.monotonic()
    with _recorded(solutions):
        return *ref.fig3(), time.monotonic() - t0


@pytest.fixture(scope="module")
def pinned(solutions):
    """maximize_rate at the pinned cells in both modes (make_reference.solves)."""
    with _recorded(solutions):
        return ref.solves()


def test_criterion_7_rate_distortion_figure(fig2):
    curves, elapsed = fig2
    fading, static = curves["fading"], curves["static"]

    ds, rs = fading.distortions(), fading.rates()
    nondecreasing = all(b >= a - 1e-12 for a, b in zip(rs, rs[1:]))
    concave = all(
        (rs[i] - rs[i - 1]) / (ds[i] - ds[i - 1])
        >= (rs[i + 1] - rs[i]) / (ds[i + 1] - ds[i]) - 1e-9
        for i in range(1, len(ds) - 1))
    dominated = all(static.evaluate(d) >= r - 1e-9 for d, r in zip(ds, rs))
    strict_at_q = static.evaluate(CH.Q) > fading.evaluate(CH.Q) + 1e-6
    ok = nondecreasing and concave and dominated and strict_at_q and elapsed < 300.0
    _report("7 (Fig. 2 reproduction)", ok,
            f"nondecreasing={nondecreasing}, concave={concave}, "
            f"static dominates={dominated}, strict at D=Q: "
            f"{static.evaluate(CH.Q):.4f} > {fading.evaluate(CH.Q):.4f}, "
            f"{elapsed:.0f}s (cap 300s)")


def test_criterion_8_power_distortion_figure(fig3):
    curve, p_zero, elapsed = fig3
    rates, d_grid = ref.FIG3_RATES, np.linspace(0.28, 1.0, 9)

    ok = p_zero == 0.0
    details = [f"P(0, Q) = {p_zero}"]
    for lo_r, hi_r in zip(rates, rates[1:]):
        ordered = all(curve[(lo_r, d)] <= curve[(hi_r, d)] for d in d_grid)
        ok &= ordered
        details.append(f"P({lo_r},.) <= P({hi_r},.): {ordered}")
    for r in rates:
        ps = [curve[(r, d)] for d in d_grid]
        assert all(p is not None for p in ps)
        mono = all(b <= a for a, b in zip(ps, ps[1:]))
        p_ref = max(ps)
        second = min(ps[i - 1] - 2 * ps[i] + ps[i + 1] for i in range(1, len(ps) - 1))
        convex = second >= -1e-6 * p_ref
        ok &= mono and convex
        details.append(f"R={r}: nonincreasing={mono}, min 2nd diff = "
                       f"{second:.2e} >= {-1e-6 * p_ref:.1e}")
    ok &= elapsed < 600.0
    details.append(f"{elapsed:.0f}s (cap 600s)")
    _report("8 (Fig. 3 reproduction)", ok, "; ".join(details))


def test_criterion_9_optimizer_vs_brute_force():
    # the optimum lies on the r = 1 ring (rate increases toward the boundary),
    # so the 1e6-point budget favors angular resolution
    rng = np.random.Generator(np.random.PCG64(44))
    r_grid = np.linspace(0.0, 1.0, 25)[:, None]
    th_grid = np.linspace(0.0, 2.0 * math.pi, 40_000, endpoint=False)[None, :]
    rho1_g = r_grid * np.cos(th_grid)
    rho2_g = r_grid * np.sin(th_grid)
    worst = 0.0
    for _ in range(50):
        g = rng.uniform(0.0, 4.0)
        P = rng.uniform(0.0, 10.0)
        d = rng.uniform(1e-3, CH.Q)
        brute = float(_rates(g, P, rho1_g, rho2_g, d, CH, 2.0).max())
        _, _, R = optimize_rho_per_state(g, P, d, CH)
        worst = max(worst, abs(R - brute))
    _report("9 (optimizer vs 1e6-point grid)", worst <= 1e-6,
            f"max |optimizer - grid| = {worst:.3e} bits (tol 1e-6)")


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"Q": 1.0, "sigma_z2": 1.0, "P_avg": 2.5,
                               "fading": {"type": "rayleigh"},
                               "quadrature_nodes": 16, "log_base": 2}))
    regions = []
    reports = []
    for tag in ("a", "b"):
        rout = tmp_path / f"region_{tag}.csv"
        assert main(["region", "--config", str(cfg), "--points", "8",
                     "--out", str(rout)]) == 0
        regions.append(rout.read_bytes())
        vout = tmp_path / f"validate_{tag}.json"
        assert main(["validate", "--config", str(cfg), "--draws", "500",
                     "--samples", "100000", "--mc-sets", "2", "--seed", "42",
                     "--out", str(vout)]) == 0
        reports.append(vout.read_bytes())
    ok = regions[0] == regions[1] and reports[0] == reports[1]
    _report("10 (byte determinism)", ok,
            f"region bytes equal={regions[0] == regions[1]}, "
            f"validate bytes equal={reports[0] == reports[1]}")


def test_pinned_reference_numbers(fig2, fig3, pinned):
    # the package's Fig. 2, Fig. 3, maximize_rate and small-noise numbers against
    # those pinned in tests/data/reference.json: rates (and the distortions and
    # multipliers that come with them) to 1e-12 relative, P_min to 1e-10
    want = json.loads((ROOT / "tests" / "data" / "reference.json").read_text())

    def close(got, pinned, rtol=1e-12):
        np.testing.assert_allclose(np.array(got, dtype=float), np.array(pinned, dtype=float),
                                   rtol=rtol, atol=0)

    for name, frontier in fig2[0].items():
        close(ref.frontier_rows(frontier), want["fig2"][name])
    close(ref.curve_rows(fig3[0]), want["fig3"]["cells"], 1e-10)
    assert fig3[1] == want["fig3"]["p_zero"]
    assert [(s["mode"], s["d"], s["budget"], s["warnings"]) for s in pinned] == [
        (s["mode"], s["d"], s["budget"], s["warnings"]) for s in want["maximize_rate"]]
    close([(s["rate"], s["lam"]) for s in pinned],
          [(s["rate"], s["lam"]) for s in want["maximize_rate"]])
    for name, rows in ref.small_noise().items():
        close(rows, want["small_noise"][name])


def test_optimal_rho2_is_never_positive(fig2, fig3, pinned, solutions):
    # R(P, -|psi|) >= R(P, |psi|) at every node and power, so V(psi) <= V(-|psi|) on the
    # budget and rate-target rows alike, and every optimum, in either mode, has
    # rho2 <= 0 at every node: the fixed-rho scan covers only psi <= 0
    assert {s.mode for s in solutions} == {"fixed-rho", "adaptive-rho"}
    assert max(max(s.policy.rho2) for s in solutions) <= 0.0
    assert min(min(s.policy.rho2) for s in solutions) < 0.0
