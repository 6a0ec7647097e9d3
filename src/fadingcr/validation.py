"""Identity suites: every closed form checked against its Gaussian oracle.

Produces the JSON validation report consumed by the CLI; each entry lists
the identity name, worst observed error, tolerance and pass/fail.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import ergodic, gaussian_oracle as go, rate_core as rc
from .model import ChannelParams, CodingParams, Config, Rayleigh, config_to_dict

#: (name, tolerance) of every identity, in report order.
TOLERANCES = {
    "rate-oracle-agreement": 1e-9,
    "converse-identity": 1e-12,
    "distortion-identity": 1e-12,
    "schur-var-y-given-u": 1e-10,
    "schur-var-s-given-shat-y": 1e-10,
    "assembly-var-y": 1e-10,
    "mc-var-s-given-u": 1e-2,
    "mc-plugin-rate": 1e-2,
    "quad-weight-sum": 1e-10,
    "quad-second-moment": 1e-10,
    "quad-mean": 1e-8,
    "quad-fourth-moment": 1e-8,
}


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    observed: float
    tolerance: float
    passed: bool


class UniformBlock:
    """rng.random(shape), handed out in row order as Generator.uniform maps its draws."""

    def __init__(self, rng: np.random.Generator, shape: tuple[int, ...]) -> None:
        self._u = iter(rng.random(shape).ravel().tolist())

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * next(self._u)


def draw_params(rng: np.random.Generator | UniformBlock, ch: ChannelParams,
                d_lo: float = 1e-6) -> tuple[float, float, CodingParams]:
    """One random valid (g, P, CodingParams) draw: g in [0,4], P in [0,10], disk rhos."""
    g = rng.uniform(0.0, 4.0)
    P = rng.uniform(0.0, 10.0)
    r = math.sqrt(rng.uniform(0.0, 1.0))
    th = rng.uniform(0.0, 2.0 * math.pi)
    d = rng.uniform(d_lo, ch.Q * 0.999999)
    return g, P, CodingParams(r * math.cos(th), r * math.sin(th), d)


def draw_converse_cov(rng: np.random.Generator | UniformBlock, ch: ChannelParams,
                      boundary: bool = False) -> rc.ConverseCovariance:
    """Random PSD converse covariance with K11 + K22 = Q.

    boundary=True restricts to rho1^2 + rho2^2 = 1, the family on which the
    closed form for Var(S | S_hat, Y) is exact (in the disk interior it
    understates the conditional variance by g^2 K00 (1-rho1^2-rho2^2) K22/B).
    """
    k00 = rng.uniform(0.0, 10.0)
    k22 = rng.uniform(1e-6, ch.Q * 0.999999)
    k11 = ch.Q - k22
    r = 1.0 if boundary else math.sqrt(rng.uniform(0.0, 1.0))
    th = rng.uniform(0.0, 2.0 * math.pi)
    return rc.ConverseCovariance.from_rhos(k00, k11, k22,
                                           r * math.cos(th), r * math.sin(th))


def run_validation(cfg: Config, draws: int = 10000, samples: int = 1_000_000,
                   mc_sets: int = 20, seed: int = 42,
                   corrupt: str | None = None) -> dict:
    """Run all identity suites; deterministic given (seed, draws, samples).

    corrupt names an identity whose tolerance is set to -1, so that it fails:
    a test hook for the failure path.
    """
    cfg.validate()
    if samples < 1000:
        raise ValueError("samples must be at least 1000")
    if draws < 1:
        raise ValueError("draws must be at least 1")
    if mc_sets < 1:
        raise ValueError("mc_sets must be at least 1")
    if corrupt is not None and corrupt not in TOLERANCES:
        raise ValueError(f"unknown identity {corrupt!r}; expected one of {', '.join(TOLERANCES)}")
    ch = cfg.channel
    base = cfg.log_base
    rng = np.random.Generator(np.random.PCG64(seed))
    checks: list[IdentityCheck] = []

    def add(name: str, observed: float) -> None:
        # every observed error is >= 0 (or nan), so a tolerance of -1 fails
        tol = -1.0 if corrupt == name else TOLERANCES[name]
        checks.append(IdentityCheck(name, float(observed), tol, bool(observed <= tol)))

    # (i) closed-form rate vs the log-det oracle; (ii) converse functional identity.
    # The draws come as one block of rows; the oracle and the closed forms run on
    # their stack, and build_covariance validates each draw once.
    block = UniformBlock(rng, (draws, 5))
    gs, Ps, cps = zip(*[draw_params(block, ch) for _ in range(draws)])
    g, P = np.array(gs), np.array(Ps)
    rho1, rho2, d = np.array([(cp.rho1, cp.rho2, cp.d) for cp in cps]).T
    r_oracle = go.gp_rate_oracle(g, P, cps, ch, base)
    r_closed = rc.rate_per_state_stack(g, P, rho1, rho2, d, ch, base)
    r_conv = rc.converse_rate_stack(g, P, ch.Q - d, d, rho1, rho2, ch, base)
    add("rate-oracle-agreement", np.max(np.abs(r_closed - r_oracle)))
    add("converse-identity",
        np.max(np.abs(r_conv - r_closed) / np.maximum(np.abs(r_closed), 1e-12)))

    # (iii) Schur-complement oracles, stacked as in (i); a row draws (g, P, cp), Kb and K
    m = max(draws // 10, 100)
    block = UniformBlock(rng, (m, 12))
    gs, Ps, cps, Kbs, Ks = zip(*[(*draw_params(block, ch),
                                  draw_converse_cov(block, ch, boundary=True),
                                  draw_converse_cov(block, ch)) for _ in range(m)])
    g, P = np.array(gs), np.array(Ps)
    rho1, rho2, d = np.array([(cp.rho1, cp.rho2, cp.d) for cp in cps]).T
    cov = go.build_covariance(g, P, cps, ch)
    add("distortion-identity", np.max(np.abs(go.schur_conditional_variance(cov, "S", "U") - d)))
    vyu = rc.cond_var_y_given_u_stack(g, P, rho1, rho2, d, ch)
    add("schur-var-y-given-u", np.max(np.abs(go.schur_conditional_variance(cov, "Y", "U") - vyu)
                                      / np.maximum(vyu, 1e-12)))
    # one assembly stacks the boundary draws Kb over the disk draws K
    conv = go.converse_joint_covariance(np.tile(g, 2), Kbs + Ks, ch)
    schur = go.schur_conditional_variance(conv[:m], "S", ("Shat", "Y"),
                                          variables=go.CONVERSE_VARIABLES)
    closed = rc.cond_var_s_given_shat_y_stack(g, *np.array([K.fields() for K in Kbs]).T, ch)
    add("schur-var-s-given-shat-y", np.max(np.abs(schur - closed) / np.maximum(closed, 1e-12)))
    vy = rc.var_y_stack(g, *np.array([K.fields() for K in Ks]).T, ch)
    add("assembly-var-y", np.max(np.abs(conv[m:, 4, 4] - vy) / np.maximum(vy, 1e-12)))

    # (iv) Monte-Carlo consistency of the construction
    err_mc_var, err_mc_rate = 0.0, 0.0
    for i in range(mc_sets):
        g, P, cp = draw_params(rng, ch, d_lo=1e-3 * ch.Q)
        est = go.mc_estimate(g, P, cp, ch, n=samples, seed=seed + 1 + i, base=base)
        err_mc_var = max(err_mc_var, abs(est.var_s_given_u - cp.d) / cp.d)
        err_mc_rate = max(err_mc_rate, abs(est.rate - rc.rate_per_state(g, P, cp, ch, base)))
    add("mc-var-s-given-u", err_mc_var)
    add("mc-plugin-rate", err_mc_rate)

    # (v) Rayleigh quadrature moments
    rule = ergodic.make_rule(Rayleigh(), cfg.quadrature_nodes)
    w = np.array(rule.weights)
    gN = np.array(rule.nodes)
    add("quad-weight-sum", abs(float(w.sum()) - 1.0))
    add("quad-second-moment", abs(float(w @ gN ** 2) - 1.0))
    add("quad-mean", abs(float(w @ gN) - math.sqrt(math.pi) / 2.0))
    add("quad-fourth-moment", abs(float(w @ gN ** 4) - 2.0))

    return {
        "identities": [asdict(c) for c in checks],
        "passed": all(c.passed for c in checks),
        "seed": seed,
        "draws": draws,
        "samples": samples,
        "mc_sets": mc_sets,
        "prng": go.PRNG_ALGORITHM,
        "numpy": np.__version__,
        "config": config_to_dict(cfg),
    }


def first_failure(report: dict) -> dict | None:
    for entry in report["identities"]:
        if not entry["passed"]:
            return entry
    return None
