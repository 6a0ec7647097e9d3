"""The four seeded workloads: task lists, output checks and quality figures.

Every workload is a list of tasks. A task's ``call`` is the timed call into
fadingcr; it looks functions up on their module at call time so that the
tracer's wrappers are used. Its ``check`` runs after the timed passes and
returns one message per failed unit (a frontier, a power cell, an identity).

Seeds draw a common scale ``c`` for (Q, sigma_z2, budget, distortions),
under which every rate is invariant, plus a small relative jitter on the
ratios that do move the rates. That keeps the work and the quality figures
of one workload comparable across seeds while still feeding the solvers
different floating-point inputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from fadingcr import cli, ergodic, optimize
from fadingcr.model import ChannelParams, Degenerate, Discrete, Rayleigh

#: Tolerances of the output checks: rates in bits, the budget relative.
CONCAVE_TOL = 1e-9     # criterion 7's slope test
REEVAL_TOL = 1e-12     # policy re-evaluated through ergodic_rate vs stored rate
BUDGET_TOL = 1e-9      # average power over budget
RATE_TOL = 1e-9        # attained vs target / dominating rate

#: Number of identities in a `fadingcr validate` report.
IDENTITIES = 12

#: Value of a quality figure on a workload that does not produce it.
NOT_APPLICABLE = 1.0


@dataclass
class Task:
    name: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    units: int = 1


@dataclass
class Workload:
    tasks: list[Task]
    #: (fading law, node count) pairs whose quadrature rules the run needs.
    rules: list[tuple[object, int]]
    quality: Callable[[list[object]], dict[str, float]]
    facts: dict

    @property
    def rayleigh_nodes(self) -> list[int]:
        """Node counts of the Rayleigh rules: the cold builds of the set-up."""
        return sorted({n for law, n in self.rules if isinstance(law, Rayleigh)})


def _scale(rng: np.random.Generator) -> float:
    return math.exp(rng.uniform(-math.log(4.0), math.log(4.0)))


def _jitter(rng: np.random.Generator, width: float) -> float:
    return math.exp(rng.uniform(-width, width))


# -- checks shared by region and adaptive ------------------------------------

def _policy_problems(tag, policy, rate, d, budget, ch, law, nodes) -> list[str]:
    rule = ergodic.make_rule(law, nodes)
    out = []
    again = ergodic.ergodic_rate(rule, policy, d, ch)
    if not abs(again - rate) <= REEVAL_TOL:
        out.append(f"{tag}: policy re-evaluates to {again!r}, stored {rate!r}")
    spent = ergodic.avg_power(rule, policy)
    if not spent <= budget * (1.0 + BUDGET_TOL):
        out.append(f"{tag}: average power {spent!r} exceeds budget {budget!r}")
    return out


def _frontier_problems(tag, fr, ch, law, nodes) -> list[str]:
    if not fr.points:
        return [f"{tag}: empty frontier"]
    ds, rs = fr.distortions(), fr.rates()
    out = []
    if not all(b >= a - 1e-12 for a, b in zip(rs, rs[1:])):
        out.append(f"{tag}: frontier decreases")
    if not all((rs[i] - rs[i - 1]) / (ds[i] - ds[i - 1])
               >= (rs[i + 1] - rs[i]) / (ds[i + 1] - ds[i]) - CONCAVE_TOL
               for i in range(1, len(ds) - 1)):
        out.append(f"{tag}: frontier is not concave")
    for p in fr.points:
        out += _policy_problems(f"{tag} D={p.D:.4g}", p.policy, p.R, p.d_used,
                                ch.P_avg, ch, law, nodes)
    return out


# -- region ------------------------------------------------------------------

def _discrete_law(rng: np.random.Generator) -> Discrete:
    """2-4 point law normalised to E[G^2] = 1, like the Rayleigh reference."""
    k = int(rng.integers(2, 5))
    pts = np.sort(rng.uniform(0.6, 1.4, k))
    probs = rng.dirichlet(np.ones(k))
    pts = pts / math.sqrt(float(probs @ pts ** 2))
    probs = probs / math.fsum(probs)
    return Discrete(tuple(float(p) for p in pts), tuple(float(p) for p in probs))


def _jittered_channel(rng: np.random.Generator) -> ChannelParams:
    c = _scale(rng)
    return ChannelParams(Q=c * _jitter(rng, 0.05), sigma_z2=c, P_avg=2.5 * c * _jitter(rng, 0.05))


def build_region(rng, tiny: bool = False, corrupt: bool = False) -> Workload:
    points = 2 if tiny else 4
    nodes = 64
    ref = ChannelParams(Q=1.0, sigma_z2=1.0, P_avg=2.5)

    def frontier(ch, law):
        grid = np.geomspace(1e-3 * ch.Q, ch.Q, points)
        return optimize.rd_frontier(ch, law, ch.P_avg, grid=grid, nodes=nodes)

    def pair():
        fading, static = frontier(ref, Rayleigh()), frontier(ref, Degenerate(1.0))
        if corrupt:  # smoke-test hook: a policy that spends more than the budget
            p = fading.points[-1]
            bad = dataclasses.replace(p.policy, power=tuple(2.0 * v for v in p.policy.power))
            fading = dataclasses.replace(
                fading, points=fading.points[:-1] + (dataclasses.replace(p, policy=bad),))
        return fading, static

    def check_pair(out):
        fading, static = out
        probs = (_frontier_problems("fig2 rayleigh", fading, ref, Rayleigh(), nodes)
                 + _frontier_problems("fig2 static", static, ref, Degenerate(1.0), nodes))
        try:
            dominated = all(static.evaluate(d) >= r - RATE_TOL
                            for d, r in zip(fading.distortions(), fading.rates()))
        except ValueError as exc:
            dominated, probs = False, probs + [f"fig2: {exc}"]
        if not dominated:
            probs.append("fig2: static curve does not dominate the fading curve")
        return probs

    tasks = [Task("fig2-pair", pair, check_pair)]
    cases = [] if tiny else [
        ("rayleigh", _jittered_channel(rng), Rayleigh()),
        ("degenerate", _jittered_channel(rng), Degenerate(float(_jitter(rng, 0.05)))),
        ("discrete", _jittered_channel(rng), _discrete_law(rng)),
    ]
    for tag, ch, law in cases:
        tasks.append(Task(tag, lambda ch=ch, law=law: frontier(ch, law),
                          lambda fr, ch=ch, law=law, tag=tag:
                          _frontier_problems(tag, fr, ch, law, nodes)))

    def quality(outputs):
        rates = []
        for out in outputs:
            for fr in (out if isinstance(out, tuple) else (out,)):
                rates += fr.rates()
        return {"rate_mean_bits": float(np.mean(rates)), "pmin_mean": NOT_APPLICABLE}

    laws = [(Rayleigh(), nodes), (Degenerate(1.0), nodes)] + [(law, nodes) for _, _, law in cases]
    return Workload(tasks, laws, quality,
                    {"grid_points": points, "nodes": nodes,
                     "tasks": [t.name for t in tasks]})


# -- power -------------------------------------------------------------------

def build_power(rng, tiny: bool = False, corrupt: bool = False) -> Workload:
    nodes = 64
    # Fig. 3's channel unscaled: min_power brackets up from an absolute
    # 1e-6, so a scale factor would change the number of solves per seed
    ch = ChannelParams(Q=1.0, sigma_z2=1.0, P_avg=2.5)
    law = Rayleigh()
    # the top two distortions of the Fig. 3 grid linspace(0.28, 1, 9)
    rate = 0.3 * _jitter(rng, 0.02)
    d_grid = [ch.Q] if tiny else [0.91 * ch.Q, ch.Q]

    def curve():
        return optimize.power_distortion_curve(ch, law, [rate], d_grid, nodes=nodes)

    attained: list[float] = []

    def check_curve(out):
        probs = []
        attained.clear()
        for d in d_grid:
            p = out.get((rate, d))
            if p is None:
                probs.append(f"cell R={rate:.4g} D={d:.4g} unreachable")
                continue
            got = optimize.maximize_rate(ch, law, d, p, nodes=nodes).rate
            attained.append(got)
            if not got >= rate - RATE_TOL:
                probs.append(f"cell D={d:.4g}: rate {got!r} at P_min {p!r} misses {rate!r}")
        ps = [out.get((rate, d)) for d in d_grid]
        if None not in ps and not all(a >= b for a, b in zip(ps, ps[1:])):
            probs.append("P_min increases with D")
        return probs

    def zero():
        return optimize.min_power(ch, law, 0.0, ch.Q, nodes=nodes)

    def check_zero(p):
        return [] if p == 0.0 else [f"min_power(0, Q) = {p!r}, expected 0"]

    tasks = [Task("curve", curve, check_curve, units=len(d_grid)),
             Task("min_power(0,Q)", zero, check_zero)]

    def quality(outputs):
        # attained rates come from check_curve, which runs first
        cells = [p for p in outputs[0].values() if p is not None]
        return {"rate_mean_bits": float(np.mean(attained)) if attained else 0.0,
                "pmin_mean": float(np.mean(cells)) / ch.sigma_z2 if cells else 0.0}

    return Workload(tasks, [(law, nodes)], quality,
                    {"rate": rate, "d_grid": d_grid, "nodes": nodes})


# -- adaptive ----------------------------------------------------------------

def build_adaptive(rng, tiny: bool = False, corrupt: bool = False) -> Workload:
    nodes = 16 if tiny else 128
    law = Rayleigh()
    c = _scale(rng)
    ch = ChannelParams(Q=c, sigma_z2=c, P_avg=2.5 * c)
    # the reference solve (d = 0.3 Q) plus the midpoints of 7 log strata of
    # [0.2 Q, Q], where the optimal rate is positive. Only the scale is
    # seeded: jittering d/Q or budget/sigma_z2 flips single solves between
    # the plain path and _finalize's multiplier escalation (~4x the kernel
    # calls), which spread solve_s by 54 % over ten seeds.
    strata = 0 if tiny else 7
    fracs = [0.3] + [0.2 ** (1.0 - (k + 0.5) / strata) for k in range(strata)]
    pairs = [(f * ch.Q, ch.P_avg) for f in fracs]

    def solve(d, budget, mode):
        return optimize.maximize_rate(ch, law, d, budget, mode=mode, nodes=nodes)

    def check(sol, d, budget):
        probs = _policy_problems(f"d={d:.4g}", sol.policy, sol.rate, d, budget, ch, law, nodes)
        fixed = solve(d, budget, "fixed-rho").rate
        if not sol.rate >= fixed - RATE_TOL:
            probs.append(f"d={d:.4g}: adaptive rate {sol.rate!r} < fixed-rho {fixed!r}")
        return probs

    tasks = [Task(f"d={d / ch.Q:.3g}Q", lambda d=d, b=b: solve(d, b, "adaptive-rho"),
                  lambda sol, d=d, b=b: check(sol, d, b)) for d, b in pairs]

    def quality(outputs):
        return {"rate_mean_bits": float(np.mean([s.rate for s in outputs])),
                "pmin_mean": NOT_APPLICABLE}

    return Workload(tasks, [(law, nodes)], quality,
                    {"pairs": [(d / ch.Q, b / ch.sigma_z2) for d, b in pairs],
                     "scale": c, "nodes": nodes})


# -- validate ----------------------------------------------------------------

def build_validate(rng, tiny: bool = False, corrupt: bool = False) -> Workload:
    draws, samples, mc_sets = (200, 200_000, 1) if tiny else (2000, 500_000, 2)
    seed = int(rng.integers(0, 2 ** 31))
    argv = ["validate", "--draws", str(draws), "--samples", str(samples),
            "--mc-sets", str(mc_sets), "--seed", str(seed)]
    if corrupt:
        argv += ["--self-test-corrupt", "rate-oracle-agreement"]

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(result):
        code, text = result
        try:
            ids = json.loads(text)["identities"]
        except (ValueError, KeyError):
            return [f"no report (exit code {code})"] * IDENTITIES
        probs = [f"identity {e['name']} observed {e['observed']:.3e} > {e['tolerance']:.3e}"
                 for e in ids if not e["passed"]]
        if len(ids) != IDENTITIES:
            probs.append(f"report has {len(ids)} identities, expected {IDENTITIES}")
        if (code == 0) != (not probs):
            probs.append(f"exit code {code} disagrees with the report")
        return probs

    def quality(outputs):
        return {"rate_mean_bits": NOT_APPLICABLE, "pmin_mean": NOT_APPLICABLE}

    return Workload([Task("validate", call, check, units=IDENTITIES)],
                    [(Rayleigh(), 64)], quality, {"argv": argv})


BUILDERS = {"region": build_region, "power": build_power,
            "adaptive": build_adaptive, "validate": build_validate}

#: Input seeds on which the program fails one of the output checks above
#: (bench/README.md, "Failures found at seed"). Reproduce them with
#: ``python3 bench/check_inputs.py --workload <name> --known-defects``.
KNOWN_DEFECTS = {"region": (), "power": (201,), "adaptive": (204, 405), "validate": (21,)}

#: Input seeds 1..n were each run through every output check
#: (``bench/check_inputs.py``); the ones that passed form the pool.
_CANDIDATES = {"region": 16, "power": 10, "adaptive": 16, "validate": 24}

#: The pool a run's ``--seed`` picks its input seed from. A timing run
#: must not stop on a program defect that no performance change is about,
#: so inputs that fail a check stay out of the pool and are listed above.
INPUT_SEEDS = {name: [s for s in range(1, n + 1) if s not in KNOWN_DEFECTS[name]]
               for name, n in _CANDIDATES.items()}


def input_seed(name: str, seed: int) -> int:
    """The input seed of a run with ``--seed seed``: the same seed, the same inputs."""
    pool = INPUT_SEEDS[name]
    return pool[seed % len(pool)]


def build(name: str, seed: int, tiny: bool = False, corrupt: bool = False) -> Workload:
    """The workload built from input seed ``seed`` (not a run's ``--seed``)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return BUILDERS[name](rng, tiny=tiny, corrupt=corrupt)
