#!/usr/bin/env python3
"""Regenerate tests/data/reference.json, the pinned numbers of the paper's figures.

Usage:
    PYTHONPATH=src python scripts/make_reference.py [out.json]

The file holds Fig. 2's two 50-point frontiers as (D, R, d_used), Fig. 3's
27 P_min cells as (R, D, P_min) plus P(0, Q), maximize_rate at
d in {0.3, 0.91, Q} x budget in {0.02, 0.25, 2.5} in both modes as
(rate, lam, warnings), and the frontiers of the two sigma_z2 = 0.01 configs
that CI runs, all at Q = 1. tests/test_acceptance.py compares the package
against it; regenerate it only for a change meant to move these numbers,
and list the moves in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import numpy as np

from fadingcr.model import ChannelParams, Degenerate, Discrete, Rayleigh
from fadingcr.optimize import maximize_rate, min_power, power_distortion_curve, rd_frontier

CH = ChannelParams(Q=1.0, sigma_z2=1.0, P_avg=2.5)
PATH = Path(__file__).resolve().parent.parent / "tests" / "data" / "reference.json"
FIG3_RATES = (0.1, 0.3, 0.5)


def fig2():
    """The fading and static (g = 1) frontiers of Fig. 2, Rayleigh-64, budget 2.5."""
    grid = np.geomspace(1e-3 * CH.Q, CH.Q, 50)
    return {name: rd_frontier(CH, law, 2.5, grid=grid, nodes=64)
            for name, law in (("fading", Rayleigh()), ("static", Degenerate(1.0)))}


def fig3():
    """Fig. 3's power_distortion_curve cells, Rayleigh-64, and P(0, Q)."""
    curve = power_distortion_curve(CH, Rayleigh(), FIG3_RATES, np.linspace(0.28, 1.0, 9),
                                   nodes=64)
    return curve, min_power(CH, Rayleigh(), 0.0, CH.Q, nodes=64)


def frontier_rows(frontier):
    return [[p.D, p.R, p.d_used] for p in frontier.points]


def curve_rows(curve):
    return [[r, d, p] for (r, d), p in sorted(curve.items())]


def solves():
    """maximize_rate on Rayleigh-64 at three distortions and budgets, in both modes."""
    return [{"mode": mode, "d": d, "budget": b, "rate": s.rate, "lam": s.lam,
             "warnings": list(s.warnings)}
            for mode in ("fixed-rho", "adaptive-rho") for d in (0.3, 0.91, CH.Q)
            for b in (0.02, 0.25, 2.5)
            for s in [maximize_rate(CH, Rayleigh(), d, b, mode=mode, nodes=64)]]


def small_noise():
    """The 12-point frontiers of CI's sigma_z2 = 0.01 configs: Rayleigh-16 at budget 2,
    and three atoms at budget 20."""
    grid = np.geomspace(1e-3, 1.0, 12)
    atoms = Discrete(points=(0.3, 1.0, 2.2), probs=(0.2, 0.5, 0.3))
    return {"rayleigh16": frontier_rows(rd_frontier(
                ChannelParams(Q=1.0, sigma_z2=0.01, P_avg=2.0), Rayleigh(), 2.0, grid=grid,
                nodes=16)),
            "atoms": frontier_rows(rd_frontier(
                ChannelParams(Q=1.0, sigma_z2=0.01, P_avg=20.0), atoms, 20.0, grid=grid))}


def main(argv):
    curve, p_zero = fig3()
    data = {"fig2": {k: frontier_rows(f) for k, f in fig2().items()},
            "fig3": {"cells": curve_rows(curve), "p_zero": p_zero},
            "maximize_rate": solves(), "small_noise": small_noise()}
    out = Path(argv[0]) if argv else PATH
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
