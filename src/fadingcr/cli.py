"""Command-line front end: eval, region, power, validate.

Exit codes: 0 success, 1 validation failure, 2 bad input, 3 empty/infeasible
result. Every file output is accompanied by a manifest JSON that pins the
resolved configuration, mode, quadrature size and seed of the run (null
where the command takes no mode or seed).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .model import (ChannelParams, CodingParams, Config, ConfigError, Degenerate,
                    config_from_json, config_to_dict)
from .rate_core import NumericalError, cond_var_y_given_u, kappa_member, rate_per_state
from .gaussian_oracle import gp_rate_oracle
from .optimize import (DEFAULT_GRID_FLOOR, DEFAULT_GRID_POINTS, UnreachableError,
                       power_distortion_curve, rd_frontier)
from .validation import first_failure, run_validation

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BAD_INPUT = 2
EXIT_EMPTY = 3

DEFAULT_CONFIG = Config(channel=ChannelParams(Q=1.0, sigma_z2=1.0, P_avg=2.5))


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _load_config(args: argparse.Namespace) -> Config:
    if args.config:
        cfg = config_from_json(Path(args.config).read_text())
    else:
        cfg = DEFAULT_CONFIG
    if args.log_base is not None:
        base = 2.0 if args.log_base == "2" else math.e
        cfg = Config(cfg.channel, cfg.fading, cfg.quadrature_nodes, base)
    if args.nodes is not None:
        cfg = Config(cfg.channel, cfg.fading, args.nodes, cfg.log_base)
    cfg.validate()
    return cfg


def _write_manifest(out: Path, cfg: Config, args: argparse.Namespace,
                    extra: dict | None = None) -> None:
    mode = getattr(args, "mode", None)
    manifest = {
        "tool": "fadingcr",
        "version": __version__,
        "command": args.command,
        "mode": mode,
        # sign condition of the feasible set: applied to the ergodic rate in
        # fixed-rho mode; recorded per node (not enforced) in adaptive-rho mode
        "kappa_semantics": {"fixed-rho": "ergodic", "adaptive-rho": "per-node-recorded"}.get(mode),
        "log_base": 2 if cfg.log_base == 2.0 else "e",
        "quadrature_nodes": cfg.quadrature_nodes,
        "seed": getattr(args, "seed", None),
        "config": config_to_dict(cfg),
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if extra:
        manifest.update(extra)
    path = Path(str(out) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2) + "\n")


def _write_csv(out: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(out, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    ch = cfg.channel
    cp = CodingParams(args.rho1, args.rho2, args.d)
    msg = cp.violation(ch)
    if msg is not None:
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.g < 0 or args.p < 0:
        print("error: g and p must be nonnegative", file=sys.stderr)
        return EXIT_BAD_INPUT
    rate = rate_per_state(args.g, args.p, cp, ch, cfg.log_base)
    feasible = kappa_member(args.g, args.p, cp, ch)
    vyu = cond_var_y_given_u(args.g, args.p, cp, ch)
    oracle = gp_rate_oracle(args.g, args.p, cp, ch, cfg.log_base)
    unit = "bits/use" if cfg.log_base == 2.0 else "nats/use"
    lines = [
        f"rate_per_state      : {_fmt(rate)} {unit}",
        f"kappa_member        : {str(feasible).lower()}",
        f"cond_var_y_given_u  : {_fmt(vyu)}",
        f"gp_rate_oracle      : {_fmt(oracle)} {unit}",
    ]
    print("\n".join(lines))
    if args.out:
        out = Path(args.out)
        out.write_text(json.dumps({
            "rate_per_state": rate, "kappa_member": feasible,
            "cond_var_y_given_u": vyu, "gp_rate_oracle": oracle,
        }, indent=2) + "\n")
        _write_manifest(out, cfg, args,
                        {"point": {"g": args.g, "p": args.p, "rho1": args.rho1,
                                   "rho2": args.rho2, "d": args.d}})
    return EXIT_OK


def _frontier_rows(frontier, mode: str) -> list[list[str]]:
    return [[_fmt(p.D), _fmt(p.R), _fmt(p.d_used), mode] for p in frontier.points]


def _frontier_warnings(frontier) -> list[dict]:
    """The solver warnings of the frontier's points, for the manifest."""
    return [{"D": p.D, "d_used": p.d_used, "warnings": list(p.warnings)}
            for p in frontier.points if p.warnings]


def cmd_region(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    ch = cfg.channel
    if args.points < 1:
        # an empty grid would read as a frontier whose every point is infeasible
        print("error: --points must be at least 1", file=sys.stderr)
        return EXIT_BAD_INPUT
    grid = np.geomspace(DEFAULT_GRID_FLOOR * ch.Q, ch.Q, args.points)
    frontier = rd_frontier(ch, cfg.fading, ch.P_avg, grid=grid, mode=args.mode,
                           nodes=cfg.quadrature_nodes, base=cfg.log_base)
    if not frontier.points:
        print("error: every grid point is infeasible", file=sys.stderr)
        return EXIT_EMPTY
    out = Path(args.out)
    _write_csv(out, ["D", "R_bits", "d_used", "mode"], _frontier_rows(frontier, args.mode))
    extra: dict = {"points": args.points, "budget": ch.P_avg,
                   "warnings": _frontier_warnings(frontier)}
    if args.compare_static:
        static = rd_frontier(ch, Degenerate(1.0), ch.P_avg, grid=grid, mode=args.mode,
                             nodes=cfg.quadrature_nodes, base=cfg.log_base)
        static_out = out.with_name(out.stem + ".static" + out.suffix)
        _write_csv(static_out, ["D", "R_bits", "d_used", "mode"],
                   _frontier_rows(static, args.mode))
        extra["static_curve"] = static_out.name
        extra["static_warnings"] = _frontier_warnings(static)
    _write_manifest(out, cfg, args, extra)
    return EXIT_OK


def cmd_power(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    ch = cfg.channel
    if not args.rate:
        print("error: at least one --rate is required", file=sys.stderr)
        return EXIT_BAD_INPUT
    if any(r < 0 for r in args.rate):
        print("error: rates must be nonnegative", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.dgrid_count < 1:
        # an empty grid would read as a curve whose every point is unreachable
        print("error: --dgrid-count must be at least 1", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.dgrid:
        try:
            d_grid = sorted(float(v) for v in args.dgrid.split(","))
        except ValueError:
            print("error: --dgrid must be a comma-separated list of distortions",
                  file=sys.stderr)
            return EXIT_BAD_INPUT
    else:
        d_grid = list(np.geomspace(0.05 * ch.Q, ch.Q, args.dgrid_count))
    if any(not (ch.d_min <= d <= ch.Q) for d in d_grid):
        print(f"error: distortions must lie in [{ch.d_min:g}, {ch.Q:g}]", file=sys.stderr)
        return EXIT_BAD_INPUT

    curve = power_distortion_curve(ch, cfg.fading, args.rate, d_grid, mode=args.mode,
                                   nodes=cfg.quadrature_nodes, base=cfg.log_base)
    rates = sorted(set(float(r) for r in args.rate))
    out = Path(args.out)
    files = []
    if args.format == "long":
        rows = [[_fmt(r), _fmt(d), _fmt(curve[(r, d)]) if curve[(r, d)] is not None
                 else "unreachable"]
                for r in rates for d in d_grid]
        _write_csv(out, ["R_target", "D", "P_min"], rows)
        files.append(out.name)
    else:
        for r in rates:
            rows = [[_fmt(d), _fmt(curve[(r, d)]) if curve[(r, d)] is not None
                     else "unreachable"] for d in d_grid]
            rout = out.with_name(f"{out.stem}_R{_fmt(r)}{out.suffix}")
            _write_csv(rout, ["D", "P_min"], rows)
            files.append(rout.name)
    _write_manifest(out, cfg, args,
                    {"rates": rates, "d_grid": d_grid, "format": args.format,
                     "files": files})
    if all(v is None for v in curve.values()):
        print("error: every requested point is unreachable", file=sys.stderr)
        return EXIT_EMPTY
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    if args.samples < 1000:
        print("error: --samples must be at least 1000", file=sys.stderr)
        return EXIT_BAD_INPUT
    for flag, value in (("--draws", args.draws), ("--mc-sets", args.mc_sets)):
        if value < 1:
            print(f"error: {flag} must be at least 1", file=sys.stderr)
            return EXIT_BAD_INPUT
    report = run_validation(cfg, draws=args.draws, samples=args.samples,
                            mc_sets=args.mc_sets, seed=args.seed,
                            corrupt=args.self_test_corrupt)
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        out = Path(args.out)
        out.write_text(text)
        _write_manifest(out, cfg, args,
                        {"draws": args.draws, "samples": args.samples,
                         "mc_sets": args.mc_sets})
    else:
        sys.stdout.write(text)
    if not report["passed"]:
        bad = first_failure(report)
        print(f"validation failed: {bad['name']} observed {bad['observed']:.3e} "
              f"> tolerance {bad['tolerance']:.3e}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--log-base", choices=["2", "e"], default=None,
                        help="rate unit: bits (2, default) or nats (e)")
    common.add_argument("--nodes", type=int, default=None,
                        help="quadrature node count (default 64)")
    common.add_argument("--out", help="output path")
    # only region and power solve, so only they take a solver mode
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--mode", choices=["fixed-rho", "adaptive-rho"], default="fixed-rho")

    parser = argparse.ArgumentParser(
        prog="fadingcr",
        description="Rate-distortion and power-distortion trade-offs for the "
                    "state-dependent fading Gaussian channel with common reconstruction.")
    parser.add_argument("--version", action="version", version=f"fadingcr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common],
                            help="evaluate one (g, P, rho1, rho2, d) point")
    p_eval.add_argument("--g", type=float, required=True)
    p_eval.add_argument("--p", type=float, required=True)
    p_eval.add_argument("--rho1", type=float, required=True)
    p_eval.add_argument("--rho2", type=float, required=True)
    p_eval.add_argument("--d", type=float, required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_region = sub.add_parser("region", parents=[common, solver],
                              help="emit the rate-distortion frontier as CSV")
    p_region.add_argument("--points", type=int, default=DEFAULT_GRID_POINTS)
    p_region.add_argument("--compare-static", action="store_true",
                          help="also emit the static-channel (g=1) frontier")
    p_region.set_defaults(func=cmd_region, out_required=True)

    p_power = sub.add_parser("power", parents=[common, solver],
                             help="emit minimum-power curves P(R, D) as CSV")
    p_power.add_argument("--rate", type=float, action="append", default=[],
                         help="target rate; repeat for a family of curves")
    p_power.add_argument("--dgrid", help="comma-separated distortion grid")
    p_power.add_argument("--dgrid-count", type=int, default=12,
                         help="log-spaced grid size when --dgrid is absent")
    p_power.add_argument("--format", choices=["long", "split"], default="long")
    p_power.set_defaults(func=cmd_power, out_required=True)

    p_val = sub.add_parser("validate", parents=[common],
                           help="run the oracle identity suites")
    p_val.add_argument("--draws", type=int, default=10000)
    p_val.add_argument("--samples", type=int, default=1_000_000)
    p_val.add_argument("--mc-sets", type=int, default=20)
    p_val.add_argument("--seed", type=int, default=42, help="Monte-Carlo seed")
    p_val.add_argument("--self-test-corrupt", metavar="IDENTITY",
                       help="test hook: set one identity's tolerance to -1, so that it fails")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "out_required", False) and not args.out:
        print("error: --out is required for this command", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        return args.func(args)
    except (ConfigError, NumericalError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except UnreachableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY


if __name__ == "__main__":
    sys.exit(main())
