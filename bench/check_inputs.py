"""Run every output check of a workload on chosen input seeds, untimed.

Usage, from the root of a source checkout:

    python3 bench/check_inputs.py --workload power               # the pool
    python3 bench/check_inputs.py --workload power --known-defects
    python3 bench/check_inputs.py --workload power --seeds 1 2 3

Each input seed builds the workload's task list (``workloads.build``), runs
one pass and prints ``ok`` or the failed checks. This is how the input pool
``workloads.INPUT_SEEDS`` was made and how ``workloads.KNOWN_DEFECTS``
reproduces the inputs left out of it. Exit code 1 when any seed fails.
"""

from __future__ import annotations

import argparse
import sys
import time

import run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("region", "power",
                                                              "adaptive", "validate"))
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--seeds", type=int, nargs="+")
    group.add_argument("--known-defects", action="store_true")
    args = parser.parse_args(argv)
    if run._import_package() is None:
        print(f"error: fadingcr sources not found under {run.SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.seeds:
        seeds = args.seeds
    elif args.known_defects:
        seeds = list(workloads.KNOWN_DEFECTS[args.workload])
    else:
        seeds = workloads.INPUT_SEEDS[args.workload]
    bad = 0
    for seed in seeds:
        wl = workloads.build(args.workload, seed)
        t0 = time.perf_counter()
        outputs, _ = run.run_pass(wl.tasks, None)
        elapsed = time.perf_counter() - t0
        attempted, failed, messages = run.check_outputs(wl.tasks, outputs, [])
        bad += failed > 0
        print(f"seed {seed}: {'FAILED' if failed else 'ok'} ({failed} of {attempted} "
              f"units failed, pass {elapsed:.1f} s)", flush=True)
        for msg in messages:
            print(f"  {msg}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
