"""fadingcr benchmark: one seeded workload per run, one JSON result line.

Usage, from the root of a source checkout (no install needed; ``src`` is
put on the import path):

    python3 bench/run.py --workload region --seed 1 --seconds 10 --trace 0

Workloads: region, power, adaptive, validate (see bench/README.md).
``--seed`` picks the run's input seed from the workload's pool of inputs
that pass every output check (``workloads.INPUT_SEEDS``). ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
task list alternately untraced and traced and reports the per-layer metrics.
The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the lines before it print
the environment and every metric with its unit. Exit code 2 when the
fadingcr sources are missing or an argument is invalid.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools before numpy loads: the engine is single-threaded
# and the load generator must not use more threads than cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh processes timed for setup_s; the median is reported.
SETUP_REPEATS = 5

#: A fresh process's set-up: the package imports plus the cold Rayleigh rules.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import fadingcr.cli
from fadingcr.ergodic import make_rule
from fadingcr.model import Rayleigh
for n in sys.argv[2:]:
    make_rule(Rayleigh(), int(n))
"""

#: Median calibration round on the machine the bounds were set on (2-core
#: Xeon VM, Python 3.11, numpy 2.4, quiet). End-to-end times are reported at
#: that speed: raw seconds x CAL_REF_S / the median calibration round timed
#: while they ran. Shared hosts drift by 40 % over tens of minutes; the
#: rescaled times drift far less.
CAL_REF_S = 0.006

#: Wall-clock period of the calibration rounds taken during a run.
CAL_PERIOD_S = 0.25


def _import_package():
    """Import fadingcr from this checkout's src, or None when it is not there."""
    if not (SRC / "fadingcr" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import fadingcr
    if Path(fadingcr.__file__).resolve().parent != SRC / "fadingcr":
        return None
    return fadingcr


def environment(seed: int, input_seed: int) -> dict:
    import mpmath
    import numpy
    import scipy

    def read(path: str) -> str:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    cpu = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    cache = "/sys/devices/system/cpu/cpu0/cache/index{}/size"
    return {
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l2": read(cache.format(2)),
        "l3": read(cache.format(3)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
        "input_seed": input_seed,
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"  # source export without git metadata


def _calibration_round() -> float:
    """Fixed interpreter and small-array numpy work that never touches fadingcr."""
    import numpy as np
    x = np.linspace(0.1, 2.0, 64)
    acc = 0.0
    for i in range(400):
        acc += float(np.log2((x * x + i) / (x + 1.0 + i)).sum())
        acc += sum(j * 0.5 for j in range(50))
    return acc


class SpeedSampler:
    """Times a calibration round every CAL_PERIOD_S of wall time (SIGALRM).

    The rounds run in the main thread between bytecodes, so a task that runs
    for 25 s is sampled while it runs, not only at its ends. ``spent`` sums
    the rounds' own time so that callers can take it out of their timings.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _calibration_round()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, since: int) -> float:
        """CAL_REF_S over the median round from sample ``since`` on."""
        if since >= len(self.samples):  # a span shorter than the period
            self._tick(None, None)
        return CAL_REF_S / statistics.median(self.samples[since:])


def measure_setup(nodes: list[int]) -> float:
    """Median wall time of fresh processes doing the workload's set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, nodes)],
                       check=True, timeout=170)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(tasks, sampler: SpeedSampler | None) -> tuple[list[object], list[float]]:
    outputs, times = [], []
    for task in tasks:
        spent = sampler.spent if sampler else 0.0
        t0 = time.perf_counter()
        try:
            out = task.call()
        except Exception as exc:  # a failed task is counted, not fatal
            out = exc
        elapsed = time.perf_counter() - t0
        times.append(elapsed - ((sampler.spent - spent) if sampler else 0.0))
        outputs.append(out)
    return outputs, times


def check_outputs(tasks, first: list[object], others: list[list[object]]
                  ) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every pass; later passes must repeat the first."""
    attempted = failed = 0
    messages = []
    for i, task in enumerate(tasks):
        out = first[i]
        try:
            probs = ([f"raised {out!r}"] if isinstance(out, Exception) else task.check(out))
        except Exception as exc:  # e.g. a returned policy that fails re-validation
            probs = [f"check raised {exc!r}"]
        attempted += task.units
        failed += min(len(probs), task.units)
        messages += [f"{task.name}: {p}" for p in probs]
        for again in others:
            attempted += task.units
            if isinstance(again[i], Exception) or again[i] != out:
                failed += task.units
                messages.append(f"{task.name}: a later pass gave a different output")
    return attempted, failed, messages


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False, corrupt: bool = False) -> tuple[dict, dict, list[str]]:
    """Run one workload built from input seed ``seed``; returns (result, facts, check messages)."""
    import workloads
    from tracer import Tracer

    wl = workloads.build(workload, seed, tiny=tiny, corrupt=corrupt)
    sampler = None if trace else SpeedSampler()
    raw_setup_s = setup_speed = None
    if sampler:
        with sampler:
            raw_setup_s = measure_setup(wl.rayleigh_nodes)
        setup_speed = sampler.factor(0)

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    # cold rule builds (traced: the ergodic layer's share of set-up)
    for law, n in wl.rules:
        workloads.ergodic.make_rule(law, n)
    cold = tracer.layer_metrics() if tracer else {}

    plain, traced, layer = [], [], []
    task_times: list[list[float]] = []
    speed: list[float] = []  # CAL_REF_S / calibration round, per pass
    outputs: list[list[object]] = []
    deadline = time.perf_counter() + seconds
    while True:
        use_trace = tracer is not None and len(plain) > len(traced)
        if tracer:
            tracer.reset()
            (tracer.install if use_trace else tracer.uninstall)()
        t0 = time.perf_counter()
        if sampler:
            first = len(sampler.samples)
            with sampler:
                outs, times = run_pass(wl.tasks, sampler)
            speed.append(sampler.factor(first))
        else:
            outs, times = run_pass(wl.tasks, None)
        elapsed = time.perf_counter() - t0
        outputs.append(outs)
        task_times.append(times)
        if use_trace:
            traced.append(elapsed)
            layer.append(tracer.layer_metrics())
        else:
            plain.append(elapsed)
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break
    if tracer:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, messages = check_outputs(wl.tasks, outputs[0], outputs[1:])
    first_ok = not any(isinstance(o, Exception) for o in outputs[0])
    quality = wl.quality(outputs[0]) if first_ok else {}

    if trace:
        metrics = {k: statistics.median(m[k] for m in layer) for k in layer[0]}
        for key in ("ergodic.make_rule_calls", "ergodic.make_rule_s"):
            if key in metrics:
                metrics[key] += cold[key]
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        metrics["trace.untraced_pass_s"] = statistics.median(plain)
        absent = tracer.absent
    else:
        # per-task medians over the passes, summed: one slow burst of the
        # machine then moves one sample of one task instead of a whole pass
        scaled = [[t * f for t in ts] for ts, f in zip(task_times, speed)]
        metrics = {
            "setup_s": raw_setup_s * setup_speed,
            "solve_s": math.fsum(statistics.median(ts) for ts in zip(*scaled)),
            "task_p50_s": statistics.median(t for ts in scaled for t in ts),
            "peak_rss_mb": peak_rss_mb,
            **quality,
        }
        absent = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    result = {
        "correct": failed == 0 and bool(quality),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    facts = dict(wl.facts, passes=len(plain) + len(traced), traced_passes=len(traced),
                 raw_setup_s=raw_setup_s,
                 raw_solve_s=math.fsum(statistics.median(ts) for ts in zip(*task_times)),
                 speed=[round(f, 4) for f in speed],
                 task_median_s={t.name: round(statistics.median(ts), 4)
                                for t, ts in zip(wl.tasks, zip(*task_times))},
                 tasks_per_pass=len(wl.tasks),
                 setup_repeats=0 if trace else SETUP_REPEATS, absent=absent,
                 failed_frac=failed / attempted if attempted else 0.0)
    return result, facts, messages


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("region", "power",
                                                              "adaptive", "validate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if _import_package() is None:
        print(f"error: fadingcr sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    seed = workloads.input_seed(args.workload, args.seed)
    env = environment(args.seed, seed)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    result, facts, messages = run(args.workload, seed, args.seconds, bool(args.trace))
    print("# run " + json.dumps(facts, sort_keys=True, default=str))
    for msg in messages:
        print(f"# check failed: {msg}")
    print(f"# failed_frac {facts['failed_frac']:.6g} ({result['failed']} of "
          f"{result['attempted']} checked units)")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
