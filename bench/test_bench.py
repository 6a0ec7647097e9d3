"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from fadingcr import optimize  # noqa: E402

END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


@pytest.mark.parametrize("workload", ["region", "power", "adaptive", "validate"])
def test_workload_runs_tiny(workload):
    result, facts, messages = run.run(workload, seed=3, seconds=0.01, trace=False, tiny=True)
    assert messages == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["region", "validate"])
def test_corrupted_output_is_counted(workload):
    result, facts, messages = run.run(workload, seed=3, seconds=0.01, trace=False,
                                      tiny=True, corrupt=True)
    assert not result["correct"]
    assert result["failed"] >= 1 and facts["failed_frac"] > 0
    assert messages


def test_input_pool_leaves_out_known_defects():
    for name, pool in workloads.INPUT_SEEDS.items():
        assert pool and not set(pool) & set(workloads.KNOWN_DEFECTS[name])
        assert workloads.input_seed(name, 850864374) in pool
        assert workloads.input_seed(name, 7) == workloads.input_seed(name, 7)


def test_traced_kernel_counts_repeat():
    first, _, _ = run.run("region", seed=5, seconds=0.01, trace=True, tiny=True)
    second, _, _ = run.run("region", seed=5, seconds=0.01, trace=True, tiny=True)
    assert sorted(first["metrics"]) == sorted(PER_LAYER)
    for key in ("rate_core.kernel_calls", "rate_core.kernel_elems",
                "optimize.dual_solve_calls", "optimize.respond_calls"):
        assert first["metrics"][key]["value"] > 0
        assert first["metrics"][key] == second["metrics"][key]


def test_removed_private_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(optimize, "_dual_solve")
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        metrics = tr.layer_metrics()
    finally:
        tr.uninstall()
    assert tr.absent == ["optimize.dual_solve"]
    assert "optimize.dual_solve_calls" not in metrics
    assert "rate_core.kernel_calls" in metrics


def test_tracer_uninstall_restores_the_package():
    before = optimize.maximize_rate, optimize._rate_kernel
    tr = tracer_mod.Tracer()
    tr.install()
    assert optimize.maximize_rate is not before[0]
    tr.uninstall()
    assert (optimize.maximize_rate, optimize._rate_kernel) == before


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "region",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
