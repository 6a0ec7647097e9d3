"""In-memory tracing of the calls into each fadingcr module.

The tracer replaces module attributes of the loaded ``fadingcr`` package with
wrappers and puts the originals back on ``uninstall``. Public calls get a span
(name, start, end, parent); the hot private helpers get counters and
accumulated time only, because ``min_power`` calls the rate kernel up to
~4e5 times. A wrapped name that the package no longer defines is recorded in
``absent`` and its metrics are left out of the report instead of failing.

Self time of a span is its duration minus the time of the spans and timed
counters directly beneath it, so the self times of a traced pass add up to
the traced wall time minus the untraced glue.
"""

from __future__ import annotations

import logging
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

#: (metric prefix, module, attribute) of every public call that gets a span.
SPANNED = (
    ("rate_core.rate_per_state", "rate_core", "rate_per_state"),
    ("ergodic.make_rule", "ergodic", "make_rule"),
    ("optimize.maximize_rate", "optimize", "maximize_rate"),
    ("optimize.rd_frontier", "optimize", "rd_frontier"),
    ("optimize.min_power", "optimize", "min_power"),
    ("optimize.power_curve", "optimize", "power_distortion_curve"),
    ("gaussian_oracle.gp_rate_oracle", "gaussian_oracle", "gp_rate_oracle"),
    ("gaussian_oracle.schur", "gaussian_oracle", "schur_conditional_variance"),
    ("gaussian_oracle.mc_estimate", "gaussian_oracle", "mc_estimate"),
    ("validation.run_validation", "validation", "run_validation"),
    ("cli.main", "cli", "main"),
)

#: Logger whose pseudo-inverse fallback messages are counted.
ORACLE_LOGGER = "fadingcr.gaussian_oracle"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None


class _Frame:
    """An open span: its id and the time its children have used so far."""

    __slots__ = ("id", "child")

    def __init__(self, id_: int) -> None:
        self.id, self.child = id_, 0.0


class _PinvCounter(logging.Handler):
    def __init__(self, tracer: "Tracer") -> None:
        super().__init__(logging.INFO)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if "pseudo-inverse" in record.getMessage():
            self.tracer.count["gaussian_oracle.pinv_fallbacks"] += 1


class Tracer:
    """Spans and counters for one process; install once, reset per pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.count: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self._handler: _PinvCounter | None = None
        self._logger_level = logging.NOTSET

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for metric, mod, attr in SPANNED:
            self._patch(mod, attr, lambda fn, m=metric: self._spanned(m, fn),
                        metric=metric)
        # only the optimizer's binding of the kernel: rate_per_state and the
        # converse rate call it through rate_core and are counted separately
        self._patch("optimize", "_rate_kernel", self._kernel, everywhere=False,
                    metric="rate_core.kernel")
        self._patch("optimize", "_dual_solve", self._dual_solve, everywhere=False,
                    metric="optimize.dual_solve")
        logger = logging.getLogger(ORACLE_LOGGER)
        self._logger_level = logger.level
        self._handler = _PinvCounter(self)
        logger.addHandler(self._handler)
        logger.setLevel(logging.INFO)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()
        if self._handler is not None:
            logger = logging.getLogger(ORACLE_LOGGER)
            logger.removeHandler(self._handler)
            logger.setLevel(self._logger_level)
            self._handler = None

    def _patch(self, mod: str, attr: str, make, everywhere: bool = True,
               metric: str = "") -> None:
        module = sys.modules.get(f"fadingcr.{mod}")
        orig = getattr(module, attr, None) if module is not None else None
        if orig is None:
            self.absent.append(metric)
            return
        wrapper = make(orig)
        # a name imported with "from .x import f" is a separate binding in
        # each importing module; rebind all of them to the same wrapper
        owners = [module]
        if everywhere:
            owners = [m for name, m in list(sys.modules.items())
                      if (name == "fadingcr" or name.startswith("fadingcr."))
                      and getattr(m, attr, None) is orig]
        for owner in owners:
            self._patched.append((owner, attr, orig))
            setattr(owner, attr, wrapper)

    def reset(self) -> None:
        self.spans.clear()
        self.count.clear()
        self.self_s.clear()

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, metric: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            frame = _Frame(tracer._next_id)
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                dur = end - start
                tracer.spans.append(Span(frame.id, metric, start, end,
                                         parent.id if parent else None))
                tracer.count[metric + "_calls"] += 1
                tracer.self_s[metric] += dur - frame.child
                if parent is not None:
                    parent.child += dur
            if metric == "optimize.maximize_rate" and getattr(result, "warnings", ()):
                tracer.count["optimize.gap_warnings"] += 1
            elif metric == "gaussian_oracle.mc_estimate":
                tracer.count["gaussian_oracle.mc_samples"] += kwargs.get(
                    "n", args[4] if len(args) > 4 else 0)
            return result

        return wrapper

    def _kernel(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            dur = time.perf_counter() - start
            tracer.count["rate_core.kernel_calls"] += 1
            tracer.count["rate_core.kernel_elems"] += np.size(result)
            tracer.self_s["rate_core.kernel"] += dur
            if tracer._stack:
                tracer._stack[-1].child += dur
            return result

        return wrapper

    def _dual_solve(self, fn):
        tracer = self

        def counted_respond(respond):
            def inner(lam):
                tracer.count["optimize.respond_calls"] += 1
                return respond(lam)
            return inner

        def wrapper(respond, *args, **kwargs):
            tracer.count["optimize.dual_solve_calls"] += 1
            return fn(counted_respond(respond), *args, **kwargs)

        return wrapper

    # -- report -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        c, s = self.count, self.self_s
        out = {
            "rate_core.kernel_calls": c["rate_core.kernel_calls"],
            "rate_core.kernel_elems": c["rate_core.kernel_elems"],
            "rate_core.elems_per_call": _ratio(c["rate_core.kernel_elems"],
                                               c["rate_core.kernel_calls"]),
            "rate_core.kernel_s": s["rate_core.kernel"],
            "rate_core.rate_per_state_calls": c["rate_core.rate_per_state_calls"],
            "rate_core.rate_per_state_s": s["rate_core.rate_per_state"],
            "ergodic.make_rule_calls": c["ergodic.make_rule_calls"],
            "ergodic.make_rule_s": s["ergodic.make_rule"],
            "optimize.maximize_rate_calls": c["optimize.maximize_rate_calls"],
            "optimize.maximize_rate_s": s["optimize.maximize_rate"],
            "optimize.dual_solve_calls": c["optimize.dual_solve_calls"],
            "optimize.respond_calls": c["optimize.respond_calls"],
            "optimize.dual_solves_per_solve": _ratio(c["optimize.dual_solve_calls"],
                                                     c["optimize.maximize_rate_calls"]),
            "optimize.rd_frontier_s": s["optimize.rd_frontier"],
            "optimize.min_power_calls": c["optimize.min_power_calls"],
            "optimize.min_power_s": s["optimize.min_power"],
            "optimize.power_curve_s": s["optimize.power_curve"],
            "optimize.solves_per_min_power": _ratio(c["optimize.maximize_rate_calls"],
                                                    c["optimize.min_power_calls"]),
            "optimize.gap_warnings": c["optimize.gap_warnings"],
            "gaussian_oracle.gp_rate_oracle_calls": c["gaussian_oracle.gp_rate_oracle_calls"],
            "gaussian_oracle.gp_rate_oracle_s": s["gaussian_oracle.gp_rate_oracle"],
            "gaussian_oracle.schur_calls": c["gaussian_oracle.schur_calls"],
            "gaussian_oracle.schur_s": s["gaussian_oracle.schur"],
            "gaussian_oracle.mc_estimate_s": s["gaussian_oracle.mc_estimate"],
            "gaussian_oracle.mc_samples": c["gaussian_oracle.mc_samples"],
            "gaussian_oracle.pinv_fallbacks": c["gaussian_oracle.pinv_fallbacks"],
            "validation.run_validation_s": s["validation.run_validation"],
            "cli.main_s": s["cli.main"],
            "trace.spans": float(len(self.spans)),
        }
        gone = {"rate_core.kernel": ("rate_core.kernel_calls", "rate_core.kernel_elems",
                                     "rate_core.elems_per_call", "rate_core.kernel_s"),
                "optimize.dual_solve": ("optimize.dual_solve_calls", "optimize.respond_calls",
                                        "optimize.dual_solves_per_solve")}
        for metric in self.absent:
            for key in gone.get(metric, (metric + "_calls", metric + "_s")):
                out.pop(key, None)
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
