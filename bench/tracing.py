"""Per-layer spans of qsatom, recorded from outside the library.

The layers are qsatom's modules.  ``Tracer.install`` replaces every
public function of those modules, in every layer module that binds it
by name (``reduced_scalars`` is looked up in ``xsection``, ``spectrum``
and ``oracle``, not only in ``model``), with a wrapper that records a
span.  ``restore`` puts the original objects back; no library file is
touched.

Spans stay in memory.  The worker drains them after each CLI call and
folds them into one row per call path, so a run keeps one table however
many spans its calls make.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from typing import NamedTuple

import numpy as np

LAYERS = ("model", "bloch", "xsection", "spectrum", "oracle", "cli")


class Span(NamedTuple):
    name: str        # "<module>.<function>"
    start: float
    end: float
    parent: int      # index of the parent span in the same list, -1 for a root
    run: int         # one run id per CLI call


def _count_points(counters, args, kwargs, result):
    x = kwargs["x"] if "x" in kwargs else args[2]
    counters["spectrum.sigma_inel_x.points"] += int(np.size(x))


def _count_failed_checks(counters, args, kwargs, result):
    counters["oracle.checks_failed"] += sum(not c.passed for c in result)


def _count_not_converged(counters, args, kwargs, result):
    counters["oracle.quad_sum_rules.not_converged"] += int(not result.quad_converged)


# Counters read from a function's arguments or result, at its boundary.
OBSERVERS = {
    "spectrum.sigma_inel_x": _count_points,
    "oracle.run_verification": _count_failed_checks,
    "oracle.quad_sum_rules": _count_not_converged,
}


class Tracer:
    """Records a span around every call of a wrapped function."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.run = 0
        self._stack: list[int] = []
        self._clock = clock
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self._clock
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the slot so children can name it
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.run)
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"qsatom.{layer}") for layer in LAYERS]
        layer_modules = {m.__name__ for m in modules}
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not (inspect.isfunction(obj) and obj.__module__ in layer_modules
                        and not obj.__name__.startswith("_")):
                    continue
                if obj not in wrappers:
                    name = f"{obj.__module__.rpartition('.')[2]}.{obj.__name__}"
                    wrappers[obj] = self.wrap(name, obj)
                setattr(module, attr, wrappers[obj])
                self._patched.append((module, attr, obj))

    def restore(self) -> None:
        for module, attr, obj in self._patched:
            setattr(module, attr, obj)
        self._patched.clear()

    def drain(self) -> tuple[list[Span], Counter]:
        """Hand over the spans and counters recorded so far and start afresh."""
        spans, counters = self.spans[:], self.counters.copy()
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its
    child spans cover (overlapping children are counted once)."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0.0, s.start
        for lo, hi in sorted((spans[j].start, spans[j].end) for j in children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.end - s.start - covered)
    return out


def by_path(spans: list[Span]) -> dict[tuple[str, ...], list]:
    """[calls, total_s, self_s] per call path.  Spans are in the order
    they started, so a parent always precedes its children."""
    selfs = self_times(spans)
    paths: list[tuple[str, ...]] = []
    table: dict[tuple[str, ...], list] = {}
    for s, self_s in zip(spans, selfs):
        path = (paths[s.parent] if s.parent >= 0 else ()) + (s.name,)
        paths.append(path)
        row = table.setdefault(path, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.end - s.start
        row[2] += self_s
    return table


def by_name(table: dict[tuple[str, ...], list]) -> dict[str, dict]:
    """Calls, total and self time per function.  The total counts only
    spans with no enclosing span of the same function, so nothing is
    counted twice."""
    out: dict[str, dict] = {}
    for path, (calls, total_s, self_s) in table.items():
        name = path[-1]
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += calls
        agg["self_s"] += self_s
        if name not in path[:-1]:
            agg["total_s"] += total_s
    return out


# Per-function figures reported by the traced run.
FUNCTION_METRICS = {
    "cli.load_config": ("total_s",),
    "cli.run_xsection_sweep": ("self_s",),
    "cli.run_spectrum_sweep": ("self_s",),
    "cli.format_csv": ("self_s",),
    "cli.format_json": ("self_s",),
    "model.reduced_scalars": ("calls",),
    "xsection.cross_sections": ("calls", "total_s"),
    "xsection.sigma_tot": ("calls", "total_s"),
    "xsection.sigma_el": ("calls", "total_s"),
    "xsection.sigma_inel": ("calls", "total_s"),
    "spectrum.sigma_inel_x": ("calls", "total_s"),
    "spectrum.elastic_line": ("calls", "total_s"),
    "spectrum.mollow_inel_x": ("calls", "total_s"),
    "spectrum.resolvent": ("calls", "total_s"),
    "bloch.evolve": ("calls", "total_s"),
    "bloch.build_drift": ("calls", "total_s"),
    "oracle.spectrum_time_domain": ("calls", "total_s"),
    "oracle.ode_evolve": ("calls", "total_s"),
    "oracle.quad_sum_rules": ("calls", "total_s"),
    "oracle.finite_beam_balance": ("calls", "total_s"),
    "oracle.run_verification": ("calls", "total_s"),
}
UNITS = {"calls": "count", "total_s": "s", "self_s": "s"}
OTHER_METRICS = {
    "model.reduced_scalars.calls_per_point": "calls/point",
    "spectrum.sigma_inel_x.points": "count",
    "cli.output_bytes": "bytes",
    "oracle.checks_failed": "count",
    "oracle.quad_sum_rules.not_converged": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}
PER_LAYER_UNITS = {f"{fn}.{field}": UNITS[field]
                   for fn, fields in FUNCTION_METRICS.items() for field in fields}
PER_LAYER_UNITS.update(OTHER_METRICS)


def call_metrics(table, counters, points: int, output_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced CLI call (trace.* excluded)."""
    names = by_name(table)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out = {f"{fn}.{field}": names.get(fn, zero)[field]
           for fn, fields in FUNCTION_METRICS.items() for field in fields}
    out["model.reduced_scalars.calls_per_point"] = out["model.reduced_scalars.calls"] / points
    for key in ("spectrum.sigma_inel_x.points", "oracle.checks_failed",
                "oracle.quad_sum_rules.not_converged"):
        out[key] = counters.get(key, 0)
    out["cli.output_bytes"] = output_bytes
    return out
