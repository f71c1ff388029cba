"""Spans recorded around fracsubst's public functions, from outside the package.

A traced process creates one :class:`Tracer`, imports fracsubst inside
``tracer.span("import", "fracsubst")`` and calls :func:`install`.  Each
wrapped function is replaced under every name a fracsubst module looks it up
by (``solver.assemble_system``, ``cli.assemble_system``, ...), so callers
reach the wrapper without any change to the package.

Two kinds of wrapper exist:

* span wrappers record ``[id, layer, name, start, end, parent, run]`` for
  every call (functions called at most a few thousand times per process);
* hot wrappers (``Expression.__call__`` and ``stencils.node_weights``, called
  up to millions of times) only add to a call count and a total time, and
  charge that time to the innermost open span so its self time stays right.

Spans stay in memory and are written out once, by :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

START, END, PARENT = 3, 4, 5  # positions inside a span record
ROOT = -1  # cover key for hot calls made outside every span

# values combined by min or max instead of by sum
MIN_VALUES = {"solver.pivot_min", "conditioning.delta"}
MAX_VALUES = {"import.scipy_loaded", "import.modules"}


def _combine(key: str, old: float, new: float) -> float:
    if key in MIN_VALUES:
        return min(old, new)
    if key in MAX_VALUES:
        return max(old, new)
    return old + new


class Tracer:
    """Spans, hot-call tallies and result values of one traced process."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.cover: dict[int, float] = defaultdict(float)
        self.hot: dict[str, list] = {}
        self.values: dict[str, float] = {}
        self.items: list[list] = []
        self._hot_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, layer: str, name: str):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        record = [sid, layer, name, time.perf_counter(), None, parent, self.run_id]
        self.spans.append(record)
        self.stack.append(sid)
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self.stack.pop()

    def add(self, key: str, value: float) -> None:
        self.values[key] = _combine(key, self.values[key], value) if key in self.values else value

    def wrap(self, layer, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            with self.span(layer, name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def wrap_hot(self, key, fn):
        tally = self.hot.setdefault(key, [0, 0.0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            outer = self._hot_depth == 0
            self._hot_depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self._hot_depth -= 1
                tally[0] += 1
                tally[1] += elapsed
                if outer:
                    self.cover[self.stack[-1] if self.stack else ROOT] += elapsed

        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        return {
            "run": self.run_id,
            "spans": self.spans,
            "cover": {str(k): v for k, v in self.cover.items()},
            "hot": self.hot,
            "values": self.values,
            "items": self.items,
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.dump(), fh)


# ---------------------------------------------------------------------------
# installing the wrappers


def _on_assembled(tracer, args, rows):
    tracer.add("assembly.rows", len(rows))
    tracer.add("assembly.coef_bytes", sum(row.d.nbytes for row in rows))


def _on_eliminated(tracer, args, result):
    tracer.add("solver.madds", sum(row.m for row in args[0]))


def _on_solved(tracer, args, result):
    tracer.add("solver.pivot_min", float(result.pivot_min))
    tracer.add("conditioning.delta", float(result.report.delta))
    tracer.add("assembly.degraded_rows", len(result.degraded_rows))


def _on_checked(tracer, args, report):
    tracer.add("conditioning.rows_checked", int(report.rows.size))


# (layer, span name, defining module, function, result hook)
SPAN_TARGETS = (
    ("cli", "parse_config", "fracsubst.cli", "parse_config", None),
    ("cli", "build_problem", "fracsubst.cli", "build_problem", None),
    ("expr", "parse", "fracsubst.expr", "parse", None),
    ("caputo", "sampled", "fracsubst.caputo", "caputo_substitution_sampled", None),
    ("caputo", "exact", "fracsubst.caputo", "caputo_substitution", None),
    ("assembly", "assemble_system", "fracsubst.assembly", "assemble_system", _on_assembled),
    ("solver", "solve", "fracsubst.solver", "solve", _on_solved),
    ("solver", "calibrate", "fracsubst.solver", "calibrate", None),
    ("solver", "eliminate", "fracsubst.solver", "eliminate", _on_eliminated),
    ("conditioning", "check", "fracsubst.conditioning", "check", _on_checked),
)

HOT_TARGETS = (("stencils.node_weights", "fracsubst.stencils", "node_weights"),)


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n == "fracsubst" or n.startswith("fracsubst.")]


def _replace_everywhere(tracer, original, wrapper) -> None:
    """Patch every fracsubst module attribute that is bound to ``original``."""
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                tracer.patch(module, attr, wrapper)


def install(tracer: Tracer) -> list:
    """Wrap the layer functions of an already imported fracsubst.

    Functions missing from this version of the package are skipped, so their
    metrics read 0.  Returns the stencil functions that carry a
    ``cache_info``, captured before wrapping.
    """
    modules = {m.__name__: m for m in _package_modules()}
    stencils = modules.get("fracsubst.stencils")
    cached = [f for f in vars(stencils).values() if hasattr(f, "cache_info")] if stencils else []
    for layer, name, module, attr, hook in SPAN_TARGETS:
        original = getattr(modules.get(module), attr, None)
        if original is not None:
            _replace_everywhere(tracer, original, tracer.wrap(layer, name, original, hook))
    for key, module, attr in HOT_TARGETS:
        original = getattr(modules.get(module), attr, None)
        if original is not None:
            _replace_everywhere(tracer, original, tracer.wrap_hot(key, original))
    expr = modules.get("fracsubst.expr")
    if expr is not None:
        tracer.patch(expr.Expression, "__call__", tracer.wrap_hot("expr.eval", expr.Expression.__call__))
    caputo = modules.get("fracsubst.caputo")
    if caputo is not None:
        init = caputo.Grid.__init__

        def counted_init(grid, *args, **kwargs):
            tracer.add("caputo.grid_builds", 1)
            init(grid, *args, **kwargs)

        tracer.patch(caputo.Grid, "__init__", counted_init)
    return cached


def record_cache_info(tracer: Tracer, cached: list) -> None:
    tracer.add("stencils.cache_hits", sum(f.cache_info().hits for f in cached))
    tracer.add("stencils.cache_misses", sum(f.cache_info().misses for f in cached))


# ---------------------------------------------------------------------------
# analysis


def _union_length(intervals) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans, cover) -> dict[int, float]:
    """Span id -> duration minus the time its child spans and hot calls cover.

    Child intervals are clipped to the parent and merged, so overlapping
    children are not subtracted twice.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            parent = by_id[s[PARENT]]
            children[s[PARENT]].append((max(s[START], parent[START]), min(s[END], parent[END])))
    return {
        sid: (s[END] - s[START]) - _union_length(children[sid]) - cover.get(sid, 0.0)
        for sid, s in by_id.items()
    }


def process_metrics(dump: dict) -> dict[str, float]:
    """Per-layer totals of one traced process.

    ``<layer>.<name>_s`` sums the durations of a function's outermost calls,
    ``<layer>.<name>_calls`` counts all calls, ``<layer>.self_s`` sums the
    self time of the layer's spans and hot calls.  ``trace.covered_s`` is the
    time covered by spans and hot calls at the top level.
    """
    spans = dump["spans"]
    cover = {int(k): v for k, v in dump["cover"].items()}
    selfs = self_times(spans, cover)
    by_id = {s[0]: s for s in spans}
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        sid, layer, name = s[0], s[1], s[2]
        out[f"{layer}.{name}_calls"] += 1
        out[f"{layer}.self_s"] += selfs[sid]
        ancestor, nested = s[PARENT], False
        while ancestor is not None:
            a = by_id[ancestor]
            if a[1] == layer and a[2] == name:
                nested = True
                break
            ancestor = a[PARENT]
        if not nested:
            out[f"{layer}.{name}_s"] += s[END] - s[START]
        if s[PARENT] is None:
            out["trace.covered_s"] += s[END] - s[START]
        if (layer, name) == ("cli", "main"):
            out["cli.main_self_s"] += selfs[sid]
    for key, (calls, seconds) in dump["hot"].items():
        out[f"{key}_calls"] += calls
        out[f"{key}_s"] += seconds
        out[f"{key.split('.')[0]}.self_s"] += seconds
    out["trace.covered_s"] += cover.get(ROOT, 0.0)
    out.update(dump["values"])
    return dict(out)


def merge(parts: list[dict]) -> dict[str, float]:
    """Combine the metrics of the processes of one pass."""
    out: dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            out[key] = _combine(key, out[key], value) if key in out else value
    return out


def item_span_seconds(dump: dict, item: str, layer: str, name: str) -> float:
    """Total duration of ``layer.name`` spans that ran inside benchmark item ``item``."""
    total = 0.0
    for label, t0, t1 in dump["items"]:
        if label == item:
            total += sum(
                s[END] - s[START]
                for s in dump["spans"]
                if s[1] == layer and s[2] == name and t0 <= s[START] and s[END] <= t1
            )
    return total
