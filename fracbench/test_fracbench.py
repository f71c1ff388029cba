"""Tests of the benchmark's own logic: spans, checks, item order and metrics.

Run with ``python3 -m pytest fracbench/test_fracbench.py``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
CONFIG = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def span(sid, layer, name, start, end, parent):
    return [sid, layer, name, start, end, parent, 0]


def test_self_time_on_synthetic_tree():
    tree = [
        span(0, "solver", "solve", 0.0, 10.0, None),
        span(1, "assembly", "assemble_system", 1.0, 4.0, 0),
        span(2, "conditioning", "check", 3.0, 6.0, 0),  # overlaps its sibling
        span(3, "expr", "parse", 1.5, 2.0, 1),
        span(4, "solver", "solve", 7.0, 8.0, 0),  # nested call of the same function
    ]
    cover = {0: 0.5, spans.ROOT: 0.25}  # hot calls directly under span 0 and outside spans
    selfs = spans.self_times(tree, cover)
    assert selfs == pytest.approx({0: 10 - 5 - 1 - 0.5, 1: 2.5, 2: 3.0, 3: 0.5, 4: 1.0})

    dump = {"spans": tree, "cover": {str(k): v for k, v in cover.items()},
            "hot": {"expr.eval": [7, 0.5]}, "values": {"solver.madds": 12}, "items": []}
    m = spans.process_metrics(dump)
    assert m["solver.solve_s"] == pytest.approx(10.0)  # the nested call is not counted twice
    assert m["solver.solve_calls"] == 2
    assert m["solver.self_s"] == pytest.approx(3.5 + 1.0)
    assert m["expr.self_s"] == pytest.approx(0.5 + 0.5)
    assert m["expr.eval_calls"] == 7
    assert m["trace.covered_s"] == pytest.approx(10.25)
    assert m["solver.madds"] == 12


def test_tracer_charges_hot_calls_to_the_open_span():
    tracer = spans.Tracer(3)
    leaf = tracer.wrap_hot("stencils.node_weights", lambda x: x + 1)
    outer = tracer.wrap("caputo", "sampled", lambda: leaf(leaf(1)))
    assert outer() == 3
    assert tracer.hot["stencils.node_weights"][0] == 2
    assert [s[1:3] for s in tracer.spans] == [["caputo", "sampled"]]
    assert tracer.spans[0][6] == 3
    assert tracer.cover[0] == pytest.approx(tracer.hot["stencils.node_weights"][1])
    selfs = spans.self_times(tracer.spans, tracer.cover)
    assert 0 <= selfs[0] <= tracer.spans[0][4] - tracer.spans[0][3]


def test_wrappers_count_a_small_solve():
    fs = pytest.importorskip("fracsubst")
    originals = (fs.solve, fs.solver.assemble_system, fs.expr.Expression.__call__)

    def traced_counts():
        tracer = spans.Tracer(0)
        cached = spans.install(tracer)
        try:
            problem = wl.build_problem(fs, "relaxation")
            result = fs.solve(problem, 0.125, 16)
        finally:
            tracer.uninstall()
        spans.record_cache_info(tracer, cached)
        m = spans.process_metrics(tracer.dump())
        return m, result

    m, result = traced_counts()
    rows = 16 - 1  # rows m = 2..16 of an order-2 problem
    assert m["solver.solve_calls"] == 1 and m["assembly.assemble_system_calls"] == 1
    assert m["assembly.rows"] == rows == m["conditioning.rows_checked"]
    assert m["assembly.coef_bytes"] == 8 * sum(k + 1 for k in range(2, 17))
    assert m["solver.madds"] == sum(range(2, 17))
    assert m["solver.pivot_min"] == result.pivot_min
    assert m["conditioning.delta"] == result.report.delta
    assert m["expr.parse_calls"] == 1 and m["expr.eval_calls"] > 0
    assert m["stencils.node_weights_calls"] > 0
    assert m["solver.solve_s"] >= m["assembly.assemble_system_s"] > 0
    assert (fs.solve, fs.solver.assemble_system, fs.expr.Expression.__call__) == originals
    again, _ = traced_counts()
    counts = [k for k in m if not k.endswith("_s")]
    assert {k: again[k] for k in counts if not k.startswith("stencils.cache")} == {
        k: m[k] for k in counts if not k.startswith("stencils.cache")}


def _table(item, values):
    ts = np.arange(item.first_node, item.rows + 1) * (item.t_end / item.rows)
    return ts, np.full(ts.size, values) if np.isscalar(values) else values


def _exact(item, ts):
    return np.ones_like(ts)


def test_failures_are_counted():
    fig2 = wl.ITEMS_BY_NAME["fig2"]
    ts, ys = _table(fig2, 1.0)
    for t, pin in fig2.pins:
        ys[np.argmin(np.abs(ts - t))] = pin
    assert wl.judge(fig2, 0, "", ts, ys).ok
    wrong = ys.copy()
    wrong[np.argmin(np.abs(ts - 2.5))] *= 1 + 1e-8
    assert "pin miss" in wl.judge(fig2, 0, "", ts, wrong).reason

    item = wl.ITEMS_BY_NAME["expr-0.8"]
    ts, ys = _table(item, 1.0)
    assert wl.judge(item, 0, "", ts, ys, ref=_exact).ok
    assert not wl.judge(item, 1, "", ts, ys, ref=_exact).ok
    assert not wl.judge(item, 0, "Traceback (most recent call last):\n", ts, ys, ref=_exact).ok
    nan_row = ys.copy()
    nan_row[5] = math.nan
    assert wl.judge(item, 0, "", ts, nan_row, ref=_exact).reason == "non-finite output"
    assert "oracle miss" in wl.judge(item, 0, "", ts, ys * 1.01, ref=_exact).reason
    assert not wl.judge(item, 0, "", ts[:-1], ys[:-1], ref=_exact).ok

    probe = wl.ITEMS_BY_NAME["overflow-probe"]
    assert not wl.judge(probe, 0, "", *_table(probe, math.inf)).ok
    assert wl.judge(probe, 2, "numerical failure: ...", None, None).ok


def test_seed_fixes_the_item_order():
    for workload in wl.WORKLOADS:
        orders = {tuple(i.name for i in wl.item_order(workload, 7, 0)) for _ in range(3)}
        assert len(orders) == 1
        names = {tuple(i.name for i in wl.item_order(workload, s, 0)) for s in range(20)}
        assert len(names) > 1
        assert sorted(next(iter(orders))) == sorted(i.name for i in wl.ITEMS[workload])


def test_every_workload_reports_every_end_to_end_metric():
    names = {m["name"] for m in CONFIG["end_to_end"]}
    assert {"wall_s", "setup_s", "solve_rows_per_s", "peak_rss_mb", "max_err", "ok_frac"} == names
    for workload in wl.WORKLOADS:
        outcomes = [(item, wl.Outcome(not item.probe, err=None if item.probe else 1e-3), 0.5)
                    for item in wl.ITEMS[workload]]
        passes = [{"wall_s": 2.0 + k, "peak_rss_mb": 90.0, "outcomes": outcomes} for k in range(3)]
        values = run.end_to_end(passes, [0.5, 0.7, 0.6])
        assert set(values) == names
        assert all(v > 0 for v in values.values()), workload
        assert values["wall_s"] == 3.0 and values["setup_s"] == 0.6
        assert values["max_err"] == 1e-3
        # a last, incomplete pass adds samples but leaves the figures unbiased
        partial = {"wall_s": 0.5, "peak_rss_mb": 10.0, "outcomes": outcomes[:1], "complete": False}
        assert run.end_to_end([*passes, partial], [0.5, 0.7, 0.6]) == values


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *CONFIG["command"][1:], "--workload", "figs-cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
