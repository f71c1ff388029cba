"""The processes the benchmark starts, one per set-up probe, pass or CLI call.

    python3 fracbench/worker.py setup WORKLOAD
    python3 fracbench/worker.py ladder SPEC.json
    python3 fracbench/worker.py cli TRACE.json RUN_ID ARGS...

``setup`` imports fracsubst and builds the workload's problems, then exits:
its wall time is what a call pays before any numerical work.  ``ladder``
runs the solve-ladder items of one pass and prints their call times as JSON;
given a deadline, it skips the items whose last time would overrun it.
``cli`` is the traced stand-in for ``python3 -m fracsubst.cli ARGS``: it
installs the span wrappers, calls ``fracsubst.cli.main`` and writes the
spans to TRACE.json.  Run from the checkout root with ``PYTHONPATH=src``.

Only the standard library is imported before fracsubst, so a traced import
span covers numpy too.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import traceback
from pathlib import Path

import spans


def setup(workload: str) -> None:
    importlib.import_module("fracsubst" if workload == "solve-ladder" else "fracsubst.cli")
    import fracsubst
    import workloads

    if workload == "solve-ladder":
        for name in ("relaxation", "bessel"):
            workloads.build_problem(fracsubst, name)
        return
    for item in workloads.ITEMS[workload]:
        if item.argv[0] == "solve":
            text = Path(item.argv[2]).read_text()
            fracsubst.cli.build_problem(fracsubst.cli.parse_config(text))
        else:
            fracsubst.expr.parse(item.argv[4])


def _traced_import(run_id: int, module: str):
    tracer = spans.Tracer(run_id)
    before = len(sys.modules)
    with tracer.span("import", "fracsubst"):
        importlib.import_module(module)
    tracer.add("import.modules", len(sys.modules) - before)
    tracer.add("import.scipy_loaded", int("scipy" in sys.modules))
    return tracer, spans.install(tracer)


def ladder(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    tracer = None
    if spec["trace"]:
        tracer, cached = _traced_import(spec["run"], "fracsubst")
    import fracsubst
    import numpy as np
    import workloads as wl

    problems = {name: wl.build_problem(fracsubst, name) for name in ("relaxation", "bessel")}
    out = Path(spec["out"])
    results, skipped = [], []
    deadline = spec["deadline"]
    for name in spec["items"]:
        if deadline is not None and time.monotonic() + spec["last"][name] > deadline:
            skipped.append(name)
            continue
        item = wl.ITEMS_BY_NAME[name]
        h = item.t_end / item.rows
        error = None
        t0 = time.perf_counter()
        try:
            if item.problem == "bessel":
                reference = (wl.BESSEL_T_STAR, wl.BESSEL_U_STAR)
                result = fracsubst.calibrate(problems["bessel"], wl.BESSEL_EPS, reference, h, item.rows)
            else:
                result = fracsubst.solve(problems[item.problem], h, item.rows)
            seconds = time.perf_counter() - t0
            np.save(out / f"{name}.npy", np.asarray(result.y, dtype=float))
        except Exception:  # a failed item is recorded; the pass goes on
            seconds = time.perf_counter() - t0
            error = traceback.format_exc()
        result = None
        if tracer is not None:
            tracer.items.append([name, t0, t0 + seconds])
        results.append({"name": name, "seconds": seconds, "error": error})
    if tracer is not None:
        spans.record_cache_info(tracer, cached)
        tracer.write(spec["trace"])
    print(json.dumps({"items": results, "skipped": skipped}))


def cli(trace_path: str, run_id: str, argv: list[str]) -> int:
    tracer, cached = _traced_import(int(run_id), "fracsubst.cli")
    import fracsubst.cli

    try:
        with tracer.span("cli", "main"):
            return fracsubst.cli.main(argv)
    finally:
        spans.record_cache_info(tracer, cached)
        tracer.write(trace_path)


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup(rest[0])
    elif mode == "ladder":
        ladder(rest[0])
    elif mode == "cli":
        sys.exit(cli(rest[0], rest[1], rest[2:]))
    else:
        sys.exit(f"unknown mode {mode!r}")
