"""Benchmark of the fracsubst solvers, run from the root of a checkout:

    python3 fracbench/run.py --workload figs-cli --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py): figs-cli, solve-ladder, deriv-cli.  Load is a
closed loop with one client: one process runs at a time, items one after
another.  A pass runs every item of the workload once, in an order shuffled
by the seed; passes repeat until the next one would overrun ``--seconds``
(at least two without tracing), and an untraced run fills the time left
with the items that still fit.  Each pass runs in fresh processes, so its
peak RSS is its own.  BLAS and OpenMP are pinned to one thread.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, with no
wrapper installed.  Times are means over every item the run made, because
the host's speed drifts over tens of seconds and a mean over the whole run
follows that drift less than a median over its few passes:

* wall_s: one pass, including every process start and import it pays: the
  items' mean times plus the mean time a complete pass spends outside them;
* setup_s: a fresh process that imports fracsubst and builds the workload's
  problems, then exits (two probes before each pass); the median probe;
* solve_rows_per_s: grid rows of one pass's passing items over the sum of
  their mean times, each library call (solve-ladder) or CLI process
  (figs-cli, deriv-cli) timed from outside;
* peak_rss_mb: the largest peak RSS of any process of a complete pass; the
  median pass;
* max_err: largest relative max-norm error against the oracles, probes
  excluded; the median complete pass;
* ok_frac: passing items over items run in the complete passes, probes
  included (1 - fail_frac).

Probe items reproduce known defects; they count in ok_frac and in the
printed fail_frac, not in the result's ``attempted``/``failed``/``correct``,
which cover the workload's real items.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of BENCHMARK.json from the traced ones (spans.py): times
are per pass, summed over its processes; a metric of a layer the workload
never reaches reads 0.  Traced times are never end-to-end numbers.

Outputs are checked after each pass, outside every timing.  Scratch files
and one result file per run, with the environment record, go to
``.fracbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

import numpy as np

import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES_PER_PASS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    # bytecode is cached next to the sources, as for an installed package
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    return env


class Runner:
    """Starts the processes of a run, one at a time, and times them."""

    def __init__(self, root: Path, workload: str):
        self.root = root
        self.workload = workload
        self.env = child_env(root)
        self.tmp = root / ".fracbench" / "tmp"
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp.mkdir(parents=True)

    def spawn(self, cmd: list[str]) -> tuple[int, float, float, str, str]:
        """Run ``cmd`` to completion: exit code, wall seconds, peak RSS in MB,
        stdout, stderr."""
        out_path, err_path = self.tmp / "stdout.txt", self.tmp / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.root, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
                out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))

    def setup_probe(self) -> float:
        code, wall, _, _, err = self.spawn([sys.executable, str(WORKER), "setup", self.workload])
        if code != 0:
            raise SystemExit(f"set-up probe failed with exit code {code}:\n{err}")
        return wall

    def run_pass(self, items: list[wl.Item], index: int, traced: bool,
                 deadline: float | None = None, last: dict[str, float] | None = None) -> dict:
        """Run every item once; outputs are left for :func:`check_pass`.

        With a ``deadline``, a pass skips every item whose ``last`` time would
        overrun it, and is then marked incomplete.
        """
        def trace(tag):
            return str(self.tmp / f"trace-{index}-{tag}.json")

        if self.workload == "solve-ladder":
            return self._ladder_pass(items, index, trace("ladder") if traced else None, deadline, last)
        record = {"wall_s": 0.0, "peak_rss_mb": 0.0, "items": [], "traces": [], "complete": True}
        t0 = time.perf_counter()
        for item in items:
            if deadline is not None and time.perf_counter() + last[item.name] > deadline:
                record["complete"] = False
                continue
            out = self.tmp / f"{item.name}.csv"
            out.unlink(missing_ok=True)
            argv = [*item.argv, "--out", str(out.relative_to(self.root))]
            if traced:
                path = trace(item.name)
                record["traces"].append(path)
                cmd = [sys.executable, str(WORKER), "cli", path, str(index), *argv]
            else:
                cmd = [sys.executable, "-m", "fracsubst.cli", *argv]
            code, wall, rss, _, err = self.spawn(cmd)
            record["peak_rss_mb"] = max(record["peak_rss_mb"], rss)
            record["items"].append({"item": item, "code": code, "stderr": err, "seconds": wall, "out": out})
        record["wall_s"] = time.perf_counter() - t0
        return record

    def _ladder_pass(self, items: list[wl.Item], index: int, trace: str | None,
                     deadline: float | None, last: dict[str, float] | None) -> dict:
        for item in items:
            (self.tmp / f"{item.name}.npy").unlink(missing_ok=True)
        spec = self.tmp / "ladder.json"
        if deadline is not None:  # the worker reads the system-wide monotonic clock
            deadline = time.monotonic() + (deadline - time.perf_counter())
        spec.write_text(json.dumps({"items": [i.name for i in items], "out": str(self.tmp),
                                    "trace": trace, "run": index, "deadline": deadline, "last": last}))
        code, wall, rss, out, err = self.spawn([sys.executable, str(WORKER), "ladder", str(spec)])
        try:
            report = json.loads(out.strip().splitlines()[-1])
            done, skipped = {r["name"]: r for r in report["items"]}, set(report["skipped"])
        except (IndexError, ValueError, KeyError):
            done, skipped = {}, set()
        record = {"wall_s": wall, "peak_rss_mb": rss, "items": [], "traces": [trace] if trace else [],
                  "complete": not skipped}
        for item in (i for i in items if i.name not in skipped):
            r = done.get(item.name)
            entry = {"item": item, "code": code, "stderr": err, "seconds": 0.0, "out": None}
            if r is not None:
                entry.update(seconds=r["seconds"], stderr=r["error"] or "", code=1 if r["error"] else 0,
                             out=self.tmp / f"{item.name}.npy")
            record["items"].append(entry)
        return record


def check_pass(record: dict) -> dict:
    """Judge every item of a finished pass; adds ``outcomes`` and ``check_s``."""
    t0 = time.perf_counter()
    outcomes = []
    for entry in record["items"]:
        item, out = entry["item"], entry["out"]
        if out is not None and out.suffix == ".npy":
            ys = np.load(out) if out.exists() else None
            ts = None if ys is None else np.arange(ys.size) * (item.t_end / item.rows)
        else:
            ts, ys = wl.read_table(out) if out is not None else (None, None)
        outcomes.append((item, wl.judge(item, entry["code"], entry["stderr"], ts, ys), entry["seconds"]))
    record["outcomes"] = outcomes
    record["check_s"] = time.perf_counter() - t0
    return record


def end_to_end(passes: list[dict], setup: list[float]) -> dict[str, float]:
    """The end-to-end metrics of a run, as the module docstring defines them."""
    complete = [p for p in passes if p.get("complete", True)]
    runs, solved = defaultdict(list), defaultdict(list)
    for p in passes:
        for item, o, s in p["outcomes"]:
            runs[item.name].append(s)
            if o.ok and not item.probe:
                solved[item].append(s)
    outside = statistics.fmean(p["wall_s"] - sum(s for _, _, s in p["outcomes"]) for p in complete)
    seconds = sum(statistics.fmean(s) for s in solved.values())
    errs = [max((o.err for item, o, _ in p["outcomes"] if o.err is not None and not item.probe),
                default=0.0) for p in complete]
    outcomes = [o for p in complete for _, o, _ in p["outcomes"]]
    return {
        "wall_s": sum(statistics.fmean(s) for s in runs.values()) + outside,
        "setup_s": statistics.median(setup),
        "solve_rows_per_s": sum(item.rows for item in solved) / seconds if seconds > 0 else 0.0,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in complete),
        "max_err": statistics.median(errs),
        "ok_frac": sum(o.ok for o in outcomes) / len(outcomes),
    }


def _growth(dump: dict, layer: str, name: str) -> float:
    """log2 of the time ratio of the relaxation ladder's top two rungs."""
    top = spans.item_span_seconds(dump, "relaxation-8192", layer, name)
    below = spans.item_span_seconds(dump, "relaxation-4096", layer, name)
    return math.log2(top / below) if top > 0 and below > 0 else 0.0


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Medians over the traced passes of the per-layer metrics."""
    per_pass = []
    for p in traced:
        dumps = [json.loads(Path(t).read_text()) for t in p["traces"] if Path(t).exists()]
        m = spans.merge([spans.process_metrics(d) for d in dumps])
        m["trace.coverage"] = m.get("trace.covered_s", 0.0) / p["wall_s"]
        m["cli.out_bytes"] = sum(e["out"].stat().st_size for e in p["items"]
                                 if e["out"] is not None and e["out"].suffix == ".csv" and e["out"].exists())
        if dumps:
            m["assembly.growth"] = _growth(dumps[0], "assembly", "assemble_system")
            m["solver.growth"] = _growth(dumps[0], "solver", "solve")
        per_pass.append(m)
    keys = {k for m in per_pass for k in m}
    out = {k: statistics.median(m.get(k, 0.0) for m in per_pass) for k in keys}
    out["trace.overhead"] = (statistics.median(p["wall_s"] for p in traced)
                             / statistics.median(p["wall_s"] for p in plain))
    out["oracles.check_s"] = statistics.median(p["check_s"] for p in plain + traced)
    return out


def environment(root: Path) -> dict:
    def read(path, pick=lambda text: text.strip()):
        try:
            return pick(Path(path).read_text())
        except (OSError, StopIteration):
            return None

    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    env = child_env(root)
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": read("/proc/cpuinfo", lambda text: next(
            line.split(":", 1)[1].strip() for line in text.splitlines() if line.startswith("model name"))),
        "l3_cache": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit,
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def measure(runner: Runner, seed: int, seconds: float, trace: bool) -> tuple[list, list, list]:
    """Repeat passes until the next would overrun ``seconds``; untraced runs
    make at least two, so that no figure rests on a single pass.

    Untraced runs then fill the time left with a last pass that runs only the
    items that still fit; the metrics take means per item, so the items it
    leaves out do not bias them.

    Returns the untraced passes, the traced passes and the set-up times.
    """
    plain, traced, setup = [], [], []
    deadline = time.perf_counter() + seconds
    min_passes = 1 if trace else 2
    last: dict[str, float] = {}  # each item's latest time
    longest = first = 0.0  # the longest pass; the least a pass like the last one can take
    index = 0
    while index < min_passes or time.perf_counter() + (longest if trace else first) <= deadline:
        t0 = time.perf_counter()
        items = wl.item_order(runner.workload, seed, index)
        if not trace:
            setup.extend(runner.setup_probe() for _ in range(SETUP_PROBES_PER_PASS))
        probes = time.perf_counter() - t0
        stop = deadline if not trace and index >= min_passes else None
        plain.append(check_pass(runner.run_pass(items, index, traced=False, deadline=stop, last=last)))
        if trace:
            traced.append(check_pass(runner.run_pass(items, index, traced=True)))
        longest = max(longest, time.perf_counter() - t0)
        index += 1
        if not plain[-1]["complete"]:
            break
        outcomes = plain[-1]["outcomes"]
        last.update((item.name, s) for item, _, s in outcomes)
        first = probes + plain[-1]["wall_s"] - sum(s for _, _, s in outcomes) + min(last.values())
    return plain, traced, setup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fracsubst" / "__init__.py").is_file():
        print(f"error: no fracsubst sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))  # the oracles used by the checks
    runner = Runner(ROOT, args.workload)
    # compile the sources once, so no timed process pays for it
    runner.spawn([sys.executable, "-c", "import fracsubst, fracsubst.cli"])
    plain, traced, setup = measure(runner, args.seed, args.seconds, bool(args.trace))

    if args.trace:
        values = per_layer(plain, traced)
        names = [(m["name"], m["unit"]) for m in config["per_layer"]]
    else:
        values = end_to_end(plain, setup)
        names = [(m["name"], m["unit"]) for m in config["end_to_end"]]
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in names}

    passes = plain + traced
    outcomes = [(item, o) for p in passes for item, o, _ in p["outcomes"]]
    real = [o for item, o in outcomes if not item.probe]
    failed = sum(not o.ok for o in real)
    env = environment(ROOT)
    for i, p in enumerate(passes):
        print(f"pass {i}{' traced' if i >= len(plain) else ''}: wall {p['wall_s']:.3f} s, "
              f"peak {p['peak_rss_mb']:.1f} MB; " + "; ".join(
                  f"{item.name} {'ok' if o.ok else 'FAILED ' + o.reason}"
                  + ("" if o.err is None else f" (err {o.err:.3e})") for item, o, _ in p["outcomes"]))
    all_failed = sum(not o.ok for _, o in outcomes)
    print(f"fail_frac {all_failed / len(outcomes):.6g} ({all_failed} of {len(outcomes)} items, probes included)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print("env " + json.dumps(env))
    result = {"correct": failed == 0, "attempted": len(real), "failed": failed, "metrics": metrics}
    results = ROOT / ".fracbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"args": vars(args), "env": env, "fail_frac": all_failed / len(outcomes),
                    "setup_s": setup, "passes": [p["wall_s"] for p in passes],
                    "items": [[[item.name, sec] for item, _, sec in p["outcomes"]] for p in passes], **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
