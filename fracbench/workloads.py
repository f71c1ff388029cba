"""Workload items, their order for a seed, and the checks on their outputs.

Problem data are fixed: the regression pins and the oracles only hold for
these exact problems.  The seed shuffles the order of the items in a pass.

* figs-cli: ``fracsubst solve`` on the paper's demo configs, one process per
  config, the way a user runs them.  Import and set-up are about 2/3 of the
  wall time here.
* solve-ladder: library ``solve``/``calibrate`` calls at growing M in one
  process per pass.  Assembly, elimination and the conditioning check do
  almost all the work; at M = 2^13 the dense coefficients (269 MB) outgrow
  the last-level cache, at 2^12 (67 MB) they still fit.
* deriv-cli: ``fracsubst deriv`` of t^3, which applies the substitution
  weights and stencils forward; no assembly or elimination runs, so a
  solver-only change must read "no change" here.

Items marked ``probe`` reproduce known defects of the program: they are
reported in ``ok_frac``, never in ``max_err``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

PIN_RTOL = 1e-9

# fig2/fig3 regression pins, as in tests/test_acceptance.py (criterion 4)
FIG2_PINS = ((1.0, 0.14860413477178622), (2.5, 0.38546255259033946), (5.0, 0.04535859459373801))
FIG3_PINS = ((1.0, 0.029651882965456303), (2.5, 0.07596032971945163), (5.0, 0.007217921886653609))

# calibration of the Bessel ladder items: u(1.25) of bessel_series(2.0, 1500);
# 1.25 is a grid node for M = 2^11 and 2^12 on [0, 5]
BESSEL_EPS = 1e-4
BESSEL_T_STAR = 1.25
BESSEL_U_STAR = 0.15683701040930487
BESSEL_TERMS = ((1.5, "1.5*x^1.5"), (1.1, "-1.2*x^1.9"), (0.5, "3*x"))


@dataclass(frozen=True)
class Item:
    """One unit of work in a pass.

    CLI items carry ``argv`` (the arguments after ``fracsubst``, without
    ``--out``); library items name a ``problem``.  ``rows`` is the number of
    grid steps M on [0, t_end].  Outputs are checked against ``oracle`` at
    relative max-norm tolerance ``tol`` and against ``pins``.
    """

    name: str
    rows: int
    t_end: float
    argv: tuple[str, ...] = ()
    problem: str = ""
    oracle: tuple = ()
    tol: float = 0.0
    pins: tuple = ()
    expect_exit: int = 0
    probe: bool = False
    lead_slack: int = 0  # leading output nodes the item may omit

    @property
    def first_node(self) -> int:
        """Index of the first output node: deriv has no value at t = 0."""
        return 1 if self.argv[:1] == ("deriv",) else 0


def _fig(n, rows=2560, **kw):
    return Item(f"fig{n}", rows, 5.0, argv=("solve", "--config", f"demos/fig{n}.cfg"), **kw)


def _deriv(name, alpha, flag, fn, p, **kw):
    argv = ("deriv", "--alpha", repr(alpha), flag, fn, "--h", repr(2.0**-p), "--t-end", "1")
    return Item(name, 2**p, 1.0, argv=argv, oracle=("caputo_power", alpha, 3.0), **kw)


def _ladder(problem, p, tol):
    return Item(f"{problem}-{2**p}", 2**p, 5.0, problem=problem, tol=tol,
                oracle=("relaxation", 1.5) if problem == "relaxation" else ("bessel",))


# tolerances are about twice the error measured for this scheme
ITEMS = {
    "figs-cli": (
        _fig(1, oracle=("relaxation", 1.5), tol=0.025),
        _fig(2, pins=FIG2_PINS),
        _fig(3, pins=FIG3_PINS),
        _fig(4),
        _fig(5, rows=1280, oracle=("bessel",), tol=2.5e-3),
        # f overflows to inf: the CLI contract says exit 2
        Item("overflow-probe", 16, 1.0, argv=("solve", "--config", "fracbench/data/overflow.cfg"),
             expect_exit=2, probe=True),
    ),
    "solve-ladder": (
        _ladder("relaxation", 10, 0.04),
        _ladder("relaxation", 11, 0.03),
        _ladder("relaxation", 12, 0.02),
        _ladder("relaxation", 13, 0.015),
        _ladder("bessel", 11, 1.5e-3),
        _ladder("bessel", 12, 7e-4),
    ),
    "deriv-cli": (
        _deriv("expr-0.8", 0.8, "--expr", "t^3", 10, tol=5e-4),
        _deriv("dnf-0.8", 0.8, "--dnf", "3*t^2", 11, tol=2e-4),
        _deriv("dnf-1.5", 1.5, "--dnf", "6*t", 11, tol=1e-5),
        # the first row has too few nodes for the n=2 stencils
        _deriv("expr-1.5-probe", 1.5, "--expr", "t^3", 6, tol=5e-3, probe=True, lead_slack=1),
    ),
}
WORKLOADS = tuple(ITEMS)
ITEMS_BY_NAME = {item.name: item for items in ITEMS.values() for item in items}


def item_order(workload: str, seed: int, pass_index: int) -> list[Item]:
    """Items of one pass, shuffled by the seed and the pass index."""
    items = list(ITEMS[workload])
    random.Random(f"{workload}/{seed}/{pass_index}").shuffle(items)
    return items


def build_problem(fs, name: str):
    """The library problem ``name`` built through fracsubst's public API."""
    parse = fs.parse
    if name == "relaxation":
        one = parse("1")
        return fs.FDEProblem((fs.DerivativeTerm(1.5, one),), one, one, (0.0, 0.0))
    terms = tuple(fs.DerivativeTerm(alpha, parse(text)) for alpha, text in BESSEL_TERMS)
    return fs.FDEProblem(terms, parse("x^2 - 4"), parse("0"), (0.0, 0.0))


def reference(item: Item, ts: np.ndarray) -> np.ndarray:
    """Oracle values of ``item`` at the nodes ``ts``."""
    from fracsubst import oracles

    kind = item.oracle[0]
    if kind == "relaxation":
        return np.array([oracles.relaxation_solution(item.oracle[1], t) for t in ts])
    if kind == "bessel":
        return oracles.bessel_series(2.0, 1500)(ts)
    return np.array([oracles.caputo_power(item.oracle[1], item.oracle[2], t) for t in ts])


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    err: float | None = None  # relative max-norm error against the oracle


def judge(item: Item, code: int, stderr: str, ts, ys, ref=reference) -> Outcome:
    """Check one item's exit code, error output and output table.

    ``ts``/``ys`` are the output nodes and values, or ``None`` when the item
    wrote no output.  An item fails on a wrong exit code, a traceback, a
    missing or non-finite output, output off the grid, or a pin or oracle
    miss.
    """
    if code != item.expect_exit:
        return Outcome(False, f"exit code {code}, expected {item.expect_exit}")
    if "Traceback (most recent call last)" in stderr:
        return Outcome(False, "traceback")
    if item.expect_exit != 0:
        return Outcome(True)
    if ts is None or len(ts) == 0:
        return Outcome(False, "no output")
    ts, ys = np.asarray(ts, dtype=float), np.asarray(ys, dtype=float)
    if not (np.all(np.isfinite(ys)) and np.all(np.isfinite(ts))):
        return Outcome(False, "non-finite output")
    h = item.t_end / item.rows
    nodes = np.arange(item.first_node, item.rows + 1) * h
    if not nodes.size - item.lead_slack <= ts.size <= nodes.size or not np.allclose(
        ts, nodes[nodes.size - ts.size:], rtol=1e-9, atol=1e-12
    ):
        return Outcome(False, f"{ts.size} output nodes do not match the grid")
    for t, pin in item.pins:
        value = ys[np.argmin(np.abs(ts - t))]
        if not abs(value - pin) <= PIN_RTOL * abs(pin):
            return Outcome(False, f"pin miss at t={t}: {value!r} vs {pin!r}")
    if not item.oracle:
        return Outcome(True)
    exact = ref(item, ts)
    err = float(np.max(np.abs(ys - exact)) / np.max(np.abs(exact)))
    if not err <= item.tol:
        return Outcome(False, f"oracle miss: relative error {err:.3e} > {item.tol:g}", err)
    return Outcome(True, err=err)


def read_table(path) -> tuple[np.ndarray, np.ndarray] | tuple[None, None]:
    """First two columns of a CSV with a header row, or ``(None, None)``."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()[1:]
    except FileNotFoundError:
        return None, None
    try:
        rows = [[float(v) for v in line.split(",")[:2]] for line in lines if line]
    except ValueError:
        return None, None
    if not rows:
        return None, None
    table = np.array(rows)
    return table[:, 0], table[:, 1]

