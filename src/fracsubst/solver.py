"""Forward-elimination solver for the assembled lower-triangular systems.

The first r grid values come from a truncated Taylor prefix built out of
the initial conditions (y_1 = y_0 + h y'(0) for second-order problems);
every later value follows from its own row in one division.  Each row is
read in one pass, a dot product with the values before it; the pivot test
uses the off-diagonal 1-norm the row computed when it was built.  Cost is
O(M^2) at desk scale.

Accuracy is O(h^(n - alpha + 1)) for smooth solutions, set by the
trapezoid sum in the substituted variable u = (t - x)^(n - alpha); the
finite-difference stencils are second order.  Solutions that behave like
t^alpha near 0 (the relaxation equation, for one) have unbounded higher
derivatives at the origin and converge more slowly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import conditioning
from .assembly import AssembledRow, FDEProblem, assemble_system
from .caputo import Grid

__all__ = [
    "SolveResult",
    "SingularPivotError",
    "NonFiniteSolutionError",
    "init_prefix",
    "eliminate",
    "solve",
    "calibrate",
    "convergence_study",
    "ConvergenceLevel",
]

# pivots below this fraction of the row 1-norm abort the elimination
PIVOT_RTOL = 1e-13


class SingularPivotError(ArithmeticError):
    """Row diagonal too small relative to the row to divide through."""

    def __init__(self, m: int, pivot: float):
        super().__init__(f"near-singular pivot {pivot!r} at row {m}")
        self.row = m
        self.pivot = pivot


class NonFiniteSolutionError(ArithmeticError):
    """Elimination overflowed: the solution is not finite from ``row`` on."""

    def __init__(self, m: int):
        super().__init__(f"solution is not finite from row {m} on (elimination overflowed)")
        self.row = m


@dataclass(frozen=True)
class SolveResult:
    """Grid solution plus diagnostics.

    ``report`` is the dominance check over the assembled rows, attached
    whether or not it is satisfied; ``pivot_min`` is the smallest |d_m +
    p_m| met during elimination; ``degraded_rows`` is always ``(r,)``, r =
    ``problem.order``: the one row where every node of a term of order r
    takes the plain r-th difference.  ``stats`` is a read-only count of the
    work done: ``rows`` assembled, ``coef_bytes`` of their coefficients,
    ``madds`` (sum of m over the eliminated rows, one multiply-add per
    off-diagonal coefficient) and ``rows_checked`` by the dominance check.
    """

    grid: Grid
    y: np.ndarray
    report: conditioning.ConditioningReport
    pivot_min: float
    degraded_rows: tuple[int, ...]
    stats: Mapping[str, int]


def init_prefix(ics: Sequence[float], h: float) -> np.ndarray:
    """Taylor prefix y_j = sum_i y^(i)(0) (jh)^i / i! for j = 0..r-1, r = len(ics)."""
    r = len(ics)
    if r < 1:
        raise ValueError("the prefix needs at least one initial condition")
    j = np.arange(r)
    y = np.zeros(r)
    for i, c in enumerate(ics):
        y += c * (j * h) ** i / math.factorial(i)
    return y


def eliminate(rows: Sequence[AssembledRow], prefix: Sequence[float]) -> tuple[np.ndarray, float]:
    """Sequential forward elimination given the fixed prefix values.

    Rows must be consecutive starting at m = len(prefix).  Returns the full
    solution vector and the smallest pivot magnitude; raises
    :class:`NonFiniteSolutionError` naming the first row whose value is not
    finite, which only an overflow in the elimination can produce.
    """
    r = len(prefix)
    total = r + len(rows)
    y = np.empty(total)
    y[:r] = prefix
    pivot_min = math.inf
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, by its row
        for i, row in enumerate(rows):
            m = row.m
            if m != r + i:
                raise ValueError(f"expected row {r + i}, got row {m}")
            pivot = row.d[m] + row.p_m
            apiv = abs(pivot)
            if apiv == 0.0 or apiv < PIVOT_RTOL * (row.offdiag + abs(row.d[m])):
                raise SingularPivotError(m, pivot)
            pivot_min = min(pivot_min, apiv)
            y[m] = (row.rhs - row.d[:m] @ y[:m]) / pivot
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise NonFiniteSolutionError(int(bad[0]))
    return y, pivot_min


def solve(problem: FDEProblem, h: float, max_rows: int) -> SolveResult:
    """Assemble and solve the problem on the grid 0, h, ..., max_rows*h."""
    rows = assemble_system(problem, h, max_rows)
    prefix = init_prefix(problem.initial_conditions, h)
    y, pivot_min = eliminate(rows, prefix)
    y.flags.writeable = False
    report = conditioning.check(rows)
    degraded = tuple(row.m for row in rows if row.degraded)
    stats = MappingProxyType({
        "rows": len(rows),
        "coef_bytes": sum(row.d.nbytes for row in rows),
        "madds": sum(row.m for row in rows),
        "rows_checked": int(report.rows.size),
    })
    return SolveResult(Grid.uniform_grid(h, max_rows), y, report, pivot_min, degraded, stats)


def calibrate(
    problem: FDEProblem,
    epsilon: float,
    reference: tuple[float, float],
    h: float,
    max_rows: int,
) -> SolveResult:
    """Solve a homogeneous problem by perturb-and-rescale.

    With f = 0 and zero initial data the scheme returns the trivial
    solution, so the lowest-order unset derivative (y'(0) when the order
    allows, else y(0)) is seeded with ``epsilon`` and the computed solution
    rescaled to pass through the reference point (t*, u*).  For a linear
    homogeneous equation the seed only scales the solution, so the result
    is epsilon-independent; the anchor value at t* is refused only when it
    is 0 or below 1e-12 of the perturbed solution's own max|y|.  A
    non-finite epsilon, t* or u* raises ``ValueError``; a rescale that
    overflows raises ``OverflowError`` naming the first non-finite node.
    """
    t_star, u_star = reference
    if not all(math.isfinite(v) for v in (epsilon, t_star, u_star)):
        raise ValueError(f"calibration needs a finite epsilon, t* and u*, got {epsilon!r}, {t_star!r}, {u_star!r}")
    if any(c != 0.0 for c in problem.initial_conditions):
        raise ValueError("calibration expects zero initial data")
    i_star = int(round(t_star / h))
    if i_star < 1 or i_star > max_rows or abs(i_star * h - t_star) > 1e-9 * max(t_star, h):
        raise ValueError(f"reference point {t_star} is not a grid node")
    r = problem.order
    ics = [0.0] * r
    ics[1 if r >= 2 else 0] = float(epsilon)
    perturbed = FDEProblem(problem.terms, problem.p, problem.f, tuple(ics))
    base = solve(perturbed, h, max_rows)
    anchor = float(base.y[i_star])
    if not abs(anchor) > 1e-12 * np.max(np.abs(base.y)):
        raise ArithmeticError(f"perturbed solve is {anchor!r} at the reference node; cannot calibrate")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, by its node
        y = base.y * (u_star / anchor)
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise OverflowError(f"rescaling to u*={u_star!r} overflows: the solution is not finite at node {bad[0]}")
    y.flags.writeable = False
    return SolveResult(base.grid, y, base.report, base.pivot_min, base.degraded_rows, base.stats)


class ConvergenceLevel(NamedTuple):
    h: float
    max_error: float
    observed_order: float  # nan for the first level


def convergence_study(
    problem: FDEProblem,
    oracle: Callable[[float], float],
    hs: Sequence[float],
    t_end: float,
) -> list[ConvergenceLevel]:
    """Max-norm error against ``oracle`` for each step in ``hs``.

    Steps must be strictly decreasing and divide ``t_end``; the observed
    order between consecutive levels is log(err_i/err_{i+1}) /
    log(h_i/h_{i+1}).
    """
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("steps must be strictly decreasing")
    levels: list[ConvergenceLevel] = []
    prev: ConvergenceLevel | None = None
    for h in hs:
        m = round(t_end / h)
        if abs(m * h - t_end) > 1e-9 * t_end:
            raise ValueError(f"step {h} does not divide t_end={t_end}")
        result = solve(problem, h, m)
        ts = result.grid.nodes
        err = float(np.max(np.abs(result.y - np.array([oracle(t) for t in ts]))))
        order = math.nan
        if prev is not None and err > 0:
            order = math.log(prev.max_error / err) / math.log(prev.h / h)
        prev = ConvergenceLevel(h, err, order)
        levels.append(prev)
    return levels
