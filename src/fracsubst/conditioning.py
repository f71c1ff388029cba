"""Diagonal-dominance diagnostics for assembled systems.

A lower-triangular difference system is certified well-conditioned when
every row satisfies |d_m + p_m| >= sum_{k<m} |d_k| + delta for a single
delta > 0; the solution is then bounded by max(|prefix|, max|f|/delta)
independently of the grid size.  The check is diagnostic, not gating: the
condition is sufficient, not necessary, and realistic problems often fail
it while still solving fine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assembly import AssembledRow

__all__ = ["ConditioningReport", "check", "build_report", "bound"]


@dataclass(frozen=True)
class ConditioningReport:
    """Per-row dominance margins.

    margin[i] = diag[i] - offdiag[i] with diag = |d_m + p_m| and offdiag =
    sum_{k<m} |d_k|, read from :attr:`AssembledRow.offdiag` (computed once
    per row, when it is built).  Rows that :func:`~.solver.solve` takes past
    its dense start block, from the first row where every term is
    ``steady``, have no ``AssembledRow``: their offdiag is exact
    for one term, and for several terms the triangle-inequality bound
    sum_l |q_l(x_m)| sum_{k<m} |d^l_k|, never below the true norm, so a
    satisfied report stays sound.  delta is the smallest margin and the
    report is satisfied iff delta > 0.  ``alt_a`` and ``alt_b`` are the
    constants of the alternative sufficient condition (relative margin and
    row scale); whenever both are positive, delta >= alt_a * alt_b.  The report
    :func:`~.solver.solve` attaches is the one ``condition`` prints.
    """

    rows: np.ndarray      # row indices m
    diag: np.ndarray
    offdiag: np.ndarray
    margin: np.ndarray
    delta: float
    satisfied: bool
    alt_a: float
    alt_b: float


def check(rows: Sequence[AssembledRow]) -> ConditioningReport:
    """Evaluate the dominance condition over every row of ``rows``."""
    if not rows:
        raise ValueError("no rows to check")
    return build_report(
        np.array([row.m for row in rows]),
        np.array([abs(row.d[row.m] + row.p_m) for row in rows]),
        np.array([row.offdiag for row in rows]),
    )


def build_report(ms: np.ndarray, diag: np.ndarray, offdiag: np.ndarray) -> ConditioningReport:
    """The report of rows ``ms`` from their |d_m + p_m| and off-diagonal 1-norms (or bounds on them)."""
    margin = diag - offdiag
    scale = diag + offdiag
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(scale > 0, margin / scale, -np.inf)
    delta = float(np.min(margin))
    return ConditioningReport(
        rows=ms,
        diag=diag,
        offdiag=offdiag,
        margin=margin,
        delta=delta,
        satisfied=bool(delta > 0),
        alt_a=float(np.min(ratios)),
        alt_b=float(np.min(np.maximum(diag, offdiag))),
    )


def bound(report: ConditioningReport, mu: float, fmax: float) -> float:
    """A-priori solution bound max(mu, fmax/delta) for a satisfied report.

    ``mu`` is the largest magnitude among the prefix values fixed by the
    initial conditions; ``fmax`` the largest |f_m|.
    """
    if not report.satisfied:
        raise ValueError("bound requires a satisfied conditioning report")
    return max(float(mu), float(fmax) / report.delta)
