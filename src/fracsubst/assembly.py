"""Row-by-row discretization of linear fractional differential equations.

A problem  sum_l q_l(t) D^(a_l) y + p(t) y = f(t)  is discretized on the
uniform grid x_m = m h by writing each Caputo derivative in substitution
form and replacing the classical derivatives under the trapezoidal sum by
finite-difference stencils.  Row m of the resulting lower-triangular
system is

    sum_{k=0..m} d_k y_k + p(x_m) y_m = f(x_m).

The d_k are sum_l q_l(x_m) times row m of the term's
:class:`~.caputo.SubstitutionOperator` (stencil weight x trapezoid pair
weight).  q_l, p and f are evaluated once each, on the array of row times
when they are :class:`~.expr.Expression` trees and point by point
otherwise; f is never evaluated at t = 0.

Rows are built in blocks of ``BLOCK_ROWS`` consecutive rows m = b0..b1-1,
the first block starting at row r: each term returns its rows as one
C-contiguous (b1 - b0) x b1 array (:meth:`~.caputo.SubstitutionOperator.rows`),
the first term's array becomes the system block, each later term's is added
into it in term order, and row m's ``d`` is the read-only view
``block[i, :m+1]``.  Row r alone is degraded: every node of a term of
order r takes the plain r-th difference there, and the row n of a term of
lower order n lies in the initial-condition prefix.  A block's off-diagonal
1-norms are the row sums of |block| with its diagonal zeroed.  A block is
built with numpy's overflow and invalid-value warnings off, and then its
rows are checked: the first row with a value that is not finite among its
data (each q_l, p and f), its norm and its diagonal raises ``ValueError``
if its data is not finite, else ``OverflowError`` (finite data whose
products overflow), naming the row.

Rows are dense.  They serve :func:`assemble_system`, the CLI's ``assemble``
command and the start block of :func:`~.solver.solve` and of the report
``condition`` prints: every row of a grid shorter than r + ``BLOCK_ROWS``
steps, else the rows below the terms' ``steady`` rows (4 rows for n = 1, 5
for n = 2), past which they read the rows from each operator's kernel and
boundary columns without building them.  A system takes exactly
8 sum_m (m+1) bytes of coefficients, the upper-triangle padding of its
blocks (8 k(k-1)/2 bytes for a block of k rows) and the |block| temporary
of the norms (8 ``BLOCK_ROWS`` (M+1) bytes); :func:`assemble_system`
refuses one larger than physical memory.  A row kept after the others are
dropped keeps its whole block alive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .caputo import FracOrder, SubstitutionOperator, _physical_memory
from .expr import Expression

BLOCK_ROWS = 64  # rows are built this many at a time

__all__ = [
    "DerivativeTerm",
    "FDEProblem",
    "AssembledRow",
    "assemble_row",
    "assemble_system",
]


@dataclass(frozen=True)
class DerivativeTerm:
    """One q(t) * D^alpha y(t) term; alpha must be strictly fractional."""

    alpha: float
    coefficient: Callable[[float], float]

    def __post_init__(self):
        FracOrder(self.alpha)

    @property
    def n(self) -> int:
        return math.ceil(self.alpha)


@dataclass(frozen=True)
class FDEProblem:
    """Linear FDE with initial conditions y(0), y'(0), ..., y^(r-1)(0).

    The equation order r is ceil(max alpha); exactly r finite initial
    conditions are required.  Terms are kept sorted ascending by alpha.
    """

    terms: tuple[DerivativeTerm, ...]
    p: Callable[[float], float]
    f: Callable[[float], float]
    initial_conditions: tuple[float, ...]

    def __post_init__(self):
        terms = tuple(sorted(self.terms, key=lambda term: term.alpha))
        if not terms:
            raise ValueError("problem needs at least one derivative term")
        object.__setattr__(self, "terms", terms)
        ics = tuple(float(v) for v in self.initial_conditions)
        object.__setattr__(self, "initial_conditions", ics)
        if len(ics) != self.order:
            raise ValueError(
                f"order-{self.order} problem needs {self.order} initial conditions, got {len(ics)}"
            )
        if not all(math.isfinite(v) for v in ics):
            raise ValueError(f"initial conditions must be finite, got {ics!r}")

    @property
    def order(self) -> int:
        return self.terms[-1].n


@dataclass(frozen=True)
class AssembledRow:
    """Finite coefficients of one grid row: d_0..d_m, diagonal addend p_m, rhs f_m.

    ``degraded`` marks row m = r, the problem's order, where every node of
    a term of order r takes the plain r-th difference.
    ``offdiag`` is the off-diagonal 1-norm sum_{k<m} |d_k|, for the pivot
    test of the solver and the dominance check, computed here when not
    given.  One finiteness rule holds either way: a finite norm means
    finite terms, an infinite one sends d_0..d_{m-1} to an element check,
    and the diagonal, p_m and f_m are always checked.
    """

    m: int
    d: np.ndarray
    p_m: float
    rhs: float
    degraded: bool
    offdiag: float | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.d.shape != (self.m + 1,):
            raise ValueError("row m must carry exactly m+1 coefficients")
        offdiag = self.offdiag
        if offdiag is None:
            with np.errstate(over="ignore"):  # an infinite norm goes to the element check below
                offdiag = float(np.abs(self.d[: self.m]).sum())
            object.__setattr__(self, "offdiag", offdiag)
        # a finite 1-norm means finite terms; an infinite one may be an overflow of finite terms
        finite = math.isfinite(offdiag) or bool(np.all(np.isfinite(self.d[: self.m])))
        if not (finite and math.isfinite(self.d[self.m]) and math.isfinite(self.p_m) and math.isfinite(self.rhs)):
            raise ValueError(f"non-finite coefficients, p or f in row {self.m}")


def _on_rows(fn: Callable[[float], float], ms: range, h: float) -> np.ndarray:
    """fn(m h) for m in ``ms``: one call on the array of row times for an
    :class:`~.expr.Expression`, point by point for any other callable."""
    if isinstance(fn, Expression):
        return fn(np.arange(ms.start, ms.stop) * h)
    return np.array([float(fn(m * h)) for m in ms])


def _check_rows(m0: int, offdiag: np.ndarray, diag: np.ndarray, data: list[np.ndarray]) -> None:
    """Raise for the first row m = m0 + i with a value that is not finite
    among its ``data`` (each q_l, p and f), ``offdiag[i]`` and ``diag[i]``:
    ``ValueError`` if its data is the fault, else ``OverflowError``."""
    bad_data = ~np.all(np.isfinite(data), axis=0)
    bad = np.flatnonzero(bad_data | ~(np.isfinite(offdiag) & np.isfinite(diag)))
    if bad.size and bad_data[bad[0]]:
        raise ValueError(f"q, p or f is not finite in row {m0 + bad[0]}")
    if bad.size:
        raise OverflowError(f"coefficients of row {m0 + bad[0]} are not finite (assembly overflowed)")


def _assemble(problem: FDEProblem, h: float, ms: range) -> list[AssembledRow]:
    ops = [SubstitutionOperator(term.alpha, h, ms[-1]) for term in problem.terms]
    qs = [_on_rows(term.coefficient, ms, h) for term in problem.terms]
    p, f = _on_rows(problem.p, ms, h), _on_rows(problem.f, ms, h)
    rows = []
    for b0 in range(ms.start, ms.stop, BLOCK_ROWS):
        b1 = min(b0 + BLOCK_ROWS, ms.stop)
        at = slice(b0 - ms.start, b1 - ms.start)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, by its row
            block = ops[0].rows(b0, qs[0][at])
            for q, op in zip(qs[1:], ops[1:]):
                block += op.rows(b0, q[at])
            norms = np.abs(block)
            np.fill_diagonal(norms[:, b0:], 0.0)
            offdiag = norms.sum(axis=1)
        _check_rows(b0, offdiag, np.diagonal(block, b0), [q[at] for q in qs] + [p[at], f[at]])
        block.flags.writeable = False
        for i, (m, norm, p_m, f_m) in enumerate(zip(range(b0, b1), offdiag.tolist(), p[at].tolist(), f[at].tolist())):
            rows.append(AssembledRow(m, block[i, : m + 1], p_m, f_m, m == problem.order, norm))
    return rows


def assemble_row(problem: FDEProblem, h: float, m: int) -> AssembledRow:
    """Assemble the single grid row m (t = m h), ceil(alpha) <= m for every term."""
    return _assemble(problem, h, range(m, m + 1))[0]


def assemble_system(problem: FDEProblem, h: float, max_rows: int) -> list[AssembledRow]:
    """Assemble rows m = r..max_rows; rows 0..r-1 are fixed by the
    initial-condition prefix and carry no equation."""
    r = problem.order
    if max_rows < r:
        raise ValueError(f"need at least {r} rows for an order-{r} problem")
    need = 8 * ((max_rows + 1) * (max_rows + 2) - r * (r + 1)) // 2  # 8 bytes x sum of m+1 over m = r..max_rows
    # the upper-triangle padding of the blocks, which start at row r, and the |block| of the norms
    full, last = divmod(max_rows + 1 - r, BLOCK_ROWS)
    padding = 8 * (full * BLOCK_ROWS * (BLOCK_ROWS - 1) + last * (last - 1)) // 2
    extra = padding + 8 * BLOCK_ROWS * (max_rows + 1)
    have = _physical_memory()
    if need + extra > have:
        raise MemoryError(
            f"the dense system for M={max_rows} needs {need} bytes of row coefficients "
            f"and {extra} bytes of block padding and norm temporary, more than the {have} bytes of physical memory"
        )
    return _assemble(problem, h, range(r, max_rows + 1))
