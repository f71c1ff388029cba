"""Solver for the lower-triangular systems of :mod:`.assembly`.

The first r grid values come from a truncated Taylor prefix built out of
the initial conditions (y_1 = y_0 + h y'(0) for second-order problems);
every later value follows from its own row in one division.

:func:`solve` takes the rows in two parts.  A start block, rows r..S-1 with
S the largest ``steady`` row of a term (5 for n = 1, 7 for n = 2), is
assembled densely and eliminated row by row, each row a dot product with
the values before it and a pivot test against the off-diagonal 1-norm it
computed when it was built.  A grid of M < B steps, B = r + ``BLOCK_ROWS``
grown by whole blocks until it passes S, is assembled and eliminated so
throughout.  On a longer grid, from row S on, row m of term l is
kappa_l[m - k] in columns k >= a_l (the operator's
:meth:`~.caputo.SubstitutionOperator.kernel`) plus its
:meth:`~.caputo.SubstitutionOperator.boundary` columns below a_l, each one
short convolution, so no dense row is built.  These rows are
solved ``BLOCK_ROWS`` at a time (a leaf), in one of two ways.  Where every
q_l and p is constant on them, every leaf has the same lower-triangular
Toeplitz matrix L = pivot I + sum_l q_l T_l, and so has its inverse G: G is
built once per solve, from the forward substitution of L on e_0, and a leaf
is y = G c plus one step of iterative refinement, y += G (c - L y).  An
explicit inverse alone is not backward stable at high order (Du Croz &
Higham, IMA J. Numer. Anal. 12 (1992) 1-19); one refinement step restores
it (Skeel, Math. Comp. 35 (1980) 817-832).  Every other leaf is solved by
forward substitution, each row one dot product of the leaf's Toeplitz
block, zero on and above its diagonal, with all the leaf's values, the
unsolved ones set to zero first.  So are the leaves of constant
coefficients where they are one leaf, or G is not finite or misses the
accuracy bound ``SHARED_THETA``, and any shared leaf whose values are not
finite, solved again so that the error names the same first failing row.
Once j leaves are solved, the last w of them, w the largest power of two
dividing j, add their history to the next w leaves through one convolution
per term: the divide-and-conquer order of Hairer, Lubich & Schlichte, SIAM
J. Sci. Stat. Comput. 6 (1985) 532-541, which costs O(M log^2 M) time and
O(M) memory.  Their pivots and dominance margins are computed for all of
them at once, and their rows are checked by the row check of
:func:`assemble_system`, before any is solved.  Both parts raise for the
first failing row, as :func:`eliminate` over the whole system would, and
solve no row after it.

Accuracy is O(h^(n - alpha + 1)) for smooth solutions, set by the
trapezoid sum in the substituted variable u = (t - x)^(n - alpha); the
finite-difference stencils are second order.  Solutions that behave like
t^alpha near 0 (the relaxation equation, for one) have unbounded higher
derivatives at the origin and converge more slowly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import conditioning
from .assembly import BLOCK_ROWS, AssembledRow, FDEProblem, _check_rows, _on_rows, assemble_system
from .caputo import Grid, SubstitutionOperator, _lower_toeplitz, _steady_row

__all__ = [
    "SolveResult",
    "SingularPivotError",
    "NonFiniteSolutionError",
    "init_prefix",
    "eliminate",
    "solve",
    "report",
    "calibrate",
    "convergence_study",
    "ConvergenceLevel",
]

# pivots below this fraction of the row 1-norm abort the elimination
PIVOT_RTOL = 1e-13
# histories of at most this many rows take np.convolve, longer ones the FFT: a history of
# L rows into the next L, on a 2-vCPU Xeon with numpy 2.4.6, took 14.5-17 us against 65-73 us
# at L = 256, 38-47 us against 57-73 us at 512, and 131-161 us against 84-107 us at 1024
DIRECT_HISTORY = 512
# the largest theta = ||I - G L||_inf for which leaves of constant coefficients share the
# inverse G of their matrix L.  One refinement step leaves about theta^2 of the first guess's
# error, and theta, the residual of L's own forward substitution, is at most about 64 u times
# ||L^-1| |L||_inf, the factor in forward substitution's error bound: so the shared leaf
# adds at most about 1e-4 of the error that forward substitution is allowed.  With q = p = 1
# and h = 1/2048..5/256, theta is <= 6e-8 for alpha <= 4.9, 1.7e-5 at alpha = 6.5 and 4e-3
# at 8.5; a pivot near zero, whose solution overflows, gives 3e8 and more
SHARED_THETA = 1e-4


class SingularPivotError(ArithmeticError):
    """Row diagonal too small relative to the row to divide through."""

    def __init__(self, m: int, pivot: float):
        self.row = m
        self.pivot = float(pivot)
        super().__init__(f"near-singular pivot {self.pivot!r} at row {m}")


class NonFiniteSolutionError(ArithmeticError):
    """Elimination overflowed: ``row`` is the first failing row, its pivot passed, its value is not finite."""

    def __init__(self, m: int):
        super().__init__(f"solution is not finite from row {m} on (elimination overflowed)")
        self.row = m


@dataclass(frozen=True)
class SolveResult:
    """Grid solution plus diagnostics.

    ``report`` is the dominance check over every row r..M, attached
    whether or not it is satisfied; ``pivot_min`` is min(``report.diag``),
    the smallest pivot |d_m + p_m|; ``degraded_rows`` is always ``(r,)``, r =
    ``problem.order``: the one row where every node of a term of order r
    takes the plain r-th difference.  ``stats`` is a read-only count of the
    work done:

    * ``rows``: the rows solved, r..M, as many as ``rows_checked``;
    * ``coef_bytes``: the coefficient arrays held, O(M): the dense start
      block's rows, and past it each term's kernel and leaf block, and the
      shared leaf's L and G, B^2 values each, B = ``BLOCK_ROWS``, where
      leaves share them; the boundary columns are built when read and not
      held;
    * ``madds``: the multiply-adds of the history sums.  A dense row m
      takes m; past the start block each row and term takes a for its
      boundary columns, each leaf of k rows k(k-1)/2 per term, a direct
      convolution of L values into the next c rows L c, and an FFT one of
      transform length N counts N log2 N.  With constant coefficients G
      takes B(B-1)/2 for its forward substitution and B(B+1)/2 for theta's
      product, and a shared leaf of k rows takes 3k(k+1)/2 for its three
      triangular products instead of its forward substitution.  A leaf row
      is one dot product with all k values of its leaf, and G and L are
      B-square, but the zeros above the diagonal and the products with the
      unsolved zeros are not counted;
    * ``rows_checked``: the rows in ``report``.
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
    solution vector and the smallest pivot magnitude.  Raises for the first
    failing row as it is reached: :class:`SingularPivotError` if its pivot
    fails the test below, else :class:`NonFiniteSolutionError` if its value
    is not finite, which only an overflow in the elimination can produce.
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
            if not math.isfinite(y[m]):
                raise NonFiniteSolutionError(m)
    return y, pivot_min


def solve(problem: FDEProblem, h: float, max_rows: int) -> SolveResult:
    """Solve the problem on the grid 0, h, ..., max_rows*h: the start block by :func:`assemble_system`,
    :func:`eliminate` and :func:`conditioning.check`, the rows past it as the module describes."""
    rows, tail, certificate = _system(problem, h, max_rows)
    y = eliminate(rows, init_prefix(problem.initial_conditions, h))[0]
    coef_bytes, madds = sum(row.d.nbytes for row in rows), sum(row.m for row in rows)
    if tail is not None:
        y = tail.solve(y)
        coef_bytes, madds = coef_bytes + tail.coef_bytes, madds + tail.madds
    y.flags.writeable = False
    checked = int(certificate.rows.size)
    stats = MappingProxyType({"rows": checked, "coef_bytes": coef_bytes, "madds": madds, "rows_checked": checked})
    pivot_min = float(np.min(certificate.diag))
    return SolveResult(Grid.uniform_grid(h, max_rows), y, certificate, pivot_min, (problem.order,), stats)


def report(problem: FDEProblem, h: float, max_rows: int) -> conditioning.ConditioningReport:
    """The report that :func:`solve` attaches, from the same rows, unsolved: O(M) memory."""
    return _system(problem, h, max_rows)[2]


def _system(
    problem: FDEProblem, h: float, max_rows: int
) -> tuple[list[AssembledRow], _Tail | None, conditioning.ConditioningReport]:
    """:func:`solve`'s rows, unsolved: the start block, the :class:`_Tail` (None if M < B), the report."""
    r = problem.order
    steady = max(_steady_row(term.n) for term in problem.terms)  # S
    end = r + BLOCK_ROWS * max(1, -(-(steady - r) // BLOCK_ROWS))  # B: a grid of M < B steps is solved densely
    start = steady if max_rows >= end else max_rows + 1  # the dense rows are r..start-1
    rows = assemble_system(problem, h, start - 1)
    tail = _Tail(problem, h, start, max_rows) if start <= max_rows else None
    head = conditioning.check(rows)
    if tail is None:
        return rows, None, head
    parts = [(head.rows, tail.ms), (head.diag, tail.diag), (head.offdiag, tail.offdiag)]
    return rows, tail, conditioning.build_report(*map(np.concatenate, parts))


class _Tail:
    """Rows b..M of a problem, from b = S, the first row past its start
    block, kept as each term's kernel and ``BLOCK_ROWS``-square strictly
    lower Toeplitz block of a leaf, kappa[i - j] below the diagonal and zero
    on and above it.  The boundary columns
    (:meth:`~.caputo.SubstitutionOperator.boundary`) are built one at a time
    where they are read, and not held: their absolute values into the norms,
    and y_i times column i into the right-hand side.  Data, pivots and norms
    are evaluated when it is built, in the order of :func:`assemble_system`,
    and raise through its row check; :meth:`solve` then extends the start
    block's solution with the checks of :func:`eliminate`, up to the first
    failing row.

    Where every q_l and p is constant on the rows, and the rows before the
    first failing pivot span more than one leaf, ``shared`` holds the one
    leaf matrix L and its inverse G of :meth:`_shared_inverse`.  One method,
    :meth:`_leaf`, solves every leaf: from G where ``shared`` holds it, by
    forward substitution for variable coefficients, for a G that is not
    finite or whose theta exceeds ``SHARED_THETA``, and for a shared leaf
    whose values are not finite, to name its first failing row."""

    def __init__(self, problem: FDEProblem, h: float, b: int, max_rows: int):
        ms = range(b, max_rows + 1)
        self.ops = [SubstitutionOperator(term.alpha, h, max_rows) for term in problem.terms]
        self.qs = [_on_rows(term.coefficient, ms, h) for term in problem.terms]
        p, f = _on_rows(problem.p, ms, h), _on_rows(problem.f, ms, h)
        self.ms = np.arange(b, max_rows + 1)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, by its row
            d = sum(q * op.kernel()[0] for op, q in zip(self.ops, self.qs))
            # per term |q| times the boundary and prefix sums of |kappa|: exact for one term
            self.offdiag = sum(
                np.abs(q) * sum(np.abs(op.boundary(b, max_rows + 1, i)) for i in range(op.a))
                + np.abs(q) * np.cumsum(np.abs(op.kernel()[1 : max_rows - op.a + 1]))[b - op.a - 1 :]
                for op, q in zip(self.ops, self.qs)
            )
            self.pivot = d + p
        _check_rows(b, self.offdiag, d, [*self.qs, p, f])
        self.diag = np.abs(self.pivot)
        failing = np.flatnonzero((self.diag == 0.0) | (self.diag < PIVOT_RTOL * (self.offdiag + np.abs(d))))
        self.stop = b + int(failing[0]) if failing.size else max_rows + 1  # the first row whose pivot fails, else M + 1
        self.f = f
        self.leaf = [np.tril(_lower_toeplitz(op.kernel(), BLOCK_ROWS), -1) for op in self.ops]
        self.coef_bytes = sum(op.kernel().nbytes + t.nbytes for op, t in zip(self.ops, self.leaf))
        self.madds = 0
        self.shared = None
        if self.stop - b > BLOCK_ROWS and all(np.all(v == v[0]) for v in (*self.qs, p)):  # G serves two leaves or more
            self.shared = self._shared_inverse()
            self.coef_bytes += sum(t.nbytes for t in self.shared or ())

    def solve(self, y0: np.ndarray) -> np.ndarray:
        """y_0..y_M from the start block's y_0..y_{b-1}, solving only the rows
        before the first pivot that fails the test of :func:`eliminate`:
        :class:`NonFiniteSolutionError` for the first of them whose value is
        not finite, else :class:`SingularPivotError` for that pivot."""
        b, stop, total = int(self.ms[0]), self.stop, int(self.ms[-1]) + 1
        y = np.empty(total)
        y[:b] = y0
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, by its row
            c = self.f.copy()  # f_m less the part of row m's sum known so far
            for op, q in zip(self.ops, self.qs):
                c -= q * sum(y[i] * op.boundary(b, total, i) for i in range(op.a))
                c -= q * self._history(y[op.a : b], op.kernel(), total - b)
                self.madds += op.a * (total - b)
            for j in range(-(-(stop - b) // BLOCK_ROWS)):
                lo, hi = b + j * BLOCK_ROWS, min(b + (j + 1) * BLOCK_ROWS, stop)
                self._leaf(y, c, lo, hi)
                if hi == stop:
                    break
                # the last w leaves, w the largest power of two dividing j + 1, add their history to the next w
                width = ((j + 1) & -(j + 1)) * BLOCK_ROWS
                at = slice(hi - b, min(hi + width, total) - b)
                for op, q in zip(self.ops, self.qs):
                    c[at] -= q[at] * self._history(y[hi - width : hi], op.kernel(), at.stop - at.start)
        if stop < total:
            raise SingularPivotError(stop, self.pivot[stop - b])
        return y

    def _leaf(self, y: np.ndarray, c: np.ndarray, lo: int, hi: int) -> None:
        """Rows lo..hi-1: where ``shared`` holds (L, G), y = G c plus one
        refinement step, y += G (c - L y), with their leading blocks.  Else, or
        where those values are not finite, forward substitution
        (:func:`_substitute`), which names the first failing row, each row one
        dot product with all the leaf's values, faster than slicing them: the
        zero diagonal and upper part meet the unsolved values, set to zero
        first, so that they add exact zeros even where memory held inf or nan."""
        at, n = slice(lo - self.ms[0], hi - self.ms[0]), hi - lo
        if self.shared is not None:
            lower, inverse = (t[:n, :n] for t in self.shared)
            ys = inverse @ c[at]
            ys += inverse @ (c[at] - lower @ ys)
            y[lo:hi] = ys
            self.madds += 3 * n * (n + 1) // 2
            if np.all(np.isfinite(ys)):
                return
        block = sum(q[at, None] * t[:n, :n] for q, t in zip(self.qs, self.leaf))
        ys = y[lo:hi]
        _substitute(block, c[at].tolist(), self.pivot[at].tolist(), ys)
        self.madds += len(self.ops) * n * (n - 1) // 2
        bad = np.flatnonzero(~np.isfinite(ys))
        if bad.size:
            raise NonFiniteSolutionError(lo + int(bad[0]))

    def _shared_inverse(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(L, G): the ``BLOCK_ROWS``-square lower Toeplitz matrix L of every
        leaf of constant coefficients, diagonal included, and its inverse G,
        whose first column is L's row-by-row forward substitution on e_0;
        None where G is not finite or theta = ||I - G L||_inf, the first column
        of G L summed, exceeds ``SHARED_THETA``."""
        n = BLOCK_ROWS
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow refuses the inverse below
            column = sum(q[0] * op.kernel()[:n] for op, q in zip(self.ops, self.qs))
            column[0] = self.pivot[0]  # d + p: the diagonal is where p enters
            lower = _lower_toeplitz(column, n).copy()
            g = np.empty(n)
            _substitute(lower, [1.0] + [0.0] * (n - 1), self.pivot[:n].tolist(), g)
            residual = np.convolve(g, column)[:n]
            residual[0] -= 1.0
            theta = np.abs(residual).sum()
        self.madds += n * (n - 1) // 2 + n * (n + 1) // 2
        if not (np.all(np.isfinite(g)) and theta <= SHARED_THETA):
            return None
        return lower, _lower_toeplitz(g, n).copy()

    def _history(self, x: np.ndarray, kernel: np.ndarray, count: int) -> np.ndarray:
        """sum_j x_j kernel[L + i - j], i = 0..count-1, L = len(x): what the L
        values x add to each of the count rows after them.  Up to
        ``DIRECT_HISTORY`` values by np.convolve, more by the FFT, each
        operand scaled by a power of two so that the transforms cannot
        overflow where the direct sum would not."""
        size = x.size
        seg = kernel[1 : size + count]
        if size <= DIRECT_HISTORY:
            self.madds += size * count
            return np.convolve(seg, x, "valid")
        n = 1 << (seg.size - 1).bit_length()  # a circular convolution this long leaves the valid part intact
        self.madds += n * (n.bit_length() - 1)
        ex, ek = math.frexp(np.max(np.abs(x)))[1], math.frexp(np.max(np.abs(seg)))[1]
        spectrum = np.fft.rfft(np.ldexp(seg, -ek), n) * np.fft.rfft(np.ldexp(x, -ex), n)
        return np.ldexp(np.fft.irfft(spectrum, n)[size - 1 : size - 1 + count], ex + ek)


def _substitute(block: np.ndarray, rhs: list[float], pivot: list[float], ys: np.ndarray) -> None:
    """Forward substitution ys[i] = (rhs[i] - block[i] @ ys) / pivot[i], i in
    order, ys set to zero first, so that block's diagonal and upper part meet
    only the unsolved zeros."""
    ys[:] = 0.0
    for i, row in enumerate(block):
        ys[i] = (rhs[i] - row.dot(ys)) / pivot[i]


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
    return replace(base, y=y)


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

    Steps must be strictly decreasing, each with the grid of :meth:`~.caputo.Grid.steps`;
    the observed order between consecutive levels is log(err_i/err_{i+1}) / log(h_i/h_{i+1}).
    """
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("steps must be strictly decreasing")
    levels: list[ConvergenceLevel] = []
    prev: ConvergenceLevel | None = None
    for h in hs:
        result = solve(problem, h, Grid.steps(h, t_end))
        ts = result.grid.nodes
        err = float(np.max(np.abs(result.y - np.array([oracle(t) for t in ts]))))
        order = math.nan
        if prev is not None and err > 0:
            order = math.log(prev.max_error / err) / math.log(prev.h / h)
        prev = ConvergenceLevel(h, err, order)
        levels.append(prev)
    return levels
