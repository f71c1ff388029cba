"""Row-by-row discretization of linear fractional differential equations.

A problem  sum_l q_l(t) D^(a_l) y + p(t) y = f(t)  is discretized on the
uniform grid x_m = m h by writing each Caputo derivative in substitution
form and replacing the classical derivatives under the trapezoidal sum by
finite-difference stencils.  Row m of the resulting lower-triangular
system is

    sum_{k=0..m} d_k y_k + p(x_m) y_m = f(x_m).

The d_k are sum_l q_l(x_m) times row m of the term's
:class:`~.caputo.SubstitutionOperator` (stencil weight x trapezoid pair
weight); the closed-form per-column coefficient lists that exist for
first- and second-order stencils are reproduced by this construction and
serve as test vectors only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .caputo import FracOrder, SubstitutionOperator

__all__ = [
    "DerivativeTerm",
    "FDEProblem",
    "AssembledRow",
    "weight",
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

    The equation order r is ceil(max alpha); exactly r initial conditions
    are required.  Terms are kept sorted ascending by alpha.
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

    @property
    def order(self) -> int:
        return self.terms[-1].n


@dataclass(frozen=True)
class AssembledRow:
    """Finite coefficients of one grid row: d_0..d_m, diagonal addend p_m, rhs f_m.

    ``degraded`` marks rows assembled with reduced-order fallback stencils
    (possible only for the first few rows of each derivative order).
    """

    m: int
    d: np.ndarray
    p_m: float
    rhs: float
    degraded: bool

    def __post_init__(self):
        if self.d.shape != (self.m + 1,):
            raise ValueError("row m must carry exactly m+1 coefficients")
        if not (np.all(np.isfinite(self.d)) and math.isfinite(self.p_m) and math.isfinite(self.rhs)):
            raise ValueError(f"non-finite coefficients, p or f in row {self.m}")


def weight(alpha: float, n: int, k: int, m: int, h: float) -> float:
    """Trapezoid pair weight ((m-k+1)h)**(n-a) - ((m-k)h)**(n-a), n = ceil(a),
    read from :attr:`SubstitutionOperator.weights`.

    Strictly positive; the weights telescope to (mh)**(n-a) over k = 1..m.
    """
    if not 1 <= k <= m:
        raise ValueError(f"pair index k={k} outside 1..{m}")
    if n != math.ceil(alpha):
        raise ValueError(f"n={n} is not ceil(alpha) for alpha={alpha}")
    return float(SubstitutionOperator(alpha, h, m - k + 1).weights[m - k + 1])


def _assemble(problem: FDEProblem, h: float, ms: range) -> list[AssembledRow]:
    ops = [(term.coefficient, SubstitutionOperator(term.alpha, h, ms[-1])) for term in problem.terms]
    work = np.empty(ms[-1] + 1)  # one buffer for every row keeps the heap unfragmented
    rows = []
    for m in ms:
        t = m * h
        work[: m + 1] = 0.0
        degraded = False
        for q, op in ops:
            degraded = op.row(m, q(t), out=work)[1] or degraded
        d = work[: m + 1].copy()
        d.flags.writeable = False
        rows.append(AssembledRow(m, d, float(problem.p(t)), float(problem.f(t)), degraded))
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
    return _assemble(problem, h, range(r, max_rows + 1))
