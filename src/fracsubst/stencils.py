"""Second-order finite-difference weights for the n-th derivative.

The weights solve the moment conditions

    sum(a_l)              = 0
    sum(a_l * l^j) / j!   = 0        j = 1..n-1 and j = n+1
    sum(a_l * l^n) / n!   = B_n      (B_n = 1 for even n, 2 for odd n)

over integer node offsets l, so that ``sum(a_l * y[k+l]) / (B_n h^n)``
approximates the n-th derivative at node k with O(h^2) error.  The systems
are solved in exact rational arithmetic (the float Vandermonde solve is
badly conditioned already for moderate n) and converted to floats only at
the boundary.

Weights are stored ascending by offset throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

__all__ = [
    "Stencil",
    "central",
    "forward",
    "backward",
    "forward_first_order",
    "backward_first_order",
    "node_weights",
]


@dataclass(frozen=True)
class Stencil:
    """Finite-difference weights for one derivative order.

    The approximation at node k is ``sum(weights * y[k + offsets]) /
    (norm_denominator * h**deriv_order)``.
    """

    kind: str  # central | forward | backward
    deriv_order: int
    offsets: tuple[int, ...]
    weights: tuple[Fraction, ...]
    norm_denominator: int

    def __post_init__(self):
        w = np.array([float(a) for a in self.weights])
        w.flags.writeable = False
        object.__setattr__(self, "_weights_float", w)

    def weights_float(self) -> np.ndarray:
        """The weights as floats, converted once per stencil; read-only."""
        return self._weights_float

    def apply(self, samples: np.ndarray, at: int, h: float) -> float:
        """Apply the stencil to ``samples`` around index ``at`` with step h;
        every index at + offset must lie in 0..len(samples)-1."""
        samples = np.asarray(samples, dtype=float)
        idx = np.asarray(self.offsets) + at
        if idx[0] < 0 or idx[-1] >= samples.size:
            raise ValueError(f"stencil at {at} reads indices {idx[0]}..{idx[-1]}, outside 0..{samples.size - 1}")
        return float(self.weights_float() @ samples[idx]) / (
            self.norm_denominator * h**self.deriv_order
        )

    def moment(self, j: int) -> Fraction:
        """Exact j-th offset moment sum(a_l * l^j) / j!."""
        return sum(
            (a * Fraction(o) ** j for a, o in zip(self.weights, self.offsets)),
            start=Fraction(0),
        ) / math.factorial(j)


def _norm_denominator(n: int) -> int:
    return 1 if n % 2 == 0 else 2


def _solve_rational(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gauss-Jordan elimination over Fractions (exact)."""
    size = len(rhs)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(size):
        piv = next(r for r in range(col, size) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[i][size] for i in range(size)]


def _moment_solution(offsets: tuple[int, ...], n: int, nmoments: int) -> tuple[Fraction, ...]:
    matrix = [[Fraction(o) ** j for o in offsets] for j in range(nmoments)]
    rhs = [Fraction(0)] * nmoments
    rhs[n] = Fraction(math.factorial(n) * _norm_denominator(n))
    return tuple(_solve_rational(matrix, rhs))


def _check_order(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"derivative order must be a positive integer, got {n!r}")


@cache
def central(n: int) -> Stencil:
    """Central weights over offsets -n2..n2, n2 = ceil(n/2).

    For odd n the moment system (orders 0..n+1) is square over the n+2
    nodes.  For even n the symmetric n+1-node solution annihilates the
    (n+1)-th moment automatically; this is asserted rather than adding
    nodes.
    """
    _check_order(n)
    n2 = (n + 1) // 2
    offsets = tuple(range(-n2, n2 + 1))
    if n % 2 == 0:
        weights = _moment_solution(offsets, n, n + 1)
        st = Stencil("central", n, offsets, weights, _norm_denominator(n))
        assert st.moment(n + 1) == 0
        return st
    weights = _moment_solution(offsets, n, n + 2)
    return Stencil("central", n, offsets, weights, _norm_denominator(n))


@cache
def forward(n: int) -> Stencil:
    """One-sided weights over offsets 0..n+1 (n+2 moment conditions)."""
    _check_order(n)
    offsets = tuple(range(0, n + 2))
    weights = _moment_solution(offsets, n, n + 2)
    return Stencil("forward", n, offsets, weights, _norm_denominator(n))


def _mirror(st: Stencil, kind: str) -> Stencil:
    sign = 1 if st.deriv_order % 2 == 0 else -1
    offsets = tuple(-o for o in reversed(st.offsets))
    weights = tuple(sign * w for w in reversed(st.weights))
    return Stencil(kind, st.deriv_order, offsets, weights, st.norm_denominator)


@cache
def backward(n: int) -> Stencil:
    """Mirror of :func:`forward`: offsets negated, weights times (-1)^n."""
    return _mirror(forward(n), "backward")


@cache
def forward_first_order(n: int) -> Stencil:
    """Plain n-th forward difference over offsets 0..n: O(h) accurate.

    Used as the reduced-width fallback where the second-order stencils do
    not fit inside the grid.
    """
    _check_order(n)
    offsets = tuple(range(0, n + 1))
    weights = tuple(Fraction((-1) ** (n - j) * math.comb(n, j)) for j in range(n + 1))
    return Stencil("forward", n, offsets, weights, 1)


@cache
def backward_first_order(n: int) -> Stencil:
    return _mirror(forward_first_order(n), "backward")


def node_weights(j: int, m: int, n: int) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Stencil for the n-th derivative at node j of a grid 0..m.

    Standard assignment: forward for the first n2 nodes, backward for the
    last n2, central in between.  Where the standard stencil would
    reference nodes outside 0..m, fall back to the first-order one-sided
    difference (n+1 nodes); if even that does not fit from node j, use the
    n+1-node window anchored at 0 (valid O(h) proxy anywhere inside it).

    Returns ``(offsets, weights, norm_denominator, degraded)`` with float
    weights; ``degraded`` marks any reduced-order fallback.
    """
    n2 = (n + 1) // 2
    if j < n2:
        st = forward(n)
    elif j > m - n2:
        st = backward(n)
    else:
        st = central(n)
    if j + st.offsets[0] >= 0 and j + st.offsets[-1] <= m:
        return np.asarray(st.offsets), st.weights_float(), st.norm_denominator, False
    for st in (forward_first_order(n), backward_first_order(n)):
        if j + st.offsets[0] >= 0 and j + st.offsets[-1] <= m:
            return np.asarray(st.offsets), st.weights_float(), st.norm_denominator, True
    if m >= n:
        st = forward_first_order(n)
        return np.asarray(st.offsets) - j, st.weights_float(), st.norm_denominator, True
    raise ValueError(f"grid with {m + 1} nodes is too short for any order-{n} stencil")
