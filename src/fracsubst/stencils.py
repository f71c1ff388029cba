"""Finite-difference weights for the n-th derivative.

Every stencil is the unique solution of one moment system on a window of
integer offsets lo..hi (Fornberg, Math. Comp. 51 (1988) 699-706): the
moments sum(a_l * l^j) / j!, j = 0..hi-lo, all vanish except the n-th,
which is B.  The second-order stencils take the windows
-ceil(n/2)..ceil(n/2) (central), 0..n+1 (forward) and -n-1..0 (backward)
with B = 1 for even n and 2 for odd n, which makes their weights integers;
``sum(a_l * y[k+l]) / (B h^n)`` approximates the n-th derivative at node k
with O(h^2) error.  The plain n-th difference is the window 0..n, B = 1.
The square systems are solved in exact rational arithmetic (the float
Vandermonde solve is badly conditioned already for moderate n).

:class:`Stencil` keeps the exact weights and B; B is applied once, when its
float coefficients a_l / B, which every float reader takes, are made.
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
    "node_weights",
]


@dataclass(frozen=True)
class Stencil:
    """Exact finite-difference weights for one derivative order and their
    norm denominator B; the approximation at node k is ``coefficients() @
    y[k + offsets] / h**deriv_order``.
    """

    kind: str  # central | forward | backward
    deriv_order: int
    offsets: tuple[int, ...]
    weights: tuple[Fraction, ...]
    norm_denominator: int

    def __post_init__(self):
        c = np.array([float(a / self.norm_denominator) for a in self.weights])
        c.flags.writeable = False
        object.__setattr__(self, "_coefficients", c)

    def coefficients(self) -> np.ndarray:
        """The weights over B as floats, converted once per stencil; read-only."""
        return self._coefficients

    def apply(self, samples: np.ndarray, at: int, h: float) -> float:
        """Apply the stencil to ``samples`` around index ``at`` with step h;
        every index at + offset must lie in 0..len(samples)-1."""
        samples = np.asarray(samples, dtype=float)
        idx = np.asarray(self.offsets) + at
        if idx[0] < 0 or idx[-1] >= samples.size:
            raise ValueError(f"stencil at {at} reads indices {idx[0]}..{idx[-1]}, outside 0..{samples.size - 1}")
        return float(self.coefficients() @ samples[idx]) / h**self.deriv_order

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


@cache
def _window(kind: str, n: int, lo: int, hi: int, b: int) -> Stencil:
    """The stencil over offsets lo..hi (n <= hi - lo) whose moments 0..hi-lo
    are all zero except the n-th, which is b."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"derivative order must be a positive integer, got {n!r}")
    offsets = tuple(range(lo, hi + 1))
    matrix = [[Fraction(o) ** j for o in offsets] for j in range(len(offsets))]
    rhs = [Fraction(0)] * len(offsets)
    rhs[n] = Fraction(math.factorial(n) * b)
    return Stencil(kind, n, offsets, tuple(_solve_rational(matrix, rhs)), b)


def central(n: int) -> Stencil:
    """Central weights over offsets -n2..n2, n2 = ceil(n/2): n+2 of them for
    odd n; for even n the n+1 symmetric ones also annihilate moment n+1."""
    n2 = (n + 1) // 2
    return _window("central", n, -n2, n2, _norm_denominator(n))


def forward(n: int) -> Stencil:
    """One-sided weights over offsets 0..n+1."""
    return _window("forward", n, 0, n + 1, _norm_denominator(n))


def backward(n: int) -> Stencil:
    """One-sided weights over offsets -n-1..0, the mirror of :func:`forward`:
    offsets negated, weights times (-1)^n."""
    return _window("backward", n, -n - 1, 0, _norm_denominator(n))


def forward_first_order(n: int) -> Stencil:
    """Plain n-th forward difference over offsets 0..n, B = 1: O(h) accurate;
    the same weights are the n-th difference on any n+1 consecutive nodes."""
    return _window("forward", n, 0, n, 1)


def node_weights(j: int, m: int, n: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """Stencil for the n-th derivative at node j of a grid 0..m.

    Standard assignment: forward for the first n2 = ceil(n/2) nodes,
    backward for the last n2, central in between.  Where the standard
    stencil would reference nodes outside 0..m, fall back to the plain n-th
    difference on the first of the windows j..j+n, j-n..j and 0..n that
    fits (an O(h) proxy anywhere inside it).

    Returns ``(offsets, coefficients, degraded)``: the derivative at node j
    is ``coefficients @ y[j + offsets] / h**n``, the float weights already
    divided by B; ``degraded`` marks the fallback.
    """
    n2 = (n + 1) // 2
    st = forward(n) if j < n2 else backward(n) if j > m - n2 else central(n)
    if j + st.offsets[0] >= 0 and j + st.offsets[-1] <= m:
        return np.asarray(st.offsets), st.coefficients(), False
    if m < n:
        raise ValueError(f"grid with {m + 1} nodes is too short for any order-{n} stencil")
    lo = next(lo for lo in (j, j - n, 0) if 0 <= lo <= m - n)
    return np.arange(lo - j, lo - j + n + 1), forward_first_order(n).coefficients(), True
