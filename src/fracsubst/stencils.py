"""Finite-difference weights for the n-th derivative.

Every stencil is the unique solution of one moment system on a window of
integer offsets lo..hi (Fornberg, Math. Comp. 51 (1988) 699-706): the
moments sum(a_l * l^j) / j!, j = 0..hi-lo, all vanish except the n-th,
which is B.  The second-order stencils take n+2 offsets (n+1 for the
symmetric central ones of even n) with B = 1 for even n and 2 for odd n,
which makes their weights integers; ``sum(a_l * y[k+l]) / (B h^n)``
approximates the n-th derivative at node k with O(h^2) error.  The plain
n-th difference is any n+1 offsets with B = 1.  The weights are exact
rationals read off the integer Lagrange basis of the window, since the
float Vandermonde solve is badly conditioned already for moderate n.

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
    "node_weights",
]


@dataclass(frozen=True)
class Stencil:
    """Exact finite-difference weights for one derivative order and their
    norm denominator B; the approximation at node k is ``coefficients() @
    y[k + offsets] / h**deriv_order``.
    """

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

    def moment(self, j: int) -> Fraction:
        """Exact j-th offset moment sum(a_l * l^j) / j!."""
        return sum(
            (a * Fraction(o) ** j for a, o in zip(self.weights, self.offsets)),
            start=Fraction(0),
        ) / math.factorial(j)


def _norm_denominator(n: int) -> int:
    return 1 if n % 2 == 0 else 2


@cache
def _window(n: int, lo: int, hi: int, b: int) -> Stencil:
    """The stencil over offsets lo..hi (n <= hi - lo) whose moments 0..hi-lo
    are all zero except the n-th, which is b: a_l = b n! [x^n] ell_l(x), with
    ell_l the Lagrange basis polynomial of offset l on the window, whose
    coefficients are the row of the inverse Vandermonde matrix."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"derivative order must be a positive integer, got {n!r}")
    offsets = tuple(range(lo, hi + 1))
    weights = []
    for o in offsets:
        poly, denom = [1], 1  # prod (x - k) over the other offsets k, ascending powers, and prod (o - k)
        for k in offsets:
            if k != o:
                poly = [c - k * d for c, d in zip([0, *poly], [*poly, 0])]
                denom *= o - k
        weights.append(Fraction(b * math.factorial(n) * poly[n], denom))
    return Stencil(n, offsets, tuple(weights), b)


def central(n: int) -> Stencil:
    """Central weights over offsets -n2..n2, n2 = ceil(n/2): n+2 of them for
    odd n; for even n the n+1 symmetric ones also annihilate moment n+1."""
    n2 = (n + 1) // 2
    return _window(n, -n2, n2, _norm_denominator(n))


def forward(n: int) -> Stencil:
    """One-sided weights over offsets 0..n+1."""
    return _window(n, 0, n + 1, _norm_denominator(n))


def backward(n: int) -> Stencil:
    """One-sided weights over offsets -n-1..0, the mirror of :func:`forward`:
    offsets negated, weights times (-1)^n."""
    return _window(n, -n - 1, 0, _norm_denominator(n))


def node_weights(j: int, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Stencil for the n-th derivative at node j of a grid 0..m.

    Node j takes :func:`central` where it fits in 0..m, n2 = ceil(n/2) <= j
    <= m - n2.  Any other node takes the window of n+2 nodes lo..lo+n+1
    nearest to centred on it, lo = min(max(j - n2, 0), m - n - 1): the
    first n+2 nodes at the left edge, the last n+2 at the right edge, so
    node m - k reads offsets -(n+1-k)..k.  On a grid of m = n steps no such
    window fits, and the node takes the plain n-th difference on 0..n, an
    O(h) proxy anywhere inside it.

    Returns ``(offsets, coefficients)``: the derivative at node j is
    ``coefficients @ y[j + offsets] / h**n``, the float weights already
    divided by B.  On the grid m = n every node takes a plain difference,
    the central one of even n too.
    """
    n2 = (n + 1) // 2
    if n2 <= j <= m - n2:
        st = central(n)
    elif m < n:
        raise ValueError(f"grid with {m + 1} nodes is too short for any order-{n} stencil")
    else:
        width = n + 1 if m == n else n + 2
        lo = min(max(j - n2, 0), m + 1 - width) - j
        st = _window(n, lo, lo + width - 1, 1 if m == n else _norm_denominator(n))
    return np.asarray(st.offsets), st.coefficients()
