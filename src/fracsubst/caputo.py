"""Caputo (and Riemann-Liouville) derivatives of a known function at a point.

The substitution u = (t - x)**(n - alpha) removes the kernel singularity
from the Caputo integral, leaving

    D^a f(t) = 1/Gamma(n+1-a) * integral_0^(t^(n-a)) f^(n)(t - u^(1/(n-a))) du

which the trapezoidal rule turns into a finite sum with the telescoping
weights (t - x_{k-1})**(n-a) - (t - x_k)**(n-a) > 0 on any grid.  On the
uniform grid one :class:`SubstitutionOperator` per order gives the sampled
derivative, the equation rows of :mod:`.assembly` and ``fracsubst deriv``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .stencils import central, node_weights

__all__ = [
    "FracOrder",
    "Grid",
    "SubstitutionOperator",
    "caputo_substitution",
    "caputo_substitution_sampled",
    "riemann_liouville",
]


@dataclass(frozen=True)
class FracOrder:
    """Strictly fractional derivative order: n-1 < alpha < n = ceil(alpha).

    Integer orders are rejected; every formula here assumes the exponent
    n - alpha + 1 is non-integer.
    """

    alpha: float

    def __post_init__(self):
        a = float(self.alpha)
        if not math.isfinite(a) or a <= 0 or a == int(a):
            raise ValueError(f"order must be a positive non-integer, got {self.alpha!r}")

    @property
    def n(self) -> int:
        return math.ceil(self.alpha)


def _as_order(order: FracOrder | float) -> FracOrder:
    return order if isinstance(order, FracOrder) else FracOrder(float(order))


class Grid:
    """Strictly increasing nodes x_0 = 0 < x_1 < ... < x_m.

    Detects uniform spacing; ``h`` is defined only for uniform grids.
    """

    def __init__(self, nodes: Sequence[float]):
        arr = np.asarray(nodes, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("grid needs at least two nodes")
        if arr[0] != 0.0:
            raise ValueError("grid must start at 0")
        steps = np.diff(arr)
        if np.any(steps <= 0):
            raise ValueError("grid nodes must be strictly increasing")
        arr.flags.writeable = False
        self.nodes = arr
        self.uniform = bool(np.allclose(steps, steps[0], rtol=1e-9, atol=0.0))
        self.h = float(steps[0]) if self.uniform else None

    @classmethod
    def uniform_grid(cls, h: float, m: int) -> "Grid":
        if h <= 0 or m < 1:
            raise ValueError("need h > 0 and at least one step")
        return cls(np.arange(m + 1) * float(h))

    @property
    def m(self) -> int:
        return self.nodes.size - 1

    @property
    def t_end(self) -> float:
        return float(self.nodes[-1])


def _as_grid(grid: Grid | Sequence[float]) -> Grid:
    return grid if isinstance(grid, Grid) else Grid(grid)


def substitution_weights(nodes: np.ndarray, exponent: float) -> np.ndarray:
    """Telescoping weights (t-x_{k-1})**s - (t-x_k)**s, k = 1..m, t = x_m.

    Evaluated as a**s * -expm1(s*log(b/a)) to avoid the cancellation that
    the direct difference suffers when s is near 0 (alpha near n).
    """
    a = nodes[-1] - nodes[:-1]
    w = a**exponent
    w[:-1] *= -np.expm1(exponent * np.log((nodes[-1] - nodes[1:-1]) / a[:-1]))
    return w


def caputo_substitution(
    dnf: Callable[[float], float],
    order: FracOrder | float,
    grid: Grid | Sequence[float],
) -> float:
    """Caputo derivative of f at t = x_m from its n-th classical derivative.

    ``dnf`` must be evaluable on [0, t].  Error is O(h_max**(n - alpha + 1))
    for smooth f.  The products are accumulated with exact (compensated)
    summation, taken from the singular end k = m down to k = 1.
    """
    order = _as_order(order)
    grid = _as_grid(grid)
    n, alpha = order.n, order.alpha
    w = substitution_weights(grid.nodes, n - alpha)
    g = np.array([dnf(x) for x in grid.nodes], dtype=float)
    pairs = 0.5 * (g[:-1] + g[1:]) * w
    return math.fsum(pairs[::-1]) / math.gamma(n + 1 - alpha)


class SubstitutionOperator:
    """The substitution rule for D^alpha on the uniform grid x_k = k h, k <= size.

    ``weights[i] = (i h)**s - ((i-1) h)**s`` (s = n - alpha, ``weights[0] =
    0``) is the weight of the trapezoid pair at distance i from the
    evaluation point, computed once as (i h)**s * -expm1(s log1p(-1/i)) so
    that nothing cancels as alpha -> n.  The n-th derivatives under the sum
    are second-order stencils: central at interior nodes (shared as vector
    slices), :func:`node_weights` at the at most 2 ceil(n/2) edge nodes.
    """

    def __init__(self, order: FracOrder | float, h: float, size: int):
        order = _as_order(order)
        if not (math.isfinite(h) and h > 0) or size < 1:
            raise ValueError("need a finite step h > 0 and size >= 1")
        self.alpha, self.n, self.h, self.size = order.alpha, order.n, float(h), int(size)
        s = self.n - self.alpha
        i = np.arange(2.0, self.size + 1)
        w = np.empty(self.size + 1)
        w[0], w[1] = 0.0, self.h**s
        w[2:] = (i * self.h) ** s * -np.expm1(s * np.log1p(-1.0 / i))
        w.flags.writeable = False
        self.weights = w
        self._pair = w[:-1] + w[1:]  # node j of row m has trapezoid weight pair[m-j] / 2, j >= 1
        self._gamma = math.gamma(self.n + 1 - self.alpha)
        st = central(self.n)
        self._central = [(o, a / st.norm_denominator) for o, a in zip(st.offsets, st.weights_float()) if a]
        self._work = np.empty(self.size + 1)

    def _edges(self, m: int) -> tuple[int, int, list[int]]:
        """Central nodes lo..hi of row m and the nodes outside them."""
        if not self.n <= m <= self.size:
            raise ValueError(f"row m={m} outside {self.n}..{self.size} for order n={self.n}")
        lo, hi = (self.n + 1) // 2, m - (self.n + 1) // 2
        return lo, hi, [*range(min(lo, m + 1)), *range(max(lo, hi + 1), m + 1)]

    def quadrature_row(self, m: int) -> np.ndarray:
        """Weights of f^(n)(x_0..x_m) in the trapezoid sum for D^alpha f(x_m)."""
        if not 1 <= m <= self.size:
            raise ValueError(f"row m={m} outside 1..{self.size}")
        return np.concatenate(([self.weights[m]], self._pair[m - 1 :: -1])) / (2.0 * self._gamma)

    def row(self, m: int, scale: float = 1.0, out: np.ndarray | None = None) -> tuple[np.ndarray, bool]:
        """``scale`` times the coefficients of y_0..y_m in D^alpha y(x_m),
        added into ``out[:m+1]`` (fresh zeros by default); also returns
        whether a reduced-order fallback stencil was used."""
        lo, hi, edges = self._edges(m)
        d = np.zeros(m + 1) if out is None else out[: m + 1]
        k = scale / (2.0 * self._gamma)
        if lo <= hi:
            pair, tmp = self._pair[m - lo : m - hi - 1 : -1], self._work[: hi - lo + 1]
            for o, a in self._central:
                d[lo + o : hi + o + 1] += np.multiply(pair, a * (k / self.h**self.n), out=tmp)
        degraded = False
        for j in edges:
            offs, wts, bn, deg = node_weights(j, m, self.n)
            degraded = degraded or deg
            c = self.weights[m] if j == 0 else self._pair[m - j]
            d[j + offs] += wts * (k * c / (bn * self.h**self.n))
        return d, degraded

    def apply(self, y: Sequence[float], m: int) -> float:
        """D^alpha y(x_m) from samples y_0..y_m: stencil derivatives first,
        then the trapezoid sum, summed exactly."""
        lo, hi, edges = self._edges(m)
        y = np.asarray(y, dtype=float)
        g = np.zeros(m + 1)
        if lo <= hi:
            for o, a in self._central:
                g[lo : hi + 1] += a * y[lo + o : hi + o + 1]
            g[lo : hi + 1] /= self.h**self.n
        for j in edges:
            offs, wts, bn, _ = node_weights(j, m, self.n)
            g[j] = (wts @ y[j + offs]) / (bn * self.h**self.n)
        return math.fsum(0.5 * (g[:-1] + g[1:]) * self.weights[m:0:-1]) / self._gamma


def caputo_substitution_sampled(
    samples: Sequence[float],
    order: FracOrder | float,
    grid: Grid | Sequence[float],
) -> float:
    """Caputo derivative at t = x_m from samples of f on a uniform grid,
    by :meth:`SubstitutionOperator.apply` (needs m >= n)."""
    grid = _as_grid(grid)
    if not grid.uniform:
        raise ValueError("sampled evaluation requires a uniform grid")
    y = np.asarray(samples, dtype=float)
    if y.shape != grid.nodes.shape:
        raise ValueError("samples must match the grid nodes")
    return SubstitutionOperator(order, grid.h, grid.m).apply(y, grid.m)


def riemann_liouville(
    f0_derivs: Sequence[float],
    order: FracOrder | float,
    caputo_value: float,
    t: float,
) -> float:
    """Riemann-Liouville derivative from the Caputo value at the same point.

    The two definitions differ by the Taylor-prefix correction

        sum_{j=0}^{n-1} f^(j)(0) * t**(j-alpha) / Gamma(j+1-alpha),

    which vanishes for zero initial data.  ``f0_derivs`` supplies
    f(0), f'(0), ..., f^(n-1)(0).
    """
    order = _as_order(order)
    if t <= 0:
        raise ValueError("evaluation point t must be positive")
    n, alpha = order.n, order.alpha
    if len(f0_derivs) != n:
        raise ValueError(f"need the first {n} Taylor coefficients, got {len(f0_derivs)}")
    correction = math.fsum(
        f0_derivs[j] * t ** (j - alpha) / math.gamma(j + 1 - alpha) for j in range(n)
    )
    return caputo_value + correction
