"""Caputo (and Riemann-Liouville) derivatives of a known function at a point.

The substitution u = (t - x)**(n - alpha) removes the kernel singularity
from the Caputo integral, leaving

    D^a f(t) = 1/Gamma(n+1-a) * integral_0^(t^(n-a)) f^(n)(t - u^(1/(n-a))) du

which the trapezoidal rule turns into a finite sum with the telescoping
weights (t - x_{k-1})**(n-a) - (t - x_k)**(n-a) > 0 on any grid.  On the
uniform grid one :class:`SubstitutionOperator` per order gives the equation
rows of :mod:`.assembly` and every D^a of samples as one convolution with its
weights: of f^(n) (``fracsubst deriv --dnf``), and of f through its stencil
values (the sampled derivative, ``fracsubst deriv --expr``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def _physical_memory() -> int:
    """Bytes of physical memory, read from ``os.sysconf`` at each call."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class Grid:
    """Strictly increasing finite nodes x_0 = 0 < x_1 < ... < x_m.

    Detects uniform spacing; ``h`` is defined only for uniform grids.  The
    grid 0, h, ..., t_end has :meth:`steps` steps, if it fits in memory.
    """

    def __init__(self, nodes: Sequence[float]):
        arr = np.asarray(nodes, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("grid needs at least two nodes")
        if not np.all(np.isfinite(arr)):
            raise ValueError("grid nodes must be finite")
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
        if not (math.isfinite(h) and h > 0) or m < 1:
            raise ValueError(f"need a finite step h > 0 and at least one step, got h={h!r}, m={m}")
        return cls(np.arange(m + 1) * float(h))

    @staticmethod
    def steps(h: float, t_end: float) -> int:
        """The step count M of the grid 0, h, ..., t_end, allocating nothing.  A ``ValueError``
        names h and t_end unless both are finite and positive, the M + 1 nodes of 8 bytes fit
        in physical memory, M = t_end / h rounded is at least 1 and |M h - t_end| <= 1e-9 t_end."""
        if not (math.isfinite(h) and h > 0 and math.isfinite(t_end) and t_end > 0):
            raise ValueError(f"grid step and end point must be finite and positive, got h={h!r}, t_end={t_end!r}")
        nodes = t_end / h + 1
        if not 8 * nodes <= _physical_memory():  # an infinite t_end / h too
            why = "t_end / h is not finite" if math.isinf(nodes) else f"its {nodes:.3g} nodes exceed physical memory"
            raise ValueError(f"grid step h={h!r} is too small for t_end={t_end!r}: {why}")
        m = round(t_end / h)
        if m < 1 or abs(m * h - t_end) > 1e-9 * t_end:
            raise ValueError(f"step {h} does not divide t_end {t_end}")
        return m

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

    Evaluated as a**s * -expm1(s*log1p(-(x_k - x_{k-1})/a)), a = t - x_{k-1}:
    nothing cancels as s -> 0 (alpha -> n), and the log takes no rounded
    ratio (t-x_k)/a, which would cost about a/(x_k - x_{k-1}) ulps.
    """
    a = nodes[-1] - nodes[:-1]
    w = a**exponent
    w[:-1] *= -np.expm1(exponent * np.log1p(-np.diff(nodes[:-1]) / a[:-1]))
    return w


def caputo_substitution(
    dnf: Callable[[float], float],
    order: FracOrder | float,
    grid: Grid | Sequence[float],
) -> float:
    """Caputo derivative of f at t = x_m from its n-th classical derivative.

    ``dnf`` must be evaluable on [0, t].  Error is O(h_max**(n - alpha + 1))
    for smooth f.  The products are accumulated with exact (compensated)
    summation, taken from the singular end k = m down to k = 1; a value
    that is not finite raises ``OverflowError``.
    """
    order = _as_order(order)
    grid = _as_grid(grid)
    n, alpha = order.n, order.alpha
    w = substitution_weights(grid.nodes, n - alpha)
    g = np.array([dnf(x) for x in grid.nodes], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        pairs = (0.5 * g[:-1] + 0.5 * g[1:]) * w  # halved first, so that finite values near the largest float add
    value = math.fsum(pairs[::-1]) / math.gamma(n + 1 - alpha) if np.all(np.isfinite(pairs)) else math.nan
    return float(_finite_rows(np.array([value]), grid.m, "the n-th derivative")[0])


class SubstitutionOperator:
    """The substitution rule for D^alpha on the uniform grid x_k = k h, k <= size.

    ``weights[i] = (i h)**s - ((i-1) h)**s`` (s = n - alpha, ``weights[0] =
    0``) is the weight of the trapezoid pair at distance i from the
    evaluation point, computed once as (i h)**s * -expm1(s log1p(-1/i)) so
    that nothing cancels as alpha -> n.  The n-th derivatives under the sum
    are the :func:`node_weights` stencils of the grid 0..m: central at
    interior nodes (shared as vector slices), the n+2 edge nodes at the at
    most 2 ceil(n/2) others, the plain n-th difference at all in row n.

    From row ``steady`` = 2 ceil(n/2) + 2n + 1 on, the left-edge stencils
    with the central taps that reach below column ``a`` = ceil(n/2) + n + 1,
    and the right-edge stencils, touch disjoint columns.  Such a row m is
    then :meth:`kernel` kappa[m - k] in column k >= a, read off row ``size``,
    and :meth:`boundary` in column i < a, row i of a fixed block convolved
    with the trapezoid weights of nodes 0..J, J = a - 1 + ceil(n/2), down a
    run of rows at once.  :meth:`rows` returns any run of consecutive rows
    as one new block, scattering those below ``steady`` node by node and
    reading the rest from those two.
    :meth:`quadrature` convolves ``weights`` with the trapezoid pairs of
    samples of f^(n).  :meth:`apply_rows` takes samples of f, stencils
    first: as every edge stencil is the same from row n + 1 on, those rows
    are the same convolution of the stencil values g (left-edge at the first
    ceil(n/2) nodes, central at the others) plus, at each node m - r, r <
    ceil(n/2), its trapezoid weight times its right-edge stencil minus
    g_{m-r}; row n is the convolution of its one plain difference.
    The stencils' float coefficients already carry their norm denominator
    B, so every stencil divides by h**n only, and a step h with h**n = 0 or
    1/h**n = inf is refused.
    """

    def __init__(self, order: FracOrder | float, h: float, size: int):
        order = _as_order(order)
        if not (math.isfinite(h) and h > 0) or size < 1:
            raise ValueError("need a finite step h > 0 and size >= 1")
        self.alpha, self.n, self.h, self.size = order.alpha, order.n, float(h), int(size)
        if self.h**self.n == 0.0 or not math.isfinite(1.0 / self.h**self.n):
            raise ValueError(f"step h={self.h!r} is too small for order n={self.n}: h**n underflows")
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
        self._central = [(o, a) for o, a in zip(st.offsets, st.coefficients()) if a]
        self.a = (self.n + 1) // 2 + self.n + 1
        self.steady = _steady_row(self.n)
        self._kernel: np.ndarray | None = None  # row `size` at scale 1, reversed; built by the first steady row
        self._block: np.ndarray | None = None

    def rows(self, b0: int, scale: np.ndarray) -> np.ndarray:
        """``scale[i]`` times row m = b0 + i, for the rows b0..b1-1 (b1 = b0 +
        len(scale), b0 >= n), as a new C-contiguous (b1 - b0, b1) block with
        zeros right of the diagonal.

        Rows below ``steady`` are scattered node by node into their row of
        the block.  In the others column k >= a is kappa[m - k], so those
        columns of all the rows are one Toeplitz view of the kernel
        (zero-padded on the left) times the scales, and column i < a is
        :meth:`boundary` of those rows times the scales.  No stencil function
        is called for them."""
        rows = scale.size
        b1 = b0 + rows
        if not (self.n <= b0 and b1 <= self.size + 1):
            raise ValueError(f"rows {b0}..{b1 - 1} are not rows {self.n}..{self.size}")
        k = min(max(self.steady - b0, 0), rows)  # rows b0..b0+k-1 are scattered
        out = np.empty((rows, b1))
        out[:k] = 0.0
        for i in range(k):
            self._scatter(b0 + i, scale[i], out[i])
        if k == rows:
            return out
        s0, a, kernel = b0 + k, self.a, self.kernel()
        for i in range(a):
            np.multiply(self.boundary(s0, b1, i), scale[k:], out=out[k:, i])
        np.multiply(_lower_toeplitz(kernel, b1 - a)[s0 - a :], scale[k:, None], out=out[k:, a:])
        return out

    def kernel(self) -> np.ndarray:
        """kappa[d], d = 0..size, read-only: column k >= a of every row m >=
        ``steady`` at scale 1 is kappa[m - k], the Toeplitz part of the rule."""
        if self._kernel is None:
            self._build_steady()
        return self._kernel

    def boundary(self, m0: int, m1: int, i: int) -> np.ndarray:
        """Column i < a of the steady rows m0..m1-1 at scale 1, a new array of
        m1 - m0 values: row i of the block against the trapezoid weights of
        nodes 0..J, one convolution with J + 1 taps over those rows only."""
        if not (self.steady <= m0 < m1 <= self.size + 1 and 0 <= i < self.a):
            raise ValueError(
                f"column {i} of rows {m0}..{m1 - 1} is not below {self.a} in steady rows {self.steady}..{self.size}"
            )
        self.kernel()  # builds the block
        v = self._block[i]
        pairs = self._pair[m0 - v.size + 1 : m1 - 1]  # pair[m - J] .. pair[m - 1] of every row m
        return (self.weights[m0:m1] * v[0] + np.convolve(pairs, v[1:], "valid")) / (2.0 * self._gamma)

    def _build_steady(self) -> None:
        """The kernel, row ``size`` by the scatter read from its diagonal
        leftwards, and the block of columns below ``a``: the taps of nodes
        0..J that reach below a, all of them left-edge or central stencils
        in row ``steady``."""
        n2, a = (self.n + 1) // 2, self.a
        block = np.zeros((a, a + n2))
        for j in range(a + n2):
            offs, wts = node_weights(j, self.steady, self.n)
            keep = j + offs < a
            block[j + offs[keep], j] += wts[keep]
        block /= self.h**self.n
        block.flags.writeable = False
        self._block = block
        tail = np.zeros(self.size + 1)
        self._scatter(self.size, 1.0, tail)
        tail.flags.writeable = False
        self._kernel = tail[::-1]

    def _scatter(self, m: int, scale: float, d: np.ndarray) -> None:
        """Add ``scale`` times row m into ``d[:m+1]`` node by node."""
        lo, hi = (self.n + 1) // 2, m - (self.n + 1) // 2
        k = scale / (2.0 * self._gamma)
        if lo <= hi:
            pair = self._pair[m - lo : m - hi - 1 : -1]
            for o, a in self._central:
                d[lo + o : hi + o + 1] += pair * (a * (k / self.h**self.n))
        for j in [*range(min(lo, m + 1)), *range(max(lo, hi + 1), m + 1)]:
            offs, wts = node_weights(j, m, self.n)
            c = self.weights[m] if j == 0 else self._pair[m - j]
            d[j + offs] += wts * (k * c / self.h**self.n)

    def apply_rows(self, y: Sequence[float], b0: int, b1: int) -> np.ndarray:
        """D^alpha y(x_m), m = b0..b1-1 (n <= b0 < b1 <= size + 1), from samples
        y_0..y_{b1-1} (a 1-D array of at least b1): the stencil values and
        one convolution as the class describes, no matrix row, with numpy's
        overflow warnings off; the first row whose value is then not finite
        raises ``OverflowError`` naming it."""
        if self.size < self.n:
            raise ValueError(f"D^{self.alpha!r} of samples needs at least {self.n} steps, got {self.size}")
        if not self.n <= b0 < b1 <= self.size + 1:
            raise ValueError(f"rows {b0}..{b1 - 1} are not a non-empty run of rows {self.n}..{self.size}")
        y = np.asarray(y, dtype=float)
        if y.ndim != 1 or y.size < b1:
            raise ValueError(f"rows {b0}..{b1 - 1} need {b1} samples y_0..y_{b1 - 1}, got shape {y.shape}")
        n, n2, hn = self.n, (self.n + 1) // 2, self.h**self.n
        k = max(b0, n + 1)  # rows k..b1-1 by the convolution of the stencil values
        values = np.empty(b1 - b0)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, by its row
            if b0 == n:  # every node of row n takes the plain difference on 0..n
                offs, wts = node_weights(0, n, n)
                values[0] = self._trapezoid(np.full(n + 1, wts @ y[offs] / hn), n)[0]
            if k < b1:
                g = np.zeros(b1)  # zero where the central stencil would read past y_{b1-1}
                for j in range(n2):
                    offs, wts = node_weights(j, k, n)
                    g[j] = wts @ y[j + offs]
                for o, a in self._central:
                    g[n2 : b1 - n2] += a * y[n2 + o : b1 - n2 + o]
                g /= hn
                q = self._trapezoid(g, k)  # rows k..b1-1
                for r in range(n2):
                    offs, wts = node_weights(k - r, k, n)
                    back = sum(a * y[k - r + o : b1 - r + o] for o, a in zip(offs, wts)) / hn
                    q += self._pair[r] / (2.0 * self._gamma) * (back - g[k - r : b1 - r])
                values[k - b0 :] = q
        return _finite_rows(values, b0, "the samples")

    def _trapezoid(self, g: np.ndarray, first: int) -> np.ndarray:
        """Rows first..len(g)-1 (first >= 1) of the trapezoid rule over node
        values g: the pairs g_{k-1}/2 + g_k/2 (halved first, so that finite
        values near the largest float add without overflow) convolved with
        weights[1:], over Gamma(n+1-alpha).  Row k sums k products; the pairs,
        left-padded with len(g)-1-first zeros, go through one "valid"
        convolution, which computes those rows only, so one row costs O(len(g))."""
        pairs = np.zeros(2 * g.size - 2 - first)
        pairs[g.size - 1 - first :] = 0.5 * g[:-1] + 0.5 * g[1:]
        return np.convolve(pairs, self.weights[1 : g.size], "valid") / self._gamma

    def quadrature(self, g: Sequence[float]) -> np.ndarray:
        """D^alpha f(x_m), m = 1..size, from the samples g_0..g_size of f^(n) by
        :meth:`_trapezoid`, with numpy's overflow warnings off; the first row
        whose value is then not finite raises ``OverflowError`` naming it."""
        g = np.asarray(g, dtype=float)
        if g.shape != (self.size + 1,):
            raise ValueError(f"{self.size} rows need {self.size + 1} samples g_0..g_{self.size}, got shape {g.shape}")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, by its row
            values = self._trapezoid(g, 1)
        return _finite_rows(values, 1, "the n-th derivative")


def _steady_row(n: int) -> int:
    """2 ceil(n/2) + 2n + 1: the first row of an order-n operator past its start-up rows, ``steady``."""
    return 2 * ((n + 1) // 2) + 2 * n + 1


def _lower_toeplitz(kernel: np.ndarray, size: int) -> np.ndarray:
    """kernel[i - j] at (i, j) for i >= j, else 0: a (size, size) read-only view, last axis reversed."""
    return sliding_window_view(np.concatenate((np.zeros(size - 1), kernel[:size])), size)[:, ::-1]


def _finite_rows(values: np.ndarray, first: int, source: str) -> np.ndarray:
    """``values`` of rows first, first+1, ...; raises ``OverflowError`` naming
    the first row whose value is not finite."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise OverflowError(f"D^alpha of {source} is not finite in row {first + bad[0]}")
    return values


def caputo_substitution_sampled(
    samples: Sequence[float],
    order: FracOrder | float,
    grid: Grid | Sequence[float],
) -> float:
    """Caputo derivative at t = x_m from samples of f on a uniform grid: the
    last row of :meth:`SubstitutionOperator.apply_rows` (needs m >= n), with
    the stencils of the grid 0..m, computed alone, in O(m)."""
    grid = _as_grid(grid)
    if not grid.uniform:
        raise ValueError("sampled evaluation requires a uniform grid")
    y = np.asarray(samples, dtype=float)
    if y.shape != grid.nodes.shape:
        raise ValueError("samples must match the grid nodes")
    m = grid.m
    return float(SubstitutionOperator(order, grid.h, m).apply_rows(y, m, m + 1)[0])


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
    f(0), f'(0), ..., f^(n-1)(0).  Every argument must be finite.
    """
    order = _as_order(order)
    if not all(math.isfinite(v) for v in (*f0_derivs, caputo_value, t)):
        raise ValueError(f"need a finite f0_derivs, caputo_value and t, got {f0_derivs!r}, {caputo_value!r}, {t!r}")
    if t <= 0:
        raise ValueError("evaluation point t must be positive")
    n, alpha = order.n, order.alpha
    if len(f0_derivs) != n:
        raise ValueError(f"need the first {n} Taylor coefficients, got {len(f0_derivs)}")
    correction = math.fsum(
        f0_derivs[j] * t ** (j - alpha) / math.gamma(j + 1 - alpha) for j in range(n)
    )
    return caputo_value + correction
