import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fracsubst.assembly import BLOCK_ROWS
from fracsubst.caputo import (
    FracOrder,
    Grid,
    SubstitutionOperator,
    caputo_substitution,
    caputo_substitution_sampled,
    riemann_liouville,
    substitution_weights,
)
from fracsubst.oracles import caputo_power
from fracsubst.stencils import node_weights


def test_frac_order_validation():
    assert FracOrder(0.5).n == 1
    assert FracOrder(1.5).n == 2
    assert FracOrder(2.25).n == 3
    for bad in (1.0, 2, 0.0, -0.5, math.inf):
        with pytest.raises(ValueError):
            FracOrder(bad)


def test_grid_validation():
    g = Grid.uniform_grid(0.25, 4)
    assert g.uniform and g.h == 0.25 and g.m == 4 and g.t_end == 1.0
    g = Grid([0.0, 0.1, 0.25, 0.6, 1.0])
    assert not g.uniform and g.h is None
    with pytest.raises(ValueError):
        Grid([0.5, 1.0])
    with pytest.raises(ValueError):
        Grid([0.0, 0.5, 0.5])
    with pytest.raises(ValueError):
        Grid([0.0])


def test_grid_rejects_non_finite_nodes():
    for nodes in ([0.0, math.nan, 1.0], [0.0, 0.5, math.inf]):
        with pytest.raises(ValueError, match="grid nodes must be finite"):
            Grid(nodes)
    with pytest.raises(ValueError, match=r"finite step h > 0 .* got h=nan"):
        Grid.uniform_grid(math.nan, 4)


@pytest.mark.parametrize("alpha, h", [(1.5, 1e-200), (1.5, 1e-155), (0.5, 1e-310), (2.5, 1e-120)])
def test_operator_refuses_a_step_whose_power_underflows(alpha, h):
    # 1e-155**2 and 1e-310 are subnormal: h**n is not 0 but 1/h**n overflows
    with pytest.raises(ValueError, match=rf"^step h={h!r} is too small for order n={math.ceil(alpha)}: "):
        SubstitutionOperator(alpha, h, 8)
    SubstitutionOperator(alpha, 1e-90, 8)


def test_constant_has_zero_derivative():
    for alpha in (0.3, 0.5, 0.9):
        assert caputo_substitution(lambda x: 0.0, alpha, Grid.uniform_grid(0.1, 10)) == 0.0


def test_linear_function_is_exact_on_any_grid():
    expected = 1.0 / math.gamma(1.5)
    for grid in (Grid.uniform_grid(0.125, 8), Grid([0.0, 0.07, 0.3, 0.55, 0.7, 1.0])):
        got = caputo_substitution(lambda x: 1.0, 0.5, grid)
        assert got == pytest.approx(expected, rel=1e-14)


def test_quadratic_against_power_rule():
    got = caputo_substitution(lambda x: 2.0 * x, 0.5, Grid.uniform_grid(2.0**-10, 2**10))
    assert got == pytest.approx(caputo_power(0.5, 2, 1.0), abs=5e-4)
    assert caputo_power(0.5, 2, 1.0) == pytest.approx(1.5045056, abs=1e-7)


def test_cubic_convergence_rate():
    exact = caputo_power(0.5, 3, 1.0)
    errs = []
    for p in (6, 7, 8, 9):
        got = caputo_substitution(lambda x: 3.0 * x * x, 0.5, Grid.uniform_grid(2.0**-p, 2**p))
        errs.append(abs(got - exact))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) >= 1.35


def test_linearity():
    grid = Grid.uniform_grid(2.0**-6, 2**6)
    alpha = 0.7
    d_f = caputo_substitution(lambda x: 3 * x**2, alpha, grid)
    d_g = caputo_substitution(math.cos, alpha, grid)
    combined = caputo_substitution(lambda x: 2.0 * 3 * x**2 - 0.5 * math.cos(x), alpha, grid)
    assert combined == pytest.approx(2.0 * d_f - 0.5 * d_g, rel=1e-12, abs=1e-12)


def test_weights_positive_monotone_and_bounded():
    nodes = np.array([0.0, 0.05, 0.2, 0.21, 0.5, 0.8, 1.0])
    for s in (0.1, 0.5, 0.999):
        w = substitution_weights(nodes, s)
        assert np.all(w > 0)
        assert math.fsum(w) == pytest.approx(1.0, rel=1e-12)  # telescopes to t**s
        h_max = float(np.max(np.diff(nodes)))
        assert np.all(w <= h_max**s + 1e-15)


def test_rejects_integer_order_and_degenerate_point():
    with pytest.raises(ValueError):
        caputo_substitution(lambda x: 1.0, 1.0, Grid.uniform_grid(0.1, 10))


def test_sampled_exact_on_linear_data():
    grid = Grid.uniform_grid(0.125, 8)
    samples = 3.0 * grid.nodes
    got = caputo_substitution_sampled(samples, 0.5, grid)
    assert got == pytest.approx(3.0 / math.gamma(1.5), rel=1e-12)


def test_sampled_cubic_rate():
    exact = caputo_power(0.5, 3, 1.0)
    errs = []
    for p in (8, 9):
        grid = Grid.uniform_grid(2.0**-p, 2**p)
        errs.append(abs(caputo_substitution_sampled(grid.nodes**3, 0.5, grid) - exact))
    assert math.log2(errs[0] / errs[1]) >= 1.4


def test_sampled_above_one_on_quadratic():
    # stencils are exact on quadratics and the pair values are constant,
    # so the sum telescopes to the power-rule value
    grid = Grid.uniform_grid(2.0**-8, 2**8)
    got = caputo_substitution_sampled(grid.nodes**2, 1.5, grid)
    assert got == pytest.approx(2.0 / math.gamma(1.5), rel=1e-12)
    assert got == pytest.approx(2.2567583, abs=1e-6)


def test_sampled_requires_uniform_and_length():
    with pytest.raises(ValueError):
        caputo_substitution_sampled([0.0, 0.1, 0.9], 0.5, Grid([0.0, 0.1, 0.9]))
    grid = Grid.uniform_grid(0.5, 1)
    with pytest.raises(ValueError):
        caputo_substitution_sampled([0.0, 0.5], 1.5, grid)  # 2 nodes cannot carry y''
    with pytest.raises(ValueError):
        caputo_substitution_sampled([0.0, 0.5, 1.0], 0.5, Grid.uniform_grid(0.5, 1))


def test_riemann_liouville_zero_data_matches_caputo():
    assert riemann_liouville([0.0], 0.5, 1.2345, 2.0) == 1.2345
    assert riemann_liouville([0.0, 0.0], 1.5, -0.5, 1.0) == -0.5


def test_riemann_liouville_of_constant():
    got = riemann_liouville([1.0], 0.5, 0.0, 1.0)
    assert got == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)
    assert got == pytest.approx(0.5641896, abs=1e-7)


def test_riemann_liouville_linear_plus_one():
    caputo = caputo_power(0.5, 1, 1.0)
    got = riemann_liouville([1.0], 0.5, caputo, 1.0)
    assert got == pytest.approx(1.0 / math.gamma(1.5) + 1.0 / math.gamma(0.5), rel=1e-12)
    assert got == pytest.approx(1.6925688, abs=1e-7)


def test_riemann_liouville_argument_checks():
    with pytest.raises(ValueError):
        riemann_liouville([1.0], 0.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        riemann_liouville([1.0], 1.5, 0.0, 1.0)  # needs two Taylor coefficients


@pytest.mark.parametrize(
    "f0_derivs, caputo_value, t",
    [([math.inf], 0.0, 1.0), ([1.0, math.nan], 0.0, 1.0), ([1.0], math.nan, 1.0), ([1.0], 0.0, math.inf)],
    ids=["inf-f0", "nan-f1", "nan-caputo", "inf-t"],
)
def test_riemann_liouville_refuses_non_finite_arguments(f0_derivs, caputo_value, t):
    with pytest.raises(ValueError, match=r"^need a finite f0_derivs, caputo_value and t"):
        riemann_liouville(f0_derivs, len(f0_derivs) - 0.5, caputo_value, t)


def reference_rule(alpha, h, m, y):
    """Plain loop over every node: trapezoid node weights from scalar pair
    weights, node_weights stencils everywhere.  Returns the quadrature row,
    the assembled row, the stencil-first sum on y and that sum taken over
    |stencil terms|, the size its rounding scales with.

    The pair weights are ((i-1)h)**s * ((i/(i-1))**s - 1), evaluated so that
    nothing cancels: the plain difference loses all digits for alpha one ulp
    below n, which would make the reference the less accurate side."""
    n = math.ceil(alpha)
    s = n - alpha
    pair = [0.0, h**s] + [
        math.exp(s * math.log((i - 1) * h)) * math.expm1(s * math.log(i / (i - 1))) for i in range(2, m + 1)
    ]
    gam = math.gamma(n + 1 - alpha)
    quad = np.zeros(m + 1)
    row = np.zeros(m + 1)
    deriv = np.zeros(m + 1)
    size = np.zeros(m + 1)
    for j in range(m + 1):
        quad[j] = ((pair[m - j + 1] if j > 0 else 0.0) + pair[m - j]) / (2.0 * gam)
        offs, wts = node_weights(j, m, n)
        for o, a in zip(offs, wts):
            row[j + o] += a * quad[j] / h**n
        deriv[j] = sum(a * y[j + o] for o, a in zip(offs, wts)) / h**n
        size[j] = sum(abs(a * y[j + o]) for o, a in zip(offs, wts)) / h**n
    value = math.fsum(0.5 * (deriv[k - 1] + deriv[k]) * pair[m - k + 1] / gam for k in range(1, m + 1))
    scale = math.fsum(0.5 * (size[k - 1] + size[k]) * pair[m - k + 1] / gam for k in range(1, m + 1))
    return quad, row, value, scale


fractional = st.floats(0.0, 5.0, exclude_min=True, exclude_max=True).filter(lambda a: a != int(a))


@settings(deadline=None)
@given(
    alpha=st.one_of(fractional, st.sampled_from([1 - 1e-9, 2 - 1e-9, 3 - 1e-9, 4 - 1e-9, 5 - 1e-9])),
    h=st.floats(2.0**-10, 1.0),
    data=st.data(),
)
def test_operator_matches_plain_reference(alpha, h, data):
    n = math.ceil(alpha)
    m = data.draw(st.integers(n, 64), label="m")
    # rows m < size come from the scatter below the steady row and from a slice of row size above it
    size = data.draw(st.integers(m, 4 * 64), label="size")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    y = np.random.default_rng(seed).standard_normal(m + 1)
    g = np.random.default_rng(seed + 1).standard_normal(size + 1)
    op = SubstitutionOperator(alpha, h, size)
    quad, row, value, scale = reference_rule(alpha, h, m, y)
    assert abs(op.quadrature(g)[m - 1] - quad @ g[: m + 1]) <= 1e-12 * (np.abs(quad) @ np.abs(g[: m + 1]))
    (d,) = op.rows(m, np.array([1.0]))
    assert np.max(np.abs(d - row)) <= 1e-12 * np.sum(np.abs(row))
    assert abs(op.apply_rows(y, m, m + 1)[0] - value) <= 1e-12 * scale
    # rows n..m in one call: the first and the last are held to their references
    values = op.apply_rows(y, n, m + 1)
    assert abs(values[-1] - value) <= 1e-12 * scale
    _, _, value, scale = reference_rule(alpha, h, n, y)
    assert abs(values[0] - value) <= 1e-12 * scale


@settings(deadline=None)
@given(alpha=fractional)
@example(alpha=2.05)
@example(alpha=4.05)
@example(alpha=3 - 1e-9)
@example(alpha=5 - 1e-9)
def test_inverse_steady_kernel_grows_like_a_fractional_integral(alpha):
    # row `size` at h = 1, read from the diagonal leftwards, is the steady kernel c of the
    # lower-triangular Toeplitz system; its inverse kernel g must grow no faster than the
    # discrete fractional integral's j^(alpha-1), never geometrically (an unstable edge closure)
    size, reach = 800, 400
    row = SubstitutionOperator(alpha, 1.0, size).rows(size, np.ones(1))
    c = row[0, ::-1][: reach + 1]
    g = np.zeros(reach + 1)
    g[0] = 1.0 / c[0]
    for j in range(1, reach + 1):
        g[j] = -(c[1 : j + 1] @ g[j - 1 :: -1]) / c[0]
    j = np.arange(1, reach + 1)
    assert np.all(np.abs(g[1:]) <= 8.0 * abs(g[0]) * j ** (alpha - 1.0))


def test_rows_below_order_three_are_pinned():
    # every row of the n <= 2 operators, in 64-row blocks, bit for bit, and which row is m = n
    digest = hashlib.sha256()
    for alpha in (0.3, 0.5, 0.8, 1 - 1e-9, 1.1, 1.5, 1.9, 2 - 1e-9):
        op = SubstitutionOperator(alpha, 2.0**-6, 300)
        for b0 in range(op.n, 301, 64):
            b1 = min(b0 + 64, 301)
            out = op.rows(b0, np.ones(b1 - b0))
            digest.update(out.tobytes() + (np.arange(b0, b1) == op.n).tobytes())
    assert digest.hexdigest() == "e3485e403fd11474240154398b0fe964f303e6a315b7769c1c8d0af23368b0f1"


@pytest.mark.parametrize("alpha", [0.6, 1.5, 2.4])
def test_apply_rows_crosses_steady_and_block_boundaries(alpha):
    n = math.ceil(alpha)
    probe = SubstitutionOperator(alpha, 0.05, n)
    size = probe.steady + 2 * BLOCK_ROWS + 3
    op = SubstitutionOperator(alpha, 0.05, size)
    y = np.random.default_rng(11).standard_normal(size + 1)
    values = op.apply_rows(y, n, size + 1)
    assert values.shape == (size + 1 - n,)
    bounds = []
    for m, got in zip(range(n, size + 1), values):
        _, _, value, scale = reference_rule(alpha, 0.05, m, y)
        assert abs(got - value) <= 1e-12 * scale, m
        bounds.append(1e-12 * scale)
    mid = n + BLOCK_ROWS // 2 + 1  # a later first row
    assert np.all(np.abs(op.apply_rows(y, mid, size + 1) - values[mid - n :]) <= bounds[mid - n :])
    for b0, b1 in ((n - 1, n + 1), (n, n), (n, size + 2)):
        with pytest.raises(ValueError):
            op.apply_rows(y, b0, b1)
    for samples in (y[:size], y[None, :]):  # one sample short, and not 1-D
        with pytest.raises(ValueError, match=rf"need {size + 1} samples .* got shape {re.escape(str(samples.shape))}$"):
            op.apply_rows(samples, n, size + 1)


@pytest.mark.parametrize("alpha", [0.3, 0.8, 1.5, 2.5, 1 - 1e-9])
@pytest.mark.parametrize(
    "dnf", [lambda x: 3 * x * x, lambda x: math.cos(7 * x), lambda x: 1.0], ids=["3x^2", "cos7x", "1"]
)
def test_quadrature_rows_match_the_pointwise_rule(alpha, dnf):
    h, size = 2.0**-8, 256
    op = SubstitutionOperator(alpha, h, size)
    g = np.array([dnf(x) for x in np.arange(size + 1) * h])
    values = op.quadrature(g)
    assert values.shape == (size,)
    gam = math.gamma(op.n + 1 - alpha)
    for m in range(1, size + 1):
        grid = Grid.uniform_grid(h, m)
        terms = 0.5 * (g[:m] + g[1 : m + 1]) * substitution_weights(grid.nodes, op.n - alpha) / gam
        assert abs(values[m - 1] - caputo_substitution(dnf, alpha, grid)) <= 1e-14 * np.sum(np.abs(terms)), m
    for bad in (g[:-1], np.append(g, 0.0), g[None, :]):
        with pytest.raises(ValueError, match=rf"need {size + 1} samples .* got shape {re.escape(str(bad.shape))}$"):
            op.quadrature(bad)


def test_quadrature_of_samples_near_the_largest_float():
    # the pairs are halved before they are added, so 1.7e308 + 1.7e308 never forms
    alpha, h = 0.3, 2.0**-16
    for size in (256, 1024):
        op = SubstitutionOperator(alpha, h, size)
        values = op.quadrature(np.full(size + 1, 1.7e308))
        exact = 1.7e308 * (np.arange(1, size + 1) * h) ** 0.7 / math.gamma(1.7)
        assert np.all(np.abs(values - exact) <= 1e-13 * exact), size
    # h = 1e5: the sum overflows; h = 1: the sum 1.7e308 is finite, its division by Gamma(1.5) < 1 is not
    for h, g in ((1e5, np.full(11, 1e308)), (1.0, np.full(2, 1.7e308))):
        with pytest.raises(OverflowError, match=r"^D\^alpha of the n-th derivative is not finite in row 1$"):
            SubstitutionOperator(0.5, h, g.size - 1).quadrature(g)


def test_quadrature_rows_keep_the_accuracy_of_their_own_terms():
    # f^(n) = exp(50 x): the last samples are 5e21 times the first, and each row's rounding must
    # scale with its own terms, not with the largest samples (as a transform of all rows would)
    alpha, h, size = 0.8, 2.0**-10, 1024
    dnf = lambda x: math.exp(50 * x)  # noqa: E731
    g = np.array([dnf(x) for x in np.arange(size + 1) * h])
    values = SubstitutionOperator(alpha, h, size).quadrature(g)
    for m in (1, 2, 10, 100, 300, 700, 1024):
        grid = Grid.uniform_grid(h, m)
        terms = 0.5 * (g[:m] + g[1 : m + 1]) * substitution_weights(grid.nodes, 1 - alpha) / math.gamma(2 - alpha)
        assert abs(values[m - 1] - caputo_substitution(dnf, alpha, grid)) <= 1e-14 * np.sum(np.abs(terms)), m


def test_substitution_of_a_derivative_near_the_largest_float():
    # the pairs are halved before they are added, as in the quadrature of the same samples
    grid = Grid.uniform_grid(2.0**-16, 256)
    value = caputo_substitution(lambda x: 1.7e308, 0.3, grid)
    expected = SubstitutionOperator(0.3, grid.h, grid.m).quadrature(np.full(grid.m + 1, 1.7e308))[-1]
    assert abs(value - expected) <= 1e-13 * expected
    for dnf in (lambda x: math.inf, lambda x: math.nan, lambda x: -math.inf if x > 0.001 else math.inf):
        with pytest.raises(OverflowError, match=r"^D\^alpha of the n-th derivative is not finite in row 256$"):
            caputo_substitution(dnf, 0.3, grid)


@pytest.mark.parametrize("alpha", [2.2, 2.5, 2.9, 2.99, 3.5, 3.99, 4.5, 4.99])
def test_apply_rows_reproduces_a_cubic_above_order_two(alpha):
    # t^n sampled at h = 2^-14, 2^-11, 2^-8 for n = 3, 4, 5 is exact, and so are the stencil
    # sums on it, so only the trapezoid sum rounds
    n = math.ceil(alpha)
    m = {3: 2**14, 4: 2**11, 5: 2**8}[n]
    t = np.arange(m + 1) / m
    exact = math.factorial(n) * t[n:] ** (n - alpha) / math.gamma(n + 1 - alpha)
    values = SubstitutionOperator(alpha, 1.0 / m, m).apply_rows(t**n, n, m + 1)
    assert np.max(np.abs(values - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_one_row_of_samples_convolves_one_output(monkeypatch):
    # a lone row costs O(M): the trapezoid convolution computes no other row
    outputs = []
    convolve = np.convolve

    def counted(*args, **kwargs):
        out = convolve(*args, **kwargs)
        outputs.append(out.size)
        return out

    monkeypatch.setattr(np, "convolve", counted)
    m = 2**10
    y = (np.arange(m + 1) / m) ** 3
    SubstitutionOperator(0.8, 1.0 / m, m).apply_rows(y, m, m + 1)
    assert outputs == [1]


def test_sampled_overflow_names_its_row():
    g = Grid.uniform_grid(0.25, 4)
    with pytest.raises(OverflowError, match="row 4"):
        caputo_substitution_sampled(1.7e308 * g.nodes, 0.5, g)


def test_weights_of_far_pairs_match_the_operator():
    # log1p of the step ratio: the rounded ratio of far nodes cost 3.6e-12 here
    alpha, h, m = 0.5, 2.0**-16, 2**16
    op = SubstitutionOperator(alpha, h, m)
    w = substitution_weights(np.arange(m + 1) * h, math.ceil(alpha) - alpha)[::-1]
    assert np.max(np.abs(w - op.weights[1:]) / op.weights[1:]) <= 1e-15


def test_operator_rows_are_scaled():
    for size, m in ((8, 5), (64, 40)):  # a startup and a steady row
        op = SubstitutionOperator(1.5, 0.125, size)
        scaled = op.rows(m, np.array([3.0]))
        plain = op.rows(m, np.array([1.0]))
        assert scaled.shape == plain.shape == (1, m + 1)
        assert np.allclose(scaled, 3.0 * plain, rtol=1e-15, atol=0)
        for bad in (1, size + 1):
            with pytest.raises(ValueError):
                op.rows(bad, np.ones(1))
    with pytest.raises(ValueError):
        SubstitutionOperator(1.5, 0.0, 8)


@pytest.mark.parametrize("alpha", [0.6, 1.5, 2.4])
def test_block_straddling_steady_equals_the_stacked_rows(alpha):
    op = SubstitutionOperator(alpha, 0.05, 40)
    b0, b1 = op.n, op.steady + 5  # row n, scattered and Toeplitz rows in one block
    scale = np.random.default_rng(7).uniform(-2.0, 2.0, b1 - b0)
    written = op.rows(b0, scale)
    assert written.shape == (b1 - b0, b1) and written.flags.c_contiguous
    for i, m in enumerate(range(b0, b1)):
        (d,) = op.rows(m, scale[i : i + 1])
        assert np.array_equal(written[i, : m + 1], d) and np.all(written[i, m + 1 :] == 0.0), m
    for bad_b0, rows in ((op.n - 1, b1 - b0), (op.size, 2)):
        with pytest.raises(ValueError):
            op.rows(bad_b0, np.ones(rows))


@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5])
def test_boundary_columns_take_steady_rows_only(alpha):
    op = SubstitutionOperator(alpha, 0.05, 40)
    for i in range(op.a):
        assert op.boundary(op.steady, i).shape == (op.size - op.steady + 1,)
        assert op.boundary(op.size, i).shape == (1,)
    for m0, i in ((op.steady - 1, 0), (op.size + 1, 0), (op.steady, op.a), (op.steady, -1)):
        with pytest.raises(ValueError, match=rf"column {i} of rows {m0}\.\.40 is not below {op.a} in steady rows {op.steady}\.\.40$"):
            op.boundary(m0, i)


@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5, 4.5])
def test_boundary_columns_from_one_matrix_product_match_the_row_products(alpha):
    # the columns the solver takes past its start block, one convolution each, against the columns below a
    # of rows() in 256-row blocks, one product per row: the same columns to the rounding of a row
    size = 2 * 4096 + 100
    op = SubstitutionOperator(alpha, 5 / size, size)
    scale = np.linspace(1.0, 3.0, op.size - op.steady + 1)
    columns = np.stack([op.boundary(op.steady, i) for i in range(op.a)], axis=1) * scale[:, None]
    rows = np.concatenate([op.rows(op.steady + i, scale[i : i + 256])[:, : op.a] for i in range(0, scale.size, 256)])
    assert columns.shape == rows.shape
    assert np.all(np.abs(columns - rows) <= 1e-15 * np.abs(rows).max(axis=1, keepdims=True))
