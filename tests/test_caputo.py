import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def reference_rule(alpha, h, m, y):
    """Plain loop over every node: trapezoid node weights from scalar pair
    weights, node_weights stencils everywhere.  Returns the quadrature row,
    the assembled row, its degraded flag, the stencil-first sum on y and
    that sum taken over |stencil terms|, the size its rounding scales with.

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
    degraded = False
    for j in range(m + 1):
        quad[j] = ((pair[m - j + 1] if j > 0 else 0.0) + pair[m - j]) / (2.0 * gam)
        offs, wts, bn, deg = node_weights(j, m, n)
        degraded = degraded or deg
        for o, a in zip(offs, wts):
            row[j + o] += a * quad[j] / (bn * h**n)
        deriv[j] = sum(a * y[j + o] for o, a in zip(offs, wts)) / (bn * h**n)
        size[j] = sum(abs(a * y[j + o]) for o, a in zip(offs, wts)) / (bn * h**n)
    value = math.fsum(0.5 * (deriv[k - 1] + deriv[k]) * pair[m - k + 1] / gam for k in range(1, m + 1))
    scale = math.fsum(0.5 * (size[k - 1] + size[k]) * pair[m - k + 1] / gam for k in range(1, m + 1))
    return quad, row, degraded, value, scale


fractional = st.floats(0.0, 3.0, exclude_min=True, exclude_max=True).filter(lambda a: a != int(a))


@settings(deadline=None)
@given(
    alpha=st.one_of(fractional, st.sampled_from([1 - 1e-9, 2 - 1e-9, 3 - 1e-9])),
    h=st.floats(2.0**-10, 1.0),
    data=st.data(),
)
def test_operator_matches_plain_reference(alpha, h, data):
    n = math.ceil(alpha)
    m = data.draw(st.integers(n, 64), label="m")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    y = np.random.default_rng(seed).standard_normal(m + 1)
    op = SubstitutionOperator(alpha, h, 64)
    quad, row, degraded, value, scale = reference_rule(alpha, h, m, y)
    assert np.max(np.abs(op.quadrature_row(m) - quad)) <= 1e-12 * np.sum(np.abs(quad))
    d, deg = op.row(m)
    assert np.max(np.abs(d - row)) <= 1e-12 * np.sum(np.abs(row))
    assert deg == degraded
    assert abs(op.apply(y, m) - value) <= 1e-12 * scale


def test_operator_row_accumulates_scaled_into_out():
    op = SubstitutionOperator(1.5, 0.125, 8)
    out = np.ones(9)
    d, degraded = op.row(5, scale=3.0, out=out)
    assert np.shares_memory(d, out) and np.all(out[6:] == 1.0)
    assert np.allclose(d, 1.0 + 3.0 * op.row(5)[0], rtol=1e-15, atol=0)
    for bad in (1, 9):
        with pytest.raises(ValueError):
            op.row(bad)
    with pytest.raises(ValueError):
        SubstitutionOperator(1.5, 0.0, 8)
