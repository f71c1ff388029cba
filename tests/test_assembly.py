import math

import numpy as np
import pytest

from fracsubst.assembly import (
    AssembledRow,
    DerivativeTerm,
    FDEProblem,
    assemble_row,
    assemble_system,
    weight,
)
from fracsubst.expr import parse
from fracsubst.oracles import caputo_power

ONE = parse("1")
ZERO = parse("0")


def single_term_problem(alpha, q=ONE, p=ZERO, f=ZERO):
    n = math.ceil(alpha)
    return FDEProblem((DerivativeTerm(alpha, q),), p, f, (0.0,) * n)


def pair_weights(alpha, n, m, h):
    """w[k] = ((m-k+1)h)^(n-a) - ((m-k)h)^(n-a), 1-based in k."""
    return [math.nan] + [weight(alpha, n, k, m, h) for k in range(1, m + 1)]


def test_weight_examples():
    assert weight(0.5, 1, 1, 2, 0.5) == pytest.approx(1.0 - math.sqrt(0.5), rel=1e-12)
    assert weight(0.5, 1, 1, 2, 0.5) == pytest.approx(0.2928932, abs=1e-7)
    # innermost pair
    assert weight(0.7, 1, 5, 5, 0.1) == pytest.approx(0.1**0.3, rel=1e-12)
    assert weight(1.5, 2, 8, 8, 0.25) == pytest.approx(0.25**0.5, rel=1e-12)


def test_weights_telescope():
    m, h, alpha, n = 37, 0.05, 0.8, 1
    total = math.fsum(weight(alpha, n, k, m, h) for k in range(1, m + 1))
    assert total == pytest.approx((m * h) ** (n - alpha), rel=1e-12)


def test_weight_bounds_checked():
    with pytest.raises(ValueError):
        weight(0.5, 1, 0, 5, 0.1)
    with pytest.raises(ValueError):
        weight(0.5, 1, 6, 5, 0.1)


def test_first_order_columns_match_closed_forms():
    alpha, h, m = 0.7, 0.2, 10
    row = assemble_row(single_term_problem(alpha), h, m)
    phi = pair_weights(alpha, 1, m, h)
    norm = 4.0 * h * math.gamma(2.0 - alpha)
    expected = {
        0: -4 * phi[1] - phi[2],
        1: 4 * phi[1] - phi[2] - phi[3],
        # column 2 follows the generic accumulation: the wide-node terms of
        # the first trapezoid pair cancel, leaving no phi[1] part
        2: phi[2] - phi[3] - phi[4],
        m - 1: phi[m - 2] + phi[m - 1] - 4 * phi[m],
        m: phi[m - 1] + 4 * phi[m],
    }
    for k in range(3, m - 2):
        expected[k] = phi[k - 1] + phi[k] - phi[k + 1] - phi[k + 2]
    for k, ck in expected.items():
        assert row.d[k] == pytest.approx(ck / norm, rel=1e-12, abs=1e-15), f"column {k}"
    assert not row.degraded


def test_second_order_columns_match_closed_forms():
    alpha, h, m = 1.3, 0.1, 12
    row = assemble_row(single_term_problem(alpha), h, m)
    psi = pair_weights(alpha, 2, m, h)
    norm = 2.0 * h * h * math.gamma(3.0 - alpha)
    expected = {
        0: 3 * psi[1] + psi[2],
        1: -7 * psi[1] - psi[2] + psi[3],
        2: 5 * psi[1] - psi[2] - psi[3] + psi[4],
        3: -psi[1] + psi[2] - psi[3] - psi[4] + psi[5],
        m - 3: psi[m - 4] - psi[m - 3] - psi[m - 2] + psi[m - 1] - psi[m],
        m - 2: psi[m - 3] - psi[m - 2] - psi[m - 1] + 5 * psi[m],
        m - 1: psi[m - 2] - psi[m - 1] - 7 * psi[m],
        # last column by the generic accumulation: one part from the central
        # difference at node m-1 plus three from the one-sided at node m
        m: psi[m - 1] + 3 * psi[m],
    }
    for k in range(4, m - 3):
        expected[k] = psi[k - 1] - psi[k] - psi[k + 1] + psi[k + 2]
    for k, ck in expected.items():
        assert row.d[k] == pytest.approx(ck / norm, rel=1e-12, abs=1e-15), f"column {k}"
    assert not row.degraded


def test_short_row_uses_narrow_stencils():
    # at m=2 the last node reaches column 0 with its one-sided stencil, so
    # the long-grid closed form for column 0 does not apply
    alpha, h = 0.5, 0.5
    row = assemble_row(single_term_problem(alpha), h, 2)
    phi = pair_weights(alpha, 1, 2, h)
    norm = 4.0 * h * math.gamma(1.5)
    assert row.d[0] == pytest.approx(-4 * phi[1] / norm, rel=1e-12)
    # phi_1 = 1 - sqrt(1/2) and norm = 4 h Gamma(3/2) = sqrt(pi), so
    # d_0 = -4 phi_1 / norm = -(4 - 2 sqrt(2)) / sqrt(pi) = -0.66098921...
    assert row.d[0] == pytest.approx(-(4.0 - 2.0 * math.sqrt(2.0)) / math.sqrt(math.pi), abs=1e-7)
    assert not row.degraded


def test_row_is_additive_over_terms():
    h, m = 0.125, 9
    row_a = assemble_row(single_term_problem(0.5), h, m)
    row_b = assemble_row(single_term_problem(1.5), h, m)
    both = FDEProblem(
        (DerivativeTerm(0.5, ONE), DerivativeTerm(1.5, ONE)), ZERO, ZERO, (0.0, 0.0)
    )
    row_ab = assemble_row(both, h, m)
    assert np.allclose(row_ab.d, row_a.d + row_b.d, rtol=1e-12, atol=1e-12)


def test_coefficient_and_data_evaluated_at_row_point():
    problem = FDEProblem(
        (DerivativeTerm(0.5, parse("x^2")),), parse("2*x"), parse("exp(x)"), (0.0,)
    )
    h, m = 0.1, 7
    row = assemble_row(problem, h, m)
    base = assemble_row(single_term_problem(0.5), h, m)
    t = m * h
    assert np.allclose(row.d, t * t * base.d, rtol=1e-12)
    assert row.p_m == pytest.approx(2 * t)
    assert row.rhs == pytest.approx(math.exp(t))


def test_system_shape_and_zero_rhs():
    problem = single_term_problem(1.5)
    rows = assemble_system(problem, 0.1, 20)
    assert [row.m for row in rows] == list(range(2, 21))
    for row in rows:
        assert row.d.shape == (row.m + 1,)
        assert row.rhs == 0.0 and row.p_m == 0.0
        assert np.all(np.isfinite(row.d))


def test_relaxation_system_degraded_rows_are_early():
    problem = FDEProblem((DerivativeTerm(1.5, ONE),), ONE, ONE, (0.0, 0.0))
    rows = assemble_system(problem, 0.1, 20)
    degraded = [row.m for row in rows if row.degraded]
    assert all(m < 4 for m in degraded)


def test_linear_samples_reproduce_power_rule():
    alpha, h, m, slope = 0.4, 0.1, 12, 3.0
    row = assemble_row(single_term_problem(alpha), h, m)
    t = m * h
    y = slope * np.arange(m + 1) * h
    expected = slope * t ** (1 - alpha) / math.gamma(2 - alpha)
    assert float(row.d @ y) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_row_residual_consistency_order(alpha):
    n = math.ceil(alpha)
    beta = n + 1
    problem = single_term_problem(alpha)
    errs = []
    for p in (4, 5, 6, 7):
        h, m = 2.0**-p, 2**p
        row = assemble_row(problem, h, m)
        x = np.arange(m + 1) * h
        errs.append(abs(float(row.d @ x**beta) - caputo_power(alpha, beta, 1.0)))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) >= n - alpha + 0.8


def test_problem_validation():
    with pytest.raises(ValueError):
        FDEProblem((), ZERO, ZERO, ())
    with pytest.raises(ValueError):
        FDEProblem((DerivativeTerm(1.5, ONE),), ZERO, ZERO, (0.0,))
    with pytest.raises(ValueError):
        DerivativeTerm(2.0, ONE)
    problem = FDEProblem(
        (DerivativeTerm(1.5, ONE), DerivativeTerm(0.3, ONE)), ZERO, ZERO, (0.0, 0.0)
    )
    assert [term.alpha for term in problem.terms] == [0.3, 1.5]
    assert problem.order == 2


def test_row_validation():
    with pytest.raises(ValueError):
        assemble_row(single_term_problem(0.5), 0.1, 0)
    with pytest.raises(ValueError):
        assemble_row(single_term_problem(0.5), -0.1, 3)
    with pytest.raises(ValueError):
        assemble_system(single_term_problem(1.5), 0.1, 1)
    with pytest.raises(ValueError):
        AssembledRow(3, np.zeros(3), 0.0, 0.0, False)
    with pytest.raises(ValueError):
        AssembledRow(1, np.array([np.nan, 1.0]), 0.0, 0.0, False)


def test_row_rejects_non_finite_data():
    with pytest.raises(ValueError):
        AssembledRow(1, np.zeros(2), math.inf, 0.0, False)
    with pytest.raises(ValueError):
        AssembledRow(1, np.zeros(2), 0.0, math.nan, False)


@pytest.mark.parametrize("h", [2.0**-10, 0.05, 1.0])
@pytest.mark.parametrize("n", [1, 2])
def test_weights_stay_accurate_as_alpha_approaches_n(n, h):
    alpha, m = n - 1e-9, 40
    s = n - alpha  # from the float alpha, not 1e-9
    assert weight(alpha, n, m, m, h) == pytest.approx(h**s, rel=1e-14, abs=0)
    for k in range(1, m):
        i = m - k + 1
        expected = math.exp(s * math.log((i - 1) * h)) * math.expm1(s * math.log(i / (i - 1)))
        assert weight(alpha, n, k, m, h) == pytest.approx(expected, rel=1e-12, abs=0), k
