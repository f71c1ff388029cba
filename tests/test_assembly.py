import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_caputo import fractional, reference_rule

from fracsubst import assembly, caputo
from fracsubst.assembly import (
    AssembledRow,
    DerivativeTerm,
    FDEProblem,
    assemble_row,
    assemble_system,
)
from fracsubst.expr import parse
from fracsubst.oracles import caputo_power
from fracsubst.stencils import node_weights

ONE = parse("1")
ZERO = parse("0")


def single_term_problem(alpha, q=ONE, p=ZERO, f=ZERO):
    n = math.ceil(alpha)
    return FDEProblem((DerivativeTerm(alpha, q),), p, f, (0.0,) * n)


def pair_weights(alpha, m, h):
    """w[k] = ((m-k+1)h)^(n-a) - ((m-k)h)^(n-a), 1-based in k: the operator's weights[m-k+1]."""
    return [math.nan, *caputo.SubstitutionOperator(alpha, h, m).weights[m:0:-1]]


def test_weight_examples():
    assert pair_weights(0.5, 2, 0.5)[1] == pytest.approx(1.0 - math.sqrt(0.5), rel=1e-12)
    assert pair_weights(0.5, 2, 0.5)[1] == pytest.approx(0.2928932, abs=1e-7)
    # innermost pair
    assert pair_weights(0.7, 5, 0.1)[5] == pytest.approx(0.1**0.3, rel=1e-12)
    assert pair_weights(1.5, 8, 0.25)[8] == pytest.approx(0.25**0.5, rel=1e-12)


def test_weights_telescope():
    m, h, alpha, n = 37, 0.05, 0.8, 1
    total = math.fsum(pair_weights(alpha, m, h)[1:])
    assert total == pytest.approx((m * h) ** (n - alpha), rel=1e-12)


def test_first_order_columns_match_closed_forms():
    alpha, h, m = 0.7, 0.2, 10
    row = assemble_row(single_term_problem(alpha), h, m)
    phi = pair_weights(alpha, m, h)
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
    psi = pair_weights(alpha, m, h)
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
    phi = pair_weights(alpha, 2, h)
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
    assert [row.m for row in rows if row.degraded] == [2]
    # fig5's three terms of orders 2, 2 and 1: row 1 of the order-1 term lies in the prefix
    terms = (
        DerivativeTerm(1.5, parse("1.5*x^1.5")),
        DerivativeTerm(1.1, parse("-1.2*x^1.9")),
        DerivativeTerm(0.5, parse("3*x")),
    )
    bessel = FDEProblem(terms, parse("x^2 - 4"), ZERO, (0.0, 0.0))
    assert [row.m for row in assemble_system(bessel, 0.1, 20) if row.degraded] == [2]


def test_stencil_lookups_do_not_grow_with_the_grid(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return node_weights(*args)

    monkeypatch.setattr(caputo, "node_weights", counted)
    problem = FDEProblem((DerivativeTerm(1.5, ONE),), ONE, ONE, (0.0, 0.0))
    counts = []
    for m in (2**8, 2**11):
        calls.clear()
        assemble_system(problem, 5.0 / m, m)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


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


def test_a_given_norm_is_held_to_the_same_finiteness_rule():
    with pytest.raises(ValueError, match="row 1"):
        AssembledRow(1, np.array([math.inf, 1.0]), 0.0, 0.0, False, offdiag=math.inf)
    with pytest.raises(ValueError, match="row 1"):
        AssembledRow(1, np.array([1.0, math.nan]), 0.0, 0.0, False, offdiag=1.0)
    # an infinite norm of finite terms is an overflow of the sum, not of the row;
    # computed here, it overflows without a warning
    for given in (math.inf, None):
        row = AssembledRow(2, np.array([1e308, 1e308, 1.0]), 0.0, 0.0, False, offdiag=given)
        assert row.offdiag == math.inf


@pytest.mark.parametrize("h", [2.0**-10, 0.05, 1.0])
@pytest.mark.parametrize("n", [1, 2])
def test_weights_stay_accurate_as_alpha_approaches_n(n, h):
    alpha, m = n - 1e-9, 40
    s = n - alpha  # from the float alpha, not 1e-9
    w = pair_weights(alpha, m, h)
    assert w[m] == pytest.approx(h**s, rel=1e-14, abs=0)
    for k in range(1, m):
        i = m - k + 1
        expected = math.exp(s * math.log((i - 1) * h)) * math.expm1(s * math.log(i / (i - 1)))
        assert w[k] == pytest.approx(expected, rel=1e-12, abs=0), k


def test_memory_estimate_covers_the_blocks(monkeypatch):
    problem = FDEProblem((DerivativeTerm(0.5, ONE), DerivativeTerm(1.5, parse("x"))), ONE, ONE, (0.0, 0.0))
    m = 300
    owners = {}
    for row in assemble_system(problem, 0.01, m):
        owner = row.d if row.d.base is None else row.d.base
        owners[id(owner)] = owner.nbytes
    monkeypatch.setattr(os, "sysconf", lambda name: 1)  # one page of one byte
    with pytest.raises(MemoryError) as info:
        assemble_system(problem, 0.01, m)
    need, extra = map(int, re.search(r"needs (\d+) bytes of row coefficients and (\d+) bytes", str(info.value)).groups())
    assert need == 8 * sum(k + 1 for k in range(2, m + 1))
    assert need + extra == sum(owners.values()) + 8 * assembly.BLOCK_ROWS * (m + 1)  # and the |block| of the norms
    assert len(owners) < m // 8  # rows share blocks


EXPRESSIONS = ["1 + x", "2 + sin(3*x)", "exp(-x)", "0.5 + x^2", "cos(x) - 2"]


def assert_rows_match_the_reference(problem, h, m_max):
    """Rows of ``assemble_system`` against the per-node ``reference_rule``.

    Row m is sum_l q_l(t) ref_l, so its rounding scales with sum_l |q_l(t)|
    ||ref_l||_1, not with the 1-norm of the sum, which terms of opposite
    sign can cancel."""
    rows = assemble_system(problem, h, m_max)
    assert [row.m for row in rows] == list(range(problem.order, m_max + 1))
    p, f = problem.p, problem.f
    for row in rows:
        m, t = row.m, row.m * h
        want, size = np.zeros(m + 1), 0.0
        for term in problem.terms:
            _, ref, _, _ = reference_rule(term.alpha, h, m, np.zeros(m + 1))
            want += term.coefficient(t) * ref
            size += abs(term.coefficient(t)) * np.sum(np.abs(ref))
        assert np.max(np.abs(row.d - want)) <= 1e-12 * size, m
        assert row.degraded == any(m == term.n for term in problem.terms), m
        assert row.offdiag == pytest.approx(float(np.abs(row.d[:m]).sum()), rel=1e-14, abs=0), m
        assert row.p_m == pytest.approx(p(t), rel=1e-15) and row.rhs == pytest.approx(f(t), rel=1e-15)
        assert not row.d.flags.writeable


@settings(deadline=None, max_examples=25)
@given(
    alphas=st.lists(fractional, min_size=1, max_size=3),
    texts=st.lists(st.sampled_from(EXPRESSIONS), min_size=5, max_size=5),
    h=st.floats(2.0**-6, 0.5),
    data=st.data(),
)
def test_block_assembly_matches_the_per_node_reference(alphas, texts, h, data):
    r = max(math.ceil(a) for a in alphas)
    steady = max(caputo.SubstitutionOperator(a, h, 1).steady for a in alphas)
    late = steady + assembly.BLOCK_ROWS
    edge = r + assembly.BLOCK_ROWS  # first row of the second block
    m_max = data.draw(
        st.one_of(
            st.integers(r, steady - 1),  # startup rows only
            st.sampled_from([steady, late - 2, late - 1, late]),  # startup and steady rows in one or two blocks
            st.sampled_from([edge - 1, edge, edge + 1]),  # a block boundary
            st.integers(late + assembly.BLOCK_ROWS, late + 2 * assembly.BLOCK_ROWS),  # several blocks
        ),
        label="M",
    )
    qs = [parse(text) for text in texts[: len(alphas)]]
    p, f = parse(texts[3]), parse(texts[4])
    problem = FDEProblem(tuple(DerivativeTerm(a, q) for a, q in zip(alphas, qs)), p, f, (0.0,) * r)
    assert_rows_match_the_reference(problem, h, m_max)


def test_cancelling_terms_are_held_to_the_rounding_of_each_term():
    # in row 27 the terms cancel to a 1-norm of 6.2e-4, against 3.1e+1 summed over the terms
    terms = (DerivativeTerm(0.25, parse("2 + sin(3*x)")), DerivativeTerm(0.25, parse("cos(x) - 2")))
    problem = FDEProblem(terms, parse("1 + x"), parse("1 + x"), (0.0,))
    assert_rows_match_the_reference(problem, 0.08726367523072202, 67)


def test_bessel_rows_are_the_term_blocks_summed_in_term_order():
    # fig5's three terms: each system block is the first term's rows() block plus each
    # later term's, added in term order, bit for bit
    terms = (
        DerivativeTerm(1.5, parse("1.5*x^1.5")),
        DerivativeTerm(1.1, parse("-1.2*x^1.9")),
        DerivativeTerm(0.5, parse("3*x")),
    )
    problem = FDEProblem(terms, parse("x^2 - 4"), ZERO, (0.0, 0.0))
    h, m_max = 2.0**-6, 200  # startup and steady rows over four blocks
    rows = assemble_system(problem, h, m_max)
    qs = [term.coefficient(np.arange(2, m_max + 1) * h) for term in problem.terms]
    ops = [caputo.SubstitutionOperator(term.alpha, h, m_max) for term in problem.terms]
    for b0 in range(2, m_max + 1, assembly.BLOCK_ROWS):
        at = slice(b0 - 2, min(b0 + assembly.BLOCK_ROWS, m_max + 1) - 2)
        first, *later = [op.rows(b0, q[at]) for op, q in zip(ops, qs)]
        for block in later:
            first = first + block
        for i, row in enumerate(rows[at]):
            assert np.array_equal(row.d, first[i, : row.m + 1]), row.m
