import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fracsubst.assembly import BLOCK_ROWS, DerivativeTerm, FDEProblem, assemble_system
from fracsubst.caputo import SubstitutionOperator
from fracsubst.expr import DomainError, parse
from fracsubst.oracles import caputo_power, mittag_leffler, relaxation_solution
from fracsubst.solver import (
    NonFiniteSolutionError,
    SingularPivotError,
    calibrate,
    convergence_study,
    eliminate,
    init_prefix,
    report,
    solve,
)

ONE = parse("1")
ZERO = parse("0")


def test_prefix_first_order():
    assert np.array_equal(init_prefix([3.5], 0.1), [3.5])


def test_prefix_second_order():
    assert np.array_equal(init_prefix([0.0, 0.0], 0.1), [0.0, 0.0])
    assert np.allclose(init_prefix([1.0, 2.0], 0.1), [1.0, 1.2], rtol=1e-15)


def test_prefix_higher_order_taylor():
    y = init_prefix([1.0, 1.0, 2.0], 0.5)
    # y_j = 1 + (jh) + (jh)^2
    assert np.allclose(y, [1.0, 1.75, 3.0], rtol=1e-15)


def test_prefix_argument_checks():
    with pytest.raises(ValueError):
        init_prefix([], 0.1)


def test_zero_data_gives_exact_zero():
    problem = FDEProblem((DerivativeTerm(0.5, ONE),), ONE, ZERO, (0.0,))
    result = solve(problem, 0.05, 40)
    assert np.all(result.y == 0.0)
    problem = FDEProblem(
        (DerivativeTerm(0.5, ONE), DerivativeTerm(1.5, parse("x"))), ZERO, ZERO, (0.0, 0.0)
    )
    assert np.all(solve(problem, 0.125, 16).y == 0.0)


def test_elimination_matches_dense_solve():
    problem = FDEProblem((DerivativeTerm(0.5, ONE),), parse("1+x"), parse("sin(x)"), (0.7,))
    h, m_max = 0.03125, 48
    rows = assemble_system(problem, h, m_max)
    prefix = init_prefix(problem.initial_conditions, h)
    y, pivot_min = eliminate(rows, prefix)
    assert pivot_min > 0

    full = np.zeros((m_max + 1, m_max + 1))
    rhs = np.zeros(m_max + 1)
    full[0, 0], rhs[0] = 1.0, prefix[0]
    for row in rows:
        full[row.m, : row.m + 1] = row.d
        full[row.m, row.m] += row.p_m
        rhs[row.m] = row.rhs
    dense = np.linalg.solve(full, rhs)
    assert np.allclose(y, dense, rtol=1e-10, atol=1e-12)


def test_eliminate_requires_consecutive_rows():
    problem = FDEProblem((DerivativeTerm(0.5, ONE),), ONE, ONE, (0.0,))
    rows = assemble_system(problem, 0.1, 5)
    with pytest.raises(ValueError):
        eliminate(rows[1:], [0.0])


def test_manufactured_quadratic_convergence():
    # D^0.5 y = f with exact solution y = t^2
    problem = FDEProblem(
        (DerivativeTerm(0.5, ONE),), ZERO, parse(f"{2.0 / math.gamma(2.5)}*x^1.5"), (0.0,)
    )
    hs = [2.0**-p for p in (5, 6, 7, 8, 9)]
    levels = convergence_study(problem, lambda t: t * t, hs, 1.0)
    orders = [lvl.observed_order for lvl in levels[1:]]
    assert min(orders) >= 1.4
    # The stencils are exact on t^2, so each row's residual on exact samples is
    # the trapezoid remainder in u = (t - x)^(1/2): g(u) = y'(t - u^2) has
    # g'' = -4, giving (1/3) sum_k du_k^3 / Gamma(3/2) with du_k = sqrt(h)
    # (sqrt(j) - sqrt(j-1)).  Through D^(-1/2) at t = 1 that is the error
    # lead = K h^(3/2) / Gamma(3/2)^2, K = (1/3) sum_{j>=1} (sqrt(j) - sqrt(j-1))^3,
    # approached from below as h -> 0.
    j = np.arange(1, 2**20 + 1, dtype=float)
    terms = (1.0 / (np.sqrt(j) + np.sqrt(j - 1))) ** 3
    # tail beyond 2^20: sum_{j>J} 1/(8 j^1.5) ~ 1/(4 sqrt(J + 1/2))
    k_series = (math.fsum(terms[::-1]) + 1.0 / (4.0 * math.sqrt(2**20 + 0.5))) / 3.0
    for lvl in levels:
        lead = k_series * lvl.h**1.5 / math.gamma(1.5) ** 2
        assert 0.9 * lead <= lvl.max_error <= lead, (lvl, lead)


def test_refuses_a_dense_system_larger_than_memory():
    problem = FDEProblem((DerivativeTerm(1.5, ONE),), ONE, ONE, (0.0, 0.0))
    # 8 bytes x sum_{m=2}^{M} (m+1) for M = 2^22, about 70 TB; `solve` builds dense rows
    # for its start block only
    with pytest.raises(MemoryError, match="M=4194304 needs 70368794509296 bytes"):
        assemble_system(problem, 5 / 2**22, 2**22)


def test_relaxation_solve_tracks_oracle():
    problem = FDEProblem((DerivativeTerm(1.5, ONE),), ONE, ONE, (0.0, 0.0))
    result = solve(problem, 2.0**-7, 2**7)
    exact = np.array([relaxation_solution(1.5, t) for t in result.grid.nodes])
    err = float(np.max(np.abs(result.y - exact)))
    # startup regularity limits the rate for this solution; pin the level
    assert err == pytest.approx(0.028380, abs=2e-4)
    assert result.pivot_min > 0
    # "degraded" marks row m = n = 2, where every node takes the plain second
    # difference on nodes 0..2, as the n+2 = 4 nodes of a second-order
    # stencil do not fit; from m = 3 on every node gets its second-order one
    assert result.degraded_rows == (2,)


@pytest.mark.parametrize("alpha", [2.5, 3.5])
def test_relaxation_above_order_two_converges(alpha):
    # D^a y + y = 1 with zero data, y = t^a E_{a,a+1}(-t^a): the edge stencils keep the
    # scheme stable, so the error falls with h instead of growing geometrically with M
    problem = FDEProblem((DerivativeTerm(alpha, ONE),), ONE, ONE, (0.0,) * math.ceil(alpha))
    errors = []
    for m in (256, 2048):
        result = solve(problem, 1.0 / m, m)
        exact = np.array([t**alpha * mittag_leffler(alpha, alpha + 1.0, -(t**alpha)) for t in result.grid.nodes])
        errors.append(float(np.max(np.abs(result.y - exact))))
    assert errors[1] < 0.01 and errors[1] < errors[0], errors


def test_convergence_study_zero_against_self():
    problem = FDEProblem((DerivativeTerm(0.5, ONE),), ONE, ONE, (0.0,))
    h = 0.125
    result = solve(problem, h, 8)
    lookup = dict(zip(np.round(result.grid.nodes / h).astype(int), result.y))
    levels = convergence_study(problem, lambda t: lookup[round(t / h)], [h], 1.0)
    assert levels[0].max_error == 0.0
    assert math.isnan(levels[0].observed_order)


def test_convergence_study_argument_checks():
    problem = FDEProblem((DerivativeTerm(0.5, ONE),), ONE, ONE, (0.0,))
    with pytest.raises(ValueError):
        convergence_study(problem, lambda t: 0.0, [0.1, 0.2], 1.0)
    with pytest.raises(ValueError):
        convergence_study(problem, lambda t: 0.0, [0.3], 1.0)
    with pytest.raises(ValueError, match="h=1e-300"):  # its nodes would not fit in memory
        convergence_study(problem, lambda t: 0.0, [1e-300], 1e-10)


def homogeneous_bessel(nu=2.0):
    terms = (
        DerivativeTerm(1.5, parse("1.5*x^1.5")),
        DerivativeTerm(1.1, parse("-1.2*x^1.9")),
        DerivativeTerm(0.5, parse("3*x")),
    )
    return FDEProblem(terms, parse(f"x^2-{nu * nu}"), ZERO, (0.0, 0.0))


def test_calibration_scale_invariance():
    problem = homogeneous_bessel()
    h, rows = 2.0**-5, 2**5 * 2
    reference = (1.0, 0.1267686443728735)
    base = calibrate(problem, 1e-4, reference, h, rows)
    assert base.y[round(1.0 / h)] == pytest.approx(reference[1], rel=1e-12)
    for eps in (1e-3, 1e-5, 1e-6, 1e-20):
        other = calibrate(problem, eps, reference, h, rows)
        assert np.allclose(other.y, base.y, rtol=1e-8, atol=1e-14)
    with pytest.raises(ArithmeticError, match=r"^perturbed solve is 0\.0 at the reference node") as info:
        calibrate(problem, 0.0, reference, h, rows)
    assert "np.float64" not in str(info.value)


def test_stats_count_the_work_of_a_small_solve():
    # D^1.5 y + y = 1 at h = 0.125, M = 16: rows m = 2..16, m + 1 coefficients and m multiply-adds each
    counts = {"rows": 15, "coef_bytes": 1200, "madds": 135, "rows_checked": 15}
    result = solve(FDEProblem((DerivativeTerm(1.5, ONE),), ONE, ONE, (0.0, 0.0)), 0.125, 16)
    assert dict(result.stats) == counts
    with pytest.raises(TypeError):
        result.stats["rows"] = 0
    homogeneous = FDEProblem((DerivativeTerm(1.5, ONE),), ONE, ZERO, (0.0, 0.0))
    assert dict(calibrate(homogeneous, 1e-4, (1.0, 1.0), 0.125, 16).stats) == counts


def tail_stats(q):
    """``solve``'s stats for D^1.5 y + q y = 1 at M = S + 70 >= B, S = 7 the term's steady row: dense rows
    2..S-1, then a 64-row leaf, a 64-row history into the last 7 rows and a 7-row leaf; the term has a = 4
    boundary columns, built when read, and a kernel of M + 1 values"""
    m = 7 + 70
    return dict(solve(FDEProblem((DerivativeTerm(1.5, parse(q)),), ONE, ONE, (0.0, 0.0)), 5.0 / m, m).stats)


def tail_counts():
    """the counts of ``tail_stats`` less those of the leaves: (M, coef_bytes, madds)"""
    s, a, tail = 7, 4, 71
    m = s + 70
    dense = range(2, s)
    coef_bytes = 8 * sum(k + 1 for k in dense) + 8 * (m + 1) + 8 * BLOCK_ROWS**2
    history = (s - a) * tail + BLOCK_ROWS * 7  # y_a..y_(S-1) into every tail row, then leaf 1 into the rest
    return m, coef_bytes, sum(dense) + tail * a + history


def test_stats_count_the_work_past_the_start_block():
    # q = 1: the leaves share L and G: G's forward substitution, theta's product, three products a leaf
    m, coef_bytes, madds = tail_counts()
    coef_bytes += 2 * 8 * BLOCK_ROWS**2
    madds += BLOCK_ROWS * (BLOCK_ROWS - 1) // 2 + BLOCK_ROWS * (BLOCK_ROWS + 1) // 2
    madds += 3 * BLOCK_ROWS * (BLOCK_ROWS + 1) // 2 + 3 * 7 * 8 // 2
    assert tail_stats("1") == {"rows": m - 1, "coef_bytes": coef_bytes, "madds": madds, "rows_checked": m - 1}


def test_stats_count_the_work_of_the_row_leaf_past_the_start_block():
    # q = 1 + x: each leaf by forward substitution
    m, coef_bytes, madds = tail_counts()
    madds += BLOCK_ROWS * (BLOCK_ROWS - 1) // 2 + 7 * 6 // 2
    assert tail_stats("1 + x") == {"rows": m - 1, "coef_bytes": coef_bytes, "madds": madds, "rows_checked": m - 1}


def test_calibration_zero_reference_gives_zero():
    problem = homogeneous_bessel()
    result = calibrate(problem, 1e-4, (1.0, 0.0), 0.125, 16)
    assert np.all(result.y == 0.0)


def test_calibration_argument_checks():
    problem = homogeneous_bessel()
    with pytest.raises(ValueError):
        calibrate(problem, 1e-4, (0.33, 1.0), 0.125, 16)  # not a grid node
    nonzero = FDEProblem(problem.terms, problem.p, problem.f, (1.0, 0.0))
    with pytest.raises(ValueError):
        calibrate(nonzero, 1e-4, (1.0, 1.0), 0.125, 16)


def test_singular_pivot_detected():
    problem = FDEProblem((DerivativeTerm(0.5, ZERO),), ZERO, ONE, (0.0,))
    with pytest.raises(SingularPivotError) as info:
        solve(problem, 0.1, 5)
    assert info.value.row == 1


def test_singular_pivot_past_the_start_block():
    # q = x - 1 vanishes at x = 1, row 128, which the recursion past the dense start block solves
    problem = FDEProblem((DerivativeTerm(0.5, parse("x-1")),), ZERO, ONE, (0.0,))
    with pytest.raises(SingularPivotError, match=r"^near-singular pivot 0\.0 at row 128$") as info:
        solve(problem, 1.0 / 128, 256)
    assert info.value.row == 128 and type(info.value.pivot) is float
    assert "np.float64" not in str(info.value)


def test_non_finite_data_past_the_start_block_is_a_domain_error():
    problem = FDEProblem((DerivativeTerm(1.5, ONE),), ONE, parse("1/(x-3)"), (0.0, 0.0))
    with pytest.raises(DomainError, match=r"is not finite at x=3\.0 "):
        solve(problem, 1.0 / 32, 128)  # x = 3 is row 96; the start block is rows 2..6


def test_overflowing_elimination_names_the_first_non_finite_row():
    # D^0.5 y - 20 y = 1 with zero data grows like exp(400 t): y overflows at t = 1.37
    problem = FDEProblem((DerivativeTerm(0.5, ONE),), parse("-20"), ONE, (0.0,))
    with pytest.raises(NonFiniteSolutionError, match=r"not finite from row 560 ") as info:
        solve(problem, 5.0 / 2048, 2048)
    assert info.value.row == 560 and isinstance(info.value, ArithmeticError)


@pytest.mark.parametrize("f", ["1e305", "1e306", "1e307"])
def test_histories_near_the_float_limit_overflow_where_the_dense_elimination_does(f):
    # y rises to 0.77 f: the FFT history of 1024 rows must not overflow before the direct sums do,
    # and at f = 1e306 the leaf products come within about 10x of the float limit; at 1e307 the
    # shared leaves' products overflow from row 833 on, and the row leaf solves them again
    problem = FDEProblem((DerivativeTerm(0.5, ONE),), ONE, parse(f), (0.0,))
    h, m = 5.0 / 2048, 2048
    try:
        y = dense_solve(problem, h, m)[0]
    except NonFiniteSolutionError as dense:
        with pytest.raises(NonFiniteSolutionError) as info:
            solve(problem, h, m)
        assert info.value.row == dense.row == 994
    else:
        assert np.max(np.abs(solve(problem, h, m).y - y)) <= 1e-10 * np.max(np.abs(y))


@pytest.mark.parametrize("eps, row", [(1e-3, 110), (1e-2, 167), (0.1, 354), (0.3, 791)])
def test_a_near_zero_pivot_overflows_at_the_same_row_on_both_paths(eps, row):
    # D^0.5 y + p y = 1 with p = -(1 - eps) kappa_0: every pivot is eps kappa_0 and y grows until it
    # overflows.  theta = ||I - G L|| is 9e164 at eps = 1e-3 and 3e8 at 0.3, far past SHARED_THETA, so
    # the row leaf serves; test_histories_near_the_float_limit_... at f = 1e307 re-solves shared leaves
    h, m = 5.0 / 1024, 1024
    p = -(1.0 - eps) * float(SubstitutionOperator(0.5, h, m).kernel()[0])
    problem = FDEProblem((DerivativeTerm(0.5, ONE),), parse(repr(p)), ONE, (0.0,))
    for run in (dense_solve, solve):
        with pytest.raises(NonFiniteSolutionError, match=rf"^solution is not finite from row {row} on ") as info:
            run(problem, h, m)
        assert info.value.row == row


@pytest.mark.parametrize(
    "q, f, row",
    [
        ("1e-10*(x-1)", parse("1e308"), 1),  # y_1 overflows; the zero pivot at row 128 is past the start block
        ("1e-10*(x-0.0234375)", parse("1e308"), 1),  # y_1 overflows before the zero pivot at row 3
        ("1e-10*(x-1)", lambda x: 1e308 if x >= 100 / 128 else 1.0, 100),  # y_100 overflows before row 128
        ("1e-10*(x-1)", lambda x: 1e308 if x >= 5 / 128 else 1.0, 5),  # y_5 overflows, the first row past it
    ],
    ids=["crosses-the-paths", "start-block-only", "tail-only", "first-tail-row"],
)
def test_both_row_paths_raise_for_the_first_failing_row(q, f, row):
    # the start block of D^0.5 is rows 1..4: the term's steady row is S = 5
    problem = FDEProblem((DerivativeTerm(0.5, parse(q)),), ZERO, f, (0.0,))
    for run in (dense_solve, solve):
        with pytest.raises(NonFiniteSolutionError, match=rf"^solution is not finite from row {row} on ") as info:
            run(problem, 1.0 / 128, 256)
        assert info.value.row == row


def test_overflowing_assembled_row_is_an_overflow_error_naming_the_row():
    # finite data whose products overflow: 1e306 times the row-2 coefficients is inf
    problem = FDEProblem((DerivativeTerm(0.5, parse("1e306")),), ONE, ONE, (0.0,))
    for build in (solve, assemble_system):
        with pytest.raises(OverflowError, match=r"^coefficients of row 2 are not finite "):
            build(problem, 2.0**-10, 2**10)
    assert len(assemble_system(problem, 2.0**-10, 1)) == 1  # row 1 is finite
    # past the start block: q jumps to 1e307 at x = 1, row 1024, where 1e307 times the diagonal is inf
    problem = FDEProblem((DerivativeTerm(0.5, lambda t: 1.0 if t < 1 else 1e307),), ONE, ONE, (0.0,))
    for build in (solve, assemble_system):
        with pytest.raises(OverflowError, match=r"^coefficients of row 1024 are not finite "):
            build(problem, 2.0**-10, 2**11)


# in the start block, rows 1..4; from the first row past it, S = 5; and past it
@pytest.mark.parametrize("row, big", [(2, 4), (5, 10), (80, 90)])
def test_non_finite_data_is_a_value_error_before_a_later_overflow(row, big):
    # p is NaN at row `row`, and from row `big` on q = 1e308, whose products overflow
    problem = FDEProblem(
        (DerivativeTerm(0.5, lambda t: 1e308 if t >= big / 32 else 1.0),),
        lambda t: math.nan if t == row / 32 else 1.0,
        lambda t: 1.0,
        (0.0,),
    )
    for build in (solve, assemble_system):
        with pytest.raises(ValueError, match=rf"^q, p or f is not finite in row {row}$"):
            build(problem, 1 / 32, 128)


@pytest.mark.parametrize("row", [3, 10, 100])  # the start block is rows 1..4
def test_a_non_finite_coefficient_is_a_value_error_naming_its_row(row):
    problem = FDEProblem(
        (DerivativeTerm(0.5, lambda t: math.nan if t == row / 32 else 1.0),), lambda t: 1.0, lambda t: 1.0, (0.0,)
    )
    for build in (solve, assemble_system):
        with pytest.raises(ValueError, match=rf"^q, p or f is not finite in row {row}$"):
            build(problem, 1 / 32, 128)


def test_solution_respects_dominance_bound():
    problem = FDEProblem((DerivativeTerm(0.5, ONE),), parse("100"), parse("3*sin(7*x)"), (0.2,))
    result = solve(problem, 0.05, 40)
    report = result.report
    assert report.satisfied
    fmax = float(np.max(np.abs([3 * math.sin(7 * t) for t in result.grid.nodes])))
    from fracsubst.conditioning import bound

    assert np.max(np.abs(result.y)) <= bound(report, 0.2, fmax) + 1e-12


def test_non_finite_data_on_the_grid_is_a_domain_error():
    problem = FDEProblem((DerivativeTerm(1.5, ONE),), ONE, parse("1e200*x*1e200"), (0.0, 0.0))
    with pytest.raises(DomainError, match=r"'1e\+200\*x\*1e\+200' is not finite at x=0\.125"):
        solve(problem, 0.0625, 16)


def test_plain_python_callables_are_evaluated_point_by_point():
    seen = []

    def rhs(t):
        seen.append(t)
        return 1.0 if t > 0 else math.nan  # scalar-only, and never asked for t = 0

    problem = FDEProblem((DerivativeTerm(1.5, lambda t: 2.0 + math.sin(t)),), ONE, rhs, (0.0, 0.0))
    reference = FDEProblem((DerivativeTerm(1.5, parse("2 + sin(x)")),), ONE, ONE, (0.0, 0.0))
    got, want = solve(problem, 0.0625, 80).y, solve(reference, 0.0625, 80).y
    assert seen == [m * 0.0625 for m in range(2, 81)] and all(type(t) is float for t in seen)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def dense_solve(problem, h, m):
    return eliminate(assemble_system(problem, h, m), init_prefix(problem.initial_conditions, h))


# what the leaves of constant coefficients hold beyond the row leaf's: L and G, B^2 values each
SHARED_LEAF_BYTES = 2 * 8 * BLOCK_ROWS**2


def start_rows(problem, h, m):
    """(S, B) for order n <= 2: a grid of M >= B = r + 64 steps has the dense start block r..S-1, S the
    largest steady row of a term, and a shorter one is dense throughout"""
    return max(SubstitutionOperator(term.alpha, h, m).steady for term in problem.terms), problem.order + BLOCK_ROWS


def shared_leaf_bytes(problem, h, m, result):
    """``result``'s coef_bytes less those of the row leaf for order n <= 2: the dense rows and, past them,
    each term's kernel and leaf block"""
    steady, end = start_rows(problem, h, m)
    first = steady if m >= end else m + 1  # the first row past the dense ones
    held = 8 * sum(k + 1 for k in range(problem.order, first))
    if m >= end:
        ops = [SubstitutionOperator(term.alpha, h, m) for term in problem.terms]
        held += sum(op.kernel().nbytes + 8 * BLOCK_ROWS**2 for op in ops)
    return result.stats["coef_bytes"] - held


def agreement_problems():
    two_term_f = lambda t: caputo_power(0.5, 3, t) + caputo_power(1.5, 3, t) if t > 0 else 0.0  # noqa: E731
    bessel = homogeneous_bessel()
    return {
        "0.5": FDEProblem((DerivativeTerm(0.5, ONE),), ONE, ONE, (0.0,)),
        "1.5": FDEProblem((DerivativeTerm(1.5, ONE),), ONE, ONE, (0.0, 0.0)),
        "0.5-sin": FDEProblem((DerivativeTerm(0.5, parse("2 + sin(x)")),), ONE, ONE, (0.0,)),
        "1.5-sin": FDEProblem((DerivativeTerm(1.5, parse("2 + sin(x)")),), ONE, ONE, (0.0, 0.0)),
        # acceptance criterion 8's manufactured two-term equation, y = t^3
        "two-term": FDEProblem((DerivativeTerm(0.5, ONE), DerivativeTerm(1.5, ONE)), ZERO, two_term_f, (0.0, 0.0)),
        "two-term-p": FDEProblem((DerivativeTerm(0.5, parse("2")), DerivativeTerm(1.5, ONE)), parse("0.5"), ONE, (0.0, 0.0)),
        "0.5-p-x": FDEProblem((DerivativeTerm(0.5, ONE),), parse("1 + x"), ONE, (0.0,)),
        "bessel": FDEProblem(bessel.terms, bessel.p, ONE, (0.0, 1.0)),
    }


# the problems whose q_l and p are constant, so that their leaves share L and G
SHARED_LEAF = {"0.5", "1.5", "two-term", "two-term-p"}


@pytest.mark.parametrize("name", list(agreement_problems()))
def test_solve_matches_the_dense_elimination(name):
    # a grid of M < B = r + 64 steps is dense, a longer one has the dense start block r..S-1 for n <= 2
    problem = agreement_problems()[name]
    end = problem.order + BLOCK_ROWS
    for m in (end - 1, end, end + 1, 200, 2**11):
        h = 5.0 / m
        y, pivot_min = dense_solve(problem, h, m)
        result = solve(problem, h, m)
        assert np.max(np.abs(result.y - y)) <= 1e-10 * np.max(np.abs(y)), m
        assert result.pivot_min == pivot_min, m
        if m < end:
            assert np.array_equal(result.y, y), m
        steady = start_rows(problem, h, m)[0]
        shared = name in SHARED_LEAF and m >= end and m - steady >= BLOCK_ROWS  # a tail of one leaf keeps the row leaf
        assert shared_leaf_bytes(problem, h, m, result) == (SHARED_LEAF_BYTES if shared else 0), m
        # the norms past the start block: exact for one term, a bound for several
        dense = [row.offdiag for row in assemble_system(problem, h, m)] if m <= 200 else []
        for got, want in zip(result.report.offdiag, dense):
            if len(problem.terms) == 1:
                assert got == pytest.approx(want, rel=1e-12)
            else:
                assert got >= want * (1 - 1e-12)


@settings(deadline=None, max_examples=60)
@given(
    alpha=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True).filter(lambda a: a != 1.0),
    a=st.floats(0.5, 2.0),
    b=st.floats(-0.05, 1.0),
    p=st.floats(0.0, 2.0),
    m=st.integers(BLOCK_ROWS, 700),
)
@example(alpha=1.5, a=1.0, b=0.0, p=1.0, m=651)  # constant q: the leaves share L and G
@example(alpha=1.5, a=1.0, b=0.5, p=1.0, m=651)  # q varies: each leaf by forward substitution
def test_solve_matches_the_dense_elimination_for_random_problems(alpha, a, b, p, m):
    # M from B - 1 or B - 2 (no tail) to 700 mostly ends the tail on a partial leaf; q >= 0.25 on [0, 5]
    n = math.ceil(alpha)
    q = parse(f"{a!r} + {b!r}*x")
    problem = FDEProblem((DerivativeTerm(alpha, q),), parse(repr(p)), ONE, (0.0,) * n)
    h = 5.0 / m
    y, pivot_min = dense_solve(problem, h, m)
    result = solve(problem, h, m)
    assert np.max(np.abs(result.y - y)) <= 1e-10 * np.max(np.abs(y))
    assert result.pivot_min == pivot_min
    # q constant on the rows past the start block, in floats, and those rows more than one leaf
    steady, end = start_rows(problem, h, m)
    q_tail = q(np.arange(steady, m + 1) * h)
    shared = m >= end and m - steady >= BLOCK_ROWS and np.all(q_tail == q_tail[0])
    assert shared_leaf_bytes(problem, h, m, result) == (SHARED_LEAF_BYTES if shared else 0)


@pytest.mark.parametrize("alpha", [2.5, 3.5, 4.5])
def test_solve_above_order_two_is_as_close_to_the_oracle_as_the_dense_elimination(alpha):
    # for n >= 3 the two summation orders round apart by more than 1e-10, equally far from y
    problem = FDEProblem((DerivativeTerm(alpha, ONE),), ONE, ONE, (0.0,) * math.ceil(alpha))
    m = 2**11
    ts = np.arange(m + 1) / m
    exact = np.array([t**alpha * mittag_leffler(alpha, alpha + 1.0, -(t**alpha)) for t in ts])
    dense = np.max(np.abs(dense_solve(problem, 1.0 / m, m)[0] - exact))
    got = np.max(np.abs(solve(problem, 1.0 / m, m).y - exact))
    assert abs(got - dense) <= 0.05 * dense, (got, dense)


def memory_problem(name):
    if name == "relaxation":
        return FDEProblem((DerivativeTerm(1.5, ONE),), ONE, ONE, (0.0, 0.0))
    bessel = homogeneous_bessel()
    return FDEProblem(bessel.terms, bessel.p, ONE, (0.0, 1.0))


@pytest.mark.parametrize("name", ["relaxation", "bessel"])
def test_solve_memory_grows_linearly(name):
    # the dense rows of M = 2^16 would take 8 (M + 1)(M + 2) / 2 bytes, about 256 KiB per row
    problem = memory_problem(name)
    m = 2**16
    solve(problem, 5.0 / 256, 256)  # stencil caches and imports, outside the count
    tracemalloc.start()
    try:
        result = solve(problem, 5.0 / m, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(result.y)) and peak < 256 * m, peak / m


@pytest.mark.parametrize("name", ["relaxation", "bessel"])
def test_report_memory_grows_linearly(name):
    # the certificate of `condition` reads the rows of `solve`, not the dense system of about 256 KiB per row
    problem = memory_problem(name)
    m = 2**16
    report(problem, 5.0 / 256, 256)  # stencil caches and imports, outside the count
    tracemalloc.start()
    try:
        certificate = report(problem, 5.0 / m, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert certificate.rows.size == m + 1 - problem.order and peak < 256 * m, peak / m
