import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracsubst.expr import (
    BinOp,
    Call,
    DomainError,
    Neg,
    Num,
    ParseError,
    UnknownIdentifierError,
    Var,
    parse,
)


def test_literal():
    assert parse("1") == Num(1.0)
    assert parse("1")(3.7) == 1.0


def test_variable_spellings_alias():
    assert parse("x") == parse("t") == Var()
    assert parse("t^2")(3.0) == 9.0


def test_decay_product_tree():
    tree = parse("x*exp(-x)")
    assert tree == BinOp("*", Var(), Call("exp", Neg(Var())))
    assert tree(1.0) == pytest.approx(0.3678794, abs=1e-7)


def test_damped_oscillation_parses():
    tree = parse("exp(-x)*sin(0.2*x)")
    assert tree(0.0) == 0.0
    assert tree(1.0) == pytest.approx(math.exp(-1) * math.sin(0.2), rel=1e-14)


def test_reciprocal_exponential():
    assert parse("x^(-1)*exp(-1/x)")(2.0) == pytest.approx(0.3032653, abs=1e-7)


def test_precedence():
    assert parse("2+3*4")(0.0) == 14.0
    assert parse("2^3^2")(0.0) == 512.0  # right-associative
    assert parse("-2^2")(0.0) == -4.0
    assert parse("-x^2")(3.0) == -9.0
    assert parse("2*3+4")(0.0) == 10.0
    assert parse("(2+3)*4")(0.0) == 20.0


def test_gamma_available():
    assert parse("gamma(0.5)")(0.0) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_syntax_errors_carry_offsets():
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("   ")
    err = pytest.raises(ParseError, parse, "2x").value
    assert err.offset == 1  # no implicit multiplication
    err = pytest.raises(ParseError, parse, "1+").value
    assert err.offset == 2
    err = pytest.raises(ParseError, parse, "(1+2").value
    assert err.offset == 4
    err = pytest.raises(ParseError, parse, "1 $ 2").value
    assert err.offset == 2


def test_unknown_identifier():
    err = pytest.raises(UnknownIdentifierError, parse, "foo(3)").value
    assert err.offset == 0
    with pytest.raises(UnknownIdentifierError):
        parse("x + y")


def test_function_requires_parens():
    with pytest.raises(ParseError):
        parse("exp 3")


def test_domain_errors():
    with pytest.raises(DomainError):
        parse("ln(x)")(-1.0)
    with pytest.raises(DomainError):
        parse("1/x")(0.0)
    with pytest.raises(DomainError):
        parse("gamma(x)")(-2.0)
    with pytest.raises(DomainError):
        parse("sqrt(x)")(-1.0)
    with pytest.raises(DomainError):
        parse("x^0.5")(-2.0)


def test_evaluation_is_pure():
    tree = parse("x^2 + 1")
    assert tree(2.0) == 5.0
    assert tree(2.0) == 5.0
    assert tree == parse("x^2 + 1")


# random trees mirroring what the parser can produce (literals nonnegative;
# negation is an explicit node)
_safe_leaf = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=10.0, allow_nan=False)),
    st.just(Var()),
)


def _combine(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from("+-*/^"), children, children),
        st.builds(Call, st.sampled_from(["exp", "ln", "sin", "cos", "sqrt", "abs", "gamma"]), children),
    )


_trees = st.recursive(_safe_leaf, _combine, max_leaves=24)


@given(_trees)
def test_print_parse_round_trip_is_structural(tree):
    assert parse(str(tree)) == tree


@given(_trees, st.floats(min_value=0.1, max_value=3.0))
def test_print_parse_round_trip_preserves_values(tree, v):
    try:
        expected = tree(v)
    except DomainError:
        return
    again = parse(str(tree))(v)
    assert again == pytest.approx(expected, rel=1e-14, abs=1e-300)


def test_non_finite_results_are_domain_errors():
    with pytest.raises(DomainError, match=r"^'1e\+200\*x\*1e\+200' is not finite at x=2\.0 \(operands 2e\+200, 1e\+200\)$"):
        parse("1e200*x*1e200")(2.0)
    with pytest.raises(DomainError, match="is not finite"):
        parse("x/1e-320")(1.0)
    with pytest.raises(DomainError, match="is not finite"):
        parse("1e308 + x")(1e308)
    assert parse("1e200*x")(1e100) == 1e300


def test_non_finite_literal_is_a_parse_error():
    with pytest.raises(ParseError) as info:
        parse("x + 1e999")
    assert info.value.offset == 4


def test_array_evaluation_matches_points():
    grid = np.arange(1, 41) * 0.125
    closed_forms = {
        "x*exp(-x)": lambda t: t * math.exp(-t),
        "exp(-x)*sin(0.2*x)": lambda t: math.exp(-t) * math.sin(0.2 * t),
        "x^(-1)*exp(-1/x)": lambda t: t**-1 * math.exp(-1 / t),
        "1.5*x^1.5": lambda t: 1.5 * t**1.5,
        "x^2 - 4": lambda t: t**2 - 4,
        "gamma(x) + abs(cos(x))": lambda t: math.gamma(t) + abs(math.cos(t)),
        "3": lambda t: 3.0,
    }
    for text, closed_form in closed_forms.items():
        got = parse(text)(grid)
        assert isinstance(got, np.ndarray) and got.shape == grid.shape and got.dtype == float
        assert got == pytest.approx([closed_form(t) for t in grid.tolist()], rel=4e-16, abs=0), text


def test_array_evaluation_names_the_first_failing_point():
    with pytest.raises(DomainError, match=r"^ln\(0\.0\) undefined at x=1\.0$"):
        parse("ln(x-1)")(np.array([1.5, 2.0, 1.0, 0.5]))
    with pytest.raises(DomainError, match=r"'1\.0/x' is not finite at x=0\.0"):
        parse("1/x")(np.array([1.0, 0.0]))
    with pytest.raises(DomainError, match=r"'1e\+200\*x\*1e\+200' is not finite at x=2\.0"):
        parse("1e200*x*1e200")(np.array([1e-300, 2.0]))
    with pytest.raises(DomainError, match=r"gamma\(-2\.0\) undefined at x=-2\.0"):
        parse("gamma(x)")(np.array([1.0, -2.0]))


def test_scalar_evaluation_stays_on_floats():
    value = parse("x*exp(-x) + sin(0.2*x)")(2.0)
    assert type(value) is float
    assert value == 2.0 * math.exp(-2.0) + math.sin(0.2 * 2.0)


def test_numpy_scalars_give_floats_and_no_warning():
    # a grid node read from an array is a numpy scalar, whose 1/0 would warn and give inf
    with pytest.raises(DomainError) as info:
        parse("1/(x-1)")(np.float64(1.0))
    assert str(info.value) == "'1.0/(x-1.0)' is not finite at x=1.0 (operands 1.0, 0.0)"
    value = parse("x^0.5")(np.float64(2.0))
    assert type(value) is float and value == 2.0**0.5
    assert type(parse("x")(3)) is float


def test_results_are_new_arrays_of_the_argument_shape():
    ts = np.array([1.0, 2.0])
    values = parse("x")(ts)
    assert values is not ts and not np.shares_memory(values, ts)
    values[0] = 5.0
    assert ts[0] == 1.0
    for text in ("x", "x^2", "3", "-x", "exp(x)"):
        value = parse(text)(np.array(2.0))
        assert isinstance(value, np.ndarray) and value.shape == () and value.dtype == float, text
