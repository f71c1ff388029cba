import math
from fractions import Fraction

import numpy as np
import pytest

from fracsubst.stencils import (
    backward,
    central,
    forward,
    node_weights,
)


def frac(values):
    return tuple(Fraction(v) for v in values)


def test_central_first_orders():
    st = central(1)
    assert st.offsets == (-1, 0, 1)
    assert st.weights == frac([-1, 0, 1])
    assert st.norm_denominator == 2

    st = central(2)
    assert st.offsets == (-1, 0, 1)
    assert st.weights == frac([1, -2, 1])
    assert st.norm_denominator == 1


def test_central_fourth_is_binomial():
    assert central(4).weights == frac([1, -4, 6, -4, 1])
    assert central(4).norm_denominator == 1


def test_central_fifth():
    st = central(5)
    assert st.offsets == tuple(range(-3, 4))
    assert st.weights == frac([-1, 4, -5, 0, 5, -4, 1])
    assert st.norm_denominator == 2


def test_forward_stencils():
    st = forward(1)
    assert st.offsets == (0, 1, 2)
    assert st.weights == frac([-3, 4, -1])
    assert st.norm_denominator == 2

    st = forward(2)
    assert st.offsets == (0, 1, 2, 3)
    assert st.weights == frac([2, -5, 4, -1])
    assert st.norm_denominator == 1


def test_forward_third_moment_conditions():
    st = forward(3)
    assert st.moment(0) == 0
    assert st.moment(1) == 0
    assert st.moment(2) == 0
    assert st.moment(3) == st.norm_denominator
    assert st.moment(4) == 0


def test_backward_stencils():
    st = backward(1)
    assert st.offsets == (-2, -1, 0)
    assert st.weights == frac([1, -4, 3])
    assert st.norm_denominator == 2

    st = backward(2)
    assert st.offsets == (-3, -2, -1, 0)
    assert st.weights == frac([-1, 4, -5, 2])
    assert st.norm_denominator == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_backward_mirrors_forward(n):
    fwd, bwd = forward(n), backward(n)
    sign = 1 if n % 2 == 0 else -1
    assert bwd.offsets == tuple(-o for o in reversed(fwd.offsets))
    assert bwd.weights == tuple(sign * w for w in reversed(fwd.weights))


def _poly_coeffs(n):
    """Coefficients of (a-b)^n for even n, (a-b)^(n-1)(a^2-b^2) for odd n,
    listed ascending by offset (reverse of the descending-power listing)."""
    base = [Fraction((-1) ** k * math.comb(n if n % 2 == 0 else n - 1, k))
            for k in range((n if n % 2 == 0 else n - 1) + 1)]
    if n % 2 == 1:
        out = [Fraction(0)] * (len(base) + 2)
        for i, c in enumerate(base):
            out[i] += c       # * a^2
            out[i + 2] -= c   # * -b^2
        base = out
    return tuple(reversed(base))


@pytest.mark.parametrize("n", [2, 4, 6, 8, 3, 5, 7])
def test_central_weights_are_difference_polynomial_coefficients(n):
    assert central(n).weights == _poly_coeffs(n)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_even_central_annihilates_extra_moment(n):
    st = central(n)
    assert len(st.offsets) == n + 1
    assert st.moment(n + 1) == 0


@pytest.mark.parametrize("n", range(3, 9))
def test_central_recursion_by_second_difference(n):
    inner = central(n - 2)
    outer = central(n)
    conv = {}
    for o, a in zip(inner.offsets, inner.weights):
        for shift, c in ((-1, 1), (0, -2), (1, 1)):
            conv[o + shift] = conv.get(o + shift, Fraction(0)) + a * c
    assert outer.offsets == tuple(sorted(conv))
    assert outer.weights == tuple(conv[o] for o in outer.offsets)
    assert outer.norm_denominator == inner.norm_denominator


@pytest.mark.parametrize("kind", [central, forward, backward])
@pytest.mark.parametrize("n", range(1, 6))
def test_exact_on_polynomials_up_to_degree_n_plus_1(kind, n, rng=np.random.default_rng(7)):
    st = kind(n)
    coeffs = rng.integers(-3, 4, size=n + 2).astype(float)
    h = 0.3
    at = 10
    xs = (np.arange(at + st.offsets[0], at + st.offsets[-1] + 1)) * h
    samples = np.zeros(25)
    samples[at + st.offsets[0] : at + st.offsets[-1] + 1] = np.polyval(coeffs, xs)
    deriv_coeffs = np.polyder(coeffs, n)
    expected = np.polyval(deriv_coeffs, at * h)
    got = st.coefficients() @ samples[at + np.asarray(st.offsets)] / h**n
    assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("kind", [central, forward, backward])
def test_float_weights_converted_once_and_read_only(kind):
    st = kind(3)
    w = st.coefficients()
    assert w is st.coefficients() and not w.flags.writeable
    assert w.tolist() == [float(a / st.norm_denominator) for a in st.weights]


def test_node_assignment_standard():
    offs, _ = node_weights(0, 10, 1)
    assert offs[0] == 0  # forward at the left edge
    offs, _ = node_weights(10, 10, 1)
    assert offs[-1] == 0  # backward at the right edge
    offs, _ = node_weights(5, 10, 2)
    assert tuple(offs) == (-1, 0, 1)
    # order 3 needs two off-centre nodes on each end, each reading the n+2 edge nodes
    offs, _ = node_weights(1, 10, 3)
    assert tuple(offs) == (-1, 0, 1, 2, 3)
    offs, _ = node_weights(9, 10, 3)
    assert tuple(offs) == (-3, -2, -1, 0, 1)


def test_node_assignment_fallbacks():
    offs, wts = node_weights(0, 1, 1)
    assert tuple(offs) == (0, 1) and tuple(wts) == (-1.0, 1.0)
    offs, wts = node_weights(1, 1, 1)
    assert tuple(offs) == (-1, 0) and tuple(wts) == (-1.0, 1.0)
    # on a grid of n steps every off-centre node takes the plain difference on 0..n
    offs, _ = node_weights(1, 3, 3)
    assert tuple(offs) == (-1, 0, 1, 2)
    with pytest.raises(ValueError):
        node_weights(0, 1, 2)


@pytest.mark.parametrize("n", range(1, 7))
def test_node_weights_windows_and_moments(n):
    """Every node j of every row m < 40: the window lies inside 0..m; the
    moments sum(c_l l^k) are n! [k = n] exactly for k <= n, and for k = n+1
    too unless m == n, where every node takes the plain difference on n+1
    offsets (the coefficients are integers over B, so their Fractions are
    exact); and the grid is refused exactly when m < n."""
    for m in range(40):
        if m < n:
            for j in range(m + 1):
                with pytest.raises(ValueError, match=rf"grid with {m + 1} nodes is too short for any order-{n} stencil"):
                    node_weights(j, m, n)
            continue
        for j in range(m + 1):
            offs, coef = node_weights(j, m, n)
            assert 0 <= j + offs[0] and j + offs[-1] <= m
            exact = [Fraction(c) for c in coef]
            for k in range(n + 1 if m == n else n + 2):
                assert sum(c * Fraction(int(o)) ** k for c, o in zip(exact, offs)) == (math.factorial(n) if k == n else 0)
            if m == n:
                assert len(offs) == n + 1, j


def test_rejects_bad_order():
    for bad in (0, -1, 1.5):
        with pytest.raises(ValueError):
            central(bad)
