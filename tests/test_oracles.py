import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from fracsubst.caputo import Grid, caputo_substitution
from fracsubst.oracles import (
    ConvergenceError,
    bessel_residual,
    bessel_series,
    caputo_power,
    mittag_leffler,
    relaxation_solution,
)


def test_power_rule_zero_cases():
    assert caputo_power(0.5, 0, 1.0) == 0.0
    assert caputo_power(1.5, 0, 2.0) == 0.0
    assert caputo_power(1.5, 1, 0.5) == 0.0


def test_power_rule_values():
    assert caputo_power(0.5, 1, 1.0) == pytest.approx(1.0 / math.gamma(1.5), rel=1e-14)
    assert caputo_power(0.5, 1, 1.0) == pytest.approx(1.1283792, abs=1e-7)
    assert caputo_power(1.5, 2, 1.0) == pytest.approx(2.0 / math.gamma(1.5), rel=1e-14)
    assert caputo_power(1.5, 2, 1.0) == pytest.approx(2.2567583, abs=1e-7)
    assert caputo_power(0.5, 3, 0.25) == pytest.approx(
        math.gamma(4) / math.gamma(3.5) * 0.25**2.5, rel=1e-14
    )


def test_power_rule_rejects_gamma_pole():
    with pytest.raises(ValueError):
        caputo_power(1.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        caputo_power(2.5, 1.5, 1.0)
    with pytest.raises(ValueError):
        caputo_power(0.5, -1.0, 1.0)
    with pytest.raises(ValueError):
        caputo_power(-0.5, 1.0, 1.0)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.5])
@pytest.mark.parametrize("beta", [1, 2, 3])
def test_power_rule_agrees_with_substitution_quadrature(alpha, beta):
    n = math.ceil(alpha)
    if beta < n:
        dnf = lambda x: 0.0
    else:
        c = math.gamma(beta + 1) / math.gamma(beta - n + 1)
        dnf = lambda x: c * x ** (beta - n)
    grid = Grid.uniform_grid(2.0**-12, 2**12)
    assert caputo_substitution(dnf, alpha, grid) == pytest.approx(
        caputo_power(alpha, beta, 1.0), abs=5e-4
    )


def test_mittag_leffler_reduces_to_exponential():
    assert mittag_leffler(1.0, 1.0, 1.0) == pytest.approx(math.e, abs=1e-9)
    assert mittag_leffler(1.0, 1.0, -2.5) == pytest.approx(math.exp(-2.5), abs=1e-9)


def test_mittag_leffler_at_zero_is_leading_coefficient():
    assert mittag_leffler(1.5, 2.5, 0.0) == pytest.approx(1.0 / math.gamma(2.5), rel=1e-14)
    assert mittag_leffler(1.5, 2.5, 0.0) == pytest.approx(0.7522528, abs=1e-7)


def test_mittag_leffler_with_gamma_arguments_at_and_below_zero():
    # 1/Gamma vanishes at the poles 0 and -1, so E_{1,-1}(z) = sum_{k>=2} z^k/(k-2)! = z^2 e^z
    assert mittag_leffler(1.0, -1.0, 1.5) == pytest.approx(1.5**2 * math.exp(1.5), rel=1e-12)
    # Gamma(-0.5) < 0 takes the plain power and reciprocal
    expected = math.fsum(0.7**k / math.gamma(k - 0.5) for k in range(80))
    assert mittag_leffler(1.0, -0.5, 0.7) == pytest.approx(expected, rel=1e-15)


def test_mittag_leffler_reduces_to_cosine():
    assert mittag_leffler(2.0, 1.0, -1.0) == pytest.approx(math.cos(1.0), abs=1e-9)
    assert mittag_leffler(2.0, 1.0, -4.0) == pytest.approx(math.cos(2.0), abs=1e-9)


def test_mittag_leffler_regime_checks():
    with pytest.raises(ValueError):
        mittag_leffler(1.0, 1.0, 51.0)
    with pytest.raises(ValueError):
        mittag_leffler(0.0, 1.0, 1.0)
    with pytest.raises(ConvergenceError):
        mittag_leffler(0.05, 1.0, 40.0)
    with pytest.raises(ConvergenceError, match="did not settle"):
        mittag_leffler(0.001, 1.0, 0.9999)  # 10^4 terms of about 0.9999^k each


def test_relaxation_zero_start():
    assert relaxation_solution(1.5, 0.0) == 0.0


def test_relaxation_classical_limit():
    assert relaxation_solution(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-9)
    assert relaxation_solution(1.0, 1.0) == pytest.approx(0.6321206, abs=1e-7)


def test_relaxation_value_verified_by_power_rule_residual():
    # y(t) = sum_{j>=1} (-1)^(j-1) t^(1.5 j) / Gamma(1.5 j + 1) solves
    # D^1.5 y + y = 1; check the residual term by term, then pin the value
    alpha, t = 1.5, 1.0
    y = math.fsum((-1) ** (j - 1) / math.gamma(alpha * j + 1) for j in range(1, 60))
    dy = math.fsum(
        (-1) ** (j - 1) * caputo_power(alpha, alpha * j, t) / math.gamma(alpha * j + 1)
        for j in range(1, 60)
    )
    assert abs(dy + y - 1.0) < 1e-8
    assert relaxation_solution(alpha, t) == pytest.approx(y, rel=1e-12)
    assert relaxation_solution(alpha, t) == pytest.approx(0.6033706346819117, rel=1e-12)


def test_relaxation_argument_checks():
    with pytest.raises(ValueError):
        relaxation_solution(2.5, 1.0)
    with pytest.raises(ValueError):
        relaxation_solution(1.5, -1.0)


def test_bessel_indicial_roots_vs_published_digits():
    assert bessel_series(2.0, 50).gamma == pytest.approx(2.1995, abs=5e-4)
    assert bessel_series(3.5, 50).gamma == pytest.approx(4.3181, abs=5e-4)


def test_bessel_indicial_equation_is_satisfied():
    for nu in (2.0, 3.5):
        g = bessel_series(nu, 10).gamma
        lhs = 1.5 * math.gamma(g + 1) / math.gamma(g - 0.5)
        assert lhs == pytest.approx(nu * nu, rel=1e-10)


def test_bessel_series_normalization_and_radius():
    sol = bessel_series(2.0, 400)
    assert sol.coeffs[0] == 1.0
    assert sol.s == pytest.approx(0.1, rel=1e-12)
    assert 1.5 < sol.radius_hint < 3.5
    wide = bessel_series(2.0, 1500)
    assert wide.radius_hint > 5.0
    # inside the trusted radius the two truncations agree
    x = 0.9 * sol.radius_hint
    assert sol(x) == pytest.approx(wide(x), abs=1e-6)


def test_bessel_series_evaluates_a_fine_grid_in_small_chunks():
    sol = bessel_series(2.0, 1500)
    xs = np.linspace(0.0, 5.0, 4097)
    exponents = sol.gamma + sol.s * np.arange(sol.coeffs.size)
    want = np.exp(np.log(xs[1:])[:, None] * exponents) @ sol.coeffs  # the whole 4096 x 1501 matrix at once
    tracemalloc.start()
    try:
        got = sol(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[0] == 0.0 and np.array_equal(got[1:], want)
    assert peak < 16 * 2**20  # the one-shot matrix alone is 49 MB


def test_bessel_series_residual_shrinks_with_terms():
    r200 = abs(bessel_residual(bessel_series(2.0, 200), 1.0))
    r300 = abs(bessel_residual(bessel_series(2.0, 300), 1.0))
    assert r200 < 3e-6
    assert r300 < 1e-9
    assert r300 < r200


def test_bessel_series_vector_evaluation():
    sol = bessel_series(2.0, 300)
    xs = np.array([0.0, 0.5, 1.0])
    vals = sol(xs)
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(sol(0.5), rel=1e-14)
    assert vals[2] == pytest.approx(0.1267686443728735, rel=1e-9)


def test_bessel_argument_checks():
    with pytest.raises(ValueError):
        bessel_series(-1.0)
    with pytest.raises(ValueError):
        bessel_series(2.0, 0)
    with pytest.raises(ValueError, match=r"^indicial root not bracketed "):
        bessel_series(1e6)


def test_bessel_indicial_root_to_float_resolution():
    assert bessel_series(2.0, 50).gamma == pytest.approx(2.199515088313709, rel=1e-14)


@pytest.mark.parametrize("module", ["scipy", "numpy.fft"])
def test_import_leaves_scipy_out(module):
    # numpy.fft too: only a history longer than DIRECT_HISTORY rows needs it
    code = f"import sys, fracsubst, fracsubst.cli; print({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
