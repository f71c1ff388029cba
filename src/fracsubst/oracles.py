"""Independent analytic ground truth for verifying the numerical paths.

Everything here is derived from the Caputo power rule

    D^a t^b = Gamma(b+1) / Gamma(b-a+1) * t^(b-a)

(zero for integer b below ceil(a)): the Mittag-Leffler series, the closed
form of the relaxation equation D^a y + y = 1, and the fractional power
series of the hyper-generalized Bessel equation

    1.5 x^1.5 D^1.5 u - 1.2 x^1.9 D^1.1 u + 3 x D^0.5 u + (x^2 - nu^2) u = 0.

None of these share code with the quadrature/solver paths they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "ConvergenceError",
    "caputo_power",
    "mittag_leffler",
    "relaxation_solution",
    "SeriesSolution",
    "bessel_series",
    "bessel_residual",
    "BESSEL_TERMS",
]


class ConvergenceError(ArithmeticError):
    """A series oracle failed to converge within its term budget."""


def caputo_power(alpha: float, beta: float, t: float) -> float:
    """Caputo derivative of t**beta at t, by the power rule.

    Returns 0 for integer beta below ceil(alpha) (polynomials killed by the
    inner classical derivative).  Raises for beta - alpha + 1 at a gamma
    pole, where the rule is undefined.  The Gamma ratio is taken directly,
    or through lgamma where Gamma(beta + 1) alone would overflow.
    """
    alpha, beta, t = float(alpha), float(beta), float(t)
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive, got {alpha!r}")
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and nonnegative, got {beta!r}")
    n = math.ceil(alpha)
    if beta == int(beta) and beta < n:
        return 0.0
    denom_arg = beta - alpha + 1.0
    if denom_arg <= 0 and denom_arg == int(denom_arg):
        raise ValueError(f"gamma pole at {denom_arg}: power rule undefined")
    try:
        ratio = math.gamma(beta + 1.0) / math.gamma(denom_arg)
    except OverflowError:  # Gamma(beta + 1) is past the float range for beta > 170.6, the ratio need not be
        ratio = _gamma_ratio(beta, alpha)
    return ratio * t ** (beta - alpha)


def _recip_gamma(x: float) -> float:
    if x <= 0.0 and x == int(x):
        return 0.0  # 1/Gamma at a pole
    if x > 0.0:
        return math.exp(-math.lgamma(x))
    return 1.0 / math.gamma(x)


def mittag_leffler(a: float, b: float, z: float, tol: float = 1e-12) -> float:
    """E_{a,b}(z) = sum_k z^k / Gamma(a k + b), truncated adaptively.

    Summation stops once |term| < tol * |partial sum| holds for three
    consecutive terms.  Real z with |z| <= 50 (series regime).
    """
    a, b, z, tol = float(a), float(b), float(z), float(tol)
    if not (math.isfinite(a) and a > 0 and math.isfinite(b) and math.isfinite(tol)):
        raise ValueError(f"need a finite a > 0, b and tol, got a={a!r}, b={b!r}, tol={tol!r}")
    if not abs(z) <= 50:
        raise ValueError(f"|z| > 50 is outside the series regime, got z={z!r}")
    if z == 0.0:
        return _recip_gamma(b)
    log_abs_z = math.log(abs(z))
    total = 0.0
    comp = 0.0
    consecutive = 0
    for k in range(10_000):
        arg = a * k + b
        try:
            if arg > 0:
                term = math.exp(k * log_abs_z - math.lgamma(arg))
                if z < 0 and k % 2 == 1:
                    term = -term
            else:
                term = z**k * _recip_gamma(arg)
        except OverflowError as exc:
            raise ConvergenceError(
                f"Mittag-Leffler terms overflow for a={a}, b={b}, z={z}"
            ) from exc
        # Kahan update
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if term == 0.0 or abs(term) < tol * abs(total):
            consecutive += 1
            if consecutive >= 3:
                return total
        else:
            consecutive = 0
    raise ConvergenceError(f"Mittag-Leffler series did not settle for a={a}, b={b}, z={z}")


def relaxation_solution(alpha: float, t: float) -> float:
    """Exact solution y(t) = t^a E_{a,a+1}(-t^a) of D^a y + y = 1, y(0)=0
    (and y'(0)=0 when 1 < a < 2)."""
    alpha, t = float(alpha), float(t)
    if not 0 < alpha < 2:
        raise ValueError("relaxation closed form covers 0 < alpha < 2")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return 0.0
    return t**alpha * mittag_leffler(alpha, alpha + 1.0, -(t**alpha))


# (coefficient, x power, derivative order) of the Bessel-type equation terms
BESSEL_TERMS = ((1.5, 1.5, 1.5), (-1.2, 1.9, 1.1), (3.0, 1.0, 0.5))


def _gamma_ratio(rho: float, alpha: float) -> float:
    """Gamma(rho+1) / Gamma(rho-alpha+1), overflow-safe for large rho."""
    hi, lo = rho + 1.0, rho - alpha + 1.0
    if hi > 0 and lo > 0:
        return math.exp(math.lgamma(hi) - math.lgamma(lo))
    return math.gamma(hi) / math.gamma(lo)


@dataclass(frozen=True)
class SeriesSolution:
    """Truncated fractional power series u(x) = sum_n c_n x^(gamma + s n).

    c_0 = 1 by normalization.  ``radius_hint`` is the largest x for which
    the truncation tail is estimated below 1e-8; values beyond it lose
    accuracy to the dropped tail.
    """

    gamma: float
    s: float
    coeffs: np.ndarray
    radius_hint: float
    nu: float
    terms: tuple[tuple[float, float, float], ...]

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        xs = np.atleast_1d(xs)
        out = np.zeros_like(xs)
        positive = xs > 0
        if np.any(positive):
            exponents = self.gamma + self.s * np.arange(self.coeffs.size)
            logx = np.log(xs[positive])[:, None]
            # 256 nodes at a time: the nodes x terms matrix of powers stays a few MB
            out[positive] = np.concatenate(
                [np.exp(logx[i : i + 256] * exponents) @ self.coeffs for i in range(0, logx.shape[0], 256)]
            )
        return float(out[0]) if scalar else out


def _shift_steps(terms, s: float) -> list[tuple[float, float, int]]:
    """(coefficient, order, lag) for every term that shifts the exponent."""
    shifted = []
    for coef, power, order in terms:
        shift = power - order
        lag = round(shift / s)
        if abs(lag * s - shift) > 1e-12:
            raise ValueError(f"term exponent shift {shift} is not a multiple of s={s}")
        if lag:
            shifted.append((coef, order, lag))
    return shifted


def _exponent_increment(terms) -> float:
    shifts = [Fraction(p - o).limit_denominator(10**6) for _, p, o in terms]
    shifts.append(Fraction(2))  # the x^2 part of the potential
    shifts = [sh for sh in shifts if sh != 0]
    denom = math.lcm(*(sh.denominator for sh in shifts))
    num = math.gcd(*(sh.numerator * (denom // sh.denominator) for sh in shifts))
    return num / denom


def bessel_series(nu: float, n_terms: int = 1500) -> SeriesSolution:
    """Series solution of the Bessel-type equation with potential x^2 - nu^2.

    The leading exponent gamma solves the indicial equation (zero-shift
    terms balance nu^2); each further coefficient follows from matching
    the power x^(gamma + s n).  About 1200 terms are needed to evaluate on
    [0, 5]; ``radius_hint`` reports the trustworthy range for the chosen
    truncation.
    """
    if not (math.isfinite(nu) and nu > 0):
        raise ValueError(f"nu must be finite and positive, got {nu!r}")
    if not 1 <= n_terms <= 20_000:
        raise ValueError("n_terms out of range")
    s = _exponent_increment(BESSEL_TERMS)
    diagonal = [(coef, order) for coef, power, order in BESSEL_TERMS if power == order]
    r = max(math.ceil(order) for _, _, order in BESSEL_TERMS)

    def indicial(g: float) -> float:
        return math.fsum(coef * _gamma_ratio(g, order) for coef, order in diagonal) - nu * nu

    lo, hi = r - 1 + 1e-9, 20.0
    f_lo = indicial(lo)
    if f_lo * indicial(hi) > 0:
        raise ValueError(f"indicial root not bracketed in ({lo}, {hi})")
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:  # bisection down to adjacent floats
        if (indicial(mid) < 0.0) == (f_lo < 0.0):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    gamma = mid

    shifted = _shift_steps(BESSEL_TERMS, s)
    potential_lag = round(2.0 / s)
    c = np.zeros(n_terms + 1)
    c[0] = 1.0
    for n in range(1, n_terms + 1):
        den = indicial(gamma + s * n)
        acc = 0.0
        for coef, order, lag in shifted:
            if n >= lag:
                acc += coef * _gamma_ratio(gamma + s * (n - lag), order) * c[n - lag]
        if n >= potential_lag:
            acc += c[n - potential_lag]
        c[n] = -acc / den

    tol = 1e-8
    hints = []
    for j in range(max(0, n_terms - 4), n_terms + 1):
        if c[j] != 0.0:
            hints.append((tol / abs(c[j])) ** (1.0 / (gamma + s * j)))
    radius = float(min(hints)) if hints else math.inf
    return SeriesSolution(gamma, s, c, radius, float(nu), BESSEL_TERMS)


def bessel_residual(solution: SeriesSolution, x: float) -> float:
    """Equation residual of the truncated series at x, via the power rule.

    All powers matched by the recurrence cancel exactly; what remains is
    the truncation tail, so the residual shrinks as the series grows.
    """
    gamma, s, c = solution.gamma, solution.s, solution.coeffs
    nu, terms = solution.nu, solution.terms
    parts = []
    for n in range(c.size):
        if c[n] == 0.0:
            continue
        rho = gamma + s * n
        for coef, power, order in terms:
            parts.append(c[n] * coef * _gamma_ratio(rho, order) * x ** (rho - order + power))
        parts.append(c[n] * (x * x - nu * nu) * x**rho)
    return math.fsum(parts)
