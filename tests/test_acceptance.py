"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints a single PASS/FAIL line (run with ``pytest -s`` to see
the lines for passing criteria too).  Two criteria, 2 (quadrature error
level) and 4 (relaxation reproduction), are known to fail with honest
implementations of the published scheme: their targets ask more than the
substitution trapezoid rule gives.  The lines below report the measured
numbers either way.
"""

import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fracsubst as fs
from fracsubst import conditioning
from fracsubst.assembly import AssembledRow, DerivativeTerm, FDEProblem
from fracsubst.caputo import Grid
from fracsubst.cli import main
from fracsubst.expr import parse

DEMOS = Path(__file__).resolve().parent.parent / "demos"

ONE = parse("1")
ZERO = parse("0")


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float, limit: float) -> None:
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[acceptance {num}] {name}: {status} ({detail}; {elapsed:.2f}s < {limit:.0f}s)")


def _difference_poly(n: int) -> tuple:
    """Coefficients of (a-b)^n (even n) or (a-b)^(n-1)(a^2-b^2) (odd n),
    ascending-offset orientation."""
    base_n = n if n % 2 == 0 else n - 1
    base = [Fraction((-1) ** k * math.comb(base_n, k)) for k in range(base_n + 1)]
    if n % 2 == 1:
        out = [Fraction(0)] * (len(base) + 2)
        for i, c in enumerate(base):
            out[i] += c
            out[i + 2] -= c
        base = out
    return tuple(reversed(base))


def test_criterion_1_stencil_identities():
    start = time.perf_counter()
    failures = []
    for n in (2, 4, 6, 8, 3, 5, 7):
        if fs.central(n).weights != _difference_poly(n):
            failures.append(n)
    ok = not failures
    elapsed = time.perf_counter() - start
    _report(1, "stencil difference-polynomial identities", ok,
            f"orders 2..8 exact rational match, failures={failures}", elapsed, 1.0)
    assert ok and elapsed < 1.0


def test_criterion_2_quadrature_rate():
    start = time.perf_counter()
    details = []
    orders_ok, error_ok = True, True
    for alpha in (0.3, 0.5, 0.8, 1.5):
        n = math.ceil(alpha)
        dnf = (lambda x: 3.0 * x * x) if n == 1 else (lambda x: 6.0 * x)
        exact = fs.caputo_power(alpha, 3, 1.0)
        errs = []
        for p in range(6, 12):
            grid = Grid.uniform_grid(2.0**-p, 2**p)
            errs.append(abs(fs.caputo_substitution(dnf, alpha, grid) - exact))
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        floor = n - alpha + 0.85
        if any(o < floor for o in orders[1:]):
            orders_ok = False
        if errs[-1] >= 1e-5:
            error_ok = False
        details.append(f"a={alpha}: orders>={min(orders[1:]):.3f} (floor {floor:.2f}), "
                       f"err@2^-11={errs[-1]:.2e}")
    ok = orders_ok and error_ok
    elapsed = time.perf_counter() - start
    _report(2, "substitution quadrature rate", ok, "; ".join(details), elapsed, 5.0)
    assert orders_ok, details
    # known red: caputo_substitution equals an independent trapezoid sum in u
    # to 1e-15, and that sum's error at h = 2^-11 is 1.49e-5, 2.43e-4 and
    # 1.51e-5 for alpha = 0.5, 0.8, 1.5.  The constants in front of
    # h^(n-a+1) are 1.38, 2.28 and 1.40; meeting 1e-5 would need 0.93, 0.094
    # and 0.93.  The rate holds; the error level is the rule's own remainder.
    assert error_ok, details
    assert elapsed < 5.0


def test_criterion_3_closed_form_columns():
    start = time.perf_counter()
    bad = []

    alpha, h, m = 0.7, 0.2, 10
    row = fs.assemble_row(FDEProblem((DerivativeTerm(alpha, ONE),), ZERO, ZERO, (0.0,)), h, m)
    phi = [math.nan, *fs.SubstitutionOperator(alpha, h, m).weights[m:0:-1]]  # phi[k] = weights[m - k + 1]
    norm = 4.0 * h * math.gamma(2.0 - alpha)
    expected = {
        0: -4 * phi[1] - phi[2],
        1: 4 * phi[1] - phi[2] - phi[3],
        m - 1: phi[m - 2] + phi[m - 1] - 4 * phi[m],
        m: phi[m - 1] + 4 * phi[m],
    }
    expected.update({k: phi[k - 1] + phi[k] - phi[k + 1] - phi[k + 2] for k in range(3, m - 2)})
    for k, ck in expected.items():
        if abs(row.d[k] - ck / norm) > 1e-12 * max(1.0, abs(ck / norm)):
            bad.append(("first-order", k))

    alpha, h, m = 1.3, 0.1, 12
    row = fs.assemble_row(FDEProblem((DerivativeTerm(alpha, ONE),), ZERO, ZERO, (0.0, 0.0)), h, m)
    psi = [math.nan, *fs.SubstitutionOperator(alpha, h, m).weights[m:0:-1]]
    norm = 2.0 * h * h * math.gamma(3.0 - alpha)
    expected = {
        0: 3 * psi[1] + psi[2],
        1: -7 * psi[1] - psi[2] + psi[3],
        3: -psi[1] + psi[2] - psi[3] - psi[4] + psi[5],
        m - 1: psi[m - 2] - psi[m - 1] - 7 * psi[m],
        m: psi[m - 1] + 3 * psi[m],
    }
    expected.update({k: psi[k - 1] - psi[k] - psi[k + 1] + psi[k + 2] for k in range(4, m - 3)})
    for k, ck in expected.items():
        if abs(row.d[k] - ck / norm) > 1e-12 * max(1.0, abs(ck / norm)):
            bad.append(("second-order", k))

    ok = not bad
    elapsed = time.perf_counter() - start
    _report(3, "generic assembly vs closed-form columns", ok,
            f"column mismatches: {bad or 'none'} (known-inconsistent entries excluded)",
            elapsed, 1.0)
    assert ok and elapsed < 1.0


def test_criterion_4_relaxation_reproduction(tmp_path):
    start = time.perf_counter()
    problem = FDEProblem((DerivativeTerm(1.5, ONE),), ONE, ONE, (0.0, 0.0))
    errs = []
    for p in (9, 10):
        result = fs.solve(problem, 2.0**-p, 2**p)
        exact = np.array([fs.relaxation_solution(1.5, t) for t in result.grid.nodes])
        errs.append(float(np.max(np.abs(result.y - exact))))
    order = math.log2(errs[0] / errs[1])
    tol_ok = errs[0] <= 1e-3
    order_ok = errs[1] < errs[0] and order >= 1.3

    pins = {
        "fig2.cfg": {1.0: 0.14860413477178622, 2.5: 0.38546255259033946, 5.0: 0.04535859459373801},
        "fig3.cfg": {1.0: 0.029651882965456303, 2.5: 0.07596032971945163, 5.0: 0.007217921886653609},
    }
    pins_ok = True
    for name, expected in pins.items():
        out = tmp_path / (name + ".csv")
        code = main(["solve", "--config", str(DEMOS / name), "--out", str(out)])
        values = {float(r.split(",")[0]): float(r.split(",")[1])
                  for r in out.read_text().splitlines()[1:]}
        for t, pin in expected.items():
            if code != 0 or abs(values[t] - pin) > 1e-9 * abs(pin):
                pins_ok = False

    ok = tol_ok and order_ok and pins_ok
    elapsed = time.perf_counter() - start
    _report(4, "relaxation equation vs series oracle", ok,
            f"max err@h=2^-9 {errs[0]:.2e} (tol 1e-3), order {order:.2f} (floor 1.3), "
            f"regression pins {'ok' if pins_ok else 'BAD'}", elapsed, 20.0)
    assert pins_ok
    # known red: max error 1.33e-2 at h = 2^-9, observed order 0.53.  The
    # exact solution behaves like t^1.5/Gamma(2.5) near 0, so y'' ~ t^(-1/2)
    # is unbounded at the origin, which caps the uniform-grid scheme near
    # O(h^0.5) on this problem.  Changing the default scheme would move the
    # fig2/fig3 pins asserted above.
    assert tol_ok, f"max error {errs[0]:.3e} > 1e-3"
    assert order_ok, f"observed order {order:.2f} < 1.3"
    assert elapsed < 20.0


def test_criterion_5_bessel_calibration():
    start = time.perf_counter()
    gam2 = fs.bessel_series(2.0, 50).gamma
    gam35 = fs.bessel_series(3.5, 50).gamma
    roots_ok = abs(gam2 - 2.1995) <= 5e-4 and abs(gam35 - 4.3181) <= 5e-4

    series = fs.bessel_series(2.0, 1500)
    problem = FDEProblem(
        (
            DerivativeTerm(1.5, parse("1.5*x^1.5")),
            DerivativeTerm(1.1, parse("-1.2*x^1.9")),
            DerivativeTerm(0.5, parse("3*x")),
        ),
        parse("x^2-4"),
        ZERO,
        (0.0, 0.0),
    )
    h = 2.0**-8
    rows = round(5.0 / h)
    result = fs.calibrate(problem, 1e-4, (1.0, series(1.0)), h, rows)
    exact = series(result.grid.nodes)
    rel_l2 = float(np.linalg.norm(result.y - exact) / np.linalg.norm(exact))
    l2_ok = rel_l2 <= 0.02
    ok = roots_ok and l2_ok
    elapsed = time.perf_counter() - start
    _report(5, "fractional Bessel series + calibrated solve", ok,
            f"gamma(2)={gam2:.5f}, gamma(3.5)={gam35:.5f}, rel L2 on [0,5]={rel_l2:.4f}",
            elapsed, 60.0)
    assert roots_ok and l2_ok and elapsed < 60.0


def test_criterion_6_dominance_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(20240811)
    violations = 0
    for _ in range(200):
        size = int(rng.integers(3, 41))
        rows = []
        for m in range(1, size + 1):
            d = rng.uniform(-1.0, 1.0, size=m + 1)
            p_m = float(rng.normal())
            d[m] = float(np.sign(rng.normal()) or 1.0) * (
                np.sum(np.abs(d[:m])) + rng.uniform(0.2, 2.0)
            ) - p_m
            rows.append(AssembledRow(m, d, p_m, float(rng.uniform(-5, 5)), False))
        report = conditioning.check(rows)
        assert report.satisfied
        prefix = [float(rng.uniform(-2, 2))]
        y, _ = fs.eliminate(rows, prefix)
        fmax = max(abs(row.rhs) for row in rows)
        if np.max(np.abs(y)) > conditioning.bound(report, abs(prefix[0]), fmax) + 1e-10:
            violations += 1

    zeros_ok = True
    for terms in ((DerivativeTerm(0.5, ONE),), (DerivativeTerm(0.5, ONE), DerivativeTerm(1.5, ONE))):
        r = max(t.n for t in terms)
        problem = FDEProblem(terms, ONE, ZERO, (0.0,) * r)
        if np.any(fs.solve(problem, 0.05, 30).y != 0.0):
            zeros_ok = False

    ok = violations == 0 and zeros_ok
    elapsed = time.perf_counter() - start
    _report(6, "dominance bound soundness", ok,
            f"violations {violations}/200, zero-data exact {zeros_ok}", elapsed, 10.0)
    assert ok and elapsed < 10.0


def test_criterion_7_riemann_liouville_remark():
    start = time.perf_counter()
    alpha = 0.5
    f = lambda x: x + 1.0

    def antiderivative_form(t):
        u = np.linspace(0.0, t ** (1 - alpha), 2**14 + 1)
        vals = f(t - u ** (1.0 / (1.0 - alpha)))
        return np.trapezoid(vals, u) / math.gamma(2.0 - alpha)

    worst = 0.0
    for t in np.linspace(0.5, 2.0, 7):
        direct = (antiderivative_form(t + 1e-5) - antiderivative_form(t - 1e-5)) / 2e-5
        formula = fs.riemann_liouville([1.0], alpha, fs.caputo_power(alpha, 1, t), t)
        worst = max(worst, abs(direct - formula))
    ok = worst < 1e-3
    elapsed = time.perf_counter() - start
    _report(7, "Riemann-Liouville correction identity", ok,
            f"max |direct - formula| = {worst:.2e}", elapsed, 5.0)
    assert ok and elapsed < 5.0


def test_criterion_8_manufactured_multi_term():
    start = time.perf_counter()
    problem = FDEProblem(
        (DerivativeTerm(0.5, ONE), DerivativeTerm(1.5, ONE)),
        ZERO,
        lambda t: fs.caputo_power(0.5, 3, t) + fs.caputo_power(1.5, 3, t) if t > 0 else 0.0,
        (0.0, 0.0),
    )
    hs = [2.0**-p for p in (6, 7, 8, 9)]
    levels = fs.convergence_study(problem, lambda t: t**3, hs, 1.0)
    orders = [lvl.observed_order for lvl in levels[1:]]
    ok = min(orders) >= 1.3
    elapsed = time.perf_counter() - start
    _report(8, "manufactured two-term equation", ok,
            f"errors {[f'{l.max_error:.2e}' for l in levels]}, orders {[f'{o:.2f}' for o in orders]}",
            elapsed, 30.0)
    assert ok and elapsed < 30.0
