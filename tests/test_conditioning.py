import numpy as np
import pytest

from fracsubst import conditioning
from fracsubst.assembly import AssembledRow, DerivativeTerm, FDEProblem, assemble_system
from fracsubst.expr import parse
from fracsubst.solver import eliminate


def row(m, d, p_m=0.0, rhs=0.0):
    return AssembledRow(m, np.asarray(d, dtype=float), p_m, rhs, False)


def test_single_dominant_row():
    report = conditioning.check([row(1, [0.2, 1.0])])
    assert report.diag[0] == 1.0
    assert report.offdiag[0] == 0.2
    assert report.margin[0] == pytest.approx(0.8)
    assert report.delta == pytest.approx(0.8)
    assert report.satisfied


def test_single_weak_row():
    report = conditioning.check([row(1, [1.5, 1.0])])
    assert report.margin[0] == pytest.approx(-0.5)
    assert not report.satisfied


def test_diagonal_includes_p():
    report = conditioning.check([row(1, [0.2, 1.0], p_m=-1.0)])
    assert report.diag[0] == 0.0
    assert not report.satisfied


def test_empty_check_rejected():
    with pytest.raises(ValueError):
        conditioning.check([])


def test_bound_values():
    report = conditioning.check([row(1, [0.5, 1.0])])  # delta = 0.5
    assert conditioning.bound(report, mu=1.0, fmax=0.0) == 1.0
    assert conditioning.bound(report, mu=0.0, fmax=2.0) == 4.0


def test_bound_requires_satisfied():
    report = conditioning.check([row(1, [1.5, 1.0])])
    with pytest.raises(ValueError):
        conditioning.bound(report, 1.0, 1.0)


def test_alternative_constants_imply_delta():
    rng = np.random.default_rng(42)
    for _ in range(50):
        m_rows = []
        for m in range(1, rng.integers(2, 12)):
            d = rng.normal(size=m + 1)
            d[m] = np.sum(np.abs(d[:m])) + rng.uniform(0.1, 2.0)
            m_rows.append(row(m, d, p_m=float(rng.normal())))
        report = conditioning.check(m_rows)
        if report.alt_a > 0 and report.alt_b > 0:
            assert report.delta >= report.alt_a * report.alt_b - 1e-12


def test_report_is_deterministic():
    rows = [row(1, [0.3, 2.0], 0.1, 0.5), row(2, [0.1, -0.4, 3.0], -0.2, 1.0)]
    a = conditioning.check(rows)
    b = conditioning.check(rows)
    assert np.array_equal(a.margin, b.margin)
    assert a.delta == b.delta and a.alt_a == b.alt_a and a.alt_b == b.alt_b


def test_relaxation_system_report_regression():
    problem = FDEProblem((DerivativeTerm(1.5, parse("1")),), parse("1"), parse("1"), (0.0, 0.0))
    rows = assemble_system(problem, 0.05, 100)
    report = conditioning.check(rows)
    assert not report.satisfied
    assert report.delta == pytest.approx(-678.1646989276577, rel=1e-9)


def test_solution_respects_bound_for_many_right_hand_sides():
    rng = np.random.default_rng(3)
    size = 25
    rows = []
    for m in range(1, size + 1):
        d = rng.uniform(-1.0, 1.0, size=m + 1) / max(m, 1)
        p_m = 0.0
        d[m] = np.sign(rng.normal()) * (np.sum(np.abs(d[:m])) + rng.uniform(0.5, 1.5))
        rows.append(row(m, d))
    base = conditioning.check(rows)
    assert base.satisfied
    for _ in range(200):
        prefix = [float(rng.uniform(-2, 2))]
        rhs = rng.uniform(-3.0, 3.0, size=size)
        trial = [AssembledRow(r.m, r.d, r.p_m, float(rhs[i]), False) for i, r in enumerate(rows)]
        y, _ = eliminate(trial, prefix)
        limit = conditioning.bound(base, abs(prefix[0]), float(np.max(np.abs(rhs))))
        assert np.max(np.abs(y)) <= limit + 1e-12
