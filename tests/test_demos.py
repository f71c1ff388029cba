"""The demo scripts and configs run to completion, without a traceback or a numpy warning, and fig2-fig4
solve near the truth."""

import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from fracsubst import solver
from fracsubst.cli import build_problem, main, parse_config
from fracsubst.oracles import mittag_leffler, relaxation_solution

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_caputo_quadrature_demo_runs_clean():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(DEMOS / "caputo_quadrature.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr and "RuntimeWarning" not in out.stderr
    assert "stencil-sampled D^0.8 t^3 at t=1" in out.stdout


# the solution at t = 1, 2.5 and 5 as recorded from the row-by-row assembly (fig2 and fig3 are
# pinned by acceptance criterion 4)
FIG_PINS = {
    "fig1": (0.5901150293637936, 1.257429101234615, 1.0615690962555917),
    "fig4": (0.1166825749239734, 0.392978859168613, 0.19805329956329615),
    "fig5": (0.1267686443728735, 0.10410928758817832, 0.05331718254826061),
}


@pytest.mark.parametrize("name, nodes", [("fig1", 2561), ("fig2", 2561), ("fig3", 2561), ("fig4", 2561), ("fig5", 1281)])
def test_demo_config_solves_clean(name, nodes, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = tmp_path / f"{name}.csv"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "fracsubst.cli", "solve",
         "--config", str(DEMOS / f"{name}.cfg"), "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    assert proc.stderr.startswith(f"solved {nodes} nodes;")
    table = {float(t): float(y) for t, y in (line.split(",") for line in out.read_text().splitlines()[1:])}
    assert len(table) == nodes
    for t, pin in zip((1.0, 2.5, 5.0), FIG_PINS.get(name, ())):
        assert table[t] == pytest.approx(pin, rel=1e-9), t


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4", "fig5"])
def test_condition_prints_the_certificate_that_solve_attaches(name, tmp_path, capsys):
    config = DEMOS / f"{name}.cfg"
    assert main(["condition", "--config", str(config), "--out", str(tmp_path / "c.csv")]) == 0
    printed = capsys.readouterr().out
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "y.csv")]) == 0
    solved = capsys.readouterr().err
    cfg = parse_config(config.read_text())
    problem, m = build_problem(cfg), round(cfg.t_end / cfg.h)
    rows = int(re.search(r"^rows checked: (\d+) ", printed, re.M)[1])
    delta = re.search(r"^delta \(min margin\): (\S+)$", printed, re.M)[1]
    satisfied = re.search(r"^satisfied: (\w+)$", printed, re.M)[1]
    assert rows == m + 1 - problem.order
    assert solved.startswith(f"solved {m + 1} nodes; conditioning satisfied={satisfied} delta={delta};"), solved

    # the rows of fig5's calibration differ from the problem's in the initial data alone
    certificate, attached = solver.report(problem, cfg.h, m), solver.solve(problem, cfg.h, m).report
    for field in fields(certificate):
        assert np.array_equal(getattr(certificate, field.name), getattr(attached, field.name)), field.name

    # the CSV holds the certificate's columns exactly, m as an integer (int("5.0") raises)
    header, *lines = (tmp_path / "c.csv").read_text().splitlines()
    table = [line.split(",") for line in lines]
    assert header == "m,diag,offdiag,margin"
    assert [int(row[0]) for row in table] == certificate.rows.tolist()
    for j, column in enumerate((certificate.diag, certificate.offdiag, certificate.margin), start=1):
        assert [float(row[j]) for row in table] == column.tolist(), header.split(",")[j]


def forced_relaxation(alpha, f, t):
    """y(t) of D^alpha y + y = f with zero data: (1/alpha) * integral_0^(t^alpha) E_{alpha,alpha}(-u)
    f(t - u^(1/alpha)) du, the convolution of f with the relaxation kernel after the substitution u =
    (t - s)^alpha, by 400-point Gauss-Legendre on [0, t^alpha]"""
    x, w = np.polynomial.legendre.leggauss(400)
    top = t**alpha
    u = 0.5 * top * (x + 1.0)
    kernel = np.array([mittag_leffler(alpha, alpha, -v) for v in u])
    return 0.5 * top / alpha * np.sum(w * kernel * f(t - u ** (1.0 / alpha)))


@pytest.mark.parametrize("t", [0.5, 1.0, 2.5, 5.0])
def test_forced_relaxation_with_unit_forcing_is_the_relaxation_solution(t):
    assert forced_relaxation(1.5, np.ones_like, t) == pytest.approx(relaxation_solution(1.5, t), rel=1e-12)


# the relative error of each config's solve at t = 1, 2.5 and 5, gated at about twice what it measured:
# fig2 1.9e-4, 8.9e-5, 7.9e-5; fig3 1.9e-4, 9.1e-5, 9.8e-5; fig4 2.6e-5, 1.2e-5, 1.5e-5
FIG_ERRORS = {"fig2": (4e-4, 2e-4, 1.6e-4), "fig3": (4e-4, 2e-4, 2e-4), "fig4": (5e-5, 2.5e-5, 3e-5)}


@pytest.mark.parametrize("name", list(FIG_ERRORS))
def test_demo_config_solves_near_the_forced_relaxation(name):
    cfg = parse_config((DEMOS / f"{name}.cfg").read_text())
    assert (cfg.terms, cfg.p, cfg.ics) == ([(1.5, "1")], "1", [0.0, 0.0])  # D^1.5 y + y = f with zero data
    problem, m = build_problem(cfg), round(cfg.t_end / cfg.h)
    y = solver.solve(problem, cfg.h, m).y
    for t, bound in zip((1.0, 2.5, 5.0), FIG_ERRORS[name]):
        assert y[round(t / cfg.h)] == pytest.approx(forced_relaxation(1.5, problem.f, t), rel=bound), t
