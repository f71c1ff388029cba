import math

import numpy as np
import pytest

from fracsubst.assembly import DerivativeTerm, FDEProblem, assemble_row
from fracsubst.cli import UsageError, build_problem, main, parse_config
from fracsubst.expr import parse
from fracsubst.oracles import caputo_power
from fracsubst.solver import solve

RELAX_CFG = """\
# relaxation-type problem
term = 1.5, "1"
p = "1"
f = "1"
ic = 0, 0
h = 0.0625
t_end = 1
"""

BESSEL_CFG = """\
term = 1.5, "1.5*x^1.5"
term = 1.1, "-1.2*x^1.9"
term = 0.5, "3*x"
p = "x^2 - 4"
f = "0"
ic = 0, 0
h = 0.0625
t_end = 2
calibrate = 1e-4, 1.0, 0.126768644373
"""


@pytest.fixture
def relax_cfg(tmp_path):
    path = tmp_path / "relax.cfg"
    path.write_text(RELAX_CFG)
    return str(path)


def test_parse_config_fields():
    cfg = parse_config(BESSEL_CFG)
    assert cfg.terms == [(1.5, "1.5*x^1.5"), (1.1, "-1.2*x^1.9"), (0.5, "3*x")]
    assert cfg.p == "x^2 - 4" and cfg.f == "0"
    assert cfg.ics == [0.0, 0.0]
    assert cfg.h == 0.0625 and cfg.t_end == 2.0
    assert cfg.calibrate == (1e-4, 1.0, 0.126768644373)
    problem = build_problem(cfg)
    assert problem.order == 2 and len(problem.terms) == 3


def test_parse_config_errors():
    with pytest.raises(UsageError):
        parse_config("p = \"1\"\n")  # no terms
    with pytest.raises(UsageError):
        parse_config("term = 0.5, 1\n")  # unquoted expression
    with pytest.raises(UsageError):
        parse_config("term = 0.5, \"1\"\nwhat = 3\n")
    with pytest.raises(UsageError):
        parse_config("term = x, \"1\"\n")
    with pytest.raises(UsageError):
        build_problem(parse_config('term = 0.5, "1+"\nic = 0\n'))


def test_solve_writes_deterministic_csv(relax_cfg, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["solve", "--config", relax_cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", relax_cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "t,y"
    assert len(lines) == 18  # header + 17 nodes
    problem = build_problem(parse_config(RELAX_CFG))
    result = solve(problem, 0.0625, 16)
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0
    assert float(last[1]) == result.y[-1]  # floats are written losslessly


def test_solve_calibrated_config(tmp_path):
    path = tmp_path / "bessel.cfg"
    path.write_text(BESSEL_CFG)
    out = tmp_path / "u.csv"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    value_at_1 = next(float(r.split(",")[1]) for r in rows if float(r.split(",")[0]) == 1.0)
    assert value_at_1 == pytest.approx(0.126768644373, rel=1e-12)


def test_solve_grid_overrides(relax_cfg, tmp_path):
    out = tmp_path / "o.csv"
    assert main(["solve", "--config", relax_cfg, "--h", "0.125", "--t-end", "0.5", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 6


def test_stencil_table_stdout(capsys):
    assert main(["stencil", "--n", "4", "--kind", "central"]) == 0
    captured = capsys.readouterr().out
    assert "1,-4,6,-4,1" in captured


def test_stencil_csv(tmp_path):
    out = tmp_path / "st.csv"
    assert main(["stencil", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "kind,n,b,offset,weight"
    # three kinds, orders 1..8
    assert sum(1 for line in lines[1:] if line.startswith("central,")) > 8


def test_condition_report_and_exit_codes(relax_cfg, capsys, tmp_path):
    assert main(["condition", "--config", relax_cfg]) == 0
    assert "satisfied: False" in capsys.readouterr().out
    assert main(["condition", "--config", relax_cfg, "--fail-on-unconditioned"]) == 2

    dominant = tmp_path / "dom.cfg"
    dominant.write_text('term = 0.5, "1"\np = "100"\nf = "1"\nic = 0\nh = 0.05\nt_end = 1\n')
    assert main(["condition", "--config", str(dominant), "--fail-on-unconditioned"]) == 0
    out = tmp_path / "margins.csv"
    assert main(["condition", "--config", str(dominant), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "m,diag,offdiag,margin"


def test_converge_table(tmp_path):
    cfg = tmp_path / "m.cfg"
    c = 2.0 / math.gamma(2.5)
    cfg.write_text(f'term = 0.5, "1"\nf = "{c}*x^1.5"\nic = 0\nh = 0.125\nt_end = 1\n')
    out = tmp_path / "conv.csv"
    assert main(["converge", "--config", str(cfg), "--exact", "x^2", "--levels", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "h,max_error,observed_order"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3
    assert float(rows[2][2]) > 1.3


def test_deriv_sampled_and_exact(tmp_path):
    # alpha = 1/2, f = t^3, t = 1, h = 1/32.  Under u = sqrt(1 - x) the --dnf
    # path is the plain trapezoid sum of g(u) = f'(1 - u^2) = 3(1 - u^2)^2 on
    # the nodes u_k = sqrt(1 - x_k), divided by Gamma(3/2).
    alpha, h = 0.5, 0.03125
    x = np.arange(33) * h
    u = np.sqrt(1.0 - x)
    g = 3.0 * (1.0 - u**2) ** 2
    trapezoid = float(np.sum(0.5 * (g[:-1] + g[1:]) * (u[:-1] - u[1:]))) / math.gamma(1.5)
    # Leading trapezoid remainder: sum_k du_k^3 |g''(0)| / 12 / Gamma(3/2), with
    # |g''(0)| = 12 and du_k = sqrt(h) (sqrt(j) - sqrt(j-1)) largest near u = 0.
    # The sampled path adds the stencils' O(h^2) error, opposite in sign here.
    j = np.arange(1, 33)
    lead = float(np.sum((np.sqrt(j) - np.sqrt(j - 1)) ** 3)) * h**1.5 / math.gamma(1.5)
    exact = caputo_power(alpha, 3, 1.0)

    out = tmp_path / "d.csv"
    assert main(["deriv", "--alpha", "0.5", "--expr", "x^3", "--h", "0.03125", "--t-end", "1", "--out", str(out)]) == 0
    last = out.read_text().splitlines()[-1].split(",")
    assert abs(float(last[1]) - exact) <= lead

    out2 = tmp_path / "d2.csv"
    assert main(["deriv", "--alpha", "0.5", "--dnf", "3*x^2", "--h", "0.03125", "--t-end", "1", "--out", str(out2)]) == 0
    last = out2.read_text().splitlines()[-1].split(",")
    assert float(last[1]) == pytest.approx(trapezoid, rel=1e-12)
    assert abs(float(last[1]) - exact) <= lead

    assert main(["deriv", "--alpha", "0.5", "--h", "0.5", "--t-end", "1"]) == 1
    assert main(["deriv", "--expr", "x", "--h", "0.5", "--t-end", "1"]) == 1


def test_oracle_tables(tmp_path):
    out = tmp_path / "o.csv"
    assert main(["oracle", "--name", "relaxation", "--alpha", "1.5", "--h", "0.25", "--t-end", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,value" and len(lines) == 6

    assert main(["oracle", "--name", "caputo-power", "--alpha", "0.5", "--beta", "2",
                 "--h", "0.25", "--t-end", "1", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 5  # defined for t > 0 only

    assert main(["oracle", "--name", "mittag-leffler", "--a", "1", "--b", "1",
                 "--h", "0.5", "--t-end", "1", "--out", str(out)]) == 0
    val = float(out.read_text().splitlines()[-1].split(",")[1])
    assert val == pytest.approx(math.e, rel=1e-9)

    assert main(["oracle", "--name", "bessel-series", "--nu", "2", "--n-terms", "300",
                 "--h", "0.5", "--t-end", "1", "--out", str(out)]) == 0
    val = float(out.read_text().splitlines()[-1].split(",")[1])
    assert val == pytest.approx(0.1267686443728735, rel=1e-9)

    assert main(["oracle", "--name", "relaxation", "--h", "0.5", "--t-end", "1"]) == 1


def test_assemble_dump(relax_cfg, tmp_path, capsys):
    assert main(["assemble", "--config", relax_cfg, "--h", "0.25", "--t-end", "1"]) == 0
    assert "assembled rows" in capsys.readouterr().out
    out = tmp_path / "rows.csv"
    assert main(["assemble", "--config", relax_cfg, "--h", "0.25", "--t-end", "1",
                 "--m", "3", "--dump", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m,k,d_k"
    assert len(lines) == 5  # row 3 has d_0..d_3
    problem = FDEProblem((DerivativeTerm(1.5, parse("1")),), parse("1"), parse("1"), (0.0, 0.0))
    row = assemble_row(problem, 0.25, 3)
    for index, (line, expected) in enumerate(zip(lines[1:], row.d)):
        m, k, dk = line.split(",")
        assert (int(m), int(k), float(dk)) == (3, index, expected)


def test_usage_errors_exit_one(tmp_path):
    assert main(["solve"]) == 1                      # missing --config
    assert main(["nonsense"]) == 1                   # unknown subcommand
    assert main(["solve", "--config", str(tmp_path / "missing.cfg")]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text('term = 0.5, "1+"\nic = 0\nh = 0.1\nt_end = 1\n')
    assert main(["solve", "--config", str(bad)]) == 1
    nogrid = tmp_path / "nogrid.cfg"
    nogrid.write_text('term = 0.5, "1"\nic = 0\n')
    assert main(["solve", "--config", str(nogrid)]) == 1


def test_numerical_failure_exits_two(tmp_path):
    cfg = tmp_path / "singular.cfg"
    cfg.write_text('term = 0.5, "0"\np = "0"\nf = "1"\nic = 0\nh = 0.1\nt_end = 1\n')
    assert main(["solve", "--config", str(cfg)]) == 2


def test_non_finite_data_exits_two(tmp_path, capsys):
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text('term = 1.5, "1"\np = "1"\nf = "1e200*x*1e200"\nic = 0, 0\nh = 0.0625\nt_end = 1\n')
    out = tmp_path / "y.csv"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


def test_deriv_sampled_omits_rows_too_short_for_the_stencils(tmp_path):
    h = 0.015625
    out = tmp_path / "d.csv"
    assert main(["deriv", "--alpha", "1.5", "--expr", "t^3", "--h", repr(h), "--t-end", "1", "--out", str(out)]) == 0
    rows = [[float(v) for v in line.split(",")] for line in out.read_text().splitlines()[1:]]
    assert rows[0][0] == 2 * h and rows[-1][0] == 1.0 and len(rows) == 63
    assert rows[-1][1] == pytest.approx(caputo_power(1.5, 3, 1.0), rel=5e-3)
