import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from fracsubst.assembly import DerivativeTerm, FDEProblem, assemble_row, assemble_system
from fracsubst.cli import UsageError, build_problem, main, parse_config
from fracsubst.expr import parse
from fracsubst.oracles import bessel_series, caputo_power
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


def test_config_comments_start_at_a_hash_outside_quotes():
    cfg = parse_config('# a whole line\nterm = 0.5, "1#2" # "a quoted" comment\np = "x"#\nf = "1"\n')
    assert cfg.terms == [(0.5, "1#2")] and cfg.p == "x"
    with pytest.raises(UsageError, match="double-quoted"):  # an unclosed quote runs to the end of its line
        parse_config('term = 0.5, "1 # 2\n')


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
    # every key but term at most once, and each error names its line once
    with pytest.raises(UsageError, match=r"^line 8 \(h\): repeated key$"):
        parse_config(RELAX_CFG + "h = 0.25\n")
    with pytest.raises(UsageError, match=r"^line 2 \(what\): unknown key$"):
        parse_config('term = 0.5, "1"\nwhat = 3\n')
    with pytest.raises(UsageError, match=r"^line 2 \(p\): expression must be double-quoted, got '1'$"):
        parse_config('term = 0.5, "1"\np = 1\n')


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


def test_csv_goes_to_stdout_without_out(tmp_path, capsys):
    # the same bytes as --out writes; the expression's trailing blank ends the tokenizer on whitespace
    argv = ["deriv", "--alpha", "0.5", "--expr", "t + 1 ", "--h", "0.25", "--t-end", "1"]
    out = tmp_path / "d.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.encode() == out.read_bytes() and captured.err == ""
    assert captured.out.startswith("t,value\n") and captured.out.count("\n") == 5


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
    # every exact weight, the one-sided ones of orders 6..8 included
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "fb1aebad73afada63862ebb78d9245cf999f0ff9573c7cafa85c22f8cde85b3c"
    )


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
    lines = out2.read_text().splitlines()
    assert [float(line.split(",")[0]) for line in lines[1:]] == list(x[1:])
    last = lines[-1].split(",")
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

    # without --m: every assembled row, d_0..d_m in order
    assert main(["assemble", "--config", relax_cfg, "--h", "0.25", "--t-end", "1", "--dump", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    expected = [(row.m, k, dk) for row in assemble_system(problem, 0.25, 4) for k, dk in enumerate(row.d.tolist())]
    assert lines[0] == "m,k,d_k" and len(expected) == 3 + 4 + 5  # rows 2..4
    assert [(int(m), int(k), float(dk)) for m, k, dk in (line.split(",") for line in lines[1:])] == expected


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


def test_overflowing_solution_exits_two_without_a_csv(tmp_path, capsys):
    cfg = tmp_path / "unstable.cfg"
    # D^0.5 y - 20 y = 1 with zero data grows like exp(400 t)
    cfg.write_text('term = 0.5, "1"\np = "-20"\nf = "1"\nic = 0\nh = 0.00244140625\nt_end = 5\n')
    out = tmp_path / "y.csv"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "row 560" in err and err.count("\n") == 1
    assert not out.exists()


def test_unsettled_oracle_series_exits_two_without_a_csv(tmp_path, capsys):
    out = tmp_path / "ml.csv"
    argv = ["oracle", "--name", "mittag-leffler", "--a", "0.001", "--b", "1", "--h", "0.9999", "--t-end", "0.9999"]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: Mittag-Leffler series did not settle") and err.count("\n") == 1, err
    assert not out.exists()


def test_solve_above_order_two_stays_bounded(tmp_path, capsys):
    # D^2.5 y + y = 1 with zero data: y(1) = 0.286; only row 3 (m = n) is degraded
    cfg = tmp_path / "order25.cfg"
    cfg.write_text('term = 2.5, "1"\np = "1"\nf = "1"\nic = 0, 0, 0\nh = 0.00048828125\nt_end = 1\n')
    out = tmp_path / "y.csv"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err.endswith("; 1 degraded rows\n")
    y = np.array([float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]])
    assert y.size == 2049 and np.max(np.abs(y)) < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--h", "0"],
        ["solve", "--t-end", "inf"],
        ["solve", "--h", "nan"],
        ["stencil", "--n", "0"],
        ["oracle", "--name", "relaxation", "--alpha", "2.5", "--h", "0.5", "--t-end", "1"],
        ["converge", "--exact", "x", "--levels", "0"],
        ["oracle", "--name", "bessel-series", "--nu", "nan", "--h", "0.5", "--t-end", "1"],
        ["oracle", "--name", "caputo-power", "--alpha", "0.5", "--beta", "inf", "--h", "0.5", "--t-end", "1"],
        ["oracle", "--name", "mittag-leffler", "--a", "nan", "--b", "1", "--h", "0.5", "--t-end", "1"],
        ["oracle", "--name", "mittag-leffler", "--a", "0.5", "--b", "nan", "--h", "0.5", "--t-end", "1"],
        ["solve", "--config", RELAX_CFG + "h 0.25\n"],  # a config line without "="
        ["solve", "--h", "0.3"],  # does not divide t_end = 1
        ["oracle", "--name", "caputo-power", "--alpha", "0.5", "--h", "0.5", "--t-end", "1"],
        ["oracle", "--name", "mittag-leffler", "--a", "0.5", "--h", "0.5", "--t-end", "1"],
        ["oracle", "--name", "bessel-series", "--h", "0.5", "--t-end", "1"],
        ["assemble", "--m", "1"],  # row 1 of an order-2 problem is in the prefix
        ["solve", "--config", RELAX_CFG + "h = 0.25\n"],  # a repeated config key
        ["solve", "--h", "5e-324"],  # t_end / h overflows
        ["oracle", "--name", "mittag-leffler", "--a", "0.5", "--b", "1", "--tol", "-1", "--h", "1", "--t-end", "1"],
    ],
)
def test_argument_errors_exit_one_with_one_line(argv, relax_cfg, tmp_path, capsys):
    if "--config" in argv:  # the config text, written to a file
        (tmp_path / "case.cfg").write_text(argv[-1])
        argv = [*argv[:-1], str(tmp_path / "case.cfg")]
    elif argv[0] in ("solve", "converge", "assemble"):
        argv = [*argv, "--config", relax_cfg]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert "Traceback" not in captured.err and captured.out == ""


OVERFLOW_CFG = 'term = 0.5, "1e306"\np = "1"\nf = "1"\nic = 0\nh = 0.0009765625\nt_end = 1\n'
CALIBRATE_CFG = 'term = 1.5, "1"\np = "1"\nf = "0"\nic = {ic}\nh = 0.1\nt_end = 1\ncalibrate = 1e-4, {t_star}, {u_star}\n'
NOT_FINITE_CALIBRATION = "error: calibration needs a finite epsilon, t* and u*"


@pytest.mark.parametrize(
    "command, config, out_name, code, last_line",
    [
        ("solve", OVERFLOW_CFG, "y.csv", 2, "numerical failure: coefficients of row 2 are not finite "),
        ("condition", OVERFLOW_CFG, "y.csv", 2, "numerical failure: coefficients of row 2 are not finite "),
        ("assemble", OVERFLOW_CFG, "y.csv", 2, "numerical failure: coefficients of row 2 are not finite "),
        ("solve", CALIBRATE_CFG.format(ic="0, 0", t_star=1.33, u_star=0.5), "y.csv", 1,
         "error: reference point 1.33 is not a grid node"),
        ("solve", CALIBRATE_CFG.format(ic="1, 0", t_star=1.0, u_star=0.5), "y.csv", 1,
         "error: calibration expects zero initial data"),
        # u*/anchor overflows, so even y(0) = 0 rescales to nan
        ("solve", CALIBRATE_CFG.format(ic="0, 0", t_star=1.0, u_star=1e308), "y.csv", 2,
         "numerical failure: rescaling to u*=1e+308 overflows: the solution is not finite at node 0"),
        ("solve", CALIBRATE_CFG.format(ic="0, 0", t_star=1.0, u_star="inf"), "y.csv", 1, NOT_FINITE_CALIBRATION),
        ("solve", CALIBRATE_CFG.format(ic="0, 0", t_star="inf", u_star=0.5), "y.csv", 1, NOT_FINITE_CALIBRATION),
        ("solve", CALIBRATE_CFG.format(ic="0, 0", t_star=1.0, u_star=0.5).replace("1e-4", "inf"), "y.csv", 1,
         NOT_FINITE_CALIBRATION),
        ("solve", RELAX_CFG.replace("ic = 0, 0", "ic = inf, 0"), "y.csv", 1, "error: initial conditions must be finite"),
        ("solve", RELAX_CFG.replace("ic = 0, 0", "ic = nan, 0"), "y.csv", 1, "error: initial conditions must be finite"),
        # q = x - 1 vanishes at row 128, past the dense start block
        ("solve", 'term = 0.5, "x-1"\np = "0"\nf = "1"\nic = 0\nh = 0.0078125\nt_end = 2\n', "y.csv", 2,
         "numerical failure: near-singular pivot 0.0 at row 128"),
        ("solve", RELAX_CFG, "missing/y.csv", 1, "error: [Errno 2] No such file or directory: "),
        ("solve", RELAX_CFG.replace("# relaxation", "# caf\xe9 relaxation"), "y.csv", 1,
         "error: 'utf-8' codec can't decode byte 0xe9 "),
    ],
    ids=["overflow", "overflow-condition", "overflow-assemble", "off-grid-reference", "nonzero-data",
         "overflowing-rescale", "infinite-u-star", "infinite-t-star", "infinite-epsilon", "infinite-ic", "nan-ic",
         "singular-pivot", "unwritable-out", "non-utf8-config"],
)
def test_failures_exit_by_exception_class_with_one_line(command, config, out_name, code, last_line, tmp_path, capsys):
    cfg = tmp_path / "case.cfg"
    cfg.write_bytes(config.encode("latin-1"))
    out = tmp_path / out_name
    dump = ["--dump"] if command == "assemble" else []  # so that every command writes a CSV
    assert main([command, "--config", str(cfg), "--out", str(out), *dump]) == code
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert "Traceback" not in err and lines[-1].startswith(last_line), err
    # a solve that fails on writing its CSV has already printed its summary line
    assert len(lines) == (2 if out_name.startswith("missing/") else 1), err
    if out_name.startswith("missing/"):
        assert str(out) in lines[-1]
    assert not out.exists()


FIG1 = str(Path(__file__).resolve().parents[1] / "demos" / "fig1.cfg")


@pytest.mark.parametrize("argv", [["deriv", "--alpha", "1.5", "--expr", "t^3"], ["solve", "--config", FIG1]])
def test_step_too_small_for_the_order_exits_one(argv, tmp_path, capsys):
    out = tmp_path / "y.csv"
    assert main([*argv, "--h", "1e-200", "--t-end", "1e-198", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: step h=1e-200 is too small for order n=2: h**n underflows\n"
    assert not out.exists()


def test_converge_exact_solution_outside_its_domain_exits_two_with_one_line(relax_cfg, capsys):
    assert main(["converge", "--config", relax_cfg, "--exact", "1/(t-1)", "--levels", "1"]) == 2
    assert capsys.readouterr().err == "numerical failure: division by zero in '1.0/(x-1.0)'\n"


def test_deriv_evaluates_the_expression_on_the_whole_grid(capsys):
    assert main(["deriv", "--alpha", "0.5", "--expr", "1/x", "--h", "0.25", "--t-end", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "x=0.0 " in err and "np.float64" not in err


@pytest.mark.parametrize(
    "source, h, t_end, row", [(["--expr", "1.7e308*x"], "0.25", "1", 3), (["--dnf", "1e308"], "100000", "1000000", 1)]
)
def test_deriv_overflow_exits_two_with_one_line(source, h, t_end, row, tmp_path, capsys):
    # finite samples whose sum overflows: no warning, no CSV; the stencils difference the
    # samples before they are weighted, and 1.5 y_3 in node 3's backward stencil overflows first
    out = tmp_path / "d.csv"
    assert main(["deriv", "--alpha", "0.5", *source, "--h", h, "--t-end", t_end, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1 and f"in row {row}" in err, err
    assert not out.exists()


def test_deriv_sampled_omits_rows_too_short_for_the_stencils(tmp_path):
    h = 0.015625
    out = tmp_path / "d.csv"
    assert main(["deriv", "--alpha", "1.5", "--expr", "t^3", "--h", repr(h), "--t-end", "1", "--out", str(out)]) == 0
    rows = [[float(v) for v in line.split(",")] for line in out.read_text().splitlines()[1:]]
    assert rows[0][0] == 2 * h and rows[-1][0] == 1.0 and len(rows) == 63
    assert rows[-1][1] == pytest.approx(caputo_power(1.5, 3, 1.0), rel=5e-3)


def test_deriv_sampled_reproduces_a_cubic_above_order_two(tmp_path):
    # the stencils are exact on t^3 sampled at h = 2^-10, so only the trapezoid sum rounds
    out = tmp_path / "d.csv"
    assert main(["deriv", "--alpha", "2.5", "--expr", "t^3", "--h", "0.0009765625", "--t-end", "1", "--out", str(out)]) == 0
    rows = np.array([[float(v) for v in line.split(",")] for line in out.read_text().splitlines()[1:]])
    exact = 6.0 * rows[:, 0] ** 0.5 / math.gamma(1.5)
    assert rows.shape == (1022, 2) and np.all(np.abs(rows[:, 1] - exact) <= 1e-13 * exact)


def test_deriv_sampled_on_a_grid_shorter_than_the_order_exits_one(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert main(["deriv", "--alpha", "2.5", "--expr", "t^3", "--h", "0.5", "--t-end", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: D^2.5 of samples needs at least 3 steps, got 2\n"
    assert not out.exists()


def test_caputo_power_oracle_past_the_gamma_overflow(tmp_path):
    # Gamma(401) overflows a float, Gamma(401) / Gamma(400.5) = 20.006 does not
    out = tmp_path / "o.csv"
    assert main(["oracle", "--name", "caputo-power", "--alpha", "0.5", "--beta", "400",
                 "--h", "0.5", "--t-end", "1", "--out", str(out)]) == 0
    t, value = out.read_text().splitlines()[-1].split(",")
    assert float(t) == 1.0 and float(value) == pytest.approx(math.exp(math.lgamma(401) - math.lgamma(400.5)), rel=1e-12)
    assert float(value) == pytest.approx(20.006, abs=1e-3)


def test_oracle_errors_print_plain_floats(capsys):
    # the nodes come from np.arange; z = -50^1.5 is past the series regime of |z| <= 50
    assert main(["oracle", "--name", "relaxation", "--alpha", "1.5", "--h", "1", "--t-end", "50"]) == 1
    err = capsys.readouterr().err
    assert err == "error: |z| > 50 is outside the series regime, got z=-52.38320341483518\n", err


def test_bessel_series_oracle_prints_plain_floats(capsys):
    sol = bessel_series(2.0, 300)
    assert type(sol.gamma) is float and type(sol.radius_hint) is float
    assert main(["oracle", "--name", "bessel-series", "--nu", "2", "--n-terms", "300", "--h", "0.5", "--t-end", "1"]) == 0
    err = capsys.readouterr().err
    assert err == f"gamma={sol.gamma!r} radius_hint={sol.radius_hint!r}\n" and "np.float64(" not in err, err


def test_system_too_large_for_memory_exits_two(capsys):
    # `assemble` writes the dense rows, which `solve` and `condition` build for their start block only
    fig1 = Path(__file__).resolve().parents[1] / "demos" / "fig1.cfg"
    assert main(["assemble", "--config", str(fig1), "--h", "1e-6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("out of memory: ") and "M=5000000" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--name", "relaxation", "--alpha", "0.5", "--h", "1e-300", "--t-end", "1e-10"],
        ["deriv", "--alpha", "0.5", "--expr", "x", "--h", "1e-300", "--t-end", "1e-10"],
        ["oracle", "--name", "relaxation", "--alpha", "0.5", "--h", "1e-13", "--t-end", "1"],
    ],
)
def test_grid_too_fine_for_memory_is_an_argument_error(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert "h=" in captured.err and "t_end=" in captured.err and captured.out == ""
    assert not out.exists()
