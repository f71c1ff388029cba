"""Command-line front end.

Subcommands: solve, deriv, stencil, condition, converge, oracle, assemble.
Problems are read from flat key-value config files::

    # relaxation-type problem
    term = 1.5, "1"         # repeatable: alpha, coefficient expression
    p = "1"
    f = "1"
    ic = 0, 0               # y(0), y'(0), ... (ceil(max alpha) values)
    h = 0.001953125
    t_end = 1
    calibrate = 1e-4, 1.0, 0.1267686388    # optional: epsilon, t*, u*

CSV output has a header row and '\n' line endings.  Floats are written in
their shortest round-trip form (``repr``), so ``float()`` of a field gives
back the computed double exactly; integer columns (row and column indices)
are written as integers.  Identical inputs produce byte-identical files.
``deriv`` rows come from one substitution operator; ``--expr`` omits m < ceil(alpha).
Exit codes: 0 success, 1 usage/config error, 2 numerical failure (including
non-finite problem data).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

import numpy as np

from . import conditioning, oracles, solver, stencils
from .assembly import DerivativeTerm, FDEProblem, assemble_row, assemble_system
from .caputo import SubstitutionOperator
from .expr import DomainError, ParseError, parse

__all__ = ["main", "ProblemConfig", "parse_config", "build_problem"]


class UsageError(Exception):
    pass


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write_csv(path: str | None, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# config files


@dataclass
class ProblemConfig:
    terms: list[tuple[float, str]] = field(default_factory=list)
    p: str = "0"
    f: str = "0"
    ics: list[float] = field(default_factory=list)
    h: float | None = None
    t_end: float | None = None
    calibrate: tuple[float, float, float] | None = None


def _strip_comment(line: str) -> str:
    out = []
    quoted = False
    for ch in line:
        if ch == '"':
            quoted = not quoted
        elif ch == "#" and not quoted:
            break
        out.append(ch)
    return "".join(out)


def _unquote(text: str, where: str) -> str:
    text = text.strip()
    if len(text) < 2 or text[0] != '"' or text[-1] != '"':
        raise UsageError(f"{where}: expression must be double-quoted, got {text!r}")
    return text[1:-1]


def parse_config(text: str) -> ProblemConfig:
    cfg = ProblemConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        where = f"line {lineno} ({key})"
        try:
            if key == "term":
                alpha_text, _, expr_text = value.partition(",")
                cfg.terms.append((float(alpha_text), _unquote(expr_text, where)))
            elif key == "p":
                cfg.p = _unquote(value, where)
            elif key == "f":
                cfg.f = _unquote(value, where)
            elif key == "ic":
                cfg.ics = [float(v) for v in value.split(",")]
            elif key == "h":
                cfg.h = float(value)
            elif key == "t_end":
                cfg.t_end = float(value)
            elif key == "calibrate":
                eps, t_star, u_star = (float(v) for v in value.split(","))
                cfg.calibrate = (eps, t_star, u_star)
            else:
                raise UsageError(f"{where}: unknown key")
        except ValueError as exc:
            raise UsageError(f"{where}: {exc}") from exc
    if not cfg.terms:
        raise UsageError("config defines no derivative terms")
    return cfg


def _load_config(path: str) -> ProblemConfig:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from exc


def build_problem(cfg: ProblemConfig) -> FDEProblem:
    try:
        terms = tuple(DerivativeTerm(alpha, parse(expr)) for alpha, expr in cfg.terms)
        return FDEProblem(terms, parse(cfg.p), parse(cfg.f), tuple(cfg.ics))
    except ParseError as exc:
        raise UsageError(f"config expression: {exc}") from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _grid_params(cfg: ProblemConfig, args) -> tuple[float, float, int]:
    h = args.h if args.h is not None else cfg.h
    t_end = args.t_end if args.t_end is not None else cfg.t_end
    if h is None or t_end is None:
        raise UsageError("grid step and end point needed (--h/--t-end or config h/t_end)")
    max_rows = round(t_end / h)
    if max_rows < 1 or abs(max_rows * h - t_end) > 1e-9 * t_end:
        raise UsageError(f"step {h} does not divide t_end {t_end}")
    return float(h), float(t_end), max_rows


# ---------------------------------------------------------------------------
# subcommands


def _cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    problem = build_problem(cfg)
    h, _, max_rows = _grid_params(cfg, args)
    if cfg.calibrate is not None:
        eps, t_star, u_star = cfg.calibrate
        result = solver.calibrate(problem, eps, (t_star, u_star), h, max_rows)
    else:
        result = solver.solve(problem, h, max_rows)
    report = result.report
    print(
        f"solved {max_rows + 1} nodes; conditioning satisfied={report.satisfied} "
        f"delta={_fmt(report.delta)}; min pivot {_fmt(result.pivot_min)}; "
        f"{len(result.degraded_rows)} degraded rows",
        file=sys.stderr,
    )
    _write_csv(args.out, ["t", "y"], zip(result.grid.nodes, result.y))
    return 0


def _cmd_deriv(args) -> int:
    h, _, max_rows = _grid_params(ProblemConfig(), args)
    try:
        fn = parse(args.expr if args.expr is not None else args.dnf)
        op = SubstitutionOperator(args.alpha, h, max_rows)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    nodes = np.arange(max_rows + 1) * h
    values = np.array([fn(t) for t in nodes])
    if args.expr is not None:
        rows = [(nodes[m], op.apply(values, m)) for m in range(op.n, max_rows + 1)]
    else:
        rows = [(nodes[m], op.quadrature_row(m) @ values[: m + 1]) for m in range(1, max_rows + 1)]
    _write_csv(args.out, ["t", "value"], rows)
    return 0


def _cmd_stencil(args) -> int:
    orders = [args.n] if args.n is not None else list(range(1, 9))
    kinds = [args.kind] if args.kind is not None else ["central", "forward", "backward"]
    builders = {"central": stencils.central, "forward": stencils.forward, "backward": stencils.backward}
    rows = []
    for kind in kinds:
        for n in orders:
            st = builders[kind](n)
            weights = ",".join(str(w) for w in st.weights)
            print(f"{kind} n={n} B={st.norm_denominator} offsets {st.offsets[0]}..{st.offsets[-1]}: {weights}")
            rows.extend((kind, n, st.norm_denominator, o, w) for o, w in zip(st.offsets, st.weights))
    if args.out:
        _write_csv(args.out, ["kind", "n", "b", "offset", "weight"], rows)
    return 0


def _cmd_condition(args) -> int:
    cfg = _load_config(args.config)
    problem = build_problem(cfg)
    h, _, max_rows = _grid_params(cfg, args)
    rows = assemble_system(problem, h, max_rows)
    report = conditioning.check(rows, skip_prefix=problem.order)
    print(f"rows checked: {report.rows.size} (m={report.rows[0]}..{report.rows[-1]})")
    print(f"delta (min margin): {_fmt(report.delta)}")
    print(f"satisfied: {report.satisfied}")
    print(f"alternative constants: A={_fmt(report.alt_a)} B={_fmt(report.alt_b)}")
    if args.out:
        _write_csv(
            args.out,
            ["m", "diag", "offdiag", "margin"],
            zip(report.rows, report.diag, report.offdiag, report.margin),
        )
    if args.fail_on_unconditioned and not report.satisfied:
        print("system is not certified well-conditioned", file=sys.stderr)
        return 2
    return 0


def _cmd_converge(args) -> int:
    cfg = _load_config(args.config)
    problem = build_problem(cfg)
    h, t_end, _ = _grid_params(cfg, args)
    try:
        exact = parse(args.exact)
    except ParseError as exc:
        raise UsageError(str(exc)) from exc
    hs = [h / 2**i for i in range(args.levels)]
    levels = solver.convergence_study(problem, exact, hs, t_end)
    _write_csv(args.out, ["h", "max_error", "observed_order"], levels)
    return 0


def _cmd_oracle(args) -> int:
    h, _, max_rows = _grid_params(ProblemConfig(), args)
    ts = np.arange(max_rows + 1) * h
    name = args.name
    if name == "caputo-power":
        if args.alpha is None or args.beta is None:
            raise UsageError("caputo-power needs --alpha and --beta")
        rows = [(t, oracles.caputo_power(args.alpha, args.beta, t)) for t in ts[1:]]
    elif name == "mittag-leffler":
        if args.a is None or args.b is None:
            raise UsageError("mittag-leffler needs --a and --b")
        rows = [(t, oracles.mittag_leffler(args.a, args.b, t, args.tol)) for t in ts]
    elif name == "relaxation":
        if args.alpha is None:
            raise UsageError("relaxation needs --alpha")
        rows = [(t, oracles.relaxation_solution(args.alpha, t)) for t in ts]
    elif name == "bessel-series":
        if args.nu is None:
            raise UsageError("bessel-series needs --nu")
        sol = oracles.bessel_series(args.nu, args.n_terms)
        print(f"gamma={_fmt(sol.gamma)} radius_hint={_fmt(sol.radius_hint)}", file=sys.stderr)
        rows = list(zip(ts, sol(ts)))
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown oracle {name!r}")
    _write_csv(args.out, ["t", "value"], rows)
    return 0


def _cmd_assemble(args) -> int:
    cfg = _load_config(args.config)
    problem = build_problem(cfg)
    h, _, max_rows = _grid_params(cfg, args)
    if args.m is not None and not problem.order <= args.m <= max_rows:
        raise UsageError(f"row m={args.m} is not assembled (prefix or out of range)")
    rows = assemble_system(problem, h, max_rows) if args.m is None else [assemble_row(problem, h, args.m)]
    if args.dump:
        triples = ((row.m, k, row.d[k]) for row in rows for k in range(row.m + 1))
        _write_csv(args.out, ["m", "k", "d_k"], triples)
    else:
        degraded = [row.m for row in rows if row.degraded]
        print(f"assembled rows m={rows[0].m}..{rows[-1].m}; degraded: {degraded or 'none'}")
    return 0


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fracsubst", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--h", type=float, default=None, help="grid step")
        p.add_argument("--t-end", dest="t_end", type=float, default=None, help="end of the grid")
        p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
        return p

    p = add("solve", _cmd_solve, "solve a problem config (CSV of t,y)")
    p.add_argument("--config", required=True)

    p = add("deriv", _cmd_deriv, "evaluate a Caputo derivative along a grid")
    p.add_argument("--alpha", type=float, required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--expr", help="function f; stencil-sampled evaluation, rows m >= ceil(alpha)")
    source.add_argument("--dnf", help="exact n-th derivative of f; trapezoid evaluation")

    p = add("stencil", _cmd_stencil, "print finite-difference stencil tables")
    p.add_argument("--n", type=int, default=None, help="derivative order (default 1..8)")
    p.add_argument("--kind", choices=["central", "forward", "backward"], default=None)

    p = add("condition", _cmd_condition, "report the diagonal-dominance margins")
    p.add_argument("--config", required=True)
    p.add_argument("--fail-on-unconditioned", action="store_true")

    p = add("converge", _cmd_converge, "error table against an exact solution expression")
    p.add_argument("--config", required=True)
    p.add_argument("--exact", required=True, help="exact solution expression")
    p.add_argument("--levels", type=int, default=4, help="number of step halvings")

    p = add("oracle", _cmd_oracle, "evaluate an analytic oracle (CSV of t,value)")
    p.add_argument("--name", required=True,
                   choices=["caputo-power", "mittag-leffler", "relaxation", "bessel-series"])
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--n-terms", dest="n_terms", type=int, default=1500)

    p = add("assemble", _cmd_assemble, "dump assembled row coefficients")
    p.add_argument("--config", required=True)
    p.add_argument("--m", type=int, default=None, help="restrict to one row")
    p.add_argument("--dump", action="store_true", help="write (m,k,d_k) CSV")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (solver.SingularPivotError, oracles.ConvergenceError, DomainError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
