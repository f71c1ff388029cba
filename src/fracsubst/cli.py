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

Every key but ``term`` may appear once: a repeat is a usage error naming its line.
Every command but ``stencil`` takes h and t_end from ``--h``/``--t-end``, else
from the config, and its step count M from :meth:`~.caputo.Grid.steps`: h
must divide t_end to 1e-9 of it, and a grid whose M + 1 nodes do not fit in
physical memory is an argument error (exit 1).

CSV output has a header row and '\n' line endings.  A table is written
column by column: each column is one sequence of str, int or float, and
each field is ``str`` of its value.  So floats are written in their
shortest round-trip form (``repr``), and ``float()`` of a field gives back
the computed double exactly; integer columns (row and column indices) are
written as integers.  Identical inputs produce byte-identical files.
``deriv`` rows come from one substitution operator's trapezoid convolution:
over the stencil values of samples of f for ``--expr``, each row m with the
stencils of a grid ending at x_m (no row m < n = ceil(alpha), the plain n-th
difference in row n, and an error on fewer than n steps), over samples of
f^(n) for ``--dnf``; a non-finite ``deriv`` value (finite samples whose sum
overflows) exits 2.
Exit codes are decided in :func:`main` by exception class: 0 success; 1 and
one ``error:`` line for a ``ValueError`` (usage, config or argument error,
non-finite initial conditions, calibration values or oracle parameters
among them) or an ``OSError`` (unreadable config, unwritable output); 2 and
one ``numerical failure:`` line for an ``ArithmeticError`` (non-finite data,
an overflowing row, solution or calibration rescale, a singular pivot); 2 and
``out of memory:`` where the dense system of ``assemble`` exceeds physical memory.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import oracles, solver, stencils
from .assembly import DerivativeTerm, FDEProblem, assemble_row, assemble_system
from .caputo import Grid, SubstitutionOperator
from .expr import ParseError, parse

__all__ = ["main", "ProblemConfig", "parse_config", "build_problem"]


class UsageError(ValueError):
    pass


def _write_csv(path: str | None, header: list[str], *columns) -> None:
    """Write one CSV table from its columns, each a sequence of str, int or float."""
    cells = [map(str, np.asarray(column).tolist()) for column in columns]
    text = "\n".join([",".join(header), *map(",".join, zip(*cells, strict=True))]) + "\n"
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


def _unquote(text: str) -> str:
    text = text.strip()
    if len(text) < 2 or text[0] != '"' or text[-1] != '"':
        raise ValueError(f"expression must be double-quoted, got {text!r}")
    return text[1:-1]


def parse_config(text: str) -> ProblemConfig:
    cfg = ProblemConfig()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.match(r'(?:[^"#]|"[^"]*"?)*', raw).group().strip()  # up to a '#' outside quotes
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        try:
            if key in seen and key != "term":
                raise ValueError("repeated key")
            seen.add(key)
            if key == "term":
                alpha_text, _, expr_text = value.partition(",")
                cfg.terms.append((float(alpha_text), _unquote(expr_text)))
            elif key == "p":
                cfg.p = _unquote(value)
            elif key == "f":
                cfg.f = _unquote(value)
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
                raise ValueError("unknown key")
        except ValueError as exc:
            raise UsageError(f"line {lineno} ({key}): {exc}") from exc
    if not cfg.terms:
        raise UsageError("config defines no derivative terms")
    return cfg


def build_problem(cfg: ProblemConfig) -> FDEProblem:
    try:
        terms = tuple(DerivativeTerm(alpha, parse(expr)) for alpha, expr in cfg.terms)
        return FDEProblem(terms, parse(cfg.p), parse(cfg.f), tuple(cfg.ics))
    except ParseError as exc:
        raise UsageError(f"config expression: {exc}") from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _grid_params(h: float | None, t_end: float | None) -> tuple[float, float, int]:
    """h, t_end and the step count of their grid, by :meth:`~.caputo.Grid.steps`."""
    if h is None or t_end is None:
        raise UsageError("grid step and end point needed (--h/--t-end or config h/t_end)")
    return h, t_end, Grid.steps(h, t_end)


def _load_problem(args) -> tuple[ProblemConfig, FDEProblem, float, float, int]:
    """Read ``--config``, build its problem, then take its grid: returns the
    config, the problem, h, t_end and the number of steps."""
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    h, t_end = (cfg.h if args.h is None else args.h), (cfg.t_end if args.t_end is None else args.t_end)
    return (cfg, build_problem(cfg), *_grid_params(h, t_end))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_solve(args) -> int:
    cfg, problem, h, _, max_rows = _load_problem(args)
    if cfg.calibrate is not None:
        eps, t_star, u_star = cfg.calibrate
        result = solver.calibrate(problem, eps, (t_star, u_star), h, max_rows)
    else:
        result = solver.solve(problem, h, max_rows)
    report = result.report
    print(
        f"solved {max_rows + 1} nodes; conditioning satisfied={report.satisfied} "
        f"delta={report.delta!r}; min pivot {result.pivot_min!r}; "
        f"{len(result.degraded_rows)} degraded rows",
        file=sys.stderr,
    )
    _write_csv(args.out, ["t", "y"], result.grid.nodes, result.y)
    return 0


def _cmd_deriv(args) -> int:
    h, _, max_rows = _grid_params(args.h, args.t_end)
    fn = parse(args.expr if args.expr is not None else args.dnf)
    op = SubstitutionOperator(args.alpha, h, max_rows)
    nodes = np.arange(max_rows + 1) * h
    values = fn(nodes)
    if args.expr is not None:
        _write_csv(args.out, ["t", "value"], nodes[op.n :], op.apply_rows(values, op.n, max_rows + 1))
    else:
        _write_csv(args.out, ["t", "value"], nodes[1:], op.quadrature(values))
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
            rows.extend((kind, n, st.norm_denominator, o, float(w)) for o, w in zip(st.offsets, st.weights))
    if args.out:
        _write_csv(args.out, ["kind", "n", "b", "offset", "weight"], *zip(*rows))
    return 0


def _cmd_condition(args) -> int:
    _, problem, h, _, max_rows = _load_problem(args)
    report = solver.report(problem, h, max_rows)
    print(f"rows checked: {report.rows.size} (m={report.rows[0]}..{report.rows[-1]})")
    print(f"delta (min margin): {report.delta!r}")
    print(f"satisfied: {report.satisfied}")
    print(f"alternative constants: A={report.alt_a!r} B={report.alt_b!r}")
    if args.out:
        _write_csv(args.out, ["m", "diag", "offdiag", "margin"],
                   report.rows, report.diag, report.offdiag, report.margin)
    if args.fail_on_unconditioned and not report.satisfied:
        print("system is not certified well-conditioned", file=sys.stderr)
        return 2
    return 0


def _cmd_converge(args) -> int:
    _, problem, h, t_end, _ = _load_problem(args)
    exact = parse(args.exact)
    if args.levels < 1:
        raise UsageError(f"--levels must be at least 1, got {args.levels}")
    hs = [h / 2**i for i in range(args.levels)]
    levels = solver.convergence_study(problem, exact, hs, t_end)
    _write_csv(args.out, ["h", "max_error", "observed_order"], *zip(*levels))
    return 0


def _cmd_oracle(args) -> int:
    h, _, max_rows = _grid_params(args.h, args.t_end)
    ts = np.arange(max_rows + 1) * h
    name = args.name
    needs = {"caputo-power": ["alpha", "beta"], "mittag-leffler": ["a", "b"],
             "relaxation": ["alpha"], "bessel-series": ["nu"]}[name]  # argparse restricts the names
    if any(getattr(args, arg) is None for arg in needs):
        raise UsageError(f"{name} needs " + " and ".join(f"--{arg}" for arg in needs))
    if name == "caputo-power":
        ts = ts[1:]
        values = [oracles.caputo_power(args.alpha, args.beta, t) for t in ts]
    elif name == "mittag-leffler":
        values = [oracles.mittag_leffler(args.a, args.b, t, args.tol) for t in ts]
    elif name == "relaxation":
        values = [oracles.relaxation_solution(args.alpha, t) for t in ts]
    else:
        sol = oracles.bessel_series(args.nu, args.n_terms)
        print(f"gamma={sol.gamma!r} radius_hint={sol.radius_hint!r}", file=sys.stderr)
        values = sol(ts)
    _write_csv(args.out, ["t", "value"], ts, values)
    return 0


def _cmd_assemble(args) -> int:
    _, problem, h, _, max_rows = _load_problem(args)
    if args.m is not None and not problem.order <= args.m <= max_rows:
        raise UsageError(f"row m={args.m} is not assembled (prefix or out of range)")
    rows = assemble_system(problem, h, max_rows) if args.m is None else [assemble_row(problem, h, args.m)]
    if args.dump:
        ms = [row.m for row in rows]
        ks = np.concatenate([np.arange(m + 1) for m in ms])
        d_ks = np.concatenate([row.d for row in rows])
        _write_csv(args.out, ["m", "k", "d_k"], np.repeat(ms, np.add(ms, 1)), ks, d_ks)
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
