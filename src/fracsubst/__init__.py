"""Substitution-method quadrature and finite-difference solvers for linear
fractional differential equations, with conditioning diagnostics and
independent analytic oracles."""

from . import conditioning
from .assembly import AssembledRow, DerivativeTerm, FDEProblem, assemble_row, assemble_system
from .caputo import (
    FracOrder,
    Grid,
    SubstitutionOperator,
    caputo_substitution,
    caputo_substitution_sampled,
    riemann_liouville,
)
from .conditioning import ConditioningReport
from .expr import DomainError, Expression, ParseError, UnknownIdentifierError, parse
from .oracles import (
    ConvergenceError,
    SeriesSolution,
    bessel_residual,
    bessel_series,
    caputo_power,
    mittag_leffler,
    relaxation_solution,
)
from .solver import (
    ConvergenceLevel,
    NonFiniteSolutionError,
    SingularPivotError,
    SolveResult,
    calibrate,
    convergence_study,
    eliminate,
    init_prefix,
    solve,
)
from .stencils import Stencil, backward, central, forward

__version__ = "0.1.0"

__all__ = [
    "AssembledRow",
    "ConditioningReport",
    "ConvergenceError",
    "ConvergenceLevel",
    "DerivativeTerm",
    "DomainError",
    "Expression",
    "FDEProblem",
    "FracOrder",
    "Grid",
    "NonFiniteSolutionError",
    "ParseError",
    "SeriesSolution",
    "SingularPivotError",
    "SolveResult",
    "Stencil",
    "SubstitutionOperator",
    "UnknownIdentifierError",
    "assemble_row",
    "assemble_system",
    "backward",
    "bessel_residual",
    "bessel_series",
    "calibrate",
    "caputo_power",
    "caputo_substitution",
    "caputo_substitution_sampled",
    "central",
    "conditioning",
    "convergence_study",
    "eliminate",
    "forward",
    "init_prefix",
    "mittag_leffler",
    "parse",
    "relaxation_solution",
    "riemann_liouville",
    "solve",
]
