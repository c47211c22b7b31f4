"""Modeling, conic solving, and solution-map derivatives for log-log
convex programs."""

from llcp.diff import LsqrNoConvergence, NonsmoothWarning, NonuniqueWarning
from llcp.expr import (
    ArityError,
    Constant,
    Constraint,
    DomainError,
    ExpressionError,
    Parameter,
    PowerRuleError,
    ShapeError,
    Variable,
    add,
    curvature,
    diff_pos,
    evaluate,
    exp,
    log,
    maximum,
    minimum,
    mul,
    one,
    power,
    ratio,
)
from llcp.probfile import ProblemFileError, load_problem, save_problem
from llcp.problem import (
    Maximize,
    Minimize,
    NoDerivativeStateError,
    NotDgpError,
    Problem,
)

__version__ = "0.1.0"

__all__ = [
    "ArityError",
    "Constant",
    "Constraint",
    "DomainError",
    "ExpressionError",
    "LsqrNoConvergence",
    "Maximize",
    "Minimize",
    "NoDerivativeStateError",
    "NonsmoothWarning",
    "NonuniqueWarning",
    "NotDgpError",
    "Parameter",
    "PowerRuleError",
    "Problem",
    "ProblemFileError",
    "ShapeError",
    "Variable",
    "add",
    "curvature",
    "diff_pos",
    "evaluate",
    "exp",
    "load_problem",
    "log",
    "maximum",
    "minimum",
    "mul",
    "one",
    "power",
    "ratio",
    "save_problem",
    "__version__",
]
