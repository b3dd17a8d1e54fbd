"""Linear programming layer: modelling objects and interchangeable backends."""

from .assembler import AssembledLP, assemble, assemble_rows
from .backends import BackendRegistry, BackendSpec, default_registry
from .compiler import CompiledLP, compile_lp
from .parametric import EnvelopeOverflowError, ParametricLP, Tangent, TangentEnvelope
from .model import (
    Constraint,
    InfeasibleError,
    LinearExpr,
    LPError,
    LPModel,
    LPSolution,
    Sense,
    Status,
    UnboundedError,
    Variable,
)
from .scipy_backend import solve_highs
from .simplex import SimplexOptions, solve_simplex

__all__ = [
    "LPModel",
    "LPSolution",
    "LinearExpr",
    "Variable",
    "Constraint",
    "Sense",
    "Status",
    "LPError",
    "InfeasibleError",
    "UnboundedError",
    "solve_highs",
    "solve_simplex",
    "SimplexOptions",
    "AssembledLP",
    "assemble",
    "assemble_rows",
    "CompiledLP",
    "compile_lp",
    "ParametricLP",
    "Tangent",
    "TangentEnvelope",
    "EnvelopeOverflowError",
    "BackendRegistry",
    "BackendSpec",
    "default_registry",
]
