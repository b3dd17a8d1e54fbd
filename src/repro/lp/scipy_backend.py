"""HiGHS backend: solve :class:`repro.lp.model.LPModel` with SciPy.

SciPy bundles the open-source HiGHS solver, which — like Gurobi's default
configuration in the paper — runs a presolve phase that removes the redundant
constraints generated from execution graphs and then solves the reduced
problem with the dual simplex or interior-point algorithm.  The marginals
SciPy returns give us constraint duals and variable reduced costs, which is
all LLAMP needs for ``λ_L`` and ``λ_G``.

The model is lowered through :mod:`repro.lp.assembler`, so re-solving the
same model (a latency sweep mutates only variable bounds) reuses the cached
CSR matrix instead of re-expanding the constraint dictionaries.
"""

from __future__ import annotations

import numpy as np

from .assembler import assemble
from .model import (
    InfeasibleError,
    LPError,
    LPModel,
    LPSolution,
    Status,
    UnboundedError,
)

__all__ = ["solve_highs"]


def solve_highs(
    model: LPModel,
    *,
    method: str = "highs",
    presolve: bool = True,
) -> LPSolution:
    """Solve ``model`` with :func:`scipy.optimize.linprog` (HiGHS).

    Every call solves from scratch: ``linprog`` takes no basis.
    """
    from scipy.optimize import linprog

    if model.num_vars == 0:
        raise LPError("model has no variables")
    assembled = assemble(model)

    result = linprog(
        assembled.c,
        A_ub=assembled.A_ub,
        b_ub=assembled.b_ub if assembled.A_ub is not None else None,
        bounds=assembled.linprog_bounds(),
        method=method,
        options={"presolve": presolve},
    )

    if result.status == 2:
        raise InfeasibleError(f"LP {model.name!r} is infeasible: {result.message}")
    if result.status == 3:
        raise UnboundedError(f"LP {model.name!r} is unbounded: {result.message}")
    if result.status != 0:
        raise LPError(f"LP {model.name!r} failed: {result.message}")

    obj_sign = assembled.obj_sign
    values = np.asarray(result.x, dtype=np.float64)
    objective = obj_sign * float(result.fun) + assembled.obj_const

    reduced_costs = None
    duals = None
    # SciPy exposes marginals for the HiGHS methods: sensitivities of the
    # *minimisation* objective w.r.t. the variable bounds / constraint RHS.
    lower = getattr(result, "lower", None)
    if lower is not None and getattr(lower, "marginals", None) is not None:
        # d(min obj)/d(lb); convert back to the user's objective sense.
        reduced_costs = obj_sign * np.asarray(lower.marginals, dtype=np.float64)
    ineqlin = getattr(result, "ineqlin", None)
    if (
        model.num_constraints
        and ineqlin is not None
        and getattr(ineqlin, "marginals", None) is not None
    ):
        duals = obj_sign * np.asarray(ineqlin.marginals, dtype=np.float64)

    return LPSolution(
        status=Status.OPTIMAL,
        objective=objective,
        values=values,
        reduced_costs=reduced_costs,
        duals=duals,
        lower_range=None,
        iterations=int(getattr(result, "nit", 0) or 0),
        backend="highs",
        _model=model,
    )
