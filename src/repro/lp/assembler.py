"""Incremental CSR assembly: lower an :class:`LPModel` to sparse arrays once.

Every solver call used to expand the model's constraint dictionaries into
fresh coordinate lists — an O(nnz) Python loop per solve, even when the model
structure had not changed between solves.  Latency sweeps re-solve the *same*
model hundreds of times, mutating only the lower bound of the latency
variable, so the lowering dominated everything but the solver itself.

This module lowers a model into an :class:`AssembledLP` — a
:class:`scipy.sparse.csr_matrix` for the constraint rows plus dense NumPy
vectors for the objective, the RHS and the variable bounds — and caches it on
the model.  The cache is keyed by the model's revision counters:

* a *structure* change (variable/constraint added or removed) triggers a full
  re-assembly;
* a *bounds* change only refreshes the ``lb``/``ub`` vectors (O(n), no sparse
  rebuild);
* an *objective* change only refreshes ``c``/``obj_const``/``obj_sign``.

Backends obtain the lowered form through :func:`assemble`; user code never
needs to call this directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import LPModel, Sense

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["AssembledLP", "assemble", "assemble_rows", "assembly_counts"]

# Process-local counters of CSR assemblies performed since import, one per
# entry path.  Tests and the artifact-store acceptance criteria snapshot them
# to assert that cached paths perform *zero* new assemblies (mirroring
# ``PlacementResult.num_reassemblies``).
_ASSEMBLY_COUNTS = {"full": 0, "rows": 0}


def assembly_counts() -> dict[str, int]:
    """A snapshot of the process-wide CSR assembly counters.

    ``"full"`` counts :func:`assemble` cache misses (object-model lowering),
    ``"rows"`` counts :func:`assemble_rows` calls (array-model lowering, one
    per :meth:`repro.lp.model.LPModel.from_arrays`).  Bounds/objective
    refreshes of a cached assembly are not counted.
    """
    return dict(_ASSEMBLY_COUNTS)


@dataclass
class AssembledLP:
    """The standard-form lowering ``min c^T x`` s.t. ``A_ub x <= b_ub``, bounds.

    ``obj_sign`` is ``-1.0`` when the user objective is a maximisation (the
    stored ``c`` is already negated so the lowered problem is always a
    minimisation); ``obj_const`` is the user objective's affine constant.
    """

    c: np.ndarray
    A_ub: sparse.csr_matrix | None
    b_ub: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    obj_const: float
    obj_sign: float
    structure_version: int
    bounds_version: int
    objective_version: int

    def linprog_bounds(self) -> np.ndarray:
        """Bounds as the ``(n, 2)`` array accepted by :func:`scipy.optimize.linprog`."""
        return np.column_stack([self.lb, self.ub])


def _refresh_bounds(assembled: AssembledLP, model: LPModel) -> None:
    n = model.num_vars
    lb = np.empty(n, dtype=np.float64)
    ub = np.empty(n, dtype=np.float64)
    for i, var in enumerate(model.variables):
        lb[i] = var.lb
        ub[i] = var.ub
    assembled.lb = lb
    assembled.ub = ub
    assembled.bounds_version = model.bounds_version


def _refresh_objective(assembled: AssembledLP, model: LPModel) -> None:
    obj_sign = 1.0 if model.sense is Sense.MIN else -1.0
    c = np.zeros(model.num_vars, dtype=np.float64)
    for idx, coeff in model.objective.coeffs.items():
        c[idx] = obj_sign * coeff
    assembled.c = c
    assembled.obj_const = model.objective.constant
    assembled.obj_sign = obj_sign
    assembled.objective_version = model.objective_version


def _full_assembly(model: LPModel) -> AssembledLP:
    from scipy import sparse

    _ASSEMBLY_COUNTS["full"] += 1
    n = model.num_vars
    m = model.num_constraints

    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    b_ub = np.zeros(m, dtype=np.float64)
    for row, constraint in enumerate(model.constraints):
        # constraint: expr >= 0  ->  -coeffs x <= const
        #             expr <= 0  ->   coeffs x <= -const
        sign = -1.0 if constraint.sense == ">=" else 1.0
        for idx, coeff in constraint.expr.coeffs.items():
            rows.append(row)
            cols.append(idx)
            data.append(sign * coeff)
        b_ub[row] = -sign * constraint.expr.constant

    A_ub = None
    if m:
        A_ub = sparse.csr_matrix((data, (rows, cols)), shape=(m, n), dtype=np.float64)

    assembled = AssembledLP(
        c=np.zeros(n, dtype=np.float64),
        A_ub=A_ub,
        b_ub=b_ub,
        lb=np.zeros(n, dtype=np.float64),
        ub=np.zeros(n, dtype=np.float64),
        obj_const=0.0,
        obj_sign=1.0,
        structure_version=model.structure_version,
        bounds_version=-1,
        objective_version=-1,
    )
    _refresh_bounds(assembled, model)
    _refresh_objective(assembled, model)
    return assembled


def assemble_rows(
    model: LPModel,
    rows,
    *,
    lb: np.ndarray | None = None,
    ub: np.ndarray | None = None,
) -> AssembledLP:
    """Lower pre-vectorised constraint rows straight into an :class:`AssembledLP`.

    ``rows`` is a :class:`repro.lp.model._DeferredRows`-shaped object holding
    the constraint expressions in CSR layout (``expr {>=,<=} 0``).  Used by
    :meth:`repro.lp.model.LPModel.from_arrays` to pre-populate the assembled
    cache so the first solve of a compiled model performs no Python-level
    lowering at all.  The canonical standard form matches
    :func:`_full_assembly` exactly: ``expr >= 0`` becomes ``-coeffs x <=
    const`` and ``expr <= 0`` becomes ``coeffs x <= -const``.  ``lb``/``ub``,
    when given, are adopted directly instead of re-gathered from the
    ``Variable`` objects (they must match the model's current bounds).
    """
    from scipy import sparse

    _ASSEMBLY_COUNTS["rows"] += 1
    n = model.num_vars
    m = len(rows)
    sign = -1.0 if rows.sense == ">=" else 1.0
    A_ub = None
    if m:
        A_ub = sparse.csr_matrix(
            (sign * rows.vals, rows.cols, rows.indptr), shape=(m, n), dtype=np.float64
        )
    assembled = AssembledLP(
        c=np.zeros(n, dtype=np.float64),
        A_ub=A_ub,
        b_ub=-sign * rows.consts,
        lb=np.zeros(n, dtype=np.float64),
        ub=np.zeros(n, dtype=np.float64),
        obj_const=0.0,
        obj_sign=1.0,
        structure_version=model.structure_version,
        bounds_version=-1,
        objective_version=-1,
    )
    if lb is not None and ub is not None:
        assembled.lb = np.asarray(lb, dtype=np.float64)
        assembled.ub = np.asarray(ub, dtype=np.float64)
        assembled.bounds_version = model.bounds_version
    else:
        _refresh_bounds(assembled, model)
    _refresh_objective(assembled, model)
    return assembled


def assemble(model: LPModel) -> AssembledLP:
    """Lower ``model`` to sparse standard form, reusing the cached assembly.

    The returned object is shared across calls: treat it as read-only (it is
    refreshed in place when only bounds or the objective changed).
    """
    cached = model._assembled_cache
    if isinstance(cached, AssembledLP) and cached.structure_version == model.structure_version:
        if cached.bounds_version != model.bounds_version:
            _refresh_bounds(cached, model)
        if cached.objective_version != model.objective_version:
            _refresh_objective(cached, model)
        return cached
    assembled = _full_assembly(model)
    model._assembled_cache = assembled
    return assembled
