"""A small linear-programming modelling layer.

LLAMP converts execution graphs into linear programs (Section II-C,
Algorithm 1).  The paper uses Gurobi; this reproduction provides a
self-contained modelling layer with interchangeable open backends:

* ``"highs"`` — :func:`scipy.optimize.linprog` with the HiGHS solver
  (default; handles the large LPs generated from application graphs and
  returns dual values / reduced costs);
* ``"simplex"`` — a dense bounded-variable simplex implemented in
  :mod:`repro.lp.simplex` (small problems; additionally reports the ranging
  information that Gurobi exposes as ``SARHSLow``/``SALBLow``).

The modelling objects are deliberately minimal: variables with bounds,
affine expressions, ``>=``/``<=``/``==`` constraints and a linear objective.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "Sense",
    "Status",
    "Variable",
    "LinearExpr",
    "Constraint",
    "LPModel",
    "LPSolution",
    "LPError",
    "InfeasibleError",
    "UnboundedError",
]


class LPError(RuntimeError):
    """Base class for solver failures."""


class InfeasibleError(LPError):
    """The LP has no feasible solution."""


class UnboundedError(LPError):
    """The LP is unbounded in the optimisation direction."""


class Sense(enum.Enum):
    """Objective sense."""

    MIN = "min"
    MAX = "max"


class Status(enum.Enum):
    """Solver status."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


@dataclass(frozen=True)
class Variable:
    """A decision variable (identified by its index within one model)."""

    model_id: int
    index: int
    name: str
    lb: float = 0.0
    ub: float = float("inf")

    # -- expression building -------------------------------------------------

    def to_expr(self) -> "LinearExpr":
        return LinearExpr({self.index: 1.0}, 0.0)

    def __add__(self, other: "Variable | LinearExpr | float") -> "LinearExpr":
        return self.to_expr() + other

    def __radd__(self, other: float) -> "LinearExpr":
        return self.to_expr() + other

    def __sub__(self, other: "Variable | LinearExpr | float") -> "LinearExpr":
        return self.to_expr() - other

    def __rsub__(self, other: float) -> "LinearExpr":
        return (-1.0) * self.to_expr() + other

    def __mul__(self, factor: float) -> "LinearExpr":
        return self.to_expr() * factor

    def __rmul__(self, factor: float) -> "LinearExpr":
        return self.to_expr() * factor

    def __neg__(self) -> "LinearExpr":
        return self.to_expr() * -1.0

    def __ge__(self, other: "Variable | LinearExpr | float") -> "Constraint":
        return self.to_expr() >= other

    def __le__(self, other: "Variable | LinearExpr | float") -> "Constraint":
        return self.to_expr() <= other


class LinearExpr:
    """An affine expression ``sum(coeff_i * x_i) + constant``."""

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs: Mapping[int, float] | None = None, constant: float = 0.0) -> None:
        self.coeffs: dict[int, float] = dict(coeffs) if coeffs else {}
        self.constant = float(constant)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _coerce(value: "Variable | LinearExpr | float") -> "LinearExpr":
        if isinstance(value, LinearExpr):
            return value
        if isinstance(value, Variable):
            return value.to_expr()
        if isinstance(value, (int, float, np.floating, np.integer)):
            return LinearExpr({}, float(value))
        raise TypeError(f"cannot interpret {value!r} as a linear expression")

    def copy(self) -> "LinearExpr":
        return LinearExpr(dict(self.coeffs), self.constant)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Variable | LinearExpr | float") -> "LinearExpr":
        rhs = self._coerce(other)
        result = self.copy()
        for idx, coeff in rhs.coeffs.items():
            result.coeffs[idx] = result.coeffs.get(idx, 0.0) + coeff
            if result.coeffs[idx] == 0.0:
                del result.coeffs[idx]
        result.constant += rhs.constant
        return result

    __radd__ = __add__

    def __sub__(self, other: "Variable | LinearExpr | float") -> "LinearExpr":
        return self + (self._coerce(other) * -1.0)

    def __rsub__(self, other: float) -> "LinearExpr":
        return (self * -1.0) + other

    def __mul__(self, factor: float) -> "LinearExpr":
        if not isinstance(factor, (int, float, np.floating, np.integer)):
            raise TypeError("linear expressions can only be scaled by numbers")
        return LinearExpr(
            {idx: coeff * float(factor) for idx, coeff in self.coeffs.items()},
            self.constant * float(factor),
        )

    __rmul__ = __mul__

    def __neg__(self) -> "LinearExpr":
        return self * -1.0

    # -- comparisons build constraints -----------------------------------------

    def __ge__(self, other: "Variable | LinearExpr | float") -> "Constraint":
        return Constraint(self - other, ">=")

    def __le__(self, other: "Variable | LinearExpr | float") -> "Constraint":
        return Constraint(self - other, "<=")

    # -- evaluation -------------------------------------------------------------

    def value(self, assignment: Sequence[float] | np.ndarray) -> float:
        """Evaluate the expression for a full variable assignment."""
        total = self.constant
        for idx, coeff in self.coeffs.items():
            total += coeff * float(assignment[idx])
        return total

    def is_constant(self) -> bool:
        return not self.coeffs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        terms = [f"{coeff:+g}*x{idx}" for idx, coeff in sorted(self.coeffs.items())]
        terms.append(f"{self.constant:+g}")
        return " ".join(terms)


@dataclass
class Constraint:
    """A linear constraint in the canonical form ``expr >= 0`` or ``expr <= 0``."""

    expr: LinearExpr
    sense: str  # ">=" or "<="
    name: str = ""
    index: int = -1

    def __post_init__(self) -> None:
        if self.sense not in (">=", "<="):
            raise ValueError(f"constraint sense must be '>=' or '<=', got {self.sense!r}")

    def violation(self, assignment: Sequence[float] | np.ndarray) -> float:
        """How much the constraint is violated by ``assignment`` (0 if satisfied)."""
        value = self.expr.value(assignment)
        if self.sense == ">=":
            return max(0.0, -value)
        return max(0.0, value)

    def slack(self, assignment: Sequence[float] | np.ndarray) -> float:
        """Signed slack (non-negative when the constraint is satisfied)."""
        value = self.expr.value(assignment)
        return value if self.sense == ">=" else -value


class _DeferredRows:
    """Constraint rows kept in CSR-style arrays until something needs objects.

    Models built through :meth:`LPModel.from_arrays` ship their rows as
    ``(indptr, cols, vals, consts)`` describing expressions ``expr_i`` with
    ``expr_i >= 0`` (or ``<= 0``).  The solver hot path never touches
    :class:`Constraint` objects (backends consume the pre-populated assembled
    cache), so materialisation is deferred until the first structural
    mutation or introspection (``tight_constraints``, ``add_le``, …).
    """

    __slots__ = ("indptr", "cols", "vals", "consts", "sense")

    def __init__(
        self,
        indptr: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        consts: np.ndarray,
        sense: str = ">=",
    ) -> None:
        if sense not in (">=", "<="):
            raise ValueError(f"row sense must be '>=' or '<=', got {sense!r}")
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=np.float64)
        self.consts = np.asarray(consts, dtype=np.float64)
        self.sense = sense

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def materialise(self) -> list[Constraint]:
        """Expand every row into a real :class:`Constraint` (one-time cost)."""
        indptr = self.indptr.tolist()
        cols = self.cols.tolist()
        vals = self.vals.tolist()
        consts = self.consts.tolist()
        constraints = []
        for i in range(len(self)):
            lo, hi = indptr[i], indptr[i + 1]
            constraint = Constraint(
                LinearExpr(dict(zip(cols[lo:hi], vals[lo:hi])), consts[i]),
                self.sense,
            )
            constraint.index = i
            constraints.append(constraint)
        return constraints


class LPModel:
    """A linear program: variables, constraints, objective."""

    _next_model_id = 0

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self._id = LPModel._next_model_id
        LPModel._next_model_id += 1
        self.variables: list[Variable] = []
        self._constraints: list[Constraint] = []
        self._deferred_rows: _DeferredRows | None = None
        self.objective: LinearExpr = LinearExpr()
        self.sense: Sense = Sense.MIN
        # Revision counters consumed by :mod:`repro.lp.assembler` to decide
        # how much of the cached CSR lowering can be reused between solves.
        self._structure_version = 0
        self._bounds_version = 0
        self._objective_version = 0
        self._assembled_cache: object | None = None

    # -- construction ----------------------------------------------------------

    @property
    def constraints(self) -> list[Constraint]:
        """The constraint list (materialised on first access for array models)."""
        if self._deferred_rows is not None:
            self._constraints = self._deferred_rows.materialise()
            self._deferred_rows = None
        return self._constraints

    @classmethod
    def from_arrays(
        cls,
        *,
        name: str = "lp",
        var_names: Sequence[str],
        lb: Sequence[float] | np.ndarray,
        ub: Sequence[float] | np.ndarray | None = None,
        row_indptr: np.ndarray,
        row_cols: np.ndarray,
        row_vals: np.ndarray,
        row_consts: np.ndarray,
        row_sense: str = ">=",
    ) -> "LPModel":
        """Construct a model directly from pre-lowered arrays.

        ``row_*`` describe the constraint expressions in CSR layout: row ``i``
        is ``sum(row_vals[k] * x[row_cols[k]]) + row_consts[i] {>=,<=} 0`` for
        ``k`` in ``[row_indptr[i], row_indptr[i+1])``.  Column indices must be
        unique and sorted within each row, with no explicit zeros — the same
        canonical form the incremental assembler produces from dict-backed
        constraints.

        The returned model satisfies the full revision-counter protocol: its
        assembled cache is pre-populated (so the first solve performs no
        Python-level lowering), bound/objective updates refresh the cached
        vectors in place, and any structural mutation (``add_constraint`` /
        ``pop_constraint``) materialises real :class:`Constraint` objects and
        falls back to the ordinary re-assembly path.
        """
        lb = np.asarray(lb, dtype=np.float64)
        ub = (
            np.full(len(lb), np.inf, dtype=np.float64)
            if ub is None
            else np.asarray(ub, dtype=np.float64)
        )
        if not (len(var_names) == len(lb) == len(ub)):
            raise ValueError("var_names, lb and ub must have matching lengths")
        if np.any(lb > ub):
            bad = int(np.flatnonzero(lb > ub)[0])
            raise ValueError(
                f"variable {var_names[bad]}: lower bound {lb[bad]} exceeds "
                f"upper bound {ub[bad]}"
            )
        model = cls(name=name)
        # bulk Variable construction bypassing the frozen-dataclass __init__
        # (object.__setattr__ per field): this loop is the hot spot of large
        # compiled builds, and instances are plain-__dict__ objects
        new = Variable.__new__
        variables = []
        for i, (vname, vlb, vub) in enumerate(zip(var_names, lb.tolist(), ub.tolist())):
            var = new(Variable)
            var.__dict__.update(
                model_id=model._id, index=i, name=vname, lb=vlb, ub=vub
            )
            variables.append(var)
        model.variables = variables
        model._deferred_rows = _DeferredRows(
            row_indptr, row_cols, row_vals, row_consts, row_sense
        )
        model._structure_version = len(model.variables) + len(model._deferred_rows)
        from .assembler import assemble_rows

        model._assembled_cache = assemble_rows(model, model._deferred_rows, lb=lb, ub=ub)
        return model

    def to_arrays(self) -> dict[str, object]:
        """Lower the model to the canonical array form of :meth:`from_arrays`.

        Returns a dictionary whose keys match the keyword arguments of
        :meth:`from_arrays` (``name``, ``var_names``, ``lb``, ``ub``,
        ``row_indptr``, ``row_cols``, ``row_vals``, ``row_consts``,
        ``row_sense``), so ``LPModel.from_arrays(**model.to_arrays())``
        reconstructs an equivalent model.  Array-built models export their
        deferred CSR rows verbatim (a bit-exact round trip); object-built
        models are canonicalised — within each row the columns are sorted
        and unique with explicit zeros dropped, and ``<=`` rows are negated
        into the uniform ``expr >= 0`` form (same feasible set and optimum;
        the dual of a flipped row changes sign).  The objective is *not*
        included.
        """
        lb = np.array([var.lb for var in self.variables], dtype=np.float64)
        ub = np.array([var.ub for var in self.variables], dtype=np.float64)
        var_names = [var.name for var in self.variables]
        if self._deferred_rows is not None:
            rows = self._deferred_rows
            return {
                "name": self.name,
                "var_names": var_names,
                "lb": lb,
                "ub": ub,
                "row_indptr": rows.indptr.copy(),
                "row_cols": rows.cols.copy(),
                "row_vals": rows.vals.copy(),
                "row_consts": rows.consts.copy(),
                "row_sense": rows.sense,
            }
        indptr = np.zeros(len(self._constraints) + 1, dtype=np.int64)
        cols: list[int] = []
        vals: list[float] = []
        consts = np.zeros(len(self._constraints), dtype=np.float64)
        for i, constraint in enumerate(self._constraints):
            sign = 1.0 if constraint.sense == ">=" else -1.0
            items = sorted(
                (idx, sign * coeff)
                for idx, coeff in constraint.expr.coeffs.items()
                if coeff != 0.0
            )
            cols.extend(idx for idx, _ in items)
            vals.extend(coeff for _, coeff in items)
            consts[i] = sign * constraint.expr.constant
            indptr[i + 1] = len(cols)
        return {
            "name": self.name,
            "var_names": var_names,
            "lb": lb,
            "ub": ub,
            "row_indptr": indptr,
            "row_cols": np.asarray(cols, dtype=np.int64),
            "row_vals": np.asarray(vals, dtype=np.float64),
            "row_consts": consts,
            "row_sense": ">=",
        }

    def add_var(
        self, name: str | None = None, lb: float = 0.0, ub: float = float("inf")
    ) -> Variable:
        """Add a decision variable with bounds ``[lb, ub]``."""
        if lb > ub:
            raise ValueError(f"variable {name}: lower bound {lb} exceeds upper bound {ub}")
        index = len(self.variables)
        var = Variable(
            model_id=self._id,
            index=index,
            name=name or f"x{index}",
            lb=float(lb),
            ub=float(ub),
        )
        self.variables.append(var)
        self._structure_version += 1
        return var

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Add a constraint created with ``expr >= other`` / ``expr <= other``."""
        if not isinstance(constraint, Constraint):
            raise TypeError(
                "add_constraint expects a Constraint (build one with 'expr >= value')"
            )
        constraint.index = len(self.constraints)
        if name:
            constraint.name = name
        self.constraints.append(constraint)
        self._structure_version += 1
        return constraint

    def add_ge(self, lhs: Variable | LinearExpr, rhs: Variable | LinearExpr | float,
               name: str = "") -> Constraint:
        """Add ``lhs >= rhs``."""
        return self.add_constraint(LinearExpr._coerce(lhs) >= rhs, name=name)

    def add_le(self, lhs: Variable | LinearExpr, rhs: Variable | LinearExpr | float,
               name: str = "") -> Constraint:
        """Add ``lhs <= rhs``."""
        return self.add_constraint(LinearExpr._coerce(lhs) <= rhs, name=name)

    def pop_constraint(self) -> Constraint:
        """Remove and return the most recently added constraint.

        Temporary rows (e.g. the runtime bound of the latency-tolerance LP)
        must be removed through this method so the cached assembly is
        invalidated; popping ``model.constraints`` directly leaves stale
        lowered arrays behind.
        """
        if not self.constraints:
            raise LPError("model has no constraints to remove")
        constraint = self.constraints.pop()
        self._structure_version += 1
        return constraint

    def set_objective(self, expr: Variable | LinearExpr, sense: Sense | str = Sense.MIN) -> None:
        """Set the objective function and optimisation direction."""
        self.objective = LinearExpr._coerce(expr)
        self.sense = Sense(sense) if not isinstance(sense, Sense) else sense
        self._objective_version += 1

    def set_var_lb(self, var: Variable, lb: float) -> Variable:
        """Replace the lower bound of ``var`` (returns the updated variable).

        Used by Algorithm 2 and the tolerance analysis, which repeatedly
        re-solve the same model with a different bound on ``l``.
        """
        if var.model_id != self._id:
            raise ValueError("variable does not belong to this model")
        updated = Variable(
            model_id=self._id, index=var.index, name=var.name, lb=float(lb), ub=var.ub
        )
        self.variables[var.index] = updated
        self._bounds_version += 1
        return updated

    def set_var_ub(self, var: Variable, ub: float) -> Variable:
        """Replace the upper bound of ``var`` (returns the updated variable)."""
        if var.model_id != self._id:
            raise ValueError("variable does not belong to this model")
        updated = Variable(
            model_id=self._id, index=var.index, name=var.name, lb=var.lb, ub=float(ub)
        )
        self.variables[var.index] = updated
        self._bounds_version += 1
        return updated

    # -- introspection -----------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        if self._deferred_rows is not None:
            return len(self._deferred_rows)
        return len(self._constraints)

    @property
    def structure_version(self) -> int:
        """Bumped whenever variables or constraints are added/removed."""
        return self._structure_version

    @property
    def bounds_version(self) -> int:
        """Bumped whenever a variable bound changes."""
        return self._bounds_version

    @property
    def objective_version(self) -> int:
        """Bumped whenever the objective (coefficients or sense) changes."""
        return self._objective_version

    def invalidate(self) -> None:
        """Force a full re-assembly on the next solve.

        Only needed after mutating ``variables``/``constraints``/``objective``
        directly instead of going through the ``add_*``/``set_*``/``pop_*``
        methods.
        """
        self._structure_version += 1

    def variable_by_name(self, name: str) -> Variable:
        for var in self.variables:
            if var.name == name:
                return var
        raise KeyError(f"no variable named {name!r}")

    # -- solving -----------------------------------------------------------------

    def solve(self, backend: str = "highs", **options: object) -> "LPSolution":
        """Solve the model with the selected backend and return a solution.

        ``backend`` names an entry of the default
        :class:`~repro.lp.backends.BackendRegistry` (``"highs"``,
        ``"simplex"``, or anything registered by the caller).
        """
        from .backends import default_registry

        return default_registry.solve(self, backend=backend, **options)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LPModel(name={self.name!r}, vars={self.num_vars}, "
            f"constraints={self.num_constraints}, sense={self.sense.value})"
        )


@dataclass
class LPSolution:
    """The result of solving an :class:`LPModel`.

    ``reduced_costs[i]`` is the sensitivity of the objective to the *lower
    bound* of variable ``i`` (this is exactly the quantity LLAMP reads off to
    obtain ``λ_L``, Section II-D1).  ``duals[j]`` is the sensitivity of the
    objective to relaxing constraint ``j``.  Backends that cannot provide a
    field leave it as ``None``.
    """

    status: Status
    objective: float
    values: np.ndarray
    reduced_costs: np.ndarray | None = None
    duals: np.ndarray | None = None
    lower_range: np.ndarray | None = None
    iterations: int = 0
    backend: str = ""
    _model: LPModel | None = None

    def value(self, var: Variable) -> float:
        """Value of ``var`` in the optimal solution."""
        return float(self.values[var.index])

    def reduced_cost(self, var: Variable) -> float:
        """Reduced cost of ``var`` (w.r.t. its lower bound)."""
        if self.reduced_costs is None:
            raise LPError(f"backend {self.backend!r} did not provide reduced costs")
        return float(self.reduced_costs[var.index])

    def dual(self, constraint: Constraint) -> float:
        """Dual value (shadow price) of ``constraint``."""
        if self.duals is None:
            raise LPError(f"backend {self.backend!r} did not provide dual values")
        return float(self.duals[constraint.index])

    def tight_constraints(self, tolerance: float = 1e-6) -> list[int]:
        """Indices of constraints satisfied with equality (the critical path)."""
        if self._model is None:
            raise LPError("solution is not attached to a model")
        tight = []
        for constraint in self._model.constraints:
            if abs(constraint.slack(self.values)) <= tolerance:
                tight.append(constraint.index)
        return tight

    def is_optimal(self) -> bool:
        return self.status is Status.OPTIMAL
