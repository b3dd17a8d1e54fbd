"""A self-contained dense two-phase simplex solver.

The paper relies on Gurobi; this module provides a small, dependency-free
alternative so that every quantity LLAMP reads off a solver — the optimal
objective, variable values, constraint duals, variable *reduced costs* and the
bound-ranging information behind Gurobi's ``SALBLow`` attribute (used by
Algorithm 2) — can be obtained from first principles and cross-checked against
the HiGHS backend.

The implementation is a textbook dense tableau simplex:

1. every variable is shifted by its lower bound so the working variables are
   non-negative; finite upper bounds become explicit ``<=`` rows;
2. inequality rows get slack/surplus variables, producing ``A x = b`` with
   ``b >= 0``;
3. phase one minimises the sum of artificial variables to find a basic
   feasible solution, phase two optimises the user objective;
4. Bland's rule is used throughout, which guarantees termination (at the cost
   of speed — this backend targets small and medium problems such as the
   paper's running examples, unit tests and the rank-placement LPs).

Dual values and reduced costs are recovered from the final tableau, and the
allowable decrease of each variable's lower bound (``SALBLow``) is obtained
with a ratio test on the corresponding tableau column.
"""

from __future__ import annotations

import numpy as np

from .model import (
    InfeasibleError,
    LPError,
    LPModel,
    LPSolution,
    Sense,
    Status,
    UnboundedError,
)

__all__ = ["solve_simplex", "SimplexOptions"]

_EPS = 1e-9


class SimplexOptions:
    """Tuning knobs of the dense simplex (exposed mainly for tests)."""

    def __init__(self, max_iterations: int = 20000, tolerance: float = 1e-9) -> None:
        if max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        self.max_iterations = max_iterations
        self.tolerance = tolerance


def solve_simplex(
    model: LPModel,
    *,
    options: SimplexOptions | None = None,
) -> LPSolution:
    """Solve ``model`` with the dense two-phase simplex.

    The tableau is rebuilt on every call, and phase one always starts from
    the artificial basis.
    """
    options = options or SimplexOptions()
    n_user = model.num_vars
    if n_user == 0:
        raise LPError("model has no variables")
    if n_user * (model.num_constraints + n_user) > 4_000_000:
        raise LPError(
            "the dense simplex backend is meant for small problems; "
            "use backend='highs' for large execution graphs"
        )

    sense_sign = 1.0 if model.sense is Sense.MIN else -1.0
    lb = np.array([v.lb for v in model.variables], dtype=np.float64)
    ub = np.array([v.ub for v in model.variables], dtype=np.float64)
    if np.any(~np.isfinite(lb)):
        raise LPError("the simplex backend requires finite lower bounds")

    # Build the row system over the *shifted* variables y = x - lb  (y >= 0).
    #   user constraint  expr >= 0:   a·x + c0 >= 0  ->  a·y >= -(c0 + a·lb)
    #   user constraint  expr <= 0:   a·y <= -(c0 + a·lb)
    #   finite upper bound x_i <= u:  y_i <= u - lb_i
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    senses: list[str] = []  # ">=" or "<="
    row_is_user: list[int] = []  # index of the user constraint or -1 for a bound row

    for ci, constraint in enumerate(model.constraints):
        a = np.zeros(n_user, dtype=np.float64)
        for idx, coeff in constraint.expr.coeffs.items():
            a[idx] = coeff
        shift = constraint.expr.constant + float(a @ lb)
        rows.append(a)
        rhs.append(-shift)
        senses.append(constraint.sense)
        row_is_user.append(ci)

    for i in range(n_user):
        if np.isfinite(ub[i]):
            a = np.zeros(n_user, dtype=np.float64)
            a[i] = 1.0
            rows.append(a)
            rhs.append(ub[i] - lb[i])
            senses.append("<=")
            row_is_user.append(-1)

    m = len(rows)
    A_rows = np.vstack(rows) if m else np.zeros((0, n_user))
    b = np.asarray(rhs, dtype=np.float64)

    # objective over shifted variables
    c_user = np.zeros(n_user, dtype=np.float64)
    for idx, coeff in model.objective.coeffs.items():
        c_user[idx] = sense_sign * coeff
    obj_const = model.objective.constant + float(
        sum(coeff * lb[idx] for idx, coeff in model.objective.coeffs.items())
    )

    # add slack (for <=) / surplus (for >=) variables
    n_slack = m
    A = np.zeros((m, n_user + n_slack), dtype=np.float64)
    if m:
        A[:, :n_user] = A_rows
    for r in range(m):
        A[r, n_user + r] = 1.0 if senses[r] == "<=" else -1.0
    c = np.concatenate([c_user, np.zeros(n_slack)])

    # normalise to b >= 0 (remember which rows were flipped so that dual signs
    # can be restored afterwards)
    flipped = np.zeros(m, dtype=bool)
    for r in range(m):
        if b[r] < 0:
            A[r, :] *= -1.0
            b[r] *= -1.0
            flipped[r] = True

    n_total = n_user + n_slack
    tableau, basis, status = _phase_one(A, b, n_total, options)
    if status is Status.INFEASIBLE:
        raise InfeasibleError(f"LP {model.name!r} is infeasible")

    objective_row, iterations, status = _phase_two(tableau, basis, c, options)
    if status is Status.UNBOUNDED:
        raise UnboundedError(f"LP {model.name!r} is unbounded")

    # extract the solution over the shifted variables
    y = np.zeros(n_total, dtype=np.float64)
    for r, var in enumerate(basis):
        if var < n_total:
            y[var] = tableau[r, -1]
    x = y[:n_user] + lb
    objective = float(c @ y) * 1.0
    user_objective = sense_sign * objective + obj_const

    # reduced costs of the user variables (w.r.t. the minimisation objective of
    # the shifted problem); converting to d(user objective)/d(lower bound).
    reduced = objective_row[:n_user].copy()
    reduced[np.abs(reduced) < options.tolerance] = 0.0
    reduced_costs = sense_sign * reduced

    # duals of the user constraints: the reduced costs of their slack/surplus
    # columns carry the shadow prices (sign depends on the row sense).
    duals = np.zeros(model.num_constraints, dtype=np.float64)
    for r in range(m):
        ci = row_is_user[r]
        if ci < 0:
            continue
        slack_col = n_user + r
        value = objective_row[slack_col]
        if flipped[r]:
            value = -value
        duals[ci] = sense_sign * (value if senses[r] == "<=" else -value)

    lower_range = _lower_bound_ranging(
        tableau, basis, objective_row, n_user, n_total, lb, options
    )

    return LPSolution(
        status=Status.OPTIMAL,
        objective=user_objective,
        values=x,
        reduced_costs=reduced_costs,
        duals=duals,
        lower_range=lower_range,
        iterations=iterations,
        backend="simplex",
        _model=model,
    )


# ---------------------------------------------------------------------------
# simplex machinery
# ---------------------------------------------------------------------------

def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    pivot_value = tableau[row, col]
    tableau[row, :] /= pivot_value
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > _EPS:
            tableau[r, :] -= tableau[r, col] * tableau[row, :]
    basis[row] = col


def _price_out(tableau: np.ndarray, basis: list[int], c: np.ndarray) -> np.ndarray:
    """Compute the reduced-cost row ``c_j - c_B B^-1 A_j`` for the current basis."""
    m, width = tableau.shape
    n_total = width - 1
    cb = np.array([c[var] if var < len(c) else 0.0 for var in basis])
    z = cb @ tableau[:, :n_total]
    return np.concatenate([c, np.zeros(n_total - len(c))]) - z


def _simplex_iterate(
    tableau: np.ndarray,
    basis: list[int],
    c_full: np.ndarray,
    options: SimplexOptions,
) -> tuple[np.ndarray, int, Status]:
    """Run primal simplex iterations until optimality (Bland's rule)."""
    m, width = tableau.shape
    n_total = width - 1
    iterations = 0
    while iterations < options.max_iterations:
        reduced = _price_out(tableau, basis, c_full)
        entering = -1
        for j in range(n_total):
            if reduced[j] < -options.tolerance and j not in basis:
                entering = j
                break
        if entering < 0:
            return reduced, iterations, Status.OPTIMAL
        # ratio test (Bland: smallest index among ties)
        leaving = -1
        best_ratio = np.inf
        for r in range(m):
            coeff = tableau[r, entering]
            if coeff > options.tolerance:
                ratio = tableau[r, -1] / coeff
                if ratio < best_ratio - options.tolerance or (
                    abs(ratio - best_ratio) <= options.tolerance
                    and (leaving < 0 or basis[r] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = r
        if leaving < 0:
            return reduced, iterations, Status.UNBOUNDED
        _pivot(tableau, basis, leaving, entering)
        iterations += 1
    raise LPError("simplex iteration limit exceeded")


def _phase_one(
    A: np.ndarray, b: np.ndarray, n_total: int, options: SimplexOptions
) -> tuple[np.ndarray, list[int], Status]:
    """Find a basic feasible solution using artificial variables."""
    m = A.shape[0]
    if m == 0:
        tableau = np.zeros((0, n_total + 1))
        return tableau, [], Status.OPTIMAL

    tableau = np.zeros((m, n_total + m + 1), dtype=np.float64)
    tableau[:, :n_total] = A
    tableau[:, -1] = b
    basis: list[int] = []
    for r in range(m):
        tableau[r, n_total + r] = 1.0
        basis.append(n_total + r)

    c_phase1 = np.concatenate([np.zeros(n_total), np.ones(m)])
    _, _, status = _simplex_iterate(tableau, basis, c_phase1, options)
    if status is not Status.OPTIMAL:
        return tableau, basis, Status.INFEASIBLE

    feasibility = sum(tableau[r, -1] for r in range(m) if basis[r] >= n_total)
    if feasibility > 1e-6:
        return tableau, basis, Status.INFEASIBLE

    # drive any artificial variable that is still basic (at value 0) out of the basis
    for r in range(m):
        if basis[r] >= n_total:
            pivot_col = -1
            for j in range(n_total):
                if abs(tableau[r, j]) > options.tolerance:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(tableau, basis, r, pivot_col)
    # drop the artificial columns
    keep = list(range(n_total)) + [tableau.shape[1] - 1]
    tableau = tableau[:, keep]
    return tableau, basis, Status.OPTIMAL


def _phase_two(
    tableau: np.ndarray,
    basis: list[int],
    c: np.ndarray,
    options: SimplexOptions,
) -> tuple[np.ndarray, int, Status]:
    """Optimise the user objective starting from a feasible basis."""
    if tableau.shape[0] == 0:
        # no constraints: every variable sits at its (shifted) lower bound 0
        reduced = c.copy()
        if np.any(reduced < -options.tolerance):
            return reduced, 0, Status.UNBOUNDED
        return reduced, 0, Status.OPTIMAL
    reduced, iterations, status = _simplex_iterate(tableau, basis, c, options)
    return reduced, iterations, status


def _lower_bound_ranging(
    tableau: np.ndarray,
    basis: list[int],
    objective_row: np.ndarray,
    n_user: int,
    n_total: int,
    lb: np.ndarray,
    options: SimplexOptions,
) -> np.ndarray:
    """Smallest lower bound for which the current optimal basis stays optimal.

    This mirrors Gurobi's ``SALBLow`` attribute, which Algorithm 2 of the
    paper uses to sweep critical latencies.  For a variable that is *basic*
    (not sitting on its bound) the bound can be lowered indefinitely without
    affecting the optimum, so the range is ``-inf``.  For a non-basic variable
    at its lower bound, lowering the bound by ``δ`` shifts every basic
    variable by ``+δ · B⁻¹ A_j`` (in shifted coordinates the variable stays at
    0 but the translation changes the RHS); the basis remains feasible while
    all basic variables stay non-negative, which a ratio test bounds.
    """
    m = tableau.shape[0]
    ranges = np.full(n_user, -np.inf, dtype=np.float64)
    if m == 0:
        return lb + ranges  # all -inf
    basic_set = set(basis)
    for j in range(n_user):
        if j in basic_set:
            ranges[j] = -np.inf
            continue
        column = tableau[:, j]
        max_decrease = np.inf
        for r in range(m):
            coeff = column[r]
            if coeff < -options.tolerance:
                # decreasing the bound by δ changes this basic value by +coeff·(-δ) = -coeff·δ…
                # feasibility requires value - coeff*δ' ≥ 0 with δ' the decrease
                max_decrease = min(max_decrease, tableau[r, -1] / (-coeff))
        ranges[j] = lb[j] - max_decrease if np.isfinite(max_decrease) else -np.inf
    return ranges
