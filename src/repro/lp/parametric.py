"""Parametric re-solving of one assembled LP under changing variable bounds.

The paper's three headline analyses are all "solve the same LP many times
while only variable *bounds* move":

* Algorithm 2 (critical latencies) sweeps the lower bound of the latency
  variable ``l`` over an interval;
* the ``T(L)`` / ``λ_L`` sensitivity curves evaluate the same sweep on a
  dense grid of latencies;
* the rank-placement loop (Algorithm 3) re-assigns the lower bounds of the
  per-pair ``l_{i,j}`` / ``G_{i,j}`` variables for every candidate mapping.

:class:`ParametricLP` is the one engine behind all three.  It owns a model
whose CSR lowering (:mod:`repro.lp.assembler`) is built once; every update
goes through bound-only mutators that bump just the model's bounds-revision
counter, so re-solves refresh two dense vectors instead of re-expanding the
constraint dictionaries.  When the selected backend declares
``supports_warm_start`` in the registry, the previous solution is handed to
it on every re-solve.

On top of the bound/solve primitives the engine exposes the shared convex
**tangent-envelope search** (:meth:`ParametricLP.tangent_envelope`): ``T(L)``
is convex piecewise linear in the lower bound ``L`` of a variable, and each
LP solve at ``L`` yields the tangent of the curve — the objective value and
the slope (the reduced cost of the variable).  Probing both interval ends and
recursing on tangent intersections discovers every linear segment with
``O(#breakpoints)`` solves:

* solve at both interval ends to obtain two tangents;
* if the tangents coincide, there is no breakpoint in between;
* otherwise their intersection ``x`` either lies on the curve (then ``x`` is
  the unique breakpoint in the open interval) or strictly below it (then
  recurse on ``[lo, x]`` and ``[x, hi]``).

This is the same complexity class as the paper's Algorithm 2 with exact
Gurobi ranging information, which the open backends do not provide.  Both
:func:`repro.core.critical_latency.find_critical_latencies` and
:class:`repro.core.parametric.BatchedSweep` are thin wrappers over this
search; the placement loop uses the bound/solve primitives directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .backends import BackendRegistry, default_registry
from .model import LPModel, LPSolution, Variable

__all__ = ["Tangent", "TangentEnvelope", "EnvelopeOverflowError", "ParametricLP"]

_REL_TOL = 1e-7
_ABS_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _ABS_TOL + _REL_TOL * max(abs(a), abs(b), 1.0)


@dataclass(frozen=True)
class Tangent:
    """The tangent of ``T(L)`` at one probed latency: value and slope."""

    L: float
    value: float
    slope: float

    @property
    def intercept(self) -> float:
        return self.value - self.slope * self.L

    def extrapolate(self, x: float) -> float:
        return self.value + self.slope * (x - self.L)


class EnvelopeOverflowError(RuntimeError):
    """Raised when an envelope exceeds the configured maximum piece count."""


@dataclass
class TangentEnvelope:
    """The outcome of one tangent-envelope search over ``[lo, hi]``.

    ``tangents`` holds one supporting line per linear segment discovered
    (probes that landed exactly on a kink are discarded — their slope is an
    arbitrary subgradient, and both adjacent segments are already
    represented).  ``breakpoints`` holds the kink positions discovered
    *during* the search, in discovery order and unrounded; wrappers sort,
    deduplicate and coalesce them as their interface requires.
    """

    tangents: list[Tangent]
    breakpoints: list[float]
    lo: float
    hi: float
    num_solves: int

    def value(self, x: float) -> float:
        """``T(x)`` reconstructed from the cached tangents (no LP solve)."""
        return max(t.extrapolate(x) for t in self.tangents)

    def segment_tangent(self, x: float) -> Tangent:
        """The tangent of the segment active at ``x``, re-anchored at ``x``.

        Equivalent to probing the LP at ``x`` (same value and slope to solver
        tolerance) but served from the cache.  At a breakpoint the steeper
        adjacent segment is returned, matching the reduced-cost convention of
        a fresh solve approached from the right.
        """
        best_value = self.value(x)
        tol = _ABS_TOL + _REL_TOL * max(abs(best_value), 1.0)
        active = max(
            (t for t in self.tangents if abs(t.extrapolate(x) - best_value) <= tol),
            key=lambda t: t.slope,
        )
        return Tangent(L=float(x), value=active.extrapolate(x), slope=active.slope)


class ParametricLP:
    """One assembled LP re-solved under bound-only updates.

    Parameters
    ----------
    model:
        The :class:`~repro.lp.model.LPModel` to own.  The objective must
        already be set; the engine never touches it (an objective change
        would force the assembler to refresh the cost vector on each solve).
    backend:
        Backend name from ``registry`` (default: the shared
        :data:`~repro.lp.backends.default_registry`).
    max_solves:
        Hard bound on the number of LP solves issued through this engine.
    warm_start:
        When true (default) and the backend's registry entry declares
        ``supports_warm_start``, every solve after the first receives the
        previous :class:`~repro.lp.model.LPSolution` as ``warm_start=``.
    """

    def __init__(
        self,
        model: LPModel,
        *,
        backend: str = "highs",
        max_solves: int = 10_000,
        warm_start: bool = True,
        registry: BackendRegistry | None = None,
    ) -> None:
        self.model = model
        self.backend = backend
        self.max_solves = max_solves
        self.num_solves = 0
        self.last_solution: LPSolution | None = None
        self._registry = registry if registry is not None else default_registry
        spec = self._registry.get(backend)  # fail fast on unknown backends
        self._hand_warm_start = warm_start and spec.supports_warm_start
        self._initial_structure_version = model.structure_version

    # -- bound-only updates ----------------------------------------------------

    @property
    def structure_rebuilds(self) -> int:
        """How many CSR re-assemblies this engine has forced (should stay 0).

        Counts structure-revision bumps of the model since the engine was
        created; bound-only updates leave it untouched.
        """
        return self.model.structure_version - self._initial_structure_version

    def _variable(self, var: Variable | int) -> Variable:
        index = var.index if isinstance(var, Variable) else int(var)
        return self.model.variables[index]

    def set_lower_bound(self, var: Variable | int, lb: float) -> Variable:
        """Replace the lower bound of one variable (bounds revision only)."""
        return self.model.set_var_lb(self._variable(var), float(lb))

    def set_lower_bounds(
        self, variables: Sequence[Variable | int], lbs: Iterable[float] | np.ndarray
    ) -> None:
        """Replace the lower bounds of many variables in one bounds revision.

        Used by the placement loop to push a whole per-pair latency/gap
        matrix into the model per candidate mapping.
        """
        indices = [
            var.index if isinstance(var, Variable) else int(var) for var in variables
        ]
        self.model.set_var_lbs(indices, lbs)

    # -- solving -----------------------------------------------------------------

    def solve(self, **options: object) -> LPSolution:
        """Re-solve the model, counting solves and handing off warm starts."""
        if self.num_solves >= self.max_solves:
            raise RuntimeError(
                f"exceeded {self.max_solves} LP solves while sweeping latencies"
            )
        if self._hand_warm_start and self.last_solution is not None:
            options.setdefault("warm_start", self.last_solution)
        solution = self._registry.solve(self.model, backend=self.backend, **options)
        self.num_solves += 1
        self.last_solution = solution
        return solution

    def probe(self, var: Variable | int, L: float) -> Tangent:
        """Set ``var >= L``, solve, and return the tangent of ``T(L)`` at ``L``."""
        variable = self.set_lower_bound(var, L)
        solution = self.solve()
        return Tangent(L=float(L), value=solution.objective, slope=solution.reduced_cost(variable))

    # -- the shared tangent-envelope search ---------------------------------------

    def tangent_envelope(
        self,
        var: Variable | int,
        lo: float,
        hi: float,
        *,
        max_pieces: int | None = None,
    ) -> TangentEnvelope:
        """Discover every linear segment of ``T(L)`` for ``L = lb(var)`` in ``[lo, hi]``.

        ``O(#breakpoints)`` LP solves; ``max_pieces`` (when given) bounds the
        number of distinct segment slopes the search may discover before an
        :class:`EnvelopeOverflowError` is raised.
        """
        if lo < 0 or hi <= lo:
            raise ValueError(f"invalid latency interval [{lo}, {hi}]")

        low = self.probe(var, lo)
        high = self.probe(var, hi)
        tangents = [low, high]
        breakpoints: list[float] = []
        slopes_seen = {round(low.slope, 9), round(high.slope, 9)}

        def guard() -> None:
            if max_pieces is not None and len(slopes_seen) > max_pieces:
                raise EnvelopeOverflowError(
                    f"latency sweep envelope has more than {max_pieces} "
                    "pieces; narrow the interval or raise max_pieces"
                )

        guard()

        # explicit worklist instead of recursion: breakpoints clustered at one
        # end of the interval would otherwise nest O(#segments) deep; the push
        # order keeps the probe sequence identical to the depth-first
        # left-to-right recursion the numerics were pinned against
        worklist = [(low, high)]
        while worklist:
            t_lo, t_hi = worklist.pop()
            if _close(t_lo.slope, t_hi.slope) and _close(t_lo.extrapolate(t_hi.L), t_hi.value):
                continue
            denom = t_hi.slope - t_lo.slope
            if abs(denom) <= _ABS_TOL:
                # same slope but different lines cannot happen for a convex
                # function probed on the same curve; treat as no breakpoint
                continue
            x = (t_lo.intercept - t_hi.intercept) / denom
            x = min(max(x, t_lo.L), t_hi.L)
            if _close(x, t_lo.L) or _close(x, t_hi.L):
                # numerical corner: the breakpoint coincides with an endpoint,
                # so both adjacent segments are already represented
                breakpoints.append(x)
                continue
            mid = self.probe(var, x)
            if _close(mid.value, t_lo.extrapolate(x)) and _close(mid.value, t_hi.extrapolate(x)):
                # x is the unique breakpoint between the two tangents; the
                # probe returned a supporting line at the kink (its slope can
                # be any subgradient, not a segment slope) — discard it
                breakpoints.append(x)
                continue
            tangents.append(mid)
            slopes_seen.add(round(mid.slope, 9))
            guard()
            worklist.append((mid, t_hi))
            worklist.append((t_lo, mid))

        return TangentEnvelope(
            tangents=tangents,
            breakpoints=breakpoints,
            lo=float(lo),
            hi=float(hi),
            num_solves=self.num_solves,
        )
