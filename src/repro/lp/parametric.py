"""Parametric re-solving of one assembled LP under changing variable bounds.

The paper's latency analyses "solve the same LP many times while only
variable *bounds* move":

* Algorithm 2 (critical latencies) sweeps the lower bound of the latency
  variable ``l`` over an interval;
* the ``T(L)`` / ``λ_L`` sensitivity curves evaluate the same sweep on a
  dense grid of latencies.

(Algorithm 3's per-pair bounds are evaluated by a forward pass instead, see
:func:`repro.core.envelope.pair_forward_evaluator`.)

:class:`ParametricLP` is the LP engine behind both.  It owns a model
whose CSR lowering (:mod:`repro.lp.assembler`) is built once; every update
goes through bound-only mutators that bump just the model's bounds-revision
counter, so re-solves refresh two dense vectors instead of re-expanding the
constraint dictionaries.

On top of the bound/solve primitives sits the paper's Algorithm 2 in the
form of :func:`tangent_search`: ``T(L)`` is convex piecewise linear, and the
tangent of the curve at any probed ``L`` is the line of the segment active
there.  Probing both interval ends and then every open tangent intersection
discovers every linear segment with ``O(#breakpoints)`` probes:

* probe both interval ends to obtain two tangents;
* if the tangents coincide, there is no breakpoint in between;
* otherwise their intersection ``x`` either lies on the curve (then ``x`` is
  the unique breakpoint in the open interval) or strictly below it (then
  probe ``x`` and search ``[lo, x]`` and ``[x, hi]``).

The search is breadth-first: each pass probes every open intersection at
once through an *evaluator* ``xs -> (slopes, intercepts)``.  Two evaluators
feed it:

* :meth:`ParametricLP.tangent_envelope` solves one LP per probe (objective
  = value, reduced cost of the variable = slope).  This is the same
  complexity class as the paper's Algorithm 2 with exact Gurobi ranging
  information, which the open backends do not provide.  It backs the
  test oracle ``repro.testing.lp_envelope``, the reference the tests hold
  the forward pass to;
* :func:`repro.core.envelope.forward_envelope` answers all probes of a pass
  with one level-synchronous traversal of the execution graph (no LP); it
  is the production evaluator of every envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .backends import BackendRegistry, default_registry
from .model import LPModel, LPSolution, Variable

__all__ = [
    "Tangent",
    "TangentEnvelope",
    "EnvelopeOverflowError",
    "ParametricLP",
    "check_latency_interval",
    "tangent_search",
]

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


def check_latency_interval(l_min: float, l_max: float) -> None:
    """Reject a bad latency interval up front, before any LP or traversal
    (NaN never passes; ``l_max`` may be ``inf``)."""
    if not 0 <= l_min < l_max:
        raise ValueError(
            f"invalid latency interval [{l_min}, {l_max}]: "
            "require 0 <= l_min < l_max"
        )


#: one tangent of the search: ``(probed x, slope, intercept)``
_Probe = tuple[float, float, float]


def _at(tangent: _Probe, x: float) -> float:
    return tangent[1] * x + tangent[2]


def tangent_search(
    evaluate: Callable[[np.ndarray], tuple[Sequence[float], Sequence[float]]],
    lo: float,
    hi: float,
    *,
    max_pieces: int | None = None,
) -> tuple[list[_Probe], list[float]]:
    """Discover every linear segment of a convex ``T(L)`` on ``[lo, hi]``.

    ``evaluate(xs)`` returns ``(slopes, intercepts)``: for every probed
    latency, the line of the segment active there (any tangent at a kink;
    at ``x = inf``, allowed only as ``hi``, the steepest line).  Pass 1
    probes ``lo`` and ``hi``; each later pass probes every open tangent
    intersection at once.  The ``_close`` tolerance decides whether two
    tangents are one line and whether a probe landed on a kink.

    Returns ``(tangents, breakpoints)``: one ``(x, slope, intercept)`` per
    segment found, in probe order (probes that landed on a kink are
    dropped), and the kinks found, unsorted.  Discovering more than
    ``max_pieces`` distinct slopes raises :class:`EnvelopeOverflowError`.
    """
    slopes, intercepts = evaluate(np.array([lo, hi], dtype=np.float64))
    tangents: list[_Probe] = [
        (float(x), float(slope), float(intercept))
        for x, slope, intercept in zip((lo, hi), slopes, intercepts)
    ]
    breakpoints: list[float] = []
    pending = [(tangents[0], tangents[1])]
    while pending:
        if max_pieces is not None and len({round(t[1], 9) for t in tangents}) > max_pieces:
            raise EnvelopeOverflowError(
                f"latency sweep envelope has more than {max_pieces} pieces; "
                "narrow the latency interval or raise max_pieces"
            )
        probes: list[tuple[_Probe, _Probe, float]] = []
        for left, right in pending:
            (x_lo, s_lo, c_lo), (x_hi, s_hi, c_hi) = left, right
            finite = not math.isinf(x_hi)
            if finite and _close(s_lo, s_hi) and _close(_at(left, x_hi), _at(right, x_hi)):
                continue
            denom = s_hi - s_lo
            if abs(denom) <= _ABS_TOL:
                # same slope but different lines cannot happen for a convex
                # function probed on the same curve; treat as no breakpoint
                continue
            x = min(max((c_lo - c_hi) / denom, x_lo), x_hi)
            if _close(x, x_lo) or (finite and _close(x, x_hi)):
                # numerical corner: the breakpoint coincides with an endpoint,
                # so both adjacent segments are already represented
                breakpoints.append(x)
                continue
            probes.append((left, right, x))
        if not probes:
            break
        slopes, intercepts = evaluate(np.array([x for _, _, x in probes]))
        pending = []
        for (left, right, x), slope, intercept in zip(probes, slopes, intercepts):
            mid = (x, float(slope), float(intercept))
            value = _at(mid, x)
            if _close(value, _at(left, x)) and _close(value, _at(right, x)):
                # x is the unique breakpoint between the two tangents; the
                # probe returned a supporting line at the kink (its slope can
                # be any subgradient, not a segment slope) — discard it
                breakpoints.append(x)
                continue
            tangents.append(mid)
            pending += [(left, mid), (mid, right)]
    return tangents, breakpoints


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
    """

    def __init__(
        self,
        model: LPModel,
        *,
        backend: str = "highs",
        max_solves: int = 10_000,
        registry: BackendRegistry | None = None,
    ) -> None:
        self.model = model
        self.backend = backend
        self.max_solves = max_solves
        self.num_solves = 0
        self._registry = registry if registry is not None else default_registry
        self._registry.get(backend)  # fail fast on unknown backends
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

    # -- solving -----------------------------------------------------------------

    def solve(self, **options: object) -> LPSolution:
        """Re-solve the model, counting solves."""
        if self.num_solves >= self.max_solves:
            raise RuntimeError(
                f"exceeded {self.max_solves} LP solves while sweeping latencies"
            )
        solution = self._registry.solve(self.model, backend=self.backend, **options)
        self.num_solves += 1
        return solution

    def probe(self, var: Variable | int, L: float) -> Tangent:
        """Set ``var >= L``, solve, and return the tangent of ``T(L)`` at ``L``."""
        variable = self.set_lower_bound(var, L)
        solution = self.solve()
        return Tangent(L=float(L), value=solution.objective, slope=solution.reduced_cost(variable))

    # -- the tangent-envelope search over LP probes ------------------------------

    def tangent_envelope(
        self,
        var: Variable | int,
        lo: float,
        hi: float,
        *,
        max_pieces: int | None = None,
    ) -> TangentEnvelope:
        """Discover every linear segment of ``T(L)`` for ``L = lb(var)`` in ``[lo, hi]``.

        Runs :func:`tangent_search` with one LP solve per probe:
        ``O(#breakpoints)`` solves.  ``max_pieces`` (when given) bounds the
        number of distinct segment slopes the search may discover before an
        :class:`EnvelopeOverflowError` is raised.
        """
        check_latency_interval(lo, hi)
        probed: dict[float, Tangent] = {}

        def evaluate(xs: np.ndarray) -> tuple[list[float], list[float]]:
            found = [self.probe(var, x) for x in xs]
            probed.update((t.L, t) for t in found)
            return [t.slope for t in found], [t.intercept for t in found]

        lines, breakpoints = tangent_search(evaluate, lo, hi, max_pieces=max_pieces)
        return TangentEnvelope(
            tangents=[probed[x] for x, _, _ in lines],
            breakpoints=breakpoints,
            lo=float(lo),
            hi=float(hi),
            num_solves=self.num_solves,
        )
