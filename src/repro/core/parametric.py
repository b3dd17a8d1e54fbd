"""Exact parametric critical-path analysis: the full ``T(L)`` curve at once.

Equation 3 of the paper writes the runtime of an MPI program under LogGPS as

.. math:: T(L) = \\max_i (a_i L + C_i)

where each term corresponds to one path through the execution graph
(``a_i`` = number of communication edges, ``C_i`` = all other costs).  The
paper notes that materialising this expression by dynamic programming is
intractable in their C++ implementation; here it is an *upper-envelope*
representation — only the lines that are maximal somewhere in the latency
interval of interest are kept — computed exactly by
:func:`~repro.core.envelope.forward_envelope`: the paper's tangent search
(Algorithm 2), each pass of it answered by one batched traversal.

The resulting :class:`PiecewiseLinear` envelope directly yields every
quantity LLAMP otherwise extracts from LP re-solves.
:class:`ParametricAnalysis` is the one result type those metrics are read
from — by :class:`~repro.core.analyzer.LatencyAnalyzer` and by the scenario
fleet's rows alike:

* ``T(L)``                      — :meth:`ParametricAnalysis.runtime`;
* ``λ_L(L)``                    — :meth:`ParametricAnalysis.latency_sensitivity`;
* ``ρ_L(L)``                    — :meth:`ParametricAnalysis.l_ratio`;
* all critical latencies        — :meth:`ParametricAnalysis.critical_latencies`;
* the x% latency tolerance      — :meth:`ParametricAnalysis.latency_tolerance`;
* the feasibility range of a
  given ``L`` (Gurobi's ranging) — :meth:`ParametricAnalysis.feasibility_range`.

:func:`batched_sweep_graphs` sweeps many graphs through one
:class:`~repro.parallel.SweepPool` (inline or over ``spawn`` workers): one
forward envelope per unique graph, never an LP.  The tangent search over LP
probes is the tests' oracle, ``repro.testing.lp_envelope``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..lp.parametric import EnvelopeOverflowError, check_latency_interval
from ..network.params import LogGPSParams
from ..schedgen.graph import ExecutionGraph
from .envelope import forward_envelope

__all__ = [
    "Line",
    "PiecewiseLinear",
    "ParametricAnalysis",
    "parametric_analysis",
    "EnvelopeOverflowError",
    "batched_sweep_graphs",
]


@dataclass(frozen=True)
class Line:
    """A line ``f(L) = slope * L + intercept``; the slope counts messages."""

    slope: float
    intercept: float

    def __call__(self, x: float) -> float:
        # a flat line stays flat at x = inf (0 * inf would be NaN)
        return self.intercept if self.slope == 0 else self.slope * x + self.intercept


def _upper_envelope(lines: Sequence[Line], lo: float, hi: float) -> list[Line]:
    """Keep only the lines that are maximal somewhere in ``[lo, hi]``."""
    if not lines:
        return []
    # group by slope, keeping the largest intercept
    best: dict[float, float] = {}
    for line in lines:
        previous = best.get(line.slope)
        if previous is None or line.intercept > previous:
            best[line.slope] = line.intercept
    ordered = [Line(slope, intercept) for slope, intercept in sorted(best.items())]
    if len(ordered) == 1:
        return ordered

    hull: list[Line] = []
    for line in ordered:
        while hull:
            last = hull[-1]
            if len(hull) == 1:
                # `last` is dominated on [lo, hi] iff the new (steeper) line is
                # already above it at lo
                if line(lo) >= last(lo):
                    hull.pop()
                    continue
                break
            prev = hull[-2]
            # intersection of `prev` and `line`
            x_new = (line.intercept - prev.intercept) / (prev.slope - line.slope)
            x_old = (last.intercept - prev.intercept) / (prev.slope - last.slope)
            if x_new <= x_old:
                hull.pop()
                continue
            break
        hull.append(line)

    # clip to the domain: drop pieces whose validity interval misses [lo, hi]
    clipped: list[Line] = []
    for idx, line in enumerate(hull):
        start = lo if idx == 0 else _intersection(hull[idx - 1], line)
        end = hi if idx == len(hull) - 1 else _intersection(line, hull[idx + 1])
        if end < lo - 1e-15 or start > hi + 1e-15:
            continue
        clipped.append(line)
    return clipped if clipped else [max(hull, key=lambda ln: ln(lo))]


def _intersection(a: Line, b: Line) -> float:
    return (b.intercept - a.intercept) / (a.slope - b.slope)


@dataclass
class PiecewiseLinear:
    """A convex, non-decreasing piecewise-linear function of the latency ``L``."""

    lines: list[Line]
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lines:
            raise ValueError("a piecewise-linear function needs at least one line")
        self.lines = sorted(self.lines, key=lambda ln: ln.slope)
        self._hull_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # -- evaluation ------------------------------------------------------------

    def value(self, x: float) -> float:
        """``T(x)`` — the maximum over all pieces."""
        return max(line(x) for line in self.lines)

    def slope(self, x: float) -> float:
        """``λ_L`` at ``x`` — the slope of the active piece.

        At a breakpoint the slope from *above* is returned (the larger one),
        matching the convention of the reduced cost when approached from the
        right.  At ``x = ∞`` the steepest piece is the active one.
        """
        if x == np.inf:
            return max(self.lines[-1].slope, 0.0)
        best_value = self.value(x)
        best_slope = 0.0
        for line in self.lines:
            if abs(line(x) - best_value) <= 1e-9 * max(1.0, abs(best_value)) + 1e-12:
                best_slope = max(best_slope, line.slope)
        return best_slope

    def _hull_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached ``(slopes, intercepts, breakpoints)`` arrays of the hull.

        The breakpoints are the *unclamped* intersections of consecutive
        pieces (strictly increasing by the hull construction), so a single
        ``searchsorted`` maps any ``x`` to its active piece.
        """
        if self._hull_cache is None:
            slopes = np.array([ln.slope for ln in self.lines], dtype=np.float64)
            intercepts = np.array([ln.intercept for ln in self.lines], dtype=np.float64)
            bps = np.array(
                [_intersection(a, b) for a, b in zip(self.lines, self.lines[1:])],
                dtype=np.float64,
            )
            self._hull_cache = (slopes, intercepts, bps)
        return self._hull_cache

    def slopes(self, xs: Iterable[float]) -> np.ndarray:
        """Vectorised :meth:`slope` over a sweep of latencies.

        One ``np.searchsorted`` against the cached breakpoints locates the
        active piece of every query, then indices are bumped rightwards while
        the next piece ties within the scalar path's tolerance — reproducing
        the slope-from-above convention (and its tolerance) bit for bit.  At
        ``x = ∞`` the steepest piece is the active one, as in :meth:`slope`.
        """
        xs = np.asarray(list(xs), dtype=np.float64)
        slopes, intercepts, bps = self._hull_arrays()
        out = np.full(xs.shape, max(slopes[-1], 0.0))
        finite = xs != np.inf
        xs = xs[finite]
        idx = np.searchsorted(bps, xs, side="right")
        best = slopes[idx] * xs + intercepts[idx]
        tol = 1e-9 * np.maximum(1.0, np.abs(best)) + 1e-12
        n = len(slopes)
        while True:
            nxt = np.minimum(idx + 1, n - 1)
            cand = slopes[nxt] * xs + intercepts[nxt]
            bump = (idx + 1 < n) & (np.abs(cand - best) <= tol)
            if not bump.any():
                break
            idx = np.where(bump, idx + 1, idx)
        out[finite] = np.maximum(slopes[idx], 0.0)
        return out

    def breakpoints(self) -> list[float]:
        """The critical latencies inside ``(lo, hi)`` where the slope changes."""
        points = []
        for a, b in zip(self.lines, self.lines[1:]):
            x = _intersection(a, b)
            if self.lo < x < self.hi:
                points.append(x)
        return points

    def segment_of(self, x: float) -> tuple[float, float]:
        """Feasibility range ``[L_fl, L_fu]`` of ``x``: the active segment."""
        best_value = self.value(x)
        active = max(
            (line for line in self.lines
             if abs(line(x) - best_value) <= 1e-9 * max(1.0, abs(best_value)) + 1e-12),
            key=lambda ln: ln.slope,
        )
        idx = self.lines.index(active)
        lower = self.lo if idx == 0 else _intersection(self.lines[idx - 1], active)
        upper = self.hi if idx == len(self.lines) - 1 else _intersection(active, self.lines[idx + 1])
        return (lower, upper)

    def solve_for_value(self, target: float) -> float:
        """Largest ``x`` in ``[lo, hi]`` with ``value(x) <= target``.

        Used for the latency-tolerance query.  Returns ``hi`` if the whole
        interval satisfies the bound and raises if even ``lo`` violates it.
        """
        if self.value(self.lo) > target + 1e-12:
            raise ValueError(
                f"runtime bound {target} is below the runtime at L={self.lo}"
            )
        if self.value(self.hi) <= target:
            return self.hi
        # the active piece at the crossing has positive slope
        best = self.lo
        for line in self.lines:
            if line.slope <= 0:
                continue
            x = (target - line.intercept) / line.slope
            if x < self.lo:
                continue
            x = min(x, self.hi)
            if self.value(x) <= target + 1e-9 * max(1.0, abs(target)):
                best = max(best, x)
        return best

    def sample(self, xs: Iterable[float]) -> np.ndarray:
        """Vectorised evaluation over a sequence of latencies."""
        xs = np.asarray(list(xs), dtype=np.float64)
        slopes = np.array([line.slope for line in self.lines])
        intercepts = np.array([line.intercept for line in self.lines])
        return (xs[:, None] * slopes[None, :] + intercepts[None, :]).max(axis=1)


@dataclass
class ParametricAnalysis:
    """Every ``T(L)``-derived metric, read off one exact envelope.

    Latency arguments default to :attr:`baseline_L`.  ``graph`` is optional:
    envelopes restored from an artifact store or returned by pool workers
    carry no graph.
    """

    envelope: PiecewiseLinear
    params: LogGPSParams
    graph: ExecutionGraph | None = None

    @property
    def baseline_L(self) -> float:
        """The baseline latency ``L₀``: ``params.L``, clamped into the envelope."""
        return max(float(self.params.L), float(self.envelope.lo))

    def runtime(self, L: float | None = None) -> float:
        """``T(L)``."""
        return self.envelope.value(self.baseline_L if L is None else L)

    def latency_sensitivity(self, L: float | None = None) -> float:
        """``λ_L`` at ``L`` (slope from above at a breakpoint)."""
        return self.envelope.slope(self.baseline_L if L is None else L)

    def l_ratio(self, L: float | None = None) -> float:
        """``ρ_L``: fraction of the critical path attributable to latency."""
        x = self.baseline_L if L is None else L
        t = self.runtime(x)
        if t <= 0:
            return 0.0
        return x * self.latency_sensitivity(x) / t

    def critical_latencies(self) -> list[float]:
        """All critical latencies in the analysed interval."""
        return self.envelope.breakpoints()

    def latency_tolerance(self, degradation: float, baseline_L: float | None = None) -> float:
        """Maximum ``L`` keeping the runtime within ``(1 + degradation)·T(L₀)``.

        Clamped to the envelope's upper end; on an envelope over ``[L₀, ∞)``
        whose last piece is flat (no message on any path) that is ``math.inf``.
        """
        if degradation < 0:
            raise ValueError(f"degradation must be non-negative, got {degradation}")
        base = self.baseline_L if baseline_L is None else baseline_L
        bound = (1.0 + degradation) * self.envelope.value(base)
        return self.envelope.solve_for_value(bound)

    def feasibility_range(self, L: float | None = None) -> tuple[float, float]:
        """The range of ``L`` over which the critical path does not change."""
        return self.envelope.segment_of(self.baseline_L if L is None else L)


def parametric_analysis(
    graph: ExecutionGraph,
    params: LogGPSParams,
    *,
    l_min: float = 0.0,
    l_max: float = 10_000.0,
) -> ParametricAnalysis:
    """Compute the exact ``T(L)`` envelope of ``graph`` on ``[l_min, l_max]``.

    All other LogGPS parameters are taken from ``params``.  The envelope
    comes from :func:`~repro.core.envelope.forward_envelope`, which raises
    :class:`EnvelopeOverflowError` beyond
    :data:`~repro.core.envelope.MAX_PIECES` pieces.
    """
    envelope = forward_envelope(graph, params, l_min=l_min, l_max=l_max)
    return ParametricAnalysis(envelope=envelope, params=params, graph=graph)


def batched_sweep_graphs(
    graphs: Sequence[ExecutionGraph],
    params: LogGPSParams,
    *,
    l_min: float = 0.0,
    l_max: float = 10_000.0,
    processes: int | None = None,
    cache_dir: str | os.PathLike | None = None,
) -> list[PiecewiseLinear]:
    """Batched sweeps of several independent graphs, optionally in parallel.

    Returns one exact ``T(L)`` envelope per graph, each from
    :func:`~repro.core.envelope.forward_envelope`.  Every call runs through
    a :class:`~repro.parallel.SweepPool`, which dedupes the graphs by
    :meth:`~repro.schedgen.graph.ExecutionGraph.content_digest` first —
    duplicates are swept once and the envelope is fanned out — whether or
    not a cache directory is configured.  A bad interval raises
    :class:`ValueError` before any sweep runs; a failing sweep raises
    :class:`~repro.parallel.ScenarioError`.

    ``processes > 1`` fans the unique graphs out over the pool's ``spawn``
    workers: each unique graph travels with its task as a pickle of its
    identity columns (no CSR), and a worker that dies fails the call with a
    :class:`~repro.parallel.ScenarioError` instead of hanging it.  Anything
    else runs the pool inline, in this process.

    ``cache_dir`` (any path-like) points every sweep at a shared
    :class:`~repro.artifacts.ArtifactStore`: each envelope is keyed by the
    graph/params content digests plus the sweep configuration, so repeated
    runs are answered from disk.  The store's writes are atomic, so pool
    workers may race on a key safely.  Keys come from
    :func:`~repro.core.envelope.envelope_config`, so entries warmed by the
    analyzer or a fleet are reused here.
    """
    from ..parallel.pool import SweepPool

    check_latency_interval(l_min, l_max)
    with SweepPool(min(processes or 1, len(graphs)), cache_dir=cache_dir) as pool:
        return pool.sweep_graphs(graphs, params, l_min=l_min, l_max=l_max)
