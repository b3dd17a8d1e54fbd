"""Critical latencies: where the critical path (and ``λ_L``) changes.

Section II-B defines the *critical latency* ``L_c`` as a value of the network
latency at which the critical path of the execution graph switches, i.e. a
breakpoint of the piecewise-linear convex function ``T(L)``.  Algorithm 2 of
the paper sweeps an interval ``[L_min, L_max]`` from above, repeatedly
solving the LP and jumping to the lower end of the current basis's
feasibility range (Gurobi's ``SALBLow``).

The open-source HiGHS backend does not expose ranging information, so the
breakpoints are recovered with the tangent-intersection search
:func:`repro.lp.parametric.tangent_search` — ``O(#breakpoints)`` probes,
the same complexity class as Algorithm 2 with exact ranging and strictly
better than a fixed ``step`` sweep.  A ``step`` argument is still accepted
for compatibility with the paper's interface: when given, breakpoints
closer than ``step`` are coalesced.

A raw execution graph, or a :class:`~repro.core.lp_builder.GraphLP` that
keeps the affinity contract of ``src/repro/lp/README.md``, is searched with
one batched forward traversal per pass
(:func:`repro.core.envelope.forward_envelope`, zero LP solves).  A
``GraphLP`` that breaks the contract is searched with one LP solve per
probe on its one assembled model
(:meth:`repro.lp.parametric.ParametricLP.tangent_envelope`).  Both give
the same exact curve.
"""

from __future__ import annotations

from ..lp.parametric import Tangent, check_latency_interval
from ..network.params import LogGPSParams
from ..schedgen.graph import ExecutionGraph
from .lp_builder import GraphLP

__all__ = ["Tangent", "find_critical_latencies", "critical_latency_curve"]


def _collect_breakpoints(breakpoints, step: float | None) -> list[float]:
    collected = sorted(set(round(bp, 12) for bp in breakpoints))
    if step is not None and step > 0 and collected:
        coalesced = [collected[0]]
        for bp in collected[1:]:
            if bp - coalesced[-1] >= step:
                coalesced.append(bp)
        collected = coalesced
    return collected


def _envelope_search(
    graph_lp: GraphLP | ExecutionGraph,
    l_min: float,
    l_max: float,
    *,
    backend: str,
    max_solves: int,
    params: LogGPSParams | None,
):
    """``(breakpoints, tangent_at)`` of ``T(L)`` on ``[l_min, l_max]``.

    A raw :class:`ExecutionGraph` (plus ``params``) goes straight to the
    forward pass and never builds an LP.  A prebuilt :class:`GraphLP` goes
    through :func:`~repro.core.envelope.resolve_envelope_engine`: the
    forward pass when the affinity contract holds, LP probes otherwise.
    """
    from .envelope import forward_envelope, resolve_envelope_engine

    check_latency_interval(l_min, l_max)
    if isinstance(graph_lp, ExecutionGraph):
        if params is None:
            raise ValueError("passing an ExecutionGraph requires the params= keyword")
        envelope = forward_envelope(graph_lp, params, l_min=l_min, l_max=l_max)
    elif resolve_envelope_engine(graph_lp) == "forward":
        envelope = forward_envelope(graph_lp.graph, graph_lp.params, l_min=l_min, l_max=l_max)
    else:
        result = graph_lp.tangent_envelope(l_min, l_max, backend=backend, max_solves=max_solves)
        return result.breakpoints, result.segment_tangent
    return envelope.breakpoints(), lambda x: Tangent(x, envelope.value(x), envelope.slope(x))


def find_critical_latencies(
    graph_lp: GraphLP | ExecutionGraph,
    l_min: float,
    l_max: float,
    *,
    backend: str = "highs",
    step: float | None = None,
    max_solves: int = 10_000,
    params: LogGPSParams | None = None,
) -> list[float]:
    """All critical latencies of ``graph_lp`` inside ``[l_min, l_max]``.

    ``step``, when given, coalesces breakpoints closer than ``step`` (the
    resolution knob of the paper's Algorithm 2); ``max_solves`` bounds the
    number of LP solves of a search over LP probes.  ``graph_lp`` may also
    be a raw :class:`~repro.schedgen.graph.ExecutionGraph` together with
    ``params=``.
    """
    breakpoints, _ = _envelope_search(
        graph_lp, l_min, l_max, backend=backend, max_solves=max_solves, params=params,
    )
    return _collect_breakpoints(breakpoints, step)


def critical_latency_curve(
    graph_lp: GraphLP | ExecutionGraph,
    l_min: float,
    l_max: float,
    *,
    backend: str = "highs",
    max_solves: int = 10_000,
    params: LogGPSParams | None = None,
) -> list[Tangent]:
    """Tangents of ``T(L)`` on every linear segment of ``[l_min, l_max]``.

    Returns one :class:`Tangent` per segment (anchored at the segment
    mid-point), which is enough to reconstruct the exact ``T(L)`` curve and
    the step function ``λ_L(L)`` over the interval.  The segment tangents are
    served from the cache of the single envelope search — no additional LP
    solves at the segment mid-points.  Accepts a raw execution graph (plus
    ``params=``) like :func:`find_critical_latencies`.
    """
    breakpoints, tangent_at = _envelope_search(
        graph_lp, l_min, l_max, backend=backend, max_solves=max_solves, params=params,
    )
    boundaries = [l_min, *_collect_breakpoints(breakpoints, None), l_max]
    return [tangent_at(0.5 * (lo + hi)) for lo, hi in zip(boundaries, boundaries[1:])]
