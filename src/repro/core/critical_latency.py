"""Critical latencies: where the critical path (and ``λ_L``) changes.

Section II-B defines the *critical latency* ``L_c`` as a value of the network
latency at which the critical path of the execution graph switches, i.e. a
breakpoint of the piecewise-linear convex function ``T(L)``.  Algorithm 2 of
the paper sweeps an interval ``[L_min, L_max]`` from above, repeatedly
solving the LP and jumping to the lower end of the current basis's
feasibility range (Gurobi's ``SALBLow``).

Here the breakpoints come from the tangent-intersection search
:func:`repro.lp.parametric.tangent_search` — ``O(#breakpoints)`` probes,
the same complexity class as Algorithm 2 with exact ranging and strictly
better than a fixed ``step`` sweep — with every pass answered by one
batched forward traversal of the graph
(:func:`repro.core.envelope.forward_envelope`): no LP is built or solved.
A ``step`` argument is still accepted for compatibility with the paper's
interface: when given, breakpoints closer than ``step`` are coalesced.

Both searches take an :class:`~repro.schedgen.graph.ExecutionGraph` plus
``params=``.  The LP form of the same search — one solve per probe on a
:class:`~repro.core.lp_builder.GraphLP` — is the test oracle
``repro.testing.lp_envelope``.
"""

from __future__ import annotations

from ..lp.parametric import Tangent
from ..network.params import LogGPSParams
from ..schedgen.graph import ExecutionGraph

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


def _envelope(graph: ExecutionGraph, l_min: float, l_max: float, params: LogGPSParams):
    """The forward ``T(L)`` envelope of ``graph`` on ``[l_min, l_max]``."""
    from .envelope import forward_envelope

    if not isinstance(graph, ExecutionGraph):
        raise TypeError(
            f"Algorithm 2 runs on an ExecutionGraph plus params=, not a "
            f"{type(graph).__name__}; the LP tangent search is the oracle "
            "repro.testing.lp_envelope"
        )
    return forward_envelope(graph, params, l_min=l_min, l_max=l_max)


def find_critical_latencies(
    graph: ExecutionGraph,
    l_min: float,
    l_max: float,
    *,
    params: LogGPSParams,
    step: float | None = None,
) -> list[float]:
    """All critical latencies of ``graph`` under ``params`` inside
    ``[l_min, l_max]``.

    ``step``, when given, coalesces breakpoints closer than ``step`` (the
    resolution knob of the paper's Algorithm 2).
    """
    return _collect_breakpoints(_envelope(graph, l_min, l_max, params).breakpoints(), step)


def critical_latency_curve(
    graph: ExecutionGraph,
    l_min: float,
    l_max: float,
    *,
    params: LogGPSParams,
) -> list[Tangent]:
    """Tangents of ``T(L)`` on every linear segment of ``[l_min, l_max]``.

    Returns one :class:`Tangent` per segment (anchored at the segment
    mid-point), which is enough to reconstruct the exact ``T(L)`` curve and
    the step function ``λ_L(L)`` over the interval.  The tangents are read
    off the one envelope :func:`find_critical_latencies` searches.
    """
    envelope = _envelope(graph, l_min, l_max, params)
    boundaries = [l_min, *_collect_breakpoints(envelope.breakpoints(), None), l_max]
    midpoints = [0.5 * (lo + hi) for lo, hi in zip(boundaries, boundaries[1:])]
    return [Tangent(x, envelope.value(x), envelope.slope(x)) for x in midpoints]
