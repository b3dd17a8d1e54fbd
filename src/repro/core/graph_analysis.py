"""Conventional critical-path analysis of execution graphs.

This is the first of the two "conventional graph analysis approaches"
discussed in Section II-C: traverse the graph once to assign completion
timestamps for a fixed LogGPS configuration ``θ``, then traverse it backwards
to extract the critical path and the metrics defined on it (its number of
messages is ``λ_L``; for ``λ_G`` use
:meth:`~repro.core.analyzer.LatencyAnalyzer.bandwidth_sensitivity`, see
:attr:`CriticalPathResult.bytes_on_path`).  It serves three purposes in this
reproduction:

* an independent oracle for the LP builder (the forward-pass makespan must
  equal the LP optimum — tested with Hypothesis on random DAGs);
* the baseline whose need for parameter sweeps motivates the LP approach;
* a fast way to obtain a single runtime estimate without a solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..network.params import LogGPSParams
from ..schedgen.graph import EdgeKind, ExecutionGraph, VertexKind

__all__ = ["CriticalPathResult", "analyze_critical_path", "forward_pass"]


@dataclass
class CriticalPathResult:
    """Outcome of a critical-path analysis for one fixed configuration.

    ``bytes_on_path`` is the sum of the message sizes on the path.  It is not
    ``λ_G``: a message of ``s`` bytes spends ``(s − 1)·G`` on the wire, so
    ``λ_G`` sums ``max(s − 1, 0)`` and is smaller by the number of non-empty
    messages on the path.
    :meth:`~repro.core.analyzer.LatencyAnalyzer.bandwidth_sensitivity` gives
    ``λ_G``, on the path its forward backtrack picks.
    """

    runtime: float
    completion: np.ndarray
    path: list[int]
    messages_on_path: int
    bytes_on_path: int
    compute_on_path: float
    overhead_on_path: float
    latency_on_path: float

    @property
    def latency_sensitivity(self) -> float:
        """``λ_L`` at this configuration: messages along the critical path."""
        return float(self.messages_on_path)

    @property
    def l_ratio(self) -> float:
        """Fraction of the critical path spent in network latency.

        The paper calls this the *L ratio* ``ρ_L`` and plots it as a
        percentage (Fig. 9 / Fig. 10).  Note that the formula printed in
        Section II-D1 (``T / (L · λ_L)``) is inverted with respect to the
        plotted quantity; we follow the plots and the prose ("what fraction of
        the critical path's execution time is due to network latency").
        """
        if self.runtime <= 0:
            return 0.0
        return self.latency_on_path / self.runtime


def _edge_cost(graph: ExecutionGraph, params: LogGPSParams, dst: int, kind: EdgeKind) -> float:
    if kind is EdgeKind.COMM:
        return params.L + max(int(graph.size[dst]) - 1, 0) * params.G
    return 0.0


def _vertex_cost(graph: ExecutionGraph, params: LogGPSParams, v: int) -> float:
    if graph.kind[v] == VertexKind.CALC:
        return float(graph.cost[v])
    return params.o


def forward_pass(graph: ExecutionGraph, params: LogGPSParams) -> np.ndarray:
    """Completion time of every vertex under configuration ``params``.

    Identical semantics to the LP of Algorithm 1: the makespan is
    ``completion.max()``.

    This is a thin wrapper over the level-synchronous vectorised simulation
    engine (:func:`repro.simulator.columnar.simulate_level`) with the ideal
    injector, no noise and no NIC-gap resource — the configuration in which
    the simulator's timestamps *are* the conventional forward pass.  The
    Hypothesis property test pinning ``forward_pass == LP optimum`` on
    random DAGs therefore anchors the level engine against the LP oracle.
    """
    from ..simulator.columnar import simulate_level
    from ..simulator.injector import IdealInjector
    from ..simulator.noise import NoNoise

    result = simulate_level(
        graph, params, IdealInjector(0.0), NoNoise(), track_nic=False
    )
    return result.end


def analyze_critical_path(graph: ExecutionGraph, params: LogGPSParams) -> CriticalPathResult:
    """Two-pass analysis: forward timestamps, backward critical-path walk."""
    completion = forward_pass(graph, params)
    runtime = float(completion.max()) if len(completion) else 0.0

    # backward pass: start from the vertex that finishes last and repeatedly
    # follow the predecessor whose contribution is tight.
    eps = 1e-7
    v = int(np.argmax(completion))
    path = [v]
    messages = 0
    bytes_on_path = 0
    compute = 0.0
    overhead = 0.0
    latency = 0.0

    while True:
        if graph.kind[v] == VertexKind.CALC:
            compute += float(graph.cost[v])
        else:
            overhead += params.o
        ready = completion[v] - _vertex_cost(graph, params, v)
        chosen: tuple[int, EdgeKind] | None = None
        for src, _, kind in graph.in_edges(v):
            candidate = completion[src] + _edge_cost(graph, params, v, kind)
            if abs(candidate - ready) <= eps * max(1.0, abs(ready)):
                # prefer communication edges on ties so that λ_L is the
                # *largest* message count among equivalent critical paths,
                # matching the LP's reduced cost at a breakpoint from above
                if chosen is None or (kind is EdgeKind.COMM and chosen[1] is EdgeKind.DEP):
                    chosen = (src, kind)
        if chosen is None:
            break
        src, kind = chosen
        if kind is EdgeKind.COMM:
            messages += 1
            bytes_on_path += int(graph.size[v])
            latency += params.L
        path.append(src)
        v = src

    path.reverse()
    return CriticalPathResult(
        runtime=runtime,
        completion=completion,
        path=path,
        messages_on_path=messages,
        bytes_on_path=bytes_on_path,
        compute_on_path=compute,
        overhead_on_path=overhead,
        latency_on_path=latency,
    )
