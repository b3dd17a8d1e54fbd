"""Conventional critical-path analysis of execution graphs.

This is the first of the two "conventional graph analysis approaches"
discussed in Section II-C: traverse the graph once to assign completion
timestamps for a fixed LogGPS configuration ``θ``, then traverse it backwards
to extract the critical path and the metrics defined on it (its number of
messages is ``λ_L``, the bytes it pays ``G`` for are ``λ_G``).  It serves
three purposes in this reproduction:

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
from ..simulator.columnar import _run
from ..simulator.injector import IdealInjector
from ..simulator.loggops import backtrack
from ..simulator.noise import NoNoise

__all__ = ["CriticalPathResult", "analyze_critical_path", "forward_pass"]


@dataclass
class CriticalPathResult:
    """Outcome of a critical-path analysis for one fixed configuration.

    ``bytes_on_path`` sums ``max(s − 1, 0)`` over the path's messages, the
    bytes ``G`` is charged for: it is ``λ_G``, and equals
    :meth:`~repro.core.analyzer.LatencyAnalyzer.bandwidth_sensitivity` on
    the same path.  ``compute + overhead + latency + G·bytes`` along the
    path is the runtime.
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


def forward_pass(graph: ExecutionGraph, params: LogGPSParams) -> np.ndarray:
    """Completion time of every vertex under configuration ``params``.

    Identical semantics to the LP of Algorithm 1: the makespan is
    ``completion.max()``.  This is a one-row call of the simulator's level
    engine (:mod:`repro.simulator.columnar`) with the ideal injector at
    ΔL = 0, no noise and no NIC-gap resource, the configuration in which the
    simulated timestamps *are* the conventional forward pass.  The
    Hypothesis property pinning ``forward_pass == LP optimum`` on random
    DAGs therefore anchors the engine against the LP oracle.
    """
    end, _, plan = _run(graph, params, (IdealInjector(),), NoNoise(), track_nic=False)
    return plan.by_vertex(end)


def analyze_critical_path(graph: ExecutionGraph, params: LogGPSParams) -> CriticalPathResult:
    """Two passes: :func:`forward_pass`, then the backtrack of
    :func:`repro.simulator.loggops.backtrack` (whose tie rule it follows)."""
    completion = forward_pass(graph, params)
    path, edges = backtrack(graph, params, completion)
    edges = np.asarray(edges, dtype=np.int64)
    receivers = graph.edge_dst[edges[graph.edge_kind[edges] == int(EdgeKind.COMM)]]
    calc = graph.kind[path] == int(VertexKind.CALC)
    return CriticalPathResult(
        runtime=float(completion.max()),
        completion=completion,
        path=path,
        messages_on_path=len(receivers),
        bytes_on_path=int(np.maximum(graph.size[receivers] - 1, 0).sum()),
        compute_on_path=float(graph.cost[path][calc].sum()),
        overhead_on_path=params.o * int(np.count_nonzero(~calc)),
        latency_on_path=params.L * len(receivers),
    )
