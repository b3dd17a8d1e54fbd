"""Discrete-event LogGOPS simulator (the LogGOPSim reproduction).

The simulator replays an MPI execution graph under the LogGOPS model and a
latency-injection policy, producing per-vertex start/end timestamps, the
application makespan (what the paper calls the *measured* runtime when the
delay-thread injector is used), and the critical path.

Timing rules
------------
For a vertex ``v`` on rank ``r`` processed in topological order:

* ``ready(v)`` is the maximum over incoming edges of

  - ``end(u)`` for a dependency edge ``u -> v``;
  - ``release(end(u) + L + (s-1)·G)`` for a communication edge, where
    ``release`` is the injector's delivery policy (strategy A adds ΔL on the
    wire, strategy C serialises deliveries behind a single progress thread,
    …);

* ``CALC``: ``start = ready``, ``end = start + noise(cost)``;
* ``SEND``: ``start = max(ready, nic_free[r])``, ``end = start + o +
  injector.send_extra_delay(r)`` and the NIC is busy until ``start + g``
  (the LogGP *gap*);
* ``RECV``: ``start = ready``, ``end = start + o``.

Because the schedule builder serialises each rank's operations with
dependency edges, CPU occupancy is already encoded in the graph and only the
NIC gap needs explicit resource tracking.

This component doubles as the paper's baseline for Table I / Fig. 7: LLAMP
solves an LP once per latency point, LogGOPSim re-simulates — the benchmark
compares both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..network.params import LogGPSParams
from ..schedgen.graph import EdgeKind, ExecutionGraph
from .injector import IdealInjector, LatencyInjector
from .noise import NoiseModel, NoNoise

__all__ = ["SimulationResult", "simulate"]


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    makespan: float
    start: np.ndarray
    end: np.ndarray
    rank_finish: np.ndarray
    params: LogGPSParams

    @property
    def runtime(self) -> float:
        """Alias for :attr:`makespan` (microseconds)."""
        return self.makespan

    def critical_path(self, graph: ExecutionGraph) -> list[int]:
        """Extract one critical path by backtracking tight predecessors.

        The contribution of a predecessor ``u`` to ``ready(v)`` is ``end(u)``
        for a dependency edge and ``end(u) + L + (s-1)·G`` for a
        communication edge — the ideal wire time must be part of the ranking,
        otherwise a dependency predecessor finishing after ``end(u)`` but
        before the message's *arrival* would shadow the actually-latest
        input.  (Injector release policies are stateful and not replayable
        post-hoc, so their extra delays are not included; under non-ideal
        injectors the ranking is a close approximation.)
        """
        if graph.num_vertices != len(self.end):
            raise ValueError("simulation result does not match the given graph")
        L, G = self.params.L, self.params.G
        edge_src, edge_dst, edge_kind = graph.edge_arrays()
        # one vectorised pass: the contribution of every edge to its
        # target's ready time (end(u) plus the wire time for messages)
        contrib = self.end[edge_src] + np.where(
            edge_kind == int(EdgeKind.COMM),
            L + np.maximum(graph.size[edge_dst] - 1, 0) * G,
            0.0,
        )
        pred_indptr = graph._pred_indptr
        pred_edges = graph._pred_edges
        v = int(np.argmax(self.end))
        path = [v]
        while True:
            start, stop = pred_indptr[v], pred_indptr[v + 1]
            if start == stop:
                break
            # the predecessor whose arrival is latest; ties resolved
            # deterministically towards the lowest edge id (argmax returns
            # the first maximum and the CSR lists in-edges by edge id)
            eids = pred_edges[start:stop]
            v = int(edge_src[eids[np.argmax(contrib[eids])]])
            path.append(v)
        path.reverse()
        return path

    def critical_path_messages(self, graph: ExecutionGraph) -> int:
        """Number of communication edges along the extracted critical path."""
        path = np.asarray(self.critical_path(graph), dtype=np.int64)
        if path.size < 2:
            return 0
        comm_eids = graph.message_edges()
        edge_keys = (
            graph.edge_src[comm_eids] * graph.num_vertices + graph.edge_dst[comm_eids]
        )
        path_keys = path[:-1] * graph.num_vertices + path[1:]
        return int(np.isin(edge_keys, path_keys).sum())


def simulate(
    graph: ExecutionGraph,
    params: LogGPSParams,
    *,
    delta_L: float = 0.0,
    injector: LatencyInjector | None = None,
    noise: NoiseModel | None = None,
) -> SimulationResult:
    """Simulate once on the level-synchronous engine
    (:func:`repro.simulator.columnar.simulate_level`).

    ``delta_L`` adds latency through an :class:`IdealInjector` unless an
    explicit injector is supplied.  The per-vertex walk of the timing rules
    above is kept as the test oracle :class:`repro.testing.LogGOPSSimulator`,
    which is timestamp-identical.
    """
    from .columnar import simulate_level

    if injector is None:
        injector = IdealInjector(delta_L)
    elif delta_L:
        raise ValueError("pass either delta_L or an explicit injector, not both")
    return simulate_level(graph, params, injector, noise if noise is not None else NoNoise())
