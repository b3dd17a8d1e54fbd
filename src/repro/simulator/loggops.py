"""Discrete-event LogGOPS simulator (the LogGOPSim reproduction).

The simulator replays an MPI execution graph under the LogGOPS model and a
latency-injection strategy, producing per-vertex start/end timestamps, the
application makespan (what the paper calls the *measured* runtime when the
delay-thread injector is used), and the critical path.

Timing rules
------------
For a vertex ``v`` on rank ``r`` processed in topological order:

* ``ready(v)`` is the maximum over incoming edges of

  - ``end(u)`` for a dependency edge ``u -> v``;
  - the release of a message sent at ``end(u)``: it arrives at ``end(u) +
    L + (s-1)·G`` plus the injector's ΔL if that enters on the wire, and
    with a progress injector it queues behind ``r``'s one progress thread
    (``max(arrival, busy) + ΔL``);

* ``CALC``: ``start = ready``, ``end = start + noise(cost)``;
* ``SEND``: ``start = max(ready, nic_free[r])``, ``end = start + o``, plus
  ΔL if the injector's ΔL enters on the send, and the NIC is busy until
  ``start + g`` (the LogGP *gap*);
* ``RECV``: ``start = ready``, ``end = start + o``.

Because the schedule builder serialises each rank's operations with
dependency edges, CPU occupancy is already encoded in the graph and only the
NIC gap needs explicit resource tracking.

This component doubles as the paper's baseline for Table I / Fig. 7: LLAMP
reads every latency point off one ``T(L)`` curve, LogGOPSim re-simulates
each one — the benchmark compares both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..network.params import LogGPSParams
from ..schedgen.graph import EdgeKind, ExecutionGraph
from .columnar import _run
from .injector import IdealInjector, LatencyInjector
from .noise import NoiseModel, NoNoise

__all__ = ["SimulationResult", "backtrack", "simulate"]


def backtrack(
    graph: ExecutionGraph, params: LogGPSParams, end: np.ndarray
) -> tuple[list[int], list[int]]:
    """One critical path of the completion times ``end``: its vertices and
    the edges between them, both from source to sink.

    An in-edge ``u → v`` ranks by its contribution to ``ready(v)``:
    ``end(u)`` for a dependency edge, ``end(u) + L + (s-1)·G`` for a
    communication edge.  **Tie rule** (the one rule for every critical path
    in the package, :func:`repro.core.envelope.pair_forward_evaluator`'s
    included): start at the first maximal sink in ``graph.sinks()`` order,
    then step to the first maximal in-edge in ``_pred_edges`` order (edge-id
    order).
    """
    sinks = graph.sinks()
    edge_src, edge_dst, edge_kind = graph.edge_arrays()
    contrib = end[edge_src] + np.where(
        edge_kind == int(EdgeKind.COMM),
        params.L + np.maximum(graph.size[edge_dst] - 1, 0) * params.G,
        0.0,
    )
    pred_indptr, pred_edges = graph._pred_indptr, graph._pred_edges
    v = int(sinks[np.argmax(end[sinks])])
    path, edges = [v], []
    while pred_indptr[v] < pred_indptr[v + 1]:
        eids = pred_edges[pred_indptr[v]:pred_indptr[v + 1]]
        edges.append(int(eids[np.argmax(contrib[eids])]))
        v = int(edge_src[edges[-1]])
        path.append(v)
    return path[::-1], edges[::-1]


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
        """One critical path of the simulated timestamps (:func:`backtrack`).

        A message ranks by ``end(u) + L + (s-1)·G``: the ideal wire time must
        be part of the ranking, otherwise a dependency predecessor finishing
        after ``end(u)`` but before the message's *arrival* would shadow the
        actually-latest input.  An injector's ΔL and the NIC gap are not
        part of it, so under those the path is a close approximation.
        """
        return self._backtrack(graph)[0]

    def critical_path_messages(self, graph: ExecutionGraph) -> int:
        """Number of communication edges along the extracted critical path."""
        edges = self._backtrack(graph)[1]
        return int(np.count_nonzero(graph.edge_kind[edges] == int(EdgeKind.COMM)))

    def _backtrack(self, graph: ExecutionGraph) -> tuple[list[int], list[int]]:
        if graph.num_vertices != len(self.end):
            raise ValueError("simulation result does not match the given graph")
        return backtrack(graph, self.params, self.end)


def simulate(
    graph: ExecutionGraph,
    params: LogGPSParams,
    *,
    delta_L: float = 0.0,
    injector: LatencyInjector | None = None,
    noise: NoiseModel | None = None,
) -> SimulationResult:
    """Simulate once: a one-row call of the level engine
    (:mod:`repro.simulator.columnar`).

    ``delta_L`` adds latency through an :class:`IdealInjector` unless an
    explicit injector is supplied.  The per-vertex walk of the timing rules
    above is kept as the test oracle :class:`repro.testing.LogGOPSSimulator`.
    """
    if injector is None:
        injector = IdealInjector(delta_L)
    elif delta_L:
        raise ValueError("pass either delta_L or an explicit injector, not both")
    end, start, plan = _run(
        graph, params, (injector,), noise if noise is not None else NoNoise(),
        keep_start=True,
    )
    rank_finish = plan.rank_finish(end, graph.nranks)
    return SimulationResult(
        makespan=float(rank_finish.max()),
        start=plan.by_vertex(start),
        end=plan.by_vertex(end),
        rank_finish=rank_finish,
        params=params,
    )
