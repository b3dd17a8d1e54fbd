"""Heterogeneous LogGP (HLogGP) support — Appendix I of the paper.

The homogeneous LogGPS model assumes a single latency/bandwidth between any
two processes.  For process-mapping questions that is too coarse:
intra-node communication is much cheaper than inter-node communication, and
different node pairs may be different distances apart in the network.  The
paper redefines ``L`` and ``G`` as symmetric ``P × P`` matrices (a simplified
HLogGP model) and reads pairwise sensitivities ``λ_L^{i,j}`` off the reduced
costs of the per-pair decision variables.

This module provides :class:`ArchitectureGraph` — the ``Φ`` of Equation 7: a
description of the machine (which node hosts how many processes, what the
intra-node and topology-dependent inter-node latencies are) — and helpers to
derive the per-pair lower-bound matrices for a given process mapping ``π``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..units import NS, US
from .params import LogGPSParams
from .topology import Topology, WireLatencyModel

__all__ = ["ArchitectureGraph", "block_mapping", "round_robin_mapping", "random_mapping"]


@dataclass
class ArchitectureGraph:
    """The architecture topology graph ``Φ``: nodes, their latencies, and capacity.

    Attributes
    ----------
    num_nodes:
        Number of compute nodes.
    processes_per_node:
        How many MPI ranks each node hosts.
    intra_node_latency:
        Latency between two ranks on the same node (shared memory), µs.
    inter_node_latency:
        Either a scalar (uniform network) or a ``num_nodes × num_nodes``
        matrix of per-node-pair latencies (e.g. produced by
        :meth:`repro.network.topology.WireLatencyModel.pair_latency_matrix`).
    intra_node_gap / inter_node_gap:
        Per-byte gaps for the two cases.
    """

    num_nodes: int
    processes_per_node: int = 1
    intra_node_latency: float = 0.3 * US
    inter_node_latency: float | np.ndarray = 3.0 * US
    intra_node_gap: float = 0.0005 * NS
    inter_node_gap: float = 0.018 * NS

    def __post_init__(self) -> None:
        if self.num_nodes < 1 or self.processes_per_node < 1:
            raise ValueError("num_nodes and processes_per_node must be >= 1")
        for name in ("intra_node_latency", "inter_node_latency", "intra_node_gap",
                     "inter_node_gap"):
            value = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.all((value >= 0) & (value < np.inf)):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if isinstance(self.inter_node_latency, np.ndarray):
            expected = (self.num_nodes, self.num_nodes)
            if self.inter_node_latency.shape != expected:
                raise ValueError(
                    f"inter_node_latency matrix must have shape {expected}, "
                    f"got {self.inter_node_latency.shape}"
                )
            # per-pair LP variables model unordered rank pairs, so a direction-
            # dependent latency is meaningless (and the vectorised swap gains
            # rely on symmetry)
            if not np.allclose(self.inter_node_latency, self.inter_node_latency.T):
                raise ValueError("inter_node_latency matrix must be symmetric")

    @classmethod
    def from_topology(
        cls,
        topology: Topology,
        num_nodes: int,
        *,
        processes_per_node: int = 1,
        wire_model: WireLatencyModel | None = None,
        intra_node_latency: float = 0.3 * US,
        intra_node_gap: float = 0.0005 * NS,
        inter_node_gap: float = 0.018 * NS,
    ) -> "ArchitectureGraph":
        """Build the architecture graph from a network topology."""
        model = wire_model or WireLatencyModel()
        matrix = model.pair_latency_matrix(topology, num_nodes)
        return cls(
            num_nodes=num_nodes,
            processes_per_node=processes_per_node,
            intra_node_latency=intra_node_latency,
            inter_node_latency=matrix,
            intra_node_gap=intra_node_gap,
            inter_node_gap=inter_node_gap,
        )

    # -- capacity ----------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Total number of ranks the machine can host."""
        return self.num_nodes * self.processes_per_node

    def node_latency(self, node_a: int, node_b: int) -> float:
        """Latency between two *nodes* (intra-node when they are equal)."""
        if node_a == node_b:
            return self.intra_node_latency
        if isinstance(self.inter_node_latency, np.ndarray):
            return float(self.inter_node_latency[node_a, node_b])
        return float(self.inter_node_latency)

    def node_gap(self, node_a: int, node_b: int) -> float:
        """Per-byte gap between two nodes."""
        return self.intra_node_gap if node_a == node_b else self.inter_node_gap

    # -- node matrices ----------------------------------------------------------

    def node_latency_matrix(self) -> np.ndarray:
        """``N × N`` node-to-node latency matrix (intra-node on the diagonal)."""
        if isinstance(self.inter_node_latency, np.ndarray):
            matrix = np.array(self.inter_node_latency, dtype=np.float64)
        else:
            matrix = np.full(
                (self.num_nodes, self.num_nodes), float(self.inter_node_latency)
            )
        np.fill_diagonal(matrix, self.intra_node_latency)
        return matrix

    def node_gap_matrix(self) -> np.ndarray:
        """``N × N`` node-to-node per-byte gap matrix (intra-node on the diagonal)."""
        matrix = np.full((self.num_nodes, self.num_nodes), float(self.inter_node_gap))
        np.fill_diagonal(matrix, self.intra_node_gap)
        return matrix

    # -- per-rank matrices ----------------------------------------------------------

    def latency_matrix(self, mapping: Sequence[int]) -> np.ndarray:
        """``P × P`` latency matrix for a process mapping ``π`` (rank → node)."""
        ranks = np.asarray(self._check_mapping(mapping), dtype=np.intp)
        matrix = self.node_latency_matrix()[np.ix_(ranks, ranks)]
        np.fill_diagonal(matrix, 0.0)
        return matrix

    def gap_matrix(self, mapping: Sequence[int]) -> np.ndarray:
        """``P × P`` per-byte gap matrix for a process mapping."""
        ranks = np.asarray(self._check_mapping(mapping), dtype=np.intp)
        matrix = self.node_gap_matrix()[np.ix_(ranks, ranks)]
        np.fill_diagonal(matrix, 0.0)
        return matrix

    def _check_mapping(self, mapping: Sequence[int]) -> list[int]:
        mapping = [int(node) for node in mapping]
        counts = np.bincount(mapping, minlength=self.num_nodes)
        if len(counts) > self.num_nodes:
            raise ValueError("mapping references a node outside the architecture")
        if np.any(counts > self.processes_per_node):
            overloaded = int(np.argmax(counts))
            raise ValueError(
                f"node {overloaded} hosts {counts[overloaded]} ranks but only "
                f"{self.processes_per_node} slots are available"
            )
        return mapping


def block_mapping(nranks: int, arch: ArchitectureGraph) -> list[int]:
    """The MPI default: consecutive ranks fill one node before the next."""
    if nranks > arch.capacity:
        raise ValueError(f"{nranks} ranks exceed the machine capacity {arch.capacity}")
    return [rank // arch.processes_per_node for rank in range(nranks)]


def round_robin_mapping(nranks: int, arch: ArchitectureGraph) -> list[int]:
    """Cyclic placement: rank ``r`` goes to node ``r mod num_nodes``."""
    if nranks > arch.capacity:
        raise ValueError(f"{nranks} ranks exceed the machine capacity {arch.capacity}")
    return [rank % arch.num_nodes for rank in range(nranks)]


def random_mapping(nranks: int, arch: ArchitectureGraph, *, seed: int = 0) -> list[int]:
    """A random (capacity-respecting) placement, useful as a baseline."""
    if nranks > arch.capacity:
        raise ValueError(f"{nranks} ranks exceed the machine capacity {arch.capacity}")
    slots = [node for node in range(arch.num_nodes) for _ in range(arch.processes_per_node)]
    rng = np.random.default_rng(seed)
    rng.shuffle(slots)
    return [int(slots[rank]) for rank in range(nranks)]
