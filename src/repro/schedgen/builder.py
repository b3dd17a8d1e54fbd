"""Schedgen: convert rank programs / traces into MPI execution graphs.

This is the reproduction of the *Schedgen* schedule generator of the
LogGOPSim toolchain that LLAMP builds on (Section II-A):

* every explicit computation becomes a ``CALC`` vertex;
* every point-to-point operation becomes a ``SEND``/``RECV`` vertex linked by
  intra-rank program-order (``DEP``) edges; matching sends and receives are
  connected with ``COMM`` edges following MPI's non-overtaking rule
  (per ``(source, destination, tag)`` FIFO order);
* non-blocking operations post their vertex without advancing the local
  program-order frontier; the corresponding ``MPI_Wait`` introduces the join;
* collectives are substituted with point-to-point algorithms chosen through
  :class:`repro.schedgen.collectives.CollectiveAlgorithms` — the knob the
  ICON case study turns to compare recursive doubling with the ring
  allreduce (Fig. 10);
* messages larger than the LogGPS threshold ``S`` are (optionally) expanded
  into an explicit rendezvous handshake (RTS / CTS / DATA), so that every
  communication edge left in the graph follows eager semantics.  This is a
  documented deviation from the paper's Appendix B, which folds the
  handshake into the LP constraints instead; the timing model is equivalent
  (three latencies plus the serialisation term before the payload is
  delivered) and it keeps the simulator, the LP generator and the parametric
  engine free of protocol special cases.

Graphs are built by the array-native engine of
:mod:`repro.schedgen.columnar` (bulk emission of whole segments/collective
rounds, a vectorised rendezvous post-pass and sort-based message matching).
The op-by-op path in this module (one builder call per vertex, a per-vertex
queue scan for message matching) is kept as the reference oracle behind
``ScheduleGenerator(builder_engine="legacy")``; both produce bit-identical
graphs.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..mpi.program import COLLECTIVE_KINDS, OpKind, Program, ProgramOp
from ..network.params import LogGPSParams
from ..trace.records import Trace
from . import collectives as coll
from .graph import ExecutionGraph, GraphBuilder

__all__ = [
    "ProtocolConfig",
    "ScheduleGenerator",
    "build_graph",
    "UnmatchedMessageError",
]

#: valid values of the ``builder_engine`` oracle switch
BUILDER_ENGINES = ("columnar", "legacy")

#: size of the control messages (RTS / CTS) used by the rendezvous expansion
_RENDEZVOUS_CTRL_BYTES = 1

#: tag offsets within one rendezvous handshake
_RTS_TAG, _CTS_TAG, _DATA_TAG = 0, 1, 2


class UnmatchedMessageError(ValueError):
    """Raised when sends and receives cannot be paired."""


@dataclass(frozen=True)
class ProtocolConfig:
    """Point-to-point protocol configuration used during graph construction.

    Attributes
    ----------
    eager_threshold:
        Messages strictly larger than this many bytes use the rendezvous
        protocol (the LogGPS ``S`` parameter).
    expand_rendezvous:
        When true (default), rendezvous messages are rewritten into an
        RTS/CTS/DATA handshake of eager messages.  When false, large messages
        are kept as single eager edges (useful for ablations).
    """

    eager_threshold: int = 256 * 1024
    expand_rendezvous: bool = True

    @classmethod
    def from_params(cls, params: LogGPSParams, *, expand_rendezvous: bool = True) -> "ProtocolConfig":
        return cls(eager_threshold=int(params.S), expand_rendezvous=expand_rendezvous)

    def uses_rendezvous(self, size: int) -> bool:
        return self.expand_rendezvous and size > self.eager_threshold


@dataclass
class _RankState:
    """Mutable per-rank build state."""

    frontier: int = -1
    requests: dict[int, int] = field(default_factory=dict)


class ScheduleGenerator:
    """Build :class:`ExecutionGraph` objects from programs or traces.

    Production builds run on the array-native engine of
    :mod:`repro.schedgen.columnar`.  ``builder_engine="legacy"`` is the
    oracle switch: it selects the op-by-op reference path of this module,
    which produces a bit-identical graph.
    """

    def __init__(
        self,
        algorithms: coll.CollectiveAlgorithms | None = None,
        protocol: ProtocolConfig | None = None,
        builder_engine: str = "columnar",
    ) -> None:
        if builder_engine not in BUILDER_ENGINES:
            raise ValueError(
                f"unknown builder engine {builder_engine!r}; expected one of {BUILDER_ENGINES}"
            )
        self.algorithms = algorithms or coll.CollectiveAlgorithms()
        self.protocol = protocol or ProtocolConfig()
        self.builder_engine = builder_engine

    # -- public entry points -------------------------------------------------

    def build(self, program: Program) -> ExecutionGraph:
        """Convert a :class:`Program` into an execution graph."""
        if self.builder_engine == "columnar":
            from . import columnar

            batches = columnar.batches_from_program(program)
            return columnar.build_columnar(
                batches, program.nranks, algorithms=self.algorithms, protocol=self.protocol
            )
        return self._build_legacy(program)

    def _build_legacy(self, program: Program) -> ExecutionGraph:
        program.validate()
        builder = GraphBuilder(nranks=program.nranks)
        states = [_RankState() for _ in range(program.nranks)]
        self._tag_cursor = coll.COLLECTIVE_TAG_BASE

        segments, collectives_per_segment = _split_on_collectives(program)
        frontier = [-1] * program.nranks
        for seg_index, segment in enumerate(segments):
            for rank, ops in enumerate(segment):
                state = states[rank]
                state.frontier = frontier[rank]
                for op in ops:
                    self._emit_p2p_op(builder, state, rank, op)
                frontier[rank] = state.frontier
            if seg_index < len(collectives_per_segment):
                collective = collectives_per_segment[seg_index]
                self._emit_collective(builder, frontier, collective)

        _match_messages(builder, program.nranks)
        return builder.freeze()

    def build_from_trace(self, trace: Trace, *, min_compute: float = 0.0) -> ExecutionGraph:
        """Convert a timestamped trace into an execution graph.

        Computation is inferred from the gap between consecutive MPI calls on
        the same rank, as Schedgen does with liballprof traces (Fig. 3).  The
        columnar engine ingests the trace columns directly
        (:func:`repro.schedgen.columnar.batches_from_trace`) without the
        ``ProgramOp``-object detour of the legacy path; the resulting graph
        is bit-identical either way.
        """
        if self.builder_engine == "columnar":
            from . import columnar

            trace.validate()
            batches = columnar.batches_from_trace(trace, min_compute=min_compute)
            return columnar.build_columnar(
                batches, trace.nranks, algorithms=self.algorithms, protocol=self.protocol
            )
        program = Program.from_trace(trace, min_compute=min_compute)
        return self._build_legacy(program)

    # -- point-to-point ------------------------------------------------------

    def _emit_p2p_op(
        self, builder: GraphBuilder, state: _RankState, rank: int, op: ProgramOp
    ) -> None:
        kind = op.kind
        if kind is OpKind.COMPUTE:
            if op.cost > 0:
                vid = builder.add_calc(rank, op.cost)
                self._advance(builder, state, vid)
            return
        if op.is_p2p:
            _check_user_tag(rank, op.tag)
            if kind is OpKind.SENDRECV:
                _check_user_tag(rank, op.recv_tag)
        if kind is OpKind.SEND:
            self._emit_send_blocking(builder, state, rank, op.peer, op.size, op.tag)
            return
        if kind is OpKind.RECV:
            self._emit_recv_blocking(builder, state, rank, op.peer, op.size, op.tag)
            return
        if kind is OpKind.SENDRECV:
            self._emit_send_blocking(builder, state, rank, op.peer, op.size, op.tag)
            self._emit_recv_blocking(
                builder, state, rank, op.recv_peer, op.recv_size, op.recv_tag
            )
            return
        if kind is OpKind.ISEND:
            if self.protocol.uses_rendezvous(op.size):
                vid = self._emit_rendezvous_isend(builder, state, rank, op.peer, op.size, op.tag)
            else:
                vid = self._emit_send_blocking(builder, state, rank, op.peer, op.size, op.tag)
            state.requests[op.request] = vid
            return
        if kind is OpKind.IRECV:
            vid = self._emit_recv_posted(builder, state, rank, op.peer, op.size, op.tag)
            state.requests[op.request] = vid
            return
        if kind is OpKind.WAIT:
            self._emit_wait(builder, state, rank, [op.request])
            return
        if kind is OpKind.WAITALL:
            self._emit_wait(builder, state, rank, list(op.requests))
            return
        raise ValueError(f"unexpected operation {kind} in point-to-point segment")

    def _advance(self, builder: GraphBuilder, state: _RankState, vid: int) -> None:
        if state.frontier >= 0:
            builder.add_dependency(state.frontier, vid)
        state.frontier = vid

    def _emit_send_blocking(
        self, builder: GraphBuilder, state: _RankState, rank: int, peer: int, size: int, tag: int
    ) -> int:
        if self.protocol.uses_rendezvous(size):
            return self._emit_rendezvous_send(builder, state, rank, peer, size, tag)
        vid = builder.add_send(rank, peer, size, tag=tag)
        self._advance(builder, state, vid)
        return vid

    def _emit_recv_blocking(
        self, builder: GraphBuilder, state: _RankState, rank: int, peer: int, size: int, tag: int
    ) -> int:
        if self.protocol.uses_rendezvous(size):
            return self._emit_rendezvous_recv(builder, state, rank, peer, size, tag)
        vid = builder.add_recv(rank, peer, size, tag=tag)
        self._advance(builder, state, vid)
        return vid

    def _emit_recv_posted(
        self, builder: GraphBuilder, state: _RankState, rank: int, peer: int, size: int, tag: int
    ) -> int:
        """Post a non-blocking receive: the vertex depends on the frontier but
        does not advance it (later computation may overlap the transfer)."""
        if self.protocol.uses_rendezvous(size):
            # the handshake proceeds asynchronously (progress engine): none of
            # its vertices advance the program-order frontier; the matching
            # MPI_Wait joins on the final DATA receive.
            base = self._rendezvous_base_tag(peer, rank, tag)
            rts = builder.add_recv(rank, peer, _RENDEZVOUS_CTRL_BYTES, tag=base + _RTS_TAG)
            if state.frontier >= 0:
                builder.add_dependency(state.frontier, rts)
            cts = builder.add_send(rank, peer, _RENDEZVOUS_CTRL_BYTES, tag=base + _CTS_TAG)
            builder.add_dependency(rts, cts)
            data = builder.add_recv(rank, peer, size, tag=base + _DATA_TAG)
            builder.add_dependency(cts, data)
            return data
        vid = builder.add_recv(rank, peer, size, tag=tag)
        if state.frontier >= 0:
            builder.add_dependency(state.frontier, vid)
        return vid

    def _emit_rendezvous_isend(
        self, builder: GraphBuilder, state: _RankState, rank: int, peer: int, size: int, tag: int
    ) -> int:
        """Non-blocking rendezvous send: the RTS occupies the CPU, the CTS/DATA
        exchange runs asynchronously and is joined by the matching wait."""
        base = self._rendezvous_base_tag(rank, peer, tag)
        rts = builder.add_send(rank, peer, _RENDEZVOUS_CTRL_BYTES, tag=base + _RTS_TAG)
        self._advance(builder, state, rts)
        cts = builder.add_recv(rank, peer, _RENDEZVOUS_CTRL_BYTES, tag=base + _CTS_TAG)
        builder.add_dependency(rts, cts)
        data = builder.add_send(rank, peer, size, tag=base + _DATA_TAG)
        builder.add_dependency(cts, data)
        return data

    def _emit_wait(
        self, builder: GraphBuilder, state: _RankState, rank: int, requests: Sequence[int]
    ) -> None:
        targets = []
        for req in requests:
            if req not in state.requests:
                raise ValueError(f"rank {rank}: wait on unknown request {req}")
            targets.append(state.requests.pop(req))
        join = builder.add_calc(rank, 0.0, label="wait")
        if state.frontier >= 0:
            builder.add_dependency(state.frontier, join)
        for vid in targets:
            if vid != state.frontier:
                builder.add_dependency(vid, join)
        state.frontier = join

    # -- rendezvous expansion --------------------------------------------------

    def _emit_rendezvous_send(
        self, builder: GraphBuilder, state: _RankState, rank: int, peer: int, size: int, tag: int
    ) -> int:
        base = self._rendezvous_base_tag(rank, peer, tag)
        rts = builder.add_send(rank, peer, _RENDEZVOUS_CTRL_BYTES, tag=base + _RTS_TAG)
        self._advance(builder, state, rts)
        cts = builder.add_recv(rank, peer, _RENDEZVOUS_CTRL_BYTES, tag=base + _CTS_TAG)
        self._advance(builder, state, cts)
        data = builder.add_send(rank, peer, size, tag=base + _DATA_TAG)
        self._advance(builder, state, data)
        return data

    def _emit_rendezvous_recv(
        self, builder: GraphBuilder, state: _RankState, rank: int, peer: int, size: int, tag: int
    ) -> int:
        base = self._rendezvous_base_tag(peer, rank, tag)
        rts = builder.add_recv(rank, peer, _RENDEZVOUS_CTRL_BYTES, tag=base + _RTS_TAG)
        self._advance(builder, state, rts)
        cts = builder.add_send(rank, peer, _RENDEZVOUS_CTRL_BYTES, tag=base + _CTS_TAG)
        self._advance(builder, state, cts)
        data = builder.add_recv(rank, peer, size, tag=base + _DATA_TAG)
        self._advance(builder, state, data)
        return data

    @staticmethod
    def _rendezvous_base_tag(sender: int, receiver: int, tag: int) -> int:
        # Deterministic tag derived from the user tag: all three sub-messages
        # of a handshake share the base, and matching stays FIFO per
        # (sender, receiver, user tag) because the base is a pure function of
        # those three values.  User tags are range-checked against
        # USER_TAG_LIMIT on emission, so the derived base can never fall into
        # the user or collective regions.
        return coll.RENDEZVOUS_TAG_BASE + tag * 4

    # -- collectives -----------------------------------------------------------

    def _next_collective_tag(self, nranks: int) -> int:
        tag, self._tag_cursor = coll.next_collective_tag(self._tag_cursor, nranks)
        return tag

    def _emit_collective(
        self, builder: GraphBuilder, frontier: list[int], op: ProgramOp
    ) -> None:
        tag = self._next_collective_tag(builder.nranks)
        _expand_collective(
            builder,
            frontier,
            kind=op.kind,
            size=op.size,
            root=op.root,
            algorithms=self.algorithms,
            tag=tag,
            expanders=coll.LEGACY_EXPANDERS,
        )


def _expand_collective(
    builder: GraphBuilder,
    frontier,
    *,
    kind: OpKind,
    size: int,
    root: int,
    algorithms: coll.CollectiveAlgorithms,
    tag: int,
    expanders: dict,
) -> None:
    """Dispatch one collective to the selected algorithm implementation.

    Shared by both engines: ``expanders`` is either
    :data:`~repro.schedgen.collectives.LEGACY_EXPANDERS` (``frontier`` is a
    Python list) or :data:`~repro.schedgen.collectives.COLUMNAR_EXPANDERS`
    (``frontier`` is an int64 array).
    """
    if kind is OpKind.BARRIER:
        expanders["barrier_dissemination"](builder, frontier, tag=tag)
    elif kind is OpKind.BCAST:
        expanders[f"bcast_{algorithms.bcast}"](
            builder, frontier, root=root, size=size, tag=tag
        )
    elif kind is OpKind.REDUCE:
        expanders[f"reduce_{algorithms.reduce}"](
            builder, frontier, root=root, size=size, tag=tag
        )
    elif kind is OpKind.ALLREDUCE:
        kwargs = dict(size=size, tag=tag)
        if algorithms.allreduce == "reduce_bcast":
            kwargs["root"] = root
        expanders[f"allreduce_{algorithms.allreduce}"](builder, frontier, **kwargs)
    elif kind is OpKind.ALLGATHER:
        expanders[f"allgather_{algorithms.allgather}"](
            builder, frontier, size=size, tag=tag
        )
    elif kind is OpKind.ALLTOALL:
        expanders[f"alltoall_{algorithms.alltoall}"](
            builder, frontier, size=size, tag=tag
        )
    elif kind is OpKind.GATHER:
        expanders[f"gather_{algorithms.gather}"](
            builder, frontier, root=root, size=size, tag=tag
        )
    elif kind is OpKind.SCATTER:
        expanders[f"scatter_{algorithms.scatter}"](
            builder, frontier, root=root, size=size, tag=tag
        )
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown collective kind {kind}")


def _check_user_tag(rank: int, tag: int) -> None:
    """Reject point-to-point tags outside the user tag region.

    Synthetic tags (expanded collectives, rendezvous handshakes) live in
    dedicated regions above :data:`~repro.schedgen.collectives.USER_TAG_LIMIT`;
    letting a traced tag into those regions could silently cross-match user
    traffic with synthetic traffic.
    """
    if not 0 <= tag < coll.USER_TAG_LIMIT:
        raise ValueError(
            f"rank {rank}: point-to-point tag {tag} outside the user tag "
            f"range [0, {coll.USER_TAG_LIMIT}) reserved from the collective/"
            f"rendezvous tag spaces"
        )


def build_graph(
    program: Program,
    *,
    algorithms: coll.CollectiveAlgorithms | None = None,
    protocol: ProtocolConfig | None = None,
    params: LogGPSParams | None = None,
) -> ExecutionGraph:
    """Convenience wrapper: build an execution graph from a program.

    If ``params`` is given and ``protocol`` is not, the protocol threshold is
    taken from ``params.S``.
    """
    if protocol is None and params is not None:
        protocol = ProtocolConfig.from_params(params)
    return ScheduleGenerator(algorithms=algorithms, protocol=protocol).build(program)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _split_on_collectives(
    program: Program,
) -> tuple[list[list[list[ProgramOp]]], list[ProgramOp]]:
    """Split every rank's op list into segments separated by collectives.

    Returns ``(segments, collectives)`` where ``segments[i][rank]`` is the list
    of point-to-point/compute ops of ``rank`` before collective ``i`` (the last
    segment follows the final collective), and ``collectives[i]`` is the
    representative collective op (taken from rank 0, sizes cross-checked).
    """
    per_rank_segments: list[list[list[ProgramOp]]] = []
    per_rank_collectives: list[list[ProgramOp]] = []
    for rp in program.ranks:
        segments: list[list[ProgramOp]] = [[]]
        collective_ops: list[ProgramOp] = []
        for op in rp:
            if op.is_collective:
                collective_ops.append(op)
                segments.append([])
            else:
                segments[-1].append(op)
        per_rank_segments.append(segments)
        per_rank_collectives.append(collective_ops)

    n_coll = len(per_rank_collectives[0]) if per_rank_collectives else 0
    for rank, ops in enumerate(per_rank_collectives):
        if len(ops) != n_coll:
            raise ValueError(
                f"rank {rank} calls {len(ops)} collectives but rank 0 calls {n_coll}"
            )
        for i, op in enumerate(ops):
            if op.kind is not per_rank_collectives[0][i].kind:
                raise ValueError(
                    f"collective #{i}: rank {rank} calls {op.kind}, rank 0 calls "
                    f"{per_rank_collectives[0][i].kind}"
                )

    # segments indexed [segment][rank]
    n_segments = n_coll + 1
    segments_by_index: list[list[list[ProgramOp]]] = []
    for seg in range(n_segments):
        segments_by_index.append([per_rank_segments[rank][seg] for rank in range(program.nranks)])
    # the representative collective: take rank 0's op but use the maximum size
    # observed across ranks (they should agree; be permissive about zero sizes)
    representatives: list[ProgramOp] = []
    for i in range(n_coll):
        rep = per_rank_collectives[0][i]
        max_size = max(per_rank_collectives[rank][i].size for rank in range(program.nranks))
        if max_size != rep.size:
            from dataclasses import replace

            rep = replace(rep, size=max_size)
        representatives.append(rep)
    return segments_by_index, representatives


def _match_messages(builder: GraphBuilder, nranks: int) -> None:
    """Pair SEND and RECV vertices and add the COMM edges.

    Matching follows MPI's non-overtaking rule: the *n*-th send from rank
    ``s`` to rank ``d`` with tag ``t`` matches the *n*-th receive posted on
    ``d`` from ``s`` with tag ``t``.  Vertex ids increase in per-rank posting
    order, so a single scan in id order yields the right FIFO queues.
    """
    from .graph import VertexKind

    sends: dict[tuple[int, int, int], deque[int]] = defaultdict(deque)
    recvs: dict[tuple[int, int, int], deque[int]] = defaultdict(deque)

    kinds = builder.kind_column().tolist()
    ranks = builder.rank_column().tolist()
    peers = builder.peer_column().tolist()
    tags = builder.tag_column().tolist()

    for vid in range(builder.num_vertices):
        kind = kinds[vid]
        if kind == VertexKind.SEND:
            key = (ranks[vid], peers[vid], tags[vid])
            if recvs[key]:
                builder.add_comm_edge(vid, recvs[key].popleft())
            else:
                sends[key].append(vid)
        elif kind == VertexKind.RECV:
            key = (peers[vid], ranks[vid], tags[vid])
            if sends[key]:
                builder.add_comm_edge(sends[key].popleft(), vid)
            else:
                recvs[key].append(vid)

    unmatched_sends = {k: list(v) for k, v in sends.items() if v}
    unmatched_recvs = {k: list(v) for k, v in recvs.items() if v}
    if unmatched_sends or unmatched_recvs:
        raise UnmatchedMessageError(
            "unmatched point-to-point messages: "
            f"sends={_summarise_unmatched(unmatched_sends)} "
            f"recvs={_summarise_unmatched(unmatched_recvs)}"
        )


def _summarise_unmatched(unmatched: dict[tuple[int, int, int], object]) -> str:
    items = []
    for (src, dst, tag), entry in list(unmatched.items())[:5]:
        count = entry if isinstance(entry, int) else len(entry)
        items.append(f"(src={src}, dst={dst}, tag={tag}, count={count})")
    more = len(unmatched) - len(items)
    if more > 0:
        items.append(f"... and {more} more keys")
    return "[" + ", ".join(items) + "]"
