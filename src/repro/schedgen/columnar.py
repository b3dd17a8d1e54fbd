"""Columnar schedule-generation engine (array-native Schedgen front-end).

PRs 1–3 made everything downstream of a frozen
:class:`~repro.schedgen.graph.ExecutionGraph` array-native; this module does
the same for *constructing* the graph.  Instead of walking programs or
traces one operation at a time and emitting vertices through per-call
builder methods, the columnar engine

1. converts each rank's operation stream into a :class:`RankOpBatch` — one
   NumPy column per op field (:func:`batches_from_program`), or straight
   from the trace columns without materialising ``ProgramOp`` objects at
   all (:func:`batches_from_trace`);
2. splits the batches on collectives with one vectorised scan and lowers
   the point-to-point ops of *all ranks* in two phases: one staging pass
   over the whole program (:func:`_stage`) resolves the sequential
   semantics (request handles, sendrecv splitting, wait joins) into flat
   *eager rows* with sort-based request matching, then, segment by
   segment, a vectorised lowering (:func:`_lower_rows`) expands rendezvous
   rows into RTS/CTS/DATA triples, computes every program-order dependency
   edge with one segmented running-max scan, and flushes the segment
   through the bulk builder APIs;
3. expands collectives through the ``batch_*`` expanders of
   :mod:`repro.schedgen.collectives` (whole rounds as index arithmetic);
4. pairs sends and receives with a vectorised sort-based FIFO matcher
   (:func:`match_messages`) instead of the per-vertex queue scan;
5. freezes the builder (:meth:`~repro.schedgen.graph.GraphBuilder.freeze`
   adopts its columns, validates them and computes the levels), the one
   way every graph — :class:`ScheduleBatches` ones included — is finished.

The result is **bit-identical** to the legacy op-by-op engine — same vertex
ids, same vertex attribute columns, same edge order, same labels — which the
parity suite (``tests/test_schedgen_columnar.py``) asserts across every
collective algorithm, rendezvous on/off, random point-to-point programs and
trace-driven builds.  See ``src/repro/schedgen/README.md`` for the ordering
contract.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

import numpy as np

from ..mpi.program import (
    COLLECTIVE_KINDS,
    MPI_TO_KIND,
    OP_CODE,
    OP_KINDS,
    OpKind,
    Program,
    RankOpBatch,
)
from ..trace.records import MPI_OP_CODE, MPIOp, Trace
from . import collectives as coll
from .graph import GraphBuilder, VertexKind

__all__ = [
    "RankOpBatch",
    "ScheduleBatches",
    "batches_from_program",
    "batches_from_trace",
    "build_columnar",
    "match_messages",
]

_C_COMPUTE = OP_CODE[OpKind.COMPUTE]
_C_SEND = OP_CODE[OpKind.SEND]
_C_RECV = OP_CODE[OpKind.RECV]
_C_ISEND = OP_CODE[OpKind.ISEND]
_C_IRECV = OP_CODE[OpKind.IRECV]
_C_WAIT = OP_CODE[OpKind.WAIT]
_C_WAITALL = OP_CODE[OpKind.WAITALL]
_C_SENDRECV = OP_CODE[OpKind.SENDRECV]

_COLLECTIVE_CODES = np.array(
    sorted(OP_CODE[kind] for kind in COLLECTIVE_KINDS), dtype=np.int16
)
_P2P_CODES = np.array(
    sorted(OP_CODE[k] for k in (OpKind.SEND, OpKind.RECV, OpKind.ISEND,
                                OpKind.IRECV, OpKind.SENDRECV)),
    dtype=np.int16,
)

_V_CALC = int(VertexKind.CALC)
_V_SEND = int(VertexKind.SEND)
_V_RECV = int(VertexKind.RECV)

#: staging-row lowering modes (phase 1 → phase 2 protocol); every mode
#: ``>= _RDV_BLOCK`` expands into an RTS/CTS/DATA triple in phase 2
_PLAIN = 0       # advancing vertex, depends on the frontier
_POST = 1        # posted (non-blocking) vertex: frontier dep, no advance
_JOIN = 2        # wait join: frontier dep + extra request-target deps
_RDV_BLOCK = 3   # blocking rendezvous send/recv: 3-chain, all advance
_RDV_ISEND = 4   # non-blocking rendezvous send: RTS advances, CTS/DATA chain
_RDV_IRECV = 5   # non-blocking rendezvous recv: internal chain, no advance

# lookup (indexed by mode) of whether the *first* vertex of a row advances
_START_ADVANCES = np.array([True, False, True, True, True, False])

# MPIOp code → OpKind code (or -1 for records that never become program ops)
_MPI_CODE_TO_OP = np.full(len(MPIOp), -1, dtype=np.int16)
for _mpi_op, _kind in MPI_TO_KIND.items():
    _MPI_CODE_TO_OP[MPI_OP_CODE[_mpi_op]] = OP_CODE[_kind]
_SKIP_CODES = np.array(
    [MPI_OP_CODE[MPIOp.INIT], MPI_OP_CODE[MPIOp.COMM_SIZE], MPI_OP_CODE[MPIOp.COMM_RANK]],
    dtype=np.int16,
)
_FINALIZE_CODE = MPI_OP_CODE[MPIOp.FINALIZE]


def batches_from_program(program: Program) -> list[RankOpBatch]:
    """Columnarise a :class:`~repro.mpi.program.Program` (one batch per rank).

    Each rank's rows become its batch through
    :meth:`~repro.mpi.program.RankProgram.columns`.
    """
    return [rank_program.columns() for rank_program in program.ranks]


def batches_from_trace(trace: Trace, *, min_compute: float = 0.0) -> list[RankOpBatch]:
    """Columnarise a timestamped trace without building ``ProgramOp`` objects.

    Mirrors :meth:`repro.mpi.program.Program.from_trace` exactly — the same
    records are skipped (``MPI_Init``, bookkeeping no-ops, ``MPI_Finalize``)
    and a ``COMPUTE`` row is inserted before every remaining record whose
    gap to the previous call exceeds ``min_compute`` — but the whole
    transformation is a handful of array passes over the trace columns
    (:meth:`repro.trace.records.RankTrace.columns`).
    """
    batches = []
    for rank_trace in trace.ranks:
        columns = rank_trace.columns()
        code = columns.code
        n = len(code)
        if n == 0:
            batches.append(_empty_batch())
            continue
        skip = np.isin(code, _SKIP_CODES)
        finalize = code == _FINALIZE_CODE
        considered = ~skip
        emit_op = considered & ~finalize

        prev_end = np.empty(n, dtype=np.float64)
        prev_end[0] = np.inf  # no gap before the first record
        prev_end[1:] = columns.tend[:-1]
        gap = columns.tstart - prev_end
        has_compute = considered & (gap > min_compute)

        mapped = _MPI_CODE_TO_OP[code]
        if np.any(emit_op & (mapped < 0)):
            offender = int(code[int(np.argmax(emit_op & (mapped < 0)))])
            raise ValueError(
                f"cannot convert trace record {tuple(MPIOp)[offender]} to a program op"
            )

        counts = has_compute.astype(np.int64) + emit_op
        ends = np.cumsum(counts)
        offsets = ends - counts
        total = int(ends[-1])

        kind = np.empty(total, dtype=np.int16)
        cost = np.zeros(total, dtype=np.float64)
        peer = np.full(total, -1, dtype=np.int64)
        size = np.zeros(total, dtype=np.int64)
        tag = np.zeros(total, dtype=np.int64)
        root = np.zeros(total, dtype=np.int64)
        request = np.full(total, -1, dtype=np.int64)
        recv_peer = np.full(total, -1, dtype=np.int64)
        recv_size = np.zeros(total, dtype=np.int64)
        recv_tag = np.zeros(total, dtype=np.int64)
        requests: list[tuple[int, ...]] = [()] * total

        compute_pos = offsets[has_compute]
        kind[compute_pos] = _C_COMPUTE
        cost[compute_pos] = gap[has_compute]

        op_pos = offsets[emit_op] + has_compute[emit_op]
        op_mapped = mapped[emit_op]
        is_coll = np.isin(op_mapped, _COLLECTIVE_CODES)
        kind[op_pos] = op_mapped
        peer[op_pos] = np.where(is_coll, -1, columns.peer[emit_op])
        size[op_pos] = columns.size[emit_op]
        tag[op_pos] = columns.tag[emit_op]
        root[op_pos] = np.where(is_coll, np.maximum(columns.peer[emit_op], 0), 0)
        request[op_pos] = columns.request[emit_op]
        recv_peer[op_pos] = columns.recv_peer[emit_op]
        recv_size[op_pos] = columns.recv_size[emit_op]
        recv_tag[op_pos] = columns.recv_tag[emit_op]
        for record_index in np.flatnonzero(code == MPI_OP_CODE[MPIOp.WAITALL]).tolist():
            slot = int(offsets[record_index] + has_compute[record_index])
            requests[slot] = columns.requests[record_index]

        batches.append(RankOpBatch(
            kind=kind, cost=cost, peer=peer, size=size, tag=tag, root=root,
            request=request, recv_peer=recv_peer, recv_size=recv_size,
            recv_tag=recv_tag, requests=requests,
        ))
    return batches


def _empty_batch() -> RankOpBatch:
    return RankOpBatch(
        kind=np.empty(0, dtype=np.int16),
        cost=np.empty(0, dtype=np.float64),
        peer=np.empty(0, dtype=np.int64),
        size=np.empty(0, dtype=np.int64),
        tag=np.empty(0, dtype=np.int64),
        root=np.empty(0, dtype=np.int64),
        request=np.empty(0, dtype=np.int64),
        recv_peer=np.empty(0, dtype=np.int64),
        recv_size=np.empty(0, dtype=np.int64),
        recv_tag=np.empty(0, dtype=np.int64),
        requests=[],
    )


# ---------------------------------------------------------------------------
# build core
# ---------------------------------------------------------------------------

def build_columnar(
    batches: list[RankOpBatch],
    nranks: int,
    *,
    algorithms,
    protocol,
    mmap_dir=None,
):
    """Build a frozen execution graph from per-rank op batches.

    The columnar twin of :meth:`repro.schedgen.builder.ScheduleGenerator.build`;
    ``algorithms`` is a :class:`~repro.schedgen.collectives.CollectiveAlgorithms`
    and ``protocol`` a :class:`~repro.schedgen.builder.ProtocolConfig`.
    ``mmap_dir`` disk-backs the builder's columns, and so the graph's (see
    :class:`~repro.schedgen.graph.GraphBuilder`); the caller owns the
    directory for the graph's lifetime.
    """
    builder = _populate_builder(
        batches, nranks, algorithms=algorithms, protocol=protocol,
        mmap_dir=mmap_dir,
    )
    return builder.freeze()


class ScheduleBatches:
    """Columnar schedule handle: per-rank op batches plus expansion config.

    Turns op batches that never passed through a :class:`~repro.mpi.program.
    Program` (the chunked trace ingest behind
    :meth:`repro.core.analyzer.LatencyAnalyzer.from_batches`) into an
    execution graph: :meth:`graph_for` builds it through
    :func:`build_columnar` and caches it per protocol, so the graph is
    validated like every other.  ``mmap_dir`` disk-backs the graph's
    columns; the caller owns the directory for the graph's lifetime.

    ``protocol`` may be left ``None`` and resolved later from the LogGPS
    parameters actually analysed (``ProtocolConfig.from_params``), so one
    spec can serve several parameter sets.
    """

    def __init__(
        self,
        batches: list[RankOpBatch],
        nranks: int,
        *,
        algorithms=None,
        protocol=None,
        mmap_dir=None,
    ) -> None:
        self.batches = batches
        self.nranks = int(nranks)
        self.algorithms = algorithms if algorithms is not None else coll.CollectiveAlgorithms()
        self.protocol = protocol
        self.mmap_dir = mmap_dir
        self._graphs: dict[object, object] = {}

    @classmethod
    def from_program(cls, program: Program, *, algorithms=None, protocol=None) -> "ScheduleBatches":
        """Columnarise ``program`` into a spec (one :func:`batches_from_program` pass)."""
        return cls(
            batches_from_program(program),
            program.nranks,
            algorithms=algorithms,
            protocol=protocol,
        )

    def resolve_protocol(self, params):
        """The protocol this spec expands under: its own, else derived from ``params``."""
        if self.protocol is not None:
            return self.protocol
        from .builder import ProtocolConfig

        return ProtocolConfig.from_params(params)

    def graph_for(self, params):
        """The execution graph of this schedule under ``params``.

        Built once per protocol via :func:`build_columnar` and cached on the
        spec — repeated digests and analyses share one graph.
        """
        protocol = self.resolve_protocol(params)
        graph = self._graphs.get(protocol)
        if graph is None:
            graph = build_columnar(
                self.batches, self.nranks,
                algorithms=self.algorithms, protocol=protocol,
                mmap_dir=self.mmap_dir,
            )
            self._graphs[protocol] = graph
        return graph

    def content_digest(self, params) -> str:
        """The content digest of the schedule's graph under ``params``."""
        return self.graph_for(params).content_digest()


def _populate_builder(
    batches: list[RankOpBatch],
    nranks: int,
    *,
    algorithms,
    protocol,
    mmap_dir=None,
) -> GraphBuilder:
    """The shared build core: emit all vertices/edges into a fresh builder."""
    from .builder import _expand_collective

    if len(batches) != nranks:
        raise ValueError(f"expected {nranks} batches, got {len(batches)}")
    builder = GraphBuilder(nranks=nranks, mmap_dir=mmap_dir)
    for rank, batch in enumerate(batches):
        _check_batch(rank, nranks, batch)

    # split on collectives (vectorised) + cross-rank consistency checks
    collective_positions = [
        np.flatnonzero(np.isin(batch.kind, _COLLECTIVE_CODES)) for batch in batches
    ]
    n_collectives = len(collective_positions[0]) if batches else 0
    for rank, positions in enumerate(collective_positions):
        if len(positions) != n_collectives:
            raise ValueError(
                f"rank {rank} calls {len(positions)} collectives but rank 0 "
                f"calls {n_collectives}"
            )
    if n_collectives:
        kinds0 = batches[0].kind[collective_positions[0]]
        for rank in range(1, nranks):
            kinds_r = batches[rank].kind[collective_positions[rank]]
            mismatch = kinds_r != kinds0
            if np.any(mismatch):
                at = int(np.argmax(mismatch))
                raise ValueError(
                    f"collective #{at}: rank {rank} calls "
                    f"{OP_KINDS[int(kinds_r[at])]}, rank 0 calls "
                    f"{OP_KINDS[int(kinds0[at])]}"
                )
        sizes = np.stack(
            [batches[r].size[collective_positions[r]] for r in range(nranks)]
        ).max(axis=0)
        roots = batches[0].root[collective_positions[0]]

    staged = _stage(batches, n_collectives, protocol)
    # a staging error surfaces where a sequential walk would meet it: after
    # the segments and collectives before it have been emitted
    fail_segment = staged.failure[0] if staged.failure else -1
    frontier = np.full(nranks, -1, dtype=np.int64)
    tag_cursor = coll.COLLECTIVE_TAG_BASE

    for segment in range(n_collectives + 1):
        if segment == fail_segment:
            raise _staging_error(*staged.failure[1:])
        _lower_rows(builder, frontier, staged, segment)
        if segment < n_collectives:
            tag, tag_cursor = coll.next_collective_tag(tag_cursor, nranks)
            _expand_collective(
                builder,
                frontier,
                kind=OP_KINDS[int(kinds0[segment])],
                size=int(sizes[segment]),
                root=int(roots[segment]),
                algorithms=algorithms,
                tag=tag,
                expanders=coll.COLUMNAR_EXPANDERS,
            )
    if staged.failure:  # requests left open at the end of the program
        raise _staging_error(*staged.failure[1:])

    match_messages(builder)
    return builder


def _check_batch(rank: int, nranks: int, batch: RankOpBatch) -> None:
    """Vectorised per-batch hygiene: peer ranges and user-tag range."""
    p2p = np.isin(batch.kind, _P2P_CODES)
    if np.any(p2p & ((batch.peer < 0) | (batch.peer >= nranks))):
        offender = int(batch.peer[int(np.argmax(p2p & ((batch.peer < 0) | (batch.peer >= nranks))))])
        raise ValueError(f"rank {rank}: peer {offender} out of range")
    sendrecv = batch.kind == _C_SENDRECV
    if np.any(sendrecv & ((batch.recv_peer < 0) | (batch.recv_peer >= nranks))):
        raise ValueError(f"rank {rank}: sendrecv receive peer out of range")
    bad_main = p2p & ((batch.tag < 0) | (batch.tag >= coll.USER_TAG_LIMIT))
    bad_recv = sendrecv & ((batch.recv_tag < 0) | (batch.recv_tag >= coll.USER_TAG_LIMIT))
    if np.any(bad_main | bad_recv):
        at = int(np.argmax(bad_main | bad_recv))
        offender = int(batch.tag[at]) if bad_main[at] else int(batch.recv_tag[at])
        raise ValueError(
            f"rank {rank}: point-to-point tag {offender} outside the user tag "
            f"range [0, {coll.USER_TAG_LIMIT}) reserved from the collective/"
            f"rendezvous tag spaces"
        )


# ---------------------------------------------------------------------------
# point-to-point lowering: phase 1 (staging) and phase 2 (per segment)
# ---------------------------------------------------------------------------

#: staging errors; the first one in (segment, rank, position, slot) order is
#: raised, which is the one a sequential walk over the program meets first
_ERR_UNEXPECTED = 0
_ERR_NO_REQUEST = 1
_ERR_REUSED = 2
_ERR_UNKNOWN = 3
_ERR_OPEN = 4


def _staging_error(rank: int, error: int, payload) -> ValueError:
    """The exception of one staging error, built only when it is raised."""
    if error == _ERR_UNEXPECTED:
        return ValueError(
            f"unexpected operation {OP_KINDS[payload]} in point-to-point segment"
        )
    if error == _ERR_NO_REQUEST:
        return ValueError(f"rank {rank}: {OP_KINDS[payload]} without request")
    if error == _ERR_REUSED:
        return ValueError(f"rank {rank}: request {payload} reused before completion")
    if error == _ERR_UNKNOWN:
        return ValueError(f"rank {rank}: wait on unknown request {payload}")
    return ValueError(f"rank {rank}: requests never completed: {payload}")


class _Staged(NamedTuple):
    """Phase-1 output: the eager rows of the whole program.

    Rows are in (segment, rank, op position) order, the order phase 2 emits
    them in; segment ``s`` owns rows ``segment_start[s]:segment_start[s + 1]``.
    """

    kind: np.ndarray           # vertex kind (int8)
    cost: np.ndarray
    size: np.ndarray
    peer: np.ndarray
    tag: np.ndarray
    mode: np.ndarray           # lowering mode, _PLAIN … _RDV_IRECV (int8)
    rank: np.ndarray
    segment_start: np.ndarray
    join_row: np.ndarray       # wait row of each request a wait completes,
    join_target: np.ndarray    # and the row that posted it; by (join row, slot)
    row_vid: np.ndarray        # vertex each row resolves to, filled by phase 2
    failure: tuple | None      # (segment, rank, error, payload) of the first error


def _stage(batches: list[RankOpBatch], n_collectives: int, protocol) -> _Staged:
    """Phase 1: stage every rank and segment of the program in one pass.

    Turns the point-to-point ops into flat *eager rows* — one row per future
    send/recv/calc vertex, still unexpanded for rendezvous — with the
    lowering mode of each row.  An op's segment is the number of collectives
    before it on its rank; one stable sort by segment puts the ops in
    (segment, rank, position) order, and the row layout follows from per-op
    row counts (0 for a zero-cost compute, 2 for a sendrecv, else 1).

    Request handles are matched by sorting events by (rank, handle, op,
    slot): a post is an ``isend``/``irecv``, a consume a ``wait`` or one
    listed handle of a ``waitall``.  Within one (rank, handle) group the
    events must alternate post/consume, starting with a post — exactly the
    sequential dict semantics — and each consume completes the post right
    before it, so requests may stay open across any number of collectives.
    """
    # one pass over the batches: a ChunkedBatches builds a view per access
    views = [
        (batch.kind, batch.cost, batch.peer, batch.size, batch.tag, batch.request,
         batch.recv_peer, batch.recv_size, batch.recv_tag, batch.requests)
        for batch in batches
    ]
    *columns, requests_by_rank = zip(*views)
    kind, cost, peer, size, tag, request, recv_peer, recv_size, recv_tag = (
        np.concatenate(column) for column in columns
    )
    lengths = np.array([len(view[0]) for view in views], dtype=np.int64)
    rank_start = np.cumsum(lengths) - lengths
    op_rank = np.repeat(np.arange(len(views), dtype=np.int64), lengths)
    is_collective = np.isin(kind, _COLLECTIVE_CODES)
    op_segment = np.cumsum(is_collective) - is_collective - op_rank * n_collectives
    p2p = np.flatnonzero(~is_collective)
    ops = p2p[np.argsort(op_segment[p2p], kind="stable")]
    op_rank, op_segment = op_rank[ops], op_segment[ops]
    kinds, costs, sizes = kind[ops], cost[ops], size[ops]

    # ------------------------------------------------------------------
    # row layout and row columns
    # ------------------------------------------------------------------
    is_compute = kinds == _C_COMPUTE
    is_sendrecv = kinds == _C_SENDRECV
    is_wait = (kinds == _C_WAIT) | (kinds == _C_WAITALL)
    send_side = (kinds == _C_SEND) | (kinds == _C_ISEND) | is_sendrecv
    recv_side = (kinds == _C_RECV) | (kinds == _C_IRECV)
    rows_per_op = np.where(is_compute, costs > 0, 1) + is_sendrecv
    ends = np.cumsum(rows_per_op)
    offsets = ends - rows_per_op
    nrows = int(ends[-1]) if len(ends) else 0

    row_kind = np.full(nrows, _V_CALC, dtype=np.int8)
    row_cost = np.zeros(nrows, dtype=np.float64)
    row_size = np.zeros(nrows, dtype=np.int64)
    row_peer = np.full(nrows, -1, dtype=np.int64)
    row_tag = np.zeros(nrows, dtype=np.int64)
    row_mode = np.full(nrows, _PLAIN, dtype=np.int8)

    kept_compute = is_compute & (rows_per_op > 0)
    row_cost[offsets[kept_compute]] = costs[kept_compute]

    threshold = protocol.eager_threshold
    expand = protocol.expand_rendezvous
    rendezvous = expand & (sizes > threshold)
    message = send_side | recv_side
    pos = offsets[message]
    row_size[pos] = sizes[message]
    row_peer[pos] = peer[ops[message]]
    row_tag[pos] = tag[ops[message]]
    pos = offsets[send_side]
    row_kind[pos] = _V_SEND
    row_mode[pos] = np.where(
        rendezvous[send_side],
        np.where(kinds[send_side] == _C_ISEND, _RDV_ISEND, _RDV_BLOCK),
        _PLAIN,
    )
    pos = offsets[recv_side]
    row_kind[pos] = _V_RECV
    row_mode[pos] = np.where(
        kinds[recv_side] == _C_IRECV,
        np.where(rendezvous[recv_side], _RDV_IRECV, _POST),
        np.where(rendezvous[recv_side], _RDV_BLOCK, _PLAIN),
    )
    # a sendrecv's receive half is the row right after its send
    pos = offsets[is_sendrecv] + 1
    sendrecv_ops = ops[is_sendrecv]
    row_kind[pos] = _V_RECV
    row_size[pos] = recv_size[sendrecv_ops]
    row_peer[pos] = recv_peer[sendrecv_ops]
    row_tag[pos] = recv_tag[sendrecv_ops]
    row_mode[pos] = np.where(
        expand & (recv_size[sendrecv_ops] > threshold), _RDV_BLOCK, _PLAIN
    )
    row_mode[offsets[is_wait]] = _JOIN

    row_segment = np.repeat(op_segment, rows_per_op)
    segment_start = np.searchsorted(row_segment, np.arange(n_collectives + 2))

    # ------------------------------------------------------------------
    # request matching by (rank, handle)
    # ------------------------------------------------------------------
    posts = np.flatnonzero((kinds == _C_ISEND) | (kinds == _C_IRECV))
    waits = np.flatnonzero(kinds == _C_WAIT)
    waitalls = np.flatnonzero(kinds == _C_WAITALL)
    local = (ops[waitalls] - rank_start[op_rank[waitalls]]).tolist()
    listed = [
        requests_by_rank[rank][at]
        for rank, at in zip(op_rank[waitalls].tolist(), local)
    ]
    counts = np.fromiter(map(len, listed), dtype=np.int64, count=len(listed))
    n_listed = int(counts.sum())
    ev_op = np.concatenate([posts, waits, np.repeat(waitalls, counts)])
    ev_slot = np.zeros(len(ev_op), dtype=np.int64)
    ev_slot[len(posts) + len(waits):] = (
        np.arange(n_listed) - np.repeat(np.cumsum(counts) - counts, counts)
    )
    ev_handle = np.concatenate([
        request[ops[posts]],
        request[ops[waits]],
        np.fromiter(chain.from_iterable(listed), dtype=np.int64, count=n_listed),
    ])
    ev_rank = op_rank[ev_op]
    order = np.lexsort((ev_slot, ev_op, ev_handle, ev_rank))
    ev_op, ev_slot, ev_handle, ev_rank = (
        ev_op[order], ev_slot[order], ev_handle[order], ev_rank[order]
    )
    is_post = order < len(posts)
    same_group = np.zeros(len(order), dtype=bool)
    same_group[1:] = (ev_rank[1:] == ev_rank[:-1]) & (ev_handle[1:] == ev_handle[:-1])
    after_post = np.zeros(len(order), dtype=bool)
    after_post[1:] = same_group[1:] & is_post[:-1]

    unexpected = np.flatnonzero(~(is_compute | message | is_wait))
    no_request = posts[request[ops[posts]] < 0]
    reused = np.flatnonzero(is_post & after_post)
    unknown = np.flatnonzero(~is_post & ~after_post)
    v_op = np.concatenate([unexpected, no_request, ev_op[reused], ev_op[unknown]])
    failure = None
    if len(v_op):
        v_slot = np.concatenate([
            np.zeros(len(unexpected) + len(no_request), dtype=np.int64),
            ev_slot[reused], ev_slot[unknown],
        ])
        v_error = np.repeat(
            [_ERR_UNEXPECTED, _ERR_NO_REQUEST, _ERR_REUSED, _ERR_UNKNOWN],
            [len(unexpected), len(no_request), len(reused), len(unknown)],
        )
        v_payload = np.concatenate([
            kinds[unexpected], kinds[no_request], ev_handle[reused], ev_handle[unknown],
        ])
        first = np.lexsort((v_error, v_slot, v_op))[0]
        at = v_op[first]
        failure = (int(op_segment[at]), int(op_rank[at]), int(v_error[first]),
                   int(v_payload[first]))
    else:
        last_in_group = np.ones(len(order), dtype=bool)
        last_in_group[:-1] = ~same_group[1:]
        still_open = is_post & last_in_group
        if np.any(still_open):
            rank = int(ev_rank[still_open][0])
            pending = ev_handle[still_open & (ev_rank == rank)].tolist()
            failure = (n_collectives + 1, rank, _ERR_OPEN, pending)

    # each consume completes the post right before it in its group (after the
    # first error the pairing is meaningless, but those rows are never lowered)
    consumes = np.flatnonzero(~is_post)
    join_row = offsets[ev_op[consumes]]
    join_target = offsets[ev_op[consumes - 1]]
    join_order = np.lexsort((ev_slot[consumes], join_row))

    return _Staged(
        kind=row_kind, cost=row_cost, size=row_size, peer=row_peer, tag=row_tag,
        mode=row_mode, rank=np.repeat(op_rank, rows_per_op),
        segment_start=segment_start,
        join_row=join_row[join_order], join_target=join_target[join_order],
        row_vid=np.empty(nrows, dtype=np.int64), failure=failure,
    )


def _lower_rows(
    builder: GraphBuilder,
    frontier: np.ndarray,
    staged: _Staged,
    segment: int,
) -> None:
    """Phase 2: lower one segment's staged rows into vertices and edges.

    Expands rendezvous rows into RTS/CTS/DATA triples with offset arithmetic,
    derives every program-order dependency edge from one segmented
    running-max scan over the advancing vertices, splices in the wait-join
    edges, and flushes vertices + edges through the bulk builder APIs.
    Vertex and edge order reproduce the legacy engine exactly (rank-major
    within the segment, each vertex's incoming edge in vertex order, join
    edges right after the join's frontier edge).
    """
    from .builder import _CTS_TAG, _DATA_TAG, _RENDEZVOUS_CTRL_BYTES, _RTS_TAG

    lo, hi = int(staged.segment_start[segment]), int(staged.segment_start[segment + 1])
    if lo == hi:
        return
    kinds, costs, sizes = staged.kind[lo:hi], staged.cost[lo:hi], staged.size[lo:hi]
    peers, tags, modes = staged.peer[lo:hi], staged.tag[lo:hi], staged.mode[lo:hi]
    row_rank = staged.rank[lo:hi]
    block_start = np.empty(hi - lo, dtype=bool)
    block_start[0] = True
    np.not_equal(row_rank[1:], row_rank[:-1], out=block_start[1:])
    block_rank_arr = row_rank[block_start]
    row_block = np.cumsum(block_start) - 1

    expand = modes >= _RDV_BLOCK
    counts = np.where(expand, 3, 1).astype(np.int64)
    ends = np.cumsum(counts)
    offsets = ends - counts
    total = int(ends[-1])
    base = builder.num_vertices
    # the vertex each row resolves to (DATA vertex for rendezvous rows):
    # wait joins reference the rows they complete through this array
    staged.row_vid[lo:hi] = base + offsets + np.where(expand, 2, 0)

    out_kind = np.empty(total, dtype=np.int8)
    out_cost = np.zeros(total, dtype=np.float64)
    out_size = np.zeros(total, dtype=np.int64)
    out_peer = np.full(total, -1, dtype=np.int64)
    out_tag = np.zeros(total, dtype=np.int64)

    plain = ~expand
    plain_pos = offsets[plain]
    out_kind[plain_pos] = kinds[plain]
    out_cost[plain_pos] = costs[plain]
    out_size[plain_pos] = sizes[plain]
    out_peer[plain_pos] = peers[plain]
    out_tag[plain_pos] = tags[plain]

    rendezvous_pos = offsets[expand]
    if rendezvous_pos.size:
        side = kinds[expand]                       # SEND or RECV (the local side)
        opposite = (_V_SEND + _V_RECV) - side
        out_kind[rendezvous_pos] = side            # RTS: posted by this side
        out_kind[rendezvous_pos + 1] = opposite    # CTS: flows the other way
        out_kind[rendezvous_pos + 2] = side        # DATA: payload, local side again
        out_size[rendezvous_pos] = _RENDEZVOUS_CTRL_BYTES
        out_size[rendezvous_pos + 1] = _RENDEZVOUS_CTRL_BYTES
        out_size[rendezvous_pos + 2] = sizes[expand]
        rendezvous_peer = peers[expand]
        out_peer[rendezvous_pos] = rendezvous_peer
        out_peer[rendezvous_pos + 1] = rendezvous_peer
        out_peer[rendezvous_pos + 2] = rendezvous_peer
        base_tag = coll.RENDEZVOUS_TAG_BASE + 4 * tags[expand]
        out_tag[rendezvous_pos] = base_tag + _RTS_TAG
        out_tag[rendezvous_pos + 1] = base_tag + _CTS_TAG
        out_tag[rendezvous_pos + 2] = base_tag + _DATA_TAG

    advancing = np.zeros(total, dtype=bool)
    advancing[offsets[_START_ADVANCES[modes]]] = True
    blocking_rendezvous_pos = offsets[modes == _RDV_BLOCK]
    advancing[blocking_rendezvous_pos + 1] = True
    advancing[blocking_rendezvous_pos + 2] = True
    internal = np.zeros(total, dtype=bool)
    internal[rendezvous_pos + 1] = True
    internal[rendezvous_pos + 2] = True

    # segmented running max of advancing vertex ids, seeded per rank block
    # with the incoming frontier: encode (block, local advancing offset + 1)
    # into one monotone key so a single maximum.accumulate never leaks a
    # previous block's vertices into the next block.
    out_block = np.repeat(row_block, counts)
    out_counts = np.bincount(out_block, minlength=len(block_rank_arr))
    block_starts = np.concatenate([[0], np.cumsum(out_counts)[:-1]])
    vids = base + np.arange(total, dtype=np.int64)
    local = np.arange(total, dtype=np.int64) - block_starts[out_block]
    stride = total + 2
    encoded = out_block * stride + np.where(advancing, local + 1, 0)
    accumulated = np.maximum.accumulate(encoded)
    accumulated_before = np.empty(total, dtype=np.int64)
    accumulated_before[0] = -1
    accumulated_before[1:] = accumulated[:-1]
    block_base_key = out_block * stride
    has_advanced = accumulated_before >= block_base_key + 1
    seeds = frontier[block_rank_arr]
    previous = np.where(
        has_advanced,
        base + block_starts[out_block] + (accumulated_before - block_base_key - 1),
        seeds[out_block],
    )
    dependency_src = np.where(internal, vids - 1, previous)
    edge_mask = dependency_src >= 0
    edge_src = dependency_src[edge_mask]
    edge_dst = vids[edge_mask]

    first, last = np.searchsorted(staged.join_row, (lo, hi))
    if last > first:
        join_pos = offsets[staged.join_row[first:last] - lo]
        target = staged.row_vid[staged.join_target[first:last]]
        extra = target != previous[join_pos]
        insert_at = np.cumsum(edge_mask)[join_pos[extra]]
        edge_src = np.insert(edge_src, insert_at, target[extra])
        edge_dst = np.insert(edge_dst, insert_at, base + join_pos[extra])

    out_rank = block_rank_arr[out_block]
    builder.add_vertices(
        out_kind, out_rank, cost=out_cost, size=out_size, peer=out_peer, tag=out_tag
    )
    builder.add_dependencies(edge_src, edge_dst)
    for vid in (base + offsets[modes == _JOIN]).tolist():
        builder.set_label(vid, "wait")

    # update the frontier to each block's last advancing vertex
    block_tail = block_starts + out_counts - 1
    tail_key = accumulated[block_tail]
    block_ids = np.arange(len(block_rank_arr), dtype=np.int64)
    block_has_advanced = tail_key >= block_ids * stride + 1
    last_vid = base + block_starts + (tail_key - block_ids * stride - 1)
    frontier[block_rank_arr] = np.where(
        block_has_advanced, last_vid, frontier[block_rank_arr]
    )


# ---------------------------------------------------------------------------
# vectorised send/recv matching
# ---------------------------------------------------------------------------

def match_messages(builder: GraphBuilder) -> None:
    """Pair SEND and RECV vertices and append the COMM edges, vectorised.

    Matching follows MPI's non-overtaking rule — the *n*-th send from ``s``
    to ``d`` with tag ``t`` matches the *n*-th receive posted on ``d`` from
    ``s`` with tag ``t`` — implemented as two stable lexicographic sorts by
    ``(src, dst, tag, vertex id)``: within each key group the vertices stay
    in posting (vid) order, so zipping the two sorted sequences yields the
    FIFO pairing.  Edges are appended sorted by ``max(send, recv)``, which
    is exactly the order in which the legacy single-scan matcher discovers
    the pairs (an edge materialises when the *later* endpoint is scanned).
    """
    from .builder import UnmatchedMessageError, _summarise_unmatched

    kind = builder.kind_column()
    rank = builder.rank_column().astype(np.int64, copy=False)
    peer = builder.peer_column().astype(np.int64, copy=False)
    tag = builder.tag_column()

    send_vid = np.flatnonzero(kind == _V_SEND)
    recv_vid = np.flatnonzero(kind == _V_RECV)
    send_src, send_dst, send_tag = rank[send_vid], peer[send_vid], tag[send_vid]
    recv_src, recv_dst, recv_tag = peer[recv_vid], rank[recv_vid], tag[recv_vid]

    send_order = np.lexsort((send_vid, send_tag, send_dst, send_src))
    recv_order = np.lexsort((recv_vid, recv_tag, recv_dst, recv_src))
    matched = len(send_vid) == len(recv_vid)
    if matched:
        matched = bool(
            np.array_equal(send_src[send_order], recv_src[recv_order])
            and np.array_equal(send_dst[send_order], recv_dst[recv_order])
            and np.array_equal(send_tag[send_order], recv_tag[recv_order])
        )
    if not matched:
        from collections import Counter

        send_keys = Counter(zip(send_src.tolist(), send_dst.tolist(), send_tag.tolist()))
        recv_keys = Counter(zip(recv_src.tolist(), recv_dst.tolist(), recv_tag.tolist()))
        unmatched_sends = {
            key: count - recv_keys.get(key, 0)
            for key, count in send_keys.items()
            if count > recv_keys.get(key, 0)
        }
        unmatched_recvs = {
            key: count - send_keys.get(key, 0)
            for key, count in recv_keys.items()
            if count > send_keys.get(key, 0)
        }
        raise UnmatchedMessageError(
            "unmatched point-to-point messages: "
            f"sends={_summarise_unmatched(unmatched_sends)} "
            f"recvs={_summarise_unmatched(unmatched_recvs)}"
        )

    sends = send_vid[send_order]
    recvs = recv_vid[recv_order]
    discovery = np.argsort(np.maximum(sends, recvs))
    builder.add_comm_edges(sends[discovery], recvs[discovery])
