"""Rank programs: the un-timestamped operation scripts of an MPI application.

The paper's pipeline is ``application --liballprof--> trace --Schedgen-->
execution graph``.  In this reproduction the applications are *skeletons*
written against a virtual MPI API (:mod:`repro.mpi.api`), and what they
produce is a :class:`Program`: for every rank, an ordered list of operations
with *explicit* computation intervals (since the skeleton knows how long it
computes, there is no need to infer it from timestamp gaps).

A :class:`RankProgram` stores its operations as rows, not objects:

* its rows live in one flat ``list[int]``, nine ints per op in the order
  ``(code, peer, size, tag, root, request, recv_peer, recv_size,
  recv_tag)``, where ``code`` is the op's :data:`OP_CODE` and the other
  fields default as in :class:`ProgramOp`;
* ``costs[i]`` is the compute cost of op ``i``, in microseconds (one cost
  per op, so ``len(costs)`` is the op count);
* ``requests[i]`` holds the handles of an ``MPI_Waitall`` at op ``i``.

The recorder (:class:`~repro.mpi.api.VirtualComm`) checks every argument as
it is recorded and appends rows through :meth:`RankProgram.record` (one op)
and :meth:`RankProgram.record_exchange` (a whole halo exchange in one
``extend``).  :meth:`RankProgram.columns` turns the flat rows into the NumPy
columns of a :class:`RankOpBatch` with one ``np.fromiter`` and a reshape, so
no :class:`ProgramOp` and no per-op tuple is built on the way from
:func:`~repro.mpi.api.run_program` to the graph builder.
:meth:`Program.validate` walks the rows of programs that did not come
through the recorder (hand-built ones, :meth:`Program.from_trace`).  This
module is the only one that knows the row layout; :attr:`RankProgram.rows`
is a read-only list of per-op int tuples built from it.

:class:`ProgramOp` stays the public per-op type.  Hand-built programs
:meth:`~RankProgram.append` one (it is stored as its row), and
:attr:`RankProgram.ops` is a read-only tuple of them built lazily from the
rows.  The per-op readers use that view: the trace replay
(:func:`repro.mpi.tracer.trace_program`), the legacy op-by-op graph builder
(``ScheduleGenerator(builder_engine="legacy")``) and :meth:`Program.summary`.

Two conversions close the loop with the paper's artifacts:

* :func:`repro.mpi.tracer.trace_program` turns a :class:`Program` into a
  timestamped :class:`repro.trace.Trace` (liballprof-style) by replaying it
  through the LogGOPS simulator at trace-time network parameters;
* :func:`Program.from_trace` reconstructs a :class:`Program` from such a
  trace by inferring computation from the gaps between consecutive MPI calls
  (exactly what Schedgen does, Section II-A / Fig. 3).
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..trace.records import COLLECTIVE_OPS, MPIOp, Trace

__all__ = [
    "OpKind",
    "OP_KINDS",
    "OP_CODE",
    "ProgramOp",
    "RankOpBatch",
    "RankProgram",
    "Program",
    "COLLECTIVE_KINDS",
    "MPI_TO_KIND",
    "KIND_TO_MPI",
]


class OpKind(str, enum.Enum):
    """Operations that can appear in a rank program."""

    COMPUTE = "compute"
    SEND = "send"
    RECV = "recv"
    ISEND = "isend"
    IRECV = "irecv"
    WAIT = "wait"
    WAITALL = "waitall"
    SENDRECV = "sendrecv"
    BARRIER = "barrier"
    BCAST = "bcast"
    REDUCE = "reduce"
    ALLREDUCE = "allreduce"
    GATHER = "gather"
    SCATTER = "scatter"
    ALLGATHER = "allgather"
    ALLTOALL = "alltoall"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: stable integer codes for :class:`OpKind`: the ``code`` of a program row
#: and the ``kind`` column of a :class:`RankOpBatch`
OP_KINDS: tuple[OpKind, ...] = tuple(OpKind)
OP_CODE: dict[OpKind, int] = {kind: index for index, kind in enumerate(OP_KINDS)}

#: collective operation kinds (must appear in the same order on every rank)
COLLECTIVE_KINDS = frozenset(
    {
        OpKind.BARRIER,
        OpKind.BCAST,
        OpKind.REDUCE,
        OpKind.ALLREDUCE,
        OpKind.GATHER,
        OpKind.SCATTER,
        OpKind.ALLGATHER,
        OpKind.ALLTOALL,
    }
)

_P2P_KINDS = frozenset(
    {OpKind.SEND, OpKind.RECV, OpKind.ISEND, OpKind.IRECV, OpKind.SENDRECV}
)
_P2P_CODES = frozenset(OP_CODE[kind] for kind in _P2P_KINDS)
_COLLECTIVE_CODES = frozenset(OP_CODE[kind] for kind in COLLECTIVE_KINDS)
_C_COMPUTE = OP_CODE[OpKind.COMPUTE]
_C_ISEND = OP_CODE[OpKind.ISEND]
_C_IRECV = OP_CODE[OpKind.IRECV]
_C_WAIT = OP_CODE[OpKind.WAIT]
_C_WAITALL = OP_CODE[OpKind.WAITALL]
_C_SENDRECV = OP_CODE[OpKind.SENDRECV]

#: :class:`ProgramOp` fields that hold integers (the row fields after ``code``)
_INT_FIELDS = ("peer", "size", "tag", "root", "request", "recv_peer", "recv_size", "recv_tag")
#: ints per op in :class:`RankProgram`'s flat row store
_WIDTH = 1 + len(_INT_FIELDS)

#: traced MPI call → program operation kind (shared with the columnar trace
#: ingestion of :mod:`repro.schedgen.columnar`)
MPI_TO_KIND: dict[MPIOp, OpKind] = {
    MPIOp.SEND: OpKind.SEND,
    MPIOp.RECV: OpKind.RECV,
    MPIOp.ISEND: OpKind.ISEND,
    MPIOp.IRECV: OpKind.IRECV,
    MPIOp.WAIT: OpKind.WAIT,
    MPIOp.WAITALL: OpKind.WAITALL,
    MPIOp.SENDRECV: OpKind.SENDRECV,
    MPIOp.BARRIER: OpKind.BARRIER,
    MPIOp.BCAST: OpKind.BCAST,
    MPIOp.REDUCE: OpKind.REDUCE,
    MPIOp.ALLREDUCE: OpKind.ALLREDUCE,
    MPIOp.GATHER: OpKind.GATHER,
    MPIOp.SCATTER: OpKind.SCATTER,
    MPIOp.ALLGATHER: OpKind.ALLGATHER,
    MPIOp.ALLTOALL: OpKind.ALLTOALL,
}

KIND_TO_MPI: dict[OpKind, MPIOp] = {v: k for k, v in MPI_TO_KIND.items()}


def _as_int(name: str, value) -> int:
    """``value`` as an ``int``; anything :func:`operator.index` accepts is one."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class ProgramOp:
    """One operation in a rank program.

    ``cost`` is only meaningful for :attr:`OpKind.COMPUTE`; ``peer``/``size``/
    ``tag`` for point-to-point operations; ``root``/``size``/``comm_size``
    for collectives; ``request``/``requests`` for non-blocking completion.
    ``recv_*`` hold the receive half of a ``sendrecv``.
    """

    kind: OpKind
    cost: float = 0.0
    peer: int = -1
    size: int = 0
    tag: int = 0
    root: int = 0
    request: int = -1
    requests: tuple[int, ...] = ()
    recv_peer: int = -1
    recv_size: int = 0
    recv_tag: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.cost < math.inf:
            raise ValueError(
                f"{self.kind}: compute cost must be finite and non-negative, got {self.cost}"
            )
        for name in _INT_FIELDS:
            _as_int(name, getattr(self, name))
        if self.size < 0 or self.recv_size < 0:
            raise ValueError(f"{self.kind}: negative message size")
        if self.kind in _P2P_KINDS and self.peer < 0:
            raise ValueError(f"{self.kind}: point-to-point operation requires a peer")
        if self.kind is OpKind.WAIT and self.request < 0:
            raise ValueError("wait requires a request handle")

    @property
    def is_collective(self) -> bool:
        return self.kind in COLLECTIVE_KINDS

    @property
    def is_p2p(self) -> bool:
        return self.kind in _P2P_KINDS


@dataclass
class RankOpBatch:
    """One rank's operation stream as parallel columns.

    The columnar twin of :class:`RankProgram` (:meth:`RankProgram.columns`):
    ``kind`` holds :data:`OP_CODE` values and the remaining columns mirror the
    :class:`ProgramOp` fields (with the dataclass defaults for fields a given
    op kind does not use).  ``requests`` is a plain list (aligned with the
    columns) because ``MPI_Waitall`` consumes a variable number of handles
    per op.
    """

    kind: np.ndarray
    cost: np.ndarray
    peer: np.ndarray
    size: np.ndarray
    tag: np.ndarray
    root: np.ndarray
    request: np.ndarray
    recv_peer: np.ndarray
    recv_size: np.ndarray
    recv_tag: np.ndarray
    requests: list[tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.kind)


@dataclass
class RankProgram:
    """The ordered operation script of one rank, stored as flat int rows.

    See the module docstring for the layout of the rows, ``costs`` and
    ``requests``.
    """

    rank: int
    costs: list[float] = field(default_factory=list)
    requests: dict[int, tuple[int, ...]] = field(default_factory=dict)
    _flat: list[int] = field(default_factory=list, init=False, repr=False)
    _ops: tuple[ProgramOp, ...] = field(default=(), init=False, repr=False, compare=False)

    def record(
        self,
        code: int,
        peer: int = -1,
        size: int = 0,
        tag: int = 0,
        root: int = 0,
        request: int = -1,
        recv_peer: int = -1,
        recv_size: int = 0,
        recv_tag: int = 0,
        *,
        cost: float = 0.0,
        requests: tuple[int, ...] = (),
    ) -> None:
        """Append one op given by its row fields (unchecked; see :meth:`Program.validate`)."""
        if requests:
            self.requests[len(self.costs)] = requests
        self._flat += (code, peer, size, tag, root, request, recv_peer, recv_size, recv_tag)
        self.costs.append(cost)

    def record_exchange(
        self, peers: list[int], size: int, tag: int, first_request: int, cost: float
    ) -> None:
        """Append one halo exchange with non-empty ``peers`` in one ``extend`` (unchecked).

        The rows are an ``irecv`` from every peer, then an ``isend`` to
        every peer, with the request handles ``first_request, first_request
        + 1, ...`` in that order; a compute row of ``cost`` if it is
        non-zero; and one ``waitall`` of all the handles.
        """
        block: list[int] = []
        handle = first_request
        for code in (_C_IRECV, _C_ISEND):
            for peer in peers:
                block += (code, peer, size, tag, 0, handle, -1, 0, 0)
                handle += 1
        costs = [0.0] * (handle - first_request)
        if cost:
            block += (_C_COMPUTE, -1, 0, 0, 0, -1, -1, 0, 0)
            costs.append(cost)
        block += (_C_WAITALL, -1, 0, 0, 0, -1, -1, 0, 0)
        costs.append(0.0)
        self.requests[len(self.costs) + len(costs) - 1] = tuple(range(first_request, handle))
        self._flat += block
        self.costs += costs

    def append(self, op: ProgramOp) -> None:
        """Append a hand-built :class:`ProgramOp`, stored as its row."""
        self.record(
            OP_CODE[op.kind], op.peer, op.size, op.tag, op.root, op.request,
            op.recv_peer, op.recv_size, op.recv_tag,
            cost=op.cost, requests=tuple(op.requests),
        )

    @property
    def rows(self) -> list[tuple[int, ...]]:
        """Read-only view of the ops as int tuples in the row layout (a new list)."""
        return list(zip(*[iter(self._flat)] * _WIDTH))

    @property
    def ops(self) -> tuple[ProgramOp, ...]:
        """Read-only :class:`ProgramOp` view of the rows.

        Built on first access and cached until the next append (the trace
        replay indexes it once per op).
        """
        built = len(self._ops)
        if built != len(self.costs):
            self._ops += tuple(self._op(index) for index in range(built, len(self.costs)))
        return self._ops

    def _op(self, index: int) -> ProgramOp:
        start = index * _WIDTH
        code, peer, size, tag, root, request, recv_peer, recv_size, recv_tag = (
            self._flat[start:start + _WIDTH]
        )
        return ProgramOp(
            kind=OP_KINDS[code], cost=self.costs[index], peer=peer, size=size,
            tag=tag, root=root, request=request, requests=self.requests.get(index, ()),
            recv_peer=recv_peer, recv_size=recv_size, recv_tag=recv_tag,
        )

    def columns(self) -> RankOpBatch:
        """The rows as the NumPy columns of a :class:`RankOpBatch`."""
        count = len(self.costs)
        table = np.fromiter(self._flat, dtype=np.int64, count=count * _WIDTH)
        kind, peer, size, tag, root, request, recv_peer, recv_size, recv_tag = (
            table.reshape(count, _WIDTH).T.copy()
        )
        requests: list[tuple[int, ...]] = [()] * count
        for index, handles in self.requests.items():
            requests[index] = handles
        return RankOpBatch(
            kind=kind.astype(np.int16), cost=np.array(self.costs, dtype=np.float64),
            peer=peer, size=size, tag=tag, root=root, request=request,
            recv_peer=recv_peer, recv_size=recv_size, recv_tag=recv_tag,
            requests=requests,
        )

    def __len__(self) -> int:
        return len(self.costs)

    def __iter__(self) -> Iterator[ProgramOp]:
        return iter(self.ops)

    def __getitem__(self, idx: int) -> ProgramOp:
        return self.ops[idx]

    @property
    def total_compute(self) -> float:
        """Sum of explicit compute costs, in microseconds."""
        codes = self._flat[::_WIDTH]
        return sum(cost for code, cost in zip(codes, self.costs) if code == _C_COMPUTE)

    def collective_signature(self) -> list[OpKind]:
        """Kinds of the collectives in program order (for cross-rank checks)."""
        return [OP_KINDS[code] for code in self._flat[::_WIDTH] if code in _COLLECTIVE_CODES]

    def validate(self, nranks: int) -> None:
        """Check this rank's rows in a communicator of ``nranks`` ranks.

        Sizes must be non-negative and peers and roots in range; every
        non-blocking request must be posted with a handle, completed exactly
        once and not reused while outstanding.
        """
        rank = self.rank
        pending: set[int] = set()
        for index, row in enumerate(self.rows):
            code, peer, size, _, root, request, recv_peer, recv_size, _ = row
            if size < 0 or recv_size < 0:
                raise ValueError(f"rank {rank}: {OP_KINDS[code]}: negative message size")
            if not 0 <= root < nranks:
                raise ValueError(f"rank {rank}: root {root} out of range")
            if code in _P2P_CODES:
                if not 0 <= peer < nranks:
                    raise ValueError(f"rank {rank}: peer {peer} out of range")
                if code == _C_SENDRECV and not 0 <= recv_peer < nranks:
                    raise ValueError(f"rank {rank}: peer {recv_peer} out of range")
                if code == _C_ISEND or code == _C_IRECV:
                    if request < 0:
                        raise ValueError(f"rank {rank}: {OP_KINDS[code]} without request")
                    if request in pending:
                        raise ValueError(
                            f"rank {rank}: request {request} reused before completion"
                        )
                    pending.add(request)
            elif code == _C_WAIT:
                if request not in pending:
                    raise ValueError(f"rank {rank}: wait on unknown request {request}")
                pending.discard(request)
            elif code == _C_WAITALL:
                for handle in self.requests.get(index, ()):
                    if handle not in pending:
                        raise ValueError(f"rank {rank}: waitall on unknown request {handle}")
                    pending.discard(handle)
        if pending:
            raise ValueError(f"rank {rank}: requests never completed: {sorted(pending)}")


@dataclass
class Program:
    """A complete application: one :class:`RankProgram` per rank."""

    ranks: list[RankProgram] = field(default_factory=list)
    meta: dict[str, str] = field(default_factory=dict)

    @classmethod
    def empty(cls, nranks: int, **meta: str) -> "Program":
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        return cls(ranks=[RankProgram(rank=r) for r in range(nranks)], meta=dict(meta))

    @property
    def nranks(self) -> int:
        return len(self.ranks)

    @property
    def num_ops(self) -> int:
        return sum(len(r) for r in self.ranks)

    def rank(self, rank: int) -> RankProgram:
        if not 0 <= rank < self.nranks:
            raise IndexError(f"rank {rank} out of range [0, {self.nranks})")
        return self.ranks[rank]

    def __iter__(self) -> Iterator[RankProgram]:
        return iter(self.ranks)

    def validate(self, *, rows: bool = True) -> None:
        """Check the cross-rank order of collectives and every rank's rows.

        ``rows=False`` checks the order only: :func:`~repro.mpi.api.run_program`
        passes it, because its recorder checked every row as it recorded it.
        """
        signature = self.ranks[0].collective_signature() if self.ranks else []
        for rp in self.ranks:
            if rp.collective_signature() != signature:
                raise ValueError(
                    f"rank {rp.rank}: collective call sequence differs from rank 0"
                )
            if rows:
                rp.validate(self.nranks)

    # -- conversions ----------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: Trace, *, min_compute: float = 0.0) -> "Program":
        """Reconstruct a program from a timestamped trace.

        The computation between two consecutive MPI calls on a rank is the gap
        between the end of the first and the start of the second, exactly as
        Schedgen infers it (Fig. 3 of the paper).  Gaps below ``min_compute``
        microseconds are dropped.
        """
        program = cls.empty(trace.nranks, **trace.meta)
        for rank_trace in trace:
            rp = program.rank(rank_trace.rank)
            prev_end: float | None = None
            for rec in rank_trace:
                if rec.op is MPIOp.INIT or rec.is_noop:
                    prev_end = rec.tend
                    continue
                if prev_end is not None:
                    gap = rec.tstart - prev_end
                    if gap > min_compute:
                        rp.append(ProgramOp(kind=OpKind.COMPUTE, cost=gap))
                if rec.op is MPIOp.FINALIZE:
                    # computation between the last MPI call and MPI_Finalize has
                    # been accounted for above; the call itself adds no vertex
                    prev_end = rec.tend
                    continue
                kind = MPI_TO_KIND.get(rec.op)
                if kind is None:
                    raise ValueError(f"cannot convert trace record {rec.op} to a program op")
                is_coll = rec.op in COLLECTIVE_OPS
                rp.append(
                    ProgramOp(
                        kind=kind,
                        peer=-1 if is_coll else rec.peer,
                        size=rec.size,
                        tag=rec.tag,
                        root=max(rec.peer, 0) if is_coll else 0,
                        request=rec.request,
                        requests=rec.requests,
                        recv_peer=rec.recv_peer,
                        recv_size=rec.recv_size,
                        recv_tag=rec.recv_tag,
                    )
                )
                prev_end = rec.tend
        program.validate()
        return program

    def summary(self) -> dict[str, float]:
        """Aggregate statistics (op counts, total compute, bytes sent)."""
        counts: dict[str, int] = {}
        total_compute = 0.0
        bytes_sent = 0
        for rp in self.ranks:
            for op in rp:
                counts[op.kind.value] = counts.get(op.kind.value, 0) + 1
                if op.kind is OpKind.COMPUTE:
                    total_compute += op.cost
                if op.kind in (OpKind.SEND, OpKind.ISEND, OpKind.SENDRECV):
                    bytes_sent += op.size
        return {
            "nranks": self.nranks,
            "num_ops": self.num_ops,
            "total_compute_us": total_compute,
            "bytes_sent": bytes_sent,
            **{f"count[{k}]": v for k, v in sorted(counts.items())},
        }
