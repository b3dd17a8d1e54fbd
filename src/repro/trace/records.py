"""Trace records in the style of ``liballprof``.

The LLAMP toolchain starts from per-rank MPI traces: a sequence of MPI calls
with start and end timestamps plus the call arguments that matter for
scheduling (peer, message size, tag, communicator size, request handles).
Computation is *not* recorded; the schedule generator infers it from the gap
between the end of one MPI call and the start of the next (Section II-A,
Fig. 3).

This module defines the in-memory representation.  :mod:`repro.trace.format`
provides the ``liballprof``-like text serialisation, and
:mod:`repro.mpi.tracer` produces these records from virtual MPI programs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "MPIOp",
    "MPI_OP_CODE",
    "TraceRecord",
    "TraceColumns",
    "RankTrace",
    "Trace",
    "P2P_OPS",
    "COLLECTIVE_OPS",
    "NONBLOCKING_OPS",
    "check_peer_range",
]


class MPIOp(str, enum.Enum):
    """MPI operations understood by the toolchain."""

    INIT = "MPI_Init"
    FINALIZE = "MPI_Finalize"
    SEND = "MPI_Send"
    RECV = "MPI_Recv"
    ISEND = "MPI_Isend"
    IRECV = "MPI_Irecv"
    WAIT = "MPI_Wait"
    WAITALL = "MPI_Waitall"
    SENDRECV = "MPI_Sendrecv"
    BARRIER = "MPI_Barrier"
    BCAST = "MPI_Bcast"
    REDUCE = "MPI_Reduce"
    ALLREDUCE = "MPI_Allreduce"
    GATHER = "MPI_Gather"
    SCATTER = "MPI_Scatter"
    ALLGATHER = "MPI_Allgather"
    ALLTOALL = "MPI_Alltoall"
    COMM_SIZE = "MPI_Comm_size"
    COMM_RANK = "MPI_Comm_rank"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: point-to-point operations
P2P_OPS = frozenset(
    {MPIOp.SEND, MPIOp.RECV, MPIOp.ISEND, MPIOp.IRECV, MPIOp.SENDRECV}
)

#: collective operations (expanded to point-to-point algorithms by schedgen)
COLLECTIVE_OPS = frozenset(
    {
        MPIOp.BARRIER,
        MPIOp.BCAST,
        MPIOp.REDUCE,
        MPIOp.ALLREDUCE,
        MPIOp.GATHER,
        MPIOp.SCATTER,
        MPIOp.ALLGATHER,
        MPIOp.ALLTOALL,
    }
)

#: non-blocking operations that create a request
NONBLOCKING_OPS = frozenset({MPIOp.ISEND, MPIOp.IRECV})

#: operations that neither move data nor synchronise (zero-cost bookkeeping)
_NOOP_OPS = frozenset({MPIOp.COMM_SIZE, MPIOp.COMM_RANK})

#: stable integer code of every MPI operation (array representation used by
#: :meth:`RankTrace.columns` and the columnar schedule generator)
MPI_OP_CODE: dict[MPIOp, int] = {op: index for index, op in enumerate(MPIOp)}


@dataclass(frozen=True)
class TraceRecord:
    """One traced MPI call on one rank.

    Attributes
    ----------
    op:
        The MPI operation.
    tstart, tend:
        Start / end timestamps in microseconds since ``MPI_Init`` returned
        on rank 0.  ``tend >= tstart``.
    peer:
        Peer rank for point-to-point operations; root rank for rooted
        collectives; ``-1`` otherwise.
    size:
        Payload size in bytes (per-peer size for all-to-all style
        collectives).
    tag:
        MPI tag for point-to-point operations, ``0`` otherwise.
    comm_size:
        Communicator size for collective operations; ``0`` otherwise.
    request:
        Request handle produced by a non-blocking call, or consumed by
        ``MPI_Wait``.  ``-1`` when unused.
    requests:
        Request handles consumed by ``MPI_Waitall``.
    recv_peer, recv_size, recv_tag:
        The receive half of ``MPI_Sendrecv``.
    """

    op: MPIOp
    tstart: float
    tend: float
    peer: int = -1
    size: int = 0
    tag: int = 0
    comm_size: int = 0
    request: int = -1
    requests: tuple[int, ...] = ()
    recv_peer: int = -1
    recv_size: int = 0
    recv_tag: int = 0

    def __post_init__(self) -> None:
        if self.tend < self.tstart:
            raise ValueError(
                f"{self.op}: end timestamp {self.tend} precedes start {self.tstart}"
            )
        if self.size < 0 or self.recv_size < 0:
            raise ValueError(f"{self.op}: negative message size")
        if self.op in P2P_OPS and self.peer < 0:
            raise ValueError(f"{self.op}: point-to-point operation requires a peer rank")
        if self.op in COLLECTIVE_OPS and self.comm_size < 2:
            raise ValueError(f"{self.op}: collective requires comm_size >= 2")

    @property
    def duration(self) -> float:
        """Time spent inside the MPI call, in microseconds."""
        return self.tend - self.tstart

    @property
    def is_p2p(self) -> bool:
        return self.op in P2P_OPS

    @property
    def is_collective(self) -> bool:
        return self.op in COLLECTIVE_OPS

    @property
    def is_nonblocking(self) -> bool:
        return self.op in NONBLOCKING_OPS

    @property
    def is_noop(self) -> bool:
        """True for bookkeeping calls that do not appear in execution graphs."""
        return self.op in _NOOP_OPS


@dataclass(frozen=True)
class TraceColumns:
    """One rank's trace as parallel columns (record order preserved).

    ``code`` holds :data:`MPI_OP_CODE` values; the remaining arrays mirror
    the :class:`TraceRecord` fields.  ``requests`` stays a plain list because
    ``MPI_Waitall`` consumes a variable number of handles per record.  This
    is the zero-conversion entry point of the columnar schedule generator
    (:func:`repro.schedgen.columnar.batches_from_trace`): the trace is
    columnarised once and never turned into per-op objects.
    """

    code: np.ndarray
    tstart: np.ndarray
    tend: np.ndarray
    peer: np.ndarray
    size: np.ndarray
    tag: np.ndarray
    comm_size: np.ndarray
    request: np.ndarray
    recv_peer: np.ndarray
    recv_size: np.ndarray
    recv_tag: np.ndarray
    requests: list[tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.code)


@dataclass
class RankTrace:
    """The trace of a single MPI rank: an ordered list of records."""

    rank: int
    records: list[TraceRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be non-negative, got {self.rank}")

    def append(self, record: TraceRecord) -> None:
        """Append a record, enforcing monotonically non-decreasing start times."""
        if self.records and record.tstart < self.records[-1].tend - 1e-9:
            raise ValueError(
                f"rank {self.rank}: record {record.op} starts at {record.tstart} "
                f"before the previous call ended at {self.records[-1].tend}"
            )
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __getitem__(self, idx: int) -> TraceRecord:
        return self.records[idx]

    @property
    def duration(self) -> float:
        """Wall-clock span covered by this rank's trace."""
        if not self.records:
            return 0.0
        return self.records[-1].tend - self.records[0].tstart

    def columns(self) -> TraceColumns:
        """Columnarise this rank's records into a :class:`TraceColumns`.

        One pass over the record objects; everything downstream (compute-gap
        inference, op mapping, segment splitting) then runs as array
        arithmetic.
        """
        n = len(self.records)
        code = np.empty(n, dtype=np.int16)
        tstart = np.empty(n, dtype=np.float64)
        tend = np.empty(n, dtype=np.float64)
        peer = np.empty(n, dtype=np.int64)
        size = np.empty(n, dtype=np.int64)
        tag = np.empty(n, dtype=np.int64)
        comm_size = np.empty(n, dtype=np.int64)
        request = np.empty(n, dtype=np.int64)
        recv_peer = np.empty(n, dtype=np.int64)
        recv_size = np.empty(n, dtype=np.int64)
        recv_tag = np.empty(n, dtype=np.int64)
        requests: list[tuple[int, ...]] = []
        op_code = MPI_OP_CODE
        for index, record in enumerate(self.records):
            code[index] = op_code[record.op]
            tstart[index] = record.tstart
            tend[index] = record.tend
            peer[index] = record.peer
            size[index] = record.size
            tag[index] = record.tag
            comm_size[index] = record.comm_size
            request[index] = record.request
            recv_peer[index] = record.recv_peer
            recv_size[index] = record.recv_size
            recv_tag[index] = record.recv_tag
            requests.append(record.requests)
        return TraceColumns(
            code=code, tstart=tstart, tend=tend, peer=peer, size=size, tag=tag,
            comm_size=comm_size, request=request, recv_peer=recv_peer,
            recv_size=recv_size, recv_tag=recv_tag, requests=requests,
        )


def check_peer_range(rank: int, op: MPIOp, peer: int, recv_peer: int, nranks: int) -> None:
    """Raise if a record of ``rank`` names a peer outside ``[0, nranks)``.

    The peer check of :meth:`Trace.validate`, shared by every trace reader
    so that each reports an out-of-range peer in the same words.
    """
    if op in P2P_OPS and not 0 <= peer < nranks:
        raise ValueError(f"rank {rank}: {op} peer {peer} out of range")
    if op is MPIOp.SENDRECV and not 0 <= recv_peer < nranks:
        raise ValueError(f"rank {rank}: MPI_Sendrecv recv peer {recv_peer} out of range")


@dataclass
class Trace:
    """A complete application trace: one :class:`RankTrace` per rank."""

    ranks: list[RankTrace] = field(default_factory=list)
    meta: dict[str, str] = field(default_factory=dict)

    @classmethod
    def empty(cls, nranks: int, **meta: str) -> "Trace":
        """Create a trace with ``nranks`` empty per-rank traces."""
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        return cls(ranks=[RankTrace(rank=r) for r in range(nranks)], meta=dict(meta))

    @property
    def nranks(self) -> int:
        return len(self.ranks)

    @property
    def num_records(self) -> int:
        return sum(len(r) for r in self.ranks)

    def rank(self, rank: int) -> RankTrace:
        """Return the trace of a single rank."""
        if not 0 <= rank < self.nranks:
            raise IndexError(f"rank {rank} out of range [0, {self.nranks})")
        return self.ranks[rank]

    def add_record(self, rank: int, record: TraceRecord) -> None:
        """Append ``record`` to the trace of ``rank``."""
        self.rank(rank).append(record)

    def __iter__(self) -> Iterator[RankTrace]:
        return iter(self.ranks)

    def validate(self) -> None:
        """Run structural sanity checks on the whole trace.

        Checks that rank indices are consecutive, peers are within range, and
        every non-blocking request is eventually waited on exactly once.
        """
        for expected, rank_trace in enumerate(self.ranks):
            if rank_trace.rank != expected:
                raise ValueError(
                    f"rank traces must be ordered by rank; found rank "
                    f"{rank_trace.rank} at position {expected}"
                )
            pending: set[int] = set()
            for rec in rank_trace:
                check_peer_range(expected, rec.op, rec.peer, rec.recv_peer, self.nranks)
                if rec.is_nonblocking:
                    if rec.request < 0:
                        raise ValueError(
                            f"rank {expected}: {rec.op} without a request handle"
                        )
                    if rec.request in pending:
                        raise ValueError(
                            f"rank {expected}: request {rec.request} reused before wait"
                        )
                    pending.add(rec.request)
                elif rec.op is MPIOp.WAIT:
                    if rec.request not in pending:
                        raise ValueError(
                            f"rank {expected}: MPI_Wait on unknown request {rec.request}"
                        )
                    pending.discard(rec.request)
                elif rec.op is MPIOp.WAITALL:
                    for req in rec.requests:
                        if req not in pending:
                            raise ValueError(
                                f"rank {expected}: MPI_Waitall on unknown request {req}"
                            )
                        pending.discard(req)
            if pending:
                raise ValueError(
                    f"rank {expected}: requests never completed: {sorted(pending)}"
                )

    def summary(self) -> dict[str, float]:
        """Aggregate statistics used in reports and tests."""
        ops: dict[str, int] = {}
        bytes_sent = 0
        for rank_trace in self.ranks:
            for rec in rank_trace:
                ops[rec.op.value] = ops.get(rec.op.value, 0) + 1
                if rec.op in (MPIOp.SEND, MPIOp.ISEND, MPIOp.SENDRECV):
                    bytes_sent += rec.size
        return {
            "nranks": self.nranks,
            "num_records": self.num_records,
            "bytes_sent": bytes_sent,
            **{f"count[{k}]": v for k, v in sorted(ops.items())},
        }
