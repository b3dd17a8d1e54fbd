"""Virtual MPI programming interface.

Application skeletons in :mod:`repro.apps` are written against this API,
which mirrors the subset of MPI that liballprof traces.  The API does not
move any data — it *records* the communication/computation structure of the
application into a :class:`repro.mpi.program.Program`, which Schedgen then
turns into an execution graph.

Example
-------
A two-rank ping-pong::

    from repro.mpi import run_program

    def pingpong(comm):
        for _ in range(10):
            comm.compute(5.0)                 # 5 microseconds of work
            if comm.rank == 0:
                comm.send(1, size=8, tag=0)
                comm.recv(1, size=8, tag=1)
            else:
                comm.recv(0, size=8, tag=0)
                comm.send(0, size=8, tag=1)

    program = run_program(pingpong, nranks=2)

Because ranks are executed one after another (rank functions must not depend
on message *contents*), the runtime is deterministic and needs no actual
message passing.  This is the reproduction's key substitution: the paper
traces real MPI applications, we trace skeletons with explicit compute.

Every call checks its arguments as it records them (peers and roots in
range, integer sizes and tags, non-negative sizes, finite compute, request
handles outstanding), so :func:`run_program` does not walk the recorded rows
a second time: it checks only what no single call can see, the order of the
collectives across ranks.  :meth:`VirtualComm.halo_exchange` records a whole
non-blocking neighbour exchange as one block: the same rows, costs and
request handles as the per-call ``irecv``/``isend``/``compute``/``waitall``
sequence, with the arguments checked once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .program import OP_CODE, OP_KINDS, OpKind, Program, RankProgram, _as_int

__all__ = ["Request", "VirtualComm", "run_program"]

_COMPUTE, _SEND, _RECV, _ISEND, _IRECV, _WAIT, _WAITALL, _SENDRECV = (
    OP_CODE[kind] for kind in (
        OpKind.COMPUTE, OpKind.SEND, OpKind.RECV, OpKind.ISEND, OpKind.IRECV,
        OpKind.WAIT, OpKind.WAITALL, OpKind.SENDRECV,
    )
)
_BARRIER, _BCAST, _REDUCE, _ALLREDUCE, _GATHER, _SCATTER, _ALLGATHER, _ALLTOALL = (
    OP_CODE[kind] for kind in (
        OpKind.BARRIER, OpKind.BCAST, OpKind.REDUCE, OpKind.ALLREDUCE,
        OpKind.GATHER, OpKind.SCATTER, OpKind.ALLGATHER, OpKind.ALLTOALL,
    )
)


@dataclass(frozen=True)
class Request:
    """Handle returned by non-blocking operations."""

    handle: int
    kind: OpKind

    def __int__(self) -> int:  # pragma: no cover - trivial
        return self.handle


class VirtualComm:
    """Recorder for one rank of a virtual MPI program.

    All sizes are in bytes and all compute durations in microseconds.  Each
    call appends one row to the rank's :class:`RankProgram`
    (:meth:`halo_exchange` a block of them); peers, sizes, tags and roots
    must be integers (anything :func:`operator.index` accepts), sizes
    non-negative and compute durations finite.
    """

    def __init__(self, rank: int, size: int, rank_program: RankProgram) -> None:
        if not 0 <= rank < size:
            raise ValueError(f"rank {rank} out of range [0, {size})")
        self._rank = rank
        self._size = size
        self._record = rank_program.record
        self._record_exchange = rank_program.record_exchange
        self._next_request = 0
        self._pending: set[int] = set()

    # -- introspection -------------------------------------------------------

    @property
    def rank(self) -> int:
        """This process's rank (``MPI_Comm_rank``)."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks in the communicator (``MPI_Comm_size``)."""
        return self._size

    # -- computation ---------------------------------------------------------

    def compute(self, duration_us: float) -> None:
        """Record ``duration_us`` microseconds of local computation."""
        cost = self._duration_arg(duration_us)
        if cost:
            self._record(_COMPUTE, cost=cost)

    # -- blocking point-to-point ----------------------------------------------

    def send(self, dest: int, size: int, tag: int = 0) -> None:
        """Blocking standard send (``MPI_Send``)."""
        self._record(_SEND, self._rank_arg("peer", dest), self._size_arg(_SEND, "size", size),
                     _as_int("tag", tag))

    def recv(self, source: int, size: int, tag: int = 0) -> None:
        """Blocking receive (``MPI_Recv``)."""
        self._record(_RECV, self._rank_arg("peer", source), self._size_arg(_RECV, "size", size),
                     _as_int("tag", tag))

    def sendrecv(
        self,
        dest: int,
        send_size: int,
        source: int,
        recv_size: int,
        *,
        send_tag: int = 0,
        recv_tag: int = 0,
    ) -> None:
        """Combined send/receive (``MPI_Sendrecv``)."""
        self._record(
            _SENDRECV,
            peer=self._rank_arg("peer", dest),
            size=self._size_arg(_SENDRECV, "send_size", send_size),
            tag=_as_int("send_tag", send_tag),
            recv_peer=self._rank_arg("peer", source),
            recv_size=self._size_arg(_SENDRECV, "recv_size", recv_size),
            recv_tag=_as_int("recv_tag", recv_tag),
        )

    # -- non-blocking point-to-point -------------------------------------------

    def isend(self, dest: int, size: int, tag: int = 0) -> Request:
        """Non-blocking send (``MPI_Isend``); complete it with :meth:`wait`."""
        return self._post(_ISEND, dest, size, tag)

    def irecv(self, source: int, size: int, tag: int = 0) -> Request:
        """Non-blocking receive (``MPI_Irecv``); complete it with :meth:`wait`."""
        return self._post(_IRECV, source, size, tag)

    def wait(self, request: Request) -> None:
        """Wait for a single outstanding request (``MPI_Wait``)."""
        self._complete(request.handle)
        self._record(_WAIT, request=request.handle)

    def waitall(self, requests: Sequence[Request]) -> None:
        """Wait for a set of outstanding requests (``MPI_Waitall``)."""
        if not requests:
            return
        handles = tuple(request.handle for request in requests)
        for handle in handles:
            self._complete(handle)
        self._record(_WAITALL, requests=handles)

    def halo_exchange(
        self,
        neighbors: Sequence[int],
        size: int,
        *,
        tag: int,
        overlap_compute: float = 0.0,
    ) -> None:
        """Non-blocking exchange of ``size`` bytes with every neighbour, as one block.

        Records what ``irecv`` from every neighbour, ``isend`` to every
        neighbour, ``compute(overlap_compute)`` and one ``waitall`` of all
        the requests would, with the same rows, costs and request handles,
        and raises what the first failing call would.  A non-positive (or
        NaN) ``overlap_compute`` records no compute, and an exchange with no
        neighbours records only the compute.
        """
        peers = list(neighbors)
        if peers:
            # in the per-call order: the first irecv checks its peer, the
            # size and the tag; the later calls differ only in their peer
            self._rank_arg("peer", peers[0])
            size = self._size_arg(_IRECV, "size", size)
            tag = _as_int("tag", tag)
            peers = [self._rank_arg("peer", peer) for peer in peers]
        cost = self._duration_arg(overlap_compute) if overlap_compute > 0 else 0.0
        if not peers:
            if cost:
                self._record(_COMPUTE, cost=cost)
            return
        first = self._next_request
        self._next_request += 2 * len(peers)
        self._record_exchange(peers, size, tag, first, cost)

    # -- collectives -----------------------------------------------------------

    def barrier(self) -> None:
        """``MPI_Barrier`` over all ranks."""
        self._record(_BARRIER, size=1)

    def bcast(self, size: int, root: int = 0) -> None:
        """``MPI_Bcast`` of ``size`` bytes from ``root``."""
        self._rooted(_BCAST, size, root)

    def reduce(self, size: int, root: int = 0) -> None:
        """``MPI_Reduce`` of ``size`` bytes to ``root``."""
        self._rooted(_REDUCE, size, root)

    def allreduce(self, size: int) -> None:
        """``MPI_Allreduce`` of ``size`` bytes."""
        self._record(_ALLREDUCE, size=self._size_arg(_ALLREDUCE, "size", size))

    def gather(self, size: int, root: int = 0) -> None:
        """``MPI_Gather``: every rank contributes ``size`` bytes to ``root``."""
        self._rooted(_GATHER, size, root)

    def scatter(self, size: int, root: int = 0) -> None:
        """``MPI_Scatter``: ``root`` sends ``size`` bytes to every rank."""
        self._rooted(_SCATTER, size, root)

    def allgather(self, size: int) -> None:
        """``MPI_Allgather``: every rank contributes ``size`` bytes."""
        self._record(_ALLGATHER, size=self._size_arg(_ALLGATHER, "size", size))

    def alltoall(self, size: int) -> None:
        """``MPI_Alltoall`` with a per-peer payload of ``size`` bytes."""
        self._record(_ALLTOALL, size=self._size_arg(_ALLTOALL, "size", size))

    # -- internals -------------------------------------------------------------

    def _rank_arg(self, name: str, value: int) -> int:
        rank = _as_int(name, value)
        if not 0 <= rank < self._size:
            raise ValueError(f"{name} rank {rank} out of range [0, {self._size})")
        return rank

    @staticmethod
    def _duration_arg(value: float) -> float:
        if not 0 <= value < math.inf:
            raise ValueError(f"compute duration must be finite and non-negative, got {value}")
        return float(value)

    def _size_arg(self, code: int, name: str, value: int) -> int:
        size = _as_int(name, value)
        if size < 0:
            raise ValueError(f"rank {self._rank}: {OP_KINDS[code]}: negative message size")
        return size

    def _post(self, code: int, peer: int, size: int, tag: int) -> Request:
        peer = self._rank_arg("peer", peer)
        size = self._size_arg(code, "size", size)
        tag = _as_int("tag", tag)
        handle = self._new_request()
        self._record(code, peer, size, tag, request=handle)
        return Request(handle=handle, kind=OP_KINDS[code])

    def _rooted(self, code: int, size: int, root: int) -> None:
        self._record(code, size=self._size_arg(code, "size", size),
                     root=self._rank_arg("root", root))

    def _new_request(self) -> int:
        handle = self._next_request
        self._next_request += 1
        self._pending.add(handle)
        return handle

    def _complete(self, handle: int) -> None:
        if handle not in self._pending:
            raise ValueError(f"rank {self._rank}: request {handle} is not outstanding")
        self._pending.discard(handle)

    def finish(self) -> None:
        """Check that no request is left outstanding at program end."""
        if self._pending:
            raise ValueError(
                f"rank {self._rank}: requests never completed: {sorted(self._pending)}"
            )


def run_program(
    rank_function: Callable[[VirtualComm], None],
    nranks: int,
    **meta: str,
) -> Program:
    """Execute ``rank_function`` once per rank and return the recorded program.

    ``rank_function`` receives a :class:`VirtualComm` whose :attr:`~VirtualComm.rank`
    and :attr:`~VirtualComm.size` identify the process.  It must be a pure
    function of those two values (it cannot depend on message contents).

    Each call checks its own arguments as it records them and each rank's
    requests are checked when the rank returns; once every rank has run,
    the collectives must have been called in the same order on every rank.
    """
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    program = Program.empty(nranks, **meta)
    for rank in range(nranks):
        comm = VirtualComm(rank, nranks, program.rank(rank))
        rank_function(comm)
        comm.finish()
    program.validate(rows=False)
    return program
