"""Tests for the virtual MPI API and rank programs."""

import numpy as np
import pytest

from repro.mpi import OpKind, Program, ProgramOp, VirtualComm, run_program
from repro.mpi.program import RankProgram


class TestVirtualComm:
    def test_rank_and_size(self):
        captured = {}

        def app(comm: VirtualComm):
            captured[comm.rank] = comm.size

        run_program(app, 4)
        assert captured == {0: 4, 1: 4, 2: 4, 3: 4}

    def test_compute_recorded(self):
        def app(comm):
            comm.compute(10.0)
            comm.compute(0.0)  # zero compute is dropped

        program = run_program(app, 1)
        ops = program.rank(0).ops
        assert len(ops) == 1
        assert ops[0].kind is OpKind.COMPUTE and ops[0].cost == 10.0

    def test_negative_compute_rejected(self):
        def app(comm):
            comm.compute(-1.0)

        with pytest.raises(ValueError):
            run_program(app, 1)

    def test_send_recv_recorded(self):
        def app(comm):
            if comm.rank == 0:
                comm.send(1, 128, tag=5)
            else:
                comm.recv(0, 128, tag=5)

        program = run_program(app, 2)
        assert program.rank(0)[0].kind is OpKind.SEND
        assert program.rank(1)[0].kind is OpKind.RECV
        assert program.rank(0)[0].size == 128

    @pytest.mark.parametrize(
        "record, message",
        [
            pytest.param(lambda comm: comm.compute(float("nan")),
                         "ValueError: compute duration must be finite and non-negative, got nan",
                         id="compute-nan"),
            pytest.param(lambda comm: comm.compute(float("inf")),
                         "ValueError: compute duration must be finite and non-negative, got inf",
                         id="compute-inf"),
            pytest.param(lambda comm: comm.send(1, 8.7),
                         "TypeError: size must be an integer, got 8.7", id="send-float-size"),
            pytest.param(lambda comm: comm.send(1.0, 8),
                         "TypeError: peer must be an integer, got 1.0", id="send-float-peer"),
            pytest.param(lambda comm: comm.isend(1, 8, tag=0.5),
                         "TypeError: tag must be an integer, got 0.5", id="isend-float-tag"),
            pytest.param(lambda comm: comm.bcast(8, root=0.0),
                         "TypeError: root must be an integer, got 0.0", id="bcast-float-root"),
            pytest.param(lambda comm: comm.send(1, -8),
                         "ValueError: rank 0: send: negative message size", id="send-negative-size"),
            pytest.param(lambda comm: comm.wait(comm.isend(1, -8)),
                         "ValueError: rank 0: isend: negative message size",
                         id="isend-negative-size"),
            pytest.param(lambda comm: comm.wait(comm.irecv(1, -8)),
                         "ValueError: rank 0: irecv: negative message size",
                         id="irecv-negative-size"),
            pytest.param(lambda comm: comm.sendrecv(1, -8, 1, 8),
                         "ValueError: rank 0: sendrecv: negative message size",
                         id="sendrecv-negative-send-size"),
            pytest.param(lambda comm: comm.sendrecv(1, 8, 1, -8),
                         "ValueError: rank 0: sendrecv: negative message size",
                         id="sendrecv-negative-recv-size"),
            pytest.param(lambda comm: comm.bcast(-8, root=1),
                         "ValueError: rank 0: bcast: negative message size",
                         id="bcast-negative-size"),
            pytest.param(lambda comm: comm.allreduce(-8),
                         "ValueError: rank 0: allreduce: negative message size",
                         id="allreduce-negative-size"),
            pytest.param(lambda comm: comm.send(0, -8) if comm.rank else comm.send(1, 8),
                         "ValueError: rank 1: send: negative message size",
                         id="negative-size-on-rank-1"),
            pytest.param(lambda comm: _collectives_in_rank_order(comm),
                         "ValueError: rank 1: collective call sequence differs from rank 0",
                         id="collectives-in-another-order"),
            pytest.param(lambda comm: comm.barrier() if comm.rank == 0 else None,
                         "ValueError: rank 1: collective call sequence differs from rank 0",
                         id="collective-missing"),
        ],
    )
    def test_bad_arguments_rejected_where_recorded(self, record, message):
        # the messages are pinned from the recorder that re-walked every row
        # after recording; each program has exactly one fault
        with pytest.raises((TypeError, ValueError)) as info:
            run_program(record, 2)
        assert f"{type(info.value).__name__}: {info.value}" == message

    def test_integer_like_arguments_accepted(self):
        def app(comm):
            peer = np.int64(1 - comm.rank)
            comm.sendrecv(peer, np.int32(8), peer, np.int64(8), send_tag=np.int16(3),
                          recv_tag=np.int16(3))
            comm.bcast(np.int64(4), root=np.int64(1))

        program = run_program(app, 2)
        assert program.rank(0).rows[0][1:4] == (1, 8, 3)
        assert all(type(value) is int for row in program.rank(0).rows for value in row)

    def test_negative_message_size_rejected(self):
        def app(comm):
            comm.send(1 - comm.rank, -8)

        with pytest.raises(ValueError, match="negative message size"):
            run_program(app, 2)

    def test_peer_out_of_range(self):
        def app(comm):
            comm.send(7, 8)

        with pytest.raises(ValueError):
            run_program(app, 2)

    def test_nonblocking_requires_wait(self):
        def app(comm):
            peer = (comm.rank + 1) % comm.size
            comm.isend(peer, 8)

        with pytest.raises(ValueError, match="never completed"):
            run_program(app, 2)

    def test_wait_unknown_request(self):
        from repro.mpi.api import Request

        def app(comm):
            comm.wait(Request(handle=42, kind=OpKind.IRECV))

        with pytest.raises(ValueError, match="not outstanding"):
            run_program(app, 1)

    def test_waitall_records_all_handles(self):
        def app(comm):
            peer = (comm.rank + 1) % comm.size
            reqs = [comm.irecv(peer, 8, tag=i) for i in range(3)]
            reqs += [comm.isend(peer, 8, tag=i) for i in range(3)]
            comm.waitall(reqs)

        program = run_program(app, 2)
        waitall = [op for op in program.rank(0) if op.kind is OpKind.WAITALL]
        assert len(waitall) == 1
        assert len(waitall[0].requests) == 6

    def test_waitall_empty_is_noop(self):
        def app(comm):
            comm.waitall([])
            comm.compute(1.0)

        program = run_program(app, 1)
        assert len(program.rank(0)) == 1

    def test_collectives_recorded(self):
        def app(comm):
            comm.barrier()
            comm.bcast(100, root=1)
            comm.reduce(100, root=0)
            comm.allreduce(8)
            comm.allgather(64)
            comm.alltoall(32)
            comm.gather(16, root=0)
            comm.scatter(16, root=0)

        program = run_program(app, 2)
        kinds = [op.kind for op in program.rank(0)]
        assert kinds == [
            OpKind.BARRIER, OpKind.BCAST, OpKind.REDUCE, OpKind.ALLREDUCE,
            OpKind.ALLGATHER, OpKind.ALLTOALL, OpKind.GATHER, OpKind.SCATTER,
        ]
        assert program.rank(0)[1].root == 1

    def test_sendrecv_recorded(self):
        def app(comm):
            next_rank = (comm.rank + 1) % comm.size
            prev_rank = (comm.rank - 1) % comm.size
            comm.sendrecv(next_rank, 64, prev_rank, 64, send_tag=1, recv_tag=1)

        program = run_program(app, 3)
        op = program.rank(0)[0]
        assert op.kind is OpKind.SENDRECV
        assert op.peer == 1 and op.recv_peer == 2


def _collectives_in_rank_order(comm):
    """A barrier and an allreduce, in the opposite order on rank 1."""
    calls = [comm.barrier, lambda: comm.allreduce(8)]
    for call in calls if comm.rank == 0 else reversed(calls):
        call()


def _per_call_exchange(comm, neighbors, size, *, tag, overlap_compute=0.0):
    """The per-call sequence :meth:`VirtualComm.halo_exchange` records as one block."""
    if not neighbors:
        if overlap_compute > 0:
            comm.compute(overlap_compute)
        return
    recvs = [comm.irecv(peer, size, tag=tag) for peer in neighbors]
    sends = [comm.isend(peer, size, tag=tag) for peer in neighbors]
    if overlap_compute > 0:
        comm.compute(overlap_compute)
    comm.waitall(recvs + sends)


def _block_exchange(comm, neighbors, size, *, tag, overlap_compute=0.0):
    comm.halo_exchange(neighbors, size, tag=tag, overlap_compute=overlap_compute)


def _record_exchanges(exchange, neighbors_of, size=4096, tag=7, overlap_compute=0.0):
    """Record two exchanges between an outstanding request and a later one.

    Returns the program and, per rank, the handle the later request got.
    """
    next_handle = {}

    def rank_fn(comm):
        outstanding = comm.isend((comm.rank + 1) % comm.size, 8)
        comm.compute(1.5)
        for round_tag in (tag, tag + 1):
            exchange(comm, neighbors_of(comm.rank, comm.size), size, tag=round_tag,
                     overlap_compute=overlap_compute)
        later = comm.irecv((comm.rank - 1) % comm.size, 8)
        next_handle[comm.rank] = later.handle
        comm.waitall([outstanding, later])

    return run_program(rank_fn, 7), next_handle


def _outcome(exchange, neighbors, size, tag, overlap_compute):
    def rank_fn(comm):
        exchange(comm, neighbors, size, tag=tag, overlap_compute=overlap_compute)

    try:
        program = run_program(rank_fn, 2)
    except Exception as e:
        return f"{type(e).__name__}: {e}"
    return [(rp.rows, rp.costs, rp.requests) for rp in program]


class TestHaloExchangeBlock:
    """``VirtualComm.halo_exchange`` records what the per-call sequence does."""

    @pytest.mark.parametrize(
        "neighbors_of",
        [
            pytest.param(lambda rank, size: [], id="no-neighbours"),
            pytest.param(lambda rank, size: [(rank + 1) % size], id="one"),
            # a periodic dimension of size 2 names the same neighbour twice
            pytest.param(lambda rank, size: [(rank + 1) % size] * 2, id="duplicate"),
            pytest.param(lambda rank, size: [(rank + d) % size for d in (1, 6, 2, 5, 3, 4)],
                         id="six"),
            pytest.param(lambda rank, size: [np.int64((rank + d) % size) for d in (1, 6)],
                         id="numpy-peers"),
        ],
    )
    @pytest.mark.parametrize("overlap_compute", [0.0, 12.5, np.float64(3.25), -1.0, float("nan")])
    def test_block_equals_the_per_call_sequence(self, neighbors_of, overlap_compute):
        want, want_next = _record_exchanges(_per_call_exchange, neighbors_of,
                                            overlap_compute=overlap_compute)
        got, got_next = _record_exchanges(_block_exchange, neighbors_of,
                                          overlap_compute=overlap_compute)
        for rank_program, twin in zip(want, got):
            assert twin.rows == rank_program.rows
            assert twin.costs == rank_program.costs
            assert twin.requests == rank_program.requests
            assert all(type(value) is int for row in twin.rows for value in row)
        assert got_next == want_next

    def test_numpy_size_and_tag(self):
        neighbors_of = lambda rank, size: [(rank + 1) % size, (rank + 2) % size]  # noqa: E731
        want, _ = _record_exchanges(_per_call_exchange, neighbors_of, size=np.int32(64),
                                    tag=np.int16(3))
        got, _ = _record_exchanges(_block_exchange, neighbors_of, size=np.int32(64),
                                   tag=np.int16(3))
        assert [rp.rows for rp in got] == [rp.rows for rp in want]
        assert all(type(value) is int for rp in got for row in rp.rows for value in row)

    @pytest.mark.parametrize(
        "neighbors, size, tag, overlap_compute",
        [
            pytest.param([1, 2], 8, 0, 0.0, id="peer-out-of-range"),
            pytest.param([-1], 8, 0, 0.0, id="negative-peer"),
            pytest.param([1.0], 8, 0, 0.0, id="float-peer"),
            pytest.param([1, 1.0], 8.5, 0, 0.0, id="float-second-peer-and-size"),
            pytest.param([1], 8.5, 0, 0.0, id="float-size"),
            pytest.param([1], 8, 0.5, 0.0, id="float-tag"),
            pytest.param([1], -8, 0, 0.0, id="negative-size"),
            pytest.param([1, 5], -8, 0, 0.0, id="negative-size-then-bad-peer"),
            pytest.param([1], 8, 0, float("inf"), id="inf-compute"),
            pytest.param([], 8, 0, float("inf"), id="no-neighbours-inf-compute"),
            pytest.param([], -8, 0.5, 0.0, id="no-neighbours-checks-nothing-else"),
        ],
    )
    def test_bad_input_raises_what_the_per_call_sequence_raises(
        self, neighbors, size, tag, overlap_compute
    ):
        want = _outcome(_per_call_exchange, neighbors, size, tag, overlap_compute)
        got = _outcome(_block_exchange, neighbors, size, tag, overlap_compute)
        assert got == want


class TestProgram:
    def test_validate_detects_mismatched_collectives(self):
        program = Program.empty(2)
        program.rank(0).append(ProgramOp(kind=OpKind.ALLREDUCE, size=8))
        program.rank(1).append(ProgramOp(kind=OpKind.BARRIER))
        with pytest.raises(ValueError, match="collective call sequence"):
            program.validate()

    def test_validate_detects_missing_collective(self):
        program = Program.empty(2)
        program.rank(0).append(ProgramOp(kind=OpKind.ALLREDUCE, size=8))
        with pytest.raises(ValueError):
            program.validate()

    def test_summary(self):
        def app(comm):
            comm.compute(5.0)
            comm.allreduce(8)

        program = run_program(app, 4)
        summary = program.summary()
        assert summary["nranks"] == 4
        assert summary["num_ops"] == 8
        assert summary["total_compute_us"] == pytest.approx(20.0)
        assert summary["count[allreduce]"] == 4

    def test_total_compute_per_rank(self):
        rp = RankProgram(rank=0)
        rp.append(ProgramOp(kind=OpKind.COMPUTE, cost=2.0))
        rp.append(ProgramOp(kind=OpKind.COMPUTE, cost=3.0))
        assert rp.total_compute == pytest.approx(5.0)

    def test_collective_signature(self):
        def app(comm):
            comm.barrier()
            comm.compute(1.0)
            comm.allreduce(8)

        program = run_program(app, 2)
        assert program.rank(0).collective_signature() == [OpKind.BARRIER, OpKind.ALLREDUCE]

    def test_programop_validation(self):
        with pytest.raises(ValueError):
            ProgramOp(kind=OpKind.SEND, peer=-1, size=8)
        with pytest.raises(ValueError):
            ProgramOp(kind=OpKind.COMPUTE, cost=-1.0)
        with pytest.raises(ValueError):
            ProgramOp(kind=OpKind.WAIT)

    @pytest.mark.parametrize(
        "fields, error",
        [
            pytest.param(dict(kind=OpKind.COMPUTE, cost=float("nan")), ValueError, id="nan-cost"),
            pytest.param(dict(kind=OpKind.COMPUTE, cost=float("inf")), ValueError, id="inf-cost"),
            pytest.param(dict(kind=OpKind.SEND, peer=1, size=8.7), TypeError, id="float-size"),
            pytest.param(dict(kind=OpKind.BCAST, size=8, root=1.0), TypeError, id="float-root"),
        ],
    )
    def test_programop_rejects_bad_arguments(self, fields, error):
        with pytest.raises(error):
            ProgramOp(**fields)

    def test_validate_checks_hand_built_rows(self):
        program = Program.empty(2)
        program.rank(0).append(ProgramOp(kind=OpKind.BCAST, size=8, root=5))
        program.rank(1).append(ProgramOp(kind=OpKind.BCAST, size=8, root=5))
        with pytest.raises(ValueError, match="root 5 out of range"):
            program.validate()

    def test_empty_program_requires_positive_ranks(self):
        with pytest.raises(ValueError):
            Program.empty(0)
        with pytest.raises(ValueError):
            run_program(lambda comm: None, 0)
