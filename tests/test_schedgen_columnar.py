"""Parity suite: the columnar schedule-generation engine vs the legacy one.

The contract is *bit identity*: for any program or trace, the columnar
engine (the production builder) must produce exactly the frozen graph the
op-by-op oracle (``ScheduleGenerator(builder_engine="legacy")``) produces —
same vertex ids and attribute columns, same edge order, same labels.  The
suite sweeps every collective algorithm, rendezvous on/off, random
point-to-point programs and trace-driven builds, and checks LP-objective
agreement between :func:`repro.core.build_lp` and the symbolic reference on
top.
"""

import numpy as np
import pytest

from repro.core.lp_builder import build_lp
from repro.mpi import run_program, trace_program
from repro.mpi.program import OpKind, Program, ProgramOp
from repro.network.params import LogGPSParams
from repro.schedgen import (
    COLLECTIVE_TAG_BASE,
    RENDEZVOUS_TAG_BASE,
    USER_TAG_LIMIT,
    CollectiveAlgorithms,
    ProtocolConfig,
    ScheduleGenerator,
    build_graph,
)
from repro.schedgen.builder import UnmatchedMessageError
from repro.schedgen.collectives import COLLECTIVE_TAG_LIMIT, next_collective_tag
from repro.testing import (
    build_lp_symbolic,
    build_random_program,
    frontier_peel_levels,
)

PARAMS = LogGPSParams(L=1.0, o=0.5, g=0.0, G=0.001)

_ARRAYS = ("kind", "rank", "cost", "size", "peer", "tag",
           "edge_src", "edge_dst", "edge_kind")


def assert_identical(legacy, columnar):
    """Bit-identity of two frozen graphs: columns, edge order, labels."""
    assert legacy.nranks == columnar.nranks
    for name in _ARRAYS:
        expected, actual = getattr(legacy, name), getattr(columnar, name)
        assert expected.dtype == actual.dtype, name
        assert np.array_equal(expected, actual), f"{name} differs"
    assert legacy.labels == columnar.labels


def build(program, engine="columnar", *, algorithms=None, protocol=None):
    """``program`` built by the production engine or the ``"legacy"`` oracle."""
    generator = ScheduleGenerator(
        algorithms=algorithms, protocol=protocol, builder_engine=engine
    )
    return generator.build(program)


def both_engines(program, **kwargs):
    legacy = build(program, "legacy", **kwargs)
    columnar = build_graph(program, **kwargs)
    assert_identical(legacy, columnar)
    return legacy, columnar


class TestCollectiveParity:
    @pytest.mark.parametrize("nranks", [2, 3, 4, 5, 8, 16])
    @pytest.mark.parametrize("allreduce", ["recursive_doubling", "ring", "reduce_bcast"])
    def test_allreduce(self, nranks, allreduce):
        def app(comm):
            comm.compute(1.0)
            comm.allreduce(4096)
            comm.compute(0.5)
            comm.allreduce(128)

        both_engines(
            run_program(app, nranks),
            algorithms=CollectiveAlgorithms(allreduce=allreduce),
        )

    @pytest.mark.parametrize("nranks", [2, 3, 5, 8])
    @pytest.mark.parametrize(
        "algorithms",
        [
            CollectiveAlgorithms(),
            CollectiveAlgorithms(bcast="linear", allgather="recursive_doubling"),
        ],
    )
    def test_every_collective(self, nranks, algorithms):
        def app(comm):
            comm.compute(2.0)
            comm.bcast(256, root=comm.size - 1)
            comm.reduce(128, root=0)
            comm.allreduce(64)
            comm.allgather(64)
            comm.alltoall(32)
            comm.gather(64, root=0)
            comm.scatter(64, root=comm.size - 1)
            comm.barrier()

        both_engines(run_program(app, nranks), algorithms=algorithms)

    def test_single_rank_degenerates(self):
        program = Program.empty(1)
        program.rank(0).append(ProgramOp(kind=OpKind.COMPUTE, cost=1.0))
        program.rank(0).append(ProgramOp(kind=OpKind.ALLREDUCE, size=64))
        program.rank(0).append(ProgramOp(kind=OpKind.COMPUTE, cost=2.0))
        both_engines(program)

    def test_collective_sequence_mismatch_detected(self):
        program = Program.empty(2)
        program.rank(0).append(ProgramOp(kind=OpKind.ALLREDUCE, size=8))
        program.rank(1).append(ProgramOp(kind=OpKind.BARRIER))
        with pytest.raises(ValueError):
            build_graph(program)

    def test_collective_count_mismatch_detected(self):
        program = Program.empty(2)
        program.rank(0).append(ProgramOp(kind=OpKind.BARRIER))
        with pytest.raises(ValueError, match="collectives"):
            build_graph(program)


_PROTOCOLS = [
    None,
    ProtocolConfig(eager_threshold=1024),
    ProtocolConfig(eager_threshold=1024, expand_rendezvous=False),
    ProtocolConfig(eager_threshold=6000),
]


class TestPointToPointParity:
    @pytest.mark.parametrize("nranks", [2, 3, 4])
    @pytest.mark.parametrize("protocol", _PROTOCOLS)
    def test_blocking_and_nonblocking(self, nranks, protocol):
        def app(comm):
            for i in range(3):
                comm.compute(1.0)
                if comm.rank == 0:
                    comm.send(1, 5000, tag=i)
                    comm.recv(1, 64, tag=100 + i)
                elif comm.rank == 1:
                    comm.recv(0, 5000, tag=i)
                    comm.send(0, 64, tag=100 + i)
            r = comm.irecv((comm.rank + 1) % comm.size, 9000, tag=50)
            s = comm.isend((comm.rank - 1) % comm.size, 9000, tag=50)
            comm.compute(3.0)
            comm.waitall([r, s])

        both_engines(run_program(app, nranks), protocol=protocol)

    @pytest.mark.parametrize("protocol", _PROTOCOLS)
    def test_sendrecv_ring(self, protocol):
        # asymmetric sizes keep at most one rendezvous half per rank pair
        # (the legacy blocking sendrecv expansion deadlocks otherwise)
        def app(comm):
            sizes = [7000 if r % 2 == 0 else 300 for r in range(comm.size)]
            comm.sendrecv(
                (comm.rank + 1) % comm.size, sizes[comm.rank],
                (comm.rank - 1) % comm.size, sizes[(comm.rank - 1) % comm.size],
                send_tag=60, recv_tag=60,
            )

        both_engines(run_program(app, 4), protocol=protocol)

    def test_wait_immediately_after_isend(self):
        # the wait join's frontier already is the request target: the
        # duplicate edge must be suppressed identically in both engines
        def app(comm):
            peer = (comm.rank + 1) % comm.size
            prev = (comm.rank - 1) % comm.size
            r = comm.irecv(prev, 64, tag=1)
            s = comm.isend(peer, 64, tag=1)
            comm.wait(s)
            comm.wait(r)

        both_engines(run_program(app, 2))

    @pytest.mark.parametrize("protocol", _PROTOCOLS)
    def test_requests_open_across_collectives(self, protocol):
        # requests posted before a collective and completed after it, a
        # handle reused once completed, and an empty waitall
        program = Program.empty(2)
        for rank in range(2):
            peer = 1 - rank
            ops = program.rank(rank)
            ops.append(ProgramOp(kind=OpKind.IRECV, peer=peer, size=9000, request=1))
            ops.append(ProgramOp(kind=OpKind.ISEND, peer=peer, size=9000, request=2))
            ops.append(ProgramOp(kind=OpKind.ALLREDUCE, size=64))
            ops.append(ProgramOp(kind=OpKind.COMPUTE, cost=1.0))
            ops.append(ProgramOp(kind=OpKind.WAITALL, requests=(2, 1)))
            ops.append(ProgramOp(kind=OpKind.ISEND, peer=peer, size=64, request=1))
            ops.append(ProgramOp(kind=OpKind.IRECV, peer=peer, size=64, request=2))
            ops.append(ProgramOp(kind=OpKind.BARRIER))
            ops.append(ProgramOp(kind=OpKind.WAIT, request=2))
            ops.append(ProgramOp(kind=OpKind.WAITALL, requests=()))
            ops.append(ProgramOp(kind=OpKind.WAIT, request=1))
        both_engines(program, protocol=protocol)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_programs(self, seed):
        program = build_random_program(seed, nranks=4, rounds=15)
        for protocol in (None, ProtocolConfig(eager_threshold=8192)):
            both_engines(program, protocol=protocol)

    def test_wait_on_unknown_request_raises_in_both(self):
        program = Program.empty(2)
        program.ranks[0].append(ProgramOp(kind=OpKind.WAIT, request=7))
        for engine in ("legacy", "columnar"):
            with pytest.raises(ValueError, match="request"):
                build(program, engine)

    @pytest.mark.parametrize("leading_computes", [0, 300])
    def test_waitall_names_first_unknown_request(self, leading_computes):
        # the first unknown handle in listed order, however long the slice
        program = Program.empty(1)
        for _ in range(leading_computes):
            program.rank(0).append(ProgramOp(kind=OpKind.COMPUTE, cost=1.0))
        program.rank(0).append(ProgramOp(kind=OpKind.WAITALL, requests=(5, 3)))
        with pytest.raises(ValueError, match=r"^rank 0: wait on unknown request 5$"):
            build_graph(program)

    def test_staging_errors_raise_in_segment_order(self):
        # rank 1's bad wait comes before the barrier, rank 0's after it:
        # segment order wins over rank order
        program = Program.empty(2)
        program.rank(0).append(ProgramOp(kind=OpKind.BARRIER))
        program.rank(0).append(ProgramOp(kind=OpKind.WAIT, request=7))
        program.rank(1).append(ProgramOp(kind=OpKind.WAIT, request=9))
        program.rank(1).append(ProgramOp(kind=OpKind.BARRIER))
        with pytest.raises(ValueError, match=r"^rank 1: wait on unknown request 9$"):
            build_graph(program)

    def test_nonblocking_without_request_raises_in_both(self):
        # request defaults to -1; both engines must reject it, regardless of
        # the workload-size-driven auto policy
        program = Program.empty(2)
        program.ranks[0].append(ProgramOp(kind=OpKind.ISEND, peer=1, size=8))
        program.ranks[0].append(ProgramOp(kind=OpKind.WAITALL, requests=(-1,)))
        program.ranks[1].append(ProgramOp(kind=OpKind.RECV, peer=0, size=8))
        for engine in ("legacy", "columnar"):
            with pytest.raises(ValueError, match="without request"):
                build(program, engine)

    def test_request_reuse_raises_in_both(self):
        program = Program.empty(2)
        program.ranks[0].append(ProgramOp(kind=OpKind.ISEND, peer=1, size=8, request=1))
        program.ranks[0].append(ProgramOp(kind=OpKind.ISEND, peer=1, size=8, request=1))
        program.ranks[0].append(ProgramOp(kind=OpKind.WAITALL, requests=(1,)))
        program.ranks[1].append(ProgramOp(kind=OpKind.RECV, peer=0, size=8))
        program.ranks[1].append(ProgramOp(kind=OpKind.RECV, peer=0, size=8))
        for engine in ("legacy", "columnar"):
            with pytest.raises(ValueError, match="reused"):
                build(program, engine)

    def test_never_completed_request_raises_in_both(self):
        program = Program.empty(2)
        program.ranks[0].append(ProgramOp(kind=OpKind.ISEND, peer=1, size=8, request=1))
        program.ranks[1].append(ProgramOp(kind=OpKind.RECV, peer=0, size=8))
        for engine in ("legacy", "columnar"):
            with pytest.raises(ValueError, match="never completed"):
                build(program, engine)

    def test_unmatched_messages_raise_in_both(self):
        program = Program.empty(2)
        program.rank(0).append(ProgramOp(kind=OpKind.SEND, peer=1, size=8, tag=0))
        for engine in ("legacy", "columnar"):
            with pytest.raises(UnmatchedMessageError):
                build(program, engine)


class TestTraceParity:
    def _trace(self, nranks):
        def app(comm):
            for i in range(3):
                comm.compute(5.0)
                comm.allreduce(2048)
                peer = (comm.rank + 1) % comm.size
                prev = (comm.rank - 1) % comm.size
                r = comm.irecv(prev, 512, tag=i)
                s = comm.isend(peer, 512, tag=i)
                comm.compute(0.5)
                comm.waitall([r, s])
                if comm.rank == 0:
                    comm.send(1, 3000, tag=40 + i)
                elif comm.rank == 1:
                    comm.recv(0, 3000, tag=40 + i)

        return trace_program(run_program(app, nranks), PARAMS)

    @pytest.mark.parametrize("nranks", [2, 4, 5])
    @pytest.mark.parametrize(
        "protocol", [None, ProtocolConfig(eager_threshold=1024)]
    )
    def test_trace_builds_bit_identical(self, nranks, protocol):
        trace = self._trace(nranks)
        legacy = ScheduleGenerator(
            protocol=protocol, builder_engine="legacy"
        ).build_from_trace(trace)
        columnar = ScheduleGenerator(
            protocol=protocol, builder_engine="columnar"
        ).build_from_trace(trace)
        assert_identical(legacy, columnar)

    def test_min_compute_filter_matches(self):
        trace = self._trace(4)
        legacy = ScheduleGenerator(builder_engine="legacy").build_from_trace(
            trace, min_compute=1.0
        )
        columnar = ScheduleGenerator(builder_engine="columnar").build_from_trace(
            trace, min_compute=1.0
        )
        assert_identical(legacy, columnar)


class TestLPObjectiveAgreement:
    def test_compiled_lp_identical_objective(self):
        def app(comm):
            for i in range(4):
                comm.compute(1.0)
                comm.allreduce(2048)

        program = run_program(app, 8)
        legacy, columnar = both_engines(program)
        obj = {}
        for name, graph in (("legacy", legacy), ("columnar", columnar)):
            lp = build_lp(graph, PARAMS)
            obj[name] = lp.solve_runtime(backend="highs").objective
        assert obj["legacy"] == pytest.approx(obj["columnar"], abs=1e-9)

    def test_random_program_compiled_vs_symbolic(self):
        program = build_random_program(3, nranks=3, rounds=10)
        _, columnar = both_engines(program)
        for lm in ("global", "per_pair", "constant"):
            for gm in ("constant", "global", "per_pair"):
                for om in ("constant", "global"):
                    modes = dict(latency_mode=lm, gap_mode=gm, overhead_mode=om)
                    compiled = build_lp(columnar, PARAMS, **modes)
                    symbolic = build_lp_symbolic(columnar, PARAMS, **modes)
                    assert compiled.model.solve(backend="highs").objective == pytest.approx(
                        symbolic.model.solve(backend="highs").objective, abs=1e-9
                    ), modes


class TestEnginePolicy:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="builder engine"):
            ScheduleGenerator(builder_engine="magic")
        with pytest.raises(ValueError, match="builder engine"):
            ScheduleGenerator(builder_engine="auto")

    def test_default_engine_matches_legacy_on_tiny_programs(self):
        # the smallest inputs: a barrier, pure computation, one message
        def barrier_only(comm):
            comm.barrier()

        def compute_only(comm):
            comm.compute(3.5)

        def one_message(comm):
            if comm.rank == 0:
                comm.send(1, 16, tag=0)
            else:
                comm.recv(0, 16, tag=0)

        for app, nranks in ((barrier_only, 2), (compute_only, 1), (one_message, 2)):
            program = run_program(app, nranks)
            assert_identical(build(program, "legacy"), ScheduleGenerator().build(program))


class TestTagHygiene:
    @pytest.mark.parametrize("engine", ["legacy", "columnar"])
    @pytest.mark.parametrize("bad_tag", [-1, USER_TAG_LIMIT, USER_TAG_LIMIT + 5])
    def test_out_of_range_user_tag_rejected(self, engine, bad_tag):
        program = Program.empty(2)
        program.rank(0).append(ProgramOp(kind=OpKind.SEND, peer=1, size=8, tag=bad_tag))
        program.rank(1).append(ProgramOp(kind=OpKind.RECV, peer=0, size=8, tag=bad_tag))
        with pytest.raises(ValueError, match="user tag"):
            build(program, engine)

    @pytest.mark.parametrize("engine", ["legacy", "columnar"])
    def test_sendrecv_recv_tag_checked(self, engine):
        program = Program.empty(2)
        for rank in range(2):
            program.rank(rank).append(ProgramOp(
                kind=OpKind.SENDRECV, peer=1 - rank, size=8, tag=0,
                recv_peer=1 - rank, recv_size=8, recv_tag=USER_TAG_LIMIT,
            ))
        with pytest.raises(ValueError, match="user tag"):
            build(program, engine)

    @pytest.mark.parametrize("engine", ["legacy", "columnar"])
    def test_largest_user_tag_cannot_collide(self, engine):
        """The largest legal user tag keeps all synthetic tags in their regions."""
        tag = USER_TAG_LIMIT - 1

        def app(comm):
            if comm.rank == 0:
                comm.send(1, 1_000_000, tag=tag)
            else:
                comm.recv(0, 1_000_000, tag=tag)
            comm.allreduce(64)

        graph = build(
            run_program(app, 2), engine, protocol=ProtocolConfig(eager_threshold=1024)
        )
        tags = np.asarray(graph.tag)
        user = tags[tags < USER_TAG_LIMIT]
        collective = tags[(tags >= COLLECTIVE_TAG_BASE) & (tags < COLLECTIVE_TAG_LIMIT)]
        rendezvous = tags[tags >= RENDEZVOUS_TAG_BASE]
        assert len(user) + len(collective) + len(rendezvous) == len(tags)
        assert rendezvous.max() < 2 * COLLECTIVE_TAG_BASE
        # the rendezvous handshake of the largest user tag stays above the
        # collective region even after the allreduce consumed its tag block
        assert rendezvous.min() >= RENDEZVOUS_TAG_BASE > collective.max()

    def test_regions_are_disjoint_by_construction(self):
        assert USER_TAG_LIMIT <= COLLECTIVE_TAG_BASE
        assert COLLECTIVE_TAG_LIMIT == RENDEZVOUS_TAG_BASE
        assert RENDEZVOUS_TAG_BASE + 4 * USER_TAG_LIMIT <= 2 * COLLECTIVE_TAG_BASE

    def test_collective_tag_space_exhaustion_raises(self):
        cursor = COLLECTIVE_TAG_LIMIT - 8
        with pytest.raises(ValueError, match="tag space exhausted"):
            next_collective_tag(cursor, nranks=64)

    def test_collective_tag_allocation_advances(self):
        tag, cursor = next_collective_tag(COLLECTIVE_TAG_BASE, nranks=8)
        assert tag == COLLECTIVE_TAG_BASE
        assert cursor == COLLECTIVE_TAG_BASE + 4 * 8 + 16


class TestGoalColumnarIngestion:
    def test_round_trip_preserves_graph(self):
        from repro.schedgen import dumps_goal, loads_goal

        def app(comm):
            comm.compute(1.0)
            comm.allreduce(256)
            if comm.rank == 0:
                comm.send(1, 64, tag=3)
            elif comm.rank == 1:
                comm.recv(0, 64, tag=3)

        graph = build_graph(run_program(app, 4))
        text = dumps_goal(graph)
        assert dumps_goal(loads_goal(text)) == text

    def test_unterminated_rank_block_rejected(self):
        from repro.schedgen import GoalFormatError, loads_goal

        with pytest.raises(GoalFormatError, match="unterminated"):
            loads_goal("num_ranks 1\n\nrank 0 {\n  l1: calc 100\n  l2: calc 200")

    def test_rank_header_inside_open_block_rejected(self):
        from repro.schedgen import GoalFormatError, loads_goal

        with pytest.raises(GoalFormatError, match="not closed"):
            loads_goal("num_ranks 2\n\nrank 0 {\n  l1: calc 100\nrank 1 {\n}\n")


class TestLevelEngine:
    """One attach path, one level engine.

    ``GraphBuilder.freeze`` adopts the builder's columns and validates; the
    levels of ``topo_levels`` must equal the frontier-peel oracle
    (:func:`repro.testing.frontier_peel_levels`), and every cycle raises.
    """

    @staticmethod
    def _program(nranks=4):
        def app(comm):
            for it in range(3):
                chain = 40 if comm.rank == 0 else 2
                for _ in range(chain):
                    comm.compute(0.5)
                comm.allreduce(4096)
                nxt = (comm.rank + 1) % comm.size
                prv = (comm.rank - 1) % comm.size
                req = comm.irecv(prv, 128, tag=it)
                comm.send(nxt, 128, tag=it)
                comm.wait(req)

        return run_program(app, nranks)

    @staticmethod
    def _assert_levels_match_peel(graph, context=None):
        indptr, order = graph.topo_levels()
        p_indptr, p_order = frontier_peel_levels(graph)
        assert np.array_equal(indptr, p_indptr), context
        assert np.array_equal(order, p_order), context

    @staticmethod
    def _calc_graph(n, edges):
        """``n`` compute vertices on one rank, attached without validation."""
        from repro.schedgen.graph import EdgeKind, ExecutionGraph, VertexKind

        src, dst = zip(*edges)
        columns = {
            "kind": np.full(n, int(VertexKind.CALC), dtype=np.int8),
            "rank": np.zeros(n, dtype=np.int32),
            "cost": np.ones(n, dtype=np.float64),
            "size": np.zeros(n, dtype=np.int64),
            "peer": np.full(n, -1, dtype=np.int32),
            "tag": np.zeros(n, dtype=np.int64),
            "edge_src": np.array(src, dtype=np.int64),
            "edge_dst": np.array(dst, dtype=np.int64),
            "edge_kind": np.full(len(edges), int(EdgeKind.DEP), dtype=np.int8),
        }
        return ExecutionGraph.from_columns(1, columns)

    def test_freeze_adopts_builder_columns(self):
        from repro.schedgen.graph import GraphBuilder

        builder = GraphBuilder(nranks=2)
        calc = builder.add_calc(0, 1.0)
        send = builder.add_send(0, 1, 8)
        recv = builder.add_recv(1, 0, 8)
        builder.add_dependency(calc, send)
        builder.add_comm_edge(send, recv)
        graph = builder.freeze()
        assert np.shares_memory(graph.kind, builder.kind_column())
        frozen = {name: column.copy() for name, column in graph.identity_columns().items()}
        digest = graph.content_digest()
        # appends write past the frozen bounds, through buffer growth too
        tail = builder.add_vertices(0, 1, cost=2.0, count=200)
        builder.add_dependencies(tail[:-1], tail[1:])
        builder.add_dependency(recv, int(tail[0]))
        for name, column in frozen.items():
            np.testing.assert_array_equal(getattr(graph, name), column, err_msg=name)
        assert graph.num_vertices == 3 and graph.num_edges == 2
        grown = builder.freeze()
        assert grown.num_vertices == 203 and grown.num_edges == 202
        rebuilt = type(graph).from_columns(graph.nranks, graph.identity_columns())
        assert rebuilt.content_digest() == digest

    def test_graph_for_levels_match_frontier_peel(self):
        from repro.schedgen.columnar import ScheduleBatches

        graph = ScheduleBatches.from_program(self._program()).graph_for(PARAMS)
        self._assert_levels_match_peel(graph)

    def test_levels_match_frontier_peel_on_random_programs(self):
        for seed in range(8):
            graph = build_graph(build_random_program(seed, nranks=4))
            self._assert_levels_match_peel(graph, seed)

    def test_levels_match_frontier_peel_on_deep_contiguous_chain(self):
        # the run collapse's home turf: one rank-0 chain of contiguous
        # vertex ids, everyone else nearly idle, levels ≈ vertices
        def app(comm):
            for _ in range(2):
                chain = 500 if comm.rank == 0 else 1
                for _ in range(chain):
                    comm.compute(0.5)
                comm.allreduce(64)

        self._assert_levels_match_peel(build_graph(run_program(app, 4)))

    @pytest.mark.parametrize("n,edges", [
        # 0 -> 1 -> 0: single-predecessor vertices that never reach an anchor
        (2, [(0, 1), (1, 0)]),
        # a self-loop, and a chain hanging off it
        (2, [(0, 0), (0, 1)]),
        # 0 and 1 are mutual merge points (in-degree 2), fed by source 2
        (3, [(2, 0), (1, 0), (2, 1), (0, 1)]),
    ], ids=["two-cycle", "self-loop", "merge-cycle"])
    def test_cycle_raises(self, n, edges):
        from repro.schedgen import GraphValidationError

        with pytest.raises(GraphValidationError, match="cycle"):
            self._calc_graph(n, edges).topo_levels()


class TestScheduleBatches:
    def test_graph_cached_per_protocol(self):
        from repro.schedgen.columnar import ScheduleBatches

        program = TestLevelEngine._program()
        spec = ScheduleBatches.from_program(program)
        first = spec.graph_for(PARAMS)
        assert spec.graph_for(PARAMS) is first
        # a different eager threshold is a different protocol: fresh graph
        other = LogGPSParams(L=1.0, o=0.5, g=0.0, G=0.001, S=64)
        assert spec.graph_for(other) is not first

    def test_digest_equals_program_graph(self):
        from repro.schedgen.columnar import ScheduleBatches

        program = TestLevelEngine._program()
        spec = ScheduleBatches.from_program(program)
        assert spec.content_digest(PARAMS) == build_graph(
            program, params=PARAMS
        ).content_digest()

    def test_explicit_protocol_wins(self):
        from repro.schedgen.columnar import ScheduleBatches

        protocol = ProtocolConfig(eager_threshold=64, expand_rendezvous=True)
        program = TestLevelEngine._program()
        spec = ScheduleBatches.from_program(program, protocol=protocol)
        assert spec.resolve_protocol(PARAMS) is protocol
        # the 128-byte ring messages go rendezvous under the 64-byte
        # threshold, so this schedule differs from the eager one
        eager = ScheduleBatches.from_program(program)
        assert spec.content_digest(PARAMS) != eager.content_digest(PARAMS)

    def test_mismatched_batch_count_rejected(self):
        from repro.schedgen.columnar import ScheduleBatches, batches_from_program

        program = TestLevelEngine._program()
        spec = ScheduleBatches(batches_from_program(program), nranks=7)
        with pytest.raises(ValueError, match="batches"):
            spec.graph_for(PARAMS)
