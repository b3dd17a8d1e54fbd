"""Parity suite: the level-synchronous simulation engine vs the reference walk.

The contract is *timestamp identity* (atol 1e-9; in practice bit-exact):
for any graph, injector and noise model, the level engine
(:mod:`repro.simulator.columnar`, behind :func:`repro.simulator.simulate`)
must produce the per-vertex start/end times, makespan and per-rank finish
times of the per-vertex reference simulator
(:class:`repro.testing.LogGOPSSimulator`).  The suite sweeps every injector × noise model over random DAGs
and every collective algorithm, pins the batched ``simulate_sweep`` against
per-point runs, and anchors the engine against the LP oracle through the
``forward_pass == LP optimum`` property.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import analyze_critical_path, build_lp
from repro.core.graph_analysis import forward_pass
from repro.mpi import run_program
from repro.network.params import LogGPSParams
from repro.schedgen import CollectiveAlgorithms, build_graph
from repro.schedgen.graph import GraphBuilder
from repro.simulator import (
    INJECTOR_NAMES,
    GaussianNoise,
    NoNoise,
    OSJitterNoise,
    ReceiverProgressInjector,
    make_injector,
    simulate,
    simulate_sweep,
)
from repro.testing import LogGOPSSimulator, build_random_dag

PARAMS = LogGPSParams(L=2.0, o=1.0, g=0.7, G=0.001)

NOISE_FACTORIES = {
    "none": lambda: NoNoise(),
    "gaussian": lambda: GaussianNoise(sigma=0.05, seed=11),
    "jitter": lambda: OSJitterNoise(probability=0.25, spike=13.0, seed=7),
}


def assert_identical(a, b):
    assert a.makespan == pytest.approx(b.makespan, abs=1e-9)
    np.testing.assert_allclose(a.start, b.start, atol=1e-9)
    np.testing.assert_allclose(a.end, b.end, atol=1e-9)
    np.testing.assert_allclose(a.rank_finish, b.rank_finish, atol=1e-9)


def reference(graph, params=PARAMS, *, injector=None, noise=None):
    """One run of the per-vertex reference walk."""
    return LogGOPSSimulator(graph, params, injector=injector, noise=noise).run()


def both_engines(graph, params=PARAMS, *, injector_name="ideal", delta=7.0,
                 noise_name="none"):
    legacy = reference(
        graph, params, injector=make_injector(injector_name, delta),
        noise=NOISE_FACTORIES[noise_name](),
    )
    level = simulate(
        graph, params, injector=make_injector(injector_name, delta),
        noise=NOISE_FACTORIES[noise_name](),
    )
    assert_identical(legacy, level)
    return legacy, level


class TestEngineParity:
    @pytest.mark.parametrize("injector_name", INJECTOR_NAMES)
    @pytest.mark.parametrize("noise_name", sorted(NOISE_FACTORIES))
    @pytest.mark.parametrize("seed", range(4))
    def test_random_dags(self, injector_name, noise_name, seed):
        graph = build_random_dag(seed, nranks=4, rounds=12)
        both_engines(graph, injector_name=injector_name, noise_name=noise_name)

    @pytest.mark.parametrize("injector_name", INJECTOR_NAMES)
    @pytest.mark.parametrize(
        "allreduce", ["recursive_doubling", "ring", "reduce_bcast"]
    )
    def test_collective_algorithms(self, injector_name, allreduce):
        def app(comm):
            for _ in range(3):
                comm.compute(1.0)
                comm.allreduce(4096)

        graph = build_graph(
            run_program(app, 8),
            algorithms=CollectiveAlgorithms(allreduce=allreduce),
        )
        both_engines(graph, injector_name=injector_name, noise_name="gaussian")

    @pytest.mark.parametrize("injector_name", INJECTOR_NAMES)
    def test_every_collective(self, injector_name):
        def app(comm):
            comm.compute(2.0)
            comm.bcast(256, root=comm.size - 1)
            comm.reduce(128, root=0)
            comm.allreduce(64)
            comm.allgather(64)
            comm.alltoall(32)
            comm.barrier()

        graph = build_graph(run_program(app, 5))
        both_engines(graph, injector_name=injector_name, noise_name="jitter")

    def test_nonblocking_program(self):
        def app(comm):
            nxt = (comm.rank + 1) % comm.size
            prv = (comm.rank - 1) % comm.size
            for i in range(4):
                r = comm.irecv(prv, 512, tag=i)
                s = comm.isend(nxt, 512, tag=i)
                comm.compute(1.5)
                comm.waitall([r, s])

        graph = build_graph(run_program(app, 6))
        for injector_name in INJECTOR_NAMES:
            both_engines(graph, injector_name=injector_name)

    def test_tiny_programs_match_reference(self):
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
            both_engines(build_graph(run_program(app, nranks)))

    def test_same_level_sends_serialise_on_the_nic(self):
        # two unchained sends of one rank share a level: the NIC gap must
        # serialise them in vertex-id order in both engines
        builder = GraphBuilder(nranks=2)
        s0 = builder.add_send(0, 1, 64, tag=0)
        s1 = builder.add_send(0, 1, 64, tag=1)
        r0 = builder.add_recv(1, 0, 64, tag=0)
        r1 = builder.add_recv(1, 0, 64, tag=1)
        builder.add_comm_edge(s0, r0)
        builder.add_comm_edge(s1, r1)
        graph = builder.freeze()
        params = LogGPSParams(L=1.0, o=0.2, g=5.0, G=0.0)
        legacy, level = both_engines(graph, params, delta=0.0)
        # the second send waited for the gap
        assert level.start[s1] == pytest.approx(legacy.start[s0] + params.g)

    def test_same_level_messages_share_one_progress_thread(self):
        # two messages for one rank arriving in the same level: strategy C
        # serialises them through the rank's single progress thread, in the
        # shared deterministic (vertex-id) order
        builder = GraphBuilder(nranks=3)
        s0 = builder.add_send(0, 2, 8, tag=0)
        s1 = builder.add_send(1, 2, 8, tag=1)
        r0 = builder.add_recv(2, 0, 8, tag=0)
        r1 = builder.add_recv(2, 1, 8, tag=1)
        builder.add_comm_edge(s0, r0)
        builder.add_comm_edge(s1, r1)
        graph = builder.freeze()
        legacy, level = both_engines(
            graph, injector_name="receiver_progress", delta=9.0
        )
        # the second release queued behind the first: 2 * delta apart
        assert level.end[r1] - level.end[r0] == pytest.approx(9.0)

    def test_track_nic_false_matches_forward_pass(self):
        graph = build_random_dag(3, nranks=3, rounds=10)
        completion = forward_pass(graph, PARAMS)
        cp = analyze_critical_path(graph, PARAMS)
        assert cp.runtime == pytest.approx(float(completion.max()))


class TestSweepParity:
    DELTAS = (0.0, 3.0, 11.0, 40.0)

    @pytest.mark.parametrize("injector_name", INJECTOR_NAMES)
    @pytest.mark.parametrize("noise_name", sorted(NOISE_FACTORIES))
    def test_sweep_equals_per_point(self, injector_name, noise_name):
        graph = build_random_dag(1, nranks=4, rounds=12)
        sweep = simulate_sweep(
            graph, PARAMS, self.DELTAS, injector=injector_name,
            noise=NOISE_FACTORIES[noise_name](),
        )
        for i, delta in enumerate(self.DELTAS):
            point = reference(
                graph, PARAMS, injector=make_injector(injector_name, delta),
                noise=NOISE_FACTORIES[noise_name](),
            )
            assert sweep.makespan[i] == pytest.approx(point.makespan, abs=1e-9)
            np.testing.assert_allclose(
                sweep.rank_finish[i], point.rank_finish, atol=1e-9
            )

    def test_sweep_legacy_engine_matches(self):
        graph = build_random_dag(2, nranks=3, rounds=8)
        level = simulate_sweep(graph, PARAMS, self.DELTAS)
        legacy = [
            reference(graph, injector=make_injector("ideal", d)).makespan
            for d in self.DELTAS
        ]
        np.testing.assert_allclose(level.makespan, legacy, atol=1e-9)
        assert level.runtimes is level.makespan

    def test_sweep_rejects_unknown_names(self):
        graph = build_random_dag(0)
        with pytest.raises(ValueError, match="unknown injector"):
            simulate_sweep(graph, PARAMS, [0.0], injector="nope")

    def test_empty_delta_list(self):
        graph = build_random_dag(0)
        sweep = simulate_sweep(graph, PARAMS, [])
        assert sweep.makespan.shape == (0,)


class TestBatchProtocols:
    def test_receiver_progress_batch_equals_scalar_sequence(self):
        ranks = np.array([0, 1, 0, 0, 2, 1, 0], dtype=np.int64)
        arrivals = np.array([5.0, 1.0, 2.0, 9.0, 4.0, 1.5, 9.0])
        batch = ReceiverProgressInjector(3.0)
        scalar = ReceiverProgressInjector(3.0)
        got = batch.release_times(ranks, arrivals)
        expected = [
            scalar.release_time(int(r), float(a)) for r, a in zip(ranks, arrivals)
        ]
        np.testing.assert_allclose(got, expected)
        assert batch._busy_until == scalar._busy_until

    @pytest.mark.parametrize("noise_name", ["gaussian", "jitter"])
    def test_perturb_many_is_stream_equivalent(self, noise_name):
        durations = np.array([1.0, 0.0, 2.5, -1.0, 3.0, 0.0, 7.0])
        batch = NOISE_FACTORIES[noise_name]()
        scalar = NOISE_FACTORIES[noise_name]()
        got = batch.perturb_many(durations)
        expected = [scalar.perturb(float(d)) for d in durations]
        np.testing.assert_allclose(got, expected)

    def test_scalar_only_protocols_still_work(self):
        # third-party injectors/noise models that implement only the scalar
        # protocol run through the level engine's adapter shims
        class ScalarInjector:
            delta = 2.0

            def reset(self):
                pass

            def send_extra_delay(self, src_rank):
                return 0.5

            def release_time(self, dst_rank, arrival):
                return arrival + self.delta

        class ScalarNoise:
            def reset(self):
                pass

            def perturb(self, duration):
                return duration * 2.0

        graph = build_random_dag(4, nranks=3, rounds=8)
        legacy = reference(graph, PARAMS, injector=ScalarInjector(), noise=ScalarNoise())
        level = simulate(graph, PARAMS, injector=ScalarInjector(), noise=ScalarNoise())
        assert_identical(legacy, level)


class TestNoiseResetRegression:
    """``reset()`` must re-seed: back-to-back runs are reproducible."""

    @pytest.mark.parametrize("noise_name", ["gaussian", "jitter"])
    @pytest.mark.parametrize("engine", ["legacy", "level"])
    def test_back_to_back_runs_identical(self, noise_name, engine):
        graph = build_random_dag(5, nranks=3, rounds=10)
        noise = NOISE_FACTORIES[noise_name]()
        run = reference if engine == "legacy" else simulate
        first = run(graph, PARAMS, noise=noise)
        second = run(graph, PARAMS, noise=noise)
        assert first.makespan == pytest.approx(second.makespan, abs=0.0)
        np.testing.assert_array_equal(first.end, second.end)

    def test_simulator_object_reuse_reproducible(self):
        graph = build_random_dag(6, nranks=3, rounds=10)
        sim = LogGOPSSimulator(
            graph, PARAMS, noise=OSJitterNoise(probability=0.5, spike=5.0, seed=3)
        )
        assert sim.run().makespan == pytest.approx(sim.run().makespan, abs=0.0)


class TestCriticalPathTies:
    def test_tie_breaks_to_lowest_edge_id(self):
        # two predecessors finish at exactly the same time: the backtrack
        # must pick the one reached through the lowest edge id
        builder = GraphBuilder(nranks=2)
        a = builder.add_calc(0, 5.0)
        b = builder.add_calc(1, 5.0)
        join = builder.add_calc(0, 1.0)
        builder.add_dependency(a, join)   # edge 0
        builder.add_dependency(b, join)   # edge 1
        graph = builder.freeze()
        params = LogGPSParams(L=0.0, o=0.0, g=0.0, G=0.0)
        result = simulate(graph, params)
        assert result.end[a] == result.end[b]
        assert result.critical_path(graph) == [a, join]

    def test_comm_tie_breaks_to_lowest_edge_id(self):
        # two messages arriving at the same instant at one join
        builder = GraphBuilder(nranks=3)
        s0 = builder.add_send(0, 2, 8, tag=0)
        s1 = builder.add_send(1, 2, 8, tag=1)
        r0 = builder.add_recv(2, 0, 8, tag=0)
        r1 = builder.add_recv(2, 1, 8, tag=1)
        join = builder.add_calc(2, 1.0)
        builder.add_comm_edge(s0, r0)
        builder.add_comm_edge(s1, r1)
        builder.add_dependency(r0, join)
        builder.add_dependency(r1, join)
        graph = builder.freeze()
        params = LogGPSParams(L=3.0, o=0.5, g=0.0, G=0.0)
        result = simulate(graph, params)
        assert result.end[r0] == result.end[r1]
        path = result.critical_path(graph)
        assert path == [s0, r0, join]
        assert result.critical_path_messages(graph) == 1


# ---------------------------------------------------------------------------
# LP-oracle anchor (Hypothesis): the level engine *is* the forward pass
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    L=st.floats(min_value=0.0, max_value=20.0),
    o=st.floats(min_value=0.0, max_value=5.0),
)
def test_level_engine_forward_pass_equals_lp_optimum(seed, L, o):
    graph = build_random_dag(seed, nranks=3, rounds=8)
    params = LogGPSParams(L=L, o=o, g=0.0, G=0.001)
    completion = forward_pass(graph, params)
    lp_runtime = build_lp(graph, params).solve_runtime().objective
    assert float(completion.max()) == pytest.approx(lp_runtime, rel=1e-7, abs=1e-7)
    # and the level engine with the NIC resource active agrees when g = 0
    # only through the per-rank program-order chains — pin full parity too
    level = simulate(graph, params)
    legacy = reference(graph, params)
    np.testing.assert_allclose(level.end, legacy.end, atol=1e-9)


class TestSweepGrid:
    """The 2-D ``(injector × ΔL)`` grid vs the per-injector sweep loop."""

    DELTAS = np.array([0.0, 3.0, 11.0, 40.0])

    @staticmethod
    def _graph(nranks=4):
        def app(comm):
            for it in range(3):
                comm.compute(20.0)
                nxt = (comm.rank + 1) % comm.size
                prv = (comm.rank - 1) % comm.size
                req = comm.irecv(prv, 512, tag=it)
                comm.send(nxt, 512, tag=it)
                comm.wait(req)
                comm.allreduce(256)

        return build_graph(run_program(app, nranks))

    def test_rows_match_per_injector_sweeps(self):
        from repro.simulator import simulate_sweep_grid

        graph = self._graph()
        grid = simulate_sweep_grid(
            graph, PARAMS, self.DELTAS, injectors=INJECTOR_NAMES
        )
        for i, name in enumerate(INJECTOR_NAMES):
            sweep = simulate_sweep(graph, PARAMS, self.DELTAS, injector=name)
            np.testing.assert_array_equal(grid.makespan[i], sweep.makespan, err_msg=name)
            np.testing.assert_array_equal(
                grid.rank_finish[i], sweep.rank_finish, err_msg=name
            )

    def test_sweep_slice_round_trips(self):
        from repro.simulator import simulate_sweep_grid

        graph = self._graph()
        grid = simulate_sweep_grid(
            graph, PARAMS, self.DELTAS, injectors=("ideal", "sender_delay")
        )
        sweep = grid.sweep("sender_delay")
        assert sweep.injector == "sender_delay"
        np.testing.assert_array_equal(sweep.deltas, self.DELTAS)
        np.testing.assert_array_equal(sweep.makespan, grid.makespan[1])

    def test_uniform_latency_matrix_matches_scalar_latency(self):
        from repro.simulator import simulate_sweep_grid

        graph = self._graph()
        matrix = np.full((graph.nranks, graph.nranks), PARAMS.L)
        scalar = simulate_sweep_grid(graph, PARAMS, self.DELTAS)
        matrixed = simulate_sweep_grid(
            graph, PARAMS, self.DELTAS, latency_matrices=matrix
        )
        np.testing.assert_allclose(matrixed.makespan, scalar.makespan, atol=1e-9)
        np.testing.assert_allclose(matrixed.rank_finish, scalar.rank_finish, atol=1e-9)

    def test_per_point_matrices_equal_wire_deltas(self):
        # point k simulated under base latency L + DELTAS[k] must equal the
        # ideal injector sweeping DELTAS over the scalar L
        from repro.simulator import simulate_sweep_grid

        graph = self._graph()
        P = graph.nranks
        stack = np.stack(
            [np.full((P, P), PARAMS.L + d) for d in self.DELTAS]
        )
        per_point = simulate_sweep_grid(
            graph, PARAMS, np.zeros(len(self.DELTAS)), latency_matrices=stack
        )
        swept = simulate_sweep_grid(graph, PARAMS, self.DELTAS)
        np.testing.assert_allclose(per_point.makespan, swept.makespan, atol=1e-9)

    def test_track_nic_false_matches_forward_pass(self):
        from repro.simulator import simulate_sweep_grid

        graph = self._graph()
        grid = simulate_sweep_grid(
            graph, PARAMS, [0.0], injectors=("ideal",), track_nic=False
        )
        completion = forward_pass(graph, PARAMS)
        assert grid.makespan[0, 0] == pytest.approx(float(completion.max()), abs=1e-9)

    def test_unknown_injector_rejected(self):
        from repro.simulator import simulate_sweep_grid

        with pytest.raises(ValueError, match="injector"):
            simulate_sweep_grid(self._graph(), PARAMS, [0.0], injectors=("warp",))

    def test_bad_matrix_shape_rejected(self):
        from repro.simulator import simulate_sweep_grid

        graph = self._graph()
        with pytest.raises(ValueError, match="latency_matrices"):
            simulate_sweep_grid(
                graph, PARAMS, [0.0, 1.0], latency_matrices=np.zeros((2, 3))
            )

    def test_empty_grid_shapes(self):
        from repro.simulator import simulate_sweep_grid

        graph = self._graph()
        grid = simulate_sweep_grid(graph, PARAMS, [], injectors=INJECTOR_NAMES)
        assert grid.makespan.shape == (len(INJECTOR_NAMES), 0)
        assert grid.rank_finish.shape == (len(INJECTOR_NAMES), 0, graph.nranks)
