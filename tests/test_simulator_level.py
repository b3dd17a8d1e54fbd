"""Parity suite: the one level engine vs the per-vertex oracle.

The contract is *timestamp identity* (atol 1e-9): for any graph, injector
and noise model, the level engine (:mod:`repro.simulator.columnar`: one run
through :func:`repro.simulator.simulate`, a sweep or a grid through
:func:`simulate_sweep`/:func:`simulate_sweep_grid`) must produce the
per-vertex start/end times, makespan and per-rank finish times of the
per-vertex oracle (:class:`repro.testing.LogGOPSSimulator`), and a one-row
call must equal its row of a grid bit for bit.  The suite sweeps every
injector × noise model over random DAGs and every collective algorithm,
anchors the engine against the LP oracle through the ``forward_pass == LP
optimum`` property, and pins the one critical-path backtrack.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import LatencyAnalyzer
from repro.apps import ALL_APPS
from repro.core import analyze_critical_path, build_lp
from repro.core.envelope import pair_forward_evaluator
from repro.core.graph_analysis import forward_pass
from repro.mpi import run_program
from repro.network.params import CSCS_TESTBED, LogGPSParams
from repro.schedgen import CollectiveAlgorithms, build_graph
from repro.schedgen.graph import GraphBuilder
from repro.simulator import (
    INJECTOR_NAMES,
    GaussianNoise,
    NoNoise,
    OSJitterNoise,
    make_injector,
    simulate,
    simulate_sweep,
    simulate_sweep_grid,
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


def engine_vs_oracle(graph, params=PARAMS, *, injector_name="ideal", delta=7.0,
                     noise_name="none"):
    oracle = reference(
        graph, params, injector=make_injector(injector_name, delta),
        noise=NOISE_FACTORIES[noise_name](),
    )
    engine = simulate(
        graph, params, injector=make_injector(injector_name, delta),
        noise=NOISE_FACTORIES[noise_name](),
    )
    assert_identical(oracle, engine)
    return oracle, engine


class TestEngineParity:
    @pytest.mark.parametrize("injector_name", INJECTOR_NAMES)
    @pytest.mark.parametrize("noise_name", sorted(NOISE_FACTORIES))
    @pytest.mark.parametrize("seed", range(4))
    def test_random_dags(self, injector_name, noise_name, seed):
        graph = build_random_dag(seed, nranks=4, rounds=12)
        engine_vs_oracle(graph, injector_name=injector_name, noise_name=noise_name)

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
        engine_vs_oracle(graph, injector_name=injector_name, noise_name="gaussian")

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
        engine_vs_oracle(graph, injector_name=injector_name, noise_name="jitter")

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
            engine_vs_oracle(graph, injector_name=injector_name)

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
            engine_vs_oracle(build_graph(run_program(app, nranks)))

    def test_same_level_sends_serialise_on_the_nic(self):
        # two unchained sends of one rank share a level: the NIC gap must
        # serialise them in vertex-id order in the engine and the oracle
        builder = GraphBuilder(nranks=2)
        s0 = builder.add_send(0, 1, 64, tag=0)
        s1 = builder.add_send(0, 1, 64, tag=1)
        r0 = builder.add_recv(1, 0, 64, tag=0)
        r1 = builder.add_recv(1, 0, 64, tag=1)
        builder.add_comm_edge(s0, r0)
        builder.add_comm_edge(s1, r1)
        graph = builder.freeze()
        params = LogGPSParams(L=1.0, o=0.2, g=5.0, G=0.0)
        oracle, engine = engine_vs_oracle(graph, params, delta=0.0)
        # the second send waited for the gap
        assert engine.start[s1] == pytest.approx(oracle.start[s0] + params.g)

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
        _, engine = engine_vs_oracle(
            graph, injector_name="receiver_progress", delta=9.0
        )
        # the second release queued behind the first: 2 * delta apart
        assert engine.end[r1] - engine.end[r0] == pytest.approx(9.0)

    def test_track_nic_false_matches_forward_pass(self):
        # every vertex of a random DAG is chained on its rank, so with g = 0
        # the NIC gap never delays a send: the oracle is the forward pass
        graph = build_random_dag(3, nranks=3, rounds=10)
        completion = forward_pass(graph, PARAMS)
        oracle = reference(graph, PARAMS.replace(g=0.0))
        np.testing.assert_allclose(completion, oracle.end, atol=1e-9)
        cp = analyze_critical_path(graph, PARAMS)
        assert cp.runtime == float(completion.max())


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

    def test_sweep_matches_oracle(self):
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


class TestOneEngine:
    """A one-row call is row ``k`` of a ``K``-row grid, bit for bit."""

    DELTAS = (0.0, 3.0, 11.0, 40.0)

    @pytest.mark.parametrize("noise_name", sorted(NOISE_FACTORIES))
    @pytest.mark.parametrize("seed", range(2))
    def test_one_row_equals_grid_row(self, noise_name, seed):
        graph = build_random_dag(seed, nranks=4, rounds=12)
        grid = simulate_sweep_grid(
            graph, PARAMS, self.DELTAS, injectors=INJECTOR_NAMES,
            noise=NOISE_FACTORIES[noise_name](),
        )
        for i, name in enumerate(INJECTOR_NAMES):
            for k, delta in enumerate(self.DELTAS):
                one = simulate(
                    graph, PARAMS, injector=make_injector(name, delta),
                    noise=NOISE_FACTORIES[noise_name](),
                )
                assert one.makespan == grid.makespan[i, k], (name, delta)
                np.testing.assert_array_equal(one.rank_finish, grid.rank_finish[i, k])
                point = simulate_sweep(
                    graph, PARAMS, [delta], injector=name,
                    noise=NOISE_FACTORIES[noise_name](),
                )
                np.testing.assert_array_equal(point.makespan, grid.makespan[i, k:k + 1])

    @pytest.mark.parametrize("noise_name", ["gaussian", "jitter"])
    def test_perturb_many_is_stream_equivalent(self, noise_name):
        durations = np.array([1.0, 0.0, 2.5, -1.0, 3.0, 0.0, 7.0])
        batch = NOISE_FACTORIES[noise_name]()
        scalar = NOISE_FACTORIES[noise_name]()
        got = batch.perturb_many(durations)
        expected = [scalar.perturb(float(d)) for d in durations]
        np.testing.assert_allclose(got, expected)

    def test_undeclared_protocols_rejected(self):
        # an injector must declare where its ΔL enters, and a noise model
        # must perturb a whole level per call: scalar-only objects are refused
        class ScalarInjector:
            delta = 2.0

            def release_time(self, dst_rank, arrival):
                return arrival + self.delta

        class ScalarNoise:
            def reset(self):
                pass

            def perturb(self, duration):
                return duration * 2.0

        graph = build_random_dag(4, nranks=3, rounds=8)
        with pytest.raises(TypeError, match="^ScalarInjector declares no ΔL entry point"):
            simulate(graph, PARAMS, injector=ScalarInjector())
        with pytest.raises(TypeError, match=r"^ScalarNoise has no perturb_many\(durations\)"):
            simulate(graph, PARAMS, noise=ScalarNoise())


def _lulesh4():
    return ALL_APPS["lulesh"].build(4, params=CSCS_TESTBED)


DELTA_MESSAGE = "delta_L values must be finite and non-negative"
MATRIX_MESSAGE = "latency_matrices entries must be finite and non-negative"


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda g: simulate(g, CSCS_TESTBED, delta_L=-100.0), DELTA_MESSAGE,
                     id="simulate-negative"),
        pytest.param(lambda g: simulate(g, CSCS_TESTBED, delta_L=math.nan), DELTA_MESSAGE,
                     id="simulate-nan"),
        pytest.param(lambda g: simulate(g, CSCS_TESTBED, delta_L=math.inf), DELTA_MESSAGE,
                     id="simulate-inf"),
        pytest.param(lambda g: simulate(g, CSCS_TESTBED, injector=make_injector(
            "sender_delay", math.nan)), DELTA_MESSAGE, id="injector-nan"),
        pytest.param(lambda g: simulate(g, CSCS_TESTBED, injector=make_injector(
            "receiver_progress", -1.0)), DELTA_MESSAGE, id="injector-negative"),
        pytest.param(lambda g: simulate_sweep(g, CSCS_TESTBED, [0.0, math.nan]),
                     DELTA_MESSAGE, id="sweep-nan"),
        pytest.param(lambda g: simulate_sweep_grid(
            g, CSCS_TESTBED, [-5.0], injectors=INJECTOR_NAMES), DELTA_MESSAGE,
            id="grid-negative"),
        pytest.param(lambda g: LatencyAnalyzer(g, CSCS_TESTBED).simulate(-1.0),
                     DELTA_MESSAGE, id="analyzer-simulate"),
        pytest.param(lambda g: LatencyAnalyzer(g, CSCS_TESTBED).simulated_sweep(
            [1.0, math.inf]), DELTA_MESSAGE, id="analyzer-simulated-sweep"),
        pytest.param(lambda g: LatencyAnalyzer(g, CSCS_TESTBED).graph_analysis(-2.0),
                     DELTA_MESSAGE, id="analyzer-graph-analysis"),
        pytest.param(lambda g: simulate_sweep_grid(g, CSCS_TESTBED, [0.0], latency_matrices=(
            np.full((4, 4), -50.0))), MATRIX_MESSAGE, id="matrix-negative"),
        pytest.param(lambda g: simulate_sweep_grid(g, CSCS_TESTBED, [0.0], latency_matrices=(
            np.full((4, 4), math.nan))), MATRIX_MESSAGE, id="matrix-nan"),
        pytest.param(lambda g: simulate_sweep_grid(g, CSCS_TESTBED, [0.0], latency_matrices=(
            np.full((1, 4, 4), math.inf))), MATRIX_MESSAGE, id="matrix-inf"),
        pytest.param(lambda g: GaussianNoise(sigma=math.nan),
                     "sigma must be finite and non-negative, got nan", id="sigma-nan"),
        pytest.param(lambda g: GaussianNoise(sigma=math.inf),
                     "sigma must be finite and non-negative, got inf", id="sigma-inf"),
        pytest.param(lambda g: OSJitterNoise(spike=math.nan),
                     "spike must be finite and non-negative, got nan", id="spike-nan"),
        pytest.param(lambda g: OSJitterNoise(spike=-1.0),
                     "spike must be finite and non-negative, got -1.0", id="spike-negative"),
    ],
)
def test_bad_simulator_inputs_rejected(call, message):
    with pytest.raises(ValueError) as info:
        call(_lulesh4())
    assert str(info.value) == message


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
        assert analyze_critical_path(graph, params).path == [a, join]

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
        cp = analyze_critical_path(graph, params)
        assert cp.path == [s0, r0, join]
        assert (cp.messages_on_path, cp.bytes_on_path) == (1, 7)


class TestOneCriticalPath:
    """``analyze_critical_path``'s path fields, against the runtime and
    against the per-pair forward pass (λ_L and λ_G on its backtrack)."""

    @pytest.mark.parametrize("app", sorted(ALL_APPS))
    @pytest.mark.parametrize("nranks", [4, 8])
    @pytest.mark.parametrize("allreduce", ["recursive_doubling", "ring"])
    def test_path_fields(self, app, nranks, allreduce):
        graph = ALL_APPS[app].build(
            nranks, params=CSCS_TESTBED,
            algorithms=CollectiveAlgorithms(allreduce=allreduce),
        )
        analyzer = LatencyAnalyzer(graph, CSCS_TESTBED)
        evaluate = pair_forward_evaluator(graph, CSCS_TESTBED)
        for delta in (0.0, 50.0):
            params = CSCS_TESTBED.with_delta_latency(delta)
            cp = analyze_critical_path(graph, params)
            total = (cp.compute_on_path + cp.overhead_on_path + cp.latency_on_path
                     + params.G * cp.bytes_on_path)
            assert total == pytest.approx(cp.runtime, rel=1e-13)
            _, d_l, _ = evaluate(np.full((nranks, nranks), params.L))
            assert cp.messages_on_path == np.triu(d_l).sum()
            assert cp.bytes_on_path == analyzer.bandwidth_sensitivity(delta)
            assert cp.latency_sensitivity == cp.messages_on_path


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

    def test_rows_match_oracle(self):
        graph = self._graph()
        grid = simulate_sweep_grid(
            graph, PARAMS, self.DELTAS, injectors=INJECTOR_NAMES
        )
        for i, name in enumerate(INJECTOR_NAMES):
            for k, delta in enumerate(self.DELTAS):
                point = reference(graph, PARAMS, injector=make_injector(name, delta))
                assert grid.makespan[i, k] == pytest.approx(point.makespan, abs=1e-9)
                np.testing.assert_allclose(
                    grid.rank_finish[i, k], point.rank_finish, atol=1e-9, err_msg=name
                )

    def test_sweep_slice_round_trips(self):
        graph = self._graph()
        grid = simulate_sweep_grid(
            graph, PARAMS, self.DELTAS, injectors=("ideal", "sender_delay")
        )
        sweep = grid.sweep("sender_delay")
        assert sweep.injector == "sender_delay"
        np.testing.assert_array_equal(sweep.deltas, self.DELTAS)
        np.testing.assert_array_equal(sweep.makespan, grid.makespan[1])

    def test_uniform_latency_matrix_matches_scalar_latency(self):
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
        # a program's sends are chained on their rank, so with g = 0 the NIC
        # gap delays none of them: grid, forward pass and oracle agree
        graph = self._graph()
        no_gap = PARAMS.replace(g=0.0)
        grid = simulate_sweep_grid(graph, no_gap, [0.0])
        completion = forward_pass(graph, PARAMS)
        assert grid.makespan[0, 0] == float(completion.max())
        np.testing.assert_allclose(completion, reference(graph, no_gap).end, atol=1e-9)

    def test_unknown_injector_rejected(self):
        with pytest.raises(ValueError, match="injector"):
            simulate_sweep_grid(self._graph(), PARAMS, [0.0], injectors=("warp",))

    def test_bad_matrix_shape_rejected(self):
        graph = self._graph()
        with pytest.raises(ValueError, match="latency_matrices"):
            simulate_sweep_grid(
                graph, PARAMS, [0.0, 1.0], latency_matrices=np.zeros((2, 3))
            )

    def test_empty_grid_shapes(self):
        graph = self._graph()
        grid = simulate_sweep_grid(graph, PARAMS, [], injectors=INJECTOR_NAMES)
        assert grid.makespan.shape == (len(INJECTOR_NAMES), 0)
        assert grid.rank_finish.shape == (len(INJECTOR_NAMES), 0, graph.nranks)
