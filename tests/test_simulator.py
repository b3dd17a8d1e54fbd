"""Tests for the LogGOPS discrete-event simulator and the latency injectors.

Every run goes through :func:`simulate` below, which checks the production
level engine against the per-vertex reference walk
(:class:`repro.testing.LogGOPSSimulator`) before returning.
"""

import numpy as np
import pytest

from repro.core import analyze_critical_path
from repro.mpi import run_program
from repro.network.params import LogGPSParams
from repro.schedgen import build_graph
from repro.simulator import (
    INJECTOR_NAMES,
    DelayThreadInjector,
    GaussianNoise,
    IdealInjector,
    NoNoise,
    OSJitterNoise,
    ReceiverProgressInjector,
    SenderDelayInjector,
    make_injector,
    two_message_model,
)
from repro.simulator import simulate as level_simulate
from repro.testing import LogGOPSSimulator

PARAMS = LogGPSParams(L=2.0, o=1.0, g=0.0, G=0.001)


def simulate(graph, params, *, delta_L=0.0, injector=None, noise=None):
    """:func:`repro.simulator.simulate`, asserted timestamp-identical to the
    reference walk (injectors and noise models reset on every run)."""
    result = level_simulate(graph, params, delta_L=delta_L, injector=injector, noise=noise)
    reference = LogGOPSSimulator(
        graph, params, injector=injector or IdealInjector(delta_L), noise=noise
    ).run()
    np.testing.assert_allclose(result.start, reference.start, rtol=1e-12, atol=1e-9)
    np.testing.assert_allclose(result.end, reference.end, rtol=1e-12, atol=1e-9)
    assert result.makespan == pytest.approx(reference.makespan, rel=1e-12, abs=1e-9)
    return result


def pingpong_graph(iterations=2, size=100):
    def app(comm):
        for it in range(iterations):
            if comm.rank == 0:
                comm.send(1, size, tag=it)
                comm.recv(1, size, tag=1000 + it)
            else:
                comm.recv(0, size, tag=it)
                comm.send(0, size, tag=1000 + it)

    return build_graph(run_program(app, 2))


def two_send_graph():
    """The Fig. 8 micro-benchmark: two eager sends, receives pre-posted."""

    def app(comm):
        if comm.rank == 0:
            comm.send(1, 1, tag=0)
            comm.send(1, 1, tag=1)
        else:
            r0 = comm.irecv(0, 1, tag=0)
            r1 = comm.irecv(0, 1, tag=1)
            comm.waitall([r0, r1])

    return build_graph(run_program(app, 2))


class TestSimulator:
    def test_pingpong_makespan(self):
        graph = pingpong_graph(iterations=1, size=1)
        result = simulate(graph, PARAMS)
        # two messages in sequence: 2 * (2o + L)
        assert result.makespan == pytest.approx(2 * (2 * PARAMS.o + PARAMS.L))

    def test_matches_graph_analysis_without_gap(self):
        graph = pingpong_graph(iterations=3, size=500)
        sim = simulate(graph, PARAMS)
        cp = analyze_critical_path(graph, PARAMS)
        assert sim.makespan == pytest.approx(cp.runtime)

    def test_delta_latency_shifts_runtime(self):
        graph = pingpong_graph(iterations=2, size=1)
        base = simulate(graph, PARAMS).makespan
        shifted = simulate(graph, PARAMS, delta_L=5.0).makespan
        # 4 sequential messages, each delayed by 5 µs
        assert shifted == pytest.approx(base + 4 * 5.0)

    def test_gap_enforced_between_sends(self):
        params = LogGPSParams(L=0.0, o=0.1, g=5.0, G=0.0)

        def app(comm):
            if comm.rank == 0:
                for i in range(3):
                    comm.send(1, 1, tag=i)
            else:
                for i in range(3):
                    comm.recv(0, 1, tag=i)

        graph = build_graph(run_program(app, 2))
        result = simulate(graph, params)
        # the third send cannot start before 2 * g
        assert result.makespan >= 2 * params.g

    def test_rank_finish_times(self):
        graph = pingpong_graph(iterations=1)
        result = simulate(graph, PARAMS)
        assert len(result.rank_finish) == 2
        assert result.makespan == pytest.approx(result.rank_finish.max())

    def test_injector_and_delta_are_exclusive(self):
        graph = pingpong_graph()
        with pytest.raises(ValueError):
            simulate(graph, PARAMS, delta_L=1.0, injector=IdealInjector(2.0))

    def test_critical_path_extraction(self):
        graph = pingpong_graph(iterations=2)
        result = simulate(graph, PARAMS)
        path = result.critical_path(graph)
        assert len(path) >= 2
        # the path ends at the vertex that finishes last
        assert result.end[path[-1]] == pytest.approx(result.makespan)

    def test_noise_increases_runtime(self):
        def app(comm):
            comm.compute(1000.0)
            comm.allreduce(8)

        graph = build_graph(run_program(app, 4))
        quiet = simulate(graph, PARAMS).makespan
        noisy = simulate(
            graph, PARAMS, noise=OSJitterNoise(probability=1.0, spike=50.0, seed=1)
        ).makespan
        assert noisy > quiet

    def test_gaussian_noise_reproducible(self):
        def app(comm):
            comm.compute(1000.0)

        graph = build_graph(run_program(app, 1))
        noise = GaussianNoise(sigma=0.1, seed=7)
        a = simulate(graph, PARAMS, noise=noise).makespan
        b = simulate(graph, PARAMS, noise=GaussianNoise(sigma=0.1, seed=7)).makespan
        assert a == pytest.approx(b)


class TestInjectors:
    def test_make_injector_names(self):
        for name in INJECTOR_NAMES:
            injector = make_injector(name, 3.0)
            assert injector.delta == 3.0
        with pytest.raises(ValueError):
            make_injector("nope", 1.0)

    def test_ideal_equals_delay_thread_in_simulation(self):
        graph = two_send_graph()
        ideal = simulate(graph, PARAMS, injector=IdealInjector(20.0)).makespan
        delay_thread = simulate(graph, PARAMS, injector=DelayThreadInjector(20.0)).makespan
        assert ideal == pytest.approx(delay_thread)

    def test_sender_delay_overestimates(self):
        graph = two_send_graph()
        ideal = simulate(graph, PARAMS, injector=IdealInjector(20.0)).makespan
        sender = simulate(graph, PARAMS, injector=SenderDelayInjector(20.0)).makespan
        assert sender > ideal

    def test_receiver_progress_overestimates_when_delta_large(self):
        graph = two_send_graph()
        ideal = simulate(graph, PARAMS, injector=IdealInjector(50.0)).makespan
        progress = simulate(graph, PARAMS, injector=ReceiverProgressInjector(50.0)).makespan
        assert progress > ideal

    def test_zero_delta_all_equal(self):
        graph = two_send_graph()
        results = {
            name: simulate(graph, PARAMS, injector=make_injector(name, 0.0)).makespan
            for name in INJECTOR_NAMES
        }
        values = list(results.values())
        assert all(v == pytest.approx(values[0]) for v in values)


class TestTwoMessageModel:
    """Closed-form Fig. 8 outcomes."""

    def test_ideal(self):
        out = two_message_model(PARAMS, delta=10.0, strategy="ideal")
        assert out.sender_finish == pytest.approx(2 * PARAMS.o)
        assert out.receiver_finish == pytest.approx(3 * PARAMS.o + PARAMS.L + 10.0)

    def test_delay_thread_matches_ideal(self):
        ideal = two_message_model(PARAMS, delta=10.0, strategy="ideal")
        ours = two_message_model(PARAMS, delta=10.0, strategy="delay_thread")
        assert ours == ideal

    def test_sender_delay_penalty(self):
        out = two_message_model(PARAMS, delta=10.0, strategy="sender_delay")
        assert out.sender_finish == pytest.approx(2 * PARAMS.o + 2 * 10.0)
        assert out.receiver_finish == pytest.approx(3 * PARAMS.o + PARAMS.L + 2 * 10.0)

    def test_receiver_progress_penalty_when_delta_exceeds_o(self):
        delta = 10.0  # > o = 1.0
        out = two_message_model(PARAMS, delta=delta, strategy="receiver_progress")
        assert out.receiver_finish == pytest.approx(2 * PARAMS.o + PARAMS.L + 2 * delta)

    def test_receiver_progress_ok_when_delta_small(self):
        delta = 0.5  # < o
        out = two_message_model(PARAMS, delta=delta, strategy="receiver_progress")
        ideal = two_message_model(PARAMS, delta=delta, strategy="ideal")
        assert out.receiver_finish == pytest.approx(ideal.receiver_finish)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            two_message_model(PARAMS, 1.0, "bogus")


class TestNoiseModels:
    def test_no_noise_identity(self):
        assert NoNoise().perturb(5.0) == 5.0

    def test_gaussian_validation(self):
        with pytest.raises(ValueError):
            GaussianNoise(sigma=-0.1)

    def test_jitter_validation(self):
        with pytest.raises(ValueError):
            OSJitterNoise(probability=1.5)
        with pytest.raises(ValueError):
            OSJitterNoise(spike=-1.0)

    def test_jitter_adds_spike(self):
        noise = OSJitterNoise(probability=1.0, spike=7.0, seed=0)
        assert noise.perturb(3.0) == pytest.approx(10.0)

    def test_zero_duration_untouched(self):
        assert GaussianNoise(sigma=0.5).perturb(0.0) == 0.0
        assert OSJitterNoise(probability=1.0).perturb(0.0) == 0.0


class TestCriticalPathRanking:
    """The tightness ranking must include the wire time of messages."""

    def _shadowed_arrival_graph(self):
        # rank 0: CALC(5) -> SEND; rank 1: CALC(8) -> RECV.  With L = 10 and
        # o = G = 0 the send *ends* at 5 (before the rank-1 CALC at 8), but
        # the message *arrives* at 15 — the comm edge is the tight input of
        # the RECV, and a ranking that ignores wire time picks the CALC.
        from repro.schedgen.graph import GraphBuilder

        builder = GraphBuilder(nranks=2)
        c0 = builder.add_calc(0, 5.0)
        s = builder.add_send(0, 1, 1)
        builder.add_dependency(c0, s)
        c1 = builder.add_calc(1, 8.0)
        r = builder.add_recv(1, 0, 1)
        builder.add_dependency(c1, r)
        builder.add_comm_edge(s, r)
        return builder.freeze(), (c0, s, c1, r)

    def test_comm_arrival_beats_later_dependency_end(self):
        graph, (c0, s, c1, r) = self._shadowed_arrival_graph()
        params = LogGPSParams(L=10.0, o=0.0, g=0.0, G=0.0)
        result = simulate(graph, params)
        # end(c1) = 8 > end(s) = 5, but arrival(s) = 15: the path must take
        # the message, not the dependency predecessor
        assert result.end[c1] > result.end[s]
        path = result.critical_path(graph)
        assert path == [c0, s, r]
        assert result.critical_path_messages(graph) == 1

    def test_wire_time_includes_gap_term(self):
        # 1001-byte message: arrival = end(s) + L + 1000 G = 5 + 1 + 10 = 16,
        # still later than the dependency end at 8 even though L alone (6)
        # would lose the ranking
        from repro.schedgen.graph import GraphBuilder

        builder = GraphBuilder(nranks=2)
        c0 = builder.add_calc(0, 5.0)
        s = builder.add_send(0, 1, 1001)
        builder.add_dependency(c0, s)
        c1 = builder.add_calc(1, 8.0)
        r = builder.add_recv(1, 0, 1001)
        builder.add_dependency(c1, r)
        builder.add_comm_edge(s, r)
        graph = builder.freeze()
        params = LogGPSParams(L=1.0, o=0.0, g=0.0, G=0.01)
        result = simulate(graph, params)
        assert result.critical_path(graph) == [c0, s, r]
        assert result.critical_path_messages(graph) == 1

    def test_critical_path_messages_matches_edge_scan(self):
        from repro.schedgen.graph import EdgeKind

        graph = pingpong_graph(iterations=2)
        result = simulate(graph, PARAMS)
        path = result.critical_path(graph)
        pairs = set(zip(path, path[1:]))
        slow = sum(
            1
            for src, dst, kind in graph.edges()
            if kind is EdgeKind.COMM and (src, dst) in pairs
        )
        assert result.critical_path_messages(graph) == slow
        assert slow >= 1

    def test_rank_finish_is_per_rank_maximum(self):
        graph = pingpong_graph(iterations=3)
        result = simulate(graph, PARAMS)
        for r in range(graph.nranks):
            vids = graph.vertices_of_rank(r)
            assert result.rank_finish[r] == pytest.approx(result.end[vids].max())
