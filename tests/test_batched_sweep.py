"""Tests for latency sweeps read off one envelope: the curve against cold
LP solves, ``lp_envelope`` (the LP tangent search) and
``batched_sweep_graphs``."""

import numpy as np
import pytest

from repro import CSCS_TESTBED
from repro.core import (
    EnvelopeOverflowError,
    LatencyAnalyzer,
    batched_sweep_graphs,
    build_lp,
    forward_envelope,
    lp_envelope,
)
from repro.network.params import LogGPSParams
from repro.testing import (
    build_random_dag,
    build_running_example,
    build_staircase,
    lp_sensitivity_curve,
)

ZERO_OVERHEAD = LogGPSParams(L=0.0, o=0.0, g=0.0, G=0.0)


def cold_values(graph, params, Ls):
    lp = build_lp(graph, params)
    return np.array(
        [lp.solve_runtime(L=float(L), backend="highs").objective for L in Ls]
    )


class TestBatchedSweep:
    def test_matches_cold_solves_on_running_example(self, running_example, paper_params):
        envelope = forward_envelope(running_example, paper_params, l_min=0.0, l_max=2.0)
        Ls = np.linspace(0.0, 2.0, 100)
        np.testing.assert_allclose(
            envelope.sample(Ls), cold_values(running_example, paper_params, Ls), atol=1e-6
        )

    def test_breakpoints_match_parametric_engine(self, running_example, paper_params):
        envelope = forward_envelope(running_example, paper_params, l_min=0.0, l_max=2.0)
        # the ParametricLP tangent search is the independent reference
        reference = lp_envelope(build_lp(running_example, paper_params), 0.0, 2.0)
        assert envelope.breakpoints() == pytest.approx(reference.breakpoints(), abs=1e-6)
        assert envelope.breakpoints() == pytest.approx([0.385], abs=1e-6)

    def test_staircase_breakpoints_and_values(self):
        k = 6
        graph = build_staircase(k)
        envelope = lp_envelope(build_lp(graph, ZERO_OVERHEAD), 0.0, float(k + 2))
        assert envelope.breakpoints() == pytest.approx(list(range(1, k)), abs=1e-6)
        Ls = np.linspace(0.0, k + 2, 80)
        np.testing.assert_allclose(
            envelope.sample(Ls), cold_values(graph, ZERO_OVERHEAD, Ls), atol=1e-6
        )

    def test_sensitivities_match_lp_away_from_breakpoints(self, running_example, paper_params):
        envelope = forward_envelope(running_example, paper_params, l_min=0.0, l_max=2.0)
        lp = build_lp(running_example, paper_params)
        for L in (0.1, 0.2, 0.5, 1.0, 1.7):
            solution = lp.solve_runtime(L=L)
            assert envelope.slope(L) == pytest.approx(
                lp.latency_sensitivity(solution), abs=1e-6
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_random_dags_match_cold_solves(self, seed):
        graph = build_random_dag(seed, nranks=4, rounds=12)
        params = LogGPSParams(L=0.5, o=0.2, g=0.0, G=0.001)
        Ls = np.linspace(0.5, 20.0, 40)
        cold = cold_values(graph, params, Ls)
        for envelope in (
            forward_envelope(graph, params, l_min=0.5, l_max=20.0),
            lp_envelope(build_lp(graph, params), 0.5, 20.0),
        ):
            np.testing.assert_allclose(envelope.sample(Ls), cold, atol=1e-6)

    def test_fig01_tolerance_zone_parameters(self):
        """The CSCS testbed configuration used by the Fig. 1 sweeps."""
        from repro.apps import lulesh

        graph = lulesh.build(4, params=CSCS_TESTBED, iterations=2)
        l_max = CSCS_TESTBED.L + 300.0
        envelope = forward_envelope(graph, CSCS_TESTBED, l_min=CSCS_TESTBED.L, l_max=l_max)
        Ls = CSCS_TESTBED.L + np.linspace(0.0, 100.0, 20)
        np.testing.assert_allclose(
            envelope.sample(Ls), cold_values(graph, CSCS_TESTBED, Ls), atol=1e-6
        )
        # latency tolerance from the envelope == dedicated max-l LP
        baseline = envelope.value(CSCS_TESTBED.L)
        bound = 1.05 * baseline
        lp_reference = build_lp(graph, CSCS_TESTBED)
        lp_reference.set_latency_bound(CSCS_TESTBED.L)
        expected = lp_reference.solve_max_latency(bound).objective
        assert envelope.solve_for_value(bound) == pytest.approx(expected, rel=1e-6)

    def test_envelope_overflow_raised(self):
        lp = build_lp(build_staircase(6), ZERO_OVERHEAD)
        with pytest.raises(EnvelopeOverflowError):
            lp_envelope(lp, 0.0, 10.0, max_pieces=3)

    def test_requires_global_latency_mode(self, running_example, paper_params):
        lp = build_lp(running_example, paper_params, latency_mode="per_pair")
        with pytest.raises(ValueError, match="per-pair latency mode"):
            lp_envelope(lp, 0.0, 10.0)

    def test_invalid_interval_rejected(self, running_example, paper_params):
        lp = build_lp(running_example, paper_params)
        with pytest.raises(ValueError):
            lp_envelope(lp, 2.0, 1.0)


class TestVectorisedSlopes:
    """``PiecewiseLinear.slopes`` is parity-pinned against the scalar path."""

    def _assert_parity(self, envelope, xs):
        scalar = np.array([envelope.slope(float(x)) for x in xs])
        np.testing.assert_array_equal(envelope.slopes(xs), scalar)

    def test_staircase_including_exact_breakpoints(self):
        k = 6
        envelope = forward_envelope(
            build_staircase(k), ZERO_OVERHEAD, l_min=0.0, l_max=float(k + 2)
        )
        bps = envelope.breakpoints()
        assert len(bps) == k - 1
        xs = np.concatenate([
            np.linspace(0.0, k + 2, 101),
            np.array(bps),
            np.array(bps) - 1e-12,  # within the scalar tolerance from the left
            np.array(bps) + 1e-12,
        ])
        self._assert_parity(envelope, xs)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_dags(self, seed):
        graph = build_random_dag(seed, nranks=4, rounds=12)
        params = LogGPSParams(L=0.5, o=0.2, g=0.0, G=0.001)
        envelope = forward_envelope(graph, params, l_min=0.5, l_max=20.0)
        xs = np.concatenate([np.linspace(0.5, 20.0, 77), np.array(envelope.breakpoints())])
        self._assert_parity(envelope, xs)

    def test_sensitivities_uses_the_vectorised_path(self, running_example, paper_params):
        analyzer = LatencyAnalyzer(running_example, paper_params)
        deltas = np.linspace(0.0, 2.0, 50)
        np.testing.assert_array_equal(
            analyzer.sensitivity_curve(deltas).latency_sensitivity,
            analyzer.analysis.envelope.slopes(paper_params.L + deltas),
        )

    def test_single_line_envelope(self):
        from repro.core.parametric import Line, PiecewiseLinear

        env = PiecewiseLinear(lines=[Line(2.0, 1.0)], lo=0.0, hi=10.0)
        self._assert_parity(env, np.linspace(0.0, 10.0, 11))


class TestBatchedSweepGraphs:
    def test_serial_and_parallel_agree(self, paper_params):
        graphs = [build_running_example(0.1), build_running_example(1.0), build_staircase(4)]
        serial = batched_sweep_graphs(graphs, ZERO_OVERHEAD, l_min=0.0, l_max=5.0)
        parallel = batched_sweep_graphs(
            graphs, ZERO_OVERHEAD, l_min=0.0, l_max=5.0, processes=2
        )
        Ls = np.linspace(0.0, 5.0, 30)
        for env_serial, env_parallel in zip(serial, parallel):
            np.testing.assert_allclose(
                env_serial.sample(Ls), env_parallel.sample(Ls), atol=1e-12
            )


    def test_schedule_batches_spec_accepted_serially(self):
        from repro.mpi import run_program
        from repro.schedgen import build_graph
        from repro.schedgen.builder import ProtocolConfig
        from repro.schedgen.columnar import ScheduleBatches

        def app(comm):
            for _ in range(2):
                comm.compute(5.0)
                comm.allreduce(1024)

        program = run_program(app, 4)
        params = LogGPSParams(L=1.0, o=0.5, g=0.0, G=0.001)
        graph = build_graph(program, protocol=ProtocolConfig.from_params(params))
        # the spec's graph dedupes with the program-built one by digest
        spec_graph = ScheduleBatches.from_program(program).graph_for(params)
        env_graph, env_spec = batched_sweep_graphs(
            [graph, spec_graph], params, l_min=0.0, l_max=50.0
        )
        assert env_spec is env_graph
        Ls = np.linspace(0.0, 50.0, 20)
        np.testing.assert_allclose(env_spec.sample(Ls), env_graph.sample(Ls), atol=1e-12)


class TestAnalyzerIntegration:
    def test_batched_engine_matches_lp_engine(self, running_example, paper_params):
        # the envelope-read curve against one cold LP solve per point
        deltas = np.linspace(0.0, 2.0, 25)
        lp_curve = lp_sensitivity_curve(running_example, paper_params, deltas)
        batched_curve = LatencyAnalyzer(running_example, paper_params).sensitivity_curve(
            deltas
        )
        np.testing.assert_allclose(batched_curve.runtime, lp_curve.runtime, atol=1e-6)
        np.testing.assert_allclose(batched_curve.l_ratio, lp_curve.l_ratio, atol=1e-6)

    def test_empty_sweep_matches_lp_engine(self, running_example, paper_params):
        for curve in (
            LatencyAnalyzer(running_example, paper_params).sensitivity_curve([]),
            lp_sensitivity_curve(running_example, paper_params, []),
        ):
            assert curve.runtime.size == 0
            assert curve.l_ratio.size == 0

    def test_batched_sweep_helper_defaults_to_baseline_latency(self):
        graph = build_running_example()
        params = LogGPSParams(L=0.25, o=0.0, g=0.0, G=0.005)
        analysis = LatencyAnalyzer(graph, params).parametric(l_max=2.0)
        assert analysis.envelope.lo == 0.25
        assert analysis.runtime(0.5) == pytest.approx(1.615)
