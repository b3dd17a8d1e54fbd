"""Tests for Algorithm 1 (graph -> LP) using the paper's running example."""

import pytest

from repro.core import analyze_critical_path, build_lp
from repro.core.critical_latency import find_critical_latencies
from repro.network.params import LogGPSParams
from repro.schedgen.graph import GraphBuilder

from repro.testing import build_lp_symbolic


class TestRunningExample:
    """Fig. 4 / 5 / 6 of the paper, reproduced quantitatively."""

    def test_fig4b_late_sender_makes_lambda_one(self, late_sender_example, paper_params):
        lp = build_lp(late_sender_example, paper_params)
        solution = lp.solve_runtime(L=0.0)
        # T = L + 2.015 µs with L = 0
        assert solution.objective == pytest.approx(2.015)
        assert lp.latency_sensitivity(solution) == pytest.approx(1.0)

    def test_fig4c_runtime_below_critical_latency(self, running_example, paper_params):
        lp = build_lp(running_example, paper_params)
        solution = lp.solve_runtime(L=0.0)
        assert solution.objective == pytest.approx(1.5)
        assert lp.latency_sensitivity(solution) == pytest.approx(0.0, abs=1e-9)

    def test_fig5_runtime_at_half_microsecond(self, running_example, paper_params):
        lp = build_lp(running_example, paper_params)
        solution = lp.solve_runtime(L=0.5)
        assert solution.objective == pytest.approx(1.615)
        assert lp.latency_sensitivity(solution) == pytest.approx(1.0)

    def test_fig6_latency_tolerance(self, running_example, paper_params):
        lp = build_lp(running_example, paper_params)
        lp.set_latency_bound(0.0)
        solution = lp.solve_max_latency(2.0)
        assert solution.objective == pytest.approx(0.885)

    def test_critical_latency_value(self, running_example, paper_params):
        lp = build_lp(running_example, paper_params)
        latencies = find_critical_latencies(lp, 0.0, 1.0)
        assert len(latencies) == 1
        assert latencies[0] == pytest.approx(0.385, abs=1e-6)

    def test_algorithm2_interval_of_appendix_d(self, running_example, paper_params):
        """Appendix D sweeps [0.2, 0.5] and finds the single breakpoint 0.385."""
        lp = build_lp(running_example, paper_params)
        latencies = find_critical_latencies(lp, 0.2, 0.5)
        assert latencies == pytest.approx([0.385], abs=1e-6)

    def test_max_latency_restores_model(self, running_example, paper_params):
        lp = build_lp(running_example, paper_params)
        n_constraints = lp.model.num_constraints
        lp.set_latency_bound(0.0)
        lp.solve_max_latency(2.0)
        assert lp.model.num_constraints == n_constraints
        # and a subsequent runtime solve still works
        assert lp.solve_runtime(L=0.5).objective == pytest.approx(1.615)


class TestLPStructure:
    def test_lp_size_is_linear_in_graph(self, running_example, paper_params):
        lp = build_lp(running_example, paper_params)
        graph = running_example
        assert lp.model.num_vars <= graph.num_vertices + 2
        assert lp.model.num_constraints <= graph.num_edges + len(graph.sinks())

    def test_constant_latency_mode(self, running_example, paper_params):
        lp = build_lp(running_example, paper_params.with_latency(0.5), latency_mode="constant")
        assert lp.latency is None
        solution = lp.model.solve()
        assert solution.objective == pytest.approx(1.615)

    def test_latency_bound_error_in_per_pair_mode(self, running_example, paper_params):
        lp = build_lp(running_example, paper_params, latency_mode="per_pair")
        with pytest.raises(ValueError):
            lp.set_latency_bound(1.0)
        assert (0, 1) in lp.pair_latency

    def test_invalid_modes_rejected(self, running_example, paper_params):
        with pytest.raises(ValueError):
            build_lp(running_example, paper_params, latency_mode="weird")
        with pytest.raises(ValueError):
            build_lp(running_example, paper_params, gap_mode="weird")
        with pytest.raises(ValueError):
            build_lp(running_example, paper_params, overhead_mode="weird")

    def test_gap_sensitivity_counts_bytes(self, paper_params):
        """λ_G should equal the bytes (minus one per message) on the critical path."""
        builder = GraphBuilder(nranks=2)
        s = builder.add_send(0, 1, 1001)
        r = builder.add_recv(1, 0, 1001)
        builder.add_comm_edge(s, r)
        graph = builder.freeze()
        params = LogGPSParams(L=1.0, o=0.0, G=0.001)
        lp = build_lp(graph, params, gap_mode="global")
        solution = lp.solve_runtime()
        assert lp.gap_sensitivity(solution) == pytest.approx(1000.0)

    def test_overhead_symbolic_mode(self, running_example):
        params = LogGPSParams(L=0.0, o=0.25, G=0.005)
        lp = build_lp(running_example, params, overhead_mode="global")
        solution = lp.solve_runtime(L=0.0)
        reference = analyze_critical_path(running_example, params).runtime
        assert solution.objective == pytest.approx(reference)

    def test_per_pair_latency_sensitivities(self, running_example, paper_params):
        lp = build_lp(running_example, paper_params, latency_mode="per_pair")
        lp.set_pair_latency_bounds({(0, 1): 0.5})
        solution = lp.model.solve()
        matrix = lp.pair_latency_sensitivities(solution)
        assert matrix[0, 1] == pytest.approx(1.0)
        assert matrix[1, 0] == pytest.approx(1.0)
        assert matrix[0, 0] == 0.0


class TestAgainstGraphAnalysis:
    @pytest.mark.parametrize("L", [0.0, 0.1, 0.385, 0.5, 2.0, 10.0])
    def test_lp_equals_forward_pass(self, running_example, paper_params, L):
        lp = build_lp(running_example, paper_params)
        lp_runtime = lp.solve_runtime(L=L).objective
        cp_runtime = analyze_critical_path(running_example, paper_params.with_latency(L)).runtime
        assert lp_runtime == pytest.approx(cp_runtime)

    def test_simplex_backend_agrees(self, running_example, paper_params):
        lp = build_lp(running_example, paper_params)
        highs = lp.solve_runtime(L=0.5, backend="highs")
        simplex = lp.solve_runtime(L=0.5, backend="simplex")
        assert highs.objective == pytest.approx(simplex.objective)
        assert lp.latency_sensitivity(highs) == pytest.approx(lp.latency_sensitivity(simplex))


class TestFusedEngineOption:
    """LPs of the graph a :class:`ScheduleBatches` spec builds."""

    @staticmethod
    def _program_and_graph(params):
        from repro.mpi import run_program
        from repro.schedgen import build_graph
        from repro.schedgen.builder import ProtocolConfig

        def app(comm):
            for _ in range(2):
                comm.compute(1.0)
                comm.allreduce(512)

        program = run_program(app, 4)
        graph = build_graph(program, protocol=ProtocolConfig.from_params(params))
        return program, graph

    def test_schedule_batches_source_matches_frozen_graph(self, paper_params):
        import numpy as np
        from repro.schedgen.columnar import ScheduleBatches

        program, graph = self._program_and_graph(paper_params)
        spec = ScheduleBatches.from_program(program)
        from_spec = build_lp(spec.graph_for(paper_params), paper_params)
        from_graph = build_lp(graph, paper_params)
        a, b = from_spec.model.to_arrays(), from_graph.model.to_arrays()
        assert a.keys() == b.keys()
        for key in a:
            if isinstance(a[key], np.ndarray):
                np.testing.assert_array_equal(a[key], b[key], err_msg=key)
            else:
                assert a[key] == b[key], key
        assert (
            from_spec.solve_runtime(L=1.0, backend="highs").objective
            == from_graph.solve_runtime(L=1.0, backend="highs").objective
        )

    def test_symbolic_reference_runs_on_materialised_spec_graph(self, paper_params):
        # the symbolic reference on the analyze-only graph a spec
        # materialises: same objective as the compiled lowering in every mode
        from repro.schedgen.columnar import ScheduleBatches

        program, _ = self._program_and_graph(paper_params)
        graph = ScheduleBatches.from_program(program).graph_for(paper_params)
        for lm in ("global", "per_pair", "constant"):
            for gm in ("constant", "global", "per_pair"):
                for om in ("constant", "global"):
                    modes = dict(latency_mode=lm, gap_mode=gm, overhead_mode=om)
                    symbolic = build_lp_symbolic(graph, paper_params, **modes)
                    compiled = build_lp(graph, paper_params, **modes)
                    assert symbolic.model.solve().objective == pytest.approx(
                        compiled.model.solve().objective
                    ), modes
