"""Parity tests: the vectorised LP compiler vs the symbolic Algorithm 1 sweep.

:func:`repro.core.build_lp` (the compiled lowering) must produce a
*bit-compatible* LP structure — the same variables in the same order and
row-equivalent constraints in the same row order — so that objectives, duals
and every reduced-cost sensitivity agree with the symbolic reference
(:func:`repro.testing.build_lp_symbolic`), and the parametric machinery
(bound-only updates, the tangent-envelope search, placement) runs unchanged
on compiled models.  Models also round-trip through their canonical array
form (:meth:`LPModel.to_arrays` / :meth:`LPModel.from_arrays`).
"""

import numpy as np
import pytest

from repro.core import build_lp, find_critical_latencies
from repro.lp.assembler import assemble, assembly_counts
from repro.lp.model import LinearExpr, LPModel
from repro.network.params import LogGPSParams
from repro.testing import (
    build_lp_symbolic,
    build_random_dag,
    build_running_example,
    build_staircase,
    lp_envelope,
)

PARAMS = LogGPSParams(L=1.2, o=0.25, g=0.0, G=0.005)

LATENCY_MODES = ("global", "per_pair", "constant")
GAP_MODES = ("constant", "global", "per_pair")
OVERHEAD_MODES = ("constant", "global")
ALL_MODES = [
    (lm, gm, om)
    for lm in LATENCY_MODES
    for gm in GAP_MODES
    for om in OVERHEAD_MODES
]

#: ≥10 random DAGs (varying shape/rank count) + the two structured graphs.
DAGS = [build_random_dag(seed, nranks=3 + seed % 3, rounds=8 + seed % 5) for seed in range(10)]
GRAPHS = [build_running_example(), build_staircase(4), *DAGS]


def _build_pair(graph, lm, gm, om):
    symbolic = build_lp_symbolic(
        graph, PARAMS, latency_mode=lm, gap_mode=gm, overhead_mode=om
    )
    compiled = build_lp(graph, PARAMS, latency_mode=lm, gap_mode=gm, overhead_mode=om)
    return symbolic, compiled


class TestStructuralIdentity:
    @pytest.mark.parametrize("lm,gm,om", ALL_MODES)
    def test_same_variables_and_rows(self, lm, gm, om):
        for graph in GRAPHS:
            symbolic, compiled = _build_pair(graph, lm, gm, om)
            assert [v.name for v in symbolic.model.variables] == [
                v.name for v in compiled.model.variables
            ]
            assert [v.lb for v in symbolic.model.variables] == [
                v.lb for v in compiled.model.variables
            ]
            assert symbolic.model.num_constraints == compiled.model.num_constraints
            assert symbolic.sink_rows == compiled.sink_rows
            assert symbolic.num_messages == compiled.num_messages

            a_sym = assemble(symbolic.model)
            a_comp = assemble(compiled.model)
            A_sym = a_sym.A_ub.copy()
            A_comp = a_comp.A_ub.copy()
            A_sym.sort_indices()
            A_comp.sort_indices()
            assert np.array_equal(A_sym.indptr, A_comp.indptr)
            assert np.array_equal(A_sym.indices, A_comp.indices)
            np.testing.assert_allclose(A_sym.data, A_comp.data, atol=1e-12)
            np.testing.assert_allclose(a_sym.b_ub, a_comp.b_ub, atol=1e-12)
            np.testing.assert_allclose(a_sym.c, a_comp.c, atol=1e-12)

    def test_pair_variable_keys_match(self):
        for graph in DAGS[:4]:
            symbolic, compiled = _build_pair(graph, "per_pair", "per_pair", "constant")
            assert list(symbolic.pair_latency) == list(compiled.pair_latency)
            assert list(symbolic.pair_gap) == list(compiled.pair_gap)
            for key in symbolic.pair_latency:
                assert symbolic.pair_latency[key].index == compiled.pair_latency[key].index


class TestSolutionParity:
    @pytest.mark.parametrize("lm,gm,om", ALL_MODES)
    def test_objective_duals_and_sensitivities(self, lm, gm, om):
        for graph in DAGS:
            symbolic, compiled = _build_pair(graph, lm, gm, om)
            s_sol = symbolic.model.solve(backend="highs")
            c_sol = compiled.model.solve(backend="highs")
            assert c_sol.objective == pytest.approx(s_sol.objective, abs=1e-6)
            np.testing.assert_allclose(s_sol.duals, c_sol.duals, atol=1e-6)
            np.testing.assert_allclose(
                s_sol.reduced_costs, c_sol.reduced_costs, atol=1e-6
            )
            if lm == "global":
                assert compiled.latency_sensitivity(c_sol) == pytest.approx(
                    symbolic.latency_sensitivity(s_sol), abs=1e-6
                )
            if lm == "per_pair":
                np.testing.assert_allclose(
                    symbolic.pair_latency_sensitivities(s_sol),
                    compiled.pair_latency_sensitivities(c_sol),
                    atol=1e-6,
                )
            if gm == "per_pair":
                np.testing.assert_allclose(
                    symbolic.pair_gap_sensitivities(s_sol),
                    compiled.pair_gap_sensitivities(c_sol),
                    atol=1e-6,
                )

    def test_latency_sweep_parity(self):
        for graph in DAGS[:5]:
            symbolic, compiled = _build_pair(graph, "global", "constant", "constant")
            for L in (0.0, 0.7, 2.5, 10.0):
                s = symbolic.solve_runtime(L=L, backend="highs")
                c = compiled.solve_runtime(L=L, backend="highs")
                assert c.objective == pytest.approx(s.objective, abs=1e-6)


class TestCompiledModelProtocol:
    """A model built ``from_arrays`` must satisfy the full LPModel protocol."""

    def test_tangent_envelope_on_compiled_model(self):
        graph = build_staircase(6)
        params = LogGPSParams(L=0.0, o=0.0, g=0.0, G=0.0)
        compiled = build_lp(graph, params)
        envelope = compiled.tangent_envelope(0.0, 10.0, backend="highs")
        breakpoints = sorted(round(bp, 6) for bp in envelope.breakpoints)
        assert breakpoints == pytest.approx([1.0, 2.0, 3.0, 4.0, 5.0], abs=1e-6)

    def test_find_critical_latencies_on_graph_and_lp_oracles(self):
        graph = build_staircase(5)
        params = LogGPSParams(L=0.0, o=0.0, g=0.0, G=0.0)
        latencies = find_critical_latencies(graph, 0.0, 10.0, params=params)
        assert latencies == pytest.approx([1.0, 2.0, 3.0, 4.0], abs=1e-6)
        symbolic = build_lp_symbolic(graph, params)
        with pytest.raises(TypeError, match="repro.testing.lp_envelope"):
            find_critical_latencies(symbolic, 0.0, 10.0, params=params)
        # the LP tangent search on the compiled and the symbolic model alike
        for lp in (build_lp(graph, params), symbolic):
            breakpoints = sorted(lp_envelope(lp, 0.0, 10.0).breakpoints())
            assert breakpoints == pytest.approx([1.0, 2.0, 3.0, 4.0], abs=1e-6)
        with pytest.raises(TypeError):
            find_critical_latencies(graph, 0.0, 10.0)  # graph without params

    def test_batched_sweep_zero_reassemblies(self):
        graph = build_random_dag(3, nranks=4, rounds=10)
        compiled = build_lp(graph, PARAMS)
        version_before = compiled.model.structure_version
        xs = np.linspace(PARAMS.L, PARAMS.L + 50.0, 20)
        values = lp_envelope(compiled, PARAMS.L, PARAMS.L + 50.0).sample(xs)
        assert compiled.model.structure_version == version_before
        symbolic = build_lp_symbolic(graph, PARAMS)
        reference = lp_envelope(symbolic, PARAMS.L, PARAMS.L + 50.0)
        np.testing.assert_allclose(values, reference.sample(xs), atol=1e-6)

    def test_solve_max_latency_materialises_and_restores(self):
        graph = build_random_dag(5, nranks=3, rounds=10)
        symbolic, compiled = _build_pair(graph, "global", "constant", "constant")
        n_rows = compiled.model.num_constraints
        compiled.set_latency_bound(PARAMS.L)
        symbolic.set_latency_bound(PARAMS.L)
        bound = 1.05 * compiled.solve_runtime(backend="highs").objective
        s = symbolic.solve_max_latency(bound, backend="highs")
        c = compiled.solve_max_latency(bound, backend="highs")
        assert c.objective == pytest.approx(s.objective, abs=1e-6)
        assert compiled.model.num_constraints == n_rows
        # and the model still re-solves correctly after the pop
        again = compiled.solve_runtime(L=PARAMS.L, backend="highs")
        assert again.objective == pytest.approx(
            symbolic.solve_runtime(L=PARAMS.L, backend="highs").objective, abs=1e-6
        )

    def test_materialised_constraints_match_assembled_rows(self):
        graph = build_random_dag(7, nranks=3, rounds=8)
        compiled = build_lp(graph, PARAMS)
        assembled = assemble(compiled.model)
        A = assembled.A_ub.copy()
        A.sort_indices()
        # touching .constraints materialises Constraint objects lazily; the
        # re-lowered dict form must reproduce the pre-lowered arrays exactly
        constraints = compiled.model.constraints
        assert [c.index for c in constraints] == list(range(len(constraints)))
        compiled.model.invalidate()
        relowered = assemble(compiled.model)
        B = relowered.A_ub.copy()
        B.sort_indices()
        assert np.array_equal(A.indptr, B.indptr)
        assert np.array_equal(A.indices, B.indices)
        np.testing.assert_allclose(A.data, B.data, atol=1e-15)
        np.testing.assert_allclose(assembled.b_ub, relowered.b_ub, atol=1e-15)

    def test_tight_constraints_work_on_compiled_model(self):
        graph = build_running_example()
        compiled = build_lp(graph, PARAMS)
        solution = compiled.solve_runtime(L=PARAMS.L, backend="highs")
        assert len(solution.tight_constraints()) >= 1

    def test_from_arrays_validation(self):
        with pytest.raises(ValueError):
            LPModel.from_arrays(
                var_names=["x"], lb=[1.0], ub=[0.0],
                row_indptr=np.array([0]), row_cols=np.array([]),
                row_vals=np.array([]), row_consts=np.array([]),
            )
        with pytest.raises(ValueError):
            LPModel.from_arrays(
                var_names=["x", "y"], lb=[0.0],
                row_indptr=np.array([0]), row_cols=np.array([]),
                row_vals=np.array([]), row_consts=np.array([]),
            )


def _round_trip(model: LPModel) -> LPModel:
    """``from_arrays(**to_arrays())`` plus the objective, which the arrays omit."""
    restored = LPModel.from_arrays(**model.to_arrays())
    restored.set_objective(
        LinearExpr(model.objective.coeffs, model.objective.constant), model.sense
    )
    return restored


class TestArrayRoundTrip:
    """``LPModel.to_arrays`` → ``LPModel.from_arrays`` keeps the model."""

    @pytest.mark.parametrize("engine", ["symbolic", "compiled"])
    def test_same_solution_after_round_trip(self, engine):
        graph = build_random_dag(9)
        build = build_lp_symbolic if engine == "symbolic" else build_lp
        model = build(graph, PARAMS, latency_mode="global").model
        expected = model.solve(backend="highs").objective
        restored = _round_trip(model)
        assert restored.num_vars == model.num_vars
        assert [v.name for v in restored.variables] == [v.name for v in model.variables]
        assert restored.solve(backend="highs").objective == pytest.approx(
            expected, rel=1e-12
        )

    def test_compiled_rows_round_trip_exactly(self):
        model = build_lp(build_random_dag(4), PARAMS, latency_mode="global").model
        original = model.to_arrays()
        restored = _round_trip(model).to_arrays()
        assert restored["row_sense"] == original["row_sense"]
        for key in ("lb", "ub", "row_indptr", "row_cols", "row_vals", "row_consts"):
            assert np.array_equal(restored[key], original[key]), key

    def test_restored_model_needs_no_assembly(self):
        # from_arrays pre-populates the assembled cache: solving the restored
        # model must not lower anything at the Python level
        model = build_lp(build_random_dag(2), PARAMS, latency_mode="global").model
        restored = _round_trip(model)
        before = assembly_counts()
        restored.solve(backend="highs")
        assert assembly_counts() == before


class TestCompileFromBatches:
    """Op batches → ``ScheduleBatches.graph_for`` → CSR, against the same
    columns levelled by the frontier-peel oracle."""

    @staticmethod
    def _workload():
        from repro.mpi import run_program
        from repro.schedgen.columnar import batches_from_program

        def app(comm):
            for it in range(3):
                comm.compute(1.0)
                comm.allreduce(2048)
                nxt = (comm.rank + 1) % comm.size
                prv = (comm.rank - 1) % comm.size
                req = comm.irecv(prv, 256, tag=it)
                comm.send(nxt, 256, tag=it)
                comm.wait(req)

        program = run_program(app, 4)
        return batches_from_program(program), program.nranks

    @pytest.mark.parametrize("lm,gm", [("global", "constant"), ("per_pair", "per_pair")])
    def test_bit_identical_to_peel_levelled_compile(self, lm, gm):
        from repro.lp.compiler import compile_lp
        from repro.schedgen.columnar import ScheduleBatches
        from repro.schedgen.graph import ExecutionGraph
        from repro.testing import frontier_peel_levels

        batches, nranks = self._workload()
        graph = ScheduleBatches(batches, nranks).graph_for(PARAMS)
        indptr, order = frontier_peel_levels(graph)
        peeled = ExecutionGraph.from_columns(
            nranks, graph.identity_columns(), graph.labels,
            topo_order=order, level_indptr=indptr,
        )
        # the compiler orders its variables by the level structure, so equal
        # CSR arrays pin the engine's levels to the oracle's
        ours = compile_lp(graph, PARAMS, latency_mode=lm, gap_mode=gm)
        oracle = compile_lp(peeled, PARAMS, latency_mode=lm, gap_mode=gm)
        a, b = oracle.model.to_arrays(), ours.model.to_arrays()
        assert a.keys() == b.keys()
        for key in a:
            if isinstance(a[key], np.ndarray):
                np.testing.assert_array_equal(a[key], b[key], err_msg=key)
            else:
                assert a[key] == b[key], key
        o_sol = oracle.model.solve(backend="highs")
        g_sol = ours.model.solve(backend="highs")
        assert g_sol.objective == o_sol.objective
        np.testing.assert_array_equal(g_sol.duals, o_sol.duals)

    def test_analyze_only_graph_attached(self):
        from repro.core import LatencyAnalyzer
        from repro.mpi import run_program
        from repro.schedgen import build_graph
        from repro.schedgen.builder import ProtocolConfig
        from repro.schedgen.columnar import batches_from_program

        def app(comm):
            comm.compute(1.0)
            comm.allreduce(512)

        program = run_program(app, 4)
        analyzer = LatencyAnalyzer.from_batches(
            batches_from_program(program), program.nranks, PARAMS
        )
        # digest parity keys batch-built requests to the frozen cache entries
        frozen = build_graph(program, protocol=ProtocolConfig.from_params(PARAMS))
        assert analyzer.graph.content_digest() == frozen.content_digest()
        ours = build_lp(analyzer.graph, PARAMS).solve_runtime(L=PARAMS.L).objective
        assert ours == pytest.approx(
            build_lp(frozen, PARAMS).solve_runtime(L=PARAMS.L).objective, abs=1e-9
        )

    def test_defaults_match_explicit_config(self):
        from repro.lp.compiler import compile_lp
        from repro.schedgen.builder import ProtocolConfig
        from repro.schedgen.collectives import CollectiveAlgorithms
        from repro.schedgen.columnar import ScheduleBatches

        batches, nranks = self._workload()
        bare = ScheduleBatches(batches, nranks).graph_for(PARAMS)
        explicit = ScheduleBatches(
            batches, nranks,
            algorithms=CollectiveAlgorithms(),
            protocol=ProtocolConfig.from_params(PARAMS),
        ).graph_for(PARAMS)
        assert bare.content_digest() == explicit.content_digest()
        assert (
            compile_lp(bare, PARAMS).model.solve(backend="highs").objective
            == compile_lp(explicit, PARAMS).model.solve(backend="highs").objective
        )
