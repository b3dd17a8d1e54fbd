"""Backend registry, incremental assembler, and cross-backend parity tests."""

import numpy as np
import pytest

from repro.core import build_lp
from repro.lp import (
    LPModel,
    LPSolution,
    Sense,
    Status,
    assemble,
    default_registry,
    solve_highs,
    solve_simplex,
)
from repro.lp.backends import BackendRegistry
from repro.network.params import LogGPSParams
from repro.testing import build_random_dag, build_running_example

PAPER_PARAMS = LogGPSParams(L=0.0, o=0.0, g=0.0, G=0.005, S=256 * 1024, P=2)
RANDOM_PARAMS = LogGPSParams(L=1.0, o=0.3, g=0.0, G=0.001)


class TestRegistry:
    def test_default_backends_registered(self):
        assert {"highs", "simplex"} <= set(default_registry.names())

    def test_unknown_backend_lists_known_names(self):
        model = LPModel()
        model.add_var("x", lb=0.0)
        with pytest.raises(ValueError, match="highs"):
            model.solve(backend="gurobi")

    def test_get_returns_spec_with_capabilities(self):
        spec = default_registry.get("simplex")
        assert spec.supports_ranging
        assert default_registry.get("highs").supports_duals

    def test_register_and_solve_custom_backend(self):
        registry = BackendRegistry()

        @registry.register("constant", description="test stub")
        def solve_constant(model, **options):
            return LPSolution(
                status=Status.OPTIMAL,
                objective=42.0,
                values=np.zeros(model.num_vars),
                backend="constant",
            )

        model = LPModel()
        model.add_var("x")
        solution = registry.solve(model, backend="constant")
        assert solution.objective == 42.0
        assert len(registry) == 1 and "constant" in registry

    def test_duplicate_registration_rejected_unless_replace(self):
        registry = BackendRegistry()

        @registry.register("b")
        def first(model, **options):  # pragma: no cover - stub
            raise NotImplementedError

        with pytest.raises(ValueError, match="already registered"):
            registry.register("b")(first)
        registry.register("b", replace=True)(first)
        registry.unregister("b")
        assert "b" not in registry


class TestAssembler:
    def test_assembly_cached_until_structure_changes(self, running_example, paper_params):
        lp = build_lp(running_example, paper_params)
        first = assemble(lp.model)
        assert assemble(lp.model) is first
        lp.model.add_var("extra", lb=0.0)
        assert assemble(lp.model) is not first

    def test_bound_change_keeps_sparse_matrix(self, running_example, paper_params):
        lp = build_lp(running_example, paper_params)
        before = assemble(lp.model)
        matrix = before.A_ub
        lp.set_latency_bound(3.0)
        after = assemble(lp.model)
        assert after is before  # refreshed in place
        assert after.A_ub is matrix  # CSR untouched
        assert after.lb[lp.latency.index] == 3.0

    def test_objective_change_refreshes_c(self, running_example, paper_params):
        lp = build_lp(running_example, paper_params)
        assembled = assemble(lp.model)
        lp.model.set_objective(lp.latency, Sense.MAX)
        refreshed = assemble(lp.model)
        assert refreshed is assembled
        assert refreshed.obj_sign == -1.0
        assert refreshed.c[lp.latency.index] == -1.0

    def test_pop_constraint_invalidates_assembly(self, running_example, paper_params):
        lp = build_lp(running_example, paper_params)
        lp.set_latency_bound(0.0)
        baseline = lp.solve_runtime(L=0.5).objective
        lp.solve_max_latency(2.0)  # adds then pops the runtime-bound row
        assert lp.solve_runtime(L=0.5).objective == pytest.approx(baseline)

    def test_solutions_identical_to_fresh_model(self, running_example, paper_params):
        cached = build_lp(running_example, paper_params)
        for L in (0.0, 0.25, 0.5, 1.0):
            fresh = build_lp(running_example, paper_params)
            assert cached.solve_runtime(L=L).objective == pytest.approx(
                fresh.solve_runtime(L=L).objective, abs=1e-9
            )


def _assert_parity(lp, L: float) -> None:
    highs = lp.solve_runtime(L=L, backend="highs")
    simplex = lp.solve_runtime(L=L, backend="simplex")

    assert highs.objective == pytest.approx(simplex.objective, abs=1e-6)
    assert lp.latency_sensitivity(highs) == pytest.approx(
        lp.latency_sensitivity(simplex), abs=1e-6
    )
    assert highs.duals is not None and simplex.duals is not None
    np.testing.assert_allclose(highs.duals, simplex.duals, atol=1e-6)


class TestBackendParity:
    def test_running_example_parity(self, paper_params):
        lp = build_lp(build_running_example(), paper_params)
        for L in (0.0, 0.2, 0.5, 1.0, 5.0):
            _assert_parity(lp, L)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_dag_parity(self, seed):
        graph = build_random_dag(seed)
        lp = build_lp(graph, RANDOM_PARAMS)
        _assert_parity(lp, L=1.0 + 0.37 * seed)

    @pytest.mark.parametrize("seed", range(0, 20, 5))
    def test_random_dag_parity_with_symbolic_gap(self, seed):
        graph = build_random_dag(seed, nranks=4, rounds=8)
        lp = build_lp(graph, RANDOM_PARAMS, gap_mode="global")
        highs = lp.solve_runtime(L=2.0, backend="highs")
        simplex = lp.solve_runtime(L=2.0, backend="simplex")
        assert highs.objective == pytest.approx(simplex.objective, abs=1e-6)
        assert lp.gap_sensitivity(highs) == pytest.approx(
            lp.gap_sensitivity(simplex), abs=1e-6
        )

    def test_direct_backend_functions_agree(self, paper_params):
        lp = build_lp(build_running_example(), paper_params)
        lp.set_latency_bound(0.5)
        assert solve_highs(lp.model).objective == pytest.approx(
            solve_simplex(lp.model).objective, abs=1e-9
        )
