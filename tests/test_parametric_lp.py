"""Tests for the shared parametric-envelope engine (``repro.lp.parametric``).

Covers the engine primitives (bound-only updates, the tangent-envelope
search), parity of ``find_critical_latencies`` (on the graph) and
``llamp_placement`` against faithful copies of the pre-engine LP
implementations (the placement copy solves the per-pair LP), the
cached-tangent ``critical_latency_curve``, and the zero LP solves of the
Algorithm 2 and placement searches.
"""

import inspect

import numpy as np
import pytest

from repro.core import build_lp, find_critical_latencies
from repro.core.critical_latency import critical_latency_curve
from repro.core.envelope import pair_forward_evaluator
from repro.lp import LPSolution, ParametricLP, Tangent
from repro.lp.backends import BackendRegistry, default_registry
from repro.lp.scipy_backend import solve_highs
from repro.network import ArchitectureGraph, round_robin_mapping
from repro.network.params import LogGPSParams
from repro.placement import llamp_placement, predicted_runtime, swap_gain_matrix
from repro.placement.algorithm import _swap_gain
from repro.testing import (
    build_random_dag,
    build_running_example,
    build_staircase,
    lp_envelope,
)

PARAMS = LogGPSParams(L=0.5, o=0.2, g=0.0, G=0.001)
ZERO_OVERHEAD = LogGPSParams(L=0.0, o=0.0, g=0.0, G=0.0)


# ---------------------------------------------------------------------------
# faithful copies of the pre-engine implementations, used as parity oracles
# ---------------------------------------------------------------------------


def _reference_find_critical_latencies(graph_lp, l_min, l_max, *, step=None):
    """The pre-engine recursive tangent search, verbatim semantics."""
    _REL, _ABS = 1e-7, 1e-9

    def close(a, b):
        return abs(a - b) <= _ABS + _REL * max(abs(a), abs(b), 1.0)

    def probe(L):
        solution = graph_lp.solve_runtime(L=L, backend="highs")
        return Tangent(L=L, value=solution.objective,
                       slope=graph_lp.latency_sensitivity(solution))

    breakpoints = []

    def recurse(lo, hi):
        if close(lo.slope, hi.slope) and close(lo.extrapolate(hi.L), hi.value):
            return
        denom = hi.slope - lo.slope
        if abs(denom) <= _ABS:
            return
        x = (lo.intercept - hi.intercept) / denom
        x = min(max(x, lo.L), hi.L)
        if close(x, lo.L) or close(x, hi.L):
            breakpoints.append(x)
            return
        mid = probe(x)
        if close(mid.value, lo.extrapolate(x)) and close(mid.value, hi.extrapolate(x)):
            breakpoints.append(x)
            return
        recurse(lo, mid)
        recurse(mid, hi)

    recurse(probe(l_min), probe(l_max))
    breakpoints = sorted(set(round(bp, 12) for bp in breakpoints))
    if step is not None and step > 0 and breakpoints:
        coalesced = [breakpoints[0]]
        for bp in breakpoints[1:]:
            if bp - coalesced[-1] >= step:
                coalesced.append(bp)
        breakpoints = coalesced
    return breakpoints


def _reference_placement(graph, params, arch, *, initial_mapping, max_iterations=20,
                         include_gap=True):
    """The pre-engine placement loop: scalar gain scan, one candidate per round."""
    nranks = graph.nranks
    mapping = list(initial_mapping)
    graph_lp = build_lp(graph, params, latency_mode="per_pair",
                        gap_mode="per_pair" if include_gap else "constant")

    def solve_for(m):
        graph_lp.set_pair_latency_bounds(arch.latency_matrix(m))
        if graph_lp.pair_gap:
            graph_lp.set_pair_gap_bounds(arch.gap_matrix(m))
        return graph_lp.model.solve(backend="highs")

    solution = solve_for(mapping)
    best_runtime = solution.objective
    history, swaps = [best_runtime], []
    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        sensitivity_L = graph_lp.pair_latency_sensitivities(solution)
        sensitivity_G = (
            graph_lp.pair_gap_sensitivities(solution) if graph_lp.pair_gap else None
        )
        best_pair, best_gain = None, 0.0
        for i in range(nranks):
            for j in range(i + 1, nranks):
                gain = _swap_gain(i, j, sensitivity_L, sensitivity_G, mapping, arch)
                if gain > best_gain + 1e-9:
                    best_gain, best_pair = gain, (i, j)
        if best_pair is None:
            break
        i, j = best_pair
        candidate = list(mapping)
        candidate[i], candidate[j] = candidate[j], candidate[i]
        candidate_solution = solve_for(candidate)
        if candidate_solution.objective < best_runtime - 1e-9:
            mapping, best_runtime = candidate, candidate_solution.objective
            solution = candidate_solution
            swaps.append(best_pair)
            history.append(best_runtime)
        else:
            break
    return mapping, best_runtime, swaps, history


@pytest.fixture
def counting_backend():
    """A registered backend that counts its solve calls (delegates to highs)."""
    calls = {"n": 0}

    @default_registry.register("_counting", replace=True)
    def _solve(model, **options):
        calls["n"] += 1
        return solve_highs(model, **options)

    yield calls
    default_registry.unregister("_counting")


# ---------------------------------------------------------------------------
# engine primitives
# ---------------------------------------------------------------------------


class TestParametricLPEngine:
    def test_bound_updates_do_not_touch_structure(self, running_example, paper_params):
        lp = build_lp(running_example, paper_params)
        engine = ParametricLP(lp.model, backend="highs")
        engine.solve()
        structure = lp.model.structure_version
        cache = lp.model._assembled_cache
        for L in (0.1, 0.3, 0.7, 1.5):
            engine.probe(lp.latency, L)
        assert lp.model.structure_version == structure
        assert lp.model._assembled_cache is cache
        assert engine.structure_rebuilds == 0
        assert lp.model.bounds_version > 0

    def test_tangent_envelope_running_example(self, running_example, paper_params):
        lp = build_lp(running_example, paper_params)
        engine = ParametricLP(lp.model, backend="highs")
        result = engine.tangent_envelope(lp.latency, 0.0, 2.0)
        assert result.breakpoints == pytest.approx([0.385], abs=1e-6)
        assert result.num_solves == engine.num_solves <= 5
        # reconstructed values lie on the curve the cold solves sample
        for L in (0.0, 0.2, 0.385, 1.0, 2.0):
            expected = lp.solve_runtime(L=L, backend="highs").objective
            assert result.value(L) == pytest.approx(expected, abs=1e-6)

    def test_segment_tangent_matches_fresh_probe(self, running_example, paper_params):
        lp = build_lp(running_example, paper_params)
        engine = ParametricLP(lp.model, backend="highs")
        result = engine.tangent_envelope(lp.latency, 0.0, 2.0)
        for L in (0.1, 1.0):
            solution = lp.solve_runtime(L=L, backend="highs")
            tangent = result.segment_tangent(L)
            assert tangent.value == pytest.approx(solution.objective, abs=1e-6)
            assert tangent.slope == pytest.approx(lp.latency_sensitivity(solution), abs=1e-6)

    def test_max_solves_enforced(self, running_example, paper_params):
        lp = build_lp(running_example, paper_params)
        engine = ParametricLP(lp.model, backend="highs", max_solves=2)
        engine.solve()
        engine.solve()
        with pytest.raises(RuntimeError, match="exceeded 2 LP solves"):
            engine.solve()

    def test_unknown_backend_fails_fast(self, running_example, paper_params):
        lp = build_lp(running_example, paper_params)
        with pytest.raises(ValueError, match="unknown LP backend"):
            ParametricLP(lp.model, backend="nope")

    def test_invalid_interval_rejected(self, running_example, paper_params):
        lp = build_lp(running_example, paper_params)
        engine = ParametricLP(lp.model, backend="highs")
        with pytest.raises(ValueError, match="invalid latency interval"):
            engine.tangent_envelope(lp.latency, 2.0, 1.0)


# ---------------------------------------------------------------------------
# Algorithm 2 parity
# ---------------------------------------------------------------------------


class TestCriticalLatencyParity:
    def test_running_example_pinned(self, running_example, paper_params):
        for lo, hi in ((0.0, 1.0), (0.2, 0.5)):
            found = find_critical_latencies(running_example, lo, hi, params=paper_params)
            assert found == pytest.approx([0.385], abs=1e-6)
            lp = build_lp(running_example, paper_params)
            assert lp_envelope(lp, lo, hi).breakpoints() == pytest.approx([0.385], abs=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_dags_match_pre_refactor_search(self, seed):
        graph = build_random_dag(seed, nranks=4, rounds=14)
        refactored = find_critical_latencies(graph, 0.5, 25.0, params=PARAMS)
        reference = _reference_find_critical_latencies(build_lp(graph, PARAMS), 0.5, 25.0)
        assert len(refactored) == len(reference)
        assert refactored == pytest.approx(reference, abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_dags_match_exact_envelope(self, seed):
        graph = build_random_dag(seed, nranks=4, rounds=14)
        # the forward pass against the LP tangent search
        found = find_critical_latencies(graph, 0.5, 25.0, params=PARAMS)
        exact = [
            bp for bp in lp_envelope(build_lp(graph, PARAMS), 0.0, 25.0).breakpoints()
            if 0.5 < bp < 25.0
        ]
        assert len(found) == len(exact)
        assert found == pytest.approx(exact, abs=1e-6)

    def test_step_coalescing_preserved(self):
        graph = build_staircase(6)
        assert find_critical_latencies(graph, 0.0, 8.0, params=ZERO_OVERHEAD) == pytest.approx(
            [1.0, 2.0, 3.0, 4.0, 5.0], abs=1e-6
        )
        assert find_critical_latencies(
            graph, 0.0, 8.0, params=ZERO_OVERHEAD, step=2.0
        ) == pytest.approx([1.0, 3.0, 5.0], abs=1e-6)

    def test_max_solves_exceeded_raises(self):
        # max_solves guards the LP tangent search (the forward pass never
        # solves)
        lp = build_lp(build_staircase(6), ZERO_OVERHEAD)
        with pytest.raises(RuntimeError, match="exceeded 3 LP solves"):
            lp.tangent_envelope(0.0, 8.0, max_solves=3)

    def test_per_pair_mode_rejected(self, running_example, paper_params):
        lp = build_lp(running_example, paper_params, latency_mode="per_pair")
        with pytest.raises(ValueError, match="per-pair"):
            lp_envelope(lp, 0.0, 1.0)
        # Algorithm 2 takes no LP at all
        with pytest.raises(TypeError, match="repro.testing.lp_envelope"):
            find_critical_latencies(lp, 0.0, 1.0, params=paper_params)


class TestCurveFromCachedTangents:
    def test_no_extra_solves_for_midpoints(self, counting_backend):
        from repro.lp.assembler import assembly_counts

        graph = build_random_dag(3, nranks=4, rounds=14)
        # over LP probes the segment mid-points are served from the search's
        # cache (pre-refactor: one extra solve per segment)
        lp = build_lp(graph, PARAMS)
        result = lp.tangent_envelope(0.5, 25.0, backend="_counting")
        search_solves = counting_backend["n"]
        assert search_solves == result.num_solves > 0
        bounds = [0.5, *sorted(set(round(bp, 12) for bp in result.breakpoints)), 25.0]
        cached = [result.segment_tangent(0.5 * (a + b)) for a, b in zip(bounds, bounds[1:])]
        assert counting_backend["n"] == search_solves

        # the production searches build no LP, so they cannot solve one
        before = assembly_counts()
        find_critical_latencies(graph, 0.5, 25.0, params=PARAMS)
        tangents = critical_latency_curve(graph, 0.5, 25.0, params=PARAMS)
        assert assembly_counts() == before
        assert len(tangents) == len(cached) >= 2
        for ours, theirs in zip(tangents, cached):
            assert (ours.L, ours.slope) == pytest.approx((theirs.L, theirs.slope), abs=1e-6)
            assert ours.value == pytest.approx(theirs.value, abs=1e-6)

    def test_tangents_match_fresh_probes(self):
        graph = build_random_dag(4, nranks=4, rounds=14)
        tangents = critical_latency_curve(graph, 0.5, 25.0, params=PARAMS)
        probe_lp = build_lp(graph, PARAMS)
        for tangent in tangents:
            solution = probe_lp.solve_runtime(L=tangent.L, backend="highs")
            assert tangent.value == pytest.approx(solution.objective, abs=1e-6)
            assert tangent.slope == pytest.approx(
                probe_lp.latency_sensitivity(solution), abs=1e-6
            )
        # λ_L is a non-decreasing step function across the segments
        slopes = [t.slope for t in tangents]
        assert all(b >= a - 1e-9 for a, b in zip(slopes, slopes[1:]))


# ---------------------------------------------------------------------------
# placement parity and incrementality
# ---------------------------------------------------------------------------


def _placement_arch():
    return ArchitectureGraph(num_nodes=3, processes_per_node=2,
                             intra_node_latency=0.3, inter_node_latency=5.0)


class TestPlacementParity:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_dags_match_pre_refactor_loop(self, seed):
        graph = build_random_dag(seed, nranks=6, rounds=16)
        arch = _placement_arch()
        initial = round_robin_mapping(6, arch)
        result = llamp_placement(graph, PARAMS, arch, initial_mapping=initial, top_k=1)
        mapping, runtime, swaps, history = _reference_placement(
            graph, PARAMS, arch, initial_mapping=initial
        )
        assert result.mapping == mapping
        assert result.predicted_runtime == pytest.approx(runtime, abs=1e-6)
        assert result.swaps == swaps
        assert result.history == pytest.approx(history, abs=1e-6)

    def test_running_example_parity(self, running_example, paper_params):
        arch = ArchitectureGraph(num_nodes=2, processes_per_node=1,
                                 intra_node_latency=0.1, inter_node_latency=2.0)
        result = llamp_placement(running_example, paper_params, arch,
                                 initial_mapping=[0, 1], top_k=1)
        mapping, runtime, _, _ = _reference_placement(
            running_example, paper_params, arch, initial_mapping=[0, 1]
        )
        assert result.mapping == mapping
        assert result.predicted_runtime == pytest.approx(runtime, abs=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_top_k_never_worse(self, seed):
        graph = build_random_dag(seed, nranks=6, rounds=16)
        arch = _placement_arch()
        initial = round_robin_mapping(6, arch)
        single = llamp_placement(graph, PARAMS, arch, initial_mapping=initial, top_k=1)
        multi = llamp_placement(graph, PARAMS, arch, initial_mapping=initial, top_k=4)
        assert multi.predicted_runtime <= single.predicted_runtime + 1e-6


class TestPlacementIncremental:
    def test_search_runs_no_lp_solve(self, monkeypatch):
        graph = build_random_dag(1, nranks=6, rounds=16)
        arch = _placement_arch()
        # every solve that reaches the registry, whichever backend it names
        solves = []
        original = BackendRegistry.solve

        def counting(registry, model, backend="highs", **options):
            solves.append(backend)
            return original(registry, model, backend, **options)

        monkeypatch.setattr(BackendRegistry, "solve", counting)
        result = llamp_placement(graph, PARAMS, arch,
                                 initial_mapping=round_robin_mapping(6, arch))
        assert solves == []
        assert (result.num_lp_solves, result.num_reassemblies) == (0, 0)
        assert len(result.history) >= 2  # the search did evaluate swaps
        # the counter does see the LP oracle
        oracle = predicted_runtime(graph, PARAMS, arch, result.mapping)
        assert solves == ["highs"]
        assert result.predicted_runtime == pytest.approx(oracle, rel=1e-9)

    def test_prebuilt_evaluator_is_shared(self):
        graph = build_random_dag(2, nranks=6, rounds=16)
        arch = _placement_arch()
        evaluator = pair_forward_evaluator(graph, PARAMS)
        initial = round_robin_mapping(6, arch)
        shared = llamp_placement(graph, PARAMS, arch, initial_mapping=initial,
                                 evaluator=evaluator)
        fresh = llamp_placement(graph, PARAMS, arch, initial_mapping=initial)
        assert (shared.mapping, shared.swaps, shared.history) == (
            fresh.mapping, fresh.swaps, fresh.history
        )

    def test_top_k_validated(self, running_example, paper_params):
        arch = ArchitectureGraph(num_nodes=2, processes_per_node=1)
        with pytest.raises(ValueError, match="top_k"):
            llamp_placement(running_example, paper_params, arch, top_k=0)


class TestSwapGain:
    def _random_inputs(self, seed, nranks=7):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.0, 4.0, size=(nranks, nranks))
        sensitivity_L = (raw + raw.T) / 2
        np.fill_diagonal(sensitivity_L, 0.0)
        raw_g = rng.uniform(0.0, 0.5, size=(nranks, nranks))
        sensitivity_G = (raw_g + raw_g.T) / 2
        np.fill_diagonal(sensitivity_G, 0.0)
        inter = rng.uniform(2.0, 9.0, size=(4, 4))
        inter = (inter + inter.T) / 2
        arch = ArchitectureGraph(num_nodes=4, processes_per_node=2,
                                 intra_node_latency=0.25, inter_node_latency=inter)
        mapping = [0, 0, 1, 1, 2, 3, 3][:nranks]
        return sensitivity_L, sensitivity_G, mapping, arch

    @pytest.mark.parametrize("seed", range(5))
    def test_matrix_matches_scalar_reference(self, seed):
        sensitivity_L, sensitivity_G, mapping, arch = self._random_inputs(seed)
        matrix = swap_gain_matrix(sensitivity_L, sensitivity_G, mapping, arch)
        nranks = len(mapping)
        for i in range(nranks):
            for j in range(nranks):
                expected = 0.0 if i == j else _swap_gain(
                    i, j, sensitivity_L, sensitivity_G, mapping, arch
                )
                assert matrix[i, j] == pytest.approx(expected, abs=1e-9)

    def test_matrix_without_gap_sensitivities(self):
        sensitivity_L, _, mapping, arch = self._random_inputs(11)
        matrix = swap_gain_matrix(sensitivity_L, None, mapping, arch)
        assert matrix[0, 2] == pytest.approx(
            _swap_gain(0, 2, sensitivity_L, None, mapping, arch), abs=1e-9
        )

    def test_same_node_pairs_are_zero(self):
        sensitivity_L, sensitivity_G, mapping, arch = self._random_inputs(2)
        matrix = swap_gain_matrix(sensitivity_L, sensitivity_G, mapping, arch)
        assert matrix[0, 1] == 0.0  # ranks 0 and 1 share node 0
        assert np.all(np.diag(matrix) == 0.0)

    def test_asymmetric_inter_latency_rejected(self):
        inter = np.array([[0.0, 2.0, 3.0], [2.0, 0.0, 4.0], [9.0, 4.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            ArchitectureGraph(num_nodes=3, inter_node_latency=inter)

    def test_invalid_mapping_rejected(self):
        sensitivity_L, _, mapping, arch = self._random_inputs(5)
        bad = list(mapping)
        bad[0] = arch.num_nodes + 3  # node id outside the architecture
        with pytest.raises(ValueError, match="outside the architecture"):
            swap_gain_matrix(sensitivity_L, None, bad, arch)

    def test_volume_parameter_dropped(self):
        """Pin the satellite decision: gains come from the sensitivity
        matrices alone — communication volume only feeds the Scotch-like
        baseline, not Algorithm 3's gain heuristic."""
        assert "volume" not in inspect.signature(swap_gain_matrix).parameters
        assert "volume" not in inspect.signature(_swap_gain).parameters
