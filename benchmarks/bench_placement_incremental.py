"""Forward vs LP rank placement (Algorithm 3) on a 64-rank DAG.

Both loops run the same search on the same DAG.  The LP loop — the paper's
formulation, kept here as the reference — solves the per-pair LP once per
candidate mapping and reads the pairwise sensitivities off its reduced
costs; it re-scans all O(P³) swap gains with a Python triple loop and
pushes bounds through per-variable dict updates each iteration.  The
forward search (``llamp_placement``) evaluates each candidate with one
per-pair forward pass, takes the sensitivities from that pass's critical
path and scans the gains as dense matrix products.

Both must agree exactly — same final mapping, same predicted runtime, same
swap sequence — while the forward search solves no LP and is required to be
≥5× faster.
"""

from __future__ import annotations

import time

from repro.core import build_lp
from repro.network import ArchitectureGraph, random_mapping
from repro.network.params import LogGPSParams
from repro.placement import llamp_placement
from repro.placement.algorithm import _swap_gain
from repro.testing import build_random_dag

from _bench_utils import count_lp_solves, emit_json, print_header, print_rows

NRANKS = 64
NODES = 16
ROUNDS = 96
SEED = 0
MAX_ITERATIONS = 30
PARAMS = LogGPSParams(L=0.5, o=0.2, g=0.0, G=0.001)
MIN_SPEEDUP = 5.0


def _cold_placement(graph, params, arch, initial_mapping, max_iterations):
    """The LP loop: one per-pair LP solve per candidate, reduced costs as
    the sensitivities, a scalar gain scan and dict-based bound updates."""
    nranks = graph.nranks
    mapping = list(initial_mapping)
    graph_lp = build_lp(graph, params, latency_mode="per_pair", gap_mode="per_pair")

    def solve_for(candidate):
        graph_lp.set_pair_latency_bounds(arch.latency_matrix(candidate))
        if graph_lp.pair_gap:
            graph_lp.set_pair_gap_bounds(arch.gap_matrix(candidate))
        return graph_lp.model.solve(backend="highs")

    solution = solve_for(mapping)
    best_runtime = solution.objective
    swaps = []
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
        else:
            break
    return mapping, best_runtime, swaps


def _run():
    graph = build_random_dag(SEED, nranks=NRANKS, rounds=ROUNDS)
    arch = ArchitectureGraph(num_nodes=NODES, processes_per_node=NRANKS // NODES,
                             intra_node_latency=0.3, inter_node_latency=5.0)
    initial = random_mapping(NRANKS, arch, seed=1)

    with count_lp_solves() as forward_solves:
        start = time.perf_counter()
        forward = llamp_placement(
            graph, PARAMS, arch, initial_mapping=initial,
            max_iterations=MAX_ITERATIONS, top_k=1,
        )
        forward_s = time.perf_counter() - start

    with count_lp_solves() as cold_solves:
        start = time.perf_counter()
        cold_mapping, cold_runtime, cold_swaps = _cold_placement(
            graph, PARAMS, arch, initial, MAX_ITERATIONS
        )
        cold_s = time.perf_counter() - start

    return (forward, forward_s, len(forward_solves),
            cold_mapping, cold_runtime, cold_swaps, cold_s, len(cold_solves))


def test_placement_forward_vs_lp(run_once):
    (forward, forward_s, forward_solves,
     cold_mapping, cold_runtime, cold_swaps, cold_s, cold_solves) = run_once(_run)
    speedup = cold_s / forward_s

    print_header(f"Rank placement, LP loop vs forward search — random DAG "
                 f"({NRANKS} ranks on {NODES} nodes, {ROUNDS} rounds)")
    print_rows(
        ["loop", "wall time [s]", "swaps", "LP solves", "runtime [µs]"],
        [
            ["LP (per-pair LP per candidate)", cold_s, len(cold_swaps), cold_solves,
             cold_runtime],
            ["forward (one pass per candidate)", forward_s, len(forward.swaps),
             forward_solves, forward.predicted_runtime],
        ],
    )
    print(f"\nspeedup             : {speedup:.1f}x (required: ≥{MIN_SPEEDUP:.0f}x)")
    print(f"improvement          : {forward.improvement * 100:.2f}% over the "
          f"initial mapping in {forward.iterations} iterations")

    emit_json("placement_incremental", {
        "cold_s": cold_s,
        "forward_s": forward_s,
        "speedup": speedup,
        "swaps": len(forward.swaps),
        "forward_lp_solves": forward_solves,
        "cold_lp_solves": cold_solves,
        "predicted_runtime_us": forward.predicted_runtime,
    })

    # identical trajectory: same final mapping, runtime and swap sequence
    assert forward.mapping == cold_mapping
    assert abs(forward.predicted_runtime - cold_runtime) <= 1e-6
    assert forward.swaps == cold_swaps
    # the forward search solved no LP (the LP loop did) …
    assert forward_solves == 0 and cold_solves > 0
    assert len(forward.swaps) >= 5, "instance must exercise several iterations"
    # … and is at least 5x faster than the LP loop
    assert speedup >= MIN_SPEEDUP
