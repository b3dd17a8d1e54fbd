"""Deep chains: the production graph build vs frontier-peel levels.

Every execution graph is frozen and levelled by one engine
(``ExecutionGraph._compute_levels``): chain condensation — run collapse plus
pointer jumping over single-predecessor chains — then Kahn relaxation over
the condensed DAG of sources and merge points.  The LP workload is a
64-rank allreduce schedule with a long straggler compute chain on rank 0,
the shape a per-level frontier peel is worst at (levels ≈ vertices, so the
peel degenerates to a per-vertex list walk) while the chain collapses in
one O(n) pass.

Both timed pipelines run batches → frozen, validated graph → ``compile_lp``
→ HiGHS solve on the same ``RankOpBatch`` columns, and differ only in where
the levels come from: the production engine, or
``repro.testing.frontier_peel_levels`` (the level definition walked one
frontier per level, the oracle the tests check the engine against)
installed in its place.  The program→batches conversion is shared verbatim
by both pipelines, so it is hoisted out of the ratio and reported
separately (``batches_s``; program-inclusive totals are in the JSON too).

Acceptance criteria:

* batches→objective, the production pipeline is at least **3×** faster
  than the same pipeline with peel levels on the straggler allreduce
  schedule, with identical levels, LP structure, objective, duals and
  graph content digest;
* the 2-D ``(injector × ΔL)`` sweep grid traverses the Fig. 8 strategy grid
  in one pass at least **1.4×** faster than the per-injector sweep loop,
  bit-identically (on a balanced allreduce schedule — the simulator bench
  shape, not the straggler chain).
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager

import numpy as np

from repro.lp import compile_lp
from repro.mpi import run_program
from repro.network.params import CSCS_TESTBED
from repro.schedgen.builder import ProtocolConfig
from repro.schedgen.collectives import CollectiveAlgorithms
from repro.schedgen.columnar import batches_from_program, build_columnar
from repro.schedgen.graph import ExecutionGraph
from repro.simulator import INJECTOR_NAMES, simulate_sweep, simulate_sweep_grid
from repro.testing import frontier_peel_levels

from _bench_utils import emit_json, print_header, print_rows

NRANKS = 64
STRAGGLER_ITERATIONS = 2
STRAGGLER_CHAIN_OPS = 100_000
GRID_ITERATIONS = 24
GRID_CHAIN_OPS = 40
MESSAGE_BYTES = 32 * 1024
MIN_SPEEDUP = 3.0
GRID_DELTAS = np.linspace(0.0, 50.0, 8)
MIN_GRID_SPEEDUP = 1.4


def _straggler_program():
    """Rank 0 carries a deep compute chain; everyone joins the allreduces."""

    def app(comm):
        for _ in range(STRAGGLER_ITERATIONS):
            chain = STRAGGLER_CHAIN_OPS if comm.rank == 0 else 4
            for _ in range(chain):
                comm.compute(0.5)
            comm.allreduce(MESSAGE_BYTES)

    return run_program(app, NRANKS)


def _grid_program():
    """Balanced allreduce iterations — the simulator benchmark shape."""

    def app(comm):
        for _ in range(GRID_ITERATIONS):
            for _ in range(GRID_CHAIN_OPS):
                comm.compute(0.5)
            comm.allreduce(MESSAGE_BYTES)

    return run_program(app, NRANKS)


@contextmanager
def _peel_levels():
    """Level every graph built inside the block with the frontier peel."""
    engine = ExecutionGraph._compute_levels

    def peel(graph):
        graph._level_indptr, graph._topo_order = frontier_peel_levels(graph)

    ExecutionGraph._compute_levels = peel
    try:
        yield
    finally:
        ExecutionGraph._compute_levels = engine


def _time(fn, reps: int):
    """Best-of-``reps`` wall time with the GC paused during the window.

    Noise (scheduler preemption, GC pauses) only ever *adds* time, so the
    minimum over repetitions is the stable estimator for a ratio pin.
    """
    fn()  # warm-up (imports, allocator)
    best = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            t0 = time.perf_counter()
            out = fn()
            best = min(best, time.perf_counter() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best, out


def _run():
    algorithms = CollectiveAlgorithms()
    protocol = ProtocolConfig.from_params(CSCS_TESTBED)
    program = _straggler_program()

    # The program→batches conversion is byte-for-byte the same work on both
    # paths, so it runs once up front; its cost is reported alongside the
    # ratio (and folded into the program-inclusive totals below).
    batches_s, batches = _time(lambda: batches_from_program(program), reps=3)

    def pipeline():
        graph = build_columnar(
            batches, NRANKS, algorithms=algorithms, protocol=protocol
        )
        compiled = compile_lp(graph, CSCS_TESTBED)
        return graph, compiled, compiled.model.solve(backend="highs")

    def peel_pipeline():
        with _peel_levels():
            return pipeline()

    peel_s, (peel_graph, peel_lp, peel_sol) = _time(peel_pipeline, reps=3)
    engine_s, (graph, lp, sol) = _time(pipeline, reps=3)

    # bit-identity: same levels, CSR arrays, solution and content digest
    for ours, oracle in zip(graph.topo_levels(), peel_graph.topo_levels()):
        np.testing.assert_array_equal(ours, oracle)
    arrays = lp.model.to_arrays()
    peel_arrays = peel_lp.model.to_arrays()
    assert arrays.keys() == peel_arrays.keys()
    for key in arrays:
        a, b = arrays[key], peel_arrays[key]
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b, err_msg=key)
        else:
            assert a == b, key
    assert sol.objective == peel_sol.objective
    np.testing.assert_array_equal(sol.duals, peel_sol.duals)
    assert graph.content_digest() == peel_graph.content_digest()

    # Fig. 8 grid: all four strategies in one traversal vs the sweep loop
    grid_graph = build_columnar(
        batches_from_program(_grid_program()),
        NRANKS,
        algorithms=algorithms,
        protocol=protocol,
    )

    def grid_pass():
        return simulate_sweep_grid(
            grid_graph, CSCS_TESTBED, GRID_DELTAS, injectors=INJECTOR_NAMES
        )

    def looped_pass():
        return [
            simulate_sweep(grid_graph, CSCS_TESTBED, GRID_DELTAS, injector=name)
            for name in INJECTOR_NAMES
        ]

    grid_s, grid = _time(grid_pass, reps=3)
    looped_s, looped = _time(looped_pass, reps=3)
    for i, sweep in enumerate(looped):
        np.testing.assert_array_equal(grid.makespan[i], sweep.makespan)
        np.testing.assert_array_equal(grid.rank_finish[i], sweep.rank_finish)

    return {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "num_levels": graph.num_levels,
        "batches_s": batches_s,
        "peel_s": peel_s,
        "engine_s": engine_s,
        "speedup": peel_s / engine_s,
        "peel_total_s": batches_s + peel_s,
        "engine_total_s": batches_s + engine_s,
        "total_speedup": (batches_s + peel_s) / (batches_s + engine_s),
        "objective_us": sol.objective,
        "grid_vertices": grid_graph.num_vertices,
        "grid_points": int(len(INJECTOR_NAMES) * len(GRID_DELTAS)),
        "grid_s": grid_s,
        "looped_s": looped_s,
        "grid_speedup": looped_s / grid_s,
    }


def test_fused_pipeline_speedup(run_once):
    results = run_once(_run)

    print_header(
        f"Deep-chain graph build — {NRANKS}-rank straggler allreduce, "
        f"{results['vertices']} vertices / {results['num_levels']} levels "
        f"(shared program→batches: {results['batches_s'] * 1e3:.1f} ms)"
    )
    print_rows(
        ["levels", "batches→objective [ms]", "speedup"],
        [
            ["frontier peel (oracle)", results["peel_s"] * 1e3, 1.0],
            ["chain-condensed engine", results["engine_s"] * 1e3, results["speedup"]],
        ],
    )
    print(
        f"\nprogram-inclusive: {results['peel_total_s'] * 1e3:.1f} ms → "
        f"{results['engine_total_s'] * 1e3:.1f} ms "
        f"({results['total_speedup']:.2f}x)"
    )
    print(
        f"\nFig. 8 grid ({results['grid_points']} points, "
        f"{results['grid_vertices']} vertices, one traversal):"
    )
    print_rows(
        ["path", "time [ms]", "speedup"],
        [
            ["per-injector sweep loop", results["looped_s"] * 1e3, 1.0],
            ["2-D sweep grid", results["grid_s"] * 1e3, results["grid_speedup"]],
        ],
    )
    emit_json("fused_pipeline", results)

    assert results["speedup"] >= MIN_SPEEDUP, (
        f"production pipeline only {results['speedup']:.2f}x faster than "
        f"the same pipeline with frontier-peel levels"
    )
    assert results["grid_speedup"] >= MIN_GRID_SPEEDUP, (
        f"2-D grid only {results['grid_speedup']:.2f}x faster than the "
        f"per-injector loop"
    )
