"""Fused graph build: op batches → zero-copy graph → CSR vs freeze-then-compile.

A consumer that only reads the graph (the LP compiler, the forward envelope)
never needs a frozen, validated ``ExecutionGraph``.
``build_columnar_fused`` therefore attaches a zero-copy graph over the
schedule builder's column buffers and computes the topological levels by
chain condensation (run collapse + pointer jumping over single-predecessor
chains) instead of the generic frontier peel, skipping the freeze copies and
the structural validation pass entirely; ``compile_lp`` on it emits a
**bit-identical** LP.  It is the graph behind ``ScheduleBatches.graph_for``
(the chunked trace ingest of ``llamp ingest``).

The LP workload is a 64-rank allreduce schedule with a long straggler
compute chain on rank 0 — the shape the frozen path is worst at (levels ≈
vertices, so the per-level frontier peel degenerates to a per-vertex list
walk) and the chain-condensed engine is built for (the chain collapses in
one O(n) pass).  Both timed paths start from the same ``RankOpBatch``
columns: the program→batches conversion is shared verbatim by both
pipelines, so it is hoisted out of the ratio and reported separately
(``batches_s``; program-inclusive totals are in the JSON too).

Acceptance criteria:

* batches→objective, the fused pipeline is at least **3×** faster than
  freeze-then-compile on the straggler allreduce schedule, with identical
  LP structure, objective, duals and graph content digest;
* the 2-D ``(injector × ΔL)`` sweep grid traverses the Fig. 8 strategy grid
  in one pass at least **1.4×** faster than the per-injector sweep loop,
  bit-identically (on a balanced allreduce schedule — the simulator bench
  shape, not the straggler chain).
"""

from __future__ import annotations

import gc
import time

import numpy as np

from repro.lp import compile_lp
from repro.mpi import run_program
from repro.network.params import CSCS_TESTBED
from repro.schedgen.builder import ProtocolConfig
from repro.schedgen.collectives import CollectiveAlgorithms
from repro.schedgen.columnar import (
    batches_from_program,
    build_columnar,
    build_columnar_fused,
)
from repro.simulator import INJECTOR_NAMES, simulate_sweep, simulate_sweep_grid

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

    def frozen_path():
        graph = build_columnar(
            batches, NRANKS, algorithms=algorithms, protocol=protocol
        )
        compiled = compile_lp(graph, CSCS_TESTBED)
        return graph, compiled, compiled.model.solve(backend="highs")

    def fused_path():
        graph = build_columnar_fused(
            batches, NRANKS, algorithms=algorithms, protocol=protocol
        )
        compiled = compile_lp(graph, CSCS_TESTBED)
        return graph, compiled, compiled.model.solve(backend="highs")

    frozen_s, (frozen_graph, frozen_lp, frozen_sol) = _time(frozen_path, reps=3)
    fused_s, (fused_graph, fused_lp, fused_sol) = _time(fused_path, reps=3)

    # bit-identity: same CSR arrays, same solution, same content digest
    frozen_arrays = frozen_lp.model.to_arrays()
    fused_arrays = fused_lp.model.to_arrays()
    assert frozen_arrays.keys() == fused_arrays.keys()
    for key in frozen_arrays:
        a, b = fused_arrays[key], frozen_arrays[key]
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b, err_msg=key)
        else:
            assert a == b, key
    assert fused_sol.objective == frozen_sol.objective
    np.testing.assert_array_equal(fused_sol.duals, frozen_sol.duals)
    assert fused_graph.content_digest() == frozen_graph.content_digest()

    # Fig. 8 grid: all four strategies in one traversal vs the sweep loop
    grid_graph = build_columnar_fused(
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
        "vertices": fused_graph.num_vertices,
        "edges": fused_graph.num_edges,
        "num_levels": fused_graph.num_levels,
        "batches_s": batches_s,
        "frozen_s": frozen_s,
        "fused_s": fused_s,
        "speedup": frozen_s / fused_s,
        "frozen_total_s": batches_s + frozen_s,
        "fused_total_s": batches_s + fused_s,
        "total_speedup": (batches_s + frozen_s) / (batches_s + fused_s),
        "objective_us": fused_sol.objective,
        "grid_vertices": grid_graph.num_vertices,
        "grid_points": int(len(INJECTOR_NAMES) * len(GRID_DELTAS)),
        "grid_s": grid_s,
        "looped_s": looped_s,
        "grid_speedup": looped_s / grid_s,
    }


def test_fused_pipeline_speedup(run_once):
    results = run_once(_run)

    print_header(
        f"Fused analyze-only pipeline — {NRANKS}-rank straggler allreduce, "
        f"{results['vertices']} vertices / {results['num_levels']} levels "
        f"(shared program→batches: {results['batches_s'] * 1e3:.1f} ms)"
    )
    print_rows(
        ["path", "batches→objective [ms]", "speedup"],
        [
            ["freeze-then-compile", results["frozen_s"] * 1e3, 1.0],
            ["fused (batches→CSR)", results["fused_s"] * 1e3, results["speedup"]],
        ],
    )
    print(
        f"\nprogram-inclusive: {results['frozen_total_s'] * 1e3:.1f} ms → "
        f"{results['fused_total_s'] * 1e3:.1f} ms "
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
        f"fused pipeline only {results['speedup']:.2f}x faster than "
        f"freeze-then-compile"
    )
    assert results["grid_speedup"] >= MIN_GRID_SPEEDUP, (
        f"2-D grid only {results['grid_speedup']:.2f}x faster than the "
        f"per-injector loop"
    )
