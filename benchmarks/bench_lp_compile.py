"""Graph→LP construction: vectorised compiler vs the symbolic Algorithm 1 sweep.

PRs 1–2 made *solving* incremental (cached CSR assembly + the parametric
envelope engine), so on large schedules model *construction* became the
end-to-end bottleneck: the symbolic builder (kept as the reference
:func:`repro.testing.build_lp_symbolic`) walks the DAG vertex by vertex in
Python, allocating a dict-backed ``LinearExpr`` per vertex.  The compiled
engine (``repro.lp.compiler``) lowers the frozen graph straight to CSR with
NumPy — in-degree classification, pointer-jumped chain compression, rows
only at merge points and sinks.

Acceptance criterion: on a ≥10k-vertex collective schedule the compiled
build must be at least **20×** faster than the symbolic build, with the
solved objective and duals agreeing to 1e-6 (the LP structure is identical,
so this is a sanity check rather than a tolerance).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import build_lp
from repro.mpi import run_program
from repro.network.params import CSCS_TESTBED
from repro.schedgen import build_graph
from repro.testing import build_lp_symbolic

from _bench_utils import emit_json, print_header, print_rows

NRANKS = 16
ITERATIONS = 72
MESSAGE_BYTES = 64 * 1024
MIN_VERTICES = 10_000
MIN_SPEEDUP = 20.0


def collective_schedule():
    """An iterated allreduce schedule (the paper's collective workload shape)."""

    def app(comm):
        for _ in range(ITERATIONS):
            comm.compute(5.0)
            comm.allreduce(MESSAGE_BYTES)

    return build_graph(run_program(app, NRANKS))


def _time_build(graph, build, reps: int) -> tuple[float, object]:
    lp = build(graph, CSCS_TESTBED)  # warm graph caches
    t0 = time.perf_counter()
    for _ in range(reps):
        lp = build(graph, CSCS_TESTBED)
    return (time.perf_counter() - t0) / reps, lp


def _run():
    graph = collective_schedule()
    symbolic_s, symbolic_lp = _time_build(graph, build_lp_symbolic, reps=1)
    compiled_s, compiled_lp = _time_build(graph, build_lp, reps=5)

    s_sol = symbolic_lp.solve_runtime(backend="highs")
    c_sol = compiled_lp.solve_runtime(backend="highs")
    return {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "messages": graph.num_messages,
        "symbolic_s": symbolic_s,
        "compiled_s": compiled_s,
        "speedup": symbolic_s / compiled_s,
        "objective_symbolic_us": s_sol.objective,
        "objective_compiled_us": c_sol.objective,
        "objective_diff": abs(s_sol.objective - c_sol.objective),
        "max_dual_diff": float(np.abs(s_sol.duals - c_sol.duals).max()),
    }


def test_compiled_build_speedup(run_once):
    results = run_once(_run)

    print_header(
        f"Graph→LP compiler — {NRANKS}-rank allreduce schedule, "
        f"{results['vertices']} vertices / {results['messages']} messages"
    )
    print_rows(
        ["engine", "build [ms]", "speedup"],
        [
            ["symbolic", results["symbolic_s"] * 1e3, 1.0],
            ["compiled", results["compiled_s"] * 1e3, results["speedup"]],
        ],
    )
    emit_json("lp_compile", results)

    assert results["vertices"] >= MIN_VERTICES
    assert results["objective_diff"] < 1e-6
    assert results["max_dual_diff"] < 1e-6
    assert results["speedup"] >= MIN_SPEEDUP, (
        f"compiled build only {results['speedup']:.1f}x faster than symbolic"
    )
