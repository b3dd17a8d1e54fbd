"""Schedule→graph construction: columnar engine vs the op-by-op legacy path.

PR 3 made graph→LP lowering vectorised, which left *building* the execution
graph as the end-to-end bottleneck on large schedules: the legacy engine
emits one vertex per builder call and matches sends to receives with a
per-vertex queue scan in Python.  The columnar engine
(:mod:`repro.schedgen.columnar`) emits whole collective rounds and whole
point-to-point segments as index arithmetic through the bulk builder APIs
and matches messages with two lexicographic sorts.

Acceptance criterion: on the 64-rank allreduce schedule the columnar build
(the production engine) must be at least **10×** faster than the legacy
build (the ``builder_engine="legacy"`` oracle of ``ScheduleGenerator``), with the frozen
graphs **bit-identical** (same vertex ids, attribute columns and edge
order).  The trace-driven build (liballprof-style ingestion through
``build_from_trace``) is measured as well.
"""

from __future__ import annotations

import time

import numpy as np

from repro.mpi import run_program, trace_program
from repro.network.params import LogGPSParams
from repro.schedgen import CollectiveAlgorithms, ScheduleGenerator

from _bench_utils import emit_json, print_header, print_rows

NRANKS = 64
RING_ITERATIONS = 12
RD_ITERATIONS = 120
TRACE_ITERATIONS = 30
MESSAGE_BYTES = 64 * 1024
MIN_SPEEDUP = 10.0          # headline: the ring allreduce schedule
MIN_SPEEDUP_SECONDARY = 4.0  # recursive doubling + trace ingestion

PARAMS = LogGPSParams(L=1.0, o=0.5, g=0.0, G=0.001)

_ARRAYS = ("kind", "rank", "cost", "size", "peer", "tag",
           "edge_src", "edge_dst", "edge_kind")


def _assert_identical(legacy, columnar) -> None:
    for name in _ARRAYS:
        assert np.array_equal(getattr(legacy, name), getattr(columnar, name)), name
    assert legacy.labels == columnar.labels


def _allreduce_program(iterations: int):
    def app(comm):
        for _ in range(iterations):
            comm.compute(1.0)
            comm.allreduce(MESSAGE_BYTES)

    return run_program(app, NRANKS)


def _traced_schedule():
    """A trace with collectives, blocking and non-blocking p2p traffic."""

    def app(comm):
        for i in range(TRACE_ITERATIONS):
            comm.compute(1.0)
            comm.allreduce(2048)
            r = comm.irecv((comm.rank - 1) % comm.size, 512, tag=i)
            s = comm.isend((comm.rank + 1) % comm.size, 512, tag=i)
            comm.compute(0.5)
            comm.waitall([r, s])

    return trace_program(run_program(app, NRANKS), PARAMS)


def _time_program_build(program, algorithms, engine: str, reps: int):
    best = float("inf")
    graph = None
    for _ in range(reps):
        start = time.perf_counter()
        generator = ScheduleGenerator(algorithms=algorithms, builder_engine=engine)
        graph = generator.build(program)
        best = min(best, time.perf_counter() - start)
    return best, graph


def _time_trace_build(trace, engine: str, reps: int):
    generator = ScheduleGenerator(builder_engine=engine)
    best = float("inf")
    graph = None
    for _ in range(reps):
        start = time.perf_counter()
        graph = generator.build_from_trace(trace)
        best = min(best, time.perf_counter() - start)
    return best, graph


def _run():
    results = {}

    ring = CollectiveAlgorithms(allreduce="ring")
    program = _allreduce_program(RING_ITERATIONS)
    legacy_s, legacy_graph = _time_program_build(program, ring, "legacy", reps=1)
    columnar_s, columnar_graph = _time_program_build(program, ring, "columnar", reps=3)
    _assert_identical(legacy_graph, columnar_graph)
    results["ring"] = {
        "vertices": legacy_graph.num_vertices,
        "edges": legacy_graph.num_edges,
        "legacy_s": legacy_s,
        "columnar_s": columnar_s,
        "speedup": legacy_s / columnar_s,
    }

    program = _allreduce_program(RD_ITERATIONS)
    legacy_s, legacy_graph = _time_program_build(program, None, "legacy", reps=1)
    columnar_s, columnar_graph = _time_program_build(program, None, "columnar", reps=3)
    _assert_identical(legacy_graph, columnar_graph)
    results["recursive_doubling"] = {
        "vertices": legacy_graph.num_vertices,
        "edges": legacy_graph.num_edges,
        "legacy_s": legacy_s,
        "columnar_s": columnar_s,
        "speedup": legacy_s / columnar_s,
    }

    trace = _traced_schedule()
    legacy_s, legacy_graph = _time_trace_build(trace, "legacy", reps=1)
    columnar_s, columnar_graph = _time_trace_build(trace, "columnar", reps=3)
    _assert_identical(legacy_graph, columnar_graph)
    results["trace"] = {
        "records": trace.num_records,
        "vertices": legacy_graph.num_vertices,
        "edges": legacy_graph.num_edges,
        "legacy_s": legacy_s,
        "columnar_s": columnar_s,
        "speedup": legacy_s / columnar_s,
    }
    return results


def test_columnar_build_speedup(run_once):
    results = run_once(_run)

    print_header(
        f"Schedule→graph construction — {NRANKS}-rank allreduce schedules "
        "(columnar vs legacy, bit-identical graphs)"
    )
    print_rows(
        ["schedule", "vertices", "legacy [ms]", "columnar [ms]", "speedup"],
        [
            [
                name,
                entry["vertices"],
                entry["legacy_s"] * 1e3,
                entry["columnar_s"] * 1e3,
                entry["speedup"],
            ]
            for name, entry in results.items()
        ],
    )
    emit_json("graph_build", results)

    assert results["ring"]["speedup"] >= MIN_SPEEDUP, (
        f"columnar build only {results['ring']['speedup']:.1f}x faster than "
        f"legacy on the ring allreduce schedule"
    )
    for name in ("recursive_doubling", "trace"):
        assert results[name]["speedup"] >= MIN_SPEEDUP_SECONDARY, (
            f"columnar build only {results[name]['speedup']:.1f}x faster on {name}"
        )
