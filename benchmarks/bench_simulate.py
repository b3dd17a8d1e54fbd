"""LogGOPS simulation — level-synchronous engine vs the per-vertex reference walk.

The paper's headline comparison (Table I / Fig. 7) pits the LP solver
against LogGOPSim-style re-simulation, and every validation sweep re-runs
the simulator once per latency point.  The level engine
(:mod:`repro.simulator.columnar`) processes whole topological levels as
array passes, and :func:`~repro.simulator.columnar.simulate_sweep` advances
*all* ΔL points of a sweep per level in one 2-D pass.

Acceptance criteria: on the 64-rank ring-allreduce schedule the level
engine (:func:`~repro.simulator.simulate`) must be at least **10×** faster
than the legacy walk (:class:`repro.testing.LogGOPSSimulator`) with
**identical timestamps** (atol 1e-9; bit-exact here), and the batched sweep
must beat per-point legacy re-simulation by a larger factor again.
"""

from __future__ import annotations

import time

import numpy as np

from repro.mpi import run_program
from repro.network.params import LogGPSParams
from repro.schedgen import CollectiveAlgorithms, build_graph
from repro.simulator import make_injector, simulate, simulate_sweep
from repro.testing import LogGOPSSimulator

from _bench_utils import emit_json, print_header, print_rows

NRANKS = 64
ITERATIONS = 12
MESSAGE_BYTES = 64 * 1024
SWEEP_DELTAS = np.linspace(0.0, 20.0, 4)
MIN_SPEEDUP = 10.0        # single run, level vs legacy
MIN_SWEEP_SPEEDUP = 10.0  # batched sweep vs per-point legacy re-simulation

PARAMS = LogGPSParams(L=1.0, o=0.5, g=0.0, G=0.001)


def _schedule():
    def app(comm):
        for _ in range(ITERATIONS):
            comm.compute(1.0)
            comm.allreduce(MESSAGE_BYTES)

    return build_graph(
        run_program(app, NRANKS), algorithms=CollectiveAlgorithms(allreduce="ring")
    )


def _time(func, reps: int):
    best = float("inf")
    value = None
    for _ in range(reps):
        start = time.perf_counter()
        value = func()
        best = min(best, time.perf_counter() - start)
    return best, value


def _run():
    graph = _schedule()

    legacy_s, legacy = _time(lambda: LogGOPSSimulator(graph, PARAMS).run(), 1)
    level_s, level = _time(lambda: simulate(graph, PARAMS), 3)
    identical = bool(
        np.allclose(legacy.start, level.start, atol=1e-9)
        and np.allclose(legacy.end, level.end, atol=1e-9)
        and abs(legacy.makespan - level.makespan) <= 1e-9
    )

    sweep_s, sweep = _time(
        lambda: simulate_sweep(graph, PARAMS, SWEEP_DELTAS), 3
    )
    per_point_s, per_point = _time(
        lambda: [
            LogGOPSSimulator(graph, PARAMS, injector=make_injector("ideal", d)).run().makespan
            for d in SWEEP_DELTAS
        ],
        1,
    )
    sweep_identical = bool(np.allclose(sweep.makespan, per_point, atol=1e-9))

    return {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "levels": graph.num_levels,
        "legacy_s": legacy_s,
        "level_s": level_s,
        "speedup": legacy_s / level_s,
        "identical": identical,
        "sweep_points": len(SWEEP_DELTAS),
        "sweep_s": sweep_s,
        "per_point_s": per_point_s,
        "sweep_speedup": per_point_s / sweep_s,
        "sweep_identical": sweep_identical,
        "makespan_us": legacy.makespan,
    }


def test_level_engine_speedup(run_once):
    results = run_once(_run)

    print_header(
        f"LogGOPS simulation — {NRANKS}-rank ring allreduce "
        f"({results['vertices']} vertices, {results['levels']} levels)"
    )
    print_rows(
        ["mode", "legacy [ms]", "level [ms]", "speedup", "identical"],
        [
            [
                "single run",
                results["legacy_s"] * 1e3,
                results["level_s"] * 1e3,
                results["speedup"],
                results["identical"],
            ],
            [
                f"{results['sweep_points']}-point sweep",
                results["per_point_s"] * 1e3,
                results["sweep_s"] * 1e3,
                results["sweep_speedup"],
                results["sweep_identical"],
            ],
        ],
    )

    emit_json("simulate", results)

    assert results["identical"], "engines disagree on timestamps"
    assert results["sweep_identical"], "sweep disagrees with per-point runs"
    assert results["speedup"] >= MIN_SPEEDUP, results
    assert results["sweep_speedup"] >= MIN_SWEEP_SPEEDUP, results
