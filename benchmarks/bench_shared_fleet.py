"""Digest-deduped scenario fleet vs the per-scenario pickling pool.

A plain process pool pickles the :class:`ExecutionGraph` into every
scenario's task: a duplicated-graph fleet of J scenarios over U unique
graphs costs J graph pickles *and* J full scenario runs.  The
:class:`~repro.parallel.SweepPool` groups the batch by envelope key before
it submits anything, one worker call per key that computes the envelope
once and each distinct simulated sweep once, so the same fleet (here every
scenario of a graph is the same task) costs U pickles and U runs.  Both
pools pickle a graph the same way (its identity columns, see
``ExecutionGraph.__reduce__``), so the ratio measures the dedupe.

Both paths run the same work per scenario: the forward ``T(L)`` envelope
plus a ``SIM_POINTS``-point simulated ΔL sweep (``simulate_sweep``, the
``sim`` part of a fleet scenario with an injector).  The envelope alone
takes ~0.1 s on these 129,536-vertex graphs, too little to outweigh the
workers' boot; the simulated sweep brings a scenario to ~0.5 s on a 2-vCPU
Xeon VM.

Acceptance criterion: on a fleet of ``DUPLICATES`` copies of each of two
64-rank ring-allreduce schedules, the deduped fleet must be at least
**5×** faster end-to-end than the per-scenario pickling pool, with
**bit-identical** envelopes and simulated runtimes, **zero** leaked
``/dev/shm`` segments after the run, and per-worker peak RSS no worse than
~the pickling pool's.
"""

from __future__ import annotations

import multiprocessing
import resource
import time

import numpy as np

from repro.core.envelope import forward_envelope
from repro.mpi import run_program
from repro.network.params import LogGPSParams
from repro.parallel import SweepPool, SweepTask, live_shared_segments
from repro.schedgen import CollectiveAlgorithms, build_graph
from repro.simulator.columnar import simulate_sweep

from _bench_utils import emit_json, print_header, print_rows

NRANKS = 64
ITERATIONS = 8
MESSAGE_BYTES = (64 * 1024, 32 * 1024)  # two unique graphs
DUPLICATES = 12                          # scenarios per unique graph
L_MIN, L_MAX = 1.0, 3.0
# the simulated ΔL sweep of every scenario: the per-task work both paths share
INJECTOR = "ideal"
SIM_POINTS = 64
SIM_DELTAS = tuple(np.linspace(0.0, 2.0, SIM_POINTS).tolist())
# pinned worker count: both paths use the same pool size, so the measured
# ratio isolates the protocol difference (duplicate runs vs digest
# dedupe) instead of the host's core count
PROCESSES = 2
MIN_SPEEDUP = 5.0
RSS_SLACK = 1.25

PARAMS = LogGPSParams(L=1.0, o=0.5, g=0.0, G=0.001)


def _build_graphs():
    graphs = []
    for message_bytes in MESSAGE_BYTES:

        def app(comm, _bytes=message_bytes):
            for _ in range(ITERATIONS):
                comm.compute(1.0)
                comm.allreduce(_bytes)

        program = run_program(app, NRANKS)
        graphs.append(
            build_graph(program, algorithms=CollectiveAlgorithms(allreduce="ring"))
        )
    return graphs


def _pickling_job(graph):
    """The per-scenario path: the graph arrives pickled inside every task."""
    envelope = forward_envelope(graph, PARAMS, l_min=L_MIN, l_max=L_MAX)
    sim = simulate_sweep(graph, PARAMS, list(SIM_DELTAS), injector=INJECTOR)
    rss_kb = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return envelope, sim.makespan.tolist(), rss_kb


def _run_pickling_pool(fleet):
    start = time.perf_counter()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(PROCESSES) as pool:
        out = pool.map(_pickling_job, fleet)
    elapsed = time.perf_counter() - start
    results = [(envelope, sim) for envelope, sim, _ in out]
    return elapsed, results, max(rss for _, _, rss in out)


def _run_shared_fleet(fleet):
    digests = [graph.content_digest() for graph in fleet]
    by_digest = dict(zip(digests, fleet))
    tasks = [
        SweepTask(
            graph_digest=digest,
            params_digest=PARAMS.content_digest(),
            l_min=L_MIN,
            l_max=L_MAX,
            sim=(INJECTOR, SIM_DELTAS),
            params=PARAMS,
            scenario=f"fleet[{i}]",
        )
        for i, digest in enumerate(digests)
    ]
    start = time.perf_counter()
    with SweepPool(PROCESSES) as pool:
        payloads = pool.run_tasks(tasks, by_digest)
    elapsed = time.perf_counter() - start
    results = [(payload["envelope"], payload["sim_runtimes"]) for payload in payloads]
    return elapsed, results, max(p["worker_rss_kb"] for p in payloads)


def _run():
    segments_before = live_shared_segments()
    graphs = _build_graphs()
    # the duplicated-graph fleet: every unique schedule appears DUPLICATES times
    fleet = [graphs[i % len(graphs)] for i in range(len(graphs) * DUPLICATES)]

    pickling_s, pickling_results, pickling_rss = _run_pickling_pool(fleet)
    shared_s, shared_results, shared_rss = _run_shared_fleet(fleet)

    return {
        "nranks": NRANKS,
        "vertices": graphs[0].num_vertices,
        "unique_graphs": len(graphs),
        "fleet_size": len(fleet),
        "processes": PROCESSES,
        "sim_points": SIM_POINTS,
        "pickling_s": pickling_s,
        "shared_s": shared_s,
        "speedup": pickling_s / shared_s,
        "pickling_worker_rss_kb": pickling_rss,
        "shared_worker_rss_kb": shared_rss,
        "bit_identical": shared_results == pickling_results,
        "leaked_segments": sorted(live_shared_segments() - segments_before),
    }


def test_shared_fleet_speedup(run_once):
    results = run_once(_run)

    print_header(
        f"Digest-deduped scenario fleet — {results['fleet_size']} scenarios over "
        f"{results['unique_graphs']} unique {NRANKS}-rank ring-allreduce graphs, "
        f"envelope + {SIM_POINTS} simulated ΔL points each"
    )
    print_rows(
        ["path", "wall [s]", "worker RSS [MB]"],
        [
            ["pickling pool", results["pickling_s"], results["pickling_worker_rss_kb"] / 1024],
            ["shared fleet", results["shared_s"], results["shared_worker_rss_kb"] / 1024],
        ],
    )
    print(f"speedup: {results['speedup']:.1f}x  "
          f"(bit-identical: {results['bit_identical']}, "
          f"leaked segments: {len(results['leaked_segments'])})")

    emit_json("shared_fleet", results)

    assert results["bit_identical"], "shared fleet results differ from the pickling pool"
    assert not results["leaked_segments"], (
        f"leaked shared-memory segments: {results['leaked_segments']}"
    )
    assert results["speedup"] >= MIN_SPEEDUP, (
        f"shared fleet only {results['speedup']:.1f}x faster than the pickling pool"
    )
    assert results["shared_worker_rss_kb"] <= results["pickling_worker_rss_kb"] * RSS_SLACK, (
        "shared-fleet worker RSS grew versus the pickling pool: "
        f"{results['shared_worker_rss_kb']} kB vs {results['pickling_worker_rss_kb']} kB"
    )
