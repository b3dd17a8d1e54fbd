"""Out-of-core ingestion: streaming trace→batches vs the monolithic reader.

The monolithic path (``load_trace`` → ``batches_from_trace``) materialises
one Python ``TraceRecord`` object per call before columnarising — several
hundred bytes of boxes and pointers for 80 bytes of payload — so its peak
RSS is O(schedule).  The chunked reader
(:func:`repro.schedgen.streaming.batches_from_trace_chunked`) parses
fixed-size record blocks straight into column chunks and spills completed
columns to disk-backed memmaps, so its peak during ingestion is
O(chunk), independent of the trace length.

Both paths are measured in **subprocesses** (one pipeline each) that report
their own ``VmHWM`` delta over a post-import baseline — peak RSS is a
process-lifetime high-water mark, so sharing a process would let either
path inherit the other's peak.  Each child then builds the execution graph
(``ScheduleBatches.graph_for``: frozen, validated and levelled like every
graph) and reports its ``content_digest()``, pinning the streaming path
bit-identical to the monolithic one on the exact bytes the artifact cache
keys on.

The second tier is the million-rank stress run: a synthetic ring/halo trace
(``$BENCH_STREAM_INGEST_RANKS`` ranks, default 1 000 000; CI reduces it) is
streamed through chunked ingestion into a disk-backed graph
(``build_columnar(..., mmap_dir=...)``: the frozen graph keeps the
builder's memory-mapped columns), LP compile, one simulated objective and
the exact ``T(L)`` envelope — the full analyze-only pipeline —
inside a fixed memory budget that would be blown several times over by the
per-record object overhead of the monolithic reader at that scale.

Acceptance criteria:

* streaming and monolithic ingestion produce the **same graph content
  digest** (bit-identical columns);
* the streaming path's ingestion peak-RSS delta is at least **4× lower**
  than the monolithic reader's on the same trace;
* the million-rank ring trace runs trace→batches→graph→LP→objective inside
  the scaled memory budget.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

from _bench_utils import emit_json, print_header, print_rows

# A/B tier: enough records that per-record Python-object overhead dominates
# the monolithic reader's footprint, small enough to parse in seconds.
AB_RANKS = 64
AB_ITERATIONS = int(os.environ.get("BENCH_STREAM_INGEST_AB_ITERATIONS", "3000"))
AB_CHUNK_RECORDS = 8192
AB_SPILL_BYTES = 4 << 20
MIN_RSS_RATIO = 4.0

# stress tier: ring/halo at (by default) one million ranks, chunked only.
STRESS_RANKS = int(os.environ.get("BENCH_STREAM_INGEST_RANKS", "1000000"))
# dirty graph columns + LP compile temporaries measure ~1.1 KiB per rank at
# 100k ranks; 4 KiB/rank plus a flat floor is comfortable headroom without
# admitting a per-record-object reader (~2.5 KiB of boxes per rank extra).
STRESS_BUDGET_MB = 512.0 + STRESS_RANKS * 4096.0 / (1 << 20)

MESSAGE_BYTES = 8  # below the rendezvous threshold: no cross-ring dep chain


def _write_ring_trace(path: str, nranks: int, iterations: int) -> int:
    """Stream a synthetic ring trace to ``path``; returns the record count.

    Per rank and iteration: a compute gap, a send to the next rank and a
    receive from the previous one — the halo-exchange skeleton.  Written
    incrementally so generation itself stays O(1) in the trace length.
    """
    records = 0
    with open(path, "w", encoding="utf-8", buffering=1 << 20) as fh:
        fh.write("# llamp-trace v1\n")
        fh.write("# meta app=ring-halo\n")
        for rank in range(nranks):
            fh.write(f"@rank {rank}\n")
            succ = (rank + 1) % nranks
            pred = (rank - 1) % nranks
            t = 0.0
            for _ in range(iterations):
                fh.write(
                    f"MPI_Send:{t + 1.0:.6f}:{t + 1.5:.6f}"
                    f":peer={succ}:size={MESSAGE_BYTES}:tag=1\n"
                )
                fh.write(
                    f"MPI_Recv:{t + 2.5:.6f}:{t + 3.0:.6f}"
                    f":peer={pred}:size={MESSAGE_BYTES}:tag=1\n"
                )
                t += 3.0
                records += 2
    return records


_CHILD_PRELUDE = r"""
import json, os, sys, tempfile, shutil

def vmhwm_mb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return float(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found")

trace_path = os.environ["BENCH_TRACE_PATH"]
work_dir = tempfile.mkdtemp(prefix="bench-stream-")
try:
    from repro.network.params import LogGPSParams
    from repro.schedgen.columnar import ScheduleBatches, batches_from_trace

    params = LogGPSParams()
    baseline_mb = vmhwm_mb()
"""

_CHILD_EPILOGUE = r"""
    print(json.dumps(out))
finally:
    shutil.rmtree(work_dir, ignore_errors=True)
"""

# Monolithic: TraceRecord objects + in-RAM columns; digest of the graph.
_CHILD_MONOLITHIC = _CHILD_PRELUDE + r"""
    from repro.trace.format import load_trace

    trace = load_trace(trace_path)
    batches = batches_from_trace(trace)
    ingest_delta_mb = vmhwm_mb() - baseline_mb
    nranks = trace.nranks
    del trace
    spec = ScheduleBatches(batches, nranks)
    out = {
        "path": "monolithic",
        "records": sum(len(b) for b in batches),
        "ingest_delta_mb": ingest_delta_mb,
        "digest": spec.content_digest(params),
        "total_delta_mb": vmhwm_mb() - baseline_mb,
    }
""" + _CHILD_EPILOGUE

# Chunked: column blocks spilled to memmaps; the graph is disk-backed too.
_CHILD_CHUNKED = _CHILD_PRELUDE + r"""
    from repro.schedgen.streaming import batches_from_trace_chunked

    batches = batches_from_trace_chunked(
        trace_path,
        chunk_size=int(os.environ["BENCH_CHUNK_RECORDS"]),
        spill_dir=work_dir,
        spill_threshold_bytes=int(os.environ["BENCH_SPILL_BYTES"]),
    )
    ingest_delta_mb = vmhwm_mb() - baseline_mb
    spec = ScheduleBatches(batches, batches.nranks, mmap_dir=work_dir)
    out = {
        "path": "chunked",
        "records": batches.num_rows,
        "spilled": batches.spilled,
        "ingest_delta_mb": ingest_delta_mb,
        "digest": spec.content_digest(params),
        "total_delta_mb": vmhwm_mb() - baseline_mb,
    }
""" + _CHILD_EPILOGUE

# Stress: the full chunked analyze-only pipeline at million-rank scale.
_CHILD_STRESS = _CHILD_PRELUDE + r"""
    import time

    from repro.core.envelope import forward_envelope
    from repro.lp import compile_lp
    from repro.schedgen.builder import ProtocolConfig
    from repro.schedgen.collectives import CollectiveAlgorithms
    from repro.schedgen.columnar import build_columnar
    from repro.schedgen.streaming import batches_from_trace_chunked
    from repro.simulator import simulate

    t0 = time.perf_counter()
    batches = batches_from_trace_chunked(trace_path, spill_dir=work_dir)
    ingest_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    graph = build_columnar(
        batches,
        batches.nranks,
        algorithms=CollectiveAlgorithms(),
        protocol=ProtocolConfig.from_params(params),
        mmap_dir=work_dir,
    )
    graph_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    compiled = compile_lp(graph, params)
    lp_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    objective_us = simulate(graph, params).makespan
    sim_s = time.perf_counter() - t0

    # the full exact T(L) envelope — not just one objective — must fit the
    # same memory budget: the forward engine traverses the mmap-backed
    # level structure once per search pass and never assembles an LP model
    t0 = time.perf_counter()
    envelope = forward_envelope(graph, params, l_min=0.0, l_max=1000.0)
    envelope_s = time.perf_counter() - t0

    out = {
        "path": "stress",
        "records": batches.num_rows,
        "spilled": batches.spilled,
        "nranks": batches.nranks,
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "lp_variables": len(compiled.model.variables),
        "objective_us": objective_us,
        "ingest_s": ingest_s,
        "graph_s": graph_s,
        "lp_s": lp_s,
        "sim_s": sim_s,
        "envelope_s": envelope_s,
        "envelope_pieces": len(envelope.lines),
        "envelope_value_at_L_us": envelope.value(params.L),
        "peak_delta_mb": vmhwm_mb() - baseline_mb,
    }
""" + _CHILD_EPILOGUE


def _run_child(code: str, trace_path: str, **env_extra: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["BENCH_TRACE_PATH"] = trace_path
    env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"bench child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _run():
    work = tempfile.mkdtemp(prefix="bench-stream-ingest-")
    try:
        # --- A/B tier: monolithic vs chunked on the same trace -------------
        ab_trace = os.path.join(work, "ab.trace")
        ab_records = _write_ring_trace(ab_trace, AB_RANKS, AB_ITERATIONS)
        mono = _run_child(_CHILD_MONOLITHIC, ab_trace)
        chunked = _run_child(
            _CHILD_CHUNKED,
            ab_trace,
            BENCH_CHUNK_RECORDS=str(AB_CHUNK_RECORDS),
            BENCH_SPILL_BYTES=str(AB_SPILL_BYTES),
        )
        # rows include the compute ops synthesised from inter-record gaps,
        # so compare the two paths to each other, not to the raw line count
        assert mono["records"] == chunked["records"]
        # guard the ratio against a ~0 MB denominator on tiny runs
        rss_ratio = mono["ingest_delta_mb"] / max(chunked["ingest_delta_mb"], 1.0)

        # --- stress tier: chunked-only pipeline at million-rank scale ------
        stress_trace = os.path.join(work, "stress.trace")
        t0 = time.perf_counter()
        stress_records = _write_ring_trace(stress_trace, STRESS_RANKS, 1)
        generate_s = time.perf_counter() - t0
        stress = _run_child(_CHILD_STRESS, stress_trace)
        assert stress["records"] >= stress_records

        return {
            "ab_ranks": AB_RANKS,
            "ab_records": ab_records,
            "monolithic_ingest_mb": mono["ingest_delta_mb"],
            "monolithic_total_mb": mono["total_delta_mb"],
            "chunked_ingest_mb": chunked["ingest_delta_mb"],
            "chunked_total_mb": chunked["total_delta_mb"],
            "chunked_spilled": chunked["spilled"],
            "rss_ratio": rss_ratio,
            "digest_match": mono["digest"] == chunked["digest"],
            "digest": mono["digest"],
            "chunked_digest": chunked["digest"],
            "stress_ranks": STRESS_RANKS,
            "stress_budget_mb": STRESS_BUDGET_MB,
            "stress_generate_s": generate_s,
            **{f"stress_{k}": v for k, v in stress.items() if k != "path"},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_stream_ingest_memory(run_once):
    results = run_once(_run)

    print_header(
        f"Streaming trace ingestion — {results['ab_records']} records, "
        f"{results['ab_ranks']} ranks (peak-RSS delta over import baseline)"
    )
    print_rows(
        ["path", "ingest [MB]", "pipeline [MB]", "ratio"],
        [
            [
                "monolithic (records→batches)",
                results["monolithic_ingest_mb"],
                results["monolithic_total_mb"],
                1.0,
            ],
            [
                "chunked (blocks→spilled columns)",
                results["chunked_ingest_mb"],
                results["chunked_total_mb"],
                results["rss_ratio"],
            ],
        ],
    )
    print(
        f"\ncontent digest match: {results['digest_match']} "
        f"({results['digest'][:16]}…)"
    )
    print_header(
        f"Million-rank stress — {results['stress_ranks']} ranks ring/halo, "
        f"chunked → mmap graph → LP → objective"
    )
    print_rows(
        ["stage", "time [s]"],
        [
            ["generate trace", results["stress_generate_s"]],
            ["chunked ingest", results["stress_ingest_s"]],
            ["frozen graph (mmap)", results["stress_graph_s"]],
            ["LP compile", results["stress_lp_s"]],
            ["forward-pass objective", results["stress_sim_s"]],
            ["exact T(L) envelope", results["stress_envelope_s"]],
        ],
    )
    print(
        f"\n{results['stress_vertices']} vertices / {results['stress_edges']} "
        f"edges, objective {results['stress_objective_us']:.1f} us, "
        f"T(L) envelope {results['stress_envelope_pieces']} pieces, "
        f"peak {results['stress_peak_delta_mb']:.0f} MB "
        f"(budget {results['stress_budget_mb']:.0f} MB)"
    )
    emit_json("stream_ingest", results)

    assert results["digest_match"], (
        "chunked ingestion diverged from the monolithic reader: "
        f"{results['digest']} != {results['chunked_digest']}"
    )
    assert results["rss_ratio"] >= MIN_RSS_RATIO, (
        f"streaming ingestion only {results['rss_ratio']:.2f}x below the "
        f"monolithic reader's peak RSS"
    )
    assert results["stress_peak_delta_mb"] <= results["stress_budget_mb"], (
        f"stress pipeline peaked at {results['stress_peak_delta_mb']:.0f} MB, "
        f"over the {results['stress_budget_mb']:.0f} MB budget"
    )
    # a full envelope, not a single point, within the same budget: evaluated
    # at the baseline latency it must reproduce the simulated objective
    assert results["stress_envelope_pieces"] >= 1
    objective = results["stress_objective_us"]
    at_baseline = results["stress_envelope_value_at_L_us"]
    assert abs(at_baseline - objective) <= 1e-6 * max(1.0, abs(objective)), (
        f"envelope T(L) = {at_baseline} diverges from the simulated "
        f"objective {objective}"
    )
