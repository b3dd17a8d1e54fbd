"""Streaming (out-of-core) ingestion: bit-identity with the monolithic paths.

The contract under test is exact: for any valid input,
:func:`repro.schedgen.streaming.batches_from_trace_chunked` must produce the
same column bytes — and therefore the same graph ``content_digest()``
— as ``batches_from_trace(load_trace(...))`` for **every** chunk size,
including sizes that split a rendezvous triple, a waitall group, or a
compute-gap pair across block boundaries.  Likewise
:func:`~repro.schedgen.streaming.load_goal_chunked` must reproduce
:func:`~repro.schedgen.goal.load_goal` byte-for-byte, with or without
memory-mapped builder columns, and the memory-mapped artifact loads of
:mod:`repro.artifacts` must preserve digests while holding no file
descriptors open.  Malformed input — a deadlocked trace among it — must
fail fast: with a ``GraphValidationError`` from the library and a one-line
reason from ``llamp ingest``.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.artifacts.serialize import load_graph, save_graph
from repro.artifacts.store import ArtifactStore
from repro.mpi.tracer import trace_program
from repro.network.params import LogGPSParams
from repro.schedgen import (
    ChunkedBatches,
    batches_from_trace_chunked,
    load_goal,
    load_goal_chunked,
)
from repro.schedgen.columnar import ScheduleBatches, batches_from_trace
from repro.schedgen.goal import dumps_goal
from repro.schedgen.graph import GraphBuilder
from repro.schedgen.streaming import resolve_chunk_size
from repro.testing import build_random_program, build_running_example
from repro.trace.format import TraceFormatError, dumps_trace, loads_trace

PARAMS = LogGPSParams()
SRC = Path(__file__).resolve().parent.parent / "src"

# each rank receives before it sends: the schedule is one cycle of
# single-predecessor vertices, a deadlock
DEADLOCK_TRACE = """\
# llamp-trace v1
@rank 0
MPI_Recv:1.0:2.0:peer=1:size=8:tag=0
MPI_Send:2.0:3.0:peer=1:size=8:tag=0
@rank 1
MPI_Recv:1.0:2.0:peer=0:size=8:tag=0
MPI_Send:2.0:3.0:peer=0:size=8:tag=0
"""

BATCH_COLUMNS = (
    "kind", "cost", "peer", "size", "tag", "root",
    "request", "recv_peer", "recv_size", "recv_tag",
)


def _trace_text(seed: int, **kwargs) -> str:
    program = build_random_program(seed, **kwargs)
    return dumps_trace(trace_program(program, PARAMS))


def _assert_batches_equal(mono, chunked: ChunkedBatches, context: str) -> None:
    assert chunked.nranks == len(mono), context
    for rank in range(len(mono)):
        a, b = mono[rank], chunked[rank]
        for name in BATCH_COLUMNS:
            np.testing.assert_array_equal(
                getattr(a, name), getattr(b, name),
                err_msg=f"{context}: rank {rank} column {name}",
            )
        assert a.requests == b.requests, f"{context}: rank {rank} requests"


class TestTraceChunkedParity:
    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 7, 64, "auto"])
    def test_bitwise_column_parity(self, chunk_size):
        # chunk sizes 1-3 guarantee block boundaries inside rendezvous
        # triples, waitall groups and compute-gap pairs
        text = _trace_text(0)
        mono = batches_from_trace(loads_trace(text))
        chunked = batches_from_trace_chunked(io.StringIO(text), chunk_size=chunk_size)
        _assert_batches_equal(mono, chunked, f"chunk_size={chunk_size}")

    def test_min_compute_parity(self):
        text = _trace_text(1)
        mono = batches_from_trace(loads_trace(text), min_compute=5.0)
        chunked = batches_from_trace_chunked(
            io.StringIO(text), min_compute=5.0, chunk_size=3
        )
        _assert_batches_equal(mono, chunked, "min_compute=5.0")

    def test_fused_graph_digest_parity(self):
        text = _trace_text(2)
        mono = batches_from_trace(loads_trace(text))
        chunked = batches_from_trace_chunked(io.StringIO(text), chunk_size=5)
        digest_mono = ScheduleBatches(mono, len(mono)).content_digest(PARAMS)
        digest_chunked = ScheduleBatches(
            chunked, chunked.nranks
        ).content_digest(PARAMS)
        assert digest_mono == digest_chunked

    def test_reads_from_path(self, tmp_path):
        text = _trace_text(3)
        path = tmp_path / "app.trace"
        path.write_text(text)
        mono = batches_from_trace(loads_trace(text))
        chunked = batches_from_trace_chunked(path, chunk_size=4)
        _assert_batches_equal(mono, chunked, "path input")

    def test_meta_round_trip(self):
        text = _trace_text(0)
        # inject a meta line with an escaped value after the header
        lines = text.split("\n")
        lines.insert(1, "# meta app=weird\\nvalue")
        chunked = batches_from_trace_chunked(io.StringIO("\n".join(lines)))
        assert chunked.meta == {"app": "weird\nvalue"}

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        nranks=st.integers(min_value=2, max_value=5),
        rounds=st.integers(min_value=1, max_value=10),
        chunk_size=st.integers(min_value=1, max_value=97),
    )
    def test_property_digest_identical(self, seed, nranks, rounds, chunk_size):
        # random programs exercise eager and rendezvous protocols, waitall
        # groups and sendrecv; every chunk size must yield the same digest
        program = build_random_program(seed, nranks=nranks, rounds=rounds)
        text = dumps_trace(trace_program(program, PARAMS))
        mono = batches_from_trace(loads_trace(text))
        chunked = batches_from_trace_chunked(io.StringIO(text), chunk_size=chunk_size)
        _assert_batches_equal(mono, chunked, f"seed={seed} chunk={chunk_size}")
        digest_mono = ScheduleBatches(mono, len(mono)).content_digest(PARAMS)
        digest_chunked = ScheduleBatches(
            chunked, chunked.nranks
        ).content_digest(PARAMS)
        assert digest_mono == digest_chunked


class TestTraceChunkedSpill:
    def test_spill_parity_and_flag(self, tmp_path):
        text = _trace_text(4)
        mono = batches_from_trace(loads_trace(text))
        chunked = batches_from_trace_chunked(
            io.StringIO(text), chunk_size=4,
            spill_dir=tmp_path, spill_threshold_bytes=64,
        )
        assert chunked.spilled
        assert isinstance(chunked[0].kind, np.memmap)
        _assert_batches_equal(mono, chunked, "spilled")
        chunked.close()

    def test_below_threshold_stays_in_ram(self, tmp_path):
        text = _trace_text(4)
        chunked = batches_from_trace_chunked(
            io.StringIO(text), spill_dir=tmp_path,
            spill_threshold_bytes=1 << 30,
        )
        assert not chunked.spilled
        assert not isinstance(chunked[0].kind, np.memmap)


class TestTraceChunkedErrors:
    def test_missing_header(self):
        with pytest.raises(TraceFormatError, match="missing header"):
            batches_from_trace_chunked(io.StringIO("not a trace\n"))

    def test_unknown_operation(self):
        text = "# llamp-trace v1\n@rank 0\nMPI_Bogus:0:1\n"
        with pytest.raises(TraceFormatError, match="unknown MPI operation"):
            batches_from_trace_chunked(io.StringIO(text))

    def test_non_monotonic_records(self):
        text = (
            "# llamp-trace v1\n@rank 0\n"
            "MPI_Send:10.0:11.0:peer=1:size=8\n"
            "MPI_Recv:5.0:6.0:peer=1:size=8\n"
        )
        with pytest.raises(ValueError, match="before the previous call ended"):
            batches_from_trace_chunked(io.StringIO(text), chunk_size=1)

    def test_dangling_request(self):
        text = (
            "# llamp-trace v1\n@rank 0\n"
            "MPI_Isend:0.0:1.0:peer=1:size=8:request=3\n"
        )
        with pytest.raises(ValueError, match="requests never completed"):
            batches_from_trace_chunked(io.StringIO(text))

    def test_wait_on_unknown_request(self):
        text = "# llamp-trace v1\n@rank 0\nMPI_Wait:0.0:1.0:request=9\n"
        with pytest.raises(ValueError, match="MPI_Wait on unknown request 9"):
            batches_from_trace_chunked(io.StringIO(text))

    def test_duplicate_rank_header(self):
        text = "# llamp-trace v1\n@rank 0\n@rank 0\n"
        with pytest.raises(TraceFormatError, match="duplicate '@rank 0'"):
            batches_from_trace_chunked(io.StringIO(text))

    def test_non_consecutive_ranks(self):
        text = "# llamp-trace v1\n@rank 0\n@rank 2\n"
        with pytest.raises(ValueError, match="found rank 2 at position 1"):
            batches_from_trace_chunked(io.StringIO(text))

    def test_chunk_size_validation(self):
        assert resolve_chunk_size("auto") == resolve_chunk_size(None)
        assert resolve_chunk_size("17") == 17
        with pytest.raises(ValueError, match="chunk_size"):
            resolve_chunk_size(0)


class TestChunkedBatchesSequence:
    def test_sequence_protocol(self):
        text = _trace_text(5)
        chunked = batches_from_trace_chunked(io.StringIO(text), chunk_size=8)
        assert len(chunked) == chunked.nranks
        assert len(list(chunked)) == chunked.nranks
        assert len(chunked[-1].kind) == len(chunked[chunked.nranks - 1].kind)
        with pytest.raises(IndexError):
            chunked[chunked.nranks]
        with pytest.raises(TypeError):
            chunked[0:2]


class TestGoalChunkedParity:
    @pytest.mark.parametrize("chunk_size", [1, 2, 5, "auto"])
    def test_digest_parity(self, chunk_size):
        text = dumps_goal(build_running_example())
        mono = load_goal(io.StringIO(text))
        chunked = load_goal_chunked(io.StringIO(text), chunk_size=chunk_size)
        assert chunked.content_digest() == mono.content_digest()

    def test_mmap_builder_digest_parity(self, tmp_path):
        text = dumps_goal(build_running_example())
        mono = load_goal(io.StringIO(text))
        chunked = load_goal_chunked(io.StringIO(text), chunk_size=2,
                                    mmap_dir=tmp_path)
        assert chunked.content_digest() == mono.content_digest()
        assert isinstance(chunked.kind, np.memmap)

    def test_reads_from_path(self, tmp_path):
        text = dumps_goal(build_running_example())
        path = tmp_path / "app.goal"
        path.write_text(text)
        mono = load_goal(io.StringIO(text))
        assert load_goal_chunked(path).content_digest() == mono.content_digest()

    def test_validate_rejects_bad_input(self):
        from repro.schedgen.goal import GoalFormatError

        with pytest.raises(GoalFormatError, match="num_ranks"):
            load_goal_chunked(io.StringIO("rank 0 {\n}\n"))
        # unmatched send must be rejected exactly like the monolithic reader
        bad = "num_ranks 2\nrank 0 {\n  l1: send 8b to 1 tag 0\n}\n"
        with pytest.raises(GoalFormatError, match="unmatched send/recv"):
            load_goal_chunked(io.StringIO(bad))


class TestMmapGraphBuilder:
    def test_digest_parity_with_ram_builder(self, tmp_path):
        def build(mmap_dir):
            builder = GraphBuilder(nranks=2, mmap_dir=mmap_dir)
            # enough vertices to force several growth reallocations
            ranks = np.arange(300) % 2
            builder.add_vertices(0, ranks.astype(np.int8) * 0, cost=1.0,
                                 count=300)
            builder.add_dependencies(np.arange(299), np.arange(1, 300))
            return builder.freeze()

        ram = build(None)
        mapped = build(tmp_path)
        assert ram.content_digest() == mapped.content_digest()
        # freeze adopts the builder's columns: the graph stays file-backed
        # (a copy of a memmap is still an np.memmap, but without a file)
        assert isinstance(mapped.kind, np.memmap)
        assert mapped.kind.filename is not None


class TestArtifactMmapLoads:
    def test_mmap_load_graph_digest_parity(self, tmp_path):
        graph = build_running_example()
        graph.topological_order()  # persist the level structure too
        path = tmp_path / "g.npz"
        save_graph(graph, path)
        plain = load_graph(path)
        mapped = load_graph(path, mmap_mode="r")
        assert plain.content_digest() == mapped.content_digest()
        assert isinstance(mapped.kind, np.memmap)
        np.testing.assert_array_equal(mapped._topo_order, plain._topo_order)

    def test_mmap_mode_validation(self, tmp_path):
        with pytest.raises(ValueError, match="mmap_mode"):
            load_graph(tmp_path / "missing.npz", mmap_mode="r+")
        with pytest.raises(ValueError, match="graph_mmap_mode"):
            ArtifactStore(tmp_path, graph_mmap_mode="w")

    def test_store_mmap_loads_leak_no_fds(self, tmp_path):
        graph = build_running_example()
        store = ArtifactStore(tmp_path, graph_mmap_mode="r")
        key = graph.content_digest()
        store.put("graph", key, graph)

        def open_fds() -> int:
            return len(os.listdir("/proc/self/fd"))

        if not Path("/proc/self/fd").is_dir():
            pytest.skip("needs /proc")
        baseline = None
        for i in range(40):
            loaded = store.get("graph", key)
            assert loaded is not None
            assert loaded.content_digest() == key
            if i == 4:  # settle warm-up allocations first
                baseline = open_fds()
        assert open_fds() <= baseline


def _run_python(*args: str, stdin: str | None = None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on ``src/`` under a timeout, so input that
    makes the code loop fails the calling test instead of hanging the suite."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, *args], input=stdin, env=env,
        capture_output=True, text=True, timeout=30,
    )


class TestDeadlockedTrace:
    def test_from_batches_raises_instead_of_hanging(self):
        child = textwrap.dedent("""
            import io, sys
            from repro.core import LatencyAnalyzer
            from repro.network.params import LogGPSParams
            from repro.schedgen import GraphValidationError, batches_from_trace_chunked
            batches = batches_from_trace_chunked(io.StringIO(sys.stdin.read()))
            try:
                LatencyAnalyzer.from_batches(batches, batches.nranks, LogGPSParams())
            except GraphValidationError as error:
                print(error)
        """)
        proc = _run_python("-c", child, stdin=DEADLOCK_TRACE)
        assert proc.returncode == 0, proc.stderr
        assert "cycle" in proc.stdout


class TestIngestCommandErrors:
    """``llamp ingest`` names the reason for malformed input in one line."""

    @pytest.mark.parametrize("fmt,name,text,reason", [
        ("trace", "deadlock.trace", DEADLOCK_TRACE, "cycle"),
        ("trace", "bogus.trace", "# llamp-trace v1\n@rank 0\nMPI_Bogus:0:1\n",
         "unknown MPI operation 'MPI_Bogus'"),
        ("goal", "cyclic.goal",
         "num_ranks 1\nrank 0 {\n  l1: calc 100\n  l2: calc 200\n"
         "  l2 requires l1\n  l1 requires l2\n}\n", "cycle"),
    ], ids=["deadlock", "unknown-op", "cyclic-goal"])
    def test_malformed_input_exits_with_one_line(self, tmp_path, fmt, name, text, reason):
        path = tmp_path / name
        path.write_text(text)
        proc = _run_python("-m", "repro.cli", "ingest", fmt, str(path))
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"{path}: ")
        assert reason in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
