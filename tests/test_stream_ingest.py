"""Chunked (out-of-core) ingestion: bit-identity and one answer per input.

The contract under test is exact: for any valid input,
:func:`repro.schedgen.streaming.batches_from_trace_chunked` must produce the
same column bytes — and therefore the same graph ``content_digest()``
— as ``batches_from_trace(load_trace(...))`` for **every** chunk size,
including sizes that split a rendezvous triple, a waitall group, or a
compute-gap pair across block boundaries.  :func:`~repro.schedgen.goal.load_goal`
must give pinned digests at every chunk size, with or without
memory-mapped builder columns, and the memory-mapped artifact loads of
:mod:`repro.artifacts` must preserve digests while holding no file
descriptors open.  Malformed input must fail with one message at every
entry point (``load_trace``, the chunked reader, ``llamp ingest``) and
fail fast — a deadlocked trace with a ``GraphValidationError`` from the
library and a one-line reason from ``llamp ingest``.
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
from repro.cli import main
from repro.mpi.tracer import trace_program
from repro.network.params import LogGPSParams
from repro.schedgen import ChunkedBatches, batches_from_trace_chunked, build_graph, load_goal
from repro.schedgen.builder import ProtocolConfig
from repro.schedgen.columnar import ScheduleBatches, batches_from_trace
from repro.schedgen.goal import GoalFormatError, dumps_goal
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


#: ``content_digest()`` of the graphs that ``load_goal`` read from these
#: GOAL texts when it flushed once per rank block; every chunk size must
#: keep them
GOAL_DIGESTS = {
    "running-example": "6878605d1a185873a249488aba29e5372915132f94495b55cd46e6d663b3f78c",
    "random-program-7": "1a88496ae7d48e10efb69e4edd524f7d1d59ee6187bc06c7459f5ac84ef1ddb8",
}


def _goal_text(name: str) -> str:
    if name == "running-example":
        return dumps_goal(build_running_example())
    program = build_random_program(7, nranks=4)
    return dumps_goal(build_graph(program, protocol=ProtocolConfig(eager_threshold=1024)))


class TestGoalChunkSizes:
    @pytest.mark.parametrize("chunk_size", [1, 2, 5, "auto"])
    @pytest.mark.parametrize("name", sorted(GOAL_DIGESTS))
    def test_digest_pinned(self, name, chunk_size):
        graph = load_goal(io.StringIO(_goal_text(name)), chunk_size=chunk_size)
        assert graph.content_digest() == GOAL_DIGESTS[name]

    def test_mmap_builder_digest(self, tmp_path):
        graph = load_goal(io.StringIO(_goal_text("running-example")), chunk_size=2,
                          mmap_dir=tmp_path)
        assert graph.content_digest() == GOAL_DIGESTS["running-example"]
        assert isinstance(graph.kind, np.memmap)

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "app.goal"
        path.write_text(_goal_text("running-example"))
        assert load_goal(path).content_digest() == GOAL_DIGESTS["running-example"]

    def test_rejects_bad_input(self):
        with pytest.raises(GoalFormatError, match="num_ranks"):
            load_goal(io.StringIO("rank 0 {\n}\n"))
        bad = "num_ranks 2\nrank 0 {\n  l1: send 8b to 1 tag 0\n}\n"
        with pytest.raises(GoalFormatError, match="unmatched send/recv"):
            load_goal(io.StringIO(bad), chunk_size=1)


class TestGoalErrors:
    """Input the GOAL reader once loaded silently or reported without a line."""

    @pytest.mark.parametrize("chunk_size", [1, "auto"])
    @pytest.mark.parametrize("body,message", [
        ("rank 0 {\n  l1: calc 100\n  l2: calc 200\n  l1: calc 300\n}\n",
         "line 5: label l1 defined twice"),
        ("rank 0 {\n  l1: calc 100\n}\nrank 0 {\n  l1: calc 5\n}\n",
         "line 5: duplicate 'rank 0' block"),
        ("rank 1 {\n  l1: calc 100\n}\n", "line 2: rank 1 out of range [0, 1)"),
        ("rank -1 {\n}\n", "line 2: rank -1 out of range [0, 1)"),
        ("rank 0 {\n  l1: send 8b to 3 tag 0\n}\n", "line 3: peer 3 out of range [0, 1)"),
        # lines end at "\n" only: a form feed does not split a statement
        ("rank 0 {\n  l1: calc 100\f  l2: calc 200\n}\n", "line 3: cannot parse"),
        ("}\nrank 0 {\n  l1: calc 5\n}\n", "line 2: '}' outside a rank block"),
    ], ids=["duplicate-label", "duplicate-block", "rank-range", "negative-rank",
            "peer-range", "form-feed", "stray-brace"])
    def test_names_the_line(self, body, message, chunk_size):
        with pytest.raises(GoalFormatError) as error:
            load_goal(io.StringIO("num_ranks 1\n" + body), chunk_size=chunk_size)
        assert str(error.value).startswith(message)


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


_H = "# llamp-trace v1\n"

#: malformed traces, the type of the one error each must raise and a
#: fragment of its message; format errors name their line
_F, _V = TraceFormatError, ValueError
MALFORMED_TRACES = {
    "missing-header": ("not a trace\n", _F, "missing header"),
    "meta-malformed": (_H + "# meta novalue\n@rank 0\n", _F, "line 2: malformed meta line"),
    "meta-duplicate": (_H + "# meta k=1\n# meta k=2\n@rank 0\n", _F,
                       "line 3: duplicate meta key"),
    "meta-escape": (_H + "# meta k=v\\x\n@rank 0\n", _F, "line 2: unknown escape"),
    "rank-bad": (_H + "@rank x\n", _F, "line 2: bad rank header"),
    "rank-duplicate": (_H + "@rank 0\nMPI_Init:0:1\n@rank 0\n", _F,
                       "line 4: duplicate '@rank 0'"),
    "rank-negative": (_H + "@rank -1\n", _V, "rank must be non-negative"),
    "rank-gap": (_H + "@rank 0\n@rank 2\n", _V, "found rank 2 at position 1"),
    "record-before-rank": (_H + "MPI_Init:0:1\n", _F, "line 2: record before any '@rank'"),
    "unknown-op": (_H + "@rank 0\nMPI_Bogus:0:1\n", _F, "line 3: unknown MPI operation"),
    "unknown-field": (_H + "@rank 0\n@rank 1\nMPI_Send:0:1:peer=0:bogus=1\n", _F,
                      "line 4: unknown field 'bogus'"),
    "bad-timestamps": (_H + "@rank 0\nMPI_Init:zero:1\n", _F, "line 3: bad timestamps"),
    "tend-before-tstart": (_H + "@rank 0\nMPI_Init:2:1\n", _F,
                           "line 3: MPI_Init: end timestamp"),
    "negative-size": (_H + "@rank 0\n@rank 1\nMPI_Send:0:1:peer=0:size=-8\n", _F,
                      "line 4: MPI_Send: negative message size"),
    "missing-peer": (_H + "@rank 0\n@rank 1\nMPI_Send:0:1:size=8\n", _F,
                     "line 4: MPI_Send: point-to-point operation requires a peer rank"),
    "comm-size": (_H + "@rank 0\nMPI_Barrier:0:1:comm_size=1\n", _F, "comm_size >= 2"),
    "non-monotonic": (_H + "@rank 0\n@rank 1\nMPI_Send:10:11:peer=0:size=8\n"
                      "MPI_Recv:5:6:peer=0:size=8\n", _V, "before the previous call ended"),
    "no-request": (_H + "@rank 0\n@rank 1\nMPI_Isend:0:1:peer=0:size=8\n", _V,
                   "rank 1: MPI_Isend without a request handle"),
    "request-reused": (_H + "@rank 0\n@rank 1\nMPI_Isend:0:1:peer=0:size=8:request=1\n"
                       "MPI_Irecv:1:2:peer=0:size=8:request=1\n", _V, "request 1 reused"),
    "wait-unknown": (_H + "@rank 0\nMPI_Wait:0:1:request=9\n", _V,
                     "MPI_Wait on unknown request 9"),
    "waitall-unknown": (_H + "@rank 0\n@rank 1\nMPI_Isend:0:1:peer=0:size=8:request=1\n"
                        "MPI_Waitall:1:2:requests=1,2\n", _V, "MPI_Waitall on unknown request 2"),
    "never-completed": (_H + "@rank 0\n@rank 1\nMPI_Isend:0:1:peer=0:size=8:request=3\n", _V,
                        "rank 1: requests never completed: [3]"),
    "peer-range": (_H + "@rank 0\nMPI_Send:0:1:peer=5:size=8\n@rank 1\n", _V,
                   "rank 0: MPI_Send peer 5 out of range"),
    "recv-peer-range": (_H + "@rank 0\nMPI_Sendrecv:0:1:peer=1:size=8:recv_peer=7\n@rank 1\n",
                        _V, "rank 0: MPI_Sendrecv recv peer 7 out of range"),
    "peer-range-later-rank": (_H + "@rank 1\nMPI_Send:0:1:peer=4:size=8\n@rank 0\n"
                              "MPI_Send:0:1:peer=1:size=8\nMPI_Send:1:2:peer=3:size=8\n",
                              _V, "rank 0: MPI_Send peer 3 out of range"),
    "non-integer": (_H + "@rank 0\n@rank 1\nMPI_Send:1:2:peer=x\n", _F,
                    "line 4: field 'peer' has non-integer value 'x'"),
    "size-beyond-int64": (_H + "@rank 0\nMPI_Init:0:1:size=99999999999999999999\n", _F,
                          "line 3: field 'size' value '99999999999999999999' does not "
                          "fit a 64-bit integer"),
    "request-beyond-int64": (_H + "@rank 0\n@rank 1\nMPI_Isend:0:1:peer=0:size=8:"
                             "request=9223372036854775808\n", _F,
                             "line 4: field 'request' value '9223372036854775808' does "
                             "not fit a 64-bit integer"),
    "handle-beyond-int64": (_H + "@rank 0\nMPI_Waitall:0:1:requests=1,-9223372036854775809\n",
                            _F, "line 3: field 'requests' value '1,-9223372036854775809' "
                            "does not fit a 64-bit integer"),
}


class TestMalformedTraceCorpus:
    """Every trace entry point raises one type and message per malformed trace."""

    @pytest.mark.parametrize("name", sorted(MALFORMED_TRACES))
    def test_one_message_at_every_entry_point(self, name, tmp_path):
        text, error_type, fragment = MALFORMED_TRACES[name]

        def via_load_trace():
            trace = loads_trace(text)
            ScheduleBatches(batches_from_trace(trace), trace.nranks).graph_for(PARAMS)

        def via_chunked():
            batches = batches_from_trace_chunked(io.StringIO(text), chunk_size=1)
            ScheduleBatches(batches, batches.nranks).graph_for(PARAMS)

        errors = []
        for entry in (via_load_trace, via_chunked):
            with pytest.raises(ValueError) as error:
                entry()
            errors.append((type(error.value), str(error.value)))
        assert errors[0] == errors[1]
        assert errors[0][0] is error_type
        assert fragment in errors[0][1]
        path = tmp_path / "malformed.trace"
        path.write_text(text)
        with pytest.raises(SystemExit) as exit_:
            main(["ingest", "trace", str(path)])
        assert exit_.value.code == f"{path}: {errors[0][1]}"


class TestIngestCommandErrors:
    """``llamp ingest`` names the reason for malformed input in one line."""

    @pytest.mark.parametrize("fmt", ["trace", "goal"])
    @pytest.mark.parametrize("kind,reason", [
        ("missing", "No such file or directory"),
        ("directory", "Is a directory"),
    ])
    def test_unreadable_input_exits_with_one_line(self, tmp_path, capsys, fmt, kind, reason):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        with pytest.raises(SystemExit) as exit_:
            main(["ingest", fmt, str(path)])
        assert exit_.value.code == f"{path}: {reason}"
        assert capsys.readouterr().out == ""

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
