"""Streaming (out-of-core) schedule ingestion.

The monolithic ingestion paths materialise everything before the first
array is built: :func:`repro.trace.format.load_trace` reads the whole file
into one string and one :class:`~repro.trace.records.TraceRecord` object per
call, and :func:`repro.schedgen.goal.load_goal` keeps every ``rank`` block
staged until its closing brace.  Both are O(schedule) in peak memory, which
caps the rank counts that can even *enter* the pipeline.

This module provides streaming twins that hold only O(chunk) transient
state plus the accumulated columns — and spill those columns to disk-backed
buffers once they exceed a threshold, so the resident footprint stays
bounded:

:func:`batches_from_trace_chunked`
    parses a trace file in fixed-size record blocks straight into
    :class:`~repro.schedgen.columnar.RankOpBatch` columns (no ``Trace``, no
    per-record objects), carrying the compute-gap state across block
    boundaries so the produced columns are **bit-identical** to
    ``batches_from_trace(load_trace(...))``.  Completed column chunks are
    appended to a spill accumulator that switches to buffered file writes
    past ``spill_threshold_bytes`` and re-opens the result as a read-only
    ``np.memmap`` — buffered writes land in the page cache, not the process
    RSS, which is what keeps ingestion peak memory flat.

:func:`load_goal_chunked`
    parses a GOAL file line by line, flushing each ``rank`` block's staging
    columns through the bulk builder APIs every ``chunk_size`` statements
    instead of at the closing brace.  Because a block's vertices occupy a
    contiguous id range, every local label maps to its absolute vertex id at
    parse time, so partial flushes preserve the vertex *and* edge emission
    order exactly — the resulting graph is bit-identical (same
    ``content_digest()``) to :func:`~repro.schedgen.goal.load_goal`.

Validation that needs global knowledge (peer ranges against ``nranks``,
cross-rank collective agreement) is deferred to the builder, which already
performs it; per-record checks (timestamps, request lifecycle) run
streaming with the same error messages as the monolithic readers.
"""

from __future__ import annotations

import io
import os
from pathlib import Path
from typing import Iterator, Sequence, TextIO

import numpy as np

from ..trace.format import _HEADER, _INT_FIELDS, TraceFormatError, _check_meta_key, _unescape_meta_value
from ..trace.records import COLLECTIVE_OPS, MPI_OP_CODE, MPIOp, P2P_OPS
from .columnar import (
    _COLLECTIVE_CODES,
    _C_COMPUTE,
    _FINALIZE_CODE,
    _MPI_CODE_TO_OP,
    _SKIP_CODES,
    RankOpBatch,
)
from .goal import _CALC_RE, _RECV_RE, _REQ_RE, _SEND_RE, _NS_PER_US, GoalFormatError
from .graph import ExecutionGraph, GraphBuilder, VertexKind

__all__ = [
    "ChunkedBatches",
    "batches_from_trace_chunked",
    "load_goal_chunked",
    "DEFAULT_CHUNK_RECORDS",
    "DEFAULT_SPILL_THRESHOLD_BYTES",
]

#: records per parse block when ``chunk_size="auto"``
DEFAULT_CHUNK_RECORDS = 65536

#: accumulated column bytes after which the spill accumulator switches to
#: buffered file writes (when a spill directory is configured)
DEFAULT_SPILL_THRESHOLD_BYTES = 64 << 20


def resolve_chunk_size(chunk_size: int | str | None) -> int:
    """``"auto"``/``None`` → :data:`DEFAULT_CHUNK_RECORDS`, else the value."""
    if chunk_size is None or chunk_size == "auto":
        return DEFAULT_CHUNK_RECORDS
    size = int(chunk_size)
    if size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {size}")
    return size


# ---------------------------------------------------------------------------
# spill accumulator
# ---------------------------------------------------------------------------

#: RankOpBatch column names and dtypes, in batch-construction order
_BATCH_COLUMNS: tuple[tuple[str, type], ...] = (
    ("kind", np.int16),
    ("cost", np.float64),
    ("peer", np.int64),
    ("size", np.int64),
    ("tag", np.int64),
    ("root", np.int64),
    ("request", np.int64),
    ("recv_peer", np.int64),
    ("recv_size", np.int64),
    ("recv_tag", np.int64),
)


class _ColumnSpill:
    """Append-only accumulator for the batch columns, with disk spill.

    Chunks accumulate in RAM until their total size crosses the threshold;
    then every pending chunk is appended to one binary file per column with
    buffered ``write()`` calls (dirtying the page cache, not this process's
    resident set) and :meth:`finalize` re-opens the files as read-only
    ``np.memmap`` views.  Without a spill directory the chunks are simply
    concatenated in RAM.
    """

    def __init__(self, spill_dir: str | None, threshold_bytes: int) -> None:
        self._dir = spill_dir
        self._threshold = threshold_bytes
        self._chunks: dict[str, list[np.ndarray]] = {n: [] for n, _ in _BATCH_COLUMNS}
        self._files: dict[str, object] | None = None
        self._ram_bytes = 0
        self.rows = 0
        self.spilled = False

    def append(self, chunk: dict[str, np.ndarray]) -> None:
        self.rows += len(chunk["kind"])
        for name, _ in _BATCH_COLUMNS:
            column = chunk[name]
            self._chunks[name].append(column)
            self._ram_bytes += column.nbytes
        if self._dir is not None and self._ram_bytes > self._threshold:
            self._spill_pending()

    def _path(self, name: str) -> str:
        return os.path.join(self._dir, f"batch-{name}.bin")

    def _spill_pending(self) -> None:
        if self._files is None:
            self._files = {
                name: open(self._path(name), "wb") for name, _ in _BATCH_COLUMNS
            }
            self.spilled = True
        for name, _ in _BATCH_COLUMNS:
            handle = self._files[name]
            for column in self._chunks[name]:
                handle.write(memoryview(column))
            self._chunks[name].clear()
        self._ram_bytes = 0

    def finalize(self) -> dict[str, np.ndarray]:
        if self._files is not None:
            self._spill_pending()
            columns: dict[str, np.ndarray] = {}
            for name, dtype in _BATCH_COLUMNS:
                self._files[name].close()
                columns[name] = (
                    np.memmap(self._path(name), dtype=dtype, mode="r",
                              shape=(self.rows,))
                    if self.rows
                    else np.empty(0, dtype=dtype)
                )
            self._files = None
            return columns
        columns = {}
        for name, dtype in _BATCH_COLUMNS:
            chunks = self._chunks[name]
            if not chunks:
                columns[name] = np.empty(0, dtype=dtype)
            elif len(chunks) == 1:
                columns[name] = chunks[0]
            else:
                columns[name] = np.concatenate(chunks)
            self._chunks[name] = []
        return columns


class ChunkedBatches(Sequence):
    """Per-rank :class:`RankOpBatch` views over one set of spillable columns.

    The streaming counterpart of the ``list[RankOpBatch]`` returned by
    :func:`~repro.schedgen.columnar.batches_from_trace`: all ranks share ten
    concatenated columns (possibly read-only memmaps) plus per-rank row
    spans, and ``batches[rank]`` materialises a lightweight view-backed
    batch on demand — no per-rank array objects are held alive, which
    matters at million-rank scale.  Satisfies the access pattern of
    ``_populate_builder`` (``len``, iteration, repeated indexing) and of
    :class:`~repro.schedgen.columnar.ScheduleBatches`.
    """

    def __init__(
        self,
        columns: dict[str, np.ndarray],
        starts: np.ndarray,
        stops: np.ndarray,
        waitall_by_rank: dict[int, dict[int, tuple[int, ...]]],
        meta: dict[str, str],
        *,
        spilled: bool = False,
    ) -> None:
        self._columns = columns
        self._starts = starts
        self._stops = stops
        self._waitall = waitall_by_rank
        self.meta = meta
        self.spilled = spilled

    @property
    def nranks(self) -> int:
        return len(self._starts)

    @property
    def num_rows(self) -> int:
        return len(self._columns["kind"])

    def __len__(self) -> int:
        return self.nranks

    def __getitem__(self, rank: int) -> RankOpBatch:
        if not isinstance(rank, (int, np.integer)):
            raise TypeError("ChunkedBatches supports integer indexing only")
        if rank < 0:
            rank += self.nranks
        if not 0 <= rank < self.nranks:
            raise IndexError(f"rank {rank} out of range [0, {self.nranks})")
        lo = int(self._starts[rank])
        hi = int(self._stops[rank])
        requests: list[tuple[int, ...]] = [()] * (hi - lo)
        for local_row, handles in self._waitall.get(int(rank), {}).items():
            requests[local_row] = handles
        span = slice(lo, hi)
        columns = self._columns
        return RankOpBatch(
            kind=columns["kind"][span],
            cost=columns["cost"][span],
            peer=columns["peer"][span],
            size=columns["size"][span],
            tag=columns["tag"][span],
            root=columns["root"][span],
            request=columns["request"][span],
            recv_peer=columns["recv_peer"][span],
            recv_size=columns["recv_size"][span],
            recv_tag=columns["recv_tag"][span],
            requests=requests,
        )

    def __iter__(self) -> Iterator[RankOpBatch]:
        for rank in range(self.nranks):
            yield self[rank]

    def close(self) -> None:
        """Drop the column references (releasing any memmap views)."""
        self._columns = {name: np.empty(0, dtype=dtype) for name, dtype in _BATCH_COLUMNS}
        self._starts = np.zeros(0, dtype=np.int64)
        self._stops = np.zeros(0, dtype=np.int64)
        self._waitall = {}


# ---------------------------------------------------------------------------
# streaming trace ingestion
# ---------------------------------------------------------------------------

_OP_NAME_TO_CODE = {op.value: MPI_OP_CODE[op] for op in MPIOp}
_TRACE_OPS = tuple(MPIOp)
_TRACE_P2P = np.zeros(len(MPIOp), dtype=bool)
for _op in P2P_OPS:
    _TRACE_P2P[MPI_OP_CODE[_op]] = True
_TRACE_COLLECTIVE = np.zeros(len(MPIOp), dtype=bool)
for _op in COLLECTIVE_OPS:
    _TRACE_COLLECTIVE[MPI_OP_CODE[_op]] = True
_CODE_SENDRECV = MPI_OP_CODE[MPIOp.SENDRECV]
_CODE_ISEND = MPI_OP_CODE[MPIOp.ISEND]
_CODE_IRECV = MPI_OP_CODE[MPIOp.IRECV]
_CODE_WAIT = MPI_OP_CODE[MPIOp.WAIT]
_CODE_WAITALL = MPI_OP_CODE[MPIOp.WAITALL]


class _TraceChunk:
    """One parse block of raw trace records (Python-list staging)."""

    __slots__ = (
        "lineno", "code", "tstart", "tend", "peer", "size", "tag", "comm_size",
        "request", "recv_peer", "recv_size", "recv_tag", "waitall",
    )

    def __init__(self) -> None:
        self.lineno: list[int] = []
        self.code: list[int] = []
        self.tstart: list[float] = []
        self.tend: list[float] = []
        self.peer: list[int] = []
        self.size: list[int] = []
        self.tag: list[int] = []
        self.comm_size: list[int] = []
        self.request: list[int] = []
        self.recv_peer: list[int] = []
        self.recv_size: list[int] = []
        self.recv_tag: list[int] = []
        self.waitall: dict[int, tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self.code)


class _RankIngestState:
    """Carried state of the rank currently being parsed.

    ``last_tend`` tracks the most recently *parsed* record (for the
    monotonicity check); ``carry`` tracks the end time of the last record of
    the previously *flushed* block (the ``prev_end[0]`` of the next block's
    gap computation) and starts at ``inf`` so the rank's first record never
    infers compute — exactly the monolithic initialisation."""

    __slots__ = ("rank", "last_tend", "has_records", "carry", "pending", "row_start")

    def __init__(self, rank: int, row_start: int) -> None:
        self.rank = rank
        self.last_tend = 0.0
        self.has_records = False
        self.carry = float("inf")
        self.pending: set[int] = set()
        self.row_start = row_start


def batches_from_trace_chunked(
    source: str | Path | TextIO,
    *,
    min_compute: float = 0.0,
    chunk_size: int | str | None = "auto",
    spill_dir: str | os.PathLike | None = None,
    spill_threshold_bytes: int = DEFAULT_SPILL_THRESHOLD_BYTES,
) -> ChunkedBatches:
    """Stream a trace file into per-rank op batches with bounded memory.

    Produces columns bit-identical to
    ``batches_from_trace(load_trace(source), min_compute=min_compute)`` —
    the compute-gap inference is elementwise with one carried value (the
    previous record's end time), so splitting the stream into blocks cannot
    change any produced byte.  ``spill_dir`` enables the disk spill (the
    caller owns the directory and must keep it alive while the returned
    batches are in use); ``chunk_size`` is the records-per-block knob
    (``"auto"`` → :data:`DEFAULT_CHUNK_RECORDS`).
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return batches_from_trace_chunked(
                handle, min_compute=min_compute, chunk_size=chunk_size,
                spill_dir=spill_dir, spill_threshold_bytes=spill_threshold_bytes,
            )
    chunk_records = resolve_chunk_size(chunk_size)
    spill = _ColumnSpill(
        os.fspath(spill_dir) if spill_dir is not None else None,
        int(spill_threshold_bytes),
    )

    meta: dict[str, str] = {}
    spans: dict[int, tuple[int, int]] = {}
    waitall_by_rank: dict[int, dict[int, tuple[int, ...]]] = {}
    state: _RankIngestState | None = None
    chunk = _TraceChunk()
    rows_emitted = 0

    def flush_chunk() -> None:
        nonlocal rows_emitted, chunk
        if not chunk.code or state is None:
            chunk = _TraceChunk()
            return
        mapped_chunk, waitall_rows = _map_trace_chunk(chunk, state, min_compute)
        if waitall_rows:
            per_rank = waitall_by_rank.setdefault(state.rank, {})
            for slot, handles in waitall_rows:
                per_rank[rows_emitted + slot - state.row_start] = handles
        rows_emitted += len(mapped_chunk["kind"])
        spill.append(mapped_chunk)
        chunk = _TraceChunk()

    def finish_rank() -> None:
        flush_chunk()
        if state is None:
            return
        if state.pending:
            raise ValueError(
                f"rank {state.rank}: requests never completed: "
                f"{sorted(state.pending)}"
            )
        spans[state.rank] = (state.row_start, rows_emitted)

    first_line = True
    lineno = 0
    for raw in handle_lines(source):
        lineno += 1
        if first_line:
            first_line = False
            if raw.strip() != _HEADER:
                raise TraceFormatError(f"missing header {_HEADER!r}")
            continue
        if raw.startswith("# meta "):
            body = raw[len("# meta "):]
            if "=" not in body:
                raise TraceFormatError(f"line {lineno}: malformed meta line {raw!r}")
            key, value = body.split("=", 1)
            _check_meta_key(key)
            if key in meta:
                raise TraceFormatError(f"line {lineno}: duplicate meta key {key!r}")
            meta[key] = _unescape_meta_value(value, lineno)
            continue
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("@rank "):
            try:
                rank = int(line[len("@rank "):])
            except ValueError as exc:
                raise TraceFormatError(f"line {lineno}: bad rank header {line!r}") from exc
            if rank in spans or (state is not None and rank == state.rank):
                raise TraceFormatError(f"line {lineno}: duplicate '@rank {rank}' header")
            if rank < 0:
                raise ValueError(f"rank must be non-negative, got {rank}")
            finish_rank()
            state = _RankIngestState(rank, rows_emitted)
            continue
        if state is None:
            raise TraceFormatError(f"line {lineno}: record before any '@rank' header")
        _parse_record_into(line, lineno, chunk, state)
        if len(chunk) >= chunk_records:
            flush_chunk()
    if first_line:
        raise TraceFormatError(f"missing header {_HEADER!r}")
    finish_rank()

    ranks = sorted(spans)
    for position, rank in enumerate(ranks):
        if rank != position:
            raise ValueError(
                f"rank traces must be ordered by rank; found rank {rank} "
                f"at position {position}"
            )
    nranks = len(ranks)
    starts = np.fromiter((spans[r][0] for r in range(nranks)), dtype=np.int64,
                         count=nranks)
    stops = np.fromiter((spans[r][1] for r in range(nranks)), dtype=np.int64,
                        count=nranks)
    return ChunkedBatches(
        spill.finalize(), starts, stops, waitall_by_rank, meta,
        spilled=spill.spilled,
    )


def handle_lines(handle: TextIO) -> Iterator[str]:
    """Yield the handle's lines without their trailing newline.

    File iteration splits on ``"\\n"`` only (after universal-newline
    translation) — the same boundaries as the monolithic reader's
    ``read().split("\\n")``, so meta values containing exotic line
    separators (NEL, U+2028) survive identically.
    """
    for raw in handle:
        yield raw[:-1] if raw.endswith("\n") else raw


def _parse_record_into(
    line: str, lineno: int, chunk: _TraceChunk, state: _RankIngestState
) -> None:
    """Parse one record line into the chunk columns (no object per record).

    Field semantics are exactly :func:`repro.trace.format._parse_record`;
    request-lifecycle checks run inline (the monolithic path defers them to
    ``Trace.validate()``, so a broken trace may error at a different point,
    never with a different outcome)."""
    fields = line.split(":")
    if len(fields) < 3:
        raise TraceFormatError(
            f"line {lineno}: expected at least op:tstart:tend, got {line!r}"
        )
    code = _OP_NAME_TO_CODE.get(fields[0])
    if code is None:
        raise TraceFormatError(f"line {lineno}: unknown MPI operation {fields[0]!r}")
    try:
        tstart = float(fields[1])
        tend = float(fields[2])
    except ValueError as exc:
        raise TraceFormatError(
            f"line {lineno}: bad timestamps {fields[1]!r}/{fields[2]!r}"
        ) from exc

    peer = -1
    size = 0
    tag = 0
    comm_size = 0
    request = -1
    recv_peer = -1
    recv_size = 0
    recv_tag = 0
    requests: tuple[int, ...] = ()
    for item in fields[3:]:
        if "=" not in item:
            raise TraceFormatError(f"line {lineno}: malformed field {item!r}")
        key, value = item.split("=", 1)
        if key == "requests":
            requests = tuple(int(v) for v in value.split(",") if v)
        elif key == "peer":
            peer = int(value)
        elif key == "size":
            size = int(value)
        elif key == "tag":
            tag = int(value)
        elif key == "comm_size":
            comm_size = int(value)
        elif key == "request":
            request = int(value)
        elif key == "recv_peer":
            recv_peer = int(value)
        elif key == "recv_size":
            recv_size = int(value)
        elif key == "recv_tag":
            recv_tag = int(value)
        elif key in _INT_FIELDS:  # pragma: no cover - keeps the sets in sync
            raise AssertionError(f"unhandled int field {key!r}")
        else:
            raise TraceFormatError(f"line {lineno}: unknown field {key!r}")

    op = _TRACE_OPS[code]
    if tend < tstart:
        raise TraceFormatError(
            f"line {lineno}: {op}: end timestamp {tend} precedes start {tstart}"
        )
    if size < 0 or recv_size < 0:
        raise TraceFormatError(f"line {lineno}: {op}: negative message size")
    if _TRACE_P2P[code] and peer < 0:
        raise TraceFormatError(
            f"line {lineno}: {op}: point-to-point operation requires a peer rank"
        )
    if _TRACE_COLLECTIVE[code] and comm_size < 2:
        raise TraceFormatError(
            f"line {lineno}: {op}: collective requires comm_size >= 2"
        )
    if state.has_records and tstart < state.last_tend - 1e-9:
        raise ValueError(
            f"rank {state.rank}: record {op} starts at {tstart} "
            f"before the previous call ended at {state.last_tend}"
        )
    state.last_tend = tend
    state.has_records = True

    if code == _CODE_ISEND or code == _CODE_IRECV:
        if request < 0:
            raise ValueError(f"rank {state.rank}: {op} without a request handle")
        if request in state.pending:
            raise ValueError(
                f"rank {state.rank}: request {request} reused before wait"
            )
        state.pending.add(request)
    elif code == _CODE_WAIT:
        if request not in state.pending:
            raise ValueError(
                f"rank {state.rank}: MPI_Wait on unknown request {request}"
            )
        state.pending.discard(request)
    elif code == _CODE_WAITALL:
        for handle in requests:
            if handle not in state.pending:
                raise ValueError(
                    f"rank {state.rank}: MPI_Waitall on unknown request {handle}"
                )
            state.pending.discard(handle)
        chunk.waitall[len(chunk.code)] = requests

    chunk.lineno.append(lineno)
    chunk.code.append(code)
    chunk.tstart.append(tstart)
    chunk.tend.append(tend)
    chunk.peer.append(peer)
    chunk.size.append(size)
    chunk.tag.append(tag)
    chunk.comm_size.append(comm_size)
    chunk.request.append(request)
    chunk.recv_peer.append(recv_peer)
    chunk.recv_size.append(recv_size)
    chunk.recv_tag.append(recv_tag)


def _map_trace_chunk(
    chunk: _TraceChunk, state: _RankIngestState, min_compute: float
) -> tuple[dict[str, np.ndarray], list[tuple[int, tuple[int, ...]]]]:
    """Map one raw record block to batch columns (the chunked twin of the
    per-rank body of :func:`~repro.schedgen.columnar.batches_from_trace`).

    The only cross-block state is the previous record's end time: the first
    record of a *rank* sees ``prev_end = inf`` (no gap), the first record of
    a later *block* sees the carried value — elementwise identical to the
    monolithic single-pass arrays."""
    code = np.array(chunk.code, dtype=np.int16)
    tstart = np.array(chunk.tstart, dtype=np.float64)
    tend = np.array(chunk.tend, dtype=np.float64)
    n = len(code)

    skip = np.isin(code, _SKIP_CODES)
    finalize = code == _FINALIZE_CODE
    considered = ~skip
    emit_op = considered & ~finalize

    prev_end = np.empty(n, dtype=np.float64)
    prev_end[0] = state.carry
    prev_end[1:] = tend[:-1]
    gap = tstart - prev_end
    has_compute = considered & (gap > min_compute)
    state.carry = float(tend[-1])

    mapped = _MPI_CODE_TO_OP[code]
    if np.any(emit_op & (mapped < 0)):
        offender = int(code[int(np.argmax(emit_op & (mapped < 0)))])
        raise ValueError(
            f"cannot convert trace record {_TRACE_OPS[offender]} to a program op"
        )

    counts = has_compute.astype(np.int64) + emit_op
    ends = np.cumsum(counts)
    offsets = ends - counts
    total = int(ends[-1])

    rec_peer = np.array(chunk.peer, dtype=np.int64)

    kind = np.empty(total, dtype=np.int16)
    cost = np.zeros(total, dtype=np.float64)
    peer = np.full(total, -1, dtype=np.int64)
    size = np.zeros(total, dtype=np.int64)
    tag = np.zeros(total, dtype=np.int64)
    root = np.zeros(total, dtype=np.int64)
    request = np.full(total, -1, dtype=np.int64)
    recv_peer = np.full(total, -1, dtype=np.int64)
    recv_size = np.zeros(total, dtype=np.int64)
    recv_tag = np.zeros(total, dtype=np.int64)

    compute_pos = offsets[has_compute]
    kind[compute_pos] = _C_COMPUTE
    cost[compute_pos] = gap[has_compute]

    op_pos = offsets[emit_op] + has_compute[emit_op]
    op_mapped = mapped[emit_op]
    is_coll = np.isin(op_mapped, _COLLECTIVE_CODES)
    kind[op_pos] = op_mapped
    peer[op_pos] = np.where(is_coll, -1, rec_peer[emit_op])
    size[op_pos] = np.array(chunk.size, dtype=np.int64)[emit_op]
    tag[op_pos] = np.array(chunk.tag, dtype=np.int64)[emit_op]
    root[op_pos] = np.where(is_coll, np.maximum(rec_peer[emit_op], 0), 0)
    request[op_pos] = np.array(chunk.request, dtype=np.int64)[emit_op]
    recv_peer[op_pos] = np.array(chunk.recv_peer, dtype=np.int64)[emit_op]
    recv_size[op_pos] = np.array(chunk.recv_size, dtype=np.int64)[emit_op]
    recv_tag[op_pos] = np.array(chunk.recv_tag, dtype=np.int64)[emit_op]

    waitall_rows = [
        (int(offsets[index] + has_compute[index]), handles)
        for index, handles in chunk.waitall.items()
    ]

    columns = {
        "kind": kind, "cost": cost, "peer": peer, "size": size, "tag": tag,
        "root": root, "request": request, "recv_peer": recv_peer,
        "recv_size": recv_size, "recv_tag": recv_tag,
    }
    return columns, waitall_rows


# ---------------------------------------------------------------------------
# streaming GOAL ingestion
# ---------------------------------------------------------------------------

class _GoalBlockStage:
    """Chunk-flushed staging of one ``rank { ... }`` block.

    A block's vertices occupy a contiguous id range in emission order, so
    every local label maps to its absolute vertex id the moment the
    statement is parsed — which lets partial flushes (every ``chunk_size``
    staged statements) keep both vertex and dependency emission order
    identical to the at-the-brace flush of the monolithic reader."""

    __slots__ = (
        "builder", "rank", "chunk_size", "next_vid", "local_vid",
        "kind", "cost", "size", "peer", "tag", "dep_src", "dep_dst",
    )

    def __init__(self, builder: GraphBuilder, rank: int, chunk_size: int) -> None:
        self.builder = builder
        self.rank = rank
        self.chunk_size = chunk_size
        self.next_vid = builder.num_vertices
        self.local_vid: dict[int, int] = {}
        self.kind: list[int] = []
        self.cost: list[float] = []
        self.size: list[int] = []
        self.peer: list[int] = []
        self.tag: list[int] = []
        self.dep_src: list[int] = []
        self.dep_dst: list[int] = []

    def add_vertex(self, label_id: int, kind: int, cost: float, size: int,
                   peer: int, tag: int) -> None:
        self.local_vid[label_id] = self.next_vid
        self.next_vid += 1
        self.kind.append(kind)
        self.cost.append(cost)
        self.size.append(size)
        self.peer.append(peer)
        self.tag.append(tag)
        if len(self.kind) >= self.chunk_size:
            self.flush()

    def add_dep(self, src_vid: int, dst_vid: int) -> None:
        self.dep_src.append(src_vid)
        self.dep_dst.append(dst_vid)
        if len(self.dep_src) >= self.chunk_size:
            self.flush()

    def flush(self) -> None:
        # vertices first: staged dependencies may target vertices staged in
        # this same block chunk
        if self.kind:
            self.builder.add_vertices(
                np.array(self.kind, dtype=np.int8),
                self.rank,
                cost=np.array(self.cost, dtype=np.float64),
                size=np.array(self.size, dtype=np.int64),
                peer=np.array(self.peer, dtype=np.int64),
                tag=np.array(self.tag, dtype=np.int64),
            )
            self.kind.clear()
            self.cost.clear()
            self.size.clear()
            self.peer.clear()
            self.tag.clear()
        if self.dep_src:
            self.builder.add_dependencies(
                np.array(self.dep_src, dtype=np.int64),
                np.array(self.dep_dst, dtype=np.int64),
            )
            self.dep_src.clear()
            self.dep_dst.clear()


def load_goal_chunked(
    source: str | Path | TextIO,
    *,
    chunk_size: int | str | None = "auto",
    mmap_dir: str | os.PathLike | None = None,
) -> ExecutionGraph:
    """Stream a GOAL file into an execution graph with bounded staging.

    Bit-identical to :func:`~repro.schedgen.goal.load_goal` (same
    ``content_digest()``): statements flush through the bulk builder APIs in
    parse order, just every ``chunk_size`` statements instead of per block.
    With ``mmap_dir`` the builder's columns are disk-backed
    (:class:`~repro.schedgen.graph.GraphBuilder`) and the frozen graph keeps
    them — the caller owns ``mmap_dir`` for the graph's lifetime.  The graph
    is validated like every frozen graph, so a cyclic schedule raises
    :class:`~repro.schedgen.graph.GraphValidationError`."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return load_goal_chunked(
                handle, chunk_size=chunk_size, mmap_dir=mmap_dir,
            )
    from .builder import UnmatchedMessageError
    from .columnar import match_messages

    chunk_statements = resolve_chunk_size(chunk_size)
    lines = handle_lines(source)
    first = next(lines, None)
    if first is None or not first.startswith("num_ranks"):
        raise GoalFormatError("GOAL file must start with 'num_ranks N'")
    try:
        nranks = int(first.split()[1])
    except (IndexError, ValueError) as exc:
        raise GoalFormatError(f"malformed num_ranks line: {first!r}") from exc

    builder = GraphBuilder(nranks=nranks, mmap_dir=mmap_dir)
    stage: _GoalBlockStage | None = None

    calc_kind = int(VertexKind.CALC)
    send_kind = int(VertexKind.SEND)
    recv_kind = int(VertexKind.RECV)

    for lineno, raw in enumerate(lines, start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("rank "):
            if stage is not None:
                raise GoalFormatError(
                    f"line {lineno}: rank {stage.rank} block is not closed"
                )
            if not line.endswith("{"):
                raise GoalFormatError(f"line {lineno}: expected 'rank N {{'")
            try:
                rank = int(line.split()[1])
            except (IndexError, ValueError) as exc:
                raise GoalFormatError(f"line {lineno}: malformed rank header") from exc
            stage = _GoalBlockStage(builder, rank, chunk_statements)
            continue
        if line == "}":
            if stage is not None:
                stage.flush()
            stage = None
            continue
        if stage is None:
            raise GoalFormatError(f"line {lineno}: statement outside a rank block")
        if (m := _CALC_RE.match(line)) is not None:
            stage.add_vertex(int(m.group("id")), calc_kind,
                             int(m.group("cost")) / _NS_PER_US, 0, -1, 0)
        elif (m := _SEND_RE.match(line)) is not None:
            stage.add_vertex(int(m.group("id")), send_kind, 0.0,
                             int(m.group("size")), int(m.group("peer")),
                             int(m.group("tag")))
        elif (m := _RECV_RE.match(line)) is not None:
            stage.add_vertex(int(m.group("id")), recv_kind, 0.0,
                             int(m.group("size")), int(m.group("peer")),
                             int(m.group("tag")))
        elif (m := _REQ_RE.match(line)) is not None:
            src_local, dst_local = int(m.group("src")), int(m.group("dst"))
            if src_local not in stage.local_vid or dst_local not in stage.local_vid:
                raise GoalFormatError(f"line {lineno}: dependency on undefined label")
            stage.add_dep(stage.local_vid[src_local], stage.local_vid[dst_local])
        else:
            raise GoalFormatError(f"line {lineno}: cannot parse {line!r}")

    if stage is not None:
        raise GoalFormatError(f"unterminated rank {stage.rank} block at end of file")

    try:
        match_messages(builder)
    except UnmatchedMessageError as exc:
        raise GoalFormatError(
            f"unmatched send/recv operations in GOAL file: {exc}"
        ) from exc

    return builder.freeze()
