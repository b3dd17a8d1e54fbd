"""Chunked (out-of-core) trace ingestion.

:func:`batches_from_trace_chunked` turns a trace file into per-rank op
batches while holding one block of records at a time: the trace reader
(:func:`repro.trace.format.read_trace_blocks`, the same one behind
:func:`~repro.trace.format.load_trace`) hands over each rank's records in
blocks of raw columns, the one record → op-row mapping
(:func:`repro.schedgen.columnar.map_trace_columns`) maps each block with
the previous block's end time carried, and the rows go to a spill
accumulator.  That accumulator switches to buffered file writes past
``spill_threshold_bytes`` and re-opens the result as read-only
``np.memmap`` columns — buffered writes land in the page cache, not the
process RSS, which keeps the ingestion peak flat.  The batches are
bit-identical to ``batches_from_trace(load_trace(...))`` for every block
size.

GOAL files stream through :func:`repro.schedgen.goal.load_goal` itself,
which flushes every ``chunk_size`` statements; :func:`resolve_chunk_size`
reads the knob for both readers.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterator, Sequence, TextIO

import numpy as np

from ..mpi.program import KIND_TO_MPI, OP_KINDS
from ..trace.format import read_trace_blocks
from ..trace.records import check_peer_range
from .columnar import _C_SENDRECV, _C_WAITALL, _P2P_CODES, RankOpBatch, map_trace_columns

__all__ = [
    "ChunkedBatches",
    "batches_from_trace_chunked",
    "resolve_chunk_size",
    "DEFAULT_CHUNK_RECORDS",
    "DEFAULT_SPILL_THRESHOLD_BYTES",
]

#: trace records or GOAL statements per parse block when ``chunk_size="auto"``
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

    def append(self, batch: RankOpBatch) -> None:
        self.rows += len(batch)
        for name, _ in _BATCH_COLUMNS:
            column = getattr(batch, name)
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
# chunked trace ingestion
# ---------------------------------------------------------------------------

def batches_from_trace_chunked(
    source: str | Path | TextIO,
    *,
    min_compute: float = 0.0,
    chunk_size: int | str | None = "auto",
    spill_dir: str | os.PathLike | None = None,
    spill_threshold_bytes: int = DEFAULT_SPILL_THRESHOLD_BYTES,
) -> ChunkedBatches:
    """Stream a trace file into per-rank op batches with bounded memory.

    The trace reader (:func:`repro.trace.format.read_trace_blocks`) hands
    over blocks of ``chunk_size`` records (``"auto"`` →
    :data:`DEFAULT_CHUNK_RECORDS`), each block is mapped to op rows by
    :func:`~repro.schedgen.columnar.map_trace_columns` with the previous
    block's last end time carried, and the rows go to the spill
    accumulator, so the columns are bit-identical to
    ``batches_from_trace(load_trace(source), min_compute=min_compute)``
    for every chunk size.  ``spill_dir`` enables the disk spill (the
    caller owns the directory and must keep it alive while the returned
    batches are in use).  Malformed input raises what :func:`load_trace`
    raises; out-of-range peers are found in one pass over the finished
    columns.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return batches_from_trace_chunked(
                handle, min_compute=min_compute, chunk_size=chunk_size,
                spill_dir=spill_dir, spill_threshold_bytes=spill_threshold_bytes,
            )
    spill = _ColumnSpill(
        os.fspath(spill_dir) if spill_dir is not None else None,
        int(spill_threshold_bytes),
    )
    meta: dict[str, str] = {}
    spans: dict[int, tuple[int, int]] = {}
    waitall_by_rank: dict[int, dict[int, tuple[int, ...]]] = {}
    rank, first, prev_end = -1, 0, np.inf
    # the highest peer and the lowest receive peer seen: the finished
    # columns (disk pages once spilled) are read again only when these
    # fall outside the ranks
    peer_top, recv_low = -1, 0
    for block in read_trace_blocks(source, meta, resolve_chunk_size(chunk_size)):
        if block.rank != rank:
            rank, first, prev_end = block.rank, spill.rows, np.inf
        if len(block):
            columns = block.columns()
            batch = map_trace_columns(columns, prev_end=prev_end, min_compute=min_compute)
            prev_end = columns.tend[-1]
            sendrecv = batch.kind == _C_SENDRECV
            peer_top = max(peer_top, batch.peer.max(initial=-1),
                           batch.recv_peer.max(initial=-1, where=sendrecv))
            recv_low = min(recv_low, batch.recv_peer.min(initial=0, where=sendrecv))
            for slot in np.flatnonzero(batch.kind == _C_WAITALL).tolist():
                handles = batch.requests[slot]
                waitall_by_rank.setdefault(rank, {})[spill.rows - first + slot] = handles
            spill.append(batch)
        spans[rank] = (first, spill.rows)

    bounds = np.array([spans[r] for r in range(len(spans))], dtype=np.int64)
    start, stop = bounds.reshape(-1, 2).T.copy()
    columns = spill.finalize()
    if peer_top >= len(start) or recv_low < 0:
        _check_peers(columns, start, stop)
    return ChunkedBatches(
        columns, start, stop, waitall_by_rank, meta, spilled=spill.spilled,
    )


def _check_peers(columns: dict[str, np.ndarray], start: np.ndarray, stop: np.ndarray) -> None:
    """Raise :func:`~repro.trace.records.check_peer_range`'s error for the
    first op row, in rank order, whose peer lies outside ``[0, nranks)``."""
    nranks = len(start)
    kind, peer, recv_peer = columns["kind"], columns["peer"], columns["recv_peer"]
    bad = np.isin(kind, _P2P_CODES) & ((peer < 0) | (peer >= nranks))
    bad |= (kind == _C_SENDRECV) & ((recv_peer < 0) | (recv_peer >= nranks))
    rows = np.flatnonzero(bad)
    if not rows.size:
        return
    # ranks by first row; of the ranks that share one (all empty but the
    # last), the one with rows sorts last
    by_start = np.lexsort((stop, start))
    owner = by_start[np.searchsorted(start[by_start], rows, side="right") - 1]
    at = int(np.argmin(owner))
    row = int(rows[at])
    check_peer_range(
        int(owner[at]), KIND_TO_MPI[OP_KINDS[int(kind[row])]],
        int(peer[row]), int(recv_peer[row]), nranks,
    )
