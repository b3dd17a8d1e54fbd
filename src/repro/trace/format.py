"""Text serialisation of traces, modelled after ``liballprof``.

The original tracer writes one file per rank; each line records one MPI call
as colon-separated fields starting with the operation name, the start
timestamp and the end timestamp, followed by call-specific arguments
(Fig. 2 of the paper shows e.g. ``MPI_Irecv:1547003:0:3500:15:1:1:5:6:1547032``).

Our format keeps that spirit but is self-describing and lossless with respect
to :class:`repro.trace.records.TraceRecord`:

```
# llamp-trace v1
# meta key=value
@rank 0
MPI_Init:0.000:1.200
MPI_Isend:1.200:1.450:peer=1:size=4096:tag=7:request=0
MPI_Wait:1.450:1.500:request=0
MPI_Allreduce:1.500:9.100:size=8:comm_size=128
MPI_Finalize:9.100:9.200
@rank 1
...
```

Timestamps are microseconds, written with fixed precision when that is
exact and with full ``repr`` precision otherwise, so ``load(dump(trace))``
reproduces every float bit-for-bit.  Meta values are escaped
(``\\`` / newline / carriage return), so any string survives the round
trip; meta keys that cannot be represented unambiguously (empty, containing
``=`` or line breaks, surrounded by whitespace) are rejected at dump time.
Unknown keys, duplicate ``@rank`` headers and duplicate meta keys are
rejected so format drift is caught early.

:func:`read_trace_blocks` is the one reader of the format: it parses and
checks the text and hands each rank's records over in blocks of raw
columns.  :func:`load_trace` builds :class:`TraceRecord` objects from the
blocks, and :func:`repro.schedgen.streaming.batches_from_trace_chunked`
maps them to op rows without building any, so both report malformed input
in the same words.
"""

from __future__ import annotations

import io
import math
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .records import (
    COLLECTIVE_OPS,
    MPI_OP_CODE,
    NONBLOCKING_OPS,
    P2P_OPS,
    MPIOp,
    RankTrace,
    Trace,
    TraceColumns,
    TraceRecord,
    check_peer_range,
)

__all__ = [
    "dump_trace",
    "dumps_trace",
    "load_trace",
    "loads_trace",
    "read_trace_blocks",
    "TraceBlock",
    "TraceFormatError",
]

_HEADER = "# llamp-trace v1"
_TIME_PRECISION = 6

#: the integer fields of a record and their defaults, in :class:`TraceBlock`
#: ``fields`` order
_INT_FIELDS = {
    "peer": -1,
    "size": 0,
    "tag": 0,
    "comm_size": 0,
    "request": -1,
    "recv_peer": -1,
    "recv_size": 0,
    "recv_tag": 0,
}
_FIELD_SLOT = {name: slot for slot, name in enumerate(_INT_FIELDS)}
_INT_DEFAULTS = list(_INT_FIELDS.values())
#: the integer columns are int64
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

#: records per block when :func:`load_trace` reads a whole trace
_LOAD_BLOCK_RECORDS = 1 << 16

_OPS = tuple(MPIOp)
_OP_CODE = {op.value: MPI_OP_CODE[op] for op in MPIOp}
_P2P = frozenset(MPI_OP_CODE[op] for op in P2P_OPS)
_COLLECTIVE = frozenset(MPI_OP_CODE[op] for op in COLLECTIVE_OPS)
_POST = frozenset(MPI_OP_CODE[op] for op in NONBLOCKING_OPS)
_WAIT = MPI_OP_CODE[MPIOp.WAIT]
_WAITALL = MPI_OP_CODE[MPIOp.WAITALL]


class TraceFormatError(ValueError):
    """Raised when a trace file cannot be parsed or is not representable."""


def _format_time(t: float) -> str:
    """Fixed-precision when exact, full ``repr`` otherwise (lossless)."""
    fixed = f"{t:.{_TIME_PRECISION}f}"
    return fixed if float(fixed) == t else repr(t)


_META_ESCAPES = {"\\": "\\\\", "\n": "\\n", "\r": "\\r"}
_META_UNESCAPES = {"\\": "\\", "n": "\n", "r": "\r"}


def _escape_meta_value(value: str) -> str:
    for raw, escaped in _META_ESCAPES.items():
        value = value.replace(raw, escaped)
    return value


def _unescape_meta_value(text: str, lineno: int) -> str:
    if "\\" not in text:
        return text
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(text):
            raise TraceFormatError(f"line {lineno}: dangling escape in meta value")
        mapped = _META_UNESCAPES.get(text[i + 1])
        if mapped is None:
            raise TraceFormatError(
                f"line {lineno}: unknown escape '\\{text[i + 1]}' in meta value"
            )
        out.append(mapped)
        i += 2
    return "".join(out)


def _check_meta_key(key: str) -> None:
    if not key or key != key.strip() or any(ch in key for ch in "=\n\r"):
        raise TraceFormatError(
            f"meta key {key!r} is not representable: keys must be non-empty, "
            "free of '=' and line breaks, and carry no surrounding whitespace"
        )


def _format_record(rec: TraceRecord) -> str:
    parts = [
        rec.op.value,
        _format_time(rec.tstart),
        _format_time(rec.tend),
    ]
    if rec.peer >= 0:
        parts.append(f"peer={rec.peer}")
    if rec.size:
        parts.append(f"size={rec.size}")
    if rec.tag:
        parts.append(f"tag={rec.tag}")
    if rec.comm_size:
        parts.append(f"comm_size={rec.comm_size}")
    if rec.request >= 0:
        parts.append(f"request={rec.request}")
    if rec.requests:
        parts.append("requests=" + ",".join(str(r) for r in rec.requests))
    if rec.recv_peer >= 0:
        parts.append(f"recv_peer={rec.recv_peer}")
    if rec.recv_size:
        parts.append(f"recv_size={rec.recv_size}")
    if rec.recv_tag:
        parts.append(f"recv_tag={rec.recv_tag}")
    return ":".join(parts)


def dump_trace(trace: Trace, destination: str | Path | TextIO) -> None:
    """Write ``trace`` to a file path or text stream."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as handle:
            _write(trace, handle)
    else:
        _write(trace, destination)


def dumps_trace(trace: Trace) -> str:
    """Serialise ``trace`` to a string."""
    buffer = io.StringIO()
    _write(trace, buffer)
    return buffer.getvalue()


def _write(trace: Trace, handle: TextIO) -> None:
    handle.write(_HEADER + "\n")
    for key, value in sorted(trace.meta.items()):
        _check_meta_key(key)
        handle.write(f"# meta {key}={_escape_meta_value(value)}\n")
    for rank_trace in trace.ranks:
        handle.write(f"@rank {rank_trace.rank}\n")
        for rec in rank_trace:
            handle.write(_format_record(rec) + "\n")




def load_trace(source: str | Path | TextIO) -> Trace:
    """Read a trace from a file path or text stream.

    Malformed input raises where :func:`read_trace_blocks` meets it; peer
    ranges are checked once every rank has been read.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return load_trace(handle)
    meta: dict[str, str] = {}
    records: dict[int, list[TraceRecord]] = {}
    for block in read_trace_blocks(source, meta, _LOAD_BLOCK_RECORDS):
        records.setdefault(block.rank, []).extend(block.records())
    nranks = len(records)
    ranks = [RankTrace(rank=rank, records=records[rank]) for rank in range(nranks)]
    for rank_trace in ranks:
        for rec in rank_trace.records:
            check_peer_range(rank_trace.rank, rec.op, rec.peer, rec.recv_peer, nranks)
    return Trace(ranks=ranks, meta=meta)


def loads_trace(text: str) -> Trace:
    """Parse a trace from a string produced by :func:`dumps_trace`."""
    return load_trace(io.StringIO(text))


class TraceBlock:
    """Consecutive records of one rank, parsed and checked, as raw columns.

    ``code`` holds :data:`~repro.trace.records.MPI_OP_CODE` values,
    ``fields`` the integer fields of every record flattened record-major
    (``peer, size, tag, comm_size, request, recv_peer, recv_size,
    recv_tag``), and ``requests`` the handles of each record's
    ``requests=`` field.  :meth:`records` and :meth:`columns` only change
    the representation: every check of the format has already passed.
    """

    __slots__ = ("rank", "code", "tstart", "tend", "fields", "requests")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.code: list[int] = []
        self.tstart: list[float] = []
        self.tend: list[float] = []
        self.fields: list[int] = []
        self.requests: list[tuple[int, ...]] = []

    def __len__(self) -> int:
        return len(self.code)

    def records(self) -> list[TraceRecord]:
        """The block as :class:`TraceRecord` objects."""
        fields = iter(self.fields)
        return [
            TraceRecord(_OPS[code], tstart, tend, peer, size, tag, comm_size,
                        request, requests, recv_peer, recv_size, recv_tag)
            for code, tstart, tend,
            (peer, size, tag, comm_size, request, recv_peer, recv_size, recv_tag),
            requests in zip(self.code, self.tstart, self.tend,
                            zip(*[fields] * len(_INT_FIELDS)), self.requests)
        ]

    def columns(self) -> TraceColumns:
        """The block as one :class:`TraceColumns` (int64 integer fields)."""
        fields = np.array(self.fields, dtype=np.int64).reshape(-1, len(_INT_FIELDS))
        peer, size, tag, comm_size, request, recv_peer, recv_size, recv_tag = fields.T.copy()
        return TraceColumns(
            code=np.array(self.code, dtype=np.int16),
            tstart=np.array(self.tstart, dtype=np.float64),
            tend=np.array(self.tend, dtype=np.float64),
            peer=peer, size=size, tag=tag, comm_size=comm_size, request=request,
            recv_peer=recv_peer, recv_size=recv_size, recv_tag=recv_tag,
            requests=self.requests,
        )


def read_trace_blocks(
    handle: TextIO, meta: dict[str, str], block_records: int
) -> Iterator[TraceBlock]:
    """Parse trace text into blocks of at most ``block_records`` records.

    The one reader of the format: :func:`load_trace` builds its records
    from the blocks and
    :func:`~repro.schedgen.streaming.batches_from_trace_chunked` maps them
    to op rows, so both hold one block of raw columns at a time.  Blocks
    come in file order, each rank's consecutively, and the last block of a
    rank may be empty (a rank without records yields just that one).
    ``meta`` is filled from the ``# meta`` lines.

    Every check runs where its input is complete: a malformed line raises
    a :class:`TraceFormatError` naming it; a record that starts before the
    previous one ended or breaks the request lifecycle (a post without a
    handle, a reused handle, a wait on an unknown one) raises a
    ``ValueError`` at that record; requests still open raise at the end of
    their rank, and rank numbers other than ``0 .. n-1`` at the end of the
    input.  Peer ranges need the rank count, so the callers check them
    (:func:`~repro.trace.records.check_peer_range`).  Lines are split on
    ``"\\n"`` only: ``str.splitlines()`` would also break on boundaries
    (NEL, U+2028, ...) that are legal inside meta values.
    """
    lines = iter(handle)
    if next(lines, "").strip() != _HEADER:
        raise TraceFormatError(f"missing header {_HEADER!r}")
    seen_ranks: set[int] = set()
    block: TraceBlock | None = None
    pending: set[int] = set()
    last_tend = -math.inf
    for lineno, raw in enumerate(lines, start=2):
        if raw.startswith("# meta "):
            # parsed from the raw line: meta values keep their exact bytes
            # (leading/trailing whitespace included) and are unescaped below
            raw = raw[:-1] if raw.endswith("\n") else raw
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
            if rank in seen_ranks:
                raise TraceFormatError(f"line {lineno}: duplicate '@rank {rank}' header")
            if rank < 0:
                raise ValueError(f"rank must be non-negative, got {rank}")
            if block is not None:
                yield _end_of_rank(block, pending)
            seen_ranks.add(rank)
            block = TraceBlock(rank)
            pending = set()
            last_tend = -math.inf
            continue
        if block is None:
            raise TraceFormatError(f"line {lineno}: record before any '@rank' header")

        fields = line.split(":")
        if len(fields) < 3:
            raise TraceFormatError(
                f"line {lineno}: expected at least op:tstart:tend, got {line!r}"
            )
        code = _OP_CODE.get(fields[0])
        if code is None:
            raise TraceFormatError(f"line {lineno}: unknown MPI operation {fields[0]!r}")
        try:
            tstart = float(fields[1])
            tend = float(fields[2])
        except ValueError as exc:
            raise TraceFormatError(
                f"line {lineno}: bad timestamps {fields[1]!r}/{fields[2]!r}"
            ) from exc
        values = _INT_DEFAULTS.copy()
        requests: tuple[int, ...] = ()
        for item in fields[3:]:
            key, sep, value = item.partition("=")
            if not sep:
                raise TraceFormatError(f"line {lineno}: malformed field {item!r}")
            slot = _FIELD_SLOT.get(key)
            if slot is None and key != "requests":
                raise TraceFormatError(f"line {lineno}: unknown field {key!r}")
            try:
                if slot is None:
                    requests = tuple(int(v) for v in value.split(",") if v)
                    in_range = all(_INT64_MIN <= v <= _INT64_MAX for v in requests)
                else:
                    values[slot] = int(value)
                    in_range = _INT64_MIN <= values[slot] <= _INT64_MAX
            except ValueError:
                raise TraceFormatError(
                    f"line {lineno}: field {key!r} has non-integer value {value!r}"
                ) from None
            if not in_range:
                raise TraceFormatError(
                    f"line {lineno}: field {key!r} value {value!r} does not fit "
                    f"a 64-bit integer"
                )
        peer, size, _, comm_size, request, _, recv_size, _ = values

        op = _OPS[code]
        if tend < tstart:
            raise TraceFormatError(
                f"line {lineno}: {op}: end timestamp {tend} precedes start {tstart}"
            )
        if size < 0 or recv_size < 0:
            raise TraceFormatError(f"line {lineno}: {op}: negative message size")
        if peer < 0 and code in _P2P:
            raise TraceFormatError(
                f"line {lineno}: {op}: point-to-point operation requires a peer rank"
            )
        if comm_size < 2 and code in _COLLECTIVE:
            raise TraceFormatError(
                f"line {lineno}: {op}: collective requires comm_size >= 2"
            )
        if tstart < last_tend - 1e-9:
            raise ValueError(
                f"rank {block.rank}: record {op} starts at {tstart} "
                f"before the previous call ended at {last_tend}"
            )
        last_tend = tend

        if code in _POST:
            if request < 0:
                raise ValueError(f"rank {block.rank}: {op} without a request handle")
            if request in pending:
                raise ValueError(
                    f"rank {block.rank}: request {request} reused before wait"
                )
            pending.add(request)
        elif code == _WAIT:
            if request not in pending:
                raise ValueError(
                    f"rank {block.rank}: MPI_Wait on unknown request {request}"
                )
            pending.discard(request)
        elif code == _WAITALL:
            for handle_id in requests:
                if handle_id not in pending:
                    raise ValueError(
                        f"rank {block.rank}: MPI_Waitall on unknown request {handle_id}"
                    )
                pending.discard(handle_id)

        block.code.append(code)
        block.tstart.append(tstart)
        block.tend.append(tend)
        block.fields.extend(values)
        block.requests.append(requests)
        if len(block.code) >= block_records:
            yield block
            block = TraceBlock(block.rank)

    if block is not None:
        yield _end_of_rank(block, pending)
    for position, rank in enumerate(sorted(seen_ranks)):
        if rank != position:
            raise ValueError(
                f"rank traces must be ordered by rank; found rank {rank} "
                f"at position {position}"
            )


def _end_of_rank(block: TraceBlock, pending: set[int]) -> TraceBlock:
    """The last block of a rank, once none of its requests is left open."""
    if pending:
        raise ValueError(
            f"rank {block.rank}: requests never completed: {sorted(pending)}"
        )
    return block
