"""GOAL-style serialisation of execution graphs.

GOAL (Group Operation Assembly Language, Hoefler et al. 2009) is the textual
schedule format produced by Schedgen and consumed by LogGOPSim.  We implement
a faithful subset sufficient for round-tripping the execution graphs used in
this reproduction:

```
num_ranks 2

rank 0 {
  l1: calc 1000
  l2: send 8b to 1 tag 5
  l3: recv 8b from 1 tag 6
  l2 requires l1
  l3 requires l2
}

rank 1 {
  ...
}
```

Costs are written in whole nanoseconds (GOAL's convention), message sizes in
bytes.  Communication edges are not written explicitly — LogGOPSim re-derives
them from send/recv matching — and neither do we when parsing: the graph is
re-matched with the same FIFO rule used by the schedule builder (via the
vectorised matcher of :mod:`repro.schedgen.columnar`).

:func:`load_goal` is the one GOAL reader (``llamp ingest goal`` included).
It stages statements in lists and flushes them through the bulk
:meth:`~repro.schedgen.graph.GraphBuilder.add_vertices` /
``add_dependencies`` APIs every ``chunk_size`` statements and at each
closing brace, so a long block never stages whole; the writer reads the
edge columns through :meth:`~repro.schedgen.graph.ExecutionGraph.edge_arrays`
instead of the per-edge tuple iterator.
"""

from __future__ import annotations

import io
import os
import re
from pathlib import Path
from typing import TextIO

import numpy as np

from .builder import UnmatchedMessageError
from .columnar import match_messages
from .graph import EdgeKind, ExecutionGraph, GraphBuilder, VertexKind
from .streaming import resolve_chunk_size

__all__ = ["dump_goal", "dumps_goal", "load_goal", "loads_goal", "GoalFormatError"]

_NS_PER_US = 1000.0

_CALC_RE = re.compile(r"^l(?P<id>\d+):\s*calc\s+(?P<cost>\d+)$")
_SEND_RE = re.compile(r"^l(?P<id>\d+):\s*send\s+(?P<size>\d+)b\s+to\s+(?P<peer>\d+)\s+tag\s+(?P<tag>-?\d+)$")
_RECV_RE = re.compile(r"^l(?P<id>\d+):\s*recv\s+(?P<size>\d+)b\s+from\s+(?P<peer>\d+)\s+tag\s+(?P<tag>-?\d+)$")
_REQ_RE = re.compile(r"^l(?P<dst>\d+)\s+requires\s+l(?P<src>\d+)$")

_CALC = int(VertexKind.CALC)
_SEND = int(VertexKind.SEND)
_RECV = int(VertexKind.RECV)


class GoalFormatError(ValueError):
    """Raised when a GOAL file cannot be parsed."""


def dumps_goal(graph: ExecutionGraph) -> str:
    """Serialise ``graph`` to a GOAL string."""
    buffer = io.StringIO()
    _write(graph, buffer)
    return buffer.getvalue()


def dump_goal(graph: ExecutionGraph, destination: str | Path | TextIO) -> None:
    """Write ``graph`` in GOAL format to a path or stream."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as handle:
            _write(graph, handle)
    else:
        _write(graph, destination)


def _write(graph: ExecutionGraph, handle: TextIO) -> None:
    handle.write(f"num_ranks {graph.nranks}\n")
    edge_src, edge_dst, edge_kind = graph.edge_arrays()
    dep_mask = edge_kind == int(EdgeKind.DEP)
    # an intra-rank dependency has both endpoints on the writer's rank; DEP
    # edges are intra-rank by construction, so grouping by the source rank
    # partitions them (one vectorised pass instead of a per-rank edge scan)
    dep_ids = np.flatnonzero(dep_mask)
    dep_rank = graph.rank[edge_src[dep_ids]]
    # per-rank local label numbering
    local_label: dict[int, int] = {}
    for rank in range(graph.nranks):
        vertices = graph.vertices_of_rank(rank)
        handle.write(f"\nrank {rank} {{\n")
        for local_id, vid in enumerate(vertices, start=1):
            local_label[int(vid)] = local_id
            kind = VertexKind(int(graph.kind[vid]))
            if kind is VertexKind.CALC:
                cost_ns = int(round(float(graph.cost[vid]) * _NS_PER_US))
                handle.write(f"  l{local_id}: calc {cost_ns}\n")
            elif kind is VertexKind.SEND:
                handle.write(
                    f"  l{local_id}: send {int(graph.size[vid])}b to "
                    f"{int(graph.peer[vid])} tag {int(graph.tag[vid])}\n"
                )
            else:
                handle.write(
                    f"  l{local_id}: recv {int(graph.size[vid])}b from "
                    f"{int(graph.peer[vid])} tag {int(graph.tag[vid])}\n"
                )
        # intra-rank dependency edges, in edge order
        for eid in dep_ids[dep_rank == rank]:
            src, dst = int(edge_src[eid]), int(edge_dst[eid])
            if int(graph.rank[dst]) != rank:  # pragma: no cover - defensive
                continue
            handle.write(f"  l{local_label[dst]} requires l{local_label[src]}\n")
        handle.write("}\n")


def loads_goal(text: str) -> ExecutionGraph:
    """Parse a GOAL string produced by :func:`dumps_goal`."""
    return load_goal(io.StringIO(text))


def load_goal(
    source: str | Path | TextIO,
    *,
    chunk_size: int | str | None = "auto",
    mmap_dir: str | os.PathLike | None = None,
) -> ExecutionGraph:
    """Read a GOAL schedule from a path or text stream into a frozen graph.

    Statements are staged in lists and flushed through the bulk builder
    APIs at every closing brace and whenever ``chunk_size`` vertices or
    dependencies are staged (``"auto"`` →
    :data:`~repro.schedgen.streaming.DEFAULT_CHUNK_RECORDS`), so staging
    stays bounded however long a block is.  A block's vertices occupy a
    contiguous id range and a dependency names only labels defined before
    it, so every label resolves to its vertex id as it is parsed and the
    flush points cannot change the graph.  With ``mmap_dir`` the builder's
    columns, and so the frozen graph's, are disk-backed; the caller owns
    the directory for the graph's lifetime.

    Lines are split on ``"\\n"`` only.  A malformed line raises a
    :class:`GoalFormatError` that names it (a label defined twice in a
    block, a repeated block and a rank or peer outside ``[0, num_ranks)``
    among them), unmatched sends and receives raise one at the end, and a
    cyclic schedule raises :class:`~repro.schedgen.graph.GraphValidationError`
    when the graph is frozen.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return load_goal(handle, chunk_size=chunk_size, mmap_dir=mmap_dir)
    chunk = resolve_chunk_size(chunk_size)
    lines = iter(source)
    first = next(lines, "").rstrip()
    if not first.startswith("num_ranks"):
        raise GoalFormatError("GOAL file must start with 'num_ranks N'")
    try:
        nranks = int(first.split()[1])
    except (IndexError, ValueError) as exc:
        raise GoalFormatError(f"malformed num_ranks line: {first!r}") from exc

    builder = GraphBuilder(nranks=nranks, mmap_dir=mmap_dir)
    rank: int | None = None
    seen_ranks: set[int] = set()
    vertex_of: dict[int, int] = {}  # label of the open block -> vertex id
    next_vertex = 0
    kinds: list[int] = []
    costs: list[float] = []
    sizes: list[int] = []
    peers: list[int] = []
    tags: list[int] = []
    dep_src: list[int] = []
    dep_dst: list[int] = []

    def flush() -> None:
        # vertices first: staged dependencies may name staged vertices
        if kinds:
            builder.add_vertices(
                np.array(kinds, dtype=np.int8), rank,
                cost=np.array(costs, dtype=np.float64),
                size=np.array(sizes, dtype=np.int64),
                peer=np.array(peers, dtype=np.int64),
                tag=np.array(tags, dtype=np.int64),
            )
            for column in (kinds, costs, sizes, peers, tags):
                column.clear()
        if dep_src:
            builder.add_dependencies(
                np.array(dep_src, dtype=np.int64), np.array(dep_dst, dtype=np.int64)
            )
            dep_src.clear()
            dep_dst.clear()

    for lineno, raw in enumerate(lines, start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("rank "):
            if rank is not None:
                raise GoalFormatError(f"line {lineno}: rank {rank} block is not closed")
            if not line.endswith("{"):
                raise GoalFormatError(f"line {lineno}: expected 'rank N {{'")
            try:
                rank = int(line.split()[1])
            except (IndexError, ValueError) as exc:
                raise GoalFormatError(f"line {lineno}: malformed rank header") from exc
            if rank in seen_ranks:
                raise GoalFormatError(f"line {lineno}: duplicate 'rank {rank}' block")
            if not 0 <= rank < nranks:
                raise GoalFormatError(
                    f"line {lineno}: rank {rank} out of range [0, {nranks})"
                )
            seen_ranks.add(rank)
            vertex_of.clear()
            continue
        if line == "}":
            if rank is None:
                raise GoalFormatError(f"line {lineno}: '}}' outside a rank block")
            flush()
            rank = None
            continue
        if rank is None:
            raise GoalFormatError(f"line {lineno}: statement outside a rank block")
        # dependencies outnumber vertices: try them first
        if (m := _REQ_RE.match(line)) is not None:
            src = vertex_of.get(int(m["src"]))
            dst = vertex_of.get(int(m["dst"]))
            if src is None or dst is None:
                raise GoalFormatError(f"line {lineno}: dependency on undefined label")
            dep_src.append(src)
            dep_dst.append(dst)
            if len(dep_src) >= chunk:
                flush()
            continue
        if (m := _CALC_RE.match(line)) is not None:
            kind, cost, size, peer, tag = _CALC, int(m["cost"]) / _NS_PER_US, 0, -1, 0
        elif (m := _SEND_RE.match(line)) is not None:
            kind, cost, size, peer, tag = _SEND, 0.0, int(m["size"]), int(m["peer"]), int(m["tag"])
        elif (m := _RECV_RE.match(line)) is not None:
            kind, cost, size, peer, tag = _RECV, 0.0, int(m["size"]), int(m["peer"]), int(m["tag"])
        else:
            raise GoalFormatError(f"line {lineno}: cannot parse {line!r}")
        label = int(m["id"])
        if label in vertex_of:
            raise GoalFormatError(f"line {lineno}: label l{label} defined twice")
        if peer >= nranks:
            raise GoalFormatError(f"line {lineno}: peer {peer} out of range [0, {nranks})")
        vertex_of[label] = next_vertex
        next_vertex += 1
        kinds.append(kind)
        costs.append(cost)
        sizes.append(size)
        peers.append(peer)
        tags.append(tag)
        if len(kinds) >= chunk:
            flush()

    if rank is not None:
        raise GoalFormatError(f"unterminated rank {rank} block at end of file")

    try:
        match_messages(builder)
    except UnmatchedMessageError as exc:
        raise GoalFormatError(f"unmatched send/recv operations in GOAL file: {exc}") from exc
    return builder.freeze()
