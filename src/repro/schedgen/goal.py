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

Ingestion is columnar: each ``rank`` block is parsed into staging columns and
flushed through the bulk :meth:`~repro.schedgen.graph.GraphBuilder.add_vertices`
/ ``add_dependencies`` APIs at the closing brace, one call per block instead
of one per line; the writer reads the edge columns through
:meth:`~repro.schedgen.graph.ExecutionGraph.edge_arrays` instead of the
per-edge tuple iterator.
"""

from __future__ import annotations

import io
import re
from pathlib import Path
from typing import TextIO

import numpy as np

from .builder import UnmatchedMessageError
from .columnar import match_messages
from .graph import EdgeKind, ExecutionGraph, GraphBuilder, VertexKind

__all__ = ["dump_goal", "dumps_goal", "load_goal", "loads_goal", "GoalFormatError"]

_NS_PER_US = 1000.0

_CALC_RE = re.compile(r"^l(?P<id>\d+):\s*calc\s+(?P<cost>\d+)$")
_SEND_RE = re.compile(r"^l(?P<id>\d+):\s*send\s+(?P<size>\d+)b\s+to\s+(?P<peer>\d+)\s+tag\s+(?P<tag>-?\d+)$")
_RECV_RE = re.compile(r"^l(?P<id>\d+):\s*recv\s+(?P<size>\d+)b\s+from\s+(?P<peer>\d+)\s+tag\s+(?P<tag>-?\d+)$")
_REQ_RE = re.compile(r"^l(?P<dst>\d+)\s+requires\s+l(?P<src>\d+)$")


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
    return _read(io.StringIO(text))


def load_goal(source: str | Path | TextIO) -> ExecutionGraph:
    """Read a GOAL file from a path or stream."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return _read(handle)
    return _read(source)


class _BlockStage:
    """Staging columns of one ``rank { ... }`` block (flushed in bulk)."""

    __slots__ = ("kind", "cost", "size", "peer", "tag", "local_index", "deps")

    def __init__(self) -> None:
        self.kind: list[int] = []
        self.cost: list[float] = []
        self.size: list[int] = []
        self.peer: list[int] = []
        self.tag: list[int] = []
        self.local_index: dict[int, int] = {}
        self.deps: list[tuple[int, int]] = []  # (src_index, dst_index)

    def flush(self, builder: GraphBuilder, rank: int) -> None:
        if not self.kind:
            return
        vids = builder.add_vertices(
            np.array(self.kind, dtype=np.int8),
            rank,
            cost=np.array(self.cost, dtype=np.float64),
            size=np.array(self.size, dtype=np.int64),
            peer=np.array(self.peer, dtype=np.int64),
            tag=np.array(self.tag, dtype=np.int64),
        )
        if self.deps:
            deps = np.array(self.deps, dtype=np.int64)
            builder.add_dependencies(vids[deps[:, 0]], vids[deps[:, 1]])


def _read(handle: TextIO) -> ExecutionGraph:
    lines = [line.rstrip() for line in handle.read().splitlines()]
    if not lines or not lines[0].startswith("num_ranks"):
        raise GoalFormatError("GOAL file must start with 'num_ranks N'")
    try:
        nranks = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise GoalFormatError(f"malformed num_ranks line: {lines[0]!r}") from exc

    builder = GraphBuilder(nranks=nranks)
    current_rank: int | None = None
    stage = _BlockStage()

    calc_kind = int(VertexKind.CALC)
    send_kind = int(VertexKind.SEND)
    recv_kind = int(VertexKind.RECV)

    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("rank "):
            if current_rank is not None:
                raise GoalFormatError(
                    f"line {lineno}: rank {current_rank} block is not closed"
                )
            if not line.endswith("{"):
                raise GoalFormatError(f"line {lineno}: expected 'rank N {{'")
            try:
                current_rank = int(line.split()[1])
            except (IndexError, ValueError) as exc:
                raise GoalFormatError(f"line {lineno}: malformed rank header") from exc
            stage = _BlockStage()
            continue
        if line == "}":
            if current_rank is not None:
                stage.flush(builder, current_rank)
            current_rank = None
            continue
        if current_rank is None:
            raise GoalFormatError(f"line {lineno}: statement outside a rank block")
        if (m := _CALC_RE.match(line)) is not None:
            stage.local_index[int(m.group("id"))] = len(stage.kind)
            stage.kind.append(calc_kind)
            stage.cost.append(int(m.group("cost")) / _NS_PER_US)
            stage.size.append(0)
            stage.peer.append(-1)
            stage.tag.append(0)
        elif (m := _SEND_RE.match(line)) is not None:
            stage.local_index[int(m.group("id"))] = len(stage.kind)
            stage.kind.append(send_kind)
            stage.cost.append(0.0)
            stage.size.append(int(m.group("size")))
            stage.peer.append(int(m.group("peer")))
            stage.tag.append(int(m.group("tag")))
        elif (m := _RECV_RE.match(line)) is not None:
            stage.local_index[int(m.group("id"))] = len(stage.kind)
            stage.kind.append(recv_kind)
            stage.cost.append(0.0)
            stage.size.append(int(m.group("size")))
            stage.peer.append(int(m.group("peer")))
            stage.tag.append(int(m.group("tag")))
        elif (m := _REQ_RE.match(line)) is not None:
            src_local, dst_local = int(m.group("src")), int(m.group("dst"))
            if src_local not in stage.local_index or dst_local not in stage.local_index:
                raise GoalFormatError(f"line {lineno}: dependency on undefined label")
            stage.deps.append(
                (stage.local_index[src_local], stage.local_index[dst_local])
            )
        else:
            raise GoalFormatError(f"line {lineno}: cannot parse {line!r}")

    if current_rank is not None:
        raise GoalFormatError(f"unterminated rank {current_rank} block at end of file")

    try:
        match_messages(builder)
    except UnmatchedMessageError as exc:
        raise GoalFormatError(f"unmatched send/recv operations in GOAL file: {exc}") from exc
    return builder.freeze()
