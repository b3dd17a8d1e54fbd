"""MPI execution graphs (the GOAL-like DAG used by LLAMP).

An execution graph is a directed acyclic graph with three vertex types
(Section II-A of the paper):

``CALC``
    a computation interval on one rank, with a fixed cost in microseconds;
``SEND``
    the CPU-side posting of a point-to-point send (costs ``o``);
``RECV``
    the CPU-side completion of a point-to-point receive (costs ``o``).

Edges come in two flavours:

``DEP``
    an intra-rank happens-before edge (program order, or a wait-for-request
    dependency);
``COMM``
    a communication edge from a ``SEND`` vertex to the matching ``RECV``
    vertex; its cost under LogGPS is ``L + (s - 1) G`` for eager messages and
    the rendezvous hand-shake for large ones.

The graph is built incrementally with :class:`GraphBuilder` and then frozen
into an :class:`ExecutionGraph` (NumPy arrays + CSR adjacency) for analysis,
simulation and LP generation.  The builder itself is *columnar*: vertex and
edge attributes live in growable NumPy buffers, and besides the classic
scalar ``add_calc``/``add_send``/``add_recv``/``add_dependency`` calls it
exposes bulk APIs (:meth:`GraphBuilder.add_vertices`,
:meth:`GraphBuilder.add_dependencies`, :meth:`GraphBuilder.add_comm_edges`)
that append whole rounds of a collective or a whole trace segment in one
call — the foundation of the columnar schedule-generation engine
(:mod:`repro.schedgen.columnar`).
"""

from __future__ import annotations

import enum
import hashlib
import os
import tempfile
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "VertexKind",
    "EdgeKind",
    "GraphBuilder",
    "ExecutionGraph",
    "GraphValidationError",
]


class VertexKind(enum.IntEnum):
    """Vertex types of the execution DAG."""

    CALC = 0
    SEND = 1
    RECV = 2


class EdgeKind(enum.IntEnum):
    """Edge types of the execution DAG."""

    DEP = 0
    COMM = 1


class GraphValidationError(ValueError):
    """Raised when an execution graph violates a structural invariant."""


#: initial capacity of the builder's growable columns
_INITIAL_CAPACITY = 64


class GraphBuilder:
    """Incrementally build an execution graph on growable NumPy columns.

    Vertex attributes (kind, rank, cost, size, peer, tag) and edge triples
    (src, dst, kind) are stored as preallocated NumPy buffers that double in
    capacity when full, so both the scalar ``add_*`` methods and the bulk
    ``add_vertices``/``add_dependencies``/``add_comm_edges`` APIs append in
    amortised O(1) per element without any Python-list intermediary.  Call
    :meth:`freeze` to obtain an immutable :class:`ExecutionGraph`.

    Vertex ids are assigned densely in emission order; the frozen graph's
    vertex and edge arrays preserve exactly the order in which vertices and
    edges were added (see ``src/repro/schedgen/README.md`` for the ordering
    guarantee the schedule generators build on).

    With ``mmap_dir`` set, the growable columns live in disk-backed
    ``np.memmap`` buffers (one file per column inside a unique subdirectory
    of ``mmap_dir``) instead of anonymous RAM: growth re-maps the same file
    at a larger size with no copy, and the OS may write dirty column pages
    back and evict them under memory pressure, so schedules larger than RAM
    can be assembled.  The produced values are bit-identical either way;
    the caller owns ``mmap_dir`` and removes it once the builder *and every
    graph frozen from it* are done (a frozen graph keeps the builder's
    columns; on POSIX the files may be unlinked while still mapped).
    """

    __slots__ = (
        "nranks",
        "_nv",
        "_ne",
        "_vkind",
        "_vrank",
        "_vcost",
        "_vsize",
        "_vpeer",
        "_vtag",
        "_esrc",
        "_edst",
        "_ekind",
        "_label",
        "_mmap_dir",
    )

    def __init__(self, nranks: int, *, mmap_dir: str | os.PathLike | None = None) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        self.nranks = int(nranks)
        self._nv = 0
        self._ne = 0
        self._mmap_dir = (
            tempfile.mkdtemp(prefix="graphbuilder-", dir=os.fspath(mmap_dir))
            if mmap_dir is not None
            else None
        )
        self._vkind = self._alloc("_vkind", np.int8, _INITIAL_CAPACITY)
        self._vrank = self._alloc("_vrank", np.int32, _INITIAL_CAPACITY)
        self._vcost = self._alloc("_vcost", np.float64, _INITIAL_CAPACITY)
        self._vsize = self._alloc("_vsize", np.int64, _INITIAL_CAPACITY)
        self._vpeer = self._alloc("_vpeer", np.int32, _INITIAL_CAPACITY)
        self._vtag = self._alloc("_vtag", np.int64, _INITIAL_CAPACITY)
        self._esrc = self._alloc("_esrc", np.int64, _INITIAL_CAPACITY)
        self._edst = self._alloc("_edst", np.int64, _INITIAL_CAPACITY)
        self._ekind = self._alloc("_ekind", np.int8, _INITIAL_CAPACITY)
        self._label: dict[int, str] = {}

    # -- buffer management ---------------------------------------------------

    def _alloc(self, name: str, dtype, capacity: int, *, grow: bool = False) -> np.ndarray:
        if self._mmap_dir is None:
            return np.empty(capacity, dtype=dtype)
        # np.memmap with mode "r+" extends the file when the requested shape
        # is larger, and the new mapping sees the bytes already written
        # through the old one (same pages), so growth needs no copy
        path = os.path.join(self._mmap_dir, f"{name.lstrip('_')}.bin")
        return np.memmap(path, dtype=dtype, mode="r+" if grow else "w+",
                         shape=(capacity,))

    def _reserve_vertices(self, needed: int) -> None:
        capacity = len(self._vkind)
        if needed <= capacity:
            return
        new_capacity = max(needed, 2 * capacity)
        live = self._nv
        for name in ("_vkind", "_vrank", "_vcost", "_vsize", "_vpeer", "_vtag"):
            old = getattr(self, name)
            new = self._alloc(name, old.dtype, new_capacity, grow=True)
            if self._mmap_dir is None:
                new[:live] = old[:live]
            setattr(self, name, new)

    def _reserve_edges(self, needed: int) -> None:
        capacity = len(self._esrc)
        if needed <= capacity:
            return
        new_capacity = max(needed, 2 * capacity)
        live = self._ne
        for name in ("_esrc", "_edst", "_ekind"):
            old = getattr(self, name)
            new = self._alloc(name, old.dtype, new_capacity, grow=True)
            if self._mmap_dir is None:
                new[:live] = old[:live]
            setattr(self, name, new)

    # -- vertices -----------------------------------------------------------

    def _add_vertex(
        self,
        kind: VertexKind,
        rank: int,
        cost: float,
        size: int,
        peer: int,
        tag: int,
        label: str | None,
    ) -> int:
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} out of range [0, {self.nranks})")
        vid = self._nv
        self._reserve_vertices(vid + 1)
        self._vkind[vid] = int(kind)
        self._vrank[vid] = rank
        self._vcost[vid] = float(cost)
        self._vsize[vid] = int(size)
        self._vpeer[vid] = int(peer)
        self._vtag[vid] = int(tag)
        if label is not None:
            self._label[vid] = label
        self._nv = vid + 1
        return vid

    def add_calc(self, rank: int, cost: float, *, label: str | None = None) -> int:
        """Add a computation vertex with ``cost`` microseconds of work."""
        if cost < 0:
            raise ValueError(f"calc cost must be non-negative, got {cost}")
        return self._add_vertex(VertexKind.CALC, rank, cost, 0, -1, 0, label)

    def add_send(
        self, rank: int, peer: int, size: int, *, tag: int = 0, label: str | None = None
    ) -> int:
        """Add a send vertex (message of ``size`` bytes to ``peer``)."""
        if size < 0:
            raise ValueError(f"message size must be non-negative, got {size}")
        if not 0 <= peer < self.nranks:
            raise ValueError(f"send peer {peer} out of range [0, {self.nranks})")
        return self._add_vertex(VertexKind.SEND, rank, 0.0, size, peer, tag, label)

    def add_recv(
        self, rank: int, peer: int, size: int, *, tag: int = 0, label: str | None = None
    ) -> int:
        """Add a receive vertex (message of ``size`` bytes from ``peer``)."""
        if size < 0:
            raise ValueError(f"message size must be non-negative, got {size}")
        if not 0 <= peer < self.nranks:
            raise ValueError(f"recv peer {peer} out of range [0, {self.nranks})")
        return self._add_vertex(VertexKind.RECV, rank, 0.0, size, peer, tag, label)

    def add_vertices(
        self,
        kind,
        rank,
        *,
        cost=0.0,
        size=0,
        peer=-1,
        tag=0,
        count: int | None = None,
    ) -> np.ndarray:
        """Append a batch of vertices in one call; return their ids.

        Every argument may be a scalar (broadcast) or an array of one common
        length; ``count`` pins the batch size when all arguments are scalars.
        Vertex ids are assigned in array order, so the batch occupies the
        contiguous id range ``[num_vertices_before, num_vertices_before + n)``
        — the property the columnar emitters rely on.  Validation (rank and
        peer ranges, non-negative costs and sizes) runs vectorised over the
        whole batch; ``peer`` is only range-checked for non-``CALC`` rows.
        """
        n = count
        if n is None:
            for value in (kind, rank, cost, size, peer, tag):
                if np.ndim(value) == 1:
                    n = len(value)
                    break
        if n is None:
            raise ValueError(
                "add_vertices needs at least one array-valued column or count="
            )

        def column(value, dtype) -> np.ndarray:
            array = np.asarray(value, dtype=dtype)
            if array.ndim == 0:
                return np.broadcast_to(array, n)
            if array.ndim != 1 or len(array) != n:
                raise ValueError(
                    f"column length mismatch: expected {n}, got shape {array.shape}"
                )
            return array

        kinds = column(kind, np.int8)
        ranks = column(rank, np.int32)
        costs = column(cost, np.float64)
        sizes = column(size, np.int64)
        peers = column(peer, np.int32)
        tags = column(tag, np.int64)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        if np.any((ranks < 0) | (ranks >= self.nranks)):
            raise ValueError(f"rank out of range [0, {self.nranks})")
        if np.any(costs < 0):
            raise ValueError("calc cost must be non-negative")
        if np.any(sizes < 0):
            raise ValueError("message size must be non-negative")
        p2p = kinds != int(VertexKind.CALC)
        if np.any(p2p & ((peers < 0) | (peers >= self.nranks))):
            raise ValueError(f"peer out of range [0, {self.nranks})")

        start = self._nv
        self._reserve_vertices(start + n)
        span = slice(start, start + n)
        self._vkind[span] = kinds
        self._vrank[span] = ranks
        self._vcost[span] = costs
        self._vsize[span] = sizes
        self._vpeer[span] = peers
        self._vtag[span] = tags
        self._nv = start + n
        return np.arange(start, start + n, dtype=np.int64)

    def set_label(self, vid: int, label: str) -> None:
        """Attach a label to an existing vertex (bulk-emit counterpart of
        the ``label=`` keyword of the scalar ``add_*`` methods)."""
        self._check_vertex(vid)
        self._label[int(vid)] = label

    # -- edges --------------------------------------------------------------

    def _append_edge(self, src: int, dst: int, kind: EdgeKind) -> None:
        eid = self._ne
        self._reserve_edges(eid + 1)
        self._esrc[eid] = src
        self._edst[eid] = dst
        self._ekind[eid] = int(kind)
        self._ne = eid + 1

    def add_dependency(self, src: int, dst: int) -> None:
        """Add an intra-rank happens-before edge ``src -> dst``."""
        self._check_vertex(src)
        self._check_vertex(dst)
        if src == dst:
            raise ValueError("self-dependency is not allowed")
        self._append_edge(src, dst, EdgeKind.DEP)

    def add_comm_edge(self, send: int, recv: int) -> None:
        """Add a communication edge from a ``SEND`` vertex to a ``RECV`` vertex."""
        self._check_vertex(send)
        self._check_vertex(recv)
        if self._vkind[send] != VertexKind.SEND:
            raise ValueError(f"vertex {send} is not a SEND vertex")
        if self._vkind[recv] != VertexKind.RECV:
            raise ValueError(f"vertex {recv} is not a RECV vertex")
        self._append_edge(send, recv, EdgeKind.COMM)

    def add_dependencies(self, src, dst) -> None:
        """Append a batch of ``DEP`` edges (``src[i] -> dst[i]``) in order."""
        src = np.asarray(src, dtype=np.int64).ravel()
        dst = np.asarray(dst, dtype=np.int64).ravel()
        if src.shape != dst.shape:
            raise ValueError(
                f"add_dependencies column length mismatch: {src.shape} vs {dst.shape}"
            )
        n = len(src)
        if n == 0:
            return
        if np.any((src < 0) | (src >= self._nv) | (dst < 0) | (dst >= self._nv)):
            raise ValueError("vertex id out of range")
        if np.any(src == dst):
            raise ValueError("self-dependency is not allowed")
        start = self._ne
        self._reserve_edges(start + n)
        span = slice(start, start + n)
        self._esrc[span] = src
        self._edst[span] = dst
        self._ekind[span] = int(EdgeKind.DEP)
        self._ne = start + n

    def add_comm_edges(self, send, recv) -> None:
        """Append a batch of ``COMM`` edges (``send[i] -> recv[i]``) in order."""
        send = np.asarray(send, dtype=np.int64).ravel()
        recv = np.asarray(recv, dtype=np.int64).ravel()
        if send.shape != recv.shape:
            raise ValueError(
                f"add_comm_edges column length mismatch: {send.shape} vs {recv.shape}"
            )
        n = len(send)
        if n == 0:
            return
        if np.any((send < 0) | (send >= self._nv) | (recv < 0) | (recv >= self._nv)):
            raise ValueError("vertex id out of range")
        bad_send = self._vkind[send] != int(VertexKind.SEND)
        if np.any(bad_send):
            offender = int(send[int(np.argmax(bad_send))])
            raise ValueError(f"vertex {offender} is not a SEND vertex")
        bad_recv = self._vkind[recv] != int(VertexKind.RECV)
        if np.any(bad_recv):
            offender = int(recv[int(np.argmax(bad_recv))])
            raise ValueError(f"vertex {offender} is not a RECV vertex")
        start = self._ne
        self._reserve_edges(start + n)
        span = slice(start, start + n)
        self._esrc[span] = send
        self._edst[span] = recv
        self._ekind[span] = int(EdgeKind.COMM)
        self._ne = start + n

    def chain(self, vertices: Sequence[int]) -> None:
        """Add dependency edges connecting ``vertices`` in order."""
        for u, v in zip(vertices, vertices[1:]):
            self.add_dependency(u, v)

    def _check_vertex(self, vid: int) -> None:
        if not 0 <= vid < self._nv:
            raise ValueError(f"vertex id {vid} out of range")

    # -- introspection ------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self._nv

    @property
    def num_edges(self) -> int:
        return self._ne

    def kind_column(self) -> np.ndarray:
        """View of the vertex-kind column (read-only; valid until the next append,
        which may reallocate the buffer — copy or consume immediately)."""
        return self._vkind[: self._nv]

    def rank_column(self) -> np.ndarray:
        """View of the vertex-rank column (read-only; valid until the next append,
        which may reallocate the buffer — copy or consume immediately)."""
        return self._vrank[: self._nv]

    def peer_column(self) -> np.ndarray:
        """View of the vertex-peer column (read-only; valid until the next append,
        which may reallocate the buffer — copy or consume immediately)."""
        return self._vpeer[: self._nv]

    def tag_column(self) -> np.ndarray:
        """View of the vertex-tag column (read-only; valid until the next append,
        which may reallocate the buffer — copy or consume immediately)."""
        return self._vtag[: self._nv]

    def size_column(self) -> np.ndarray:
        """View of the vertex-size column (read-only; valid until the next append,
        which may reallocate the buffer — copy or consume immediately)."""
        return self._vsize[: self._nv]

    def freeze(self) -> "ExecutionGraph":
        """Produce the immutable, validated :class:`ExecutionGraph`.

        This is the one way builder columns become a graph.  The graph
        adopts the column slices ``[:num_vertices]`` / ``[:num_edges]``
        without copying them: every append writes past those bounds, so
        later use of the builder cannot change a frozen graph, and an
        ``mmap_dir`` builder's graph stays disk-backed.  Validation checks
        the structure and computes the level structure, which raises
        :class:`GraphValidationError` on a cycle.
        """
        nv, ne = self._nv, self._ne
        graph = ExecutionGraph(
            nranks=self.nranks,
            kind=self._vkind[:nv],
            rank=self._vrank[:nv],
            cost=self._vcost[:nv],
            size=self._vsize[:nv],
            peer=self._vpeer[:nv],
            tag=self._vtag[:nv],
            edge_src=self._esrc[:ne],
            edge_dst=self._edst[:ne],
            edge_kind=self._ekind[:ne],
            labels=dict(self._label),
        )
        graph.validate()
        return graph


class ExecutionGraph:
    """Immutable execution DAG with CSR adjacency and a cached topological order."""

    def __init__(
        self,
        nranks: int,
        kind: np.ndarray,
        rank: np.ndarray,
        cost: np.ndarray,
        size: np.ndarray,
        peer: np.ndarray,
        tag: np.ndarray,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_kind: np.ndarray,
        labels: dict[int, str] | None = None,
    ) -> None:
        self.nranks = int(nranks)
        self.kind = kind
        self.rank = rank
        self.cost = cost
        self.size = size
        self.peer = peer
        self.tag = tag
        self.edge_src = edge_src
        self.edge_dst = edge_dst
        self.edge_kind = edge_kind
        self.labels = labels or {}

        m = len(edge_src)
        # CSR adjacency is derived lazily (see the ``_succ_*``/``_pred_*``
        # properties): digest-only and analyze-only consumers never touch
        # the successor CSR, and skipping it keeps those paths free of the
        # O(E) indptr/indices/edge-id triple
        self._succ_csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._pred_csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._topo_order: np.ndarray | None = None
        self._topo_positions: np.ndarray | None = None
        self._level_indptr: np.ndarray | None = None
        self._level_of: np.ndarray | None = None
        self._chain_parent: np.ndarray | None = None
        self._chain_in_edge: np.ndarray | None = None
        self._chain_anchor: np.ndarray | None = None
        self._content_digest: str | None = None
        self._level_plan_cache: dict[str, object] = {}
        self._num_edges = m

    # -- lazy CSR adjacency --------------------------------------------------
    # The six ``_succ_*``/``_pred_*`` names are the long-standing internal
    # API (the LP compiler and the simulators read them directly); they are
    # served as properties so the triples are only built on first use.

    def _succ(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._succ_csr is None:
            self._succ_csr = _build_csr(self.edge_src, self.edge_dst, len(self.kind))
        return self._succ_csr

    def _pred(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._pred_csr is None:
            self._pred_csr = _build_csr(self.edge_dst, self.edge_src, len(self.kind))
        return self._pred_csr

    @property
    def _succ_indptr(self) -> np.ndarray:
        return self._succ()[0]

    @property
    def _succ_indices(self) -> np.ndarray:
        return self._succ()[1]

    @property
    def _succ_edges(self) -> np.ndarray:
        return self._succ()[2]

    @property
    def _pred_indptr(self) -> np.ndarray:
        return self._pred()[0]

    @property
    def _pred_indices(self) -> np.ndarray:
        return self._pred()[1]

    @property
    def _pred_edges(self) -> np.ndarray:
        return self._pred()[2]

    # -- basic accessors ----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.kind)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def num_events(self) -> int:
        """Total number of vertices, the "events" count reported in the paper."""
        return self.num_vertices

    @property
    def num_messages(self) -> int:
        """Number of communication edges (point-to-point messages)."""
        return int(np.count_nonzero(self.edge_kind == EdgeKind.COMM))

    def successors(self, vid: int) -> np.ndarray:
        """Vertex ids of the successors of ``vid``."""
        return self._succ_indices[self._succ_indptr[vid]: self._succ_indptr[vid + 1]]

    def predecessors(self, vid: int) -> np.ndarray:
        """Vertex ids of the predecessors of ``vid``."""
        return self._pred_indices[self._pred_indptr[vid]: self._pred_indptr[vid + 1]]

    def out_degree(self, vid: int) -> int:
        return int(self._succ_indptr[vid + 1] - self._succ_indptr[vid])

    def in_degree(self, vid: int) -> int:
        return int(self._pred_indptr[vid + 1] - self._pred_indptr[vid])

    def in_edges(self, vid: int) -> Iterator[tuple[int, int, EdgeKind]]:
        """Yield ``(src, dst, kind)`` for every incoming edge of ``vid``.

        Convenience iterator for small graphs and reference implementations;
        hot paths should use :meth:`edge_arrays` / the CSR views instead.
        """
        start, stop = self._pred_indptr[vid], self._pred_indptr[vid + 1]
        for pos in range(start, stop):
            eid = self._pred_edges[pos]
            yield (
                int(self.edge_src[eid]),
                vid,
                EdgeKind(int(self.edge_kind[eid])),
            )

    def edges(self) -> Iterator[tuple[int, int, EdgeKind]]:
        """Yield every edge as ``(src, dst, kind)`` (see :meth:`edge_arrays`
        for the array-native view used on hot paths)."""
        for eid in range(self._num_edges):
            yield (
                int(self.edge_src[eid]),
                int(self.edge_dst[eid]),
                EdgeKind(int(self.edge_kind[eid])),
            )

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The raw ``(edge_src, edge_dst, edge_kind)`` columns, in edge order.

        This is the array-native alternative to the per-edge :meth:`edges` /
        :meth:`in_edges` tuple iterators: one call, zero copies (the arrays
        are the graph's own columns — treat them as read-only).  Edge ids used
        by the CSR views (``_pred_edges``/``_succ_edges``) index into these
        arrays.
        """
        return self.edge_src, self.edge_dst, self.edge_kind

    # -- content identity ----------------------------------------------------

    #: canonical (name, attribute, little-endian dtype) of every column that
    #: defines the graph's identity, in digest/serialisation order.  The CSR
    #: adjacency and all cached views are derived data and excluded.
    CONTENT_COLUMNS: tuple[tuple[str, str], ...] = (
        ("kind", "<i1"),
        ("rank", "<i4"),
        ("cost", "<f8"),
        ("size", "<i8"),
        ("peer", "<i4"),
        ("tag", "<i8"),
        ("edge_src", "<i8"),
        ("edge_dst", "<i8"),
        ("edge_kind", "<i1"),
    )

    def identity_columns(self) -> dict[str, np.ndarray]:
        """Every identity column as a canonical little-endian array, keyed by
        name in :attr:`CONTENT_COLUMNS` order.

        This is the array set that defines :meth:`content_digest`; columns
        already in canonical form are returned as-is (no copy), so the dict
        can feed serialisation and pickling without duplicating the graph.
        Treat the arrays as read-only.
        """
        return {
            name: np.ascontiguousarray(getattr(self, name), dtype=dtype)
            for name, dtype in self.CONTENT_COLUMNS
        }

    def __reduce__(self):
        """Pickle the graph as its identity, not as the whole object.

        A pickle carries :meth:`identity_columns`, the labels, the digest
        and the level structure when it is already known; the CSR
        adjacency and every other cached view are rebuilt on demand after
        unpickling.  This is how the sweep pool ships graphs to its
        workers.
        """
        state = {"_content_digest": self.content_digest()}
        if self._topo_order is not None and self._level_indptr is not None:
            state.update(_topo_order=self._topo_order, _level_indptr=self._level_indptr)
        return ExecutionGraph.from_columns, (
            self.nranks, self.identity_columns(), self.labels,
        ), state

    @classmethod
    def from_columns(
        cls,
        nranks: int,
        columns: "dict[str, np.ndarray]",
        labels: dict[int, str] | None = None,
        *,
        topo_order: np.ndarray | None = None,
        level_indptr: np.ndarray | None = None,
        content_digest: str | None = None,
    ) -> "ExecutionGraph":
        """Re-attach a graph over the identity columns of a validated one.

        The inverse of :meth:`identity_columns`: ``columns`` maps every
        :attr:`CONTENT_COLUMNS` name to its array, which is adopted
        **without copying** — zero-copy attach over memory-mapped views is
        the intended use (the columns should be read-only in that case).
        An already-known level structure and content digest can be
        re-attached so neither is re-derived.  The columns are trusted:
        this is how store loads and pickles come back, and new graphs are
        built through :meth:`GraphBuilder.freeze`, which validates them.
        """
        missing = [name for name, _ in cls.CONTENT_COLUMNS if name not in columns]
        if missing:
            raise ValueError(f"from_columns is missing identity columns: {missing}")
        graph = cls(
            nranks=nranks,
            labels=dict(labels or {}),
            **{name: columns[name] for name, _ in cls.CONTENT_COLUMNS},
        )
        if topo_order is not None and level_indptr is not None:
            graph._topo_order = np.asarray(topo_order, dtype=np.int64)
            graph._level_indptr = np.asarray(level_indptr, dtype=np.int64)
        if content_digest is not None:
            graph._content_digest = content_digest
        return graph

    def content_digest(self) -> str:
        """A stable sha256 hex digest of the graph's defining content.

        The digest covers ``nranks``, every column of
        :attr:`CONTENT_COLUMNS` as canonical little-endian bytes, and the
        labels in ascending vertex order, behind a versioned domain prefix.
        Because the legacy and columnar schedule-generation engines produce
        bit-identical frozen graphs (the deterministic order contract), the
        same schedule hashes identically regardless of how it was built —
        which makes the digest a sound :mod:`repro.artifacts` cache key.
        Cached after the first call (the graph is immutable).
        """
        if self._content_digest is None:
            h = hashlib.sha256()
            h.update(b"repro:execution-graph:v1\0")
            h.update(int(self.nranks).to_bytes(8, "little"))
            for name, dtype in self.CONTENT_COLUMNS:
                h.update(name.encode("ascii") + b"\0")
                # hash through the buffer protocol: a column already in
                # canonical layout (including a read-only memmap) is fed to
                # sha256 without the tobytes() copy
                column = np.ascontiguousarray(getattr(self, name), dtype=dtype)
                h.update(column.data)
            for vid in sorted(self.labels):
                h.update(int(vid).to_bytes(8, "little", signed=True))
                h.update(self.labels[vid].encode("utf-8") + b"\0")
            self._content_digest = h.hexdigest()
        return self._content_digest

    def vertices_of_rank(self, rank: int) -> np.ndarray:
        """Vertex ids that belong to ``rank``."""
        return np.flatnonzero(self.rank == rank)

    def sources(self) -> np.ndarray:
        """Vertices with no predecessors."""
        return np.flatnonzero(self.in_degrees() == 0)

    def sinks(self) -> np.ndarray:
        """Vertices with no successors."""
        return np.flatnonzero(self.out_degrees() == 0)

    # -- precomputed structural views (consumed by the LP compiler) ----------

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex as one array (no per-vertex calls)."""
        return np.diff(self._pred_indptr)

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex as one array."""
        return np.diff(self._succ_indptr)

    def merge_points(self) -> np.ndarray:
        """Vertices with two or more predecessors (LP merge variables)."""
        return np.flatnonzero(self.in_degrees() >= 2)

    def chain_parent(self) -> np.ndarray:
        """The unique predecessor of every single-predecessor vertex, else -1.

        Together with :meth:`chain_in_edge` this describes the in-forest of
        single-predecessor chain segments whose roots are the sources and
        merge points; the LP compiler path-compresses costs along it.
        """
        if self._chain_parent is None:
            self._build_chain_views()
        return self._chain_parent

    def chain_in_edge(self) -> np.ndarray:
        """Edge id of the unique incoming edge of chain vertices, else -1."""
        if self._chain_in_edge is None:
            self._build_chain_views()
        return self._chain_in_edge

    def chain_anchor(self) -> np.ndarray:
        """The root of every vertex in the :meth:`chain_parent` forest: the
        nearest source or merge point up its chain (itself for those).

        Kept from the level engine's first pass; a graph whose levels came
        with it (a pickle or a store load) computes it alone, once.
        """
        if self._chain_anchor is None:
            if self._level_indptr is None:
                self._compute_levels()
            else:
                self._chain_anchor = self._anchor_and_depth()[0]
        return self._chain_anchor

    def _build_chain_views(self) -> None:
        n = self.num_vertices
        parent = np.full(n, -1, dtype=np.int64)
        in_edge = np.full(n, -1, dtype=np.int64)
        single = np.flatnonzero(self.in_degrees() == 1)
        if single.size:
            eids = self._pred_edges[self._pred_indptr[single]]
            parent[single] = self.edge_src[eids]
            in_edge[single] = eids
        self._chain_parent = parent
        self._chain_in_edge = in_edge

    def topo_positions(self) -> np.ndarray:
        """Position of every vertex inside :meth:`topological_order` (cached)."""
        if self._topo_positions is None:
            order = self.topological_order()
            positions = np.empty(self.num_vertices, dtype=np.int64)
            positions[order] = np.arange(self.num_vertices, dtype=np.int64)
            self._topo_positions = positions
        return self._topo_positions

    # -- algorithms ----------------------------------------------------------

    def topological_order(self) -> np.ndarray:
        """Return *the* canonical topological ordering of the vertex ids (cached).

        The order follows the **deterministic order contract** shared by the
        LP compiler's variable ordering, the simulators and the symbolic
        Algorithm 1 sweep: vertices are sorted **level-major** (by longest-path
        depth, see :meth:`topo_levels`) and **vertex-id-minor** within a
        level.  It is served from the cached level structure.
        """
        if self._topo_order is None:
            self._compute_levels()
        return self._topo_order

    def topo_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """The topological *level* structure ``(indptr, order)`` (cached).

        ``order`` is :meth:`topological_order`; level ``k`` consists of the
        vertices ``order[indptr[k]:indptr[k + 1]]``, in ascending vertex id.
        Level ``k`` contains exactly the vertices whose longest incoming path
        has ``k`` edges, so all predecessors of a level-``k`` vertex live in
        levels ``< k`` — whole levels can be processed at once (the
        foundation of the level-synchronous simulation engine,
        :mod:`repro.simulator.columnar`).

        Computed once by :meth:`_compute_levels` over the chain-condensed
        DAG; a cycle raises :class:`GraphValidationError`.
        """
        if self._level_indptr is None:
            self._compute_levels()
        return self._level_indptr, self._topo_order

    def level_of(self) -> np.ndarray:
        """The topological level of every vertex as one array (cached)."""
        if self._level_of is None:
            indptr, order = self.topo_levels()
            widths = np.diff(indptr)
            level = np.empty(self.num_vertices, dtype=np.int64)
            level[order] = np.repeat(
                np.arange(len(widths), dtype=np.int64), widths
            )
            self._level_of = level
        return self._level_of

    @property
    def num_levels(self) -> int:
        """Number of topological levels (the graph's longest-path depth + 1)."""
        return len(self.topo_levels()[0]) - 1

    #: wave width below which the level relaxation leaves NumPy: each wave
    #: costs a fixed ~20 array operations, so the narrow waves of few-rank
    #: graphs are cheaper to finish with plain list arithmetic
    _LIST_WAVE_WIDTH = 32

    def _compute_levels(self) -> None:
        """Compute the level structure; raise :class:`GraphValidationError` on a cycle.

        A single-predecessor vertex sits ``depth`` levels below its
        *anchor*, the nearest source or merge point up its chain, so only
        the condensed DAG over sources and merge points needs relaxing:

        1. anchor (kept: :meth:`chain_anchor`) and depth of every vertex
           (:meth:`_anchor_and_depth`).  A contiguous id run (a rank's
           consecutive ops, ``parent == id - 1``) collapses in one pass;
           the remaining links are resolved by pointer jumping in at most
           ``n.bit_length() + 1`` rounds.  A vertex still unresolved after
           that lies on or behind a cycle of single-predecessor vertices.
        2. Kahn relaxation over the condensed edges, one per merge in-edge
           (``anchor(src) -> merge``, weight ``depth(src) + 1``).  Waves are
           processed in NumPy until one is narrower than
           :attr:`_LIST_WAVE_WIDTH`; the rest runs in list space.  A merge
           point left undrained lies on or behind a cycle.
        3. ``level = level[anchor] + depth`` and one stable sort, which
           yields the level-major, vertex-id-minor order.
        """
        n = self.num_vertices
        indeg = self.in_degrees()
        anchor, depth = self._anchor_and_depth()
        self._chain_anchor = anchor

        level = np.zeros(n, dtype=np.int64)
        is_merge = indeg >= 2
        into_merge = is_merge[self.edge_dst]
        if into_merge.any():
            src = self.edge_src[into_merge]
            tail = anchor[src]
            by_tail = np.argsort(tail, kind="stable")
            target = self.edge_dst[into_merge][by_tail]
            weight = (depth[src] + 1)[by_tail]
            out_indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(tail, minlength=n), out=out_indptr[1:])
            remaining = indeg.copy()
            slot = np.empty(n, dtype=np.int64)
            wave = np.flatnonzero(indeg == 0)
            settled = 0
            while wave.size >= self._LIST_WAVE_WIDTH:
                starts = out_indptr[wave]
                counts = out_indptr[wave + 1] - starts
                pos = np.repeat(starts - np.cumsum(counts) + counts, counts)
                pos += np.arange(len(pos), dtype=np.int64)
                hit = target[pos]
                np.maximum.at(level, hit, np.repeat(level[wave], counts) + weight[pos])
                np.subtract.at(remaining, hit, 1)
                hit = hit[remaining[hit] == 0]
                # one copy of each drained merge point: exactly one
                # duplicate's write to ``slot`` lands, whichever it is
                rows = np.arange(len(hit), dtype=np.int64)
                slot[hit] = rows
                wave = hit[slot[hit] == rows]
                settled += len(wave)
            if wave.size:
                level_list = level.tolist()
                remaining_list = remaining.tolist()
                bounds = out_indptr.tolist()
                targets = target.tolist()
                weights = weight.tolist()
                wave_list = wave.tolist()
                while wave_list:
                    drained = []
                    for v in wave_list:
                        base_level = level_list[v]
                        for at in range(bounds[v], bounds[v + 1]):
                            u = targets[at]
                            reach = base_level + weights[at]
                            if reach > level_list[u]:
                                level_list[u] = reach
                            remaining_list[u] -= 1
                            if not remaining_list[u]:
                                drained.append(u)
                    settled += len(drained)
                    wave_list = drained
                level = np.asarray(level_list, dtype=np.int64)
            merges = int(np.count_nonzero(is_merge))
            if settled != merges:
                raise GraphValidationError(
                    f"graph contains a cycle: only {settled} of {merges} "
                    "merge points were levelled"
                )

        level = level[anchor] + depth
        widths = np.bincount(level)
        indptr = np.zeros(len(widths) + 1, dtype=np.int64)
        np.cumsum(widths, out=indptr[1:])
        self._topo_order = np.argsort(level, kind="stable")
        self._level_indptr = indptr

    def _anchor_and_depth(self) -> tuple[np.ndarray, np.ndarray]:
        """Step 1 of :meth:`_compute_levels`: the chain anchor of every
        vertex and its distance below it; raise on a chain cycle."""
        n = self.num_vertices
        parent = self.chain_parent()
        is_chain = self.in_degrees() == 1
        ids = np.arange(n, dtype=np.int64)
        anchor = np.where(is_chain, parent, ids)
        depth = is_chain.astype(np.int64)
        run = is_chain & (parent == ids - 1)
        if run.any():
            base = np.maximum.accumulate(np.where(run, np.int64(-1), ids))
            anchor = np.where(run, base, anchor)
            depth = np.where(run, ids - base, depth)
        active = np.flatnonzero(is_chain[anchor])
        for _ in range(n.bit_length() + 1):
            if not active.size:
                break
            up = anchor[active]
            depth[active] += depth[up]
            anchor[active] = anchor[up]
            active = active[is_chain[anchor[active]]]
        if active.size:
            raise GraphValidationError(
                f"graph contains a cycle: {active.size} single-predecessor "
                "vertices never reach a source or merge point"
            )
        return anchor, depth

    def validate(self) -> None:
        """Check structural invariants; raise :class:`GraphValidationError` otherwise.

        All checks run vectorised over the vertex/edge columns — there is no
        per-edge Python loop, so validating a trace-scale graph costs a few
        array passes plus the (cached) topological sort.
        """
        n = self.num_vertices
        if n == 0:
            raise GraphValidationError("execution graph has no vertices")
        if np.any((self.rank < 0) | (self.rank >= self.nranks)):
            raise GraphValidationError("vertex with rank outside [0, nranks)")
        if np.any(self.cost < 0):
            raise GraphValidationError("vertex with negative cost")
        if self._num_edges:
            if np.any((self.edge_src < 0) | (self.edge_src >= n)):
                raise GraphValidationError("edge source out of range")
            if np.any((self.edge_dst < 0) | (self.edge_dst >= n)):
                raise GraphValidationError("edge destination out of range")
        # communication edges must connect SEND -> RECV across matching ranks
        comm = self.edge_kind == EdgeKind.COMM
        comm_ids = np.flatnonzero(comm)
        if comm_ids.size:
            src = self.edge_src[comm_ids]
            dst = self.edge_dst[comm_ids]
            bad_src = self.kind[src] != int(VertexKind.SEND)
            bad_dst = self.kind[dst] != int(VertexKind.RECV)
            bad_peer = (self.peer[src] != self.rank[dst]) | (
                self.peer[dst] != self.rank[src]
            )
            bad_size = self.size[src] != self.size[dst]
            bad_any = bad_src | bad_dst | bad_peer | bad_size
            if np.any(bad_any):
                at = int(np.argmax(bad_any))
                eid, s, d = int(comm_ids[at]), int(src[at]), int(dst[at])
                if bad_src[at]:
                    raise GraphValidationError(f"comm edge {eid} source {s} is not SEND")
                if bad_dst[at]:
                    raise GraphValidationError(f"comm edge {eid} target {d} is not RECV")
                if bad_peer[at]:
                    raise GraphValidationError(
                        f"comm edge {eid}: peer/rank mismatch between send {s} and recv {d}"
                    )
                raise GraphValidationError(
                    f"comm edge {eid}: size mismatch ({int(self.size[s])} != {int(self.size[d])})"
                )
        # every SEND/RECV must participate in exactly one comm edge
        send_count = np.zeros(n, dtype=np.int64)
        recv_count = np.zeros(n, dtype=np.int64)
        np.add.at(send_count, self.edge_src[comm], 1)
        np.add.at(recv_count, self.edge_dst[comm], 1)
        sends = np.flatnonzero(self.kind == VertexKind.SEND)
        recvs = np.flatnonzero(self.kind == VertexKind.RECV)
        if np.any(send_count[sends] != 1):
            bad = sends[send_count[sends] != 1]
            raise GraphValidationError(f"unmatched SEND vertices: {bad[:10].tolist()}")
        if np.any(recv_count[recvs] != 1):
            bad = recvs[recv_count[recvs] != 1]
            raise GraphValidationError(f"unmatched RECV vertices: {bad[:10].tolist()}")
        # acyclicity (computes and caches the topological order)
        self.topological_order()

    def message_edges(self) -> np.ndarray:
        """Edge indices of all communication edges."""
        return np.flatnonzero(self.edge_kind == EdgeKind.COMM)

    def longest_message_chain(self) -> int:
        """Length (in messages) of the longest chain of dependent messages.

        This bounds the latency sensitivity ``λ_L`` (Equation 3 of the
        paper): no path can cross more communication edges than this.
        """
        n = self.num_vertices
        if not n:
            return 0
        depth = [0] * n
        indptr = self._pred_indptr.tolist()
        pred_edges = self._pred_edges.tolist()
        edge_src = self.edge_src.tolist()
        is_comm = (self.edge_kind == EdgeKind.COMM).tolist()
        for v in self.topological_order().tolist():
            start, stop = indptr[v], indptr[v + 1]
            best = 0
            for pos in range(start, stop):
                eid = pred_edges[pos]
                candidate = depth[edge_src[eid]] + (1 if is_comm[eid] else 0)
                if candidate > best:
                    best = candidate
            depth[v] = best
        return max(depth)

    # -- export --------------------------------------------------------------

    def to_networkx(self):
        """Export to a :class:`networkx.DiGraph` (vertex/edge attributes preserved)."""
        import networkx as nx

        g = nx.DiGraph(nranks=self.nranks)
        for vid in range(self.num_vertices):
            g.add_node(
                vid,
                kind=VertexKind(int(self.kind[vid])).name,
                rank=int(self.rank[vid]),
                cost=float(self.cost[vid]),
                size=int(self.size[vid]),
                peer=int(self.peer[vid]),
                tag=int(self.tag[vid]),
                label=self.labels.get(vid, ""),
            )
        for src, dst, ekind in self.edges():
            g.add_edge(src, dst, kind=ekind.name)
        return g

    def stats(self) -> dict[str, int]:
        """Vertex/edge counts by type, used in reports and tests."""
        return {
            "vertices": self.num_vertices,
            "edges": self.num_edges,
            "calc": int(np.count_nonzero(self.kind == VertexKind.CALC)),
            "send": int(np.count_nonzero(self.kind == VertexKind.SEND)),
            "recv": int(np.count_nonzero(self.kind == VertexKind.RECV)),
            "comm_edges": self.num_messages,
            "dep_edges": self.num_edges - self.num_messages,
            "nranks": self.nranks,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"ExecutionGraph(nranks={self.nranks}, vertices={s['vertices']}, "
            f"messages={s['comm_edges']})"
        )


def _build_csr(
    src: np.ndarray, dst: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build a CSR adjacency (indptr, indices, edge ids) keyed by ``src``."""
    m = len(src)
    indptr = np.zeros(n + 1, dtype=np.int64)
    if m == 0:
        return indptr, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    counts = np.bincount(src, minlength=n)
    indptr[1:] = np.cumsum(counts)
    order = np.argsort(src, kind="stable")
    indices = dst[order].astype(np.int64, copy=False)
    edge_ids = order.astype(np.int64, copy=False)
    return indptr, indices, edge_ids
