"""The level-synchronous LogGOPS engine: one run, a ΔL sweep and an
injector × ΔL grid are each one call of :func:`_run`.

The per-vertex oracle (:class:`repro.testing.LogGOPSSimulator`) walks the
execution graph one vertex at a time.  This engine processes whole
*topological levels* at once (:meth:`~repro.schedgen.graph.ExecutionGraph.
topo_levels`): every predecessor of a level-``k`` vertex lives in a level
``< k``, so one level's ready times, releases, noise draws, send starts and
completion times are array passes, and every row of a grid advances in the
same pass.

**Rows.**  A row is one run: one injector (its ``delta`` and where it
``enters``, see :mod:`repro.simulator.injector`) and, optionally, its own
per-pair latency matrix.  Rows sit on the trailing axis of the state —
``(n,)`` for one row, ``(n, R)`` for a grid — so every gather is plain
axis-0 indexing.  From the declarations the engine builds three per-row
arrays: the wire ΔL, the send ΔL, and the progress rows with their ΔL.

Per level the engine performs

* a segmented maximum of the predecessor contributions over the level's
  slice of the (level-major) edge permutation: ``end(u)`` for a dependency
  edge, ``end(u) + (L + (s-1)·G) + wire ΔL`` for a communication edge (the
  wire ΔL is added last, one float order for every row); in a progress row
  the level's messages then pass one FIFO queue per receiving rank,
  ``release = max(arrival, busy) + ΔL``;
* one noise draw (``perturb_many``) for the level's computations, shared by
  every row (each run re-seeds the model, so every row draws the same);
* per-rank NIC-gap tracking for the level's sends (``start = max(ready,
  nic_free)``, the NIC busy until ``start + g``), serialised per rank in
  vertex-id order when one rank posts several sends in one level; a send
  ends at ``start + o + send ΔL``.

**Determinism contract.**  Messages, noise draws and NIC acquisitions come
in the *shared deterministic order* — level-major, vertex-id-minor, edge id
within one vertex: the canonical
:meth:`~repro.schedgen.graph.ExecutionGraph.topological_order`.  The oracle
walks the same order, so the engine is timestamp-identical to it (to 1e-9),
and a one-row call equals row ``k`` of a ``K``-row grid bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..network.params import LogGPSParams
from ..schedgen.graph import EdgeKind, ExecutionGraph, VertexKind
from .injector import ENTRY_POINTS, checked_deltas, make_injector
from .noise import NoiseModel, NoNoise

__all__ = [
    "GridSimulationResult",
    "SweepSimulationResult",
    "simulate_sweep",
    "simulate_sweep_grid",
    "get_level_plan",
]


# ---------------------------------------------------------------------------
# level plan: everything about (graph, params) the per-level loop needs
# ---------------------------------------------------------------------------


class _LevelPlan:
    """Precomputed level-major views of one graph under one configuration.

    All vertex quantities live in *position space* (index into the canonical
    topological order) so each level is one contiguous slice; all edge
    quantities live in the level-major edge permutation (edges sorted by
    destination position, stably — i.e. by (level, vertex id, edge id), the
    shared deterministic order).
    """

    __slots__ = (
        "order", "vptr", "vcost",
        "e_src_pos", "e_cost", "e_comm", "e_dst_rank", "eptr",
        "e_pair", "e_bw",
        "seg_starts", "seg_pos", "sptr",
        "comm_idx", "comm_ptr",
        "send_pos", "send_rank", "send_ptr", "send_dup",
        "calc_pos", "calc_cost", "calc_ptr",
        "last_pos", "last_rank",
        "reuse_count",
    )

    def __init__(self, graph: ExecutionGraph, params: LogGPSParams) -> None:
        self.reuse_count = 0
        vptr, order = graph.topo_levels()
        pos_of = graph.topo_positions()
        self.order = order
        self.vptr = vptr

        kind_o = graph.kind[order]
        rank_o = graph.rank[order].astype(np.int64, copy=False)
        calc_o = kind_o == int(VertexKind.CALC)
        cost_o = graph.cost[order]
        self.vcost = np.where(calc_o, cost_o, params.o)

        pe = graph._pred_edges
        if len(pe):
            dst = graph.edge_dst[pe]
            dst_pos = pos_of[dst]
            eorder = np.argsort(dst_pos, kind="stable")
            eids = pe[eorder]
            e_dst_pos = dst_pos[eorder]
            e_dst = graph.edge_dst[eids]
            self.e_src_pos = pos_of[graph.edge_src[eids]]
            e_comm = graph.edge_kind[eids] == int(EdgeKind.COMM)
            self.e_comm = e_comm
            self.e_cost = np.where(
                e_comm,
                params.L + np.maximum(graph.size[e_dst] - 1, 0) * params.G,
                0.0,
            )
            self.e_dst_rank = graph.rank[e_dst].astype(np.int64, copy=False)
            # per-pair HLogGP support: directed (src, dst) rank pair code and
            # the bandwidth byte factor of every edge, so a per-pair latency
            # matrix can be gathered per level without touching the graph
            e_src_rank = graph.rank[graph.edge_src[eids]].astype(np.int64, copy=False)
            self.e_pair = e_src_rank * graph.nranks + self.e_dst_rank
            self.e_bw = np.maximum(graph.size[e_dst] - 1, 0)
            seg_first = np.empty(len(eids), dtype=bool)
            seg_first[0] = True
            np.not_equal(e_dst_pos[1:], e_dst_pos[:-1], out=seg_first[1:])
            self.seg_starts = np.flatnonzero(seg_first)
            self.seg_pos = e_dst_pos[self.seg_starts]
            self.comm_idx = np.flatnonzero(e_comm)
        else:
            e_dst_pos = np.empty(0, dtype=np.int64)
            self.e_src_pos = np.empty(0, dtype=np.int64)
            self.e_comm = np.empty(0, dtype=bool)
            self.e_cost = np.empty(0, dtype=np.float64)
            self.e_dst_rank = np.empty(0, dtype=np.int64)
            self.e_pair = np.empty(0, dtype=np.int64)
            self.e_bw = np.empty(0, dtype=np.int64)
            self.seg_starts = np.empty(0, dtype=np.int64)
            self.seg_pos = np.empty(0, dtype=np.int64)
            self.comm_idx = np.empty(0, dtype=np.int64)
        self.eptr = np.searchsorted(e_dst_pos, vptr)
        self.sptr = np.searchsorted(self.seg_pos, vptr)
        self.comm_ptr = np.searchsorted(self.comm_idx, self.eptr)

        num_levels = len(vptr) - 1
        send_pos = np.flatnonzero(kind_o == int(VertexKind.SEND))
        self.send_pos = send_pos
        self.send_rank = rank_o[send_pos]
        self.send_ptr = np.searchsorted(send_pos, vptr)
        self.send_dup = np.zeros(num_levels, dtype=bool)
        if len(send_pos) > 1:
            lvl = np.searchsorted(vptr, send_pos, side="right") - 1
            key = np.sort(lvl * graph.nranks + self.send_rank)
            repeated = key[1:][key[1:] == key[:-1]]
            if repeated.size:
                self.send_dup[np.unique(repeated // graph.nranks)] = True

        self.calc_pos = np.flatnonzero(calc_o)
        self.calc_cost = cost_o[self.calc_pos]
        self.calc_ptr = np.searchsorted(self.calc_pos, vptr)

        # a vertex ends no earlier than any of its predecessors (every cost
        # and ΔL is non-negative), so each rank finishes at one of its
        # vertices without a successor on the same rank
        same_rank = graph.rank[graph.edge_src] == graph.rank[graph.edge_dst]
        has_next = np.zeros(graph.num_vertices, dtype=bool)
        has_next[graph.edge_src[same_rank]] = True
        self.last_pos = np.flatnonzero(~has_next[order])
        self.last_rank = rank_o[self.last_pos]

    def rank_finish(self, end: np.ndarray, nranks: int) -> np.ndarray:
        """Each rank's finish time (``(nranks,) + end.shape[1:]``) from the
        per-position completion times ``end``."""
        out = np.zeros((nranks,) + end.shape[1:])
        np.maximum.at(out, self.last_rank, end[self.last_pos])
        return out

    def by_vertex(self, values: np.ndarray) -> np.ndarray:
        """Per-position ``values`` indexed by vertex id instead."""
        out = np.empty_like(values)
        out[self.order] = values
        return out


#: level plans retained per graph; a plan is a few arrays of the graph's own
#: size, so a handful of parameter configurations is plenty (FIFO eviction)
_LEVEL_PLAN_CACHE_SIZE = 4


def get_level_plan(graph: ExecutionGraph, params: LogGPSParams) -> _LevelPlan:
    """The :class:`_LevelPlan` of ``(graph, params)``, cached on the graph.

    The plan depends only on the immutable graph and the parameter set
    (every ΔL enters per row, in the level loop), and the engine reads it
    without mutation — so repeated simulations of the same configuration (e.g. the repetition
    loop of :func:`repro.analysis.validation.run_validation_sweep`, where
    only the noise seed changes between runs) share one plan instead of
    rebuilding it per run.  Keyed by ``params.content_digest()``; a cache
    hit increments ``plan.reuse_count``.
    """
    cache = graph._level_plan_cache
    key = params.content_digest()
    plan = cache.get(key)
    if plan is None:
        plan = _LevelPlan(graph, params)
        if len(cache) >= _LEVEL_PLAN_CACHE_SIZE:
            cache.pop(next(iter(cache)))
        cache[key] = plan
    else:
        plan.reuse_count += 1
    return plan


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


def _rows(injectors) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(wire, send, progress, progress_delta)``: each row's wire and send
    ΔL, and the rows whose ΔL goes through a progress queue, with that ΔL."""
    enters = [getattr(injector, "enters", None) for injector in injectors]
    for injector, where in zip(injectors, enters):
        if where not in ENTRY_POINTS:
            raise TypeError(
                f"{type(injector).__name__} declares no ΔL entry point: "
                f"an injector needs enters in {ENTRY_POINTS}"
            )
    deltas = checked_deltas([injector.delta for injector in injectors])
    enters = np.array(enters)
    progress = np.flatnonzero(enters == "progress")
    return (
        np.where(enters == "wire", deltas, 0.0),
        np.where(enters == "send", deltas, 0.0),
        progress,
        deltas[progress],
    )


def _run(
    graph: ExecutionGraph,
    params: LogGPSParams,
    injectors,
    noise: NoiseModel,
    *,
    latency: np.ndarray | None = None,
    track_nic: bool = True,
    keep_start: bool = False,
) -> tuple[np.ndarray, np.ndarray | None, _LevelPlan]:
    """Simulate one row per injector; returns ``(end, start, plan)``.

    ``end`` and ``start`` (``None`` unless ``keep_start``) are indexed by
    topological position (``plan.by_vertex`` maps them back) and have shape
    ``(n,)`` for one row, ``(n, R)`` for ``R`` rows.  ``latency`` (``(R,
    nranks, nranks)``) replaces ``params.L`` per row and rank pair (entry
    ``[src, dst]`` for a ``src → dst`` message).  ``track_nic=False`` drops
    the NIC-gap resource (a send starts at its ready time): the semantics
    of the forward pass and of the LP of Algorithm 1.
    """
    if not hasattr(noise, "perturb_many"):
        raise TypeError(
            f"{type(noise).__name__} has no perturb_many(durations): a noise "
            f"model perturbs one level's computations per call"
        )
    wire, send, prog, prog_delta = _rows(injectors)
    R, nranks = len(wire), graph.nranks
    tail = (R,) if R > 1 else ()

    def col(a: np.ndarray) -> np.ndarray:  # a per-edge/per-vertex operand
        return a[:, None] if R > 1 else a

    plan = get_level_plan(graph, params)
    e_cost, e_comm, vcost = col(plan.e_cost), col(plan.e_comm), col(plan.vcost)
    if latency is not None:
        latency = np.ascontiguousarray(latency.reshape(R, -1).T).reshape((-1,) + tail)
        e_bw = col(plan.e_bw)
    prog_all = len(prog) == R
    busy = np.zeros((nranks,) + (tail if prog_all else (len(prog),)))
    wired, sent = bool(wire.any()), bool(send.any())
    noisy = not isinstance(noise, NoNoise)
    noise.reset()

    end = np.zeros((graph.num_vertices,) + tail)
    start = np.zeros_like(end) if keep_start else None
    nic_free = np.zeros((nranks,) + tail)
    o, g, G = params.o, params.g, params.G
    # the level bounds as Python ints: scalar reads and slices stay cheap
    vptr, eptr, sptr, comm_ptr, calc_ptr, send_ptr, send_dup = (
        a.tolist() for a in (plan.vptr, plan.eptr, plan.sptr, plan.comm_ptr,
                             plan.calc_ptr, plan.send_ptr, plan.send_dup)
    )
    e_src_pos, seg_starts, seg_pos = plan.e_src_pos, plan.seg_starts, plan.seg_pos
    send_pos, send_rank = plan.send_pos, plan.send_rank
    for k in range(len(vptr) - 1):
        p0, p1 = vptr[k], vptr[k + 1]
        e0, e1 = eptr[k], eptr[k + 1]
        if e1 > e0:
            if latency is None:
                cost = e_cost[e0:e1]
            else:  # the float expression (L + bw·G) of the plan's e_cost
                pair_latency = latency[plan.e_pair[e0:e1]]
                cost = np.where(e_comm[e0:e1], pair_latency + e_bw[e0:e1] * G, 0.0)
            contrib = end[e_src_pos[e0:e1]] + cost
            messages = comm_ptr[k + 1] > comm_ptr[k]
            if wired and messages:
                np.add(contrib, wire, out=contrib, where=e_comm[e0:e1])
            if len(prog) and messages:
                idx = plan.comm_idx[comm_ptr[k]:comm_ptr[k + 1]]
                sub = idx - e0 if prog_all else np.ix_(idx - e0, prog)
                contrib[sub] = _fifo(
                    contrib[sub], plan.e_dst_rank[idx], busy, prog_delta, release=True
                )
            s0, s1 = sptr[k], sptr[k + 1]
            ready = np.maximum.reduceat(contrib, seg_starts[s0:s1] - e0)
            if s1 - s0 < p1 - p0:
                ready, seg_ready = np.zeros((p1 - p0,) + tail), ready
                ready[seg_pos[s0:s1] - p0] = seg_ready
        else:
            ready = np.zeros((p1 - p0,) + tail)

        end_lvl = ready + vcost[p0:p1]
        if noisy and calc_ptr[k + 1] > calc_ptr[k]:
            c0, c1 = calc_ptr[k], calc_ptr[k + 1]
            rel = plan.calc_pos[c0:c1] - p0
            end_lvl[rel] = ready[rel] + col(noise.perturb_many(plan.calc_cost[c0:c1]))
        if keep_start:
            start[p0:p1] = ready

        s0, s1 = send_ptr[k], send_ptr[k + 1]
        if s1 > s0:
            rel = send_pos[s0:s1] - p0
            ranks = send_rank[s0:s1]
            st = ready[rel]
            if track_nic and send_dup[k]:
                st = _fifo(st, ranks, nic_free, g, release=False)
            elif track_nic:
                st = np.maximum(st, nic_free[ranks])
                nic_free[ranks] = st + g
            if keep_start:
                start[p0 + rel] = st
            end_lvl[rel] = st + o + send if sent else st + o
        end[p0:p1] = end_lvl
    return end, start, plan


def _fifo(
    times: np.ndarray, ranks: np.ndarray, busy: np.ndarray, hold, *, release: bool
) -> np.ndarray:
    """Serve one level's entries FIFO per rank, in input order.

    Each entry starts at ``max(time, busy[rank])`` and holds its rank until
    ``start + hold``; it returns that release time (a progress queue,
    ``release=True``) or its start (a NIC, where ``hold`` is the gap ``g``).
    The ``j``-th entry of every rank is served in one array step; ``busy``
    is updated in place.
    """
    order = np.argsort(ranks, kind="stable")
    sorted_ranks = ranks[order]
    first = np.empty(len(order), dtype=bool)
    first[0] = True
    np.not_equal(sorted_ranks[1:], sorted_ranks[:-1], out=first[1:])
    group_starts = np.flatnonzero(first)
    group_ranks = sorted_ranks[group_starts]
    counts = np.diff(np.append(group_starts, len(order)))
    local = busy[group_ranks]
    out = np.empty_like(times)
    for j in range(int(counts.max())):
        active = counts > j
        idx = order[group_starts[active] + j]
        t = np.maximum(times[idx], local[active])
        done = t + hold
        local[active] = done
        out[idx] = done if release else t
    busy[group_ranks] = local
    return out


# ---------------------------------------------------------------------------
# ΔL sweeps and (injector × ΔL) grids
# ---------------------------------------------------------------------------


@dataclass
class SweepSimulationResult:
    """Outcome of one batched ΔL sweep: one simulated run per sweep point."""

    deltas: np.ndarray
    makespan: np.ndarray          # (K,)
    rank_finish: np.ndarray       # (K, nranks)
    params: LogGPSParams
    injector: str

    @property
    def runtimes(self) -> np.ndarray:
        """Alias for :attr:`makespan` (microseconds, one entry per ΔL)."""
        return self.makespan


def simulate_sweep(
    graph: ExecutionGraph,
    params: LogGPSParams,
    deltas,
    *,
    injector: str = "ideal",
    noise: NoiseModel | None = None,
) -> SweepSimulationResult:
    """Simulate every ΔL point of a sweep in one level-synchronous pass.

    Equivalent to ``[simulate(graph, params, injector=make_injector(name,
    d), noise=noise) for d in deltas]`` (the noise model is re-seeded per
    sweep point exactly as per-point runs would), but each topological
    level advances *all* points at once, so the sweep costs one graph
    traversal instead of ``len(deltas)``.

    ``injector`` is one of :data:`~repro.simulator.injector.INJECTOR_NAMES`.
    """
    grid = simulate_sweep_grid(graph, params, deltas, injectors=(injector,), noise=noise)
    return grid.sweep(injector)


@dataclass
class GridSimulationResult:
    """Outcome of one 2-D ``(injector × ΔL)`` grid simulation.

    Row ``(i, k)`` is the run of injector ``injectors[i]`` at ``deltas[k]``;
    every row of the grid is advanced in the *same* level pass, so a whole
    Fig. 8-style figure costs one graph traversal.  :meth:`sweep` slices one
    injector back out as a plain :class:`SweepSimulationResult`.
    """

    injectors: tuple[str, ...]
    deltas: np.ndarray            # (K,)
    makespan: np.ndarray          # (I, K)
    rank_finish: np.ndarray       # (I, K, nranks)
    params: LogGPSParams

    @property
    def runtimes(self) -> np.ndarray:
        """Alias for :attr:`makespan` (microseconds, ``(I, K)``)."""
        return self.makespan

    def sweep(self, injector: str) -> SweepSimulationResult:
        """The 1-D ΔL sweep of one injector, as :func:`simulate_sweep` returns it."""
        i = self.injectors.index(injector)
        return SweepSimulationResult(
            deltas=self.deltas,
            makespan=self.makespan[i],
            rank_finish=self.rank_finish[i],
            params=self.params,
            injector=injector,
        )


def simulate_sweep_grid(
    graph: ExecutionGraph,
    params: LogGPSParams,
    deltas,
    *,
    injectors=("ideal",),
    noise: NoiseModel | None = None,
    latency_matrices=None,
) -> GridSimulationResult:
    """Simulate a whole ``(injector × ΔL)`` grid in one level-synchronous pass.

    Row ``r = i·K + k`` runs injector ``injectors[i]`` at ``deltas[k]``, bit
    for bit as a one-row call would, but all ``I × K`` rows advance
    together: Fig. 8 (four injectors over one ΔL axis) costs a single graph
    traversal instead of four.

    ``latency_matrices`` folds per-pair HLogGP base latencies into the same
    pass: a ``(nranks, nranks)`` matrix replaces the scalar ``params.L`` of
    every communication edge (entry ``[src, dst]`` for a ``src → dst``
    message), and a ``(K, nranks, nranks)`` stack gives sweep point ``k`` its
    own matrix — which turns the Fig. 11 topology comparison into one
    traversal with ΔL = 0 and one topology per sweep point.
    """
    deltas = checked_deltas(list(deltas)).ravel()
    names = tuple(injectors)
    kinds = [type(make_injector(name, 0.0)) for name in names]
    rows = [kind(float(d)) for kind in kinds for d in deltas]
    I, K, R, P = len(names), len(deltas), len(rows), graph.nranks
    latency = None
    if latency_matrices is not None:
        latency = np.asarray(latency_matrices, dtype=np.float64)
        if latency.shape == (P, P):
            latency = np.broadcast_to(latency, (K, P, P))
        elif latency.shape != (K, P, P):
            raise ValueError(
                "latency_matrices must have shape (nranks, nranks) or "
                f"(K, nranks, nranks); got {latency.shape}"
            )
        if not np.all((0 <= latency) & (latency < math.inf)):
            raise ValueError("latency_matrices entries must be finite and non-negative")
        latency = np.tile(latency.reshape(K, P * P), (I, 1))
    rank_finish = np.zeros((P, R))
    if R:
        end, _, plan = _run(
            graph, params, rows, noise if noise is not None else NoNoise(), latency=latency
        )
        rank_finish = plan.rank_finish(end.reshape(-1, R), P)
    return GridSimulationResult(
        injectors=names,
        deltas=deltas,
        makespan=rank_finish.max(axis=0).reshape(I, K),
        rank_finish=rank_finish.T.reshape(I, K, P),
        params=params,
    )
