"""Level-synchronous vectorised LogGOPS simulation engine.

The reference simulator (:class:`repro.testing.LogGOPSSimulator`) walks the
execution graph one vertex at a time; on trace-scale graphs that pure-Python
loop would be the last op-by-op stage of the pipeline.  This engine, the one
behind :func:`repro.simulator.simulate`, processes whole
*topological levels* at once (:meth:`~repro.schedgen.graph.ExecutionGraph.
topo_levels`): every predecessor of a level-``k`` vertex lives in a level
``< k``, so one level's ready times, injector releases, noise draws, send
starts and completion times are all computable as array passes.

Per level the engine performs

* a segmented maximum of the predecessor contributions over the level's
  slice of the (level-major) edge permutation — ``end(u)`` for dependency
  edges, ``release(end(u) + L + (s-1)·G)`` for communication edges;
* one batch injector call (``release_times``) for the level's messages and
  one batch noise draw (``perturb_many``) for its computations;
* per-rank NIC-gap tracking for the level's sends (``start = max(ready,
  nic_free)``, the NIC busy until ``start + g``), serialised per rank in
  vertex-id order when one rank posts several sends in the same level.

**Determinism contract.**  Both engines present messages, noise draws and
NIC acquisitions in the *shared deterministic order*: level-major,
vertex-id-minor, edge-id within one vertex — the canonical
:meth:`~repro.schedgen.graph.ExecutionGraph.topological_order`.  Stateful
injectors serve their queue FIFO in that order and NumPy ``Generator``
draws are stream-equivalent between scalar and vectorised calls, so the
level engine is timestamp-identical (to 1e-9 and usually bit-exact) to the
reference walk for every injector × noise combination.

:func:`simulate_sweep` stacks a whole ΔL sweep into one run: every level is
advanced for all sweep points in a single 2-D array pass, which turns the
Table I / Fig. 12 re-simulation sweeps into one vectorised traversal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..network.params import LogGPSParams
from ..schedgen.graph import EdgeKind, ExecutionGraph, VertexKind
from .injector import INJECTOR_NAMES, LatencyInjector, group_by_rank
from .noise import NoiseModel, NoNoise

__all__ = [
    "GridSimulationResult",
    "SweepSimulationResult",
    "simulate_level",
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


#: level plans retained per graph; a plan is a few arrays of the graph's own
#: size, so a handful of parameter configurations is plenty (FIFO eviction)
_LEVEL_PLAN_CACHE_SIZE = 4


def get_level_plan(graph: ExecutionGraph, params: LogGPSParams) -> _LevelPlan:
    """The :class:`_LevelPlan` of ``(graph, params)``, cached on the graph.

    The plan depends only on the immutable graph and the parameter set
    (injector deltas are folded in later, on copies), and both the scalar
    level engine and the batched sweep read it without mutation — so
    repeated simulations of the same configuration (e.g. the repetition
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
# protocol adapters (scalar-only third-party injectors / noise models)
# ---------------------------------------------------------------------------


def _release_times(injector, dst_ranks: np.ndarray, arrivals: np.ndarray) -> np.ndarray:
    batch = getattr(injector, "release_times", None)
    if batch is not None:
        return np.asarray(batch(dst_ranks, arrivals), dtype=np.float64)
    return np.array(
        [injector.release_time(int(r), float(a)) for r, a in zip(dst_ranks, arrivals)],
        dtype=np.float64,
    )


def _send_extra_delays(injector, src_ranks: np.ndarray) -> np.ndarray:
    batch = getattr(injector, "send_extra_delays", None)
    if batch is not None:
        return np.asarray(batch(src_ranks), dtype=np.float64)
    return np.array(
        [injector.send_extra_delay(int(r)) for r in src_ranks], dtype=np.float64
    )


def _perturb_many(noise, durations: np.ndarray) -> np.ndarray:
    batch = getattr(noise, "perturb_many", None)
    if batch is not None:
        return np.asarray(batch(durations), dtype=np.float64)
    return np.array([noise.perturb(float(d)) for d in durations], dtype=np.float64)


def _grouped_send_starts(
    ready_send: np.ndarray, ranks: np.ndarray, nic_free: np.ndarray, g: float
) -> np.ndarray:
    """Send starts when one rank posts several sends in a single level.

    Serialises per rank in presentation (vertex-id) order: ``start_j =
    max(ready_j, nic_free)`` with the NIC busy until ``start_j + g`` —
    the same recurrence the legacy per-vertex walk applies.  ``nic_free``
    (indexed by rank, possibly 2-D with a leading sweep axis) is updated
    in place.
    """
    order, group_starts, group_ranks, counts = group_by_rank(ranks)
    busy = nic_free[..., group_ranks].copy()
    starts = np.empty_like(ready_send)
    for j in range(int(counts.max())):
        active = counts > j
        idx = order[group_starts[active] + j]
        st = np.maximum(ready_send[..., idx], busy[..., active])
        busy[..., active] = st + g
        starts[..., idx] = st
    nic_free[..., group_ranks] = busy
    return starts


# ---------------------------------------------------------------------------
# scalar level engine
# ---------------------------------------------------------------------------


def simulate_level(
    graph: ExecutionGraph,
    params: LogGPSParams,
    injector: LatencyInjector,
    noise: NoiseModel,
    *,
    track_nic: bool = True,
):
    """One simulation run on the level-synchronous engine.

    Timestamp-identical to the per-vertex reference walk
    (:class:`repro.testing.LogGOPSSimulator`) for every injector/noise
    combination (see the module docstring for
    the shared determinism contract).  ``track_nic=False`` drops the
    per-rank NIC-gap resource entirely (a send starts at its ready time),
    which is the semantics of the conventional forward pass
    (:func:`repro.core.graph_analysis.forward_pass`) and of the LP of
    Algorithm 1.
    """
    from .loggops import SimulationResult

    injector.reset()
    noise.reset()
    n = graph.num_vertices
    if n == 0:
        zeros = np.zeros(0, dtype=np.float64)
        return SimulationResult(
            makespan=0.0, start=zeros, end=zeros,
            rank_finish=np.zeros(graph.nranks), params=params,
        )
    plan = get_level_plan(graph, params)

    # injectors that declare a ``wire_delta`` are stateless: the wire-side
    # delay folds into the edge costs and the send-side extra is
    # position-independent, so the per-level injector calls disappear
    wire_delta = getattr(injector, "wire_delta", None)
    stateless = wire_delta is not None
    e_cost = plan.e_cost
    if stateless and wire_delta:
        e_cost = e_cost + np.where(plan.e_comm, float(wire_delta), 0.0)
    send_extra_all = (
        _send_extra_delays(injector, plan.send_rank) if stateless else None
    )
    noise_active = not isinstance(noise, NoNoise)

    end_pos = np.zeros(n, dtype=np.float64)
    start_pos = np.zeros(n, dtype=np.float64)
    nic_free = np.zeros(graph.nranks, dtype=np.float64)
    o, g = params.o, params.g
    vptr, eptr, sptr = plan.vptr, plan.eptr, plan.sptr

    for k in range(len(vptr) - 1):
        p0, p1 = vptr[k], vptr[k + 1]
        e0, e1 = eptr[k], eptr[k + 1]
        width = p1 - p0
        if e1 > e0:
            contrib = end_pos[plan.e_src_pos[e0:e1]] + e_cost[e0:e1]
            if not stateless:
                c0, c1 = plan.comm_ptr[k], plan.comm_ptr[k + 1]
                if c1 > c0:
                    rel = plan.comm_idx[c0:c1] - e0
                    contrib[rel] = _release_times(
                        injector, plan.e_dst_rank[plan.comm_idx[c0:c1]], contrib[rel]
                    )
            s0, s1 = sptr[k], sptr[k + 1]
            seg_ready = np.maximum.reduceat(contrib, plan.seg_starts[s0:s1] - e0)
            if s1 - s0 == width:
                ready = seg_ready
            else:
                ready = np.zeros(width, dtype=np.float64)
                ready[plan.seg_pos[s0:s1] - p0] = seg_ready
        else:
            ready = np.zeros(width, dtype=np.float64)

        end_lvl = ready + plan.vcost[p0:p1]
        if noise_active:
            c0, c1 = plan.calc_ptr[k], plan.calc_ptr[k + 1]
            if c1 > c0:
                rel = plan.calc_pos[c0:c1] - p0
                end_lvl[rel] = ready[rel] + _perturb_many(noise, plan.calc_cost[c0:c1])

        start_lvl = start_pos[p0:p1]
        start_lvl[:] = ready
        s0, s1 = plan.send_ptr[k], plan.send_ptr[k + 1]
        if s1 > s0:
            rel = plan.send_pos[s0:s1] - p0
            ranks = plan.send_rank[s0:s1]
            extra = (
                send_extra_all[s0:s1]
                if stateless
                else _send_extra_delays(injector, ranks)
            )
            if not track_nic:
                st = ready[rel]
            elif plan.send_dup[k]:
                st = _grouped_send_starts(ready[rel], ranks, nic_free, g)
            else:
                st = np.maximum(ready[rel], nic_free[ranks])
                nic_free[ranks] = st + g
            start_lvl[rel] = st
            end_lvl[rel] = st + o + extra
        end_pos[p0:p1] = end_lvl

    start = np.empty(n, dtype=np.float64)
    end = np.empty(n, dtype=np.float64)
    start[plan.order] = start_pos
    end[plan.order] = end_pos
    rank_finish = np.zeros(graph.nranks, dtype=np.float64)
    np.maximum.at(rank_finish, graph.rank, end)
    return SimulationResult(
        makespan=float(end.max()),
        start=start,
        end=end,
        rank_finish=rank_finish,
        params=params,
    )


# ---------------------------------------------------------------------------
# batched ΔL sweep (one 2-D pass per level)
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
    d), noise=noise) for d in deltas]`` — the noise model is re-seeded per
    sweep point exactly as per-point runs would — but each topological
    level advances *all* points at once as a 2-D array pass, so the sweep
    costs one graph traversal instead of ``len(deltas)``.

    ``injector`` is one of :data:`~repro.simulator.injector.INJECTOR_NAMES`.
    """
    deltas = np.asarray(list(deltas), dtype=np.float64).ravel()
    if injector not in INJECTOR_NAMES:
        raise ValueError(
            f"unknown injector {injector!r}; expected one of {INJECTOR_NAMES}"
        )
    if noise is None:
        noise = NoNoise()
    grid = simulate_sweep_grid(
        graph, params, deltas, injectors=(injector,), noise=noise
    )
    return grid.sweep(injector)


# ---------------------------------------------------------------------------
# 2-D (injector × ΔL) grid — one traversal for a whole figure
# ---------------------------------------------------------------------------


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
    track_nic: bool = True,
) -> GridSimulationResult:
    """Simulate a whole ``(injector × ΔL)`` grid in one level-synchronous pass.

    Per-row equivalent to ``simulate_sweep(graph, params, deltas,
    injector=name)`` for every ``name`` in ``injectors`` — bit-identical per
    point — but all ``I × K`` rows advance together: each topological level
    is one 2-D array pass over the full grid, so Fig. 8 (four injectors over
    one ΔL axis) costs a single graph traversal instead of four.

    ``latency_matrices`` folds per-pair HLogGP base latencies into the same
    pass: a ``(nranks, nranks)`` matrix replaces the scalar ``params.L`` of
    every communication edge (entry ``[src, dst]`` for a ``src → dst``
    message), and a ``(K, nranks, nranks)`` stack gives sweep point ``k`` its
    own matrix — which turns the Fig. 11 topology comparison into one
    traversal with ΔL = 0 and one topology per sweep point.  ``track_nic=
    False`` drops the per-rank NIC gap resource (forward-pass / LP
    semantics, as in :func:`simulate_level`).
    """
    deltas = np.asarray(list(deltas), dtype=np.float64).ravel()
    injectors = tuple(injectors)
    for name in injectors:
        if name not in INJECTOR_NAMES:
            raise ValueError(
                f"unknown injector {name!r}; expected one of {INJECTOR_NAMES}"
            )
    if noise is None:
        noise = NoNoise()
    I = len(injectors)
    K = len(deltas)
    R = I * K
    n = graph.num_vertices
    nranks = graph.nranks
    if latency_matrices is not None:
        latency_matrices = np.asarray(latency_matrices, dtype=np.float64)
        if latency_matrices.shape == (nranks, nranks):
            latency_matrices = np.broadcast_to(
                latency_matrices, (K, nranks, nranks)
            )
        elif latency_matrices.shape != (K, nranks, nranks):
            raise ValueError(
                "latency_matrices must have shape (nranks, nranks) or "
                f"(K, nranks, nranks); got {latency_matrices.shape}"
            )
        lat_flat = latency_matrices.reshape(K, nranks * nranks)
    else:
        lat_flat = None
    if n == 0 or R == 0:
        return GridSimulationResult(
            injectors=injectors,
            deltas=deltas,
            makespan=np.zeros((I, K), dtype=np.float64),
            rank_finish=np.zeros((I, K, nranks), dtype=np.float64),
            params=params,
        )
    plan = get_level_plan(graph, params)

    # exhaustive per-name dispatch: a new injector name must be wired in
    # here explicitly, not silently simulated with its delta ignored.
    # Row r = i * K + k carries injector i at deltas[k].
    wire = np.zeros(R, dtype=np.float64)
    send_extra = np.zeros(R, dtype=np.float64)
    prog_rows: list[int] = []
    for i, name in enumerate(injectors):
        rows = slice(i * K, (i + 1) * K)
        if name in ("ideal", "delay_thread"):
            wire[rows] = deltas
        elif name == "sender_delay":
            send_extra[rows] = deltas
        elif name == "receiver_progress":
            # progress with ΔL = 0 still serialises receives per rank — the
            # whole row block stays on the progress path, never the wire fold
            prog_rows.extend(range(i * K, (i + 1) * K))
        else:  # pragma: no cover - guarded by the INJECTOR_NAMES check above
            raise ValueError(f"injector {name!r} not supported by simulate_sweep_grid")
    wire_col = wire[:, None]
    prog = np.asarray(prog_rows, dtype=np.int64)
    prog_deltas = np.tile(deltas, len(prog) // K) if prog.size else deltas
    busy = np.zeros((len(prog), nranks), dtype=np.float64)  # progress threads

    end_pos = np.zeros((R, n), dtype=np.float64)
    nic_free = np.zeros((R, nranks), dtype=np.float64)
    o, g = params.o, params.g
    vptr, eptr, sptr = plan.vptr, plan.eptr, plan.sptr
    noise_active = not isinstance(noise, NoNoise)
    noise.reset()

    for k in range(len(vptr) - 1):
        p0, p1 = vptr[k], vptr[k + 1]
        e0, e1 = eptr[k], eptr[k + 1]
        width = p1 - p0
        if e1 > e0:
            # wire delay folded per grid row, one level slice at a time
            # (never the dense (R, num_edges) matrix)
            if lat_flat is None:
                e_cost = plan.e_cost[e0:e1]
            else:
                # gather the per-pair base latency of the level's comm edges
                # for every sweep point, tiled across the injector axis; the
                # float expression (L + bw * G) matches the scalar plan
                comm = plan.e_comm[e0:e1]
                pair_lat = lat_flat[:, plan.e_pair[e0:e1]]
                e_cost = np.where(
                    comm, pair_lat + plan.e_bw[e0:e1] * params.G, 0.0
                )
                e_cost = np.tile(e_cost, (I, 1))
            contrib = (
                end_pos[:, plan.e_src_pos[e0:e1]]
                + e_cost
                + wire_col * plan.e_comm[e0:e1]
            )
            if prog.size:
                c0, c1 = plan.comm_ptr[k], plan.comm_ptr[k + 1]
                if c1 > c0:
                    idx = plan.comm_idx[c0:c1]
                    rel = idx - e0
                    ranks = plan.e_dst_rank[idx]
                    contrib[np.ix_(prog, rel)] = _progress_release(
                        contrib[np.ix_(prog, rel)], ranks, busy, prog_deltas
                    )
            s0, s1 = sptr[k], sptr[k + 1]
            seg_ready = np.maximum.reduceat(
                contrib, plan.seg_starts[s0:s1] - e0, axis=1
            )
            if s1 - s0 == width:
                ready = seg_ready
            else:
                ready = np.zeros((R, width), dtype=np.float64)
                ready[:, plan.seg_pos[s0:s1] - p0] = seg_ready
        else:
            ready = np.zeros((R, width), dtype=np.float64)

        end_lvl = ready + plan.vcost[None, p0:p1]
        if noise_active:
            c0, c1 = plan.calc_ptr[k], plan.calc_ptr[k + 1]
            if c1 > c0:
                rel = plan.calc_pos[c0:c1] - p0
                # the noise draw depends only on the durations, which are
                # identical across grid rows (each per-point run re-seeds),
                # so one draw per level serves every row
                perturbed = _perturb_many(noise, plan.calc_cost[c0:c1])
                end_lvl[:, rel] = ready[:, rel] + perturbed[None, :]

        s0, s1 = plan.send_ptr[k], plan.send_ptr[k + 1]
        if s1 > s0:
            rel = plan.send_pos[s0:s1] - p0
            ranks = plan.send_rank[s0:s1]
            if not track_nic:
                st = ready[:, rel]
            elif plan.send_dup[k]:
                st = _grouped_send_starts(ready[:, rel], ranks, nic_free, g)
            else:
                st = np.maximum(ready[:, rel], nic_free[:, ranks])
                nic_free[:, ranks] = st + g
            end_lvl[:, rel] = st + o + send_extra[:, None]
        end_pos[:, p0:p1] = end_lvl

    makespans = end_pos.max(axis=1)
    rank_finish = np.zeros((R, nranks), dtype=np.float64)
    rank_o = graph.rank[plan.order]
    for r in range(R):
        np.maximum.at(rank_finish[r], rank_o, end_pos[r])
    return GridSimulationResult(
        injectors=injectors,
        deltas=deltas,
        makespan=makespans.reshape(I, K),
        rank_finish=rank_finish.reshape(I, K, nranks),
        params=params,
    )


def _progress_release(
    arrivals: np.ndarray, ranks: np.ndarray, busy: np.ndarray, deltas: np.ndarray
) -> np.ndarray:
    """2-D receiver-progress release: serialise per rank across all ΔL columns."""
    releases = np.empty_like(arrivals)
    order, group_starts, group_ranks, counts = group_by_rank(ranks)
    local = busy[:, group_ranks].copy()
    for j in range(int(counts.max())):
        active = counts > j
        idx = order[group_starts[active] + j]
        rel = np.maximum(arrivals[:, idx], local[:, active]) + deltas[:, None]
        local[:, active] = rel
        releases[:, idx] = rel
    busy[:, group_ranks] = local
    return releases
