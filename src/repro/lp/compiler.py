"""Vectorised graph→LP compiler: lower an execution graph straight to CSR.

Algorithm 1 as written in the paper (kept as the test oracle
:func:`repro.testing.build_lp_symbolic`) walks the DAG vertex by vertex in
Python, allocating a dict-backed :class:`~repro.lp.model.LinearExpr` per
vertex and merging coefficient dictionaries at every step.  That O(V)
pure-Python pass would dominate end-to-end time on large schedules now that
*solving* is incremental (cached CSR assembly + the parametric envelope
engine); :func:`repro.core.lp_builder.build_lp` therefore always lowers
through this module.

This module lowers a frozen :class:`~repro.schedgen.graph.ExecutionGraph`
plus a :class:`~repro.network.params.LogGPSParams` configuration directly
into the sparse arrays the backends consume, skipping per-vertex expression
objects entirely:

1. **classify** vertices by in-degree (NumPy): sources (no predecessors),
   chain vertices (exactly one) and merge points (two or more — the only
   vertices that get an auxiliary ``y`` variable and constraint rows);
2. **path-compress** single-predecessor chains: the per-vertex costs (CALC
   durations, ``o`` overhead counts, per-edge ``l`` counts and ``G``
   byte totals) are accumulated from each vertex back to its *anchor* (the
   nearest source or merge point) with pointer jumping — ``O(V log V)``
   vectorised work instead of ``O(V)`` Python dict merges;
3. **emit** constraint rows only at merge points and sinks, as one
   coordinate list that is sorted once into canonical CSR layout.

The result is *structurally identical* to the symbolic build: the same
variables in the same order (``t``, then the symbolic ``l``/``G``/``o``
heads, then per-pair and merge variables in topological sweep order), and
row-equivalent constraints in the same row order — so duals, reduced costs
and :class:`~repro.lp.parametric.ParametricLP` bound updates work unchanged
on a compiled model.

See ``src/repro/lp/README.md`` for the variable-ordering contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..network.params import LogGPSParams
from ..schedgen.graph import EdgeKind, ExecutionGraph, VertexKind
from .model import LPModel, Sense, Variable

__all__ = ["CompiledLP", "compile_lp"]


@dataclass
class CompiledLP:
    """The pre-lowered LP plus the decision-variable handles consumers need
    (wrapped by :class:`~repro.core.lp_builder.GraphLP`)."""

    model: LPModel
    t: Variable
    latency: Variable | None
    gap: Variable | None
    overhead: Variable | None
    pair_latency: dict[tuple[int, int], Variable]
    pair_gap: dict[tuple[int, int], Variable]
    sink_rows: list[int]
    num_messages: int


def _pointer_jump(
    n: int,
    parent: np.ndarray,
    channels: list[np.ndarray],
    near_seed: np.ndarray | None,
) -> np.ndarray | None:
    """Accumulate per-vertex deltas from each vertex back to its anchor.

    ``parent`` is the single-predecessor forest (-1 at roots).  On return
    every ``channels[k][v]`` holds the sum of the original deltas along the
    path *anchor(v) .. v* inclusive.  ``near_seed`` (optional, length n+1)
    carries a "nearest chain communication edge at-or-above this vertex"
    marker (-1 when absent) that is propagated with the same jumps; the
    filled array is returned.  All arrays use an extra sentinel slot at
    index ``n`` so roots can jump out of the forest.
    """
    jump = np.append(np.where(parent >= 0, parent, n), n)
    near = near_seed
    # Vertex ids are emission-ordered, so most chain links are contiguous id
    # runs with ``parent == id - 1``.  Collapse each run in one O(n) pass
    # (segmented prefix sums against the run's ``base``, the last non-run
    # vertex at or before each position) so the doubling loop below only has
    # to resolve the sparse cross-segment links: O(log #segments) iterations
    # instead of O(log chain-length).  The seed preserves the loop invariant
    # — ``acc[v]`` is the delta sum over ``(jump[v], v]`` — so the fixpoint
    # is unchanged (up to float association order, as with any jump order).
    ids = np.arange(n, dtype=np.int64)
    run = (ids > 0) & (parent == ids - 1)
    if run.any():
        base = np.maximum.accumulate(np.where(run, np.int64(-1), ids))
        for acc in channels:
            total = np.cumsum(np.where(run, acc[:n], 0.0))
            acc[:n] = np.where(run, total - total[base], acc[:n])
        if near is not None:
            # deepest marker position at-or-before each vertex; a hit inside
            # the run segment (strictly past base) supplies the marker
            gpos = np.maximum.accumulate(
                np.where(near[:n] != -1, ids, np.int64(-1))
            )
            hit = run & (gpos > base)
            near[:n] = np.where(hit, near[np.maximum(gpos, 0)], near[:n])
        jump[:n] = np.where(run, base, jump[:n])
    while np.any(jump[:n] != n):
        j = jump
        for acc in channels:
            acc[:n] += acc[j[:n]]
        if near is not None:
            near[:n] = np.where(near[:n] == -1, near[j[:n]], near[:n])
        jump = j[j]
    return near


def _row_messages(
    parent: np.ndarray,
    near: np.ndarray,
    cv: np.ndarray,
    cv_eid: np.ndarray,
    row_u: np.ndarray,
    row_eid: np.ndarray,
    e_comm: np.ndarray,
    num_edges: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Every message on each row's compressed path, as ``(rows, edge ids)``.

    A row's messages are its own COMM edge (``e_comm``) plus the chain COMM
    edges from ``row_u`` up to its anchor, enumerated through the
    nearest-comm linked list :func:`_pointer_jump` filled into ``near``
    (``cv``/``cv_eid``: the chain vertices fed by a message, and that edge).
    """
    next_comm = np.full(num_edges, -1, dtype=np.int64)
    if cv.size:
        next_comm[cv_eid] = near[parent[cv]]
    walk_rows = [np.flatnonzero(e_comm)]
    walk_eids = [row_eid[e_comm]]
    cursor = near[row_u]
    active = np.flatnonzero(cursor >= 0)
    while active.size:
        walk_rows.append(active)
        walk_eids.append(cursor[active])
        cursor[active] = next_comm[cursor[active]]
        active = active[cursor[active] >= 0]
    return np.concatenate(walk_rows), np.concatenate(walk_eids)


def compile_lp(
    graph: ExecutionGraph,
    params: LogGPSParams,
    *,
    latency_mode: str = "global",
    gap_mode: str = "constant",
    overhead_mode: str = "constant",
    name: str = "llamp",
) -> CompiledLP:
    """Lower ``graph`` directly to a pre-assembled :class:`LPModel`.

    Accepts the same mode knobs as :func:`repro.core.lp_builder.build_lp`
    and produces a bit-compatible LP structure (same variable order,
    row-equivalent constraints in the same order).
    """
    if latency_mode not in ("global", "per_pair", "constant"):
        raise ValueError(f"unknown latency_mode {latency_mode!r}")
    if gap_mode not in ("constant", "global", "per_pair"):
        raise ValueError(f"unknown gap_mode {gap_mode!r}")
    if overhead_mode not in ("constant", "global"):
        raise ValueError(f"unknown overhead_mode {overhead_mode!r}")

    n = graph.num_vertices
    m = graph.num_edges
    nranks = graph.nranks
    kind = graph.kind
    cost = graph.cost
    size = graph.size
    rank = graph.rank
    edge_src = graph.edge_src
    edge_dst = graph.edge_dst

    indeg = graph.in_degrees()
    topo_pos = graph.topo_positions()
    parent = graph.chain_parent()
    chain_eid = graph.chain_in_edge()

    per_pair_lat = latency_mode == "per_pair"
    per_pair_gap = gap_mode == "per_pair"
    need_pairs = per_pair_lat or per_pair_gap

    is_comm_edge = np.asarray(graph.edge_kind) == int(EdgeKind.COMM)
    if m:
        # one float64 temporary instead of the int64 gather + subtract +
        # maximum + astype chain (4 × E bytes of peak scratch on large graphs)
        bw_edge = size[edge_dst].astype(np.float64)
        bw_edge -= 1.0
        np.maximum(bw_edge, 0.0, out=bw_edge)
    else:
        bw_edge = np.zeros(0)
    if need_pairs and m:
        pair_lo = np.minimum(rank[edge_src], rank[edge_dst]).astype(np.int64)
        pair_hi = np.maximum(rank[edge_src], rank[edge_dst]).astype(np.int64)
        pair_code_edge = pair_lo * nranks + pair_hi
    else:
        pair_code_edge = np.zeros(m, dtype=np.int64)

    # ------------------------------------------------------------------
    # variable layout: head variables, then pair/merge variables in the
    # exact order the symbolic topological sweep would create them
    # ------------------------------------------------------------------
    var_names: list[str] = ["t"]
    var_lbs: list[float] = [0.0]
    lat_col = gap_col = o_col = None
    if latency_mode == "global":
        lat_col = len(var_names)
        var_names.append("l")
        var_lbs.append(params.L)
    if gap_mode == "global":
        gap_col = len(var_names)
        var_names.append("G")
        var_lbs.append(params.G)
    if overhead_mode == "global":
        o_col = len(var_names)
        var_names.append("o")
        var_lbs.append(params.o)

    head = len(var_names)
    merges = graph.merge_points()
    merges = merges[np.argsort(topo_pos[merges], kind="stable")]
    y_col = np.full(n, -1, dtype=np.int64)
    # the dense pair→column tables are O(nranks^2); only the per-pair modes
    # ever read them, so the default global/constant modes (the million-rank
    # analyze path) must not pay for them
    lat_col_of_pair = gap_col_of_pair = None
    lat_pair_cols: list[tuple[tuple[int, int], int]] = []
    gap_pair_cols: list[tuple[tuple[int, int], int]] = []

    if not need_pairs:
        # fast path: the only lazily-created variables are the merge ``y``s,
        # in topological sweep order
        y_col[merges] = head + np.arange(len(merges), dtype=np.int64)
        var_names += ["y%d" % v for v in merges.tolist()]
        var_lbs += [0.0] * len(merges)
    else:
        lat_col_of_pair = np.full(nranks * nranks, -1, dtype=np.int64)
        gap_col_of_pair = np.full(nranks * nranks, -1, dtype=np.int64)
        # events: (vertex sweep position, within-vertex position, kind,
        # payload); kind 0 = pair-latency var, 1 = pair-gap var, 2 = merge
        # (y) var.  Within one vertex, in-edges are processed in ascending
        # edge-id order and the merge variable is created after every edge —
        # hence 2*eid(+1) vs 2*m+2.
        ev_vkey: list[np.ndarray] = []
        ev_ekey: list[np.ndarray] = []
        ev_kind: list[np.ndarray] = []
        ev_payload: list[np.ndarray] = []
        if m:
            sweep = np.argsort(topo_pos[edge_dst], kind="stable")
            comm_sorted = sweep[is_comm_edge[sweep]]
            codes_sorted = pair_code_edge[comm_sorted]
            if per_pair_lat:
                uniq, first = np.unique(codes_sorted, return_index=True)
                eids = comm_sorted[first]
                ev_vkey.append(topo_pos[edge_dst[eids]])
                ev_ekey.append(2 * eids)
                ev_kind.append(np.zeros(len(eids), dtype=np.int64))
                ev_payload.append(uniq)
            if per_pair_gap:
                with_bw = bw_edge[comm_sorted] > 0
                uniq, first = np.unique(codes_sorted[with_bw], return_index=True)
                eids = comm_sorted[with_bw][first]
                ev_vkey.append(topo_pos[edge_dst[eids]])
                ev_ekey.append(2 * eids + 1)
                ev_kind.append(np.ones(len(eids), dtype=np.int64))
                ev_payload.append(uniq)

        ev_vkey.append(topo_pos[merges])
        ev_ekey.append(np.full(len(merges), 2 * m + 2, dtype=np.int64))
        ev_kind.append(np.full(len(merges), 2, dtype=np.int64))
        ev_payload.append(merges)

        vkey = np.concatenate(ev_vkey)
        ekey = np.concatenate(ev_ekey)
        ekind = np.concatenate(ev_kind)
        payload = np.concatenate(ev_payload)
        event_order = np.lexsort((ekey, vkey))

        for k, p in zip(ekind[event_order].tolist(), payload[event_order].tolist()):
            col = len(var_names)
            if k == 0:
                i, j = divmod(p, nranks)
                var_names.append(f"l_{i}_{j}")
                var_lbs.append(params.L)
                lat_col_of_pair[p] = col
                lat_pair_cols.append(((i, j), col))
            elif k == 1:
                i, j = divmod(p, nranks)
                var_names.append(f"G_{i}_{j}")
                var_lbs.append(params.G)
                gap_col_of_pair[p] = col
                gap_pair_cols.append(((i, j), col))
            else:
                var_names.append(f"y{p}")
                var_lbs.append(0.0)
                y_col[p] = col

    # ------------------------------------------------------------------
    # per-vertex cost deltas, then path compression back to each anchor
    # ------------------------------------------------------------------
    calc = np.asarray(kind) == int(VertexKind.CALC)
    if o_col is not None:
        d_const = np.where(calc, cost, 0.0)
        d_o = (~calc).astype(np.float64)
    else:
        # folded in one pass: non-CALC vertices carry the constant overhead
        d_const = np.where(calc, cost, params.o)

    chain_vertices = np.flatnonzero(chain_eid >= 0)
    chain_edges = chain_eid[chain_vertices]
    comm_chain = is_comm_edge[chain_edges] if m else np.zeros(0, dtype=bool)
    cv = chain_vertices[comm_chain]          # chain vertices fed by a message
    cv_eid = chain_edges[comm_chain]
    cv_bw = bw_edge[cv_eid]

    d_l = None
    d_bw = None
    if latency_mode == "global":
        d_l = np.zeros(n, dtype=np.float64)
        d_l[cv] = 1.0
    elif latency_mode == "constant":
        d_const[cv] += params.L
    if gap_mode == "global":
        d_bw = np.zeros(n, dtype=np.float64)
        d_bw[cv] = cv_bw
    elif gap_mode == "constant":
        d_const[cv] += params.G * cv_bw

    channels = [np.append(d_const, 0.0)]
    if d_l is not None:
        channels.append(np.append(d_l, 0.0))
    if d_bw is not None:
        channels.append(np.append(d_bw, 0.0))
    if o_col is not None:
        channels.append(np.append(d_o, 0.0))

    near_seed = None
    if need_pairs:
        near_seed = np.full(n + 1, -1, dtype=np.int64)
        near_seed[cv] = cv_eid
    near = _pointer_jump(n, parent, channels, near_seed)
    anchor = graph.chain_anchor()

    acc = channels
    acc_const = acc[0]
    pos = 1
    acc_l = acc_bw = acc_o = None
    if d_l is not None:
        acc_l = acc[pos]
        pos += 1
    if d_bw is not None:
        acc_bw = acc[pos]
        pos += 1
    if o_col is not None:
        acc_o = acc[pos]

    # ------------------------------------------------------------------
    # rows: one per (merge vertex, in-edge) in sweep order, then sinks
    # ------------------------------------------------------------------
    pred_indptr = graph._pred_indptr
    pred_edges = graph._pred_edges
    counts = indeg[merges]
    starts = pred_indptr[merges]
    total = int(counts.sum())
    local = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    merge_eids = pred_edges[np.repeat(starts, counts) + local]

    sinks = graph.sinks()
    row_u = np.concatenate([edge_src[merge_eids], sinks]).astype(np.int64)
    row_eid = np.concatenate([merge_eids, np.full(len(sinks), -1, dtype=np.int64)])
    row_target = np.concatenate(
        [np.repeat(y_col[merges], counts), np.zeros(len(sinks), dtype=np.int64)]
    )
    R = len(row_u)

    e_comm = np.zeros(R, dtype=bool)
    has_edge = row_eid >= 0
    e_comm[has_edge] = is_comm_edge[row_eid[has_edge]]
    row_bw = np.zeros(R, dtype=np.float64)
    row_bw[e_comm] = bw_edge[row_eid[e_comm]]

    row_const = acc_const[row_u]  # fancy indexing already yields a fresh array
    if latency_mode == "constant":
        row_const[e_comm] += params.L
    if gap_mode == "constant":
        row_const += params.G * row_bw

    coo_rows: list[np.ndarray] = []
    coo_cols: list[np.ndarray] = []
    coo_vals: list[np.ndarray] = []
    all_rows = np.arange(R, dtype=np.int64)

    def emit(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        coo_rows.append(rows)
        coo_cols.append(cols)
        coo_vals.append(vals)

    emit(all_rows, row_target, np.ones(R, dtype=np.float64))
    anchor_col = y_col[anchor[row_u]]
    anchored = anchor_col >= 0
    emit(all_rows[anchored], anchor_col[anchored], np.full(int(anchored.sum()), -1.0))
    if lat_col is not None:
        coeff = acc_l[row_u] + e_comm
        nz = coeff != 0.0
        emit(all_rows[nz], np.full(int(nz.sum()), lat_col, dtype=np.int64), -coeff[nz])
    if gap_col is not None:
        coeff = acc_bw[row_u] + row_bw
        nz = coeff != 0.0
        emit(all_rows[nz], np.full(int(nz.sum()), gap_col, dtype=np.int64), -coeff[nz])
    if o_col is not None:
        coeff = acc_o[row_u]
        nz = coeff != 0.0
        emit(all_rows[nz], np.full(int(nz.sum()), o_col, dtype=np.int64), -coeff[nz])

    if need_pairs:
        wrow, weid = _row_messages(parent, near, cv, cv_eid, row_u, row_eid, e_comm, m)
        wcode = pair_code_edge[weid]
        keyspace = nranks * nranks
        if per_pair_lat:
            keys, cnt = np.unique(wrow * keyspace + wcode, return_counts=True)
            emit(keys // keyspace, lat_col_of_pair[keys % keyspace],
                 -cnt.astype(np.float64))
        if per_pair_gap:
            wbw = bw_edge[weid]
            with_bw = wbw > 0
            keys, inverse = np.unique(
                wrow[with_bw] * keyspace + wcode[with_bw], return_inverse=True
            )
            sums = np.bincount(inverse, weights=wbw[with_bw])
            emit(keys // keyspace, gap_col_of_pair[keys % keyspace], -sums)

    rows_cat = np.concatenate(coo_rows)
    cols_cat = np.concatenate(coo_cols)
    vals_cat = np.concatenate(coo_vals)
    canonical = np.lexsort((cols_cat, rows_cat))
    indptr = np.zeros(R + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows_cat, minlength=R), out=indptr[1:])

    model = LPModel.from_arrays(
        name=name,
        var_names=var_names,
        lb=var_lbs,
        row_indptr=indptr,
        row_cols=cols_cat[canonical],
        row_vals=vals_cat[canonical],
        row_consts=-row_const,
        row_sense=">=",
    )
    t_var = model.variables[0]
    model.set_objective(t_var, Sense.MIN)

    return CompiledLP(
        model=model,
        t=t_var,
        latency=model.variables[lat_col] if lat_col is not None else None,
        gap=model.variables[gap_col] if gap_col is not None else None,
        overhead=model.variables[o_col] if o_col is not None else None,
        pair_latency={key: model.variables[col] for key, col in lat_pair_cols},
        pair_gap={key: model.variables[col] for key, col in gap_pair_cols},
        sink_rows=list(range(total, R)),
        num_messages=int(np.count_nonzero(is_comm_edge)),
    )
