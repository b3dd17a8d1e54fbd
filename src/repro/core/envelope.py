"""Exact ``T(L)`` envelopes from batched forward passes: no LP, no solver.

Every edge cost of the LogGPS LP is *affine in the latency* ``L`` — a
communication edge costs ``l + (size-1)·G`` and everything else is a
constant — so the makespan ``T(L)`` is the upper envelope of per-path lines
``a_i·L + C_i`` (``a_i`` = number of messages on path ``i``).  The envelope
is found by the paper's tangent-intersection search
(:func:`~repro.lp.parametric.tangent_search`, Algorithm 2), the same search
:class:`~repro.lp.parametric.ParametricLP` runs with one LP solve per
probe.  Here every pass of that search is answered by one vectorised
traversal of the chain-condensed level structure instead.

The traversal mirrors the condensation of :mod:`repro.lp.compiler` exactly:

1. per-vertex cost deltas (CALC durations, the constant overhead ``o`` and
   the per-message ``G`` byte cost folded in) are accumulated from every
   vertex back to its *anchor* — the nearest source or merge point — with
   the compiler's own :func:`~repro.lp.compiler._pointer_jump`;
2. for each of the ``K`` latencies probed in a pass, every merge point keeps
   only the ``(slope, intercept)`` of the longest path reaching it — the
   winning line.  Slot 0 holds the shared ``(0, 0)`` line of every source
   anchor, so the state is ``(merge points + 1) × K × 2`` floats and chain
   vertices never materialise one;
3. merge points are processed level-synchronously (the same level grouping
   the simulator batches on): every row of a level shifts its anchor's
   lines by its chain-compressed costs, and three segmented
   ``np.maximum.reduceat`` calls pick each merge point's winner — the
   lexicographic max of ``(value at L, slope)``, so a probe returns the
   segment active just right of ``L``, and of ``(slope, intercept)`` at
   ``L = inf``;
4. the sink completions are reduced the same way into one line per probe.

Every returned line is a real path line: an integer message count and an
intercept summed along the path, so the final
:func:`~repro.core.parametric._upper_envelope` of the lines the search found
is the :class:`~repro.core.parametric.PiecewiseLinear` result.  One pass
costs one traversal for all its probes; the search needs one pass per level
of its bisection tree (1–5 on the bundled applications).

The result is numerically identical (well below the 1e-6 contract) to the
LP tangent envelope: at the LP optimum every symbolic variable other than
``l`` sits at its lower bound (= the ``params`` value), so folding those
bounds as constants reproduces the optimal objective for every ``L``.  That
holds for any *freshly built* LP with a global latency variable, per-pair
gap variables included, so every analysis (analyzer, Algorithm 2, pool,
fleet) runs this pass on a graph and never builds an LP; the LP tangent
search is the test oracle ``repro.testing.lp_envelope``.
:func:`forward_incompatibility` states the **affinity contract** of
``src/repro/lp/README.md`` for a prebuilt
:class:`~repro.core.lp_builder.GraphLP` (a global latency variable, no
per-pair HLogGP variables, gap/overhead bounds that still equal
``params``), and :func:`resolve_envelope_engine` names the evaluator that
contract allows; no analysis takes a ``GraphLP``.  :data:`MAX_PIECES`
bounds every envelope, and artifact-store envelope keys come from
:func:`envelope_config` (see :mod:`repro.artifacts.store`).

:func:`pair_forward_evaluator` walks the same layout
(:func:`_chain_messages`, :func:`_merge_rows`) with per-pair constants
instead of a latency variable: the HLogGP runtime of one process mapping
and, from a backtrack along its critical path, the pairwise sensitivities
of Algorithm 3 (and, summed, ``λ_L`` and ``λ_G`` of that path).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..lp.parametric import check_latency_interval, tangent_search
from ..network.params import LogGPSParams
from ..schedgen.graph import EdgeKind, ExecutionGraph, VertexKind

__all__ = [
    "MAX_PIECES",
    "envelope_config",
    "forward_envelope",
    "forward_incompatibility",
    "pair_forward_evaluator",
    "resolve_envelope_engine",
]

# ---------------------------------------------------------------------------
# evaluator choice / affinity contract
# ---------------------------------------------------------------------------


def forward_incompatibility(graph_lp) -> str | None:
    """Why the forward engine cannot reproduce this LP's envelope.

    Returns ``None`` when the forward pass is exact for ``graph_lp`` —
    i.e. the LP satisfies the affinity contract (``T(L)`` depends on the
    single global latency variable only, every other symbolic bound still
    equals its ``params`` value).  Otherwise returns a human-readable
    reason, and :func:`resolve_envelope_engine` picks the LP tangent search.
    """
    if graph_lp.latency is None:
        return (
            "the LP has no global latency variable "
            "(per-pair or constant latency mode)"
        )
    if graph_lp.pair_latency or graph_lp.pair_gap:
        return (
            "per-pair HLogGP variables break the single-parameter affinity "
            "in L"
        )
    if getattr(graph_lp, "graph", None) is None:
        return "the LP carries no execution graph to traverse"
    params = graph_lp.params
    gap = graph_lp.gap
    if gap is not None:
        lb = graph_lp.model.variables[gap.index].lb
        if lb != params.G:
            return (
                f"the gap lower bound ({lb}) was moved away from "
                f"params.G ({params.G})"
            )
    overhead = graph_lp.overhead
    if overhead is not None:
        lb = graph_lp.model.variables[overhead.index].lb
        if lb != params.o:
            return (
                f"the overhead lower bound ({lb}) was moved away from "
                f"params.o ({params.o})"
            )
    return None


def resolve_envelope_engine(graph_lp) -> str:
    """The evaluator of ``graph_lp``'s envelope: ``"forward"`` when the
    forward pass is exact for it (:func:`forward_incompatibility` is
    ``None``), else ``"lp"`` (the tangent search over LP probes)."""
    return "forward" if forward_incompatibility(graph_lp) is None else "lp"


#: the most pieces an envelope may have; :func:`forward_envelope` raises
#: :class:`~repro.lp.parametric.EnvelopeOverflowError` beyond it.  Read at
#: call time, here and by :func:`envelope_config`.
MAX_PIECES = 50_000


def envelope_config() -> dict:
    """The configuration part of the artifact-store key of one envelope.

    Every caller passes this to :func:`~repro.artifacts.envelope_key` (or
    its digest twin), so one curve has one store entry whichever path
    asks.
    """
    return {"max_pieces": MAX_PIECES}


# ---------------------------------------------------------------------------
# the forward evaluator
# ---------------------------------------------------------------------------


def _winners(
    slope: np.ndarray, intercept: np.ndarray, starts: np.ndarray,
    seg: np.ndarray, x: np.ndarray, at_inf: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The winning line of every segment of rows, for every probe column.

    ``slope``/``intercept`` are ``rows × K``; the rows of segment ``j``
    start at ``starts[j]`` (``seg`` maps each row to its segment).  At a
    finite probe ``x`` the winner is the lexicographic max of
    ``(slope·x + intercept, slope)``; in an ``at_inf`` column (where ``x``
    holds 0) it is the max of ``(slope, intercept)``.  The remaining
    intercept tie is broken upwards, so the winner is always one row's line.
    """
    first = np.where(at_inf, slope, slope * x + intercept)
    best = np.maximum.reduceat(first, starts, axis=0)
    second = np.where(first == best[seg], np.where(at_inf, intercept, slope), -np.inf)
    best_second = np.maximum.reduceat(second, starts, axis=0)
    third = np.where(second == best_second[seg], intercept, -np.inf)
    winner_slope = np.where(at_inf, best, best_second)
    return winner_slope, np.maximum.reduceat(third, starts, axis=0)


class _MergeRows(NamedTuple):
    """The chain-condensed merge-row layout both forward evaluators walk."""

    merges: np.ndarray     # merge points in topological order; state slot 1 + i
    row_ptr: np.ndarray    # the rows of merges[i] are row_ptr[i]:row_ptr[i + 1]
    row_eid: np.ndarray    # each row's in-edge, in ``_pred_edges`` order per merge
    row_u: np.ndarray      # the source vertex of that edge
    row_slot: np.ndarray   # state slot of row_u's anchor (0: a source)
    sinks: np.ndarray      # ``graph.sinks()``
    sink_slot: np.ndarray  # state slot of each sink's anchor
    levels: list           # (g0, g1, r0, r1, starts, seg) per merge level


def _chain_messages(graph: ExecutionGraph):
    """``(comm, bw, cv, cv_eid)``: per edge, whether it is a COMM edge and the
    ``max(size - 1, 0)`` bytes it pays ``G`` for; the chain vertices fed by a
    COMM edge, and that edge."""
    comm = np.asarray(graph.edge_kind) == int(EdgeKind.COMM)
    bw = graph.size[graph.edge_dst].astype(np.float64)
    bw -= 1.0
    np.maximum(bw, 0.0, out=bw)
    chain_eid = graph.chain_in_edge()
    chain_vertices = np.flatnonzero(chain_eid >= 0)
    chain_edges = chain_eid[chain_vertices]
    fed = comm[chain_edges]
    return comm, bw, chain_vertices[fed], chain_edges[fed]


def _merge_rows(graph: ExecutionGraph) -> _MergeRows:
    """One row per (merge vertex, in-edge), exactly the compiled LP's layout.

    Merges come in topological order, grouped by level (the order contract
    is level-major, so each level is one contiguous run of merges and rows);
    ``starts``/``seg`` of a level give each merge's first row and each row's
    merge, relative to the level.
    """
    indeg = graph.in_degrees()
    topo_pos = graph.topo_positions()
    anchor = graph.chain_anchor()
    merges = graph.merge_points()
    merges = merges[np.argsort(topo_pos[merges], kind="stable")]
    mlevel = graph.level_of()[merges]
    counts = indeg[merges].astype(np.int64)
    row_ptr = np.zeros(len(merges) + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    total = int(row_ptr[-1])
    local = np.arange(total, dtype=np.int64) - np.repeat(row_ptr[:-1], counts)
    row_eid = graph._pred_edges[np.repeat(graph._pred_indptr[merges], counts) + local]
    row_u = graph.edge_src[row_eid]

    sinks = np.asarray(graph.sinks(), dtype=np.int64)
    slot = np.zeros(graph.num_vertices, dtype=np.int64)
    slot[merges] = np.arange(1, len(merges) + 1)
    levels = []
    if len(merges):
        bounds = np.concatenate(
            [[0], np.flatnonzero(np.diff(mlevel)) + 1, [len(merges)]]
        )
        for g0, g1 in zip(bounds[:-1], bounds[1:]):
            r0, r1 = int(row_ptr[g0]), int(row_ptr[g1])
            levels.append((
                int(g0), int(g1), r0, r1, row_ptr[g0:g1] - r0,
                np.repeat(np.arange(g1 - g0, dtype=np.int64), counts[g0:g1]),
            ))
    return _MergeRows(
        merges=merges, row_ptr=row_ptr, row_eid=row_eid, row_u=row_u,
        row_slot=slot[anchor[row_u]], sinks=sinks, sink_slot=slot[anchor[sinks]],
        levels=levels,
    )


def forward_envelope(
    graph: ExecutionGraph,
    params: LogGPSParams,
    *,
    l_min: float = 0.0,
    l_max: float = 10_000.0,
):
    """The exact ``T(L)`` envelope of ``graph`` on ``[l_min, l_max]``
    (``l_max`` may be ``inf``), found by the tangent search over batched
    level-synchronous traversals (no LP, no solver).

    All LogGPS parameters other than the latency are folded from ``params``
    as constants, exactly as the LP bakes them into its constraint constants
    (and as the optimum pins every symbolic bound).  Numerically identical
    to the oracle ``repro.testing.lp_envelope(build_lp(graph, params, ...),
    ...)`` for every freshly built LP with a global latency variable,
    per-pair gaps included — see this module's docstring and
    ``src/repro/lp/README.md``.  More than :data:`MAX_PIECES` pieces raise
    :class:`~repro.lp.parametric.EnvelopeOverflowError`.
    """
    check_latency_interval(l_min, l_max)
    lo, hi = float(l_min), float(l_max)

    from ..lp.compiler import _pointer_jump
    from .parametric import Line, PiecewiseLinear, _upper_envelope

    n = graph.num_vertices
    comm, bw, cv, cv_eid = _chain_messages(graph)

    # per-vertex deltas with everything but L folded constant, then chain
    # compression back to each anchor — the compiler's own machinery
    calc = np.asarray(graph.kind) == int(VertexKind.CALC)
    d_const = np.where(calc, graph.cost, params.o)
    d_l = np.zeros(n, dtype=np.float64)
    d_l[cv] = 1.0
    d_const[cv] += params.G * bw[cv_eid]

    channels = [np.append(d_const, 0.0), np.append(d_l, 0.0)]
    _pointer_jump(n, graph.chain_parent(), channels, None)
    acc_const, acc_l = channels

    rows = _merge_rows(graph)
    e_comm = comm[rows.row_eid]
    row_slope = acc_l[rows.row_u] + e_comm
    row_const = acc_const[rows.row_u] + params.G * np.where(
        e_comm, bw[rows.row_eid], 0.0
    )
    sink_slot = rows.sink_slot
    sink_slope = acc_l[rows.sinks][:, None]
    sink_const = acc_const[rows.sinks][:, None]
    levels = [
        (1 + g0, 1 + g1, rows.row_slot[r0:r1],
         row_slope[r0:r1, None], row_const[r0:r1, None], starts, seg)
        for g0, g1, r0, r1, starts, seg in rows.levels
    ]
    num_slots = len(rows.merges) + 1
    one_segment = np.zeros(1, dtype=np.int64)
    sink_seg = np.zeros(len(rows.sinks), dtype=np.int64)

    def evaluate(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # one traversal answers every probe: the winning line per merge slot
        at_inf = np.isinf(xs)
        x = np.where(at_inf, 0.0, xs)
        slope = np.zeros((num_slots, len(xs)))
        intercept = np.zeros_like(slope)
        for s0, s1, slots, r_slope, r_const, starts, seg in levels:
            slope[s0:s1], intercept[s0:s1] = _winners(
                slope[slots] + r_slope, intercept[slots] + r_const,
                starts, seg, x, at_inf,
            )
        final_slope, final_intercept = _winners(
            slope[sink_slot] + sink_slope, intercept[sink_slot] + sink_const,
            one_segment, sink_seg, x, at_inf,
        )
        return final_slope[0], final_intercept[0]

    lines, _ = tangent_search(evaluate, lo, hi, max_pieces=MAX_PIECES)
    final = _upper_envelope([Line(s, c) for _, s, c in lines], lo, hi)
    return PiecewiseLinear(lines=final, lo=lo, hi=hi)


def pair_forward_evaluator(graph: ExecutionGraph, params: LogGPSParams):
    """The per-pair (HLogGP) runtime of ``graph`` as one forward pass.

    Returns ``evaluate(latency, gap=None) -> (runtime, D_L, D_G)``.
    ``latency`` and ``gap`` are symmetric ``P × P`` matrices (e.g.
    :meth:`~repro.network.hloggp.ArchitectureGraph.latency_matrix` of a
    mapping); a message between ranks ``i`` and ``j`` of ``size`` bytes
    costs ``latency[i, j] + (size - 1)·gap[i, j]``, and ``gap=None`` charges
    ``params.G`` for every pair.  Overheads and compute costs come from
    ``params`` and the graph.  This is the objective of the per-pair LP of
    Algorithm 3 (``build_lp(graph, params, latency_mode="per_pair",
    gap_mode="per_pair" or "constant")`` with those lower bounds): the LP
    minimises the makespan, so every ``l_ij``/``G_ij`` sits at its bound
    and the optimum is a longest path with per-edge constants.

    ``D_L``/``D_G`` count the messages and ``(size - 1)`` bytes per
    unordered rank pair on one critical path, entered at ``[i, j]`` and
    ``[j, i]`` like the LP's reduced costs (they equal them when the
    critical path is unique).  Ties pick the path of the package's one tie
    rule (:func:`repro.simulator.loggops.backtrack`), so the answer does not
    depend on a solver.  The merge-row layout and the per-row message lists
    are built once; each call is one level pass plus a backtrack.
    """
    from ..lp.compiler import _pointer_jump, _row_messages

    n, nranks = graph.num_vertices, graph.nranks
    comm, bw, cv, cv_eid = _chain_messages(graph)
    calc = np.asarray(graph.kind) == int(VertexKind.CALC)
    channels = [np.append(np.where(calc, graph.cost, params.o), 0.0)]
    near = np.full(n + 1, -1, dtype=np.int64)
    near[cv] = cv_eid
    parent = graph.chain_parent()
    near = _pointer_jump(n, parent, channels, near)
    rows = _merge_rows(graph)

    # the sinks are rows too, after the merge rows: t >= completion(sink)
    num_rows, num_merges = len(rows.row_u), len(rows.merges)
    row_u = np.concatenate([rows.row_u, rows.sinks])
    row_eid = np.concatenate([rows.row_eid, np.full(len(rows.sinks), -1, dtype=np.int64)])
    e_comm = np.zeros(len(row_u), dtype=bool)
    e_comm[:num_rows] = comm[rows.row_eid]
    base = channels[0][row_u]
    row_slot = np.concatenate([rows.row_slot, rows.sink_slot])
    wrow, weid = _row_messages(parent, near, cv, cv_eid, row_u, row_eid, e_comm, graph.num_edges)
    src, dst = graph.rank[graph.edge_src[weid]], graph.rank[graph.edge_dst[weid]]
    wpair = np.minimum(src, dst).astype(np.int64) * nranks + np.maximum(src, dst)
    wbytes = bw[weid]
    owner = np.repeat(np.arange(1, num_merges + 1), np.diff(rows.row_ptr))
    row_index = np.arange(num_rows)
    levels = [
        (1 + g0, 1 + g1, rows.row_slot[r0:r1], r0, r1, starts)
        for g0, g1, r0, r1, starts, _ in rows.levels
    ]

    def symmetric(flat: np.ndarray) -> np.ndarray:
        upper = flat.reshape(nranks, nranks).astype(np.float64)
        return upper + upper.T - np.diag(np.diag(upper))

    def evaluate(latency: np.ndarray, gap: np.ndarray | None = None):
        lat = np.asarray(latency, dtype=np.float64).ravel()
        per_byte = (np.full(nranks * nranks, params.G) if gap is None
                    else np.asarray(gap, dtype=np.float64).ravel())
        const = base + np.bincount(
            wrow, weights=lat[wpair] + wbytes * per_byte[wpair], minlength=len(row_u)
        )
        state = np.zeros(num_merges + 1)
        for s0, s1, slots, r0, r1, starts in levels:
            state[s0:s1] = np.maximum.reduceat(state[slots] + const[r0:r1], starts)
        # every row's value again (bit-identical: same operands), then the
        # backtrack from the winning sink through each merge's winning row
        value = state[row_slot] + const
        last = num_rows + int(np.argmax(value[num_rows:]))
        if np.isnan(value[last]):  # a NaN anywhere reaches a sink: no winner to trace
            raise ValueError("the runtime is NaN: a cost, latency or gap is NaN")
        path = [last]
        if num_merges:
            hit = value[:num_rows] == state[owner]
            winner = np.minimum.reduceat(
                np.where(hit, row_index, num_rows), rows.row_ptr[:-1]
            )
            slot = row_slot[last]
            while slot:
                path.append(winner[slot - 1])
                slot = row_slot[path[-1]]
        on_path = np.zeros(len(row_u), dtype=bool)
        on_path[path] = True
        chosen = on_path[wrow]
        pairs = wpair[chosen]
        d_l = np.bincount(pairs, minlength=nranks * nranks)
        d_g = np.bincount(pairs, weights=wbytes[chosen], minlength=nranks * nranks)
        return float(value[last]), symmetric(d_l), symmetric(d_g)

    return evaluate
