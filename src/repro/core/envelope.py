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
gap variables included, so every graph sweep (analyzer, pool, fleet) runs
this pass and never builds an LP.  A prebuilt
:class:`~repro.core.lp_builder.GraphLP` must keep the **affinity contract**
documented in ``src/repro/lp/README.md``: a global latency variable, no
per-pair HLogGP variables, and gap/overhead bounds that still equal
``params``.  One that breaks it gets the LP tangent search
(:func:`~repro.core.parametric.lp_envelope`) instead;
:func:`resolve_envelope_engine` makes that choice.  Artifact-store envelope
keys come from :func:`envelope_config` (see :mod:`repro.artifacts.store`).
"""

from __future__ import annotations

import numpy as np

from ..lp.parametric import check_latency_interval, tangent_search
from ..network.params import LogGPSParams
from ..schedgen.graph import EdgeKind, ExecutionGraph, VertexKind

__all__ = [
    "envelope_config",
    "forward_envelope",
    "forward_incompatibility",
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


def envelope_config(max_pieces: int = 50_000) -> dict:
    """The configuration part of the artifact-store key of one envelope.

    Every caller passes this to :func:`~repro.artifacts.envelope_key` (or
    its digest twin), so one curve has one store entry whichever path
    asks.
    """
    return {"max_pieces": max_pieces}


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


def forward_envelope(
    graph: ExecutionGraph,
    params: LogGPSParams,
    *,
    l_min: float = 0.0,
    l_max: float = 10_000.0,
    max_pieces: int = 50_000,
):
    """The exact ``T(L)`` envelope of ``graph`` on ``[l_min, l_max]``
    (``l_max`` may be ``inf``), found by the tangent search over batched
    level-synchronous traversals (no LP, no solver).

    All LogGPS parameters other than the latency are folded from ``params``
    as constants, exactly as the LP bakes them into its constraint constants
    (and as the optimum pins every symbolic bound).  Numerically identical
    to ``lp_envelope(build_lp(graph, params, ...), ...)`` for every freshly
    built LP with a global latency variable, per-pair gaps included — see
    this module's docstring and ``src/repro/lp/README.md``.

    ``max_pieces`` bounds the piece count of the envelope; overflow raises
    :class:`~repro.lp.parametric.EnvelopeOverflowError` like the other
    parametric engines.
    """
    check_latency_interval(l_min, l_max)
    if max_pieces < 1:
        raise ValueError(f"max_pieces must be positive, got {max_pieces}")
    lo, hi = float(l_min), float(l_max)

    from ..lp.compiler import _pointer_jump
    from .parametric import Line, PiecewiseLinear, _upper_envelope

    n = graph.num_vertices
    m = graph.num_edges
    cost = graph.cost
    size = graph.size
    edge_src = graph.edge_src
    edge_dst = graph.edge_dst

    indeg = graph.in_degrees()
    topo_pos = graph.topo_positions()
    parent = graph.chain_parent()
    chain_eid = graph.chain_in_edge()
    is_comm_edge = np.asarray(graph.edge_kind) == int(EdgeKind.COMM)
    if m:
        bw_edge = size[edge_dst].astype(np.float64)
        bw_edge -= 1.0
        np.maximum(bw_edge, 0.0, out=bw_edge)
    else:
        bw_edge = np.zeros(0)

    # per-vertex deltas with everything but L folded constant, then chain
    # compression back to each anchor — the compiler's own machinery
    calc = np.asarray(graph.kind) == int(VertexKind.CALC)
    d_const = np.where(calc, cost, params.o)
    d_l = np.zeros(n, dtype=np.float64)
    chain_vertices = np.flatnonzero(chain_eid >= 0)
    chain_edges = chain_eid[chain_vertices]
    comm_chain = is_comm_edge[chain_edges] if m else np.zeros(0, dtype=bool)
    cv = chain_vertices[comm_chain]
    cv_eid = chain_edges[comm_chain]
    d_l[cv] = 1.0
    d_const[cv] += params.G * bw_edge[cv_eid]

    channels = [np.append(d_const, 0.0), np.append(d_l, 0.0)]
    _pointer_jump(n, parent, channels, None)
    anchor = graph.chain_anchor()
    acc_const, acc_l = channels

    # rows: one per (merge vertex, in-edge), exactly the compiled LP's layout
    merges = graph.merge_points()
    merges = merges[np.argsort(topo_pos[merges], kind="stable")]
    level = graph.level_of()
    mlevel = level[merges]  # non-decreasing: the order contract is level-major
    counts = indeg[merges].astype(np.int64)
    row_ptr = np.zeros(len(merges) + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    total = int(row_ptr[-1])
    if total:
        local = np.arange(total, dtype=np.int64) - np.repeat(row_ptr[:-1], counts)
        merge_eids = graph._pred_edges[
            np.repeat(graph._pred_indptr[merges], counts) + local
        ]
        row_u = edge_src[merge_eids]
        e_comm = is_comm_edge[merge_eids]
        row_slope = acc_l[row_u] + e_comm
        row_const = acc_const[row_u] + params.G * np.where(
            e_comm, bw_edge[merge_eids], 0.0
        )
        row_anchor = anchor[row_u]
    else:
        row_slope = row_const = np.zeros(0)
        row_anchor = np.zeros(0, dtype=np.int64)

    sinks = np.asarray(graph.sinks(), dtype=np.int64)

    # state slot of every anchor: 0 for sources, 1 + i for merges[i]
    slot = np.zeros(n, dtype=np.int64)
    slot[merges] = np.arange(1, len(merges) + 1)
    row_slot = slot[row_anchor]
    sink_slot = slot[anchor[sinks]]
    sink_slope = acc_l[sinks][:, None]
    sink_const = acc_const[sinks][:, None]
    levels = []
    if len(merges):
        bounds = np.concatenate(
            [[0], np.flatnonzero(np.diff(mlevel)) + 1, [len(merges)]]
        )
        for g0, g1 in zip(bounds[:-1], bounds[1:]):
            r0, r1 = int(row_ptr[g0]), int(row_ptr[g1])
            levels.append((
                1 + g0, 1 + g1, row_slot[r0:r1],
                row_slope[r0:r1, None], row_const[r0:r1, None],
                row_ptr[g0:g1] - r0,
                np.repeat(np.arange(g1 - g0, dtype=np.int64), counts[g0:g1]),
            ))
    one_segment = np.zeros(1, dtype=np.int64)
    sink_seg = np.zeros(len(sinks), dtype=np.int64)

    def evaluate(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # one traversal answers every probe: the winning line per merge slot
        at_inf = np.isinf(xs)
        x = np.where(at_inf, 0.0, xs)
        slope = np.zeros((len(merges) + 1, len(xs)))
        intercept = np.zeros_like(slope)
        for s0, s1, rows, r_slope, r_const, starts, seg in levels:
            slope[s0:s1], intercept[s0:s1] = _winners(
                slope[rows] + r_slope, intercept[rows] + r_const,
                starts, seg, x, at_inf,
            )
        final_slope, final_intercept = _winners(
            slope[sink_slot] + sink_slope, intercept[sink_slot] + sink_const,
            one_segment, sink_seg, x, at_inf,
        )
        return final_slope[0], final_intercept[0]

    lines, _ = tangent_search(evaluate, lo, hi, max_pieces=max_pieces)
    final = _upper_envelope([Line(s, c) for _, s, c in lines], lo, hi)
    return PiecewiseLinear(lines=final, lo=lo, hi=hi)
