"""Graph fixtures and reference oracles shared by the tests and the benchmarks.

Importable as ``repro.testing`` so that test modules never have to reach
into a ``conftest.py`` (whose module name is ambiguous when both ``tests/``
and ``benchmarks/`` are collected in one pytest run).

Besides the graph fixtures this module holds the straightforward reference
implementations the production engines are checked against; production
code never imports it:

* :func:`build_lp_symbolic` — Algorithm 1 as written in the paper, a
  per-vertex topological sweep over symbolic expressions (production:
  :func:`repro.core.lp_builder.build_lp`, the vectorised CSR lowering);
* :func:`lp_envelope` — the ``T(L)`` envelope of an LP by Algorithm 2 over
  LP probes, one solve each (production:
  :func:`repro.core.envelope.forward_envelope`, batched forward passes);
* :class:`LogGOPSSimulator` — the per-vertex LogGOPS walk (production:
  :func:`repro.simulator.simulate`, the level-synchronous engine);
* :func:`lp_summary` / :func:`lp_sensitivity_curve` — the analyzer's
  metrics answered by the paper's LP solves, one per point (production:
  reads on one forward envelope);
* :func:`frontier_peel_levels` — the topological levels by peeling one
  in-degree-zero frontier per level (production:
  :meth:`~repro.schedgen.graph.ExecutionGraph.topo_levels`, Kahn relaxation
  over the chain-condensed DAG).

The op-by-op graph builder stays in :mod:`repro.schedgen.builder`, as the
``"legacy"`` oracle switch of
:class:`~repro.schedgen.builder.ScheduleGenerator`.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .core.analyzer import SensitivityCurve
from .core.lp_builder import GraphLP, _pair_key, build_lp
from .lp.model import LinearExpr, LPModel, Sense, Variable
from .network.params import LogGPSParams
from .schedgen.graph import (
    EdgeKind,
    ExecutionGraph,
    GraphBuilder,
    GraphValidationError,
    VertexKind,
)
from .simulator.injector import IdealInjector, LatencyInjector
from .simulator.loggops import SimulationResult
from .simulator.noise import NoiseModel, NoNoise

__all__ = [
    "build_running_example",
    "build_staircase",
    "build_random_dag",
    "build_random_program",
    "frontier_peel_levels",
    "build_lp_symbolic",
    "lp_envelope",
    "lp_summary",
    "lp_sensitivity_curve",
    "LogGOPSSimulator",
]


def build_running_example(c0: float = 0.1) -> ExecutionGraph:
    """The two-rank example of Fig. 4: C0 -> S -> C1 on rank 0, C2 -> R -> C3 on rank 1."""
    builder = GraphBuilder(nranks=2)
    v_c0 = builder.add_calc(0, c0)
    v_s = builder.add_send(0, 1, 4)
    v_c1 = builder.add_calc(0, 1.0)
    builder.chain([v_c0, v_s, v_c1])
    v_c2 = builder.add_calc(1, 0.5)
    v_r = builder.add_recv(1, 0, 4)
    v_c3 = builder.add_calc(1, 1.0)
    builder.chain([v_c2, v_r, v_c3])
    builder.add_comm_edge(v_s, v_r)
    return builder.freeze()


def build_staircase(k: int) -> ExecutionGraph:
    """A graph whose ``T(L)`` envelope has exactly ``k`` linear segments.

    Branch ``i`` (for ``i = 1..k``) is an independent chain of ``i``
    dependent messages bouncing between two ranks, followed by a computation
    of ``sum(i..k-1)`` µs.  With ``o = G = 0`` branch ``i`` contributes the
    line ``i·L + C_i``, and consecutive lines intersect at ``L = i`` — so the
    envelope has breakpoints at ``1, 2, ..., k-1``.
    """
    if k < 1:
        raise ValueError(f"need at least one branch, got {k}")
    builder = GraphBuilder(nranks=2)
    for i in range(1, k + 1):
        tail = None
        for m in range(i):
            src, dst = m % 2, (m + 1) % 2
            s = builder.add_send(src, dst, 1, tag=i * 1000 + m)
            r = builder.add_recv(dst, src, 1, tag=i * 1000 + m)
            if tail is not None:
                builder.add_dependency(tail, s)
            builder.add_comm_edge(s, r)
            tail = r
        intercept = float(sum(range(i, k)))
        calc = builder.add_calc(i % 2, intercept)
        builder.add_dependency(tail, calc)
    return builder.freeze()


def build_random_dag(seed: int, *, nranks: int = 3, rounds: int = 10) -> ExecutionGraph:
    """A random valid execution DAG: per-rank program order + matched messages.

    Every round appends random-cost computations to a subset of the ranks and
    one point-to-point message between a random rank pair.  Vertices are only
    wired to earlier vertices, so the result is acyclic by construction, and
    continuous random costs make degenerate (tied) critical paths improbable
    — which keeps backend comparisons of duals and sensitivities meaningful.
    """
    rng = np.random.default_rng(seed)
    builder = GraphBuilder(nranks=nranks)
    last: list[int | None] = [None] * nranks

    def append(rank: int, vid: int) -> None:
        if last[rank] is not None:
            builder.add_dependency(last[rank], vid)
        last[rank] = vid

    for i in range(rounds):
        for rank in range(nranks):
            if rng.random() < 0.7:
                append(rank, builder.add_calc(rank, float(rng.uniform(0.05, 2.0))))
        src, dst = (int(r) for r in rng.choice(nranks, size=2, replace=False))
        size = int(rng.integers(1, 2048))
        s = builder.add_send(src, dst, size, tag=i)
        r = builder.add_recv(dst, src, size, tag=i)
        append(src, s)
        append(dst, r)
        builder.add_comm_edge(s, r)
    return builder.freeze()


def build_random_program(
    seed: int,
    *,
    nranks: int = 4,
    rounds: int = 12,
    big_size: int = 8192,
    big_probability: float = 0.3,
):
    """A random valid point-to-point :class:`~repro.mpi.program.Program`.

    Used by the builder-engine parity suite: every round appends random
    computation, then one randomly shaped exchange between a random rank
    pair — blocking send/recv, a non-blocking isend/irecv pair closed by
    ``wait``/``waitall``, or a same-size ``sendrecv`` swap.  Message sizes
    exceed ``big_size`` with probability ``big_probability``, so the same
    program exercises both the eager path and (under a small rendezvous
    threshold) the handshake expansion.  The program passes
    ``Program.validate()`` by construction.
    """
    from .mpi.program import OpKind, Program, ProgramOp

    if nranks < 2:
        raise ValueError(f"need at least two ranks, got {nranks}")
    rng = np.random.default_rng(seed)
    program = Program.empty(nranks)
    next_request = [0] * nranks

    def size() -> int:
        if rng.random() < big_probability:
            return int(rng.integers(big_size + 1, 4 * big_size))
        return int(rng.integers(1, 1024))

    for round_index in range(rounds):
        for rank in range(nranks):
            if rng.random() < 0.6:
                program.rank(rank).append(
                    ProgramOp(kind=OpKind.COMPUTE, cost=float(rng.uniform(0.05, 2.0)))
                )
        a, b = (int(r) for r in rng.choice(nranks, size=2, replace=False))
        tag = round_index
        shape = rng.random()
        if shape < 0.4:
            payload = size()
            program.rank(a).append(
                ProgramOp(kind=OpKind.SEND, peer=b, size=payload, tag=tag)
            )
            program.rank(b).append(
                ProgramOp(kind=OpKind.RECV, peer=a, size=payload, tag=tag)
            )
        elif shape < 0.8:
            payload = size()
            send_req = next_request[a]
            next_request[a] += 1
            recv_req = next_request[b]
            next_request[b] += 1
            program.rank(a).append(
                ProgramOp(kind=OpKind.ISEND, peer=b, size=payload, tag=tag, request=send_req)
            )
            program.rank(b).append(
                ProgramOp(kind=OpKind.IRECV, peer=a, size=payload, tag=tag, request=recv_req)
            )
            if rng.random() < 0.5:
                program.rank(b).append(
                    ProgramOp(kind=OpKind.COMPUTE, cost=float(rng.uniform(0.05, 1.0)))
                )
            program.rank(a).append(ProgramOp(kind=OpKind.WAIT, request=send_req))
            program.rank(b).append(
                ProgramOp(kind=OpKind.WAITALL, requests=(recv_req,))
            )
        else:
            # same-size swap: a sendrecv on both ranks (one eager half keeps
            # the blocking handshake expansion acyclic, so stay below the
            # rendezvous threshold on one side)
            payload = int(rng.integers(1, 1024))
            program.rank(a).append(
                ProgramOp(
                    kind=OpKind.SENDRECV, peer=b, size=payload, tag=tag,
                    recv_peer=b, recv_size=payload, recv_tag=tag,
                )
            )
            program.rank(b).append(
                ProgramOp(
                    kind=OpKind.SENDRECV, peer=a, size=payload, tag=tag,
                    recv_peer=a, recv_size=payload, recv_tag=tag,
                )
            )
    program.validate()
    return program


def frontier_peel_levels(graph: ExecutionGraph) -> tuple[np.ndarray, np.ndarray]:
    """The level structure ``(indptr, order)`` by frontier peeling.

    The definition walked literally, in list space: emit every vertex whose
    predecessors are all emitted as the next level, in ascending vertex id,
    and decrement its successors' in-degrees.  Like any per-level peel it
    pays a fixed cost per level (here one NumPy array each), which is what
    ``benchmarks/bench_fused_pipeline.py`` times the level engine against
    on a deep chain.  Raises
    :class:`~repro.schedgen.graph.GraphValidationError` when a cycle leaves
    vertices unemitted.
    """
    n = graph.num_vertices
    indeg = graph.in_degrees().tolist()
    indptr = graph._succ_indptr.tolist()
    succ = graph._succ_indices.tolist()
    parts: list[np.ndarray] = []
    bounds = [0]
    wave = [v for v in range(n) if not indeg[v]]
    while wave:
        parts.append(np.asarray(wave, dtype=np.int64))
        bounds.append(bounds[-1] + len(wave))
        nxt = []
        for v in wave:
            for u in succ[indptr[v]: indptr[v + 1]]:
                indeg[u] -= 1
                if not indeg[u]:
                    nxt.append(u)
        nxt.sort()
        wave = nxt
    if bounds[-1] != n:
        raise GraphValidationError(
            f"graph contains a cycle: only {bounds[-1]} of {n} vertices were ordered"
        )
    order = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    return np.asarray(bounds, dtype=np.int64), order


def build_lp_symbolic(
    graph: ExecutionGraph,
    params: LogGPSParams,
    *,
    latency_mode: str = "global",
    gap_mode: str = "constant",
    overhead_mode: str = "constant",
) -> GraphLP:
    """Algorithm 1 as written: one symbolic expression per vertex.

    Walks ``graph`` in topological order keeping an affine completion time
    per vertex; merge points get a ``y`` variable with one row per incoming
    edge and every sink a ``t >= completion`` row.  Emits the same variables
    in the same order and row-equivalent constraints in the same row order
    as :func:`repro.core.lp_builder.build_lp`, with the same mode knobs.
    """
    if latency_mode not in ("global", "per_pair", "constant"):
        raise ValueError(f"unknown latency_mode {latency_mode!r}")
    if gap_mode not in ("constant", "global", "per_pair"):
        raise ValueError(f"unknown gap_mode {gap_mode!r}")
    if overhead_mode not in ("constant", "global"):
        raise ValueError(f"unknown overhead_mode {overhead_mode!r}")
    model = LPModel(name="llamp")
    t_var = model.add_var("t", lb=0.0)
    latency_var = model.add_var("l", lb=params.L) if latency_mode == "global" else None
    gap_var = model.add_var("G", lb=params.G) if gap_mode == "global" else None
    overhead_var = model.add_var("o", lb=params.o) if overhead_mode == "global" else None
    pair_latency: dict[tuple[int, int], Variable] = {}
    pair_gap: dict[tuple[int, int], Variable] = {}

    def pair_var(table: dict, prefix: str, lb: float, i: int, j: int) -> Variable:
        key = _pair_key(i, j)
        if key not in table:
            table[key] = model.add_var(f"{prefix}_{key[0]}_{key[1]}", lb=lb)
        return table[key]

    def vertex_cost(v: int) -> LinearExpr:
        if graph.kind[v] == VertexKind.CALC:
            return LinearExpr({}, float(graph.cost[v]))
        if overhead_var is not None:
            return overhead_var.to_expr()
        return LinearExpr({}, params.o)

    def comm_edge_cost(src: int, dst: int) -> LinearExpr:
        bandwidth_bytes = max(int(graph.size[dst]) - 1, 0)
        i, j = int(graph.rank[src]), int(graph.rank[dst])
        if latency_mode == "global":
            expr = LinearExpr() + latency_var
        elif latency_mode == "per_pair":
            expr = LinearExpr() + pair_var(pair_latency, "l", params.L, i, j)
        else:
            expr = LinearExpr() + params.L
        if bandwidth_bytes:
            if gap_mode == "global":
                expr = expr + gap_var * float(bandwidth_bytes)
            elif gap_mode == "per_pair":
                expr = expr + pair_var(pair_gap, "G", params.G, i, j) * float(bandwidth_bytes)
            else:
                expr = expr + params.G * bandwidth_bytes
        return expr

    completion: dict[int, LinearExpr] = {}
    num_messages = 0
    for v in graph.topological_order():
        v = int(v)
        incoming = list(graph.in_edges(v))
        if not incoming:
            completion[v] = vertex_cost(v)
            continue
        contributions: list[LinearExpr] = []
        for src, _, kind in incoming:
            if kind is EdgeKind.COMM:
                num_messages += 1
                contributions.append(completion[src] + comm_edge_cost(src, v))
            else:
                contributions.append(completion[src])
        if len(contributions) == 1:
            completion[v] = contributions[0] + vertex_cost(v)
        else:
            y = model.add_var(f"y{v}", lb=0.0)
            for contribution in contributions:
                model.add_constraint(y.to_expr() >= contribution)
            completion[v] = y.to_expr() + vertex_cost(v)

    sink_rows = [
        model.add_constraint(t_var.to_expr() >= completion[int(sink)]).index
        for sink in graph.sinks()
    ]
    model.set_objective(t_var, Sense.MIN)
    return GraphLP(
        model=model,
        graph=graph,
        params=params,
        t=t_var,
        latency=latency_var,
        gap=gap_var,
        overhead=overhead_var,
        pair_latency=pair_latency,
        pair_gap=pair_gap,
        sink_rows=sink_rows,
        num_messages=num_messages,
    )


def lp_envelope(graph_lp: GraphLP, l_min: float, l_max: float, *, backend: str = "highs"):
    """The exact ``T(L)`` envelope of ``graph_lp`` on ``[l_min, l_max]``
    from LP probes: the upper envelope of the tangents
    :meth:`~repro.core.lp_builder.GraphLP.tangent_envelope` finds, one LP
    solve per probe.  Like the forward pass it raises
    :class:`~repro.lp.parametric.EnvelopeOverflowError` beyond
    :data:`repro.core.envelope.MAX_PIECES` pieces (read at call time)."""
    from .core import envelope
    from .core.parametric import Line, PiecewiseLinear, _upper_envelope

    result = graph_lp.tangent_envelope(
        l_min, l_max, backend=backend, max_pieces=envelope.MAX_PIECES
    )
    lo, hi = float(l_min), float(l_max)
    lines = [Line(t.slope, t.intercept) for t in result.tangents]
    return PiecewiseLinear(lines=_upper_envelope(lines, lo, hi), lo=lo, hi=hi)


def lp_sensitivity_curve(
    graph: ExecutionGraph, params: LogGPSParams, delta_Ls: Iterable[float],
    *, backend: str = "highs",
) -> SensitivityCurve:
    """:meth:`~repro.core.analyzer.LatencyAnalyzer.sensitivity_curve` from
    one cold LP solve per ΔL: the runtime is the objective, ``λ_L`` the
    reduced cost of the latency variable."""
    deltas = np.asarray(sorted(set(float(d) for d in delta_Ls)), dtype=np.float64)
    Ls = params.L + deltas
    lp = build_lp(graph, params, latency_mode="global")
    solutions = [lp.solve_runtime(L=float(L), backend=backend) for L in Ls]
    runtimes = np.array([s.objective for s in solutions], dtype=float)
    lambdas = np.array([lp.latency_sensitivity(s) for s in solutions], dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        rhos = np.where(runtimes > 0, Ls * lambdas / runtimes, 0.0)
    return SensitivityCurve(deltas, runtimes, lambdas, rhos)


def lp_summary(
    graph: ExecutionGraph, params: LogGPSParams, *, backend: str = "highs"
) -> dict[str, float]:
    """:meth:`~repro.core.analyzer.LatencyAnalyzer.summary`'s keys from LP
    solves: ``solve_runtime`` at the baseline latency, and one
    ``solve_max_latency`` per tolerance (``math.inf`` when unbounded)."""
    from .lp.model import UnboundedError

    curve = lp_sensitivity_curve(graph, params, [0.0], backend=backend)
    runtime = float(curve.runtime[0])
    summary = {
        "nranks": graph.nranks,
        "events": graph.num_events,
        "messages": graph.num_messages,
        "runtime_us": runtime,
        "lambda_L": float(curve.latency_sensitivity[0]),
        "rho_L": float(curve.l_ratio[0]),
    }
    lp = build_lp(graph, params, latency_mode="global")
    for level in (1, 2, 5):
        lp.set_latency_bound(params.L)
        try:
            tolerance = lp.solve_max_latency(
                (1.0 + level / 100) * runtime, backend=backend
            ).objective
        except UnboundedError:
            tolerance = math.inf
        summary[f"tolerance_{level}pct_us"] = tolerance
    return summary


class LogGOPSSimulator:
    """The per-vertex LogGOPS walk: one Python iteration per vertex in the
    canonical topological order, applying the timing rules of
    :mod:`repro.simulator.loggops` literally, with the injector's ΔL where
    it ``enters`` (the wire, the send, or the receiving rank's progress
    queue) and one :meth:`~repro.simulator.noise.NoiseModel.perturb` draw
    per computation.

    :func:`repro.simulator.simulate` (the level-synchronous engine) is
    timestamp-identical and ~90x faster on trace-scale graphs.
    """

    def __init__(
        self,
        graph: ExecutionGraph,
        params: LogGPSParams,
        injector: LatencyInjector | None = None,
        noise: NoiseModel | None = None,
    ) -> None:
        self.graph = graph
        self.params = params
        self.injector = injector if injector is not None else IdealInjector(0.0)
        self.noise = noise if noise is not None else NoNoise()

    def run(self) -> SimulationResult:
        """Simulate once and return timestamps and the makespan."""
        graph, params, noise = self.graph, self.params, self.noise
        delta, enters = float(self.injector.delta), self.injector.enters
        noise.reset()

        n = graph.num_vertices
        start = np.zeros(n, dtype=np.float64)
        end = np.zeros(n, dtype=np.float64)
        nic_free = np.zeros(graph.nranks, dtype=np.float64)
        progress_free = np.zeros(graph.nranks, dtype=np.float64)
        kind, cost, size, rank = graph.kind, graph.cost, graph.size, graph.rank
        L, o, g, G = params.L, params.o, params.g, params.G
        pred_indptr, pred_edges = graph._pred_indptr, graph._pred_edges
        edge_src, edge_kind = graph.edge_src, graph.edge_kind

        for v in graph.topological_order():
            v = int(v)
            r = int(rank[v])
            ready = 0.0
            for pos in range(pred_indptr[v], pred_indptr[v + 1]):
                eid = int(pred_edges[pos])
                u = int(edge_src[eid])
                if edge_kind[eid] == EdgeKind.COMM:
                    t = end[u] + L + max(int(size[v]) - 1, 0) * G
                    if enters == "wire":
                        t += delta
                    elif enters == "progress":
                        t = progress_free[r] = max(t, progress_free[r]) + delta
                else:
                    t = end[u]
                if t > ready:
                    ready = t
            k = kind[v]
            if k == VertexKind.CALC:
                start[v] = ready
                end[v] = ready + noise.perturb(float(cost[v]))
            elif k == VertexKind.SEND:
                t0 = max(ready, nic_free[r])
                start[v] = t0
                end[v] = t0 + o + (delta if enters == "send" else 0.0)
                nic_free[r] = t0 + g
            else:  # RECV
                start[v] = ready
                end[v] = ready + o

        rank_finish = np.zeros(graph.nranks, dtype=np.float64)
        if n:
            np.maximum.at(rank_finish, rank, end)
        return SimulationResult(
            makespan=float(end.max()) if n else 0.0,
            start=start,
            end=end,
            rank_finish=rank_finish,
            params=params,
        )
