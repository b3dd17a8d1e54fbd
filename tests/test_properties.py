"""Property-based tests (Hypothesis) on core invariants.

The central correctness property of the whole toolchain is that four
independent implementations of the LogGPS timing semantics agree on every
graph:

* the LP generated by Algorithm 1 (solved with HiGHS),
* the plain forward-pass critical-path analysis,
* the discrete-event simulator (with ``g = 0`` and no injector/noise),
* the exact parametric envelope.

Hypothesis generates random execution DAGs (random per-rank chains of
computation with randomly matched messages and random non-blocking overlap)
and random LogGPS configurations, and checks the agreement plus the convexity
and monotonicity properties the analysis relies on.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import analyze_critical_path, build_lp, parametric_analysis
from repro.mpi import run_program
from repro.network.params import LogGPSParams
from repro.schedgen import build_graph
from repro.schedgen.graph import GraphBuilder
from repro.simulator import simulate


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@st.composite
def random_graphs(draw):
    """Random execution DAGs built from random message patterns."""
    nranks = draw(st.integers(min_value=2, max_value=4))
    n_messages = draw(st.integers(min_value=1, max_value=8))
    builder = GraphBuilder(nranks=nranks)
    frontier = [-1] * nranks

    def advance(rank, vid):
        if frontier[rank] >= 0:
            builder.add_dependency(frontier[rank], vid)
        frontier[rank] = vid

    for m in range(n_messages):
        src = draw(st.integers(min_value=0, max_value=nranks - 1))
        dst = draw(st.integers(min_value=0, max_value=nranks - 1).filter(lambda r: r != src))
        size = draw(st.integers(min_value=1, max_value=4096))
        pre_src = draw(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
        pre_dst = draw(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
        if pre_src > 0:
            advance(src, builder.add_calc(src, pre_src))
        if pre_dst > 0:
            advance(dst, builder.add_calc(dst, pre_dst))
        s = builder.add_send(src, dst, size, tag=m)
        advance(src, s)
        r = builder.add_recv(dst, src, size, tag=m)
        # half of the receives are "non-blocking": they do not advance the frontier
        blocking = draw(st.booleans())
        if frontier[dst] >= 0:
            builder.add_dependency(frontier[dst], r)
        if blocking:
            frontier[dst] = r
        builder.add_comm_edge(s, r)
    # terminal compute so sinks have costs
    for rank in range(nranks):
        advance(rank, builder.add_calc(rank, draw(st.floats(min_value=0.0, max_value=20.0))))
    return builder.freeze()


@st.composite
def random_params(draw):
    return LogGPSParams(
        L=draw(st.floats(min_value=0.0, max_value=20.0)),
        o=draw(st.floats(min_value=0.0, max_value=5.0)),
        g=0.0,
        G=draw(st.floats(min_value=0.0, max_value=0.01)),
    )


# ---------------------------------------------------------------------------
# agreement properties
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(graph=random_graphs(), params=random_params())
def test_lp_equals_forward_pass(graph, params):
    lp_runtime = build_lp(graph, params).solve_runtime().objective
    cp_runtime = analyze_critical_path(graph, params).runtime
    assert lp_runtime == pytest.approx(cp_runtime, rel=1e-7, abs=1e-7)


@settings(max_examples=40, deadline=None)
@given(graph=random_graphs(), params=random_params())
def test_simulator_equals_forward_pass(graph, params):
    sim = simulate(graph, params).makespan
    cp = analyze_critical_path(graph, params).runtime
    assert sim == pytest.approx(cp, rel=1e-7, abs=1e-7)


@settings(max_examples=30, deadline=None)
@given(graph=random_graphs(), params=random_params(),
       latency=st.floats(min_value=0.0, max_value=100.0))
def test_parametric_equals_forward_pass(graph, params, latency):
    analysis = parametric_analysis(graph, params, l_min=0.0, l_max=200.0)
    reference = analyze_critical_path(graph, params.with_latency(latency)).runtime
    assert analysis.runtime(latency) == pytest.approx(reference, rel=1e-7, abs=1e-7)


# ---------------------------------------------------------------------------
# structural properties of T(L) and λ_L
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(graph=random_graphs(), params=random_params())
def test_runtime_monotone_and_convex_in_latency(graph, params):
    analysis = parametric_analysis(graph, params, l_min=0.0, l_max=200.0)
    xs = [0.0, 10.0, 50.0, 100.0, 200.0]
    values = [analysis.runtime(x) for x in xs]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-9
    slopes = [analysis.latency_sensitivity(x) for x in xs]
    for a, b in zip(slopes, slopes[1:]):
        assert b >= a - 1e-9


@settings(max_examples=30, deadline=None)
@given(graph=random_graphs(), params=random_params())
def test_lambda_bounded_by_longest_message_chain(graph, params):
    analysis = parametric_analysis(graph, params, l_min=0.0, l_max=10_000.0)
    assert analysis.latency_sensitivity(9_999.0) <= graph.longest_message_chain() + 1e-9


@settings(max_examples=25, deadline=None)
@given(graph=random_graphs(), params=random_params(),
       degradation=st.floats(min_value=0.001, max_value=0.5))
def test_tolerance_inverts_runtime(graph, params, degradation):
    """T(tolerance) must not exceed the allowed bound, and the tolerance is maximal."""
    analysis = parametric_analysis(graph, params, l_min=0.0, l_max=100_000.0)
    base = analysis.runtime(params.L)
    tol = analysis.latency_tolerance(degradation)
    bound = (1.0 + degradation) * base
    assert analysis.runtime(tol) <= bound * (1 + 1e-9)
    if tol < 100_000.0 - 1e-6 and analysis.latency_sensitivity(tol + 1.0) > 0:
        assert analysis.runtime(tol + 1.0) >= bound - 1e-6


# ---------------------------------------------------------------------------
# collectives: expansion invariants
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(nranks=st.integers(min_value=2, max_value=9),
       size=st.integers(min_value=1, max_value=10_000))
def test_allreduce_expansion_is_balanced(nranks, size):
    """Every rank sends exactly as many messages as it receives in an allreduce."""

    def app(comm):
        comm.allreduce(size)

    graph = build_graph(run_program(app, nranks))
    from repro.schedgen.graph import VertexKind
    import numpy as np

    sends = np.zeros(nranks, dtype=int)
    recvs = np.zeros(nranks, dtype=int)
    for v in range(graph.num_vertices):
        if graph.kind[v] == VertexKind.SEND:
            sends[graph.rank[v]] += 1
        elif graph.kind[v] == VertexKind.RECV:
            recvs[graph.rank[v]] += 1
    assert sends.sum() == recvs.sum() == graph.num_messages
    # allreduce is symmetric: every rank ends up with the reduced value, so
    # every rank must receive at least one message
    assert (recvs > 0).all()


@settings(max_examples=15, deadline=None)
@given(nranks=st.integers(min_value=2, max_value=8),
       delta=st.floats(min_value=0.0, max_value=50.0))
def test_trace_pipeline_preserves_runtime(nranks, delta):
    """program -> trace -> graph must predict the same runtime as program -> graph."""
    params = LogGPSParams(L=1.0 + delta, o=0.5, G=0.0001)

    def app(comm):
        comm.compute(30.0)
        comm.allreduce(64)
        nxt = (comm.rank + 1) % comm.size
        prv = (comm.rank - 1) % comm.size
        comm.sendrecv(nxt, 128, prv, 128)
        comm.compute(10.0)

    from repro.mpi import trace_program
    from repro.schedgen import ScheduleGenerator

    program = run_program(app, nranks)
    direct = build_graph(program)
    via_trace = ScheduleGenerator().build_from_trace(trace_program(program, params))
    t_direct = analyze_critical_path(direct, params).runtime
    t_trace = analyze_critical_path(via_trace, params).runtime
    assert t_trace == pytest.approx(t_direct, rel=1e-6)


# ---------------------------------------------------------------------------
# the level engine equals the frontier-peel oracle
# ---------------------------------------------------------------------------

def _random_program_with_collectives(seed: int, nranks: int):
    """A random point-to-point program with one collective round appended.

    The collective round makes the ``CollectiveAlgorithms`` axis meaningful:
    different expansions reshape the emitted schedule, so the levels must
    match per algorithm, not just for the point-to-point subset.
    """
    from repro.mpi.program import OpKind, ProgramOp
    from repro.testing import build_random_program

    program = build_random_program(seed, nranks=nranks, rounds=6, big_size=2048)
    for rank in range(nranks):
        program.rank(rank).append(ProgramOp(kind=OpKind.ALLREDUCE, size=4096))
        program.rank(rank).append(ProgramOp(kind=OpKind.ALLGATHER, size=512))
    return program


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    nranks=st.integers(min_value=2, max_value=5),
    allreduce=st.sampled_from(("recursive_doubling", "ring", "reduce_bcast")),
    allgather=st.sampled_from(("ring", "recursive_doubling")),
    rendezvous=st.booleans(),
)
def test_levels_equal_frontier_peel(seed, nranks, allreduce, allgather, rendezvous):
    from repro.schedgen.builder import ProtocolConfig
    from repro.schedgen.collectives import CollectiveAlgorithms
    from repro.schedgen.columnar import ScheduleBatches
    from repro.testing import frontier_peel_levels

    program = _random_program_with_collectives(seed, nranks)
    algorithms = CollectiveAlgorithms(allreduce=allreduce, allgather=allgather)
    # A small eager threshold routes the "big" messages through the RTS/CTS
    # handshake when rendezvous expansion is on; off keeps them single-edge.
    protocol = ProtocolConfig(eager_threshold=1024, expand_rendezvous=rendezvous)
    graph = ScheduleBatches.from_program(
        program, algorithms=algorithms, protocol=protocol
    ).graph_for(LogGPSParams())

    indptr, order = graph.topo_levels()
    p_indptr, p_order = frontier_peel_levels(graph)
    np.testing.assert_array_equal(indptr, p_indptr)
    np.testing.assert_array_equal(order, p_order)


