"""Tests for the per-pair forward evaluator (``pair_forward_evaluator``).

The contract under test: one forward pass over the per-pair (HLogGP) edge
costs gives the objective of Algorithm 3's per-pair LP, and its backtrack
gives the message and byte counts of one critical path — a valid
subgradient of the runtime in the pairwise latencies and gaps, equal to the
LP's reduced costs wherever the critical path is unique.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import build_lp
from repro.core.envelope import pair_forward_evaluator
from repro.network import ArchitectureGraph, random_mapping
from repro.network.params import LogGPSParams
from repro.placement import predicted_runtime
from repro.schedgen import build_graph
from repro.schedgen.graph import GraphBuilder
from repro.testing import build_random_dag, build_random_program

PARAMS = LogGPSParams(L=1.0, o=0.1, g=0.0, G=0.001)


def _symmetric(rng, n, low, high):
    raw = rng.uniform(low, high, size=(n, n))
    return (raw + raw.T) / 2


def _arch(rng, nranks):
    nodes = int(rng.integers(1, nranks + 1))
    return ArchitectureGraph(
        num_nodes=nodes,
        processes_per_node=-(-nranks // nodes),
        intra_node_latency=float(rng.uniform(0.05, 1.0)),
        inter_node_latency=_symmetric(rng, nodes, 1.0, 9.0),
        intra_node_gap=float(rng.uniform(0.0, 0.001)),
        inter_node_gap=float(rng.uniform(0.001, 0.02)),
    )


def _path_line(runtime, d_l, d_g, latency, gap):
    """The constant of the path line through ``(latency, gap, runtime)``,
    and the line itself: ``C + Σ_{i<=j} D_L·l + D_G·G``."""
    upper = np.triu(np.ones_like(d_l, dtype=bool))

    def slope_part(lat, per_byte):
        return float((d_l * lat)[upper].sum() + (d_g * per_byte)[upper].sum())

    constant = runtime - slope_part(latency, gap)
    return lambda lat, per_byte: constant + slope_part(lat, per_byte)


@st.composite
def placement_cases(draw):
    seed = draw(st.integers(min_value=0, max_value=2**16))
    nranks = draw(st.integers(2, 5))
    if draw(st.booleans()):
        graph = build_graph(build_random_program(seed, nranks=nranks, rounds=8))
    else:
        graph = build_random_dag(seed, nranks=nranks, rounds=10)
    return graph, np.random.default_rng(seed), draw(st.booleans())


@settings(max_examples=30, deadline=None)
@given(case=placement_cases())
def test_runtime_is_the_lp_objective_and_the_path_a_subgradient(case):
    graph, rng, include_gap = case
    nranks = graph.nranks
    arch = _arch(rng, nranks)
    mapping = random_mapping(nranks, arch, seed=int(rng.integers(1000)))
    evaluate = pair_forward_evaluator(graph, PARAMS)
    latency = arch.latency_matrix(mapping)
    gap = arch.gap_matrix(mapping) if include_gap else None
    runtime, d_l, d_g = evaluate(latency, gap)

    want = predicted_runtime(graph, PARAMS, arch, mapping, include_gap=include_gap)
    assert runtime == pytest.approx(want, rel=1e-9)

    # D_L/D_G are counts of one path: symmetric, integral messages
    assert np.array_equal(d_l, d_l.T) and np.array_equal(d_g, d_g.T)
    assert np.array_equal(d_l, np.round(d_l)) and d_l.min() >= 0 and d_g.min() >= 0
    assert np.all(d_g[d_l == 0] == 0)

    per_byte = gap if include_gap else np.full((nranks, nranks), PARAMS.G)
    line = _path_line(runtime, d_l, d_g, latency, per_byte)
    assert line(latency, per_byte) == pytest.approx(runtime, rel=1e-12)
    others = [(np.zeros_like(latency), np.zeros_like(per_byte)),
              (2.0 * latency, 0.5 * per_byte)]
    others += [(_symmetric(rng, nranks, 0.0, 10.0), _symmetric(rng, nranks, 0.0, 0.02))
               for _ in range(4)]
    for other_latency, other_gap in others:
        other_runtime, _, _ = evaluate(other_latency, other_gap if include_gap else None)
        if not include_gap:
            other_gap = per_byte
        assert line(other_latency, other_gap) <= other_runtime * (1 + 1e-12) + 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_unique_critical_path_matches_lp_reduced_costs(seed):
    # continuous random costs: the critical path is unique almost surely
    graph = build_random_dag(seed, nranks=5, rounds=14)
    rng = np.random.default_rng(seed)
    arch = _arch(rng, 5)
    mapping = random_mapping(5, arch, seed=seed)
    latency, gap = arch.latency_matrix(mapping), arch.gap_matrix(mapping)
    runtime, d_l, d_g = pair_forward_evaluator(graph, PARAMS)(latency, gap)

    lp = build_lp(graph, PARAMS, latency_mode="per_pair", gap_mode="per_pair")
    lp.set_pair_latency_bounds(latency)
    lp.set_pair_gap_bounds(gap)
    solution = lp.model.solve(backend="highs")
    assert runtime == pytest.approx(solution.objective, rel=1e-12)
    np.testing.assert_allclose(d_l, lp.pair_latency_sensitivities(solution), atol=1e-9)
    np.testing.assert_allclose(d_g, lp.pair_gap_sensitivities(solution), atol=1e-6)


def _two_tied_messages():
    """Ranks 0 and 2 each compute 2 µs and send one byte to rank 1, which
    joins both arrivals: with equal latencies the two paths tie."""
    builder = GraphBuilder(nranks=3)
    join = builder.add_calc(1, 0.0)
    for rank, tag in ((0, 100), (2, 200)):
        calc = builder.add_calc(rank, 2.0)
        send = builder.add_send(rank, 1, 1, tag=tag)
        recv = builder.add_recv(1, rank, 1, tag=tag)
        builder.add_dependency(calc, send)
        builder.add_comm_edge(send, recv)
        builder.add_dependency(recv, join)
    return builder.freeze()


class TestTieRule:
    def test_first_maximal_in_edge_wins(self):
        graph = _two_tied_messages()
        evaluate = pair_forward_evaluator(graph, LogGPSParams(L=0.0, o=0.0, G=0.0))
        latency = np.ones((3, 3))
        runtime, d_l, _ = evaluate(latency)
        assert runtime == 3.0
        # the join's first in-edge (in ``_pred_edges`` order) comes from rank 0
        assert (d_l[0, 1], d_l[1, 0], d_l[1, 2]) == (1.0, 1.0, 0.0)
        latency[1, 2] = latency[2, 1] = 1.5
        runtime, d_l, _ = evaluate(latency)
        assert runtime == 3.5
        assert (d_l[0, 1], d_l[1, 2]) == (0.0, 1.0)

    def test_first_maximal_sink_wins(self):
        # no merge at all: two independent messages, each ending in a sink
        builder = GraphBuilder(nranks=4)
        for src, dst in ((2, 3), (0, 1)):
            send = builder.add_send(src, dst, 1, tag=src)
            recv = builder.add_recv(dst, src, 1, tag=src)
            builder.add_comm_edge(send, recv)
        graph = builder.freeze()
        assert len(graph.merge_points()) == 0
        runtime, d_l, _ = pair_forward_evaluator(graph, PARAMS)(np.ones((4, 4)))
        assert runtime == pytest.approx(1.0 + 2 * PARAMS.o)
        # the first sink in vertex order is the receive on rank 3
        assert d_l[2, 3] == 1.0 and d_l[0, 1] == 0.0


def test_graph_without_messages():
    builder = GraphBuilder(nranks=1)
    builder.add_dependency(builder.add_calc(0, 1.5), builder.add_calc(0, 2.0))
    runtime, d_l, d_g = pair_forward_evaluator(builder.freeze(), PARAMS)(np.zeros((1, 1)))
    assert runtime == 3.5
    assert d_l.dtype == d_g.dtype == np.float64 and not d_l.any() and not d_g.any()


def test_nan_runtime_raises_instead_of_hanging():
    graph = _two_tied_messages()
    latency = np.ones((3, 3))
    latency[0, 1] = latency[1, 0] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        pair_forward_evaluator(graph, PARAMS)(latency)
