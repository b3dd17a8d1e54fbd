"""Tests for the forward envelope engine (batched level passes).

The contract under test: ``forward_envelope`` produces the *identical*
``PiecewiseLinear`` envelope — values, slopes and breakpoints to 1e-6 —
as the oracle ``repro.testing.lp_envelope`` (the :class:`ParametricLP`
tangent search), whenever the affinity contract documented in
``src/repro/lp/README.md`` holds.  Non-affine LPs (per-pair HLogGP
variables, moved symbolic bounds) are named by ``forward_incompatibility``;
Algorithm 2 takes graphs only.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.artifacts import ArtifactStore
from repro.core import (
    EnvelopeOverflowError,
    LatencyAnalyzer,
    PiecewiseLinear,
    batched_sweep_graphs,
    build_lp,
    critical_latency_curve,
    find_critical_latencies,
    forward_envelope,
    forward_incompatibility,
    parametric_analysis,
    resolve_envelope_engine,
)
from repro.core import envelope as envelope_module
from repro.core.envelope import _winners
from repro.lp import ParametricLP
from repro.network.params import CSCS_TESTBED, LogGPSParams
from repro.schedgen import build_graph
from repro.schedgen.graph import EdgeKind, GraphBuilder
from repro.testing import (
    build_random_dag,
    build_random_program,
    build_running_example,
    build_staircase,
    lp_envelope,
)

PARAMS = LogGPSParams(L=1.0, o=0.1, g=0.0, G=0.001)
ZERO_OVERHEAD = LogGPSParams(L=1.0, o=0.0, g=0.0, G=0.0)


def assert_envelopes_identical(actual, expected, *, atol=1e-6):
    """Same piece count, and per-piece slopes/intercepts/values agree."""
    assert len(actual.lines) == len(expected.lines)
    for a, b in zip(actual.lines, expected.lines):
        assert a.slope == pytest.approx(b.slope, abs=atol)
        assert a.intercept == pytest.approx(b.intercept, abs=atol)
    xs = np.linspace(actual.lo, actual.hi, 97)
    np.testing.assert_allclose(actual.sample(xs), expected.sample(xs), atol=atol)
    np.testing.assert_allclose(
        actual.breakpoints(), expected.breakpoints(), atol=atol
    )


def assert_envelopes_equivalent(actual, expected, *, atol=1e-6):
    """Pointwise parity, robust to solver-noise degeneracies.

    The LP oracle may keep a zero-width piece when two path costs tie to
    within solver noise (~1e-15); the forward engine resolves the tie
    exactly and drops it.  The *functions* still agree everywhere, so the
    adversarial (Hypothesis) property checks values on a dense grid plus
    extra samples bracketing every breakpoint of either envelope, and
    requires each forward breakpoint to appear among the LP breakpoints.
    """
    bps = sorted(set(actual.breakpoints()) | set(expected.breakpoints()))
    xs = np.linspace(actual.lo, actual.hi, 197)
    near = np.array([b + d for b in bps for d in (-1e-4, 0.0, 1e-4)])
    xs = np.clip(np.concatenate([xs, near]), actual.lo, actual.hi)
    np.testing.assert_allclose(
        actual.sample(xs), expected.sample(xs), atol=atol, rtol=1e-9
    )
    expected_bps = np.asarray(expected.breakpoints())
    for b in actual.breakpoints():
        assert np.any(np.abs(expected_bps - b) <= atol), (
            f"forward breakpoint {b} missing from LP breakpoints {expected_bps}"
        )


def lp_reference(graph, params, *, l_min=0.0, l_max=100.0, **build_kwargs):
    """The LP tangent search's envelope of ``build_lp(graph, params, ...)``."""
    lp = build_lp(graph, params, latency_mode="global", **build_kwargs)
    return lp_envelope(lp, l_min, l_max)


# ---------------------------------------------------------------------------
# exact parity with the ParametricLP oracle
# ---------------------------------------------------------------------------


class TestForwardParity:
    def test_running_example_matches_lp_and_parametric(self):
        graph = build_running_example()
        reference = lp_reference(graph, PARAMS, l_max=50.0)
        forward = forward_envelope(graph, PARAMS, l_min=0.0, l_max=50.0)
        assert_envelopes_identical(forward, reference)
        analysis = parametric_analysis(graph, PARAMS, l_min=0.0, l_max=50.0)
        assert_envelopes_identical(analysis.envelope, reference)

    def test_staircase_has_exact_breakpoints(self):
        k = 6
        graph = build_staircase(k)
        forward = forward_envelope(graph, ZERO_OVERHEAD, l_min=0.0, l_max=float(k + 2))
        assert len(forward.lines) == k
        np.testing.assert_allclose(
            forward.breakpoints(), np.arange(1.0, float(k)), atol=1e-9
        )
        assert_envelopes_identical(
            forward, lp_reference(graph, ZERO_OVERHEAD, l_max=float(k + 2))
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_random_dags_match_lp(self, seed):
        graph = build_random_dag(seed, nranks=4, rounds=12)
        forward = forward_envelope(graph, PARAMS, l_min=0.0, l_max=100.0)
        assert_envelopes_identical(forward, lp_reference(graph, PARAMS))

    @pytest.mark.parametrize("seed", range(3))
    def test_random_programs_match_lp(self, seed):
        graph = build_graph(build_random_program(seed))
        forward = forward_envelope(graph, PARAMS, l_min=0.0, l_max=100.0)
        assert_envelopes_identical(forward, lp_reference(graph, PARAMS))

    @pytest.mark.parametrize("gap_mode", ["constant", "global"])
    @pytest.mark.parametrize("overhead_mode", ["constant", "global"])
    def test_symbolic_gap_and_overhead_modes_stay_affine(
        self, gap_mode, overhead_mode
    ):
        # symbolic gap/overhead variables sit at their params lower bounds at
        # the optimum, so the forward fold is still exact
        graph = build_random_dag(7, nranks=3, rounds=8)
        lp = build_lp(
            graph,
            PARAMS,
            latency_mode="global",
            gap_mode=gap_mode,
            overhead_mode=overhead_mode,
        )
        assert forward_incompatibility(lp) is None
        assert resolve_envelope_engine(lp) == "forward"
        forward = forward_envelope(graph, PARAMS, l_min=0.0, l_max=100.0)
        assert_envelopes_identical(forward, lp_envelope(lp, 0.0, 100.0))


@st.composite
def program_graphs(draw):
    seed = draw(st.integers(min_value=0, max_value=2**16))
    if draw(st.booleans()):
        return build_graph(
            build_random_program(seed, nranks=draw(st.integers(2, 4)), rounds=8)
        )
    return build_random_dag(seed, nranks=draw(st.integers(2, 4)), rounds=8)


@st.composite
def affine_params(draw):
    return LogGPSParams(
        L=draw(st.floats(min_value=0.0, max_value=20.0)),
        o=draw(st.floats(min_value=0.0, max_value=5.0)),
        g=0.0,
        G=draw(st.floats(min_value=0.0, max_value=0.01)),
    )


@settings(max_examples=25, deadline=None)
@given(
    graph=program_graphs(),
    params=affine_params(),
    gap_mode=st.sampled_from(["constant", "global"]),
    overhead_mode=st.sampled_from(["constant", "global"]),
)
def test_forward_equals_lp_property(graph, params, gap_mode, overhead_mode):
    """Hypothesis: forward envelope == ParametricLP envelope on every affine LP."""
    forward = forward_envelope(graph, params, l_min=0.0, l_max=100.0)
    expected = lp_reference(
        graph, params, gap_mode=gap_mode, overhead_mode=overhead_mode
    )
    assert_envelopes_equivalent(forward, expected)


def max_messages_on_a_path(graph) -> float:
    """The most communication edges on any path (edges relaxed in the
    topological order of their sources)."""
    comm = np.asarray(graph.edge_kind) == int(EdgeKind.COMM)
    src, dst = np.asarray(graph.edge_src), np.asarray(graph.edge_dst)
    count = np.zeros(graph.num_vertices)
    for e in np.argsort(graph.topo_positions()[src], kind="stable"):
        count[dst[e]] = max(count[dst[e]], count[src[e]] + comm[e])
    return float(count.max())


@settings(max_examples=15, deadline=None)
@given(graph=program_graphs(), params=affine_params())
def test_forward_to_infinity_matches_lp_property(graph, params):
    """Hypothesis: the ``[lo, ∞)`` envelope is the LP oracle's curve on a
    window past its last breakpoint, and ends on the steepest path line."""
    forward = forward_envelope(graph, params, l_min=0.0, l_max=math.inf)
    assert forward.lines[-1].slope == max_messages_on_a_path(graph)
    window = 2.0 * max([1.0, *forward.breakpoints()])
    expected = lp_reference(graph, params, l_max=window)
    assert_envelopes_equivalent(
        PiecewiseLinear(forward.lines, 0.0, window), expected
    )


def _message_chain(builder, ranks, start_cost, tag):
    """``start_cost`` of compute, then one message per consecutive rank pair."""
    tail = builder.add_calc(ranks[0], start_cost)
    for m, (src, dst) in enumerate(zip(ranks, ranks[1:])):
        send = builder.add_send(src, dst, 1, tag=tag + m)
        recv = builder.add_recv(dst, src, 1, tag=tag + m)
        builder.add_dependency(tail, send)
        builder.add_comm_edge(send, recv)
        tail = recv
    return tail


def build_float_ties():
    """Paths ``L + 2`` (twice, tied, merging at one vertex), ``2L + 1`` and
    ``3L``: all three meet at ``L = 1``, where the ``2L + 1`` path only
    touches the envelope ``max(L + 2, 3L)``."""
    builder = GraphBuilder(nranks=6)
    join = builder.add_calc(1, 0.0)
    for rank, tag in ((0, 100), (2, 200)):
        builder.add_dependency(_message_chain(builder, [rank, 1], 2.0, tag), join)
    _message_chain(builder, [3, 4, 3], 1.0, 300)
    _message_chain(builder, [5, 4, 5, 4], 0.0, 400)
    return builder.freeze()


class TestFloatTies:
    @pytest.mark.parametrize(
        "lo,hi,pieces",
        [
            (0.0, 2.0, 2),  # the first intersection probe lands on the kink
            (0.0, 1.0, 2),  # the kink is the upper end: its right piece counts
            (1.0, 2.0, 1),  # the kink is the lower end: only its right piece
        ],
    )
    def test_piece_count_matches_lp_oracle(self, lo, hi, pieces):
        graph = build_float_ties()
        assert len(graph.merge_points()) == 1
        forward = forward_envelope(graph, ZERO_OVERHEAD, l_min=lo, l_max=hi)
        expected = lp_reference(graph, ZERO_OVERHEAD, l_min=lo, l_max=hi)
        assert len(forward.lines) == len(expected.lines) == pieces
        assert [(ln.slope, ln.intercept) for ln in forward.lines] == [
            (ln.slope, ln.intercept) for ln in expected.lines
        ]

    def test_value_tie_goes_to_the_steeper_line(self):
        # L + 2 and 3L tie at x = 1: the segment right of 1 is 3L
        slope, intercept = _winners(
            np.array([[1.0], [3.0], [2.0]]), np.array([[2.0], [0.0], [0.5]]),
            np.array([0]), np.zeros(3, dtype=np.int64),
            np.array([1.0]), np.array([False]),
        )
        assert (slope[0, 0], intercept[0, 0]) == (3.0, 0.0)

    def test_infinity_takes_the_highest_of_the_steepest_lines(self):
        slope, intercept = _winners(
            np.array([[3.0], [3.0], [1.0]]), np.array([[0.0], [5.0], [100.0]]),
            np.array([0]), np.zeros(3, dtype=np.int64),
            np.array([0.0]), np.array([True]),
        )
        assert (slope[0, 0], intercept[0, 0]) == (3.0, 5.0)


# ---------------------------------------------------------------------------
# fallback on non-affine LPs
# ---------------------------------------------------------------------------


class TestNonAffineFallback:
    def test_per_pair_gap_auto_falls_back_to_lp(self):
        graph = build_random_dag(3)
        lp = build_lp(graph, PARAMS, latency_mode="global", gap_mode="per_pair")
        reason = forward_incompatibility(lp)
        assert reason is not None and "per-pair" in reason
        assert resolve_envelope_engine(lp) == "lp"
        # Algorithm 2 takes the graph; the fresh per-pair LP's tangent
        # search has the same breakpoints
        np.testing.assert_allclose(
            find_critical_latencies(graph, 0.0, 50.0, params=PARAMS),
            sorted(lp_envelope(lp, 0.0, 50.0).breakpoints()),
            atol=1e-6,
        )
        with pytest.raises(TypeError, match="repro.testing.lp_envelope"):
            find_critical_latencies(lp, 0.0, 50.0, params=PARAMS)

    def test_per_pair_latency_mode_is_incompatible(self):
        graph = build_random_dag(3)
        lp = build_lp(graph, PARAMS, latency_mode="per_pair")
        reason = forward_incompatibility(lp)
        assert reason is not None and "latency" in reason

    def test_moved_gap_bound_breaks_affinity(self):
        graph = build_random_dag(3)
        lp = build_lp(graph, PARAMS, latency_mode="global", gap_mode="global")
        assert forward_incompatibility(lp) is None
        lp.set_gap_bound(PARAMS.G + 1.0)
        reason = forward_incompatibility(lp)
        assert reason is not None and "gap lower bound" in reason
        assert resolve_envelope_engine(lp) == "lp"

    def test_moved_overhead_bound_breaks_affinity(self):
        graph = build_random_dag(3)
        lp = build_lp(
            graph, PARAMS, latency_mode="global", overhead_mode="global"
        )
        lp.set_overhead_bound(PARAMS.o + 0.5)
        reason = forward_incompatibility(lp)
        assert reason is not None and "overhead lower bound" in reason


# ---------------------------------------------------------------------------
# interval validation (pinned message) and overflow
# ---------------------------------------------------------------------------


def _tangent_envelope(lo, hi):
    lp = build_lp(build_running_example(), PARAMS, latency_mode="global")
    return ParametricLP(lp.model).tangent_envelope(lp.latency, lo, hi)


#: every entry point that takes a latency interval, on the running example
INTERVAL_ENTRY_POINTS = {
    "find_critical_latencies": lambda lo, hi: find_critical_latencies(
        build_running_example(), lo, hi, params=PARAMS
    ),
    "critical_latency_curve": lambda lo, hi: critical_latency_curve(
        build_running_example(), lo, hi, params=PARAMS
    ),
    "forward_envelope": lambda lo, hi: forward_envelope(
        build_running_example(), PARAMS, l_min=lo, l_max=hi
    ),
    "lp_envelope": lambda lo, hi: lp_envelope(
        build_lp(build_running_example(), PARAMS, latency_mode="global"), lo, hi
    ),
    "tangent_envelope": _tangent_envelope,
}


class TestValidation:
    @pytest.mark.parametrize("entry", sorted(INTERVAL_ENTRY_POINTS))
    @pytest.mark.parametrize(
        "lo,hi", [(5.0, 5.0), (5.0, 1.0), (-1.0, 10.0), (math.nan, 10.0), (0.0, math.nan)]
    )
    def test_critical_latency_interval_validated_up_front(
        self, lo, hi, entry, monkeypatch
    ):
        # every entry point rejects the interval before any LP solve
        def no_solve(*args, **kwargs):
            raise AssertionError("solved an LP before validating the interval")

        monkeypatch.setattr(ParametricLP, "solve", no_solve)
        message = f"invalid latency interval [{lo}, {hi}]: require 0 <= l_min < l_max"
        with pytest.raises(ValueError, match=re.escape(message)):
            INTERVAL_ENTRY_POINTS[entry](lo, hi)

    def test_forward_envelope_interval_validated(self):
        with pytest.raises(ValueError, match="invalid latency interval"):
            forward_envelope(build_running_example(), PARAMS, l_min=3.0, l_max=3.0)

    def test_max_pieces_overflow_raises(self, monkeypatch):
        graph = build_staircase(8)
        monkeypatch.setattr(envelope_module, "MAX_PIECES", 3)
        with pytest.raises(EnvelopeOverflowError, match="narrow the latency"):
            forward_envelope(graph, ZERO_OVERHEAD, l_min=0.0, l_max=20.0)


# ---------------------------------------------------------------------------
# critical latencies and curves through the forward engine
# ---------------------------------------------------------------------------


class TestCriticalLatencies:
    def test_breakpoints_match_lp_engine(self):
        graph = build_staircase(5)
        lp = build_lp(graph, ZERO_OVERHEAD, latency_mode="global")
        assert resolve_envelope_engine(lp) == "forward"
        fw = find_critical_latencies(graph, 0.0, 8.0, params=ZERO_OVERHEAD)
        ref = sorted(lp_envelope(lp, 0.0, 8.0).breakpoints())
        np.testing.assert_allclose(fw, ref, atol=1e-6)
        np.testing.assert_allclose(fw, [1.0, 2.0, 3.0, 4.0], atol=1e-9)

    def test_graph_input_needs_no_lp(self):
        # an ExecutionGraph plus params goes straight to the forward pass
        graph = build_staircase(4)
        points = find_critical_latencies(graph, 0.0, 8.0, params=ZERO_OVERHEAD)
        np.testing.assert_allclose(points, [1.0, 2.0, 3.0], atol=1e-9)
        with pytest.raises(TypeError, match="params"):
            find_critical_latencies(graph, 0.0, 8.0)

    def test_curve_tangents_match_lp_engine(self):
        graph = build_random_dag(11)
        lp = build_lp(graph, PARAMS, latency_mode="global")
        fw = critical_latency_curve(graph, 0.0, 60.0, params=PARAMS)
        ref = lp_envelope(lp, 0.0, 60.0)
        assert len(fw) == len(ref.lines)
        for a in fw:
            assert a.slope == pytest.approx(ref.slope(a.L), abs=1e-6)
            assert a.value == pytest.approx(ref.value(a.L), abs=1e-6)

    def test_analyzer_forward_engine_never_builds_lp(self):
        from repro.lp.assembler import assembly_counts

        before = assembly_counts()
        graph = build_staircase(4)
        analyzer = LatencyAnalyzer(graph, ZERO_OVERHEAD)
        points = analyzer.critical_latencies(0.0, 8.0)
        np.testing.assert_allclose(points, [1.0, 2.0, 3.0], atol=1e-9)
        assert analyzer.bandwidth_sensitivity() == 0.0  # 1-byte messages
        assert assembly_counts() == before  # no LP was ever assembled


# ---------------------------------------------------------------------------
# both evaluators share artifact-store envelope entries
# ---------------------------------------------------------------------------


class TestSharedArtifacts:
    def test_batched_sweep_graphs_engines_agree_serial_and_parallel(self):
        graphs = [build_random_dag(s) for s in (1, 2)]
        reference = [lp_reference(graph, PARAMS, l_max=80.0) for graph in graphs]
        runs = [
            batched_sweep_graphs(graphs, PARAMS, l_max=80.0),
            batched_sweep_graphs(graphs, PARAMS, l_max=80.0, processes=2),
        ]
        for envelopes in runs:
            for envelope, ref in zip(envelopes, reference):
                assert_envelopes_identical(envelope, ref)

    def test_store_key_is_engine_free(self, tmp_path):
        store = ArtifactStore(tmp_path)
        graph = build_random_dag(19)
        serial = batched_sweep_graphs([graph], PARAMS, l_max=40.0, cache_dir=tmp_path)
        assert store.stats()["kinds"]["envelope"]["entries"] == 1
        # an analyzer asks for the same curve: it hits the entry
        analyzer = LatencyAnalyzer(graph, PARAMS, cache_dir=tmp_path)
        again = analyzer.parametric(l_min=0.0, l_max=40.0)
        assert analyzer.store.hits["envelope"] == 1
        assert store.stats()["kinds"]["envelope"]["entries"] == 1
        assert_envelopes_identical(again.envelope, serial[0])


class TestOneCurveOneEntry:
    def test_analyzer_and_batched_sweep_graphs_share_the_entry(self, tmp_path):
        from repro.apps import lulesh

        graph = lulesh.build(8, params=CSCS_TESTBED)
        LatencyAnalyzer(graph, CSCS_TESTBED, cache_dir=tmp_path).parametric(l_max=1e4)
        batched_sweep_graphs(
            [graph], CSCS_TESTBED, l_min=CSCS_TESTBED.L, l_max=1e4,
            cache_dir=tmp_path,
        )
        store = ArtifactStore(tmp_path)
        assert store.stats()["kinds"]["envelope"]["entries"] == 1

    def test_analyzer_hits_the_entry_a_fleet_stored(self, tmp_path):
        from repro.apps import lulesh
        from repro.parallel import ScenarioFleet
        from repro.schedgen.collectives import CollectiveAlgorithms

        fleet = ScenarioFleet(
            apps=["lulesh"], nranks=[2], allreduces=["ring"],
            params_grid=[CSCS_TESTBED], l_max=50.0, processes=1,
            cache_dir=tmp_path,
        )
        (row,) = fleet.run().rows
        entries = ArtifactStore(tmp_path).stats()["kinds"]["envelope"]["entries"]
        graph = lulesh.build(
            2, params=CSCS_TESTBED,
            algorithms=CollectiveAlgorithms(allreduce="ring"),
        )
        assert graph.content_digest() == row["graph_digest"]
        analyzer = LatencyAnalyzer(graph, CSCS_TESTBED, cache_dir=tmp_path)
        analyzer.parametric(l_max=fleet.l_max)
        assert analyzer.store.hits["envelope"] == 1
        assert analyzer.store.misses["envelope"] == 0
        assert ArtifactStore(tmp_path).stats()["kinds"]["envelope"]["entries"] == entries
