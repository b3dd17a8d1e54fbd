"""Tests for the exact parametric critical-path engine."""

import numpy as np
import pytest

from repro.core import analyze_critical_path, build_lp, parametric_analysis
from repro.core.parametric import Line, PiecewiseLinear, _upper_envelope
from repro.network.params import LogGPSParams
from repro.schedgen.graph import GraphBuilder


class TestUpperEnvelope:
    def test_single_line(self):
        env = _upper_envelope([Line(1.0, 2.0)], 0.0, 10.0)
        assert env == [Line(1.0, 2.0)]

    def test_dominated_line_removed(self):
        # same slope, lower intercept is dominated
        env = _upper_envelope([Line(1.0, 2.0), Line(1.0, 1.0)], 0.0, 10.0)
        assert env == [Line(1.0, 2.0)]

    def test_crossing_lines_kept(self):
        env = _upper_envelope([Line(0.0, 5.0), Line(1.0, 0.0)], 0.0, 10.0)
        assert len(env) == 2

    def test_line_outside_domain_dropped(self):
        # the steep line only wins beyond x = 100, outside the domain
        env = _upper_envelope([Line(0.0, 100.0), Line(1.0, 0.0)], 0.0, 10.0)
        assert env == [Line(0.0, 100.0)]

    def test_middle_line_dominated_by_neighbours(self):
        # line b is below max(a, c) everywhere
        a, b, c = Line(0.0, 10.0), Line(1.0, 0.0), Line(2.0, -5.0)
        env = _upper_envelope([a, b, c], 0.0, 100.0)
        assert b not in env

    def test_envelope_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        lines = [Line(float(s), float(c)) for s, c in
                 zip(rng.integers(0, 6, 15), rng.uniform(-5, 5, 15))]
        env = _upper_envelope(lines, 0.0, 20.0)
        xs = np.linspace(0.0, 20.0, 101)
        for x in xs:
            full = max(line(x) for line in lines)
            kept = max(line(x) for line in env)
            assert kept == pytest.approx(full, abs=1e-9)


class TestPiecewiseLinear:
    def make_pw(self):
        return PiecewiseLinear(lines=[Line(0.0, 1.5), Line(1.0, 1.115)], lo=0.0, hi=10.0)

    def test_value_and_slope(self):
        pw = self.make_pw()
        assert pw.value(0.0) == pytest.approx(1.5)
        assert pw.value(1.0) == pytest.approx(2.115)
        assert pw.slope(0.0) == 0.0
        assert pw.slope(1.0) == 1.0

    def test_breakpoints(self):
        assert self.make_pw().breakpoints() == pytest.approx([0.385])

    def test_slope_at_breakpoint_is_from_above(self):
        assert self.make_pw().slope(0.385) == pytest.approx(1.0)

    def test_segment_of(self):
        pw = self.make_pw()
        lo, hi = pw.segment_of(0.1)
        assert lo == 0.0 and hi == pytest.approx(0.385)
        lo, hi = pw.segment_of(5.0)
        assert lo == pytest.approx(0.385) and hi == 10.0

    def test_solve_for_value(self):
        pw = self.make_pw()
        assert pw.solve_for_value(2.0) == pytest.approx(0.885)
        assert pw.solve_for_value(100.0) == pytest.approx(10.0)  # clamped to hi
        with pytest.raises(ValueError):
            pw.solve_for_value(1.0)  # below the runtime at lo

    def test_sample_vectorised(self):
        pw = self.make_pw()
        xs = [0.0, 0.385, 1.0]
        values = pw.sample(xs)
        assert values == pytest.approx([pw.value(x) for x in xs])

    def test_needs_at_least_one_line(self):
        with pytest.raises(ValueError):
            PiecewiseLinear(lines=[], lo=0.0, hi=1.0)

    def test_slope_at_infinity_is_the_steepest_piece(self):
        pw = PiecewiseLinear(
            lines=[Line(3.0, 0.0), Line(0.0, 5.0), Line(1.0, 2.0)], lo=0.0, hi=np.inf
        )
        assert pw.slope(np.inf) == 3.0 == pw.slope(1e300)
        # a flat envelope stays flat at infinity
        assert PiecewiseLinear(lines=[Line(0.0, 5.0)], lo=0.0, hi=np.inf).slope(np.inf) == 0.0

    def test_unbounded_curve_ends_on_the_steepest_tangent(self):
        # the last segment of [0.5, ∞) has its mid-point at ∞; its tangent
        # must carry the last piece's slope, as a large finite L does
        from repro.core.critical_latency import critical_latency_curve
        from repro.core.envelope import forward_envelope
        from repro.testing import build_random_dag

        params = LogGPSParams(L=0.5, o=0.2, g=0.0, G=0.001)
        graph = build_random_dag(3)
        curve = critical_latency_curve(graph, 0.5, np.inf, params=params)
        envelope = forward_envelope(graph, params, l_min=0.5, l_max=np.inf)
        assert [t.slope for t in curve] == [2.0, 3.0, 4.0]
        assert curve[-1].L == np.inf
        assert curve[-1].slope == envelope.slope(1e6) == max(ln.slope for ln in envelope.lines)

    def test_vectorised_slopes_at_infinity_warn_nothing(self):
        # the tie bump used to compute inf - inf at x = ∞ and warn
        import warnings

        from repro.core.envelope import forward_envelope
        from repro.testing import build_random_dag

        params = LogGPSParams(L=0.5, o=0.2, g=0.0, G=0.001)
        envelope = forward_envelope(build_random_dag(3), params, l_min=0.5, l_max=np.inf)
        xs = [0.5, *envelope.breakpoints(), 1e6, np.inf, 2.0, np.inf]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = envelope.slopes(xs)
            assert got.tolist() == [envelope.slope(x) for x in xs]
        assert got[xs.index(np.inf)] == 4.0
        flat = PiecewiseLinear(lines=[Line(0.0, 5.0)], lo=0.0, hi=np.inf)
        assert flat.slopes([np.inf]).tolist() == [0.0]


class TestParametricAnalysis:
    def test_running_example(self, running_example, paper_params):
        analysis = parametric_analysis(running_example, paper_params, l_min=0.0, l_max=5.0)
        assert analysis.runtime(0.0) == pytest.approx(1.5)
        assert analysis.runtime(0.5) == pytest.approx(1.615)
        assert analysis.latency_sensitivity(0.5) == pytest.approx(1.0)
        assert analysis.critical_latencies() == pytest.approx([0.385])
        assert analysis.latency_tolerance(2.0 / 1.5 - 1.0, baseline_L=0.0) == pytest.approx(0.885)

    def test_feasibility_range(self, running_example, paper_params):
        analysis = parametric_analysis(running_example, paper_params, l_min=0.0, l_max=5.0)
        lo, hi = analysis.feasibility_range(0.2)
        assert lo == 0.0 and hi == pytest.approx(0.385)

    def test_l_ratio_increases_with_latency(self, running_example, paper_params):
        analysis = parametric_analysis(running_example, paper_params, l_min=0.0, l_max=5.0)
        assert analysis.l_ratio(0.1) == 0.0
        assert analysis.l_ratio(1.0) > 0.0
        assert analysis.l_ratio(4.0) > analysis.l_ratio(1.0)

    def test_invalid_interval_rejected(self, running_example, paper_params):
        with pytest.raises(ValueError):
            parametric_analysis(running_example, paper_params, l_min=5.0, l_max=1.0)
        analysis = parametric_analysis(running_example, paper_params)
        with pytest.raises(ValueError):
            analysis.latency_tolerance(-0.1)

    @pytest.mark.parametrize("L", [0.0, 0.25, 0.5, 1.0, 3.0, 7.5])
    def test_matches_lp_and_forward_pass(self, running_example, paper_params, L):
        analysis = parametric_analysis(running_example, paper_params, l_min=0.0, l_max=10.0)
        lp = build_lp(running_example, paper_params)
        cp = analyze_critical_path(running_example, paper_params.with_latency(L))
        assert analysis.runtime(L) == pytest.approx(lp.solve_runtime(L=L).objective)
        assert analysis.runtime(L) == pytest.approx(cp.runtime)

    def test_chain_of_messages_slope_counts_messages(self):
        """A chain of k dependent messages must have slope k for large L."""
        k = 4
        builder = GraphBuilder(nranks=2)
        prev = {0: -1, 1: -1}

        def add(rank, vid):
            if prev[rank] >= 0:
                builder.add_dependency(prev[rank], vid)
            prev[rank] = vid

        for i in range(k):
            src, dst = i % 2, (i + 1) % 2
            s = builder.add_send(src, dst, 8, tag=i)
            r = builder.add_recv(dst, src, 8, tag=i)
            add(src, s)
            add(dst, r)
            builder.add_comm_edge(s, r)
        graph = builder.freeze()
        params = LogGPSParams(L=1.0, o=0.1, G=0.0)
        analysis = parametric_analysis(graph, params, l_min=0.0, l_max=100.0)
        assert analysis.latency_sensitivity(50.0) == pytest.approx(k)
