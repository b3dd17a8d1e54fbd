"""Tests for the high-level LatencyAnalyzer API."""

import json
import math

import numpy as np
import pytest

from repro import LatencyAnalyzer
from repro.apps import ALL_APPS
from repro.cli import main as cli_main
from repro.core import build_lp
from repro.mpi import run_program
from repro.network.params import CSCS_TESTBED, LogGPSParams
from repro.schedgen import build_graph
from repro.testing import lp_sensitivity_curve, lp_summary

PARAMS = LogGPSParams(L=2.0, o=1.0, g=0.0, G=0.0005)


@pytest.fixture(scope="module")
def small_app_graph():
    def app(comm):
        for it in range(4):
            comm.compute(200.0)
            nxt = (comm.rank + 1) % comm.size
            prv = (comm.rank - 1) % comm.size
            req = comm.irecv(prv, 256, tag=it)
            comm.send(nxt, 256, tag=it)
            comm.wait(req)
            comm.allreduce(8)

    return build_graph(run_program(app, 4))


@pytest.fixture(scope="module")
def analyzer(small_app_graph):
    return LatencyAnalyzer(small_app_graph, PARAMS)


class TestPredictions:
    def test_runtime_increases_with_delta(self, analyzer):
        base = analyzer.predict_runtime(0.0)
        plus = analyzer.predict_runtime(50.0)
        assert plus > base

    def test_negative_delta_rejected(self, analyzer):
        with pytest.raises(ValueError):
            analyzer.predict_runtime(-1.0)

    def test_baseline_runtime_cached(self, analyzer):
        assert analyzer.baseline_runtime() == pytest.approx(analyzer.predict_runtime(0.0))

    def test_latency_sensitivity_positive(self, analyzer):
        lam = analyzer.latency_sensitivity(0.0)
        assert lam > 0
        # the allreduce alone puts log2(4) = 2 messages per iteration on the path
        assert lam >= 4 * 2

    def test_lambda_bounded_by_longest_chain(self, analyzer, small_app_graph):
        lam = analyzer.latency_sensitivity(500.0)
        assert lam <= small_app_graph.longest_message_chain()

    def test_l_ratio_between_zero_and_one(self, analyzer):
        for delta in (0.0, 10.0, 100.0):
            ratio = analyzer.l_ratio(delta)
            assert 0.0 <= ratio <= 1.0

    def test_prediction_matches_simulator(self, analyzer, small_app_graph):
        from repro.simulator import simulate

        for delta in (0.0, 25.0, 75.0):
            predicted = analyzer.predict_runtime(delta)
            measured = simulate(small_app_graph, PARAMS, delta_L=delta).makespan
            assert predicted == pytest.approx(measured, rel=1e-9)


class TestTolerance:
    def test_tolerances_are_monotone_in_degradation(self, analyzer):
        report = analyzer.tolerance_report()
        assert report.tolerance(0.01) <= report.tolerance(0.02) <= report.tolerance(0.05)

    def test_tolerance_exceeds_baseline_latency(self, analyzer):
        report = analyzer.tolerance_report()
        for _, tol in report.tolerances.items():
            assert tol >= PARAMS.L

    def test_delta_tolerance_consistency(self, analyzer):
        report = analyzer.tolerance_report()
        assert report.delta_tolerance(0.05) == pytest.approx(
            report.tolerance(0.05) - PARAMS.L
        )

    def test_runtime_at_tolerance_respects_bound(self, analyzer):
        tol = analyzer.latency_tolerance(0.05)
        runtime = analyzer.predict_runtime(tol - PARAMS.L)
        assert runtime <= 1.05 * analyzer.baseline_runtime() * (1 + 1e-9)

    def test_tolerance_report_rows(self, analyzer):
        rows = analyzer.tolerance_report().as_rows()
        assert [deg for deg, _, _ in rows] == [0.01, 0.02, 0.05]

    def test_negative_degradation_rejected(self, analyzer):
        with pytest.raises(ValueError):
            analyzer.latency_tolerance(-0.01)

    def test_absolute_vs_delta(self, analyzer):
        absolute = analyzer.latency_tolerance(0.02, absolute=True)
        delta = analyzer.latency_tolerance(0.02, absolute=False)
        assert absolute == pytest.approx(delta + PARAMS.L)


class TestCurves:
    def test_sensitivity_curve_shapes(self, analyzer):
        curve = analyzer.sensitivity_curve([0.0, 20.0, 40.0, 80.0])
        assert len(curve.delta_L) == 4
        assert np.all(np.diff(curve.runtime) >= -1e-9)          # non-decreasing
        assert np.all(np.diff(curve.latency_sensitivity) >= -1e-9)  # λ_L non-decreasing
        assert np.all(curve.l_ratio >= 0.0) and np.all(curve.l_ratio <= 1.0)

    def test_curve_rejects_negative(self, analyzer):
        with pytest.raises(ValueError):
            analyzer.sensitivity_curve([-1.0, 0.0])

    def test_curve_as_dict(self, analyzer):
        d = analyzer.sensitivity_curve([0.0, 10.0]).as_dict()
        assert set(d) == {"delta_L", "runtime", "latency_sensitivity", "l_ratio"}

    def test_runtime_is_convex_in_delta(self, analyzer):
        deltas = np.linspace(0.0, 200.0, 9)
        curve = analyzer.sensitivity_curve(deltas)
        second_diff = np.diff(curve.runtime, n=2)
        assert np.all(second_diff >= -1e-6)


class TestCriticalLatenciesAndSummary:
    def test_critical_latencies_sorted_within_interval(self, analyzer):
        points = analyzer.critical_latencies(l_min=PARAMS.L, l_max=500.0)
        assert points == sorted(points)
        for p in points:
            assert PARAMS.L < p < 500.0

    def test_summary_keys(self, analyzer, small_app_graph):
        summary = analyzer.summary()
        assert summary["events"] == small_app_graph.num_events
        assert summary["messages"] == small_app_graph.num_messages
        assert summary["tolerance_1pct_us"] <= summary["tolerance_5pct_us"]

    def test_graph_analysis_agrees_with_lp(self, analyzer):
        cp = analyzer.graph_analysis(0.0)
        assert cp.runtime == pytest.approx(analyzer.predict_runtime(0.0))

    def test_parametric_agrees_with_lp(self, analyzer):
        pa = analyzer.parametric(l_max=300.0)
        for delta in (0.0, 50.0, 150.0):
            assert pa.runtime(PARAMS.L + delta) == pytest.approx(
                analyzer.predict_runtime(delta), rel=1e-9
            )

    def test_bandwidth_sensitivity_on_every_analyzer(self, analyzer, small_app_graph):
        lp = build_lp(small_app_graph, PARAMS, gap_mode="global")
        for delta in (0.0, 50.0):
            solution = lp.solve_runtime(L=PARAMS.L + delta)
            assert analyzer.bandwidth_sensitivity(delta) == pytest.approx(
                solution.reduced_cost(lp.gap), abs=1e-6
            )
        assert analyzer.bandwidth_sensitivity() > 0.0

    @pytest.mark.parametrize("delta", [-1.0, math.nan, math.inf])
    def test_bandwidth_sensitivity_rejects_bad_delta(self, analyzer, delta):
        with pytest.raises(ValueError, match="finite and non-negative"):
            analyzer.bandwidth_sensitivity(delta)


class TestCriticalPathCounts:
    """``λ_G`` and ``λ_L`` of the backtracked critical path against the LP on
    random DAGs, probed at segment mid-points of ``T(L)`` (off its
    breakpoints, where the LP's duals are unique)."""

    DAG_PARAMS = LogGPSParams(L=0.5, o=0.2, g=0.0, G=0.001)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_dags_match_the_lp_oracle(self, seed):
        from repro.core.envelope import pair_forward_evaluator
        from repro.testing import build_random_dag

        params, hi = self.DAG_PARAMS, 60.0
        graph = build_random_dag(seed, nranks=2 + seed % 4, rounds=8 + seed)
        analyzer = LatencyAnalyzer(graph, params)
        bounds = [params.L, *analyzer.critical_latencies(l_max=hi), hi]
        evaluate = pair_forward_evaluator(graph, params)
        lp = build_lp(graph, params, gap_mode="global")
        for L in (0.5 * (a + b) for a, b in zip(bounds, bounds[1:])):
            solution = lp.solve_runtime(L=L)
            lambda_g = analyzer.bandwidth_sensitivity(L - params.L)
            assert lambda_g == pytest.approx(solution.reduced_cost(lp.gap), abs=1e-9)
            _, d_l, d_g = evaluate(np.full((graph.nranks, graph.nranks), L))
            assert np.triu(d_g).sum() == lambda_g
            assert np.triu(d_l).sum() == analyzer.latency_sensitivity(L - params.L)
            assert np.triu(d_l).sum() == pytest.approx(lp.latency_sensitivity(solution))


class TestFusedEngine:
    """Analyzers built from programs and op batches instead of frozen graphs
    (``from_program`` / ``from_batches``, the latter through
    ``ScheduleBatches.graph_for``)."""

    @staticmethod
    def _program():
        def app(comm):
            for it in range(3):
                comm.compute(100.0)
                nxt = (comm.rank + 1) % comm.size
                prv = (comm.rank - 1) % comm.size
                req = comm.irecv(prv, 256, tag=it)
                comm.send(nxt, 256, tag=it)
                comm.wait(req)
                comm.allreduce(64)

        return run_program(app, 4)

    def test_from_program_matches_frozen_graph_analyzer(self):
        from repro.schedgen.builder import ProtocolConfig

        program = self._program()
        frozen = LatencyAnalyzer(
            build_graph(program, protocol=ProtocolConfig.from_params(PARAMS)), PARAMS
        )
        fused = LatencyAnalyzer.from_program(program, PARAMS)
        assert fused.baseline_runtime() == pytest.approx(frozen.baseline_runtime())
        assert fused.latency_sensitivity(5.0) == pytest.approx(
            frozen.latency_sensitivity(5.0)
        )
        summary_fused, summary_frozen = fused.summary(), frozen.summary()
        assert summary_fused.keys() == summary_frozen.keys()
        for key, value in summary_frozen.items():
            assert summary_fused[key] == pytest.approx(value), key

    def test_from_batches_matches_from_program(self):
        from repro.schedgen.columnar import batches_from_program

        program = self._program()
        via_program = LatencyAnalyzer.from_program(program, PARAMS)
        via_batches = LatencyAnalyzer.from_batches(
            batches_from_program(program), program.nranks, PARAMS
        )
        assert via_batches.baseline_runtime() == pytest.approx(
            via_program.baseline_runtime()
        )

    def test_materialised_graph_shares_frozen_digest(self):
        from repro.schedgen.builder import ProtocolConfig
        from repro.schedgen.columnar import batches_from_program

        program = self._program()
        fused = LatencyAnalyzer.from_batches(
            batches_from_program(program), program.nranks, PARAMS
        )
        frozen = build_graph(program, protocol=ProtocolConfig.from_params(PARAMS))
        assert fused.graph.content_digest() == frozen.content_digest()


class TestInputValidation:
    # the analyzer solves no LP, so it takes no solver knob
    @pytest.mark.parametrize("argument", ["backend", "gap_symbolic"])
    def test_bad_value_named_in_the_error(self, small_app_graph, argument):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{argument}'"):
            LatencyAnalyzer(small_app_graph, PARAMS, **{argument: "warp"})


def _count_solves(monkeypatch) -> list:
    """Record every LP solve that reaches the backend registry."""
    from repro.lp.backends import BackendRegistry

    calls = []
    original = BackendRegistry.solve

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(BackendRegistry, "solve", counting)
    return calls


def _assert_rel_close(actual: dict, expected: dict, rel: float = 1e-9) -> None:
    assert actual.keys() == expected.keys()
    for key, want in expected.items():
        assert actual[key] == pytest.approx(want, rel=rel, abs=1e-12), key


class TestEnvelopeFirst:
    """Default queries come from the forward envelope: no LP is built,
    assembled or solved, and the answers equal the LP oracle's."""

    @pytest.mark.parametrize("app", sorted(ALL_APPS))
    def test_summary_matches_lp_oracle_without_any_lp(self, app, monkeypatch):
        from repro.lp.assembler import assembly_counts

        nranks = 8 if app == "lulesh" else 4
        graph = ALL_APPS[app].build(nranks, params=CSCS_TESTBED)
        solves = _count_solves(monkeypatch)
        before = assembly_counts()
        default = LatencyAnalyzer(graph, CSCS_TESTBED)
        summary = default.summary()
        curve = default.sensitivity_curve([0.0, 5.0, 50.0])
        lambda_g = [default.bandwidth_sensitivity(delta) for delta in (0.0, 50.0)]
        assert assembly_counts() == before
        assert solves == []

        _assert_rel_close(summary, lp_summary(graph, CSCS_TESTBED))
        assert solves  # the oracle really solved LPs
        oracle_curve = lp_sensitivity_curve(graph, CSCS_TESTBED, [0.0, 5.0, 50.0])
        np.testing.assert_allclose(curve.runtime, oracle_curve.runtime, rtol=1e-9)
        np.testing.assert_allclose(curve.l_ratio, oracle_curve.l_ratio, rtol=1e-9)
        # λ_G: the reduced cost of the LP's gap variable
        lp = build_lp(graph, CSCS_TESTBED, gap_mode="global")
        for delta, ours in zip((0.0, 50.0), lambda_g):
            solution = lp.solve_runtime(L=CSCS_TESTBED.L + delta)
            assert ours == pytest.approx(solution.reduced_cost(lp.gap), rel=1e-9)

    def test_envelope_built_once_and_cached_in_the_store(self, small_app_graph, tmp_path):
        cold = LatencyAnalyzer(small_app_graph, PARAMS, cache_dir=tmp_path)
        summary = cold.summary()
        assert cold.store.misses["envelope"] == 1
        assert cold.analysis.envelope.hi == float("inf")
        warm = LatencyAnalyzer(small_app_graph, PARAMS, cache_dir=tmp_path)
        assert warm.summary() == summary
        assert warm.store.hits["envelope"] == 1
        assert warm.store.misses["envelope"] == 0


class TestUnboundedTolerance:
    """A graph with no message never slows down with the latency."""

    @pytest.fixture(scope="class")
    def silent_graph(self):
        from repro.apps import lulesh

        return lulesh.build(1, params=PARAMS, iterations=2)

    # "auto": the analyzer's envelope; "lp": the LP oracle's solves
    @pytest.mark.parametrize("engine", ["auto", "lp"])
    def test_tolerance_is_infinite(self, silent_graph, engine):
        assert silent_graph.num_messages == 0
        if engine == "lp":
            summary = lp_summary(silent_graph, PARAMS)
        else:
            analyzer = LatencyAnalyzer(silent_graph, PARAMS)
            assert analyzer.latency_tolerance(0.01) == math.inf
            assert analyzer.latency_tolerance(0.05, absolute=False) == math.inf
            summary = analyzer.summary()
        assert summary["lambda_L"] == 0.0
        assert summary["tolerance_1pct_us"] == math.inf

    def test_cli_prints_unbounded_and_null(self, capsys):
        assert cli_main(["analyze", "lulesh", "--nranks", "1"]) == 0
        text = capsys.readouterr().out
        assert text.count("latency tolerance : unbounded") == 3
        assert cli_main(["analyze", "lulesh", "--nranks", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for level in (1, 2, 5):
            assert payload[f"tolerance_{level}pct_us"] is None


class TestNonFiniteInput:
    CASES = {
        "analyze-latency-nan": ["--latency", "nan", "analyze", "lulesh", "--nranks", "4", "--json"],
        "analyze-latency-inf": ["--latency", "inf", "analyze", "lulesh", "--nranks", "4", "--json"],
        "curve-l-max-nan": ["curve", "lulesh", "--nranks", "4", "--l-max", "nan", "--json"],
        "curve-l-max-inf": ["curve", "lulesh", "--nranks", "4", "--l-max", "inf", "--json"],
        "sweep-max-delta-nan": ["sweep", "lulesh", "--nranks", "2", "--max-delta", "nan"],
        "cache-warm-l-max-nan": ["cache", "warm", "lulesh", "--nranks", "2", "--l-max", "nan"],
        "fleet-l-max-nan": ["fleet", "lulesh", "--nranks", "2", "--l-max", "nan"],
        "fleet-latencies-nan": ["fleet", "lulesh", "--nranks", "2", "--latencies", "nan"],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cli_exits_with_the_reason(self, case, tmp_path, capsys):
        argv = self.CASES[case]
        if argv[0] == "cache":
            argv = [*argv, "--dir", str(tmp_path)]
        with pytest.raises(SystemExit) as exit_info:
            cli_main(argv)
        assert exit_info.value.code not in (0, None)
        assert capsys.readouterr().out == ""  # no NaN/Infinity answer printed
        assert not list(tmp_path.rglob("*.npz"))  # nothing stored


class TestBadCounts:
    """A ``--nranks`` or ``--points`` below 1 exits in one line that names the
    flag, before any work: nothing on stdout, nothing written."""

    COMMANDS = {
        "analyze": ["analyze", "lulesh"],
        "sweep": ["sweep", "lulesh"],
        "curve": ["curve", "lulesh"],
        "place": ["place", "lulesh"],
        "trace": ["trace", "lulesh", "--output", "OUT"],
        "goal": ["goal", "lulesh", "--output", "OUT"],
        "cache-warm": ["cache", "warm", "lulesh", "--dir", "OUT"],
        "fleet": ["fleet", "lulesh", "--processes", "1"],
    }
    #: (command, flags, the bad flag and value the message names)
    CASES = [
        *((command, ["--nranks", value], "--nranks", value)
          for command in COMMANDS for value in ("0", "-2")),
        ("fleet", ["--nranks", "2", "0"], "--nranks", "0"),
        *((command, ["--nranks", "2", "--points", value], "--points", value)
          for command in ("sweep", "curve") for value in ("0", "-2")),
    ]

    @pytest.mark.parametrize("command,flags,flag,value", CASES)
    def test_exits_in_one_line(self, command, flags, flag, value, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [str(out) if arg == "OUT" else arg for arg in self.COMMANDS[command]]
        with pytest.raises(SystemExit) as exit_info:
            cli_main([*argv, *flags])
        assert exit_info.value.code == f"{flag} must be >= 1, got {value}"
        assert capsys.readouterr().out == ""
        assert not out.exists()


class TestIngestEnvelopeEngine:
    def test_lp_oracle_switch_reaches_ingest(self, tmp_path, capsys, monkeypatch):
        trace = tmp_path / "hpcg-4.trace"
        assert cli_main(["trace", "hpcg", "--nranks", "4", "--output", str(trace)]) == 0
        capsys.readouterr()
        solves = _count_solves(monkeypatch)

        assert cli_main(["ingest", "trace", str(trace), "--json"]) == 0
        default = json.loads(capsys.readouterr().out)
        assert solves == []

        from repro.schedgen.streaming import batches_from_trace_chunked

        batches = batches_from_trace_chunked(str(trace))
        graph = LatencyAnalyzer.from_batches(batches, batches.nranks, CSCS_TESTBED).graph
        oracle = lp_summary(graph, CSCS_TESTBED)
        assert solves
        numbers = [key for key, value in default.items() if isinstance(value, float)]
        assert "tolerance_5pct_us" in numbers
        _assert_rel_close({k: default[k] for k in numbers}, {k: oracle[k] for k in numbers})


class TestSweepEnvelopeEngine:
    def test_lp_oracle_switch_reaches_sweep(self, capsys, monkeypatch):
        solves = _count_solves(monkeypatch)
        assert cli_main(["sweep", "lulesh", "--nranks", "2"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:-1]
        assert solves == []

        from repro.schedgen.collectives import CollectiveAlgorithms

        graph = ALL_APPS["lulesh"].build(
            2, params=CSCS_TESTBED,
            algorithms=CollectiveAlgorithms(allreduce="recursive_doubling"),
        )
        oracle = lp_sensitivity_curve(graph, CSCS_TESTBED, np.linspace(0.0, 100.0, 6))
        assert solves
        assert len(rows) == 6
        for row, runtime, lam, rho in zip(
            rows, oracle.runtime, oracle.latency_sensitivity, oracle.l_ratio
        ):
            # the predicted, λ_L and ρ_L columns, formatted as the CLI prints them
            assert row.split()[2:] == [f"{runtime / 1e6:.4f}", f"{lam:.1f}", f"{rho * 100:.2f}%"]


class TestAutomaticFallback:
    """The LP picks its evaluator: forward passes while it keeps the affinity
    contract, the tangent search over LP probes once per-pair gaps break it."""

    DAG_PARAMS = LogGPSParams(L=0.5, o=0.2, g=0.0, G=0.001)
    L_MAX = 20.0

    @pytest.fixture(scope="class")
    def dag(self):
        from repro.testing import build_random_dag

        return build_random_dag(5, nranks=4, rounds=20)  # two critical latencies

    def _reference(self, graph, params=DAG_PARAMS, l_max=L_MAX):
        from repro.core import build_lp
        from repro.testing import lp_envelope

        lp = build_lp(graph, params, gap_mode="per_pair")
        return lp_envelope(lp, params.L, l_max)

    def test_find_critical_latencies_on_a_per_pair_lp(self, dag, monkeypatch):
        from repro.core import build_lp, find_critical_latencies

        solves = _count_solves(monkeypatch)
        params, lo = self.DAG_PARAMS, self.DAG_PARAMS.L
        forward = find_critical_latencies(dag, lo, self.L_MAX, params=params)
        assert solves == []
        with pytest.raises(TypeError, match="repro.testing.lp_envelope"):
            find_critical_latencies(build_lp(dag, params, gap_mode="per_pair"),
                                    lo, self.L_MAX, params=params)
        reference = sorted(self._reference(dag).breakpoints())
        assert solves
        assert len(reference) == 2
        np.testing.assert_allclose(forward, reference, rtol=1e-9)

    @pytest.mark.parametrize("case", ["random-dag", "hpcg-8"])
    def test_forward_envelope_equals_a_fresh_per_pair_lp(self, dag, case):
        # why sweeps need no LP: nothing moved a bound of a freshly built LP,
        # so at its optimum every per-pair gap sits at params.G and its
        # envelope is the forward pass's, piece for piece
        from repro.core import forward_envelope

        if case == "random-dag":
            graph, params, hi = dag, self.DAG_PARAMS, self.L_MAX
        else:
            graph = ALL_APPS["hpcg"].build(8, params=CSCS_TESTBED)
            params, hi = CSCS_TESTBED, 1000.0
        lo = params.L
        forward = forward_envelope(graph, params, l_min=lo, l_max=hi)
        per_pair = self._reference(graph, params, hi)
        assert len(forward.lines) == len(per_pair.lines) == 3
        for a, b in zip(forward.lines, per_pair.lines):
            assert a.slope == b.slope
            assert a.intercept == pytest.approx(b.intercept, rel=1e-12)
        xs = np.linspace(lo, hi, 41)
        np.testing.assert_allclose(forward.sample(xs), per_pair.sample(xs), rtol=1e-12)
