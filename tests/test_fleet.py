"""Tests for the scenario-fleet driver and its ``llamp fleet`` CLI."""

from __future__ import annotations

import json
import math
import multiprocessing
from collections import Counter

import pytest

from repro.apps import ALL_APPS
from repro.artifacts import ArtifactStore
from repro.cli import main
from repro.network.params import CSCS_TESTBED
from repro.parallel import ScenarioFleet, live_shared_segments
from repro.schedgen.collectives import CollectiveAlgorithms

L_MAX = 50.0


def _strict_json(text: str):
    """``json.loads`` that rejects ``NaN``/``Infinity``, which are not JSON."""

    def reject(constant):
        raise ValueError(f"not valid JSON: {constant}")

    return json.loads(text, parse_constant=reject)


@pytest.fixture(autouse=True)
def no_leaked_segments():
    before = live_shared_segments()
    yield
    leaked = live_shared_segments() - before
    assert not leaked, f"test leaked shared-memory segments: {sorted(leaked)}"
    assert multiprocessing.active_children() == []


def _fleet(**overrides):
    kwargs = dict(
        apps=["lulesh"],
        nranks=[2],
        allreduces=["ring"],
        params_grid=[CSCS_TESTBED],
        injectors=[None, "sender_delay"],
        l_max=L_MAX,
        sim_deltas=(0.0, 5.0),
        processes=1,
    )
    kwargs.update(overrides)
    return ScenarioFleet(**kwargs)


class TestScenarioFleet:
    def test_grid_expansion_is_the_full_product(self):
        fleet = _fleet(
            apps=["lulesh", "hpcg"],
            nranks=[2, 4],
            allreduces=["ring", "recursive_doubling"],
            params_grid=[CSCS_TESTBED, CSCS_TESTBED.replace(L=10.0)],
            injectors=[None, "sender_delay", "ideal"],
        )
        scenarios = fleet.scenarios()
        assert len(scenarios) == 2 * 2 * 2 * 2 * 3
        assert len({sc.name for sc in scenarios}) == len(scenarios)
        # deterministic nested-loop order: apps is the outermost axis
        assert scenarios[0].app == "lulesh" and scenarios[-1].app == "hpcg"

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError, match="unknown applications"):
            _fleet(apps=["not_an_app"])

    @pytest.mark.parametrize("delta", [-5.0, math.nan, math.inf])
    def test_bad_sim_delta_rejected(self, delta):
        # a negative ΔL would simulate a latency below the base one
        with pytest.raises(ValueError, match="sim_deltas must be finite and non-negative"):
            _fleet(sim_deltas=(0.0, delta))

    @pytest.mark.parametrize("l_max", [math.inf, math.nan, CSCS_TESTBED.L])
    def test_l_max_must_be_finite_and_above_every_latency(self, l_max):
        with pytest.raises(ValueError, match="l_max .* must be finite and exceed"):
            _fleet(l_max=l_max)

    def test_run_produces_rows_and_metrics(self):
        result = _fleet().run()
        assert len(result.rows) == 2
        lp_row = next(r for r in result.rows if r["injector"] is None)
        sim_row = next(r for r in result.rows if r["injector"] == "sender_delay")
        for row in (lp_row, sim_row):
            assert row["runtime_us"] > 0
            assert row["lambda_L"] >= 0
            assert 0 <= row["rho_L"] <= 1
            assert row["tolerance_1pct_us"] is not None
        assert "sim_runtime_us" not in lp_row
        assert len(sim_row["sim_runtime_us"]) == 2  # one per sim delta
        assert result.summary["results"]["unique_graphs"] == 1

    def test_shards_and_summary_are_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        r1 = _fleet().run(output_dir=out1)
        r2 = _fleet(processes=2).run(output_dir=out2)
        assert [p.name for p in r1.shard_paths] == ["FLEET_lulesh.json"]
        assert r1.summary_path.name == "FLEET_summary.json"
        # inline and pooled runs write the same bytes: rows carry no worker
        # identity
        assert r1.summary_path.read_bytes() == r2.summary_path.read_bytes()
        assert r1.shard_paths[0].read_bytes() == r2.shard_paths[0].read_bytes()
        shard = _strict_json(r1.shard_paths[0].read_text())
        assert shard["bench"] == "fleet_lulesh"
        assert len(shard["results"]) == 2
        summary = _strict_json(r1.summary_path.read_text())
        assert summary["results"]["scenarios"] == 2
        names = [row["scenario"] for row in summary["results"]["rows"]]
        assert names == sorted(names)

    def test_each_program_recorded_once_per_app_and_nranks(self, monkeypatch):
        calls = Counter()
        for app in ("lulesh", "hpcg"):
            record = ALL_APPS[app].program

            def counting(nranks, *, _app=app, _record=record):
                calls[_app, nranks] += 1
                return _record(nranks)

            monkeypatch.setattr(ALL_APPS[app], "program", counting)
        latencies = [CSCS_TESTBED, CSCS_TESTBED.replace(L=10.0)]
        result = _fleet(
            apps=["lulesh", "hpcg"],
            allreduces=["ring", "recursive_doubling"],
            params_grid=latencies,
            injectors=[None],
        ).run()
        assert calls == {("lulesh", 2): 1, ("hpcg", 2): 1}
        assert len(result.rows) == 2 * 2 * 2
        for row in result.rows:
            params = next(p for p in latencies if p.L == row["L_us"])
            graph = ALL_APPS[row["app"]].build(
                row["nranks"],
                params=params,
                algorithms=CollectiveAlgorithms(allreduce=row["allreduce"]),
            )
            assert row["graph_digest"] == graph.content_digest()

    def test_workers_boot_before_the_first_graph_build(self, monkeypatch):
        import repro.parallel.fleet as fleet_module
        from repro.parallel import SweepPool

        calls = []
        start, build_graph = SweepPool.start, fleet_module.build_graph

        def recording_start(pool):
            calls.append("start")
            start(pool)

        def recording_build(*args, **kwargs):
            calls.append("build_graph")
            return build_graph(*args, **kwargs)

        monkeypatch.setattr(SweepPool, "start", recording_start)
        monkeypatch.setattr(fleet_module, "build_graph", recording_build)
        rows = _fleet(processes=2).run().rows
        assert calls[0] == "start" and "build_graph" in calls

        assert rows == _fleet().run().rows  # the inline run's rows

    def test_failure_after_the_workers_started_tears_them_down(self, monkeypatch):
        import repro.parallel.fleet as fleet_module

        def failing_build(*args, **kwargs):
            raise RuntimeError("graph build failed")

        monkeypatch.setattr(fleet_module, "build_graph", failing_build)
        with pytest.raises(RuntimeError, match="graph build failed") as excinfo:
            _fleet(processes=2).run()
        assert excinfo.traceback
        assert multiprocessing.active_children() == []

    def test_graph_build_failure_tears_the_started_workers_down(self):
        with pytest.raises(ValueError, match="bogus") as excinfo:
            _fleet(allreduces=["bogus"], processes=2).run()
        # excinfo keeps run()'s frame, and so the pool, alive: garbage
        # collection cannot reap the workers, only SweepPool.close can
        assert excinfo.traceback
        assert multiprocessing.active_children() == []


class TestFleetCli:
    ARGS = [
        "fleet", "lulesh",
        "--nranks", "2",
        "--allreduce", "ring",
        "--injectors", "none", "sender_delay",
        "--l-max", str(L_MAX),
        "--processes", "1",
    ]

    def test_text_output_and_shards(self, tmp_path, capsys):
        assert main(self.ARGS + ["--output-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 scenarios" in out
        assert (tmp_path / "FLEET_lulesh.json").exists()
        assert (tmp_path / "FLEET_summary.json").exists()

    def test_json_output(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        payload = _strict_json(capsys.readouterr().out)
        assert payload["bench"] == "fleet_summary"
        assert payload["results"]["scenarios"] == 2

    def test_l_max_must_exceed_base_latency(self):
        with pytest.raises(SystemExit, match="l-max"):
            main(["fleet", "lulesh", "--latencies", "100.0", "--l-max", "50.0"])

    @pytest.mark.parametrize("l_max", ["inf", "nan", "1e400"])
    def test_non_finite_l_max_exits_in_one_line(self, l_max, capsys):
        # an unbounded envelope would print "l_max_us": Infinity, not JSON
        args = [a for a in self.ARGS if a not in ("--l-max", str(L_MAX))]
        with pytest.raises(SystemExit) as exit_info:
            main(args + ["--l-max", l_max, "--json"])
        assert exit_info.value.code == (
            f"--l-max ({float(l_max)} µs) must be finite and exceed every base "
            "latency in the grid"
        )
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("delta", ["-5", "nan", "inf"])
    def test_bad_sim_delta_exits_in_one_line(self, delta, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(self.ARGS + ["--sim-deltas", delta, "0", "--json"])
        assert exit_info.value.code == (
            f"sim_deltas must be finite and non-negative, got {float(delta)}"
        )
        assert capsys.readouterr().out == ""


#: a small grid with every kind of sharing: two latencies share each graph
#: (one ``S``), ``none``/``ideal`` share each envelope, and at one rank the
#: two allreduce algorithms build the same graph
GRID = [
    "fleet", "lulesh", "hpcg",
    "--nranks", "1", "2",
    "--allreduce", "recursive_doubling", "ring",
    "--latencies", "3.0", "5.0",
    "--injectors", "none", "ideal",
    "--sim-deltas", "0", "7.5",
    "--l-max", str(L_MAX),
    "--json",
]


class _Work:
    """Counts every expensive call a fleet makes in this process."""

    def __init__(self, monkeypatch):
        import repro.core.envelope as envelope
        import repro.parallel.fleet as fleet_module
        import repro.simulator.columnar as columnar
        from repro.artifacts import ArtifactStore
        from repro.parallel import SweepPool

        self.programs, self.builds = Counter(), Counter()
        self.envelopes, self.simulations = Counter(), Counter()
        self.starts, self.misses = 0, []

        for app in ("lulesh", "hpcg"):
            record = ALL_APPS[app].program

            def program(nranks, *, _app=app, _record=record):
                self.programs[_app, nranks] += 1
                return _record(nranks)

            monkeypatch.setattr(ALL_APPS[app], "program", program)

        build_graph = fleet_module.build_graph

        def counting_build(program, *, algorithms, protocol):
            graph = build_graph(program, algorithms=algorithms, protocol=protocol)
            self.builds[graph.content_digest(), algorithms, protocol] += 1
            return graph

        forward_envelope = envelope.forward_envelope

        def counting_envelope(graph, params, *, l_min, l_max):
            self.envelopes[graph.content_digest(), params.content_digest(), l_min, l_max] += 1
            return forward_envelope(graph, params, l_min=l_min, l_max=l_max)

        simulate_sweep = columnar.simulate_sweep

        def counting_sweep(graph, params, deltas, *, injector):
            key = (graph.content_digest(), params.content_digest(), injector, tuple(deltas))
            self.simulations[key] += 1
            return simulate_sweep(graph, params, deltas, injector=injector)

        start = SweepPool.start

        def counting_start(pool):
            self.starts += 1
            start(pool)

        get = ArtifactStore.get

        def counting_get(store, kind, key):
            entry = get(store, kind, key)
            if entry is None:
                self.misses.append(kind)
            return entry

        monkeypatch.setattr(fleet_module, "build_graph", counting_build)
        monkeypatch.setattr(envelope, "forward_envelope", counting_envelope)
        monkeypatch.setattr(columnar, "simulate_sweep", counting_sweep)
        monkeypatch.setattr(SweepPool, "start", counting_start)
        monkeypatch.setattr(ArtifactStore, "get", counting_get)


def _run_cli(argv, capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


class TestNoAnswerComputedTwice:
    @pytest.mark.parametrize("processes", ["1", "2"])
    def test_warm_fleet_does_no_work(self, tmp_path, capsys, monkeypatch, processes):
        argv = GRID + ["--processes", processes, "--cache-dir", str(tmp_path)]
        cold = _run_cli(argv, capsys)
        work = _Work(monkeypatch)
        warm = _run_cli(argv, capsys)
        assert warm == cold  # byte-identical
        assert not work.programs and not work.builds
        assert not work.envelopes and not work.simulations
        assert work.starts == 0 and work.misses == []
        results = _strict_json(warm)["results"]
        assert results["unique_graphs"] == len({row["graph_digest"] for row in results["rows"]})
        # lulesh and hpcg at 1 rank build one graph for both algorithms
        assert results["unique_graphs"] == 2 + 2 * 2

    @pytest.mark.parametrize("store", [False, True])
    def test_cold_fleet_builds_each_thing_once(self, tmp_path, capsys, monkeypatch, store):
        work = _Work(monkeypatch)
        argv = GRID + ["--processes", "1"]
        if store:
            argv += ["--cache-dir", str(tmp_path)]
        results = _strict_json(_run_cli(argv, capsys))["results"]
        rows = results["rows"]
        assert len(rows) == 2 * 2 * 2 * 2 * 2
        assert work.programs == {(app, n): 1 for app in ("lulesh", "hpcg") for n in (1, 2)}
        # one graph per recipe: the two latencies share one S
        assert len(work.builds) == 2 * 2 * 2 and set(work.builds.values()) == {1}
        # one envelope per (graph, params, l_max), whatever the injector count
        envelope_keys = {(r["graph_digest"], r["L_us"]) for r in rows}
        assert len(work.envelopes) == len(envelope_keys) == 2 * 6
        assert set(work.envelopes.values()) == {1}
        # one simulated sweep per (graph, params, injector, ΔLs)
        assert len(work.simulations) == len(envelope_keys)
        assert set(work.simulations.values()) == {1}
        assert all(key[2:] == ("ideal", (0.0, 7.5)) for key in work.simulations)
        if store:
            stats = ArtifactStore(tmp_path).stats()["kinds"]
            assert stats["recipe"]["entries"] == 2 * 2 * 2
            assert stats["envelope"]["entries"] == stats["simulation"]["entries"] == 12
            assert stats["graph"]["entries"] == 0

    def test_new_schedule_version_rebuilds_the_graphs(self, tmp_path, capsys, monkeypatch):
        import repro.apps

        argv = GRID + ["--processes", "1", "--cache-dir", str(tmp_path)]
        cold = _run_cli(argv, capsys)
        monkeypatch.setattr(repro.apps, "SCHEDULE_VERSION", repro.apps.SCHEDULE_VERSION + 1)
        work = _Work(monkeypatch)
        assert _run_cli(argv, capsys) == cold
        # the aliases of the old version miss; the graphs are rebuilt, and
        # their unchanged digests still address the stored answers
        assert work.misses == ["recipe"] * 8
        assert len(work.builds) == 8 and set(work.builds.values()) == {1}
        assert not work.envelopes and not work.simulations
        assert ArtifactStore(tmp_path).stats()["kinds"]["recipe"]["entries"] == 16
        # the new aliases answer the next run from the store alone
        work = _Work(monkeypatch)
        assert _run_cli(argv, capsys) == cold
        assert not work.builds and work.misses == [] and work.starts == 0

    def test_partial_store_computes_only_what_is_missing(self, tmp_path, capsys, monkeypatch):
        envelopes_only = [a for a in GRID if a != "ideal"]
        _run_cli(envelopes_only + ["--processes", "1", "--cache-dir", str(tmp_path)], capsys)
        work = _Work(monkeypatch)
        argv = GRID + ["--processes", "1", "--cache-dir", str(tmp_path)]
        warm = _run_cli(argv, capsys)
        # the ideal rows need simulations: the pool path rebuilds each graph
        # once, reads every envelope from the store and simulates each once
        assert len(work.builds) == 8 and not work.envelopes
        assert len(work.simulations) == 12 and set(work.simulations.values()) == {1}
        monkeypatch.undo()
        assert _run_cli(GRID + ["--processes", "1"], capsys) == warm
