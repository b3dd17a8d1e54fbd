"""Tests for the scenario-fleet driver and its ``llamp fleet`` CLI."""

from __future__ import annotations

import json
import math
import multiprocessing
from collections import Counter

import pytest

from repro.apps import ALL_APPS
from repro.cli import main
from repro.network.params import CSCS_TESTBED
from repro.parallel import ScenarioFleet, live_shared_segments
from repro.schedgen.collectives import CollectiveAlgorithms

L_MAX = 50.0


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
        shard = json.loads(r1.shard_paths[0].read_text())
        assert shard["bench"] == "fleet_lulesh"
        assert len(shard["results"]) == 2
        summary = json.loads(r1.summary_path.read_text())
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
        payload = json.loads(capsys.readouterr().out)
        assert payload["bench"] == "fleet_summary"
        assert payload["results"]["scenarios"] == 2

    def test_l_max_must_exceed_base_latency(self):
        with pytest.raises(SystemExit, match="l-max"):
            main(["fleet", "lulesh", "--latencies", "100.0", "--l-max", "50.0"])

    @pytest.mark.parametrize("delta", ["-5", "nan", "inf"])
    def test_bad_sim_delta_exits_in_one_line(self, delta, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(self.ARGS + ["--sim-deltas", delta, "0", "--json"])
        assert exit_info.value.code == (
            f"sim_deltas must be finite and non-negative, got {float(delta)}"
        )
        assert capsys.readouterr().out == ""
