"""Tests for :mod:`repro.parallel`: graph pickles and the sweep pool.

Every test in this module runs under an autouse leak-check fixture: the set
of ``llamp-*`` segments in ``/dev/shm`` must be unchanged after each test,
and no worker process may outlive the test that started it — including on
error paths.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.artifacts import ArtifactStore
from repro.core.envelope import forward_envelope
from repro.core.lp_builder import build_lp
from repro.core.parametric import ParametricAnalysis, batched_sweep_graphs
from repro.network.params import CSCS_TESTBED, LogGPSParams
from repro.parallel import (
    ScenarioError,
    SweepPool,
    SweepTask,
    live_shared_segments,
)
from repro.parallel.pool import stored_payloads
from repro.schedgen.graph import ExecutionGraph
from repro.testing import (
    build_random_dag,
    build_running_example,
    build_staircase,
    lp_envelope,
)

PARAMS = CSCS_TESTBED


@pytest.fixture(autouse=True)
def no_leaked_segments():
    before = live_shared_segments()
    yield
    leaked = live_shared_segments() - before
    assert not leaked, f"test leaked shared-memory segments: {sorted(leaked)}"
    assert multiprocessing.active_children() == []


def _reference_envelope(graph, l_min=0.0, l_max=100.0):
    """The forward envelope every pool path must reproduce bit for bit,
    itself checked against the LP tangent search."""
    envelope = forward_envelope(graph, PARAMS, l_min=l_min, l_max=l_max)
    lp = build_lp(graph, PARAMS, latency_mode="global")
    xs = np.linspace(l_min, l_max, 11)
    np.testing.assert_allclose(
        envelope.sample(xs), lp_envelope(lp, l_min, l_max).sample(xs), rtol=1e-12
    )
    return envelope


def _task(graph, *, scenario=None, params=PARAMS, **overrides):
    kwargs = dict(
        graph_digest=graph.content_digest(),
        params_digest=params.content_digest(),
        l_min=0.0,
        l_max=100.0,
        params=params,
        scenario=scenario,
    )
    kwargs.update(overrides)
    return SweepTask(**kwargs)


class TestSharedGraphBuffer:
    """A graph reaches a pool worker as the pickle of its identity."""

    def test_round_trip_preserves_identity(self):
        graph = build_running_example()
        graph.topological_order()  # populate the cached level structure
        twin = pickle.loads(pickle.dumps(graph))
        # the digest is carried, not recomputed
        assert twin._content_digest == graph.content_digest()
        assert twin.nranks == graph.nranks
        assert twin.labels == graph.labels
        for name, _ in ExecutionGraph.CONTENT_COLUMNS:
            assert np.array_equal(getattr(twin, name), getattr(graph, name)), name
        # the level structure rides along: no re-sort needed
        assert twin._topo_order is not None
        assert np.array_equal(twin.topological_order(), graph.topological_order())
        assert np.array_equal(twin.topo_levels()[0], graph.topo_levels()[0])
        # ... and only when one was computed
        bare = ExecutionGraph.from_columns(
            graph.nranks, graph.identity_columns(), graph.labels
        )
        assert pickle.loads(pickle.dumps(bare))._topo_order is None

    def test_pickle_leaves_the_derived_views_behind(self):
        graph = build_random_dag(3, nranks=8, rounds=400)
        graph.in_degrees(), graph.out_degrees(), graph.chain_parent()
        assert graph._succ_csr is not None and graph._pred_csr is not None
        identity = sum(col.nbytes for col in graph.identity_columns().values())
        levels = graph._topo_order.nbytes + graph._level_indptr.nbytes
        assert len(pickle.dumps(graph)) <= identity + levels + 4096
        assert pickle.loads(pickle.dumps(graph))._succ_csr is None


class TestSweepPoolInline:
    """``processes=1`` runs tasks in-process through the same code path."""

    def test_matches_direct_sweep(self):
        graph = build_running_example()
        with SweepPool(1) as pool:
            envelopes = pool.sweep_graphs([graph], PARAMS, l_min=0.0, l_max=100.0)
        assert envelopes[0] == _reference_envelope(graph)

    def test_duplicates_solved_once(self):
        graph = build_running_example()
        tasks = [_task(graph, scenario=f"s{i}") for i in range(4)]
        with SweepPool(1) as pool:
            payloads = pool.run_tasks(tasks, {graph.content_digest(): graph})
        assert len(payloads) == 4
        # duplicates fan out the representative's payload, not a re-solve
        assert all(p is payloads[0] for p in payloads[1:])

    def test_unresolvable_digest_is_a_scenario_error(self):
        graph = build_running_example()
        task = _task(graph, scenario="orphan")
        with SweepPool(1) as pool:
            with pytest.raises(ScenarioError, match="orphan") as excinfo:
                pool.run_tasks([task], {})  # graph not provided anywhere
        assert excinfo.value.exc_type == "LookupError"

    def test_resolves_from_artifact_store(self, tmp_path):
        graph = build_running_example()
        store = ArtifactStore(tmp_path)
        store.put("graph", graph.content_digest(), graph)
        task = _task(graph)
        with SweepPool(1, cache_dir=tmp_path) as pool:
            payloads = pool.run_tasks([task], {})
        assert payloads[0]["envelope"] == _reference_envelope(graph)

    def test_one_call_per_envelope_key(self, tmp_path, monkeypatch):
        import repro.core.envelope as envelope
        import repro.simulator.columnar as columnar

        calls = Counter()
        forward, sweep = envelope.forward_envelope, columnar.simulate_sweep

        def counting_forward(graph, params, **kwargs):
            calls["envelope", graph.content_digest()] += 1
            return forward(graph, params, **kwargs)

        def counting_sweep(graph, params, deltas, *, injector):
            calls["sim", graph.content_digest(), injector] += 1
            return sweep(graph, params, deltas, injector=injector)

        monkeypatch.setattr(envelope, "forward_envelope", counting_forward)
        monkeypatch.setattr(columnar, "simulate_sweep", counting_sweep)
        graph = build_running_example()
        sims = [None, ("ideal", (0.0, 5.0)), ("sender_delay", (0.0, 5.0))]
        tasks = [_task(graph, sim=sim, scenario=f"s{i}") for i, sim in enumerate(sims * 2)]
        with SweepPool(1, cache_dir=tmp_path) as pool:
            payloads = pool.run_tasks(tasks, {graph.content_digest(): graph})
        digest = graph.content_digest()
        assert calls == {
            ("envelope", digest): 1, ("sim", digest, "ideal"): 1,
            ("sim", digest, "sender_delay"): 1,
        }
        # every payload shares the one envelope; equal tasks share a payload
        assert all(p["envelope"] is payloads[0]["envelope"] for p in payloads)
        assert [p is q for p, q in zip(payloads[:3], payloads[3:])] == [True] * 3
        assert payloads[0]["envelope"] == _reference_envelope(graph)
        for payload, sim in zip(payloads, sims):
            want = None if sim is None else sweep(
                graph, PARAMS, list(sim[1]), injector=sim[0]
            ).makespan.tolist()
            assert payload["sim_runtimes"] == want
            assert payload["worker_rss_kb"] > 0 and "worker_pid" not in payload

        # the parent's read-only lookup answers the same tasks from the store
        stored = stored_payloads(tasks, ArtifactStore(tmp_path))
        assert [p["sim_runtimes"] for p in stored] == [p["sim_runtimes"] for p in payloads]
        assert all(p["envelope"] == payloads[0]["envelope"] for p in stored)
        other = _task(graph, sim=("ideal", (1.0,)))
        assert stored_payloads([tasks[0], other], ArtifactStore(tmp_path))[1] is None
        assert calls["envelope", digest] == 1  # the lookup computed nothing

    def test_failing_sim_names_its_own_scenario(self):
        graph = build_running_example()
        tasks = [
            _task(graph, scenario="envelope-only"),
            _task(graph, sim=("bogus", (0.0,)), scenario="bad-injector"),
        ]
        with SweepPool(1) as pool:
            with pytest.raises(ScenarioError, match="bad-injector") as excinfo:
                pool.run_tasks(tasks, {graph.content_digest(): graph})
        assert excinfo.value.scenario == "bad-injector"
        assert excinfo.value.exc_type == "ValueError"

    def test_closed_pool_rejects_work(self):
        pool = SweepPool(1)
        pool.close()
        graph = build_running_example()
        with pytest.raises(RuntimeError, match="closed"):
            pool.start()

    def test_start_spawns_no_workers(self):
        with SweepPool(1) as pool:
            pool.start()
            assert pool._pool is None


_DEAD_WORKER_SCRIPT = """
import json, multiprocessing, os
from repro.core.envelope import forward_envelope
from repro.network.params import CSCS_TESTBED, LogGPSParams
from repro.parallel import ScenarioError, SweepPool, SweepTask, live_shared_segments
from repro.testing import build_running_example


class EndsItsWorker(LogGPSParams):
    def __reduce__(self):  # unpickling this record ends the worker process
        return os._exit, (9,)


def task(params, scenario, l_max):
    return SweepTask(
        graph.content_digest(), CSCS_TESTBED.content_digest(), 0.0, l_max,
        params=params, scenario=scenario,
    )


segments = live_shared_segments()
graph = build_running_example()
graphs = {graph.content_digest(): graph}
good = task(CSCS_TESTBED, "good", 100.0)
# a different l_max keeps it from deduping onto the good task
doomed = task(EndsItsWorker(), "doomed-scenario", 50.0)
result = {}
pool = SweepPool(2)
try:
    pool.run_tasks([good, doomed], graphs)
except ScenarioError as exc:
    result.update(scenario=exc.scenario, exc_type=exc.exc_type)
reference = forward_envelope(graph, CSCS_TESTBED, l_min=0.0, l_max=100.0)
envelope = pool.run_tasks([good], graphs)[0]["envelope"]
result["next_batch_matches_reference"] = envelope == reference
pool.close()
result["children_after_close"] = [p.pid for p in multiprocessing.active_children()]
result["segments_unchanged"] = live_shared_segments() == segments
print(json.dumps(result))
"""


class TestSweepPoolWorkers:
    """Real ``spawn`` workers receiving pickled graphs."""

    def test_enter_is_lazy_and_start_is_idempotent(self):
        with SweepPool(2) as pool:
            assert pool._pool is None
            pool.start()
            workers = pool._pool
            pool.start()
            assert workers is not None and pool._pool is workers

    def test_order_restored_and_duplicates_deduped(self):
        g1 = build_running_example()
        g2 = build_random_dag(7, nranks=4, rounds=12)
        graphs = [g1, g2, g1, g2, g1]
        with SweepPool(2) as pool:
            envelopes = pool.sweep_graphs(graphs, PARAMS, l_min=0.0, l_max=100.0)
        assert envelopes[0] == envelopes[2] == envelopes[4]
        assert envelopes[1] == envelopes[3]
        assert envelopes[0] == _reference_envelope(g1)
        assert envelopes[1] == _reference_envelope(g2)

    def test_one_worker_call_per_envelope_key(self, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor

        from repro.parallel import pool as pool_module

        groups = []
        submit = ProcessPoolExecutor.submit

        def counting_submit(executor, fn, *args, **kwargs):
            if fn is pool_module._run_in_worker:
                groups.append(args[1])
            return submit(executor, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", counting_submit)
        g1 = build_running_example()
        g2 = build_random_dag(7, nranks=4, rounds=12)
        sims = [None, ("ideal", (0.0, 5.0))]
        tasks = [_task(g, sim=sim) for g in (g1, g2, g1) for sim in sims]
        graphs = {g.content_digest(): g for g in (g1, g2)}
        with SweepPool(2) as pool:
            payloads = pool.run_tasks(tasks, graphs)
        assert sorted(len(group) for group in groups) == [2, 2]
        with SweepPool(1) as pool:
            inline = pool.run_tasks(tasks, graphs)
        assert [(p["envelope"], p["sim_runtimes"]) for p in payloads] == [
            (p["envelope"], p["sim_runtimes"]) for p in inline
        ]

    def test_worker_failure_carries_scenario_and_pool_survives(self):
        graph = build_running_example()
        good = _task(graph, scenario="good")
        # a task the worker rejects: an empty latency interval
        bad = _task(graph, scenario="doomed-scenario", l_min=5.0, l_max=5.0)
        graphs = {graph.content_digest(): graph}
        with SweepPool(2) as pool:
            with pytest.raises(ScenarioError, match="doomed-scenario") as excinfo:
                pool.run_tasks([good, bad], graphs)
            assert excinfo.value.exc_type == "ValueError"
            assert "invalid latency interval [5.0, 5.0]" in str(excinfo.value)
            assert excinfo.value.worker_traceback
            # the pool is not poisoned: the next batch still runs
            payloads = pool.run_tasks([good], graphs)
            assert payloads[0]["envelope"] == _reference_envelope(graph)

    def test_dead_worker_fails_its_batch(self):
        # in a fresh interpreter, so that a pool that hangs on its lost task
        # fails this test by the timeout instead of stalling the suite
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", _DEAD_WORKER_SCRIPT],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        result = json.loads(proc.stdout)
        assert result["exc_type"] == "BrokenProcessPool"
        assert "doomed-scenario" in result["scenario"]
        assert result["next_batch_matches_reference"]
        assert result["children_after_close"] == []
        assert result["segments_unchanged"]


class TestBatchedSweepGraphsRewired:
    def test_serial_dedupes_without_cache_dir(self, monkeypatch):
        graph = build_running_example()
        calls = []
        import repro.core.envelope as envelope

        real = envelope.forward_envelope

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(envelope, "forward_envelope", counting)
        envelopes = batched_sweep_graphs(
            [graph, graph, graph], PARAMS, l_min=0.0, l_max=100.0
        )
        assert len(calls) == 1  # solved once, fanned out
        assert envelopes[0] is envelopes[1] is envelopes[2]

    def test_bad_arguments_raise_before_any_task(self, monkeypatch):
        def no_tasks(*args, **kwargs):
            raise AssertionError("ran a task before checking the arguments")

        monkeypatch.setattr(SweepPool, "run_tasks", no_tasks)
        graph = build_running_example()
        with pytest.raises(ValueError, match="invalid latency interval"):
            batched_sweep_graphs([graph], PARAMS, l_min=5.0, l_max=1.0)

    def test_serial_failure_is_a_scenario_error(self, monkeypatch):
        # the inline pool raises what a pooled sweep raises
        import repro.core.envelope as envelope

        monkeypatch.setattr(envelope, "MAX_PIECES", 3)
        zero_overhead = LogGPSParams(L=1.0, o=0.0, g=0.0, G=0.0)
        with pytest.raises(ScenarioError, match=r"graph\[0\]") as excinfo:
            batched_sweep_graphs([build_staircase(8)], zero_overhead, l_max=20.0)
        assert excinfo.value.exc_type == "EnvelopeOverflowError"

    def test_pathlike_cache_dir(self, tmp_path):
        graph = build_running_example()
        envelopes = batched_sweep_graphs(
            [graph], PARAMS, l_min=0.0, l_max=100.0, cache_dir=tmp_path
        )
        assert envelopes[0] == _reference_envelope(graph)
        store = ArtifactStore(tmp_path)
        assert len(store.entries("envelope")) == 1

    def test_analyzer_accepts_pathlike_cache_dir(self, tmp_path):
        from repro.core.analyzer import LatencyAnalyzer

        graph = build_running_example()
        analyzer = LatencyAnalyzer(graph, PARAMS, cache_dir=tmp_path)
        assert analyzer.store is not None
        assert analyzer.parametric(l_max=100.0).runtime() > 0

    def test_analyzer_sweep_many(self):
        from repro.core.analyzer import LatencyAnalyzer

        graph = build_running_example()
        analyses = LatencyAnalyzer.sweep_many(
            [graph, graph], PARAMS, l_min=0.0, l_max=100.0
        )
        assert len(analyses) == 2
        assert all(isinstance(a, ParametricAnalysis) for a in analyses)
        assert analyses[0].graph is graph
        assert analyses[0].envelope == _reference_envelope(graph)
