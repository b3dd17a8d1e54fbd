"""Tests for the content-addressed artifact layer (:mod:`repro.artifacts`).

Covers the npz round trips (graphs, envelopes, recipe aliases, simulated
sweeps), the content digests and keys they are stored under, the on-disk
:class:`ArtifactStore`, and the cached paths wired through
:meth:`LatencyAnalyzer.parametric`, :func:`batched_sweep_graphs` and the
``llamp cache`` CLI.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import CSCS_TESTBED
from repro.artifacts import (
    ArtifactFormatError,
    ArtifactStore,
    combine_digests,
    envelope_key,
    load_envelope,
    load_graph,
    recipe_key,
    save_envelope,
    save_graph,
    simulation_key,
)
from repro.core import (
    LatencyAnalyzer,
    ParametricAnalysis,
    batched_sweep_graphs,
    build_lp,
    forward_envelope,
)
from repro.artifacts.serialize import (
    load_recipe,
    load_simulation,
    save_recipe,
    save_simulation,
)
from repro.core.envelope import envelope_config
from repro.lp.assembler import assembly_counts
from repro.network.params import LogGPSParams
from repro.parallel import SweepTask
from repro.schedgen.builder import ProtocolConfig, ScheduleGenerator, build_graph
from repro.schedgen.collectives import CollectiveAlgorithms
from repro.schedgen.graph import ExecutionGraph
from repro.testing import (
    build_random_dag,
    build_random_program,
    build_running_example,
    build_staircase,
    lp_envelope,
)

PARAMS = LogGPSParams(L=1.0, o=0.1, g=0.1, G=0.001, S=1024, P=2)

#: golden digests — these pin the byte-level digest contract; they must only
#: ever change together with a bump of the digest domain prefixes
GOLDEN_GRAPH_DIGEST = "6878605d1a185873a249488aba29e5372915132f94495b55cd46e6d663b3f78c"
GOLDEN_PARAMS_DIGEST = "d4072c2920e5006030a28322a6bc4b183a1002f632b9dbd58285e07b884cfbf2"
#: the store key of the running example's curve on [CSCS_TESTBED.L, 1000]
#: under the canonical config; stores warmed by earlier versions must keep
#: hitting, so it changes only with a bump of the key domain prefix
GOLDEN_ENVELOPE_KEY = "4bf1bd32167f8b927848e7ad7b2d38f1a6a3a3f58b51baad3dfa675396a6b657"


def graph_cases() -> list[tuple[str, ExecutionGraph]]:
    return [
        ("running-example", build_running_example()),
        ("staircase", build_staircase(6)),
        ("random-dag", build_random_dag(3)),
        ("random-dag-wide", build_random_dag(11, nranks=5, rounds=25)),
    ]


# ---------------------------------------------------------------------------
# content digests
# ---------------------------------------------------------------------------


class TestContentDigests:
    def test_graph_golden_digest_pinned(self):
        # byte-level contract: if this changes, every existing store on disk
        # silently misses — bump the domain prefix instead of re-pinning
        assert build_running_example().content_digest() == GOLDEN_GRAPH_DIGEST

    def test_params_golden_digest_pinned(self):
        assert CSCS_TESTBED.content_digest() == GOLDEN_PARAMS_DIGEST

    def test_envelope_golden_key_pinned(self):
        graph = build_running_example()
        lo, hi = CSCS_TESTBED.L, 1000.0
        key = envelope_key(graph, CSCS_TESTBED, l_min=lo, l_max=hi, **envelope_config())
        task = SweepTask(graph.content_digest(), CSCS_TESTBED.content_digest(), lo, hi)
        assert key == task.store_key() == GOLDEN_ENVELOPE_KEY

    def test_graph_digest_deterministic_across_builds(self):
        assert (
            build_random_dag(7).content_digest()
            == build_random_dag(7).content_digest()
        )

    def test_graph_digest_distinguishes_graphs(self):
        digests = {g.content_digest() for _, g in graph_cases()}
        assert len(digests) == len(graph_cases())

    def test_graph_digest_sensitive_to_cost(self):
        assert (
            build_running_example(c0=0.1).content_digest()
            != build_running_example(c0=0.2).content_digest()
        )

    def test_graph_digest_cached_on_instance(self):
        graph = build_running_example()
        assert graph._content_digest is None
        first = graph.content_digest()
        assert graph._content_digest == first
        assert graph.content_digest() == first

    def test_legacy_and_columnar_builds_hash_identically(self):
        # the deterministic-order contract makes content addressing sound:
        # both construction engines must produce the same digest
        for seed in (0, 1, 2):
            program = build_random_program(seed)
            legacy = ScheduleGenerator(
                protocol=ProtocolConfig.from_params(PARAMS), builder_engine="legacy"
            ).build(program)
            columnar = build_graph(program, params=PARAMS)
            assert legacy.content_digest() == columnar.content_digest()

    def test_params_digest_sensitive_to_every_field(self):
        base = LogGPSParams(L=1.0, o=0.2, g=0.3, G=0.004, S=512, P=4)
        variants = [
            base.replace(L=2.0),
            base.replace(o=0.5),
            base.replace(g=0.6),
            base.replace(G=0.008),
            base.replace(S=1024),
            base.replace(P=8),
        ]
        digests = {p.content_digest() for p in [base, *variants]}
        assert len(digests) == len(variants) + 1

    def test_combine_digests_injective_over_parts(self):
        assert combine_digests("ab", "c") != combine_digests("a", "bc")
        assert combine_digests("a", "b") != combine_digests("a", "b", "")

    def test_envelope_key_ignores_config_order(self):
        graph = build_running_example()
        k1 = envelope_key(graph, PARAMS, l_min=0.0, l_max=5.0, a=1, b=2)
        k2 = envelope_key(graph, PARAMS, l_min=0.0, l_max=5.0, b=2, a=1)
        assert k1 == k2
        assert k1 != envelope_key(graph, PARAMS, l_min=0.0, l_max=6.0, a=1, b=2)

    def test_recipe_key_separates_every_component(self):
        rd, ring = CollectiveAlgorithms(), CollectiveAlgorithms(allreduce="ring")
        eager, small = ProtocolConfig(), ProtocolConfig(eager_threshold=1024)
        key = recipe_key("lulesh", 4, rd, eager, version=1)
        assert key == recipe_key("lulesh", 4, CollectiveAlgorithms(), ProtocolConfig(), version=1)
        variants = {
            recipe_key("hpcg", 4, rd, eager, version=1),
            recipe_key("lulesh", 8, rd, eager, version=1),
            recipe_key("lulesh", 4, ring, eager, version=1),
            recipe_key("lulesh", 4, rd, small, version=1),
            recipe_key("lulesh", 4, rd, eager, version=2),
        }
        assert key not in variants and len(variants) == 5

    def test_simulation_key_separates_every_component(self):
        graph, other = build_running_example(), build_staircase(3)
        key = simulation_key(graph.content_digest(), PARAMS.content_digest(), "ideal", (0.0, 5.0))
        variants = {
            simulation_key(other.content_digest(), PARAMS.content_digest(), "ideal", (0.0, 5.0)),
            simulation_key(graph.content_digest(), CSCS_TESTBED.content_digest(), "ideal", (0.0, 5.0)),
            simulation_key(graph.content_digest(), PARAMS.content_digest(), "sender_delay", (0.0, 5.0)),
            simulation_key(graph.content_digest(), PARAMS.content_digest(), "ideal", (0.0, 6.0)),
            simulation_key(graph.content_digest(), PARAMS.content_digest(), "ideal", (0.0,)),
        }
        assert key not in variants and len(variants) == 5
        # ΔLs are keyed by value, not by their Python type
        assert key == simulation_key(graph.content_digest(), PARAMS.content_digest(), "ideal", [0, 5])


# ---------------------------------------------------------------------------
# graph round trip
# ---------------------------------------------------------------------------


class TestGraphRoundTrip:
    @pytest.mark.parametrize("name,graph", graph_cases(), ids=lambda c: c if isinstance(c, str) else "")
    def test_columns_bit_identical(self, tmp_path, name, graph):
        path = tmp_path / f"{name}.npz"
        save_graph(graph, path)
        loaded = load_graph(path)
        assert loaded.nranks == graph.nranks
        assert loaded.labels == graph.labels
        for column, _ in ExecutionGraph.CONTENT_COLUMNS:
            original = getattr(graph, column)
            restored = getattr(loaded, column)
            assert restored.dtype == original.dtype, column
            assert np.array_equal(restored, original), column

    @pytest.mark.parametrize("name,graph", graph_cases(), ids=lambda c: c if isinstance(c, str) else "")
    def test_digest_preserved(self, tmp_path, name, graph):
        path = tmp_path / f"{name}.npz"
        save_graph(graph, path)
        assert load_graph(path).content_digest() == graph.content_digest()

    def test_same_lp_objective_after_reload(self, tmp_path):
        for name, graph in graph_cases():
            path = tmp_path / f"{name}.npz"
            save_graph(graph, path)
            loaded = load_graph(path)
            original = build_lp(graph, PARAMS).solve_runtime(L=3.0).objective
            restored = build_lp(loaded, PARAMS).solve_runtime(L=3.0).objective
            assert restored == original

    def test_cached_level_structure_restored(self, tmp_path):
        graph = build_random_dag(5)
        graph.topological_order()  # populate the cached views
        assert graph._topo_order is not None and graph._level_indptr is not None
        path = tmp_path / "g.npz"
        save_graph(graph, path)
        loaded = load_graph(path)
        assert loaded._topo_order is not None
        assert np.array_equal(loaded._topo_order, graph._topo_order)
        assert np.array_equal(loaded._level_indptr, graph._level_indptr)

    def test_load_without_level_structure_rederives_lazily(self, tmp_path):
        graph = build_running_example()
        path = tmp_path / "g.npz"
        save_graph(graph, path)
        # strip the stored views to emulate a file saved before they existed
        with np.load(path, allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in archive.files
                      if k not in ("topo_order", "level_indptr")}
        np.savez(path, **arrays)
        loaded = load_graph(path)
        assert loaded._topo_order is None
        # and the lazy derivation still works on the loaded instance
        assert np.array_equal(loaded.topological_order(), graph.topological_order())

    def test_wrong_kind_rejected(self, tmp_path):
        graph = build_running_example()
        path = tmp_path / "g.npz"
        save_graph(graph, path)
        with pytest.raises(ArtifactFormatError, match="expected a 'envelope'"):
            load_envelope(path)
        path = tmp_path / "e.npz"
        save_envelope(forward_envelope(graph, PARAMS, l_min=0.0, l_max=5.0), path)
        with pytest.raises(ArtifactFormatError, match="expected a 'graph'"):
            load_graph(path)

    def test_not_an_artifact_rejected(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez(path, data=np.arange(3))
        with pytest.raises(ArtifactFormatError, match="not a repro artifact"):
            load_graph(path)

    def test_newer_format_version_rejected(self, tmp_path):
        from repro.artifacts.serialize import FORMAT_VERSION

        path = tmp_path / "g.npz"
        save_graph(build_running_example(), path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in archive.files}
        arrays["__version__"] = np.int64(FORMAT_VERSION + 1)
        np.savez(path, **arrays)
        with pytest.raises(ArtifactFormatError, match="newer than supported"):
            load_graph(path)


# ---------------------------------------------------------------------------
# envelope round trip
# ---------------------------------------------------------------------------


class TestEnvelopeRoundTrip:
    def test_piecewise_exact(self, tmp_path):
        graph = build_staircase(5)
        envelope = lp_envelope(build_lp(graph, PARAMS, latency_mode="global"), 0.0, 10.0)
        path = tmp_path / "e.npz"
        save_envelope(envelope, path)
        loaded = load_envelope(path)
        assert loaded.lo == envelope.lo and loaded.hi == envelope.hi
        assert [(ln.slope, ln.intercept) for ln in loaded.lines] == [
            (ln.slope, ln.intercept) for ln in envelope.lines
        ]
        xs = np.linspace(0.0, 10.0, 57)
        assert np.array_equal(loaded.sample(xs), envelope.sample(xs))
        assert loaded.breakpoints() == envelope.breakpoints()

    def test_sweep_restored_from_envelope_answers_without_model(self, tmp_path):
        graph = build_staircase(4)
        envelope = forward_envelope(graph, PARAMS, l_min=0.0, l_max=8.0)
        path = tmp_path / "e.npz"
        save_envelope(envelope, path)
        restored = ParametricAnalysis(load_envelope(path), PARAMS)
        assert restored.graph is None
        xs = np.linspace(0.0, 8.0, 33)
        assert np.array_equal(restored.envelope.sample(xs), envelope.sample(xs))
        assert restored.critical_latencies() == envelope.breakpoints()

    def test_unknown_type_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="expects a PiecewiseLinear, got object"):
            save_envelope(object(), tmp_path / "e.npz")


class TestRecipeAndSimulationRoundTrips:
    def test_recipe_round_trip(self, tmp_path):
        digest = build_running_example().content_digest()
        save_recipe(digest, tmp_path / "r.npz")
        assert load_recipe(tmp_path / "r.npz") == digest

    def test_simulation_round_trip_is_bit_exact(self, tmp_path):
        makespans = [1.0 / 3.0, 2.0**60 + 1.5e3, 1e-300, 0.0]
        save_simulation(makespans, tmp_path / "s.npz")
        loaded = load_simulation(tmp_path / "s.npz")
        assert loaded == makespans and all(type(x) is float for x in loaded)

    def test_kinds_do_not_load_as_each_other(self, tmp_path):
        save_recipe("ab" * 32, tmp_path / "r.npz")
        save_simulation([1.0], tmp_path / "s.npz")
        with pytest.raises(ArtifactFormatError, match="expected a 'simulation' artifact, found 'recipe'"):
            load_simulation(tmp_path / "r.npz")
        with pytest.raises(ArtifactFormatError, match="expected a 'recipe' artifact, found 'simulation'"):
            load_recipe(tmp_path / "s.npz")


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------


class TestArtifactStore:
    def test_get_or_build_miss_then_hit(self, tmp_path):
        store = ArtifactStore(tmp_path)
        graph = build_running_example()
        key = graph.content_digest()
        builds = []

        def builder():
            builds.append(1)
            return graph

        first = store.get_or_build_graph(key, builder)
        second = store.get_or_build_graph(key, builder)
        assert len(builds) == 1
        assert first.content_digest() == second.content_digest() == key
        assert store.misses["graph"] == 1 and store.hits["graph"] == 1
        assert store.contains("graph", key)

    def test_layout_uses_two_char_fanout(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "abcdef0123"
        assert store.path_for("graph", key) == tmp_path / "graph" / "ab" / f"{key}.npz"

    def test_bad_key_and_kind_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ValueError, match="hex digest"):
            store.path_for("graph", "../../evil")
        with pytest.raises(ValueError, match="hex digest"):
            store.path_for("graph", "abc")  # too short
        with pytest.raises(ValueError, match="unknown artifact kind"):
            store.path_for("plan", "abcdef")
        # the store keeps graphs, curves, recipe aliases and simulated
        # sweeps, never an LP
        assert ArtifactStore.KINDS == ("graph", "envelope", "recipe", "simulation")
        with pytest.raises(ValueError, match="unknown artifact kind 'lp'"):
            store.path_for("lp", "abcdef")

    @staticmethod
    def _artifact(kind):
        """A small ``(key, object)`` entry of ``kind``."""
        graph = build_running_example()
        if kind == "graph":
            return graph.content_digest(), graph
        if kind == "recipe":
            key = recipe_key("lulesh", 4, CollectiveAlgorithms(), ProtocolConfig(), version=1)
            return key, graph.content_digest()
        if kind == "simulation":
            key = simulation_key(graph.content_digest(), PARAMS.content_digest(), "ideal", (0.0, 5.0))
            return key, [1.5, 2.25]
        key = envelope_key(graph, PARAMS, l_min=0.0, l_max=5.0)
        return key, forward_envelope(graph, PARAMS, l_min=0.0, l_max=5.0)

    @pytest.mark.parametrize("kind", ArtifactStore.KINDS)
    def test_corrupt_entry_deleted_and_rebuilt(self, tmp_path, kind):
        store = ArtifactStore(tmp_path)
        key, obj = self._artifact(kind)
        path = store.put(kind, key, obj)
        archive = path.read_bytes()
        for corrupt in (b"not an npz archive", archive[: len(archive) // 2]):
            path.write_bytes(corrupt)
            assert store.get(kind, key) is None
            assert not path.exists()
            assert store.get_or_build(kind, key, lambda: obj) is obj
            assert store.get(kind, key) is not None

    def test_tangent_envelope_of_an_earlier_version_is_rebuilt(self, tmp_path):
        # earlier versions could store an LP tangent search's raw probes
        # under envelope_kind="tangent"; that format is gone, so such an
        # entry is a format error the store deletes and rebuilds
        from repro.artifacts.serialize import FORMAT_VERSION

        store = ArtifactStore(tmp_path)
        key, curve = self._artifact("envelope")
        path = store.path_for("envelope", key)
        path.parent.mkdir(parents=True)
        np.savez(
            path.with_suffix(""),
            __artifact__=np.str_("envelope"),
            __version__=np.int64(FORMAT_VERSION),
            envelope_kind=np.str_("tangent"),
            tangent_L=np.array([0.0, 5.0]),
            tangent_value=np.array([1.0, 6.0]),
            tangent_slope=np.array([1.0, 1.0]),
            breakpoints=np.array([]),
            lo=np.float64(0.0),
            hi=np.float64(5.0),
            num_solves=np.int64(2),
        )
        with pytest.raises(ArtifactFormatError, match="unknown envelope kind 'tangent'"):
            load_envelope(path)
        assert store.get_or_build_envelope(key, lambda: curve) is curve
        assert store.misses["envelope"] == 1
        assert load_envelope(path).lines == curve.lines

    def test_lp_entries_of_an_earlier_version_are_ignored(self, tmp_path):
        # a store warmed by an earlier version may hold an lp/ directory;
        # nothing reads it, and stats/clear count only the current kinds
        store = ArtifactStore(tmp_path)
        key, graph = self._artifact("graph")
        store.put("graph", key, graph)
        stale = tmp_path / "lp" / key[:2] / f"{key}.npz"
        stale.parent.mkdir(parents=True)
        stale.write_bytes(b"an LP written by an earlier version")
        stats = store.stats()
        assert sorted(stats["kinds"]) == sorted(ArtifactStore.KINDS)
        assert stats["total_entries"] == 1
        assert store.entries() == [store.path_for("graph", key)]
        assert store.clear() == 1
        assert stale.exists()

    @pytest.mark.parametrize("error", [ImportError, NameError, AttributeError])
    def test_loader_bug_propagates_and_keeps_the_entry(self, tmp_path, monkeypatch, error):
        store = ArtifactStore(tmp_path)
        key, graph = self._artifact("graph")
        store.put("graph", key, graph)

        def buggy_loader(path):
            raise error("loader bug")

        monkeypatch.setitem(ArtifactStore._LOADERS, "graph", buggy_loader)
        with pytest.raises(error, match="loader bug"):
            store.get("graph", key)
        assert store.contains("graph", key)

    def test_stats_and_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        graph = build_running_example()
        store.put("graph", graph.content_digest(), graph)
        store.put("envelope", envelope_key(graph, PARAMS, l_min=0.0, l_max=5.0),
                  forward_envelope(graph, PARAMS, l_min=0.0, l_max=5.0))
        stats = store.stats()
        assert stats["kinds"]["graph"]["entries"] == 1
        assert stats["kinds"]["envelope"]["entries"] == 1
        assert stats["total_entries"] == 2
        assert stats["total_bytes"] > 0
        assert store.clear("envelope") == 1
        assert store.stats()["total_entries"] == 1
        assert store.clear() == 1
        assert store.stats()["total_entries"] == 0


# ---------------------------------------------------------------------------
# the cached analyzer path (the PR's acceptance criterion)
# ---------------------------------------------------------------------------


class TestAnalyzerCache:
    def test_repeat_sweep_performs_zero_new_assemblies(self, tmp_path):
        graph = build_random_dag(13)
        xs = np.linspace(PARAMS.L, 50.0, 31)

        cold = LatencyAnalyzer(graph, PARAMS, cache_dir=str(tmp_path))
        cold_values = cold.parametric(l_max=50.0).envelope.sample(xs)
        assert cold.store.misses["envelope"] == 1

        warm = LatencyAnalyzer(graph, PARAMS, cache_dir=str(tmp_path))
        before = assembly_counts()
        warm_values = warm.parametric(l_max=50.0).envelope.sample(xs)
        after = assembly_counts()

        assert after == before  # zero new CSR assemblies: no LP was built
        assert warm.store.hits["envelope"] == 1
        assert np.array_equal(warm_values, cold_values)

    def test_cache_key_separates_intervals_and_params(self, tmp_path):
        graph = build_running_example()
        analyzer = LatencyAnalyzer(graph, PARAMS, cache_dir=str(tmp_path))
        analyzer.parametric(l_max=5.0)
        analyzer.parametric(l_max=7.0)
        other = LatencyAnalyzer(
            graph, PARAMS.replace(G=0.01), cache_dir=str(tmp_path)
        )
        other.parametric(l_max=5.0)
        assert ArtifactStore(tmp_path).stats()["kinds"]["envelope"]["entries"] == 3

    def test_uncached_analyzer_has_no_store(self):
        analyzer = LatencyAnalyzer(build_running_example(), PARAMS)
        assert analyzer.store is None


class TestBatchedSweepGraphsCache:
    def test_duplicate_graphs_share_one_entry(self, tmp_path):
        graph = build_random_dag(21)
        envelopes = batched_sweep_graphs(
            [graph, build_random_dag(21)], PARAMS,
            l_min=PARAMS.L, l_max=40.0, cache_dir=str(tmp_path),
        )
        store = ArtifactStore(tmp_path)
        assert store.stats()["kinds"]["envelope"]["entries"] == 1
        xs = np.linspace(PARAMS.L, 40.0, 17)
        assert np.array_equal(envelopes[0].sample(xs), envelopes[1].sample(xs))

        # a second run over the same inputs is answered purely from disk
        before = assembly_counts()
        again = batched_sweep_graphs(
            [graph], PARAMS, l_min=PARAMS.L, l_max=40.0, cache_dir=str(tmp_path)
        )
        assert assembly_counts() == before
        assert np.array_equal(again[0].sample(xs), envelopes[0].sample(xs))


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------


class TestCacheCLI:
    def test_warm_stats_clear_cycle(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        assert main(["cache", "warm", "lulesh", "--dir", store_dir,
                     "--nranks", "4", "--l-max", "50", "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["app"] == "lulesh"
        assert len(warm["graph_key"]) == 64
        assert sorted(warm) == [
            "app", "critical_latencies", "envelope_key", "events", "graph_key", "nranks",
        ]

        assert main(["cache", "stats", "--dir", store_dir, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert sorted(stats["kinds"]) == sorted(ArtifactStore.KINDS)
        assert stats["kinds"]["graph"]["entries"] == 1
        assert stats["kinds"]["envelope"]["entries"] == 1
        # the keys warm prints address the entries the analyzer stored
        store = ArtifactStore(store_dir)
        assert store.contains("graph", warm["graph_key"])
        assert store.contains("envelope", warm["envelope_key"])

        # warming again is pure hits: entry counts do not grow
        assert main(["cache", "warm", "lulesh", "--dir", store_dir,
                     "--nranks", "4", "--l-max", "50", "--json"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--dir", store_dir, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["total_entries"] == 2

        assert main(["cache", "clear", "--dir", store_dir, "--kind", "envelope"]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert main(["cache", "clear", "--dir", store_dir]) == 0
        assert "removed 1 entries" in capsys.readouterr().out

    def test_kind_choices_are_the_store_kinds(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["cache", "clear", "--dir", str(tmp_path), "--kind", "lp"])
        err = capsys.readouterr().err
        assert "invalid choice: 'lp'" in err
        assert "{" + ",".join(ArtifactStore.KINDS) + "}" in err

    def test_warm_human_readable(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "warm", "lulesh", "--nranks", "2", "--dir", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0].strip() for line in lines] == [
            "application", "graph", "envelope", "store",
        ]
        assert lines[2].endswith("critical latencies)")

    def test_warm_requires_app(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="application skeleton"):
            main(["cache", "warm", "--dir", str(tmp_path)])

    def test_stats_human_readable(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "total" in out and "0 entries" in out
