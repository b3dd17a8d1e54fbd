"""Scenario-fleet driver: parameter grids over the sweep pool.

A *fleet* is the cross product of application skeletons, rank counts,
collective algorithms, LogGPS parameter points and latency injectors.
:class:`ScenarioFleet` expands the grid into :class:`Scenario` records and
answers each one the cheapest way it can:

* **from the store** — with a ``cache_dir``, a scenario whose recipe alias,
  envelope and simulated sweep are all stored becomes a row directly, before
  any program is recorded, graph built or worker started.  A *recipe* is
  ``(SCHEDULE_VERSION, app, nranks, CollectiveAlgorithms, ProtocolConfig)``;
  the store's ``recipe`` kind maps it to its graph's digest, which addresses
  the ``envelope`` and ``simulation`` entries.  A fleet whose every scenario
  is stored starts no pool at all;
* **through the pool** — every other scenario takes one
  :class:`~repro.parallel.SweepPool` batch.  The pool is started
  (:meth:`~repro.parallel.SweepPool.start`) first, so the spawn workers boot
  while this process records each ``(app, nranks)`` program once and builds
  each recipe's graph once from it (graphs are keyed by recipe, so a latency
  grid that shares one ``S`` shares its graphs).  Each envelope key is one
  worker call, which computes the envelope once plus each distinct
  simulated sweep once, and stores them when a ``cache_dir`` is given.

Results are written BENCH-style: one ``FLEET_<app>.json`` shard per
application plus a single deterministic ``FLEET_summary.json`` merging every
scenario row (sorted by scenario name, keys sorted), so repeated runs of the
same fleet — cold or warm, inline or pooled — produce byte-identical
summaries.  Exposed as ``llamp fleet`` in the CLI.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Sequence

from ..core.parametric import ParametricAnalysis
from ..network.params import LogGPSParams
from ..schedgen.builder import build_graph
from ..schedgen.collectives import CollectiveAlgorithms
from .pool import SweepPool, SweepTask, stored_payloads

__all__ = ["Scenario", "FleetResult", "ScenarioFleet"]

#: degradation levels reported per scenario (the paper's 1/2/5 %)
DEGRADATIONS = (0.01, 0.02, 0.05)


@dataclass(frozen=True)
class Scenario:
    """One point of the fleet grid."""

    app: str
    nranks: int
    allreduce: str
    params: LogGPSParams
    injector: str | None = None  # None = envelope only, no simulated points

    @property
    def name(self) -> str:
        inj = self.injector or "lp"
        return (
            f"{self.app}:r{self.nranks}:{self.allreduce}:"
            f"L{self.params.L:g}:{inj}"
        )


@dataclass
class FleetResult:
    """Per-scenario rows plus the merged summary and any written shards."""

    rows: list[dict]
    summary: dict
    shard_paths: list[Path]
    summary_path: Path | None


class ScenarioFleet:
    """Expand a scenario grid and run it across a :class:`SweepPool`.

    Parameters mirror the grid axes: every combination of ``apps`` ×
    ``nranks`` × ``allreduces`` × ``params_grid`` × ``injectors`` becomes one
    scenario.  ``injectors`` may contain ``None`` (envelope only) and any
    name from :data:`repro.simulator.injector.INJECTOR_NAMES`; scenarios with
    an injector additionally simulate the graph at ``sim_deltas`` added
    latencies (each finite and non-negative).  Every envelope spans
    ``[params.L, l_max]``, so ``l_max`` must be finite and exceed every
    ``params.L``.
    """

    def __init__(
        self,
        apps: Sequence[str],
        *,
        nranks: Sequence[int] = (8,),
        allreduces: Sequence[str] = ("ring",),
        params_grid: Sequence[LogGPSParams],
        injectors: Sequence[str | None] = (None,),
        l_max: float = 1_000.0,
        sim_deltas: Sequence[float] = (0.0, 10.0),
        processes: int | None = None,
        cache_dir: str | os.PathLike | None = None,
    ) -> None:
        from ..apps import ALL_APPS

        unknown = [app for app in apps if app not in ALL_APPS]
        if unknown:
            raise ValueError(
                f"unknown applications {unknown}; choose from {sorted(ALL_APPS)}"
            )
        if not params_grid:
            raise ValueError("params_grid must contain at least one LogGPSParams")
        if not all(params.L < float(l_max) < math.inf for params in params_grid):
            # an unbounded envelope would write "l_max_us": Infinity, not JSON
            raise ValueError(
                f"l_max ({l_max} µs) must be finite and exceed every base latency"
            )
        for delta in sim_deltas:
            if not 0 <= float(delta) < math.inf:
                raise ValueError(f"sim_deltas must be finite and non-negative, got {delta}")
        self.apps = list(apps)
        self.nranks = [int(n) for n in nranks]
        self.allreduces = list(allreduces)
        self.params_grid = list(params_grid)
        self.injectors = list(injectors)
        self.l_max = float(l_max)
        self.sim_deltas = tuple(float(d) for d in sim_deltas)
        self.processes = processes
        self.cache_dir = cache_dir

    # -- grid ----------------------------------------------------------------

    def scenarios(self) -> list[Scenario]:
        """The expanded grid in deterministic (nested-loop) order."""
        grid = []
        for app in self.apps:
            for n in self.nranks:
                for algo in self.allreduces:
                    for params in self.params_grid:
                        for injector in self.injectors:
                            grid.append(Scenario(app, n, algo, params, injector))
        return grid

    # -- execution ------------------------------------------------------------

    @staticmethod
    def _recipe(sc: Scenario) -> tuple:
        """``(app, nranks, algorithms, protocol)``: what the graph of ``sc``
        is built from (``params`` enter only through the protocol's ``S``)."""
        from ..schedgen.builder import ProtocolConfig

        return (
            sc.app,
            sc.nranks,
            CollectiveAlgorithms(allreduce=sc.allreduce),
            ProtocolConfig.from_params(sc.params),
        )

    @staticmethod
    def _build_graphs(recipes: Sequence[tuple]) -> dict:
        """One graph per distinct recipe, each ``(app, nranks)`` program
        recorded once.

        ``recipes`` come in grid order, whose nested loops keep each
        ``(app, nranks)`` contiguous, so only one program is alive at a time.
        """
        from ..apps import ALL_APPS

        graphs = {}
        for (app, nranks), group in groupby(recipes, key=lambda recipe: recipe[:2]):
            program = ALL_APPS[app].program(nranks)
            for recipe in group:
                graphs[recipe] = build_graph(
                    program, algorithms=recipe[2], protocol=recipe[3]
                )
        return graphs

    def run(self, output_dir: str | os.PathLike | None = None) -> FleetResult:
        """Run every scenario; optionally write shards + summary JSON."""
        scenarios = self.scenarios()
        tasks, payloads = self._answer(scenarios)
        rows = [
            self._row(sc, task, payload)
            for sc, task, payload in zip(scenarios, tasks, payloads)
        ]
        summary = {
            "bench": "fleet_summary",
            "results": {
                "scenarios": len(rows),
                "apps": sorted(set(self.apps)),
                "unique_graphs": len({task.graph_digest for task in tasks}),
                "l_max_us": self.l_max,
                "rows": sorted(rows, key=lambda r: r["scenario"]),
            },
        }

        shard_paths: list[Path] = []
        summary_path: Path | None = None
        if output_dir is not None:
            out = Path(os.fspath(output_dir))
            out.mkdir(parents=True, exist_ok=True)
            for app in sorted(set(self.apps)):
                shard = {
                    "bench": f"fleet_{app}",
                    "results": [r for r in rows if r["app"] == app],
                }
                path = out / f"FLEET_{app}.json"
                path.write_text(json.dumps(shard, indent=2, sort_keys=True) + "\n")
                shard_paths.append(path)
            summary_path = out / "FLEET_summary.json"
            summary_path.write_text(
                json.dumps(summary, indent=2, sort_keys=True) + "\n"
            )
        return FleetResult(
            rows=rows,
            summary=summary,
            shard_paths=shard_paths,
            summary_path=summary_path,
        )

    def _answer(self, scenarios: list[Scenario]) -> tuple[list[SweepTask], list[dict]]:
        """Each scenario's pool task and payload: read from the store where
        it holds the recipe alias, envelope and simulation, and from one
        pool batch for every other scenario."""
        from ..apps import SCHEDULE_VERSION
        from ..artifacts import ArtifactStore, recipe_key

        recipes = [self._recipe(sc) for sc in scenarios]
        alias_key = {
            recipe: recipe_key(*recipe, version=SCHEDULE_VERSION)
            for recipe in dict.fromkeys(recipes)
        }
        store = None if self.cache_dir is None else ArtifactStore(self.cache_dir)
        digest_of: dict[tuple, str] = {}
        if store is not None:
            for recipe, key in alias_key.items():
                digest = store.get("recipe", key)
                if digest is not None:
                    digest_of[recipe] = digest
        tasks: list[SweepTask | None] = [
            self._task(sc, digest_of[recipe]) if recipe in digest_of else None
            for sc, recipe in zip(scenarios, recipes)
        ]
        payloads: list[dict | None] = [None] * len(scenarios)
        known = [i for i, task in enumerate(tasks) if task is not None]
        if known:
            for i, payload in zip(known, stored_payloads([tasks[i] for i in known], store)):
                payloads[i] = payload

        missed = [i for i, payload in enumerate(payloads) if payload is None]
        if not missed:
            return tasks, payloads
        with SweepPool(self.processes, cache_dir=self.cache_dir) as pool:
            # the spawn workers boot while this process builds the graphs
            pool.start()
            graphs = {}
            for recipe, graph in self._build_graphs(
                list(dict.fromkeys(recipes[i] for i in missed))
            ).items():
                digest = graph.content_digest()
                graphs[digest] = graph
                if store is not None and digest_of.get(recipe) != digest:
                    store.put("recipe", alias_key[recipe], digest)
                digest_of[recipe] = digest
            for i in missed:
                tasks[i] = self._task(scenarios[i], digest_of[recipes[i]])
            answers = pool.run_tasks([tasks[i] for i in missed], graphs)
        for i, payload in zip(missed, answers):
            payloads[i] = payload
        return tasks, payloads

    def _task(self, sc: Scenario, graph_digest: str) -> SweepTask:
        """The digest-addressed pool task of one scenario."""
        sim = None
        if sc.injector is not None:
            sim = (sc.injector, self.sim_deltas)
        return SweepTask(
            graph_digest=graph_digest,
            params_digest=sc.params.content_digest(),
            l_min=sc.params.L,
            l_max=self.l_max,
            sim=sim,
            params=sc.params,
            scenario=sc.name,
        )

    # -- metrics ---------------------------------------------------------------

    @staticmethod
    def _row(scenario: Scenario, task: SweepTask, payload: dict) -> dict:
        analysis = ParametricAnalysis(payload["envelope"], scenario.params)
        row = {
            "scenario": scenario.name,
            "app": scenario.app,
            "nranks": scenario.nranks,
            "allreduce": scenario.allreduce,
            "L_us": scenario.params.L,
            "injector": scenario.injector,
            "graph_digest": task.graph_digest,
            "runtime_us": analysis.runtime(),
            "lambda_L": analysis.latency_sensitivity(),
            "rho_L": analysis.l_ratio(),
            "critical_latencies": len(analysis.critical_latencies()),
        }
        for deg in DEGRADATIONS:
            label = f"tolerance_{int(deg * 100)}pct_us"
            try:
                row[label] = analysis.latency_tolerance(deg)
            except ValueError:
                row[label] = None
        if payload["sim_runtimes"] is not None:
            row["sim_delta_L_us"] = list(task.sim[1])
            row["sim_runtime_us"] = payload["sim_runtimes"]
        return row
