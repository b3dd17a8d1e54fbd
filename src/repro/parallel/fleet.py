"""Scenario-fleet driver: parameter grids over the sweep pool.

A *fleet* is the cross product of application skeletons, rank counts,
collective algorithms, LogGPS parameter points and latency injectors.  The
driver expands the grid into :class:`Scenario` records, records each
``(app, nranks)`` program once, builds each distinct ``(app, nranks,
algorithm, params)`` graph from it exactly once, and runs the whole
fleet through one persistent :class:`~repro.parallel.SweepPool` — each
scenario travels to a worker as a digest tuple together with its graph's
pickled identity columns, and duplicate scenarios (same graph digest +
sweep spec) are solved once.
The pool is started (:meth:`~repro.parallel.SweepPool.start`) before the
programs are recorded and the graphs built, so the spawn workers boot while
the parent does that work instead of after it.

Results are written BENCH-style: one ``FLEET_<app>.json`` shard per
application plus a single deterministic ``FLEET_summary.json`` merging every
scenario row (sorted by scenario name, keys sorted), so repeated runs of the
same fleet produce byte-identical summaries.  Exposed as ``llamp fleet`` in
the CLI.
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
from .pool import SweepPool, SweepTask

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
    ``[params.L, l_max]``.
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

    def _build_graphs(self, scenarios: Sequence[Scenario]):
        """One graph per distinct ``(app, nranks, algorithm, params)``.

        Each ``(app, nranks)`` skeleton is recorded once and every graph of
        it is built from that one program.  The grid's nested-loop order
        keeps each ``(app, nranks)`` contiguous, so only one program is
        alive at a time.
        """
        from ..apps import ALL_APPS

        graph_of: dict[tuple, object] = {}
        digest_of: dict[tuple, str] = {}
        for (app, nranks), group in groupby(scenarios, key=lambda sc: (sc.app, sc.nranks)):
            program = None
            for sc in group:
                key = (app, nranks, sc.allreduce, sc.params.content_digest())
                if key in graph_of:
                    continue
                if program is None:
                    program = ALL_APPS[app].program(nranks)
                graph = build_graph(
                    program,
                    params=sc.params,
                    algorithms=CollectiveAlgorithms(allreduce=sc.allreduce),
                )
                graph_of[key] = graph
                digest_of[key] = graph.content_digest()
        graphs = {digest_of[key]: graph for key, graph in graph_of.items()}
        return graphs, digest_of

    def run(self, output_dir: str | os.PathLike | None = None) -> FleetResult:
        """Run every scenario; optionally write shards + summary JSON."""
        scenarios = self.scenarios()
        with SweepPool(self.processes, cache_dir=self.cache_dir) as pool:
            # the spawn workers boot while this process builds the graphs
            pool.start()
            graphs, digest_of = self._build_graphs(scenarios)
            tasks = [self._task(sc, digest_of) for sc in scenarios]
            payloads = pool.run_tasks(tasks, graphs)

        rows = [
            self._row(sc, task, payload)
            for sc, task, payload in zip(scenarios, tasks, payloads)
        ]
        summary = {
            "bench": "fleet_summary",
            "results": {
                "scenarios": len(rows),
                "apps": sorted(set(self.apps)),
                "unique_graphs": len(graphs),
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

    def _task(self, sc: Scenario, digest_of: dict[tuple, str]) -> SweepTask:
        """The digest-addressed pool task of one scenario."""
        key = (sc.app, sc.nranks, sc.allreduce, sc.params.content_digest())
        sim = None
        if sc.injector is not None:
            sim = (sc.injector, self.sim_deltas)
        return SweepTask(
            graph_digest=digest_of[key],
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
