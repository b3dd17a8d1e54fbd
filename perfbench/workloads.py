"""The benchmark's workloads: fixed ``llamp`` request streams and their oracles.

Every request is one real ``llamp`` command line.  Every answer is checked
against an oracle that takes a different path through the library than the
command does:

* ``analyze`` / ``ingest``: the LP answers (T0 and the 1/2/5 % tolerances)
  against ``forward_envelope(...).solve_for_value((1+x)·T0)`` on a graph
  built by the legacy op-by-op builder (``ingest``: from the monolithic
  trace loader);
* ``sweep``: the printed predictions against the same envelope;
* ``curve``: the printed ``T(L)`` against ``forward_pass`` at each ``L``;
* ``place``: the refined runtime is at most the block baseline and equals
  ``predicted_runtime`` of the returned mapping;
* ``fleet``: the warm rows (answered from the artifact store) equal the
  cold rows on every runtime / λ_L / ρ_L / tolerance field.

Oracle answers depend only on a request's arguments, so each is computed
once per workload object and reused for every later sample of that request.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: relative tolerance of every numeric oracle comparison
REL_TOL = 1e-6

#: upper end of the oracle envelopes' latency interval (µs); far beyond every
#: tolerance these skeletons have, so ``solve_for_value`` never clips at it
ORACLE_L_MAX = 1e5

#: the fields a warm fleet row must reproduce exactly
FLEET_FIELDS = (
    "runtime_us", "lambda_L", "rho_L",
    "tolerance_1pct_us", "tolerance_2pct_us", "tolerance_5pct_us",
    "sim_runtime_us",
)

#: commands that have a per-command timing in the record, in report order
COMMANDS = ("analyze", "ingest", "sweep", "place", "curve", "fleet_cold", "fleet_warm")


def run_llamp(argv: list[str]) -> tuple[int, str]:
    """Run one ``llamp`` command in this process; return its exit code and output."""
    from repro import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class OracleMismatch(Exception):
    """A command's answer disagrees with its oracle."""


@dataclass
class Request:
    """One ``llamp`` command line plus the check of its standard output."""

    command: str
    slot: str
    argv: list[str]
    check: Callable[[str], None]
    cache_dir: Path | None = None
    after: Callable[[], None] | None = None
    #: the check needs the answer of the request issued just before
    needs_previous: bool = False


def _close(name: str, got: float, want: float) -> None:
    if not abs(got - want) <= REL_TOL * max(abs(want), 1.0):
        raise OracleMismatch(f"{name}: command gave {got!r}, oracle gives {want!r}")


def _params():
    from repro.network.params import CSCS_TESTBED

    return CSCS_TESTBED


def _algorithms():
    from repro.schedgen.collectives import CollectiveAlgorithms

    return CollectiveAlgorithms(allreduce="recursive_doubling")


def _legacy_graph(app: str, nranks: int):
    from repro.apps import ALL_APPS
    from repro.schedgen.builder import ProtocolConfig, ScheduleGenerator

    generator = ScheduleGenerator(
        algorithms=_algorithms(),
        protocol=ProtocolConfig.from_params(_params()),
        builder_engine="legacy",
    )
    return generator.build(ALL_APPS[app].program(nranks))


def _app_graph(app: str, nranks: int):
    from repro.apps import ALL_APPS

    return ALL_APPS[app].build(nranks, params=_params(), algorithms=_algorithms())


def _envelope_answers(graph) -> dict:
    from repro.core.envelope import forward_envelope

    params = _params()
    envelope = forward_envelope(graph, params, l_min=params.L, l_max=ORACLE_L_MAX)
    t0 = envelope.value(params.L)
    answers = {"runtime_us": t0, "envelope": envelope}
    for level in (1, 2, 5):
        answers[f"tolerance_{level}pct_us"] = envelope.solve_for_value(
            (1.0 + level / 100.0) * t0
        )
    return answers


def _check_summary(stdout: str, oracle: dict) -> None:
    summary = json.loads(stdout)
    for key in ("runtime_us", "tolerance_1pct_us", "tolerance_2pct_us", "tolerance_5pct_us"):
        _close(key, float(summary[key]), oracle[key])


@dataclass
class Workload:
    """A named request stream: ``requests(rng)`` yields one pass over it."""

    name: str
    size: str
    work_dir: Path
    processes: int = 1
    input_dir: Path | None = None
    _oracles: dict = field(default_factory=dict)

    # -- inputs --------------------------------------------------------------

    def prepare(self, input_dir: Path) -> None:
        """Write the workload's input files into ``input_dir``."""
        self.input_dir = input_dir
        if self.name == "queries-mid":
            app, nranks = SIZES[self.size]["ingest"]
            code, _ = run_llamp(["trace", app, "--nranks", str(nranks),
                                 "--output", str(input_dir / f"{app}-{nranks}.trace")])
            if code != 0:
                raise RuntimeError(f"writing the {app}-{nranks} trace exited with {code}")

    def _oracle(self, key: tuple, compute: Callable[[], object]):
        if key not in self._oracles:
            self._oracles[key] = compute()
        return self._oracles[key]

    def _legacy_answers(self, app: str, nranks: int) -> dict:
        return self._oracle(("legacy", app, nranks),
                            lambda: _envelope_answers(_legacy_graph(app, nranks)))

    # -- request streams -----------------------------------------------------

    def requests(self, rng, pass_index: int) -> list[Request]:
        sizes = SIZES[self.size]
        if self.name == "queries-mid":
            reqs = [self._analyze(app, n) for app, n in sizes["analyze"]]
            reqs.append(self._ingest(*sizes["ingest"]))
            reqs.append(self._sweep(*sizes["sweep"]))
            reqs.append(self._place(*sizes["place"]))
            rng.shuffle(reqs)
            return reqs
        if self.name == "curve-large":
            reqs = [self._curve(app, n) for app, n in sizes["curve"]]
            rng.shuffle(reqs)
            return reqs
        if self.name == "fleet-grid":
            apps, nranks = sizes["fleet"]
            apps = list(apps)
            rng.shuffle(apps)
            return self._fleet_pair(apps, nranks, pass_index)
        raise ValueError(f"unknown workload {self.name!r}")

    def _analyze(self, app: str, nranks: int) -> Request:
        def check(stdout: str) -> None:
            _check_summary(stdout, self._legacy_answers(app, nranks))

        return Request("analyze", f"analyze {app}-{nranks}",
                       ["analyze", app, "--nranks", str(nranks), "--json"], check)

    def _ingest(self, app: str, nranks: int) -> Request:
        path = self.input_dir / f"{app}-{nranks}.trace"

        def oracle() -> dict:
            from repro.schedgen.builder import ProtocolConfig, ScheduleGenerator
            from repro.trace.format import load_trace

            generator = ScheduleGenerator(
                protocol=ProtocolConfig.from_params(_params()), builder_engine="legacy"
            )
            return _envelope_answers(generator.build_from_trace(load_trace(path)))

        def check(stdout: str) -> None:
            _check_summary(stdout, self._oracle(("ingest", app, nranks), oracle))

        return Request("ingest", f"ingest {app}-{nranks}",
                       ["ingest", "trace", str(path), "--json"], check)

    def _sweep(self, app: str, nranks: int) -> Request:
        def check(stdout: str) -> None:
            envelope = self._legacy_answers(app, nranks)["envelope"]
            base = _params().L
            rows = [line.split() for line in stdout.splitlines()[1:]
                    if line.strip() and not line.startswith("RRMSE")]
            if not rows:
                raise OracleMismatch("sweep printed no rows")
            for delta, _measured, predicted, lam, _rho in rows:
                L = base + float(delta)
                # the table prints seconds to 4 decimals
                want = envelope.value(L) / 1e6
                if abs(float(predicted) - want) > 0.51e-4:
                    raise OracleMismatch(
                        f"predicted runtime at ΔL={delta}: {predicted} s, oracle {want:.6f} s"
                    )
                # λ_L at a breakpoint may be either adjacent slope
                slopes = (envelope.slope(L), envelope.slope(max(L - 1e-6, base)))
                if min(abs(float(lam) - s) for s in slopes) > 0.051:
                    raise OracleMismatch(f"λ_L at ΔL={delta}: {lam}, oracle {slopes}")

        return Request("sweep", f"sweep {app}-{nranks}",
                       ["sweep", app, "--nranks", str(nranks)], check)

    def _curve(self, app: str, nranks: int) -> Request:
        def check(stdout: str) -> None:
            from repro.core.graph_analysis import forward_pass

            params = _params()
            curve = json.loads(stdout)
            graph = self._oracle(("graph", app, nranks), lambda: _app_graph(app, nranks))
            for L, T in zip(curve["L_us"], curve["runtime_us"]):
                want = self._oracle(
                    ("curve", app, nranks, L),
                    lambda: float(forward_pass(graph, params.replace(L=L)).max()),
                )
                _close(f"T({L:g})", float(T), want)

        return Request("curve", f"curve {app}-{nranks}",
                       ["curve", app, "--nranks", str(nranks), "--json"], check)

    def _place(self, app: str, nranks: int, nodes: int) -> Request:
        def check(stdout: str) -> None:
            from repro.network import ArchitectureGraph
            from repro.placement import predicted_runtime

            params = _params()
            answer = json.loads(stdout)
            refined = float(answer["predicted_runtime_us"])
            block = float(answer["baseline_runtime_us"]["block"])
            if refined > block * (1.0 + REL_TOL):
                raise OracleMismatch(f"refined runtime {refined} exceeds the block baseline {block}")
            graph = self._oracle(("graph", app, nranks), lambda: _app_graph(app, nranks))
            arch = ArchitectureGraph(
                num_nodes=nodes, processes_per_node=-(-nranks // nodes),
                intra_node_latency=0.3, inter_node_latency=params.L,
            )
            mapping = tuple(answer["mapping"])
            want = self._oracle(
                ("place", app, nranks, nodes, mapping),
                lambda: predicted_runtime(graph, params, arch, list(mapping), backend="highs"),
            )
            _close("refined runtime", refined, want)

        return Request("place", f"place {app}-{nranks}",
                       ["place", app, "--nranks", str(nranks), "--nodes", str(nodes), "--json"],
                       check)

    def _fleet_pair(self, apps: list[str], nranks: list[int], pass_index: int) -> list[Request]:
        cache_dir = self.work_dir / f"fleet-cache-{pass_index}"
        argv = ["fleet", *apps, "--nranks", *map(str, nranks),
                "--allreduce", "recursive_doubling", "ring",
                "--injectors", "none", "ideal",
                "--processes", str(self.processes),
                "--cache-dir", str(cache_dir), "--json"]
        expected = len(apps) * len(nranks) * 2 * 2
        cold_rows: dict[str, dict] = {}

        def rows_of(stdout: str) -> dict[str, dict]:
            rows = json.loads(stdout)["results"]["rows"]
            if len(rows) != expected:
                raise OracleMismatch(f"fleet returned {len(rows)} rows, expected {expected}")
            return {row["scenario"]: {k: row.get(k) for k in FLEET_FIELDS} for row in rows}

        def check_cold(stdout: str) -> None:
            cold_rows.update(rows_of(stdout))

        def check_warm(stdout: str) -> None:
            warm = rows_of(stdout)
            if not cold_rows:
                raise OracleMismatch("no cold fleet answer to compare the warm one with")
            for scenario, row in warm.items():
                if row != cold_rows.get(scenario):
                    raise OracleMismatch(
                        f"warm row {scenario} differs from the cold row: "
                        f"{row} != {cold_rows.get(scenario)}"
                    )

        def clean() -> None:
            shutil.rmtree(cache_dir, ignore_errors=True)

        label = f"fleet {'+'.join(sorted(apps))} r{'+'.join(map(str, nranks))}"
        return [
            Request("fleet_cold", f"{label} cold", argv, check_cold, cache_dir=cache_dir),
            Request("fleet_warm", f"{label} warm", argv, check_warm, cache_dir=cache_dir,
                    after=clean, needs_previous=True),
        ]


#: request sizes per workload; ``toy`` is the smoke test's scale
SIZES = {
    "full": {
        "analyze": [("lulesh", 8), ("milc", 8)],
        "ingest": ("hpcg", 8),
        "sweep": ("lulesh", 8),
        "place": ("milc", 8, 4),
        "curve": [("lulesh", 125), ("icon", 128), ("lammps", 64)],
        "fleet": (("lulesh", "hpcg", "milc", "icon"), [8]),
    },
    "toy": {
        "analyze": [("lulesh", 8), ("milc", 4)],
        "ingest": ("hpcg", 4),
        "sweep": ("hpcg", 4),
        "place": ("milc", 4, 2),
        "curve": [("lulesh", 8), ("icon", 8), ("lammps", 4)],
        "fleet": (("lulesh", "hpcg"), [4]),
    },
}

WORKLOADS = ("queries-mid", "curve-large", "fleet-grid")


def make_workload(name: str, size: str, work_dir: Path) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    processes = min(2, os.cpu_count() or 1)
    return Workload(name=name, size=size, work_dir=work_dir, processes=processes)
