"""A persistent process pool sweeping digest-addressed scenarios.

A task is a :class:`SweepTask`: ``(graph_digest, params_digest, sweep
spec)`` plus the small parameter record and a scenario label.  Every task
needs its envelope from :func:`~repro.core.envelope.forward_envelope` (no
LP is built or solved), plus simulated points when it asks for them.
:meth:`SweepPool.run_tasks` works off a batch as follows:

* tasks are grouped by envelope key (:meth:`SweepTask.store_key`), and each
  group is **one worker call**: it computes the envelope once, plus each
  distinct ``sim`` of its tasks once; equal tasks share one payload;
* each group is submitted to a ``spawn``
  :class:`~concurrent.futures.ProcessPoolExecutor` **together with its
  graph**, largest graph first so the slowest solve starts earliest; input
  order is restored on collect.  A graph pickles as its identity columns,
  labels, digest and known level structure (``ExecutionGraph.__reduce__``),
  so each worker holds a private copy of the graph it runs.  Workers resolve
  a task's digest against the shipped graph first, then a shared
  :class:`~repro.artifacts.ArtifactStore` (disk); an unresolvable digest is
  an error, never a silent rebuild;
* with a store, every envelope and simulated sweep is read from it before
  anything is computed, and stored once computed.  The parent reads the
  same entries through the same lookup (:func:`stored_payloads`), so a
  caller can answer what the store holds before it starts the pool;
* a worker exception never poisons the pool: the failure — with the failing
  scenario's identity and the worker traceback — travels back as an
  ordinary result and is re-raised in the parent as :class:`ScenarioError`
  after the batch drains;
* a worker that dies breaks the executor: every scenario it took down is
  named in one :class:`ScenarioError` (``exc_type == "BrokenProcessPool"``)
  raised after the batch drains, and the broken executor is discarded so
  the next batch boots fresh workers.  A dead worker fails its batch; it
  never hangs it.

The pool is persistent (one boot of the workers amortised over any number
of batches) and a context manager; exiting stops the workers, in-flight
tasks included.  Entering it spawns nothing: the workers boot on the first
:meth:`SweepPool.run_tasks`, or earlier on an explicit
:meth:`SweepPool.start` (idempotent, a no-op inline), which lets a caller
overlap the workers' boot — a fresh interpreter importing NumPy and this
package each — with its own set-up.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..artifacts import ArtifactStore, envelope_key_from_digests, simulation_key
from ..network.params import LogGPSParams
from ..schedgen.graph import ExecutionGraph

__all__ = ["SweepTask", "ScenarioError", "SweepPool", "stored_payloads"]


@dataclass(frozen=True)
class SweepTask:
    """One digest-addressed scenario: an envelope sweep, optionally plus
    simulated points.

    ``params`` is the tiny parameter record the worker sweeps with; the
    identity of the task is the digest pair plus the sweep configuration,
    so two tasks that compare equal (``params`` and ``scenario`` are not
    compared) produce bit-identical results.  ``scenario`` is an opaque
    label attached to failures so the caller can tell *which* scenario died.
    """

    graph_digest: str
    params_digest: str
    l_min: float
    l_max: float
    sim: tuple[str, tuple[float, ...]] | None = None  # (injector, deltas)
    params: LogGPSParams | None = field(default=None, compare=False)
    scenario: str | None = field(default=None, compare=False)

    def store_key(self) -> str:
        """The :class:`ArtifactStore` envelope key of this task's sweep."""
        from ..core.envelope import envelope_config

        return envelope_key_from_digests(
            self.graph_digest,
            self.params_digest,
            l_min=self.l_min,
            l_max=self.l_max,
            **envelope_config(),
        )

    def simulation_key(self) -> str:
        """The :class:`ArtifactStore` simulation key of this task's ``sim``."""
        injector, deltas = self.sim
        return simulation_key(self.graph_digest, self.params_digest, injector, deltas)


class ScenarioError(RuntimeError):
    """A scenario failed inside a pool worker.

    Carries the failing scenario's identity (:attr:`scenario`), the original
    exception type/message and the full worker traceback — the pool itself
    survives and later batches keep working.
    """

    def __init__(self, scenario: str, exc_type: str, exc_msg: str, tb_text: str):
        super().__init__(
            f"scenario {scenario} failed in a pool worker with "
            f"{exc_type}: {exc_msg}\n--- worker traceback ---\n{tb_text}"
        )
        self.scenario = scenario
        self.exc_type = exc_type
        self.exc_msg = exc_msg
        self.worker_traceback = tb_text


def _label(task: SweepTask) -> str:
    return task.scenario or (
        f"(graph {task.graph_digest[:12]}…, params {task.params_digest[:12]}…)"
    )


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

#: the worker's shared artifact store, opened once by :func:`_init_worker`
_STORE: ArtifactStore | None = None


def _init_worker(cache_dir: str | None) -> None:
    global _STORE
    _STORE = ArtifactStore(cache_dir) if cache_dir is not None else None


def _resolve_graph(
    task: SweepTask, graph: ExecutionGraph | None, store: ArtifactStore | None
) -> ExecutionGraph:
    """Digest-resolution protocol: the shipped graph → the store."""
    if graph is not None:
        return graph
    if store is not None:
        graph = store.get("graph", task.graph_digest)
        if graph is not None:
            return graph
    raise LookupError(
        f"graph digest {task.graph_digest[:12]}… is not resolvable: no graph "
        "was shipped with the task and the artifact store has no entry"
    )


def _envelope(task: SweepTask, graph: ExecutionGraph):
    from ..core.envelope import forward_envelope

    return forward_envelope(graph, task.params, l_min=task.l_min, l_max=task.l_max)


def _simulation(task: SweepTask, graph: ExecutionGraph) -> list[float]:
    from ..simulator.columnar import simulate_sweep

    injector, deltas = task.sim
    return simulate_sweep(graph, task.params, list(deltas), injector=injector).makespan.tolist()


def _group_payloads(
    tasks: Sequence[SweepTask],
    graph: ExecutionGraph | None,
    store: ArtifactStore | None,
    *,
    build: bool = True,
) -> Iterator[dict | None]:
    """Yield the payload of each of ``tasks``, distinct tasks that share one
    envelope key, in order.

    This is the one lookup of the parent and the workers.  The envelope is
    fetched once and each distinct ``sim`` once, under
    :meth:`SweepTask.store_key` and :meth:`SweepTask.simulation_key`: from
    ``store`` when it holds the entry, otherwise computed on the resolved
    graph and stored.  With ``build=False`` (a ``store`` is then required)
    nothing is computed and a task with any missing entry yields ``None``.
    """
    resolved: list[ExecutionGraph] = []

    def fetch(kind: str, key: str, task: SweepTask, compute):
        if not build:
            return store.get(kind, key)

        def builder():
            if not resolved:
                resolved.append(_resolve_graph(task, graph, store))
            if task.params is None:
                raise LookupError(
                    f"params digest {task.params_digest[:12]}… carries no "
                    "parameter record to solve with"
                )
            return compute(task, resolved[0])

        return builder() if store is None else store.get_or_build(kind, key, builder)

    head = tasks[0]
    envelope = fetch("envelope", head.store_key(), head, _envelope)
    sims: dict[tuple | None, list[float] | None] = {None: None}
    for task in tasks:
        if envelope is not None and task.sim not in sims:
            sims[task.sim] = fetch("simulation", task.simulation_key(), task, _simulation)
        runtimes = sims.get(task.sim)
        found = envelope is not None and (task.sim is None or runtimes is not None)
        yield {"envelope": envelope, "sim_runtimes": runtimes} if found else None


def _run_group(
    slot: int,
    tasks: Sequence[SweepTask],
    graph: ExecutionGraph | None,
    store: ArtifactStore | None,
) -> tuple[int, bool, object]:
    """Run one envelope-key group; never raises (failures travel back as
    results, labelled with the task being answered)."""
    import resource

    payloads: list[dict] = []
    try:
        payloads.extend(_group_payloads(tasks, graph, store))
    except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
        return slot, False, (
            _label(tasks[len(payloads)]), type(exc).__name__, str(exc),
            traceback.format_exc(),
        )
    rss_kb = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    for payload in payloads:
        payload["worker_rss_kb"] = rss_kb
    return slot, True, payloads


def _run_in_worker(
    slot: int, tasks: Sequence[SweepTask], graph: ExecutionGraph | None
) -> tuple[int, bool, object]:
    """The pool's target: :func:`_run_group` against the worker's store."""
    return _run_group(slot, tasks, graph, _STORE)


def _groups(
    tasks: Sequence[SweepTask],
) -> tuple[list[list[SweepTask]], list[tuple[int, int]]]:
    """Distinct tasks grouped by envelope key, in order of first appearance,
    and each task's ``(group, member)`` position."""
    groups: list[list[SweepTask]] = []
    group_of: dict[str, int] = {}
    position_of: dict[SweepTask, tuple[int, int]] = {}
    positions = []
    for task in tasks:
        position = position_of.get(task)
        if position is None:
            group = group_of.setdefault(task.store_key(), len(groups))
            if group == len(groups):
                groups.append([])
            position = position_of[task] = (group, len(groups[group]))
            groups[group].append(task)
        positions.append(position)
    return groups, positions


def stored_payloads(
    tasks: Sequence[SweepTask], store: ArtifactStore
) -> list[dict | None]:
    """Each task's payload as ``store`` holds it, ``None`` where an entry
    is missing; computes nothing and needs no graph.

    It reads through the workers' own lookup, so a task it answers is one a
    pool run would answer from the same entries.
    """
    groups, positions = _groups(tasks)
    answers = [list(_group_payloads(group, None, store, build=False)) for group in groups]
    return [answers[group][member] for group, member in positions]


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


class SweepPool:
    """Persistent ``spawn`` worker pool over digest-addressed scenarios.

    Parameters
    ----------
    processes:
        Worker count; defaults to ``os.cpu_count()``.  ``processes <= 1``
        (or ``0``) runs every task inline in this process — same code path,
        no pool, no pickling; ``batched_sweep_graphs`` without
        ``processes`` and ``llamp fleet --processes 1`` run this way.
    cache_dir:
        Optional :class:`~repro.artifacts.ArtifactStore` directory shared by
        all workers (accepts any path-like).  Workers both resolve graph
        digests against it (for tasks submitted without their graph) and
        serve/persist envelopes through it.
    """

    def __init__(
        self,
        processes: int | None = None,
        *,
        cache_dir: str | os.PathLike | None = None,
    ) -> None:
        self.processes = os.cpu_count() or 1 if processes is None else int(processes)
        self.cache_dir = None if cache_dir is None else os.fspath(cache_dir)
        self._pool = None
        self._closed = False

    # -- pool lifecycle ------------------------------------------------------

    @property
    def uses_workers(self) -> bool:
        return self.processes > 1

    def start(self) -> None:
        """Boot the workers now instead of on the first :meth:`run_tasks`.

        Idempotent, and a no-op when ``processes <= 1``.  Callers with work
        to do before their first batch (recording programs, building graphs)
        call it first so the workers boot in parallel with that work.
        """
        if self._closed:
            raise RuntimeError("SweepPool is closed")
        if self.uses_workers and self._pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # spawn, never fork: fork duplicates threaded-BLAS state into
            # the workers (platform-dependent hangs)
            pool = ProcessPoolExecutor(
                self.processes,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_init_worker,
                initargs=(self.cache_dir,),
            )
            # the executor spawns one worker per submit while none is idle:
            # one no-op per worker boots them all now
            for _ in range(self.processes):
                pool.submit(int)
            self._pool = pool

    def _stop_workers(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            # shutdown() alone waits for the tasks in flight: end the worker
            # processes first (the executor has no public way to)
            for process in list(pool._processes.values()):
                process.terminate()
            pool.shutdown(cancel_futures=True)

    def close(self) -> None:
        """Stop the workers, in-flight tasks included; no worker outlives it."""
        self._stop_workers()
        self._closed = True

    def __enter__(self) -> "SweepPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution -----------------------------------------------------------

    def run_tasks(
        self,
        tasks: Sequence[SweepTask],
        graphs: dict[str, ExecutionGraph] | None = None,
    ) -> list[dict]:
        """Execute ``tasks`` and return one payload dict per task, in order.

        ``graphs`` maps graph digests to the frozen graphs this batch needs;
        with workers active each one travels with every envelope-key group
        that runs on it.  Tasks whose digest is absent must be resolvable
        from the shared store.  Each group is one call (envelope once, each
        distinct ``sim`` once) and equal tasks share one payload; any worker
        failure is re-raised as :class:`ScenarioError` (the earliest group
        wins deterministically) after the batch has drained — the pool
        survives, and a lost worker is replaced on the next batch.
        """
        if not tasks:
            return []
        graphs = graphs or {}
        groups, positions = _groups(tasks)

        if self.uses_workers:
            results = self._run_in_workers(groups, graphs)
        else:
            store = ArtifactStore(self.cache_dir) if self.cache_dir is not None else None
            results = [
                _run_group(slot, group, graphs.get(group[0].graph_digest), store)
                for slot, group in enumerate(groups)
            ]

        payloads: list[list[dict] | None] = [None] * len(groups)
        failures: list[tuple[int, tuple]] = []
        for slot, ok, payload in results:
            if ok:
                payloads[slot] = payload
            else:
                failures.append((slot, payload))
        if failures:
            raise ScenarioError(*min(failures)[1])
        return [payloads[group][member] for group, member in positions]

    def _run_in_workers(
        self, groups: list[list[SweepTask]], graphs: dict[str, ExecutionGraph]
    ) -> list[tuple[int, bool, object]]:
        """Submit every group with its graph, largest first; wait for all."""
        from concurrent.futures.process import BrokenProcessPool

        self.start()
        order = sorted(
            range(len(groups)), key=lambda slot: -self._task_size(groups[slot][0], graphs)
        )
        futures, results, lost = [], [], []
        broken = None
        try:
            for slot in order:
                group = groups[slot]
                graph = graphs.get(group[0].graph_digest)
                futures.append((slot, self._pool.submit(_run_in_worker, slot, group, graph)))
        except BrokenProcessPool as exc:  # broke before the batch was queued
            broken, lost = exc, order[len(futures):]
        for slot, future in futures:
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                broken = exc
                lost.append(slot)
        if broken is not None:
            # a dead worker takes its executor down; the next batch boots a
            # fresh one
            self._stop_workers()
            raise ScenarioError(
                ", ".join(_label(task) for slot in sorted(lost) for task in groups[slot]),
                type(broken).__name__,
                str(broken),
                "".join(traceback.format_exception(broken)),
            )
        return results

    @staticmethod
    def _task_size(task: SweepTask, graphs: dict[str, ExecutionGraph]) -> int:
        graph = graphs.get(task.graph_digest)
        return graph.num_vertices if graph is not None else 0

    # -- conveniences --------------------------------------------------------

    def sweep_graphs(
        self,
        graphs: Sequence[ExecutionGraph],
        params: LogGPSParams,
        *,
        l_min: float = 0.0,
        l_max: float = 10_000.0,
    ) -> list:
        """One exact ``T(L)`` forward envelope per graph (duplicates solved
        once); :func:`~repro.core.parametric.batched_sweep_graphs` runs
        through it."""
        params_digest = params.content_digest()
        by_digest = {graph.content_digest(): graph for graph in graphs}
        tasks = [
            SweepTask(
                graph_digest=graph.content_digest(),
                params_digest=params_digest,
                l_min=float(l_min),
                l_max=float(l_max),
                params=params,
                scenario=f"graph[{i}] {graph.content_digest()[:12]}…",
            )
            for i, graph in enumerate(graphs)
        ]
        payloads = self.run_tasks(tasks, by_digest)
        return [payload["envelope"] for payload in payloads]
