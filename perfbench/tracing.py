"""Spans and counters around the library's public layer calls.

:func:`installed` wraps a fixed list of public functions and methods of
``repro`` for the duration of a ``with`` block and restores the originals
on exit, so untraced requests run unmodified library code.  Each wrapper
records a span (name, start, end, parent) while a request is being recorded
and folds the count fields the call already returns into the tracer's
counters.  Worker processes of the sweep pool import their own, unwrapped
copy of the library: their time is visible only as the parent's
``parallel.run`` span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


@dataclass
class Tracer:
    """In-memory spans and counters of the requests being recorded."""

    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    maxima: dict[str, float] = field(default_factory=dict)
    recording: bool = False
    _stack: list[int] = field(default_factory=list)
    _graphs: set[int] = field(default_factory=set)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def open_names(self) -> set[str]:
        return {self.spans[i].name for i in self._stack}

    @contextmanager
    def request(self, name: str):
        """Record one request: its root span and every layer span under it."""
        self.recording = True
        self._graphs = set()
        try:
            with self.span(name):
                yield
        finally:
            self.recording = False

    def note_graph(self, graph) -> None:
        """Count each distinct graph of a request once (``graph_for`` caches)."""
        if id(graph) in self._graphs:
            return
        self._graphs.add(id(graph))
        self.counts["schedgen.vertices"] += graph.num_vertices
        self.counts["schedgen.levels"] += graph.num_levels

    def note_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)


# -- result hooks: fold the counts a call returns into the tracer -------------


def _count_solve(tracer, result, args, kwargs):
    tracer.counts["lp.solves"] += 1


def _count_placement(tracer, result, args, kwargs):
    tracer.counts["placement.lp_solves"] += result.num_lp_solves
    tracer.counts["placement.reassemblies"] += result.num_reassemblies


def _count_graph(tracer, result, args, kwargs):
    tracer.note_graph(result)


def _count_ingest(tracer, result, args, kwargs):
    tracer.counts["schedgen.ingest_records"] += result.num_rows


def _count_envelope(tracer, result, args, kwargs):
    tracer.counts["core.envelope_pieces"] += len(result.lines)


def _count_fallback(tracer, result, args, kwargs):
    engine = args[0] if args else kwargs.get("engine")
    if engine == "auto" and result == "lp":
        tracer.counts["core.envelope_lp_fallbacks"] += 1


def _count_simulation(tracer, result, args, kwargs):
    tracer.counts["simulator.points"] += 1


def _count_sweep_simulation(tracer, result, args, kwargs):
    deltas = args[2] if len(args) > 2 else kwargs["deltas"]
    tracer.counts["simulator.points"] += len(deltas)


def _count_pool(tracer, result, args, kwargs):
    tasks = args[1] if len(args) > 1 else kwargs["tasks"]
    tracer.counts["parallel.tasks"] += len(tasks)
    tracer.counts["parallel.unique_graphs"] += len({t.graph_digest for t in tasks})
    tracer.counts["parallel.unique_envelopes"] += len({t.store_key() for t in tasks})
    if result:
        rss_mb = max(payload["worker_rss_kb"] for payload in result) / 1024.0
        tracer.note_max("parallel.worker_rss_mb", rss_mb)


def _targets():
    """``(owner, attribute, span name or None, result hook)`` of every wrapped call.

    ``owner`` is a module or a class.  A span name of ``None`` records no
    span, only the hook's counts.
    """
    from repro.apps import ALL_APPS
    from repro.core import envelope, lp_builder
    from repro.lp.backends import BackendRegistry
    from repro.parallel.pool import SweepPool
    from repro.placement import algorithm
    from repro.schedgen import builder, columnar, streaming
    from repro.simulator import columnar as sim_columnar
    from repro.simulator import loggops

    targets = [
        (BackendRegistry, "solve", "lp.solve", _count_solve),
        (lp_builder, "build_lp", "lp.compile", None),
        (algorithm, "llamp_placement", "placement", _count_placement),
        (columnar, "batches_from_program", "schedgen.batches", None),
        (columnar.ScheduleBatches, "graph_for", "schedgen.graph", _count_graph),
        (builder, "build_graph", "schedgen.graph", _count_graph),
        (streaming, "batches_from_trace_chunked", "schedgen.ingest", _count_ingest),
        (envelope, "forward_envelope", "core.envelope", _count_envelope),
        (envelope, "resolve_envelope_engine", None, _count_fallback),
        (loggops, "simulate", "simulator", _count_simulation),
        (sim_columnar, "simulate_sweep", "simulator", _count_sweep_simulation),
        (SweepPool, "run_tasks", "parallel.run", _count_pool),
    ]
    for module in {id(m): m for m in ALL_APPS.values()}.values():
        targets.append((module, "program", "apps.program", None))
        targets.append((module, "build", "apps.build", None))
    return targets


def _wrap(tracer: Tracer, fn, name: str | None, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        # nested calls of the same layer (e.g. the ``auto`` backend
        # re-dispatching to ``highs``) belong to the outermost span
        if not tracer.recording or (name is not None and name in tracer.open_names()):
            return fn(*args, **kwargs)
        if name is None:
            result = fn(*args, **kwargs)
        else:
            with tracer.span(name):
                result = fn(*args, **kwargs)
        if hook is not None:
            hook(tracer, result, args, kwargs)
        return result

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block.

    A module-level function is also replaced in every loaded ``repro``
    module that imported it by name, so callers bound at import time see
    the wrapper too.
    """
    patches: list[tuple[object, str, object]] = []
    try:
        for owner, attr, name, hook in _targets():
            original = owner.__dict__[attr]
            wrapper = _wrap(tracer, getattr(owner, attr), name, hook)
            patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for module in list(sys.modules.values()):
                if (module is not owner and getattr(module, "__name__", "").startswith("repro")
                        and module.__dict__.get(attr) is original):
                    patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# -- aggregation ----------------------------------------------------------------

#: per-layer metrics of the traced run: name -> unit
LAYER_METRICS = {
    "lp.solves": "count",
    "lp.solve_s": "s",
    "lp.assemblies": "count",
    "lp.compile_s": "s",
    "placement.s": "s",
    "placement.lp_solves": "count",
    "placement.reassemblies": "count",
    "apps.program_s": "s",
    "schedgen.batches_s": "s",
    "schedgen.graph_s": "s",
    "schedgen.vertices": "count",
    "schedgen.levels": "count",
    "schedgen.ingest_s": "s",
    "schedgen.ingest_records": "count",
    "core.envelope_s": "s",
    "core.envelope_pieces": "count",
    "core.envelope_lp_fallbacks": "count",
    "simulator.s": "s",
    "simulator.points": "count",
    "parallel.run_s": "s",
    "parallel.tasks": "count",
    "parallel.unique_graphs": "count",
    "parallel.worker_rss_mb": "MB",
    "artifacts.new_entries": "count",
    "artifacts.bytes": "B",
    "artifacts.hit_ratio": "ratio",
}

#: span name -> the time metric it adds to
_SPAN_METRICS = {
    "lp.solve": "lp.solve_s",
    "lp.compile": "lp.compile_s",
    "placement": "placement.s",
    "apps.program": "apps.program_s",
    "schedgen.batches": "schedgen.batches_s",
    "schedgen.graph": "schedgen.graph_s",
    "schedgen.ingest": "schedgen.ingest_s",
    "core.envelope": "core.envelope_s",
    "simulator": "simulator.s",
    "parallel.run": "parallel.run_s",
}


def span_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per time metric over ``spans``.

    An app's ``build`` is program generation followed by ``build_graph``,
    so its self time (duration minus its child spans) is program time.
    """
    totals = dict.fromkeys(_SPAN_METRICS.values(), 0.0)
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    for index, span in enumerate(spans):
        duration = span.end - span.start
        if span.name == "apps.build":
            totals["apps.program_s"] += duration - child_time[index]
        elif span.name in _SPAN_METRICS:
            totals[_SPAN_METRICS[span.name]] += duration
    return totals


def layer_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced passes of each per-pass layer metric."""
    return {name: median(p.get(name, 0.0) for p in passes) for name in LAYER_METRICS}
