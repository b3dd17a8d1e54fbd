"""Shared printing/recording helpers for the benchmark harnesses.

Kept out of ``conftest.py`` on purpose: ``conftest`` is not a safe import
target (both ``tests/`` and ``benchmarks/`` have one, and whichever pytest
loads first wins the ``conftest`` module name).  Benchmark modules import
from ``_bench_utils`` instead, which is unique on ``sys.path``.

Every benchmark records its headline numbers with :func:`emit_json`, which
writes ``BENCH_<name>.json`` (to ``$BENCH_OUTPUT_DIR``, default the current
working directory) so the performance trajectory is machine-readable across
PRs and CI runs.
"""

from __future__ import annotations

import contextlib
import json
import os


def peak_rss_mb() -> float | None:
    """Peak resident-set size of this process so far, in MiB.

    Prefers ``VmHWM`` from ``/proc/self/status`` (Linux high-water mark),
    falling back to ``resource.getrusage`` (``ru_maxrss`` is KiB on Linux,
    bytes on macOS).  Returns ``None`` when neither source is available so
    records stay portable.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) / 1024.0
    except OSError:
        pass
    try:
        import resource
        import sys

        ru_maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        divisor = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
        return float(ru_maxrss) / divisor
    except (ImportError, OSError, ValueError):
        return None


@contextlib.contextmanager
def count_lp_solves():
    """Record every LP solve that reaches the backend registry inside the
    block; yields the list the calls are appended to."""
    from repro.lp.backends import BackendRegistry

    calls: list[str] = []
    original = BackendRegistry.solve

    def counting(self, model, backend="highs", **options):
        calls.append(backend)
        return original(self, model, backend, **options)

    BackendRegistry.solve = counting
    try:
        yield calls
    finally:
        BackendRegistry.solve = original


def print_header(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def print_rows(headers: list[str], rows: list[list]) -> None:
    widths = [max(len(str(h)), max((len(_fmt(r[i])) for r in rows), default=0))
              for i, h in enumerate(headers)]
    print("  ".join(str(h).rjust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(_fmt(v).rjust(w) for v, w in zip(row, widths)))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _json_default(value):
    """Coerce NumPy scalars/arrays so benchmark payloads serialise as-is."""
    import numpy as np

    # np.bool_ first: it is not an np.integer subclass, and int() would
    # silently change its JSON type anyway
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialise {type(value).__name__} in a benchmark record")


def emit_json(name: str, payload) -> str:
    """Write the machine-readable record ``BENCH_<name>.json`` and return its path.

    ``payload`` is any JSON-serialisable structure (NumPy scalars and arrays
    are coerced); ``$BENCH_OUTPUT_DIR`` overrides the output directory.
    Every record also carries ``peak_rss_mb`` — the process peak RSS at emit
    time — as a top-level sibling of ``results`` so the summary collector
    can build a memory column without touching benchmark payloads.
    """
    out_dir = os.environ.get("BENCH_OUTPUT_DIR", ".")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    record = {"bench": name, "peak_rss_mb": peak_rss_mb(), "results": payload}
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, default=_json_default)
        fh.write("\n")
    print(f"[bench] wrote {path}")
    return path
