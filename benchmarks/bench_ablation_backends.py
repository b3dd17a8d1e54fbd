"""Ablation — solver backends and analysis methods.

Compares, on the same execution graph, the three ways this reproduction can
obtain ``T(ΔL)`` and ``λ_L``:

* the LP with the HiGHS backend (the default; reproduces the paper's method),
* the LP with the self-contained dense simplex (small graphs only),
* the plain forward-pass graph analysis (one fixed configuration per pass),
* the exact parametric envelope (whole curve at once).

All four must agree numerically; the benchmark reports their runtimes.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import CSCS_TESTBED
from repro.apps import lulesh
from repro.core import analyze_critical_path, build_lp, parametric_analysis

from _bench_utils import emit_json, print_header, print_rows

DELTAS = [0.0, 20.0, 60.0]


def _run():
    small = lulesh.build(4, params=CSCS_TESTBED, iterations=2)
    timings: dict[str, float] = {}
    values: dict[str, list[float]] = {}

    lp = build_lp(small, CSCS_TESTBED)
    t0 = time.perf_counter()
    values["highs"] = [lp.solve_runtime(L=CSCS_TESTBED.L + d, backend="highs").objective
                       for d in DELTAS]
    timings["highs"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    values["simplex"] = [lp.solve_runtime(L=CSCS_TESTBED.L + d, backend="simplex").objective
                         for d in DELTAS]
    timings["simplex"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    values["graph"] = [analyze_critical_path(small, CSCS_TESTBED.with_delta_latency(d)).runtime
                       for d in DELTAS]
    timings["graph"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    pa = parametric_analysis(small, CSCS_TESTBED, l_min=0.0, l_max=200.0)
    values["parametric"] = [pa.runtime(CSCS_TESTBED.L + d) for d in DELTAS]
    timings["parametric"] = time.perf_counter() - t0

    return timings, values


def test_ablation_backends(run_once):
    timings, values = run_once(_run)

    print_header("Ablation — analysis back ends on LULESH (4 ranks, 2 iterations)")
    print_rows(["method", "sweep time [s]"] + [f"T(ΔL={d:.0f}) [µs]" for d in DELTAS],
               [[name, timings[name]] + list(values[name]) for name in values])

    emit_json("ablation_backends", {"timings_s": timings, "values_us": values})

    reference = values["highs"]
    for name, series in values.items():
        assert np.allclose(series, reference, rtol=1e-6), name


def test_ablation_protocol(run_once):
    """Eager-threshold ablation: forcing rendezvous adds two latencies per message."""
    from repro.apps import lammps
    from repro.schedgen import ProtocolConfig
    from repro import LatencyAnalyzer

    def run():
        results = {}
        for label, threshold in (("eager (S=256 KiB)", 256 * 1024), ("rendezvous (S=1 KiB)", 1024)):
            graph = lammps.build(
                4, params=CSCS_TESTBED, steps=6,
                protocol=ProtocolConfig(eager_threshold=threshold),
            )
            analyzer = LatencyAnalyzer(graph, CSCS_TESTBED)
            results[label] = {
                "runtime": analyzer.predict_runtime(),
                "lambda": analyzer.latency_sensitivity(),
                "messages": graph.num_messages,
            }
        return results

    results = run_once(run)
    print_header("Ablation — eager vs rendezvous protocol threshold (LAMMPS, 4 ranks)")
    print_rows(["protocol", "messages", "runtime [s]", "λ_L"],
               [[k, v["messages"], v["runtime"] / 1e6, v["lambda"]] for k, v in results.items()])

    emit_json("ablation_protocol", results)

    eager = results["eager (S=256 KiB)"]
    rdv = results["rendezvous (S=1 KiB)"]
    assert rdv["messages"] > eager["messages"]
    assert rdv["runtime"] > eager["runtime"]
    assert rdv["lambda"] >= eager["lambda"]
