"""Envelope-read latency sweep vs per-point cold solves (acceptance criterion).

A 100-point latency sweep of the Fig. 4 running example must be at least 3×
faster read off one exact ``T(L)`` envelope
(:func:`~repro.core.envelope.forward_envelope`, the tangent search over
batched level passes, zero LP solves) than through 100 independent cold
``solve_highs`` calls, with identical results to 1e-6.  The envelope costs
O(#breakpoints) probes, each a level pass, so the speedup grows with the
sweep density.

A larger LULESH graph is also reported so the win is shown off the toy
example too.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import CSCS_TESTBED
from repro.core import build_lp, forward_envelope
from repro.network.params import LogGPSParams
from repro.testing import build_running_example

from _bench_utils import count_lp_solves, emit_json, print_header, print_rows

POINTS = 100
PAPER_PARAMS = LogGPSParams(L=0.0, o=0.0, g=0.0, G=0.005, S=256 * 1024, P=2)


def _compare(graph, params, l_min: float, l_max: float):
    Ls = np.linspace(l_min, l_max, POINTS)

    cold_lp = build_lp(graph, params)
    t0 = time.perf_counter()
    cold = np.array(
        [cold_lp.solve_runtime(L=float(L), backend="highs").objective for L in Ls]
    )
    cold_time = time.perf_counter() - t0

    with count_lp_solves() as solves:
        t0 = time.perf_counter()
        envelope = forward_envelope(graph, params, l_min=l_min, l_max=l_max)
        batched = envelope.sample(Ls)
        batched_time = time.perf_counter() - t0

    return {
        "cold_s": cold_time,
        "batched_s": batched_time,
        "speedup": cold_time / batched_time,
        "lp_solves": len(solves),
        "max_diff": float(np.abs(batched - cold).max()),
    }


def _run():
    from repro.apps import lulesh

    results = {}
    results["running example (Fig. 4)"] = _compare(
        build_running_example(), PAPER_PARAMS, 0.0, 2.0
    )
    results["LULESH (4 ranks, 2 iters)"] = _compare(
        lulesh.build(4, params=CSCS_TESTBED, iterations=2),
        CSCS_TESTBED,
        CSCS_TESTBED.L,
        CSCS_TESTBED.L + 200.0,
    )
    return results


def test_batched_sweep_speedup(run_once):
    results = run_once(_run)

    print_header(f"Batched sweep engine — {POINTS}-point L-sweep vs cold solves")
    print_rows(
        ["graph", "cold [s]", "batched [s]", "speedup", "LP solves", "max |Δ|"],
        [
            [name, r["cold_s"], r["batched_s"], r["speedup"], r["lp_solves"], r["max_diff"]]
            for name, r in results.items()
        ],
    )

    emit_json("batched_sweep", results)

    toy = results["running example (Fig. 4)"]
    assert toy["max_diff"] < 1e-6
    assert toy["speedup"] >= 3.0, f"batched sweep only {toy['speedup']:.1f}x faster"
    assert toy["lp_solves"] < POINTS / 2

    lulesh_result = results["LULESH (4 ranks, 2 iters)"]
    assert lulesh_result["max_diff"] < 1e-6
    # looser than the toy example: per-solve cost dominates on larger graphs,
    # so the win is bounded by solves-saved rather than assembly-saved
    assert lulesh_result["speedup"] >= 2.0
