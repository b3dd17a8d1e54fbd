"""Figure 16 / Algorithm 2 — critical latencies within an interval.

Beyond the toy example (covered in ``bench_fig04_running_example``), this
benchmark sweeps an application graph with Algorithm 2 (the tangent search
on forward passes, graph + params) and cross-checks it against the same
search over LP probes (the oracle ``repro.testing.lp_envelope``) and the
exact parametric envelope: all must find the same critical latencies, and
λ_L must be constant between consecutive breakpoints.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import CSCS_TESTBED
from repro.apps import lulesh
from repro.core import build_lp, find_critical_latencies, parametric_analysis
from repro.core.critical_latency import critical_latency_curve
from repro.testing import lp_envelope

from _bench_utils import emit_json, print_header, print_rows

NRANKS = 8
ITERATIONS = 4
L_MIN, L_MAX = CSCS_TESTBED.L, 400.0


def _run():
    graph = lulesh.build(NRANKS, params=CSCS_TESTBED, iterations=ITERATIONS)
    breakpoints = find_critical_latencies(graph, L_MIN, L_MAX, params=CSCS_TESTBED)
    lp_env = lp_envelope(build_lp(graph, CSCS_TESTBED), L_MIN, L_MAX)
    parametric = parametric_analysis(graph, CSCS_TESTBED, l_min=0.0, l_max=L_MAX)
    exact_breakpoints = [b for b in parametric.critical_latencies() if L_MIN < b < L_MAX]
    tangents = critical_latency_curve(graph, L_MIN, L_MAX, params=CSCS_TESTBED)
    return breakpoints, lp_env, exact_breakpoints, tangents, parametric


def test_fig16_critical_latencies(run_once):
    breakpoints, lp_env, exact_breakpoints, tangents, parametric = run_once(_run)
    lp_breakpoints = lp_env.breakpoints()

    print_header("Algorithm 2 / Fig. 16 — critical latencies of LULESH "
                 f"({NRANKS} ranks) in [{L_MIN}, {L_MAX}] µs")
    print(f"Algorithm 2 found       : {[round(b, 3) for b in breakpoints]}")
    print(f"LP probes found         : {[round(b, 3) for b in lp_breakpoints]}")
    print(f"parametric engine found : {[round(b, 3) for b in exact_breakpoints]}")
    print("\nλ_L per segment (probed at segment mid-points):")
    print_rows(["segment mid L [µs]", "T [µs]", "λ_L"],
               [[t.L, t.value, t.slope] for t in tangents])

    emit_json("fig16_critical_latencies", {
        "breakpoints_us": list(breakpoints),
        "lp_breakpoints_us": list(lp_breakpoints),
        "exact_breakpoints_us": list(exact_breakpoints),
        "segments": [{"L_us": t.L, "T_us": t.value, "lambda_L": t.slope}
                     for t in tangents],
    })

    # every breakpoint either search reports must be a genuine breakpoint of
    # the exact envelope (the envelope may additionally contain breakpoints
    # whose runtime effect is below the LP search's numerical tolerance)
    assert breakpoints, "the interval must contain at least one critical latency"
    np.testing.assert_allclose(breakpoints, exact_breakpoints, atol=1e-9)
    assert lp_breakpoints
    for a in lp_breakpoints:
        assert min(abs(a - b) for b in exact_breakpoints) < 1.0
    # λ_L is a non-decreasing step function across the segments
    slopes = [t.slope for t in tangents]
    assert all(b >= a - 1e-9 for a, b in zip(slopes, slopes[1:]))
    # and matches the parametric slope inside each segment
    for t in tangents:
        assert t.slope == pytest.approx(parametric.envelope.slope(t.L), abs=1e-6)
    # the LP probes and the forward passes agree on T(L) across the interval
    for L in np.linspace(L_MIN, L_MAX, 7):
        assert lp_env.value(L) == pytest.approx(parametric.envelope.value(L), rel=1e-9)
