"""Figures 4, 5, 6 and 16 — the two-rank running example.

These figures develop the paper's method on a toy graph: two ranks, one
message, computation before and after.  The quantitative targets are exact:

* late sender (Fig. 4b): ``T = L + 2.015 µs`` and ``λ_L = 1``;
* reduced pre-compute (Fig. 4c): critical latency ``L_c = 0.385 µs``;
* Fig. 5: ``T(0.5 µs) = 1.615 µs``;
* Fig. 6: the maximum ``L`` with ``T ≤ 2 µs`` is ``0.885 µs``;
* Fig. 16 (Appendix D): sweeping ``[0.2, 0.5]`` finds the breakpoint 0.385.
"""

from __future__ import annotations

import pytest

from repro.core import build_lp, find_critical_latencies, parametric_analysis
from repro.network.params import LogGPSParams
from repro.schedgen.graph import GraphBuilder
from repro.testing import lp_envelope

from _bench_utils import emit_json, print_header, print_rows

PARAMS = LogGPSParams(L=0.0, o=0.0, g=0.0, G=0.005, S=256 * 1024, P=2)


def build_example(c0: float):
    builder = GraphBuilder(nranks=2)
    v0 = builder.add_calc(0, c0)
    s = builder.add_send(0, 1, 4)
    v1 = builder.add_calc(0, 1.0)
    builder.chain([v0, s, v1])
    v2 = builder.add_calc(1, 0.5)
    r = builder.add_recv(1, 0, 4)
    v3 = builder.add_calc(1, 1.0)
    builder.chain([v2, r, v3])
    builder.add_comm_edge(s, r)
    return builder.freeze()


def _analyse():
    graph = build_example(0.1)
    late = build_example(1.0)
    lp = build_lp(graph, PARAMS)
    lp_late = build_lp(late, PARAMS)
    out = {}
    out["late_T0"] = lp_late.solve_runtime(L=0.0).objective
    sol_late = lp_late.solve_runtime(L=0.0)
    out["late_lambda"] = lp_late.latency_sensitivity(sol_late)
    sol_half = lp.solve_runtime(L=0.5)
    out["T_half"] = sol_half.objective
    out["lambda_half"] = lp.latency_sensitivity(sol_half)
    lp.set_latency_bound(0.0)
    out["tolerance_2us"] = lp.solve_max_latency(2.0).objective
    # Algorithm 2 on the graph (forward passes), and over LP probes
    out["critical"] = find_critical_latencies(graph, 0.0, 1.0, params=PARAMS)
    out["critical_appendix_d"] = find_critical_latencies(graph, 0.2, 0.5, params=PARAMS)
    out["critical_lp"] = lp_envelope(lp, 0.0, 1.0).breakpoints()
    out["critical_appendix_d_lp"] = lp_envelope(lp, 0.2, 0.5).breakpoints()
    pa = parametric_analysis(graph, PARAMS, l_min=0.0, l_max=2.0)
    out["parametric_breakpoints"] = pa.critical_latencies()
    out["T_curve"] = [(L, pa.runtime(L), pa.latency_sensitivity(L))
                      for L in (0.0, 0.2, 0.385, 0.5, 1.0)]
    return out


def test_fig04_running_example(run_once):
    out = run_once(_analyse)

    print_header("Figures 4/5/6/16 — running example")
    print_rows(["quantity", "paper", "reproduced"], [
        ["T with late sender (L=0)            [µs]", 2.015, out["late_T0"]],
        ["λ_L with late sender", 1.0, out["late_lambda"]],
        ["T(L = 0.5 µs)                       [µs]", 1.615, out["T_half"]],
        ["λ_L at L = 0.5 µs", 1.0, out["lambda_half"]],
        ["critical latency L_c                [µs]", 0.385, out["critical"][0]],
        ["L_c over LP probes                  [µs]", 0.385, out["critical_lp"][0]],
        ["max L with T ≤ 2 µs                 [µs]", 0.885, out["tolerance_2us"]],
    ])
    print("\nT(L) and λ_L(L) from the parametric engine:")
    print_rows(["L [µs]", "T [µs]", "λ_L"], [list(row) for row in out["T_curve"]])

    emit_json("fig04_running_example", out)

    assert out["late_T0"] == pytest.approx(2.015)
    assert out["late_lambda"] == pytest.approx(1.0)
    assert out["T_half"] == pytest.approx(1.615)
    assert out["tolerance_2us"] == pytest.approx(0.885)
    assert out["critical"] == pytest.approx([0.385], abs=1e-6)
    assert out["critical_appendix_d"] == pytest.approx([0.385], abs=1e-6)
    assert out["critical_lp"] == pytest.approx([0.385], abs=1e-6)
    assert out["critical_appendix_d_lp"] == pytest.approx([0.385], abs=1e-6)
    assert out["parametric_breakpoints"] == pytest.approx([0.385], abs=1e-9)
