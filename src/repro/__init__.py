"""repro — a from-scratch Python reproduction of the LLAMP toolchain.

LLAMP (Shen et al., SC 2024) assesses the network-latency sensitivity and
tolerance of MPI applications by converting LogGPS execution graphs into
linear programs.  This package re-implements the complete toolchain plus all
of its substrates: virtual MPI tracing, the Schedgen schedule generator with
collective expansion, the LogGOPS discrete-event simulator, latency-injection
strategies, network topologies, application skeletons, and the LP analysis
core.

Quick start::

    from repro import LatencyAnalyzer, CSCS_TESTBED
    from repro.apps import lulesh

    graph = lulesh.build(nranks=8, params=CSCS_TESTBED)
    analyzer = LatencyAnalyzer(graph, CSCS_TESTBED)
    report = analyzer.tolerance_report()
    print(report.as_rows())
"""

from .core import (
    GraphLP,
    LatencyAnalyzer,
    ParametricAnalysis,
    SensitivityCurve,
    ToleranceReport,
    analyze_critical_path,
    build_lp,
    find_critical_latencies,
    parametric_analysis,
)
from .mpi import Program, VirtualComm, run_program, trace_program
from .network import CSCS_TESTBED, DEFAULT_PARAMS, PIZ_DAINT, LogGPSParams
from .schedgen import (
    CollectiveAlgorithms,
    ExecutionGraph,
    ProtocolConfig,
    ScheduleGenerator,
    build_graph,
)
from .parallel import ScenarioFleet, SweepPool
from .simulator import SimulationResult, simulate

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core analysis
    "LatencyAnalyzer",
    "SensitivityCurve",
    "ToleranceReport",
    "GraphLP",
    "build_lp",
    "ParametricAnalysis",
    "parametric_analysis",
    "analyze_critical_path",
    "find_critical_latencies",
    # network parameters
    "LogGPSParams",
    "CSCS_TESTBED",
    "PIZ_DAINT",
    "DEFAULT_PARAMS",
    # programs, traces, graphs
    "VirtualComm",
    "Program",
    "run_program",
    "trace_program",
    "ScheduleGenerator",
    "CollectiveAlgorithms",
    "ProtocolConfig",
    "ExecutionGraph",
    "build_graph",
    # simulation
    "SimulationResult",
    "simulate",
    # multi-process fleets
    "SweepPool",
    "ScenarioFleet",
]
