"""``llamp`` command-line interface.

Small front end over the library for the most common workflows:

``llamp analyze``
    build an application skeleton and print runtime, ``λ_L``, ``ρ_L`` and
    the 1/2/5 % latency tolerances, read off its exact ``T(L)`` envelope
    (no LP);
``llamp sweep``
    measured-vs-predicted ΔL sweep (simulator vs the envelope) with RRMSE;
``llamp curve``
    exact ``T(L)`` / ``λ_L(L)`` curve and critical latencies from one
    forward envelope pass (zero LP solves);
``llamp place``
    sensitivity-guided rank placement (Algorithm 3): refine a process
    mapping with the incremental per-pair LP engine and compare it against
    the block and volume-greedy baselines;
``llamp trace``
    write the liballprof-style trace of an application skeleton;
``llamp goal``
    write the GOAL schedule of an application skeleton;
``llamp cache``
    inspect / clear / warm a content-addressed artifact store
    (:mod:`repro.artifacts`): ``warm APP`` persists the graph and its
    ``T(L)`` envelope so later analyses are answered from disk;
``llamp fleet``
    expand an (app × ranks × algorithm × latency × injector) scenario grid
    and run it across a persistent pool of worker processes
    (:mod:`repro.parallel`), writing per-app shards plus one deterministic
    merged summary;
``llamp ingest``
    stream an on-disk trace or GOAL file through the chunked out-of-core
    readers (:mod:`repro.schedgen.streaming`) and print the ``analyze``
    metrics — peak memory stays O(chunk + columns) instead of O(file), with
    the columns optionally spilled to disk-backed buffers (``--mmap-dir``).

Every command runs one engine per stage: the columnar Schedgen graph build,
the forward ``T(L)`` envelope, the vectorised LP compiler and the
level-synchronous simulator.  There is no engine switch.

An unbounded tolerance prints as ``unbounded`` (``null`` under ``--json``).
A NaN, infinite or negative LogGPS parameter or ΔL exits with the reason.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

import numpy as np

from .analysis.validation import run_validation_sweep
from .apps import ALL_APPS
from .artifacts import ArtifactStore, envelope_key
from .core.analyzer import LatencyAnalyzer
from .mpi.tracer import trace_program
from .network.params import CSCS_TESTBED, LogGPSParams
from .schedgen.builder import build_graph
from .schedgen.collectives import CollectiveAlgorithms
from .schedgen.goal import dump_goal
from .schedgen.streaming import DEFAULT_CHUNK_RECORDS
from .trace.format import dump_trace

__all__ = ["main", "build_parser"]


def _params_from_args(args: argparse.Namespace, latency: float | None = None) -> LogGPSParams:
    """``--latency`` (or ``latency``), ``--overhead`` and ``--gap``; a bad value exits."""
    L = args.latency if latency is None else latency
    try:
        return CSCS_TESTBED.replace(L=L, o=args.overhead, G=args.gap)
    except ValueError as error:
        raise SystemExit(str(error)) from None


def _app_graph(args: argparse.Namespace, params: LogGPSParams):
    if args.app not in ALL_APPS:
        raise SystemExit(f"unknown application {args.app!r}; choose from {sorted(ALL_APPS)}")
    module = ALL_APPS[args.app]
    algorithms = CollectiveAlgorithms(allreduce=args.allreduce)
    return module.build(args.nranks, params=params, algorithms=algorithms)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llamp",
        description="LLAMP reproduction: network latency sensitivity/tolerance analysis",
    )
    parser.add_argument("--latency", type=float, default=CSCS_TESTBED.L,
                        help="base network latency L in µs (default: %(default)s)")
    parser.add_argument("--overhead", type=float, default=CSCS_TESTBED.o,
                        help="per-message CPU overhead o in µs (default: %(default)s)")
    parser.add_argument("--gap", type=float, default=CSCS_TESTBED.G,
                        help="per-byte gap G in µs/byte (default: %(default)s)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_app_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("app", choices=sorted(ALL_APPS), help="application skeleton")
        p.add_argument("--nranks", type=int, default=8, help="number of MPI ranks")
        p.add_argument("--allreduce", default="recursive_doubling",
                       choices=("recursive_doubling", "ring", "reduce_bcast"),
                       help="allreduce algorithm used by Schedgen")

    analyze = sub.add_parser("analyze", help="runtime, λ_L, ρ_L and latency tolerances")
    add_app_args(analyze)
    analyze.add_argument("--json", action="store_true", help="print machine-readable JSON")

    sweep = sub.add_parser("sweep", help="measured-vs-predicted ΔL sweep")
    add_app_args(sweep)
    sweep.add_argument("--max-delta", type=float, default=100.0, help="largest ΔL in µs")
    sweep.add_argument("--points", type=int, default=6, help="number of sweep points")

    curve = sub.add_parser("curve", help="exact T(L)/λ_L(L) curve from one forward envelope pass")
    add_app_args(curve)
    curve.add_argument("--l-max", type=float, default=1000.0, help="largest latency L in µs")
    curve.add_argument("--points", type=int, default=11, help="number of printed curve points")
    curve.add_argument("--json", action="store_true", help="print machine-readable JSON")

    place = sub.add_parser("place", help="sensitivity-guided rank placement (Algorithm 3)")
    add_app_args(place)
    place.add_argument("--nodes", type=int, default=4, help="number of compute nodes")
    place.add_argument("--ppn", type=int, default=None,
                       help="processes per node (default: nranks/nodes, rounded up)")
    place.add_argument("--intra-latency", type=float, default=0.3,
                       help="intra-node latency in µs (default: %(default)s)")
    place.add_argument("--inter-latency", type=float, default=None,
                       help="inter-node latency in µs (default: the base latency)")
    place.add_argument("--initial", default="block",
                       choices=("block", "round_robin", "random"),
                       help="initial mapping refined by the search")
    place.add_argument("--max-iterations", type=int, default=20,
                       help="maximum number of accepted swaps")
    place.add_argument("--top-k", type=int, default=4,
                       help="candidate swaps LP-verified per iteration")
    place.add_argument("--backend", default="highs",
                       help="LP backend name from the registry (default: %(default)s)")
    place.add_argument("--json", action="store_true", help="print machine-readable JSON")

    trace = sub.add_parser("trace", help="write a liballprof-style trace")
    add_app_args(trace)
    trace.add_argument("--output", required=True, help="output trace file")

    goal = sub.add_parser("goal", help="write a GOAL schedule")
    add_app_args(goal)
    goal.add_argument("--output", required=True, help="output GOAL file")

    cache = sub.add_parser(
        "cache",
        help="inspect, clear or warm a content-addressed artifact store",
        description="Operate on a repro.artifacts.ArtifactStore directory: "
                    "'stats' prints per-kind entry counts and sizes, 'clear' "
                    "deletes entries, and 'warm APP' builds and stores the "
                    "graph and T(L) envelope of an application skeleton so "
                    "later analyses are answered from disk.",
    )
    cache.add_argument("action", choices=("stats", "clear", "warm"),
                       help="store operation")
    cache.add_argument("app", nargs="?", choices=sorted(ALL_APPS),
                       help="application skeleton (required for 'warm')")
    cache.add_argument("--dir", required=True, dest="cache_dir",
                       help="artifact store directory")
    cache.add_argument("--kind", choices=ArtifactStore.KINDS, default=None,
                       help="restrict 'clear' to one artifact kind")
    cache.add_argument("--nranks", type=int, default=8, help="number of MPI ranks")
    cache.add_argument("--allreduce", default="recursive_doubling",
                       choices=("recursive_doubling", "ring", "reduce_bcast"),
                       help="allreduce algorithm used by Schedgen")
    cache.add_argument("--l-max", type=float, default=1000.0,
                       help="largest latency L in µs for the warmed envelope")
    cache.add_argument("--json", action="store_true", help="print machine-readable JSON")

    from .simulator.injector import INJECTOR_NAMES

    fleet = sub.add_parser(
        "fleet",
        help="run a scenario fleet across a pool of worker processes",
        description="Expand the cross product of applications, rank counts, "
                    "allreduce algorithms, base latencies and injectors into "
                    "scenarios, run them on a persistent pool of spawn "
                    "workers that receive each graph with its tasks, "
                    "and write per-app FLEET_<app>.json shards plus one "
                    "deterministic FLEET_summary.json.",
    )
    fleet.add_argument("apps", nargs="+", choices=sorted(ALL_APPS),
                       help="application skeletons in the fleet")
    fleet.add_argument("--nranks", type=int, nargs="+", default=[8],
                       help="rank counts (grid axis; default: %(default)s)")
    fleet.add_argument("--allreduce", nargs="+", default=["recursive_doubling"],
                       choices=("recursive_doubling", "ring", "reduce_bcast"),
                       help="allreduce algorithms (grid axis)")
    fleet.add_argument("--latencies", type=float, nargs="+", default=None,
                       help="base latencies L in µs (grid axis; default: --latency)")
    fleet.add_argument("--injectors", nargs="+", default=["none"],
                       choices=("none",) + INJECTOR_NAMES,
                       help="latency injectors (grid axis; 'none' = LP-only)")
    fleet.add_argument("--sim-deltas", type=float, nargs="+", default=[0.0, 10.0],
                       help="ΔL points simulated for injector scenarios (µs)")
    fleet.add_argument("--l-max", type=float, default=1000.0,
                       help="largest latency L in µs for the envelopes")
    fleet.add_argument("--processes", type=int, default=None,
                       help="worker processes (default: cpu count; 1 = inline)")
    fleet.add_argument("--cache-dir", default=None,
                       help="shared artifact store directory for the workers")
    fleet.add_argument("--output-dir", default=None,
                       help="directory for FLEET_*.json shards and the summary")
    fleet.add_argument("--json", action="store_true", help="print machine-readable JSON")

    ingest = sub.add_parser(
        "ingest",
        help="stream a trace or GOAL file and analyze it out-of-core",
        description="Parse an on-disk trace or GOAL schedule through the "
                    "chunked streaming readers — fixed-size record blocks "
                    "straight into columnar batches (traces) or the graph "
                    "builder (GOAL), bit-identical to the monolithic "
                    "loaders — and print the analyze metrics. With a "
                    "--mmap-dir the parsed columns are disk-backed: a "
                    "trace's op batches spill there (its graph is built in "
                    "RAM), a GOAL file's graph columns live there. "
                    "Malformed input, including a deadlocked (cyclic) "
                    "schedule, exits non-zero with a one-line reason.",
    )
    ingest.add_argument("format", choices=("trace", "goal"),
                        help="input file format")
    ingest.add_argument("input", help="trace (# llamp-trace v1) or GOAL file")
    ingest.add_argument("--chunk-size", default="auto",
                        help="records per parse block: 'auto' "
                             f"({DEFAULT_CHUNK_RECORDS}) or a positive integer")
    ingest.add_argument("--mmap-dir", default="auto",
                        help="where the ingested columns live: 'auto' "
                             "(temporary directory, removed after the "
                             "analysis), 'none' (keep everything in RAM), "
                             "or an existing directory (default: %(default)s)")
    ingest.add_argument("--min-compute", type=float, default=0.0,
                        help="smallest inter-call gap (µs) turned into a "
                             "compute vertex (trace format only)")
    ingest.add_argument("--json", action="store_true",
                        help="print machine-readable JSON")

    return parser


def _cmd_analyze(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    analyzer = LatencyAnalyzer(_app_graph(args, params), params)
    summary = analyzer.summary()
    if args.json:
        print(json.dumps(_json_summary(summary), indent=2))
        return 0
    print(f"application        : {args.app} ({args.nranks} ranks, "
          f"{analyzer.graph.num_events} events)")
    _print_summary(summary, params.L)
    return 0


def _json_summary(summary: dict) -> dict:
    """``summary`` with unbounded (infinite) tolerances as JSON ``null``."""
    return {k: None if isinstance(v, float) and np.isinf(v) else v for k, v in summary.items()}


def _print_summary(summary: dict, base_latency: float) -> None:
    """The runtime, λ_L, ρ_L and tolerance lines of ``analyze`` and ``ingest``."""
    print(f"predicted runtime  : {summary['runtime_us'] / 1e6:.4f} s")
    print(f"lambda_L           : {summary['lambda_L']:.1f} messages on the critical path")
    print(f"rho_L              : {summary['rho_L'] * 100:.2f} % of the critical path is latency")
    for level in (1, 2, 5):
        tolerance = summary[f"tolerance_{level}pct_us"]
        if np.isinf(tolerance):
            print(f"{level}% latency tolerance : unbounded (no message on any path)")
            continue
        print(f"{level}% latency tolerance : {tolerance:.1f} µs "
              f"(ΔL = {tolerance - base_latency:.1f} µs over the base latency)")


def _cmd_sweep(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    if not 0 <= args.max_delta < math.inf:
        raise SystemExit(
            f"--max-delta ({args.max_delta} µs) must be finite and non-negative"
        )
    graph = _app_graph(args, params)
    deltas = np.linspace(0.0, args.max_delta, args.points)
    sweep = run_validation_sweep(graph, params, app=args.app, delta_Ls=deltas)
    print(f"{'ΔL [µs]':>10s} {'measured [s]':>14s} {'predicted [s]':>14s} {'λ_L':>10s} {'ρ_L':>8s}")
    for row in sweep.rows():
        print(
            f"{row['delta_L_us']:10.1f} {row['measured_us'] / 1e6:14.4f} "
            f"{row['predicted_us'] / 1e6:14.4f} {row['lambda_L']:10.1f} "
            f"{row['rho_L'] * 100:7.2f}%"
        )
    print(f"RRMSE: {sweep.rrmse * 100:.2f}%")
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    if not params.L < args.l_max < math.inf:
        raise SystemExit(
            f"--l-max ({args.l_max} µs) must be finite and exceed the base "
            f"latency ({params.L} µs)"
        )
    graph = _app_graph(args, params)
    envelope = LatencyAnalyzer(graph, params).parametric(l_max=args.l_max).envelope
    Ls = np.linspace(params.L, args.l_max, args.points)
    values = envelope.sample(Ls)
    slopes = envelope.slopes(Ls)
    breakpoints = envelope.breakpoints()
    if args.json:
        print(json.dumps({
            "L_us": Ls.tolist(),
            "runtime_us": values.tolist(),
            "lambda_L": slopes.tolist(),
            "critical_latencies_us": breakpoints,
        }, indent=2))
        return 0
    print(f"application        : {args.app} ({args.nranks} ranks, {graph.num_events} events)")
    print(f"{'L [µs]':>12s} {'T [s]':>12s} {'λ_L':>10s}")
    for L, T, lam in zip(Ls, values, slopes):
        print(f"{L:12.2f} {T / 1e6:12.4f} {lam:10.1f}")
    if breakpoints:
        shown = ", ".join(f"{bp:.3f}" for bp in breakpoints[:10])
        more = "" if len(breakpoints) <= 10 else f" (+{len(breakpoints) - 10} more)"
        print(f"critical latencies : {shown}{more}")
    else:
        print("critical latencies : none in the swept interval")
    return 0


def _cmd_place(args: argparse.Namespace) -> int:
    from .lp.backends import default_registry
    from .network import ArchitectureGraph, block_mapping, random_mapping, round_robin_mapping
    from .placement import llamp_placement, predicted_runtime, volume_greedy_placement

    try:
        default_registry.get(args.backend)
    except ValueError as error:
        raise SystemExit(str(error)) from None
    if args.nodes < 1:
        raise SystemExit(f"--nodes must be >= 1, got {args.nodes}")
    if args.top_k < 1:
        raise SystemExit(f"--top-k must be >= 1, got {args.top_k}")
    ppn = args.ppn if args.ppn is not None else -(-args.nranks // args.nodes)
    if ppn < 1 or args.nodes * ppn < args.nranks:
        raise SystemExit(
            f"{args.nranks} ranks exceed the machine capacity "
            f"({args.nodes} nodes x {ppn} slots)"
        )
    params = _params_from_args(args)
    graph = _app_graph(args, params)
    arch = ArchitectureGraph(
        num_nodes=args.nodes,
        processes_per_node=ppn,
        intra_node_latency=args.intra_latency,
        inter_node_latency=params.L if args.inter_latency is None else args.inter_latency,
    )
    initial_builders = {
        "block": block_mapping,
        "round_robin": round_robin_mapping,
        "random": random_mapping,
    }
    initial = initial_builders[args.initial](args.nranks, arch)
    from .core.lp_builder import build_lp

    # one per-pair LP shared by the search and both baseline evaluations
    graph_lp = build_lp(graph, params, latency_mode="per_pair", gap_mode="per_pair")
    result = llamp_placement(
        graph, params, arch,
        initial_mapping=initial,
        max_iterations=args.max_iterations,
        backend=args.backend,
        top_k=args.top_k,
        graph_lp=graph_lp,
    )
    block = block_mapping(args.nranks, arch)
    baselines = {
        "block": predicted_runtime(
            graph, params, arch, block, backend=args.backend, graph_lp=graph_lp
        ),
        "volume_greedy": predicted_runtime(
            graph, params, arch, volume_greedy_placement(graph, arch),
            backend=args.backend, graph_lp=graph_lp,
        ),
    }
    if args.json:
        print(json.dumps({
            "initial_mapping": list(initial),
            "mapping": result.mapping,
            "initial_runtime_us": result.initial_runtime,
            "predicted_runtime_us": result.predicted_runtime,
            "improvement": result.improvement,
            "iterations": result.iterations,
            "swaps": [list(swap) for swap in result.swaps],
            "lp_solves": result.num_lp_solves,
            "lp_reassemblies": result.num_reassemblies,
            "baseline_runtime_us": baselines,
        }, indent=2))
        return 0
    print(f"application        : {args.app} ({args.nranks} ranks on {args.nodes} nodes, "
          f"{ppn} slots each)")
    print(f"initial mapping    : {args.initial} → {result.initial_runtime / 1e6:.4f} s")
    print(f"refined mapping    : {result.mapping}")
    print(f"predicted runtime  : {result.predicted_runtime / 1e6:.4f} s "
          f"({result.improvement * 100:.2f}% better, {len(result.swaps)} swaps)")
    for name, runtime in baselines.items():
        print(f"{name:<19s}: {runtime / 1e6:.4f} s")
    print(f"LP solves          : {result.num_lp_solves} on one assembled model "
          f"({result.num_reassemblies} re-assemblies)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    module = ALL_APPS[args.app]
    program = module.program(args.nranks)
    trace = trace_program(program, params)
    dump_trace(trace, args.output)
    print(f"wrote {trace.num_records} records for {trace.nranks} ranks to {args.output}")
    return 0


def _cmd_goal(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    graph = _app_graph(args, params)
    dump_goal(graph, args.output)
    print(f"wrote {graph.num_events} vertices / {graph.num_edges} edges to {args.output}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .core.envelope import envelope_config

    store = ArtifactStore(args.cache_dir)
    if args.action == "stats":
        stats = store.stats()
        if args.json:
            print(json.dumps(stats, indent=2))
            return 0
        print(f"store              : {stats['root']}")
        for kind, row in stats["kinds"].items():
            print(f"{kind:<19s}: {row['entries']} entries, {row['bytes']} bytes")
        print(f"total              : {stats['total_entries']} entries, "
              f"{stats['total_bytes']} bytes")
        return 0
    if args.action == "clear":
        removed = store.clear(args.kind)
        what = args.kind if args.kind else "all kinds"
        print(f"removed {removed} entries ({what}) from {store.root}")
        return 0
    # warm: build the graph and its envelope once and persist both
    if args.app is None:
        raise SystemExit("'llamp cache warm' needs an application skeleton argument")
    params = _params_from_args(args)
    if not params.L < args.l_max:
        raise SystemExit(
            f"--l-max ({args.l_max} µs) must exceed the base latency ({params.L} µs)"
        )
    graph = _app_graph(args, params)
    store.get_or_build_graph(graph.content_digest(), lambda: graph)
    analyzer = LatencyAnalyzer(graph, params, cache_dir=args.cache_dir)
    envelope = analyzer.parametric(l_max=args.l_max).envelope
    env_key = envelope_key(
        graph, params, l_min=params.L, l_max=args.l_max, **envelope_config()
    )
    breakpoints = envelope.breakpoints()
    if args.json:
        print(json.dumps({
            "app": args.app,
            "nranks": args.nranks,
            "events": graph.num_events,
            "graph_key": graph.content_digest(),
            "envelope_key": env_key,
            "critical_latencies": len(breakpoints),
        }, indent=2))
        return 0
    print(f"application        : {args.app} ({args.nranks} ranks, {graph.num_events} events)")
    print(f"graph              : {graph.content_digest()[:16]}…")
    print(f"envelope           : {env_key[:16]}… "
          f"({len(breakpoints)} critical latencies)")
    print(f"store              : {store.root}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .parallel import ScenarioFleet

    latencies = args.latencies if args.latencies else [args.latency]
    params_grid = [_params_from_args(args, lat) for lat in latencies]
    if not all(p.L < args.l_max for p in params_grid):
        raise SystemExit(
            f"--l-max ({args.l_max} µs) must exceed every base latency in the grid"
        )
    injectors = [None if name == "none" else name for name in args.injectors]
    driver = ScenarioFleet(
        args.apps,
        nranks=args.nranks,
        allreduces=args.allreduce,
        params_grid=params_grid,
        injectors=injectors,
        l_max=args.l_max,
        sim_deltas=args.sim_deltas,
        processes=args.processes,
        cache_dir=args.cache_dir,
    )
    result = driver.run(output_dir=args.output_dir)
    if args.json:
        print(json.dumps(result.summary, indent=2, sort_keys=True))
        return 0
    merged = result.summary["results"]
    print(f"fleet              : {merged['scenarios']} scenarios over "
          f"{merged['unique_graphs']} unique graphs "
          f"({', '.join(merged['apps'])})")
    print(f"{'scenario':<44s} {'T [s]':>10s} {'λ_L':>8s} {'ρ_L':>7s} {'1% tol [µs]':>12s}")
    for row in merged["rows"]:
        tol = row["tolerance_1pct_us"]
        tol_text = f"{tol:12.1f}" if tol is not None else f"{'—':>12s}"
        print(f"{row['scenario']:<44s} {row['runtime_us'] / 1e6:10.4f} "
              f"{row['lambda_L']:8.1f} {row['rho_L'] * 100:6.2f}% {tol_text}")
    for path in result.shard_paths:
        print(f"shard              : {path}")
    if result.summary_path is not None:
        print(f"summary            : {result.summary_path}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    import shutil
    import tempfile

    from .schedgen.streaming import (
        batches_from_trace_chunked,
        load_goal_chunked,
        resolve_chunk_size,
    )

    try:
        resolve_chunk_size(args.chunk_size)
    except ValueError as error:
        raise SystemExit(f"--chunk-size: {error}") from None
    params = _params_from_args(args)
    work_dir: str | None
    cleanup: str | None = None
    if args.mmap_dir == "auto":
        work_dir = cleanup = tempfile.mkdtemp(prefix="llamp-ingest-")
    elif args.mmap_dir == "none":
        work_dir = None
    else:
        work_dir = args.mmap_dir

    try:
        # every reader and graph validation error is a ValueError: report
        # malformed input in one line, not a traceback
        try:
            if args.format == "trace":
                batches = batches_from_trace_chunked(
                    args.input,
                    min_compute=args.min_compute,
                    chunk_size=args.chunk_size,
                    spill_dir=work_dir,
                )
                analyzer = LatencyAnalyzer.from_batches(batches, batches.nranks, params)
                nranks = batches.nranks
                ingested = {"records": batches.num_rows, "spilled": batches.spilled}
            else:
                graph = load_goal_chunked(
                    args.input, chunk_size=args.chunk_size, mmap_dir=work_dir
                )
                analyzer = LatencyAnalyzer(graph, params)
                nranks = graph.nranks
                ingested = {
                    "vertices": graph.num_events,
                    "edges": graph.num_edges,
                    "spilled": work_dir is not None,
                }
        except ValueError as error:
            raise SystemExit(f"{args.input}: {error}") from None
        summary = analyzer.summary()
        if args.json:
            print(json.dumps({
                "input": args.input,
                "format": args.format,
                "nranks": nranks,
                "ingested": ingested,
                **_json_summary(summary),
            }, indent=2))
            return 0
        spilled = "disk-backed" if ingested["spilled"] else "in-RAM"
        detail = (f"{ingested['records']} op rows" if args.format == "trace"
                  else f"{ingested['vertices']} vertices / {ingested['edges']} edges")
        print(f"ingested           : {args.input} ({args.format}, {nranks} ranks, "
              f"{detail}, {spilled} columns)")
        _print_summary(summary, params.L)
        return 0
    finally:
        if cleanup is not None:
            shutil.rmtree(cleanup, ignore_errors=True)


_COMMANDS = {
    "analyze": _cmd_analyze,
    "sweep": _cmd_sweep,
    "curve": _cmd_curve,
    "place": _cmd_place,
    "trace": _cmd_trace,
    "goal": _cmd_goal,
    "cache": _cmd_cache,
    "fleet": _cmd_fleet,
    "ingest": _cmd_ingest,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``llamp`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
