"""The LLAMP analyzer: the high-level public API of this package.

:class:`LatencyAnalyzer` wraps an execution graph and a LogGPS configuration
and exposes every metric the paper derives from the generated LP:

* predicted runtime ``T`` for any added latency ΔL (Section II-C);
* network latency sensitivity ``λ_L`` (the slope of ``T(L)``, Section II-D1);
* the L ratio ``ρ_L`` (fraction of the critical path spent in latency);
* network latency tolerance — the largest ``L`` that keeps the runtime within
  x % of the baseline (Section II-D2);
* all critical latencies in an interval (Algorithm 2);
* bandwidth sensitivity ``λ_G`` (Section II-B1);
* full sensitivity curves over a ΔL sweep (the lower panels of Fig. 9/10).

Envelope-first: Eq. 3 makes every latency metric a query on one exact
``T(L)`` envelope over ``[L₀, ∞)`` (:attr:`LatencyAnalyzer.analysis`, a
few batched forward passes, no LP).  The LP is built only for ``λ_G``.

Typical use::

    from repro import LatencyAnalyzer, CSCS_TESTBED
    from repro.apps import lulesh

    graph = lulesh.build(nranks=8, params=CSCS_TESTBED)
    analyzer = LatencyAnalyzer(graph, CSCS_TESTBED)
    print(analyzer.predict_runtime())                 # seconds of predicted runtime
    print(analyzer.latency_tolerance(0.01))           # 1% latency tolerance in µs
    print(analyzer.latency_sensitivity(delta_L=10.0)) # λ_L at +10 µs
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..network.params import LogGPSParams
from ..schedgen.graph import ExecutionGraph
from .critical_latency import critical_latency_curve, find_critical_latencies
from .graph_analysis import CriticalPathResult, analyze_critical_path
from .lp_builder import GraphLP, build_lp
from .parametric import ParametricAnalysis, PiecewiseLinear

__all__ = ["SensitivityCurve", "ToleranceReport", "LatencyAnalyzer"]


@dataclass
class SensitivityCurve:
    """Runtime, ``λ_L`` and ``ρ_L`` sampled over a ΔL sweep."""

    delta_L: np.ndarray
    runtime: np.ndarray
    latency_sensitivity: np.ndarray
    l_ratio: np.ndarray

    def as_dict(self) -> dict[str, list[float]]:
        return {
            "delta_L": self.delta_L.tolist(),
            "runtime": self.runtime.tolist(),
            "latency_sensitivity": self.latency_sensitivity.tolist(),
            "l_ratio": self.l_ratio.tolist(),
        }


@dataclass
class ToleranceReport:
    """Latency tolerances at the paper's standard degradation levels."""

    baseline_runtime: float
    baseline_latency: float
    tolerances: dict[float, float]

    def tolerance(self, degradation: float) -> float:
        """Absolute tolerable latency L for a given degradation level."""
        return self.tolerances[degradation]

    def delta_tolerance(self, degradation: float) -> float:
        """Tolerable *added* latency ΔL over the baseline network latency."""
        return self.tolerances[degradation] - self.baseline_latency

    def as_rows(self) -> list[tuple[float, float, float]]:
        """Rows of (degradation, L, ΔL), sorted by degradation."""
        return [
            (deg, tol, tol - self.baseline_latency)
            for deg, tol in sorted(self.tolerances.items())
        ]


class LatencyAnalyzer:
    """Analyse the network-latency behaviour of one execution graph."""

    #: degradation levels highlighted throughout the paper (Fig. 1 / Fig. 9)
    DEFAULT_DEGRADATIONS = (0.01, 0.02, 0.05)

    def __init__(
        self,
        graph: ExecutionGraph,
        params: LogGPSParams,
        *,
        backend: str = "highs",
        gap_symbolic: bool = False,
        cache_dir: str | os.PathLike | None = None,
    ) -> None:
        from ..lp.backends import default_registry

        if backend not in default_registry.names():
            raise ValueError(
                f"unknown backend {backend!r} for LatencyAnalyzer; "
                f"expected one of {tuple(default_registry.names())}"
            )

        self.graph = graph
        self.params = params
        self.backend = backend
        self._gap_symbolic = gap_symbolic
        self._lp: GraphLP | None = None
        self._analysis: ParametricAnalysis | None = None
        self._baseline_runtime: float | None = None
        self._store = None
        if cache_dir is not None:
            from ..artifacts import ArtifactStore

            self._store = ArtifactStore(cache_dir)

    @classmethod
    def from_program(cls, program, params: LogGPSParams, *, algorithms=None,
                     protocol=None, **kwargs) -> "LatencyAnalyzer":
        """Analyze ``program``: its graph comes from
        :func:`~repro.schedgen.builder.build_graph` (the protocol defaults
        to ``ProtocolConfig.from_params(params)``)."""
        from ..schedgen.builder import build_graph

        graph = build_graph(program, algorithms=algorithms, protocol=protocol, params=params)
        return cls(graph, params, **kwargs)

    @classmethod
    def from_batches(cls, batches, nranks: int, params: LogGPSParams, *,
                     algorithms=None, protocol=None,
                     **kwargs) -> "LatencyAnalyzer":
        """Analyze columnar :class:`~repro.schedgen.columnar.RankOpBatch`
        arrays (e.g. a chunked trace ingest) without materialising a program.

        The graph is built and validated once
        (:meth:`~repro.schedgen.columnar.ScheduleBatches.graph_for`), so a
        deadlocked schedule raises
        :class:`~repro.schedgen.graph.GraphValidationError`."""
        from ..schedgen.columnar import ScheduleBatches

        graph = ScheduleBatches(
            batches, nranks, algorithms=algorithms, protocol=protocol,
        ).graph_for(params)
        return cls(graph, params, **kwargs)

    @property
    def store(self):
        """The :class:`~repro.artifacts.ArtifactStore` behind ``cache_dir``
        (``None`` when caching is off)."""
        return self._store

    # -- lazily built artefacts -------------------------------------------------

    @property
    def lp(self) -> GraphLP:
        """The generated LP (built on first use; only ``λ_G`` needs it)."""
        if self._lp is None:
            self._lp = build_lp(
                self.graph,
                self.params,
                latency_mode="global",
                gap_mode="global" if self._gap_symbolic else "constant",
            )
        return self._lp

    @property
    def analysis(self) -> ParametricAnalysis:
        """The exact ``T(L)`` curve over ``[L₀, ∞)`` every latency metric is
        read from: :meth:`parametric` up to ``L = ∞``, built on first use."""
        if self._analysis is None:
            self._analysis = self.parametric(l_max=math.inf)
        return self._analysis

    def graph_analysis(self, delta_L: float = 0.0) -> CriticalPathResult:
        """The conventional two-pass critical path analysis (baseline method)."""
        return analyze_critical_path(self.graph, self.params.with_delta_latency(delta_L))

    def simulate(self, delta_L: float = 0.0, *, injector=None, noise=None):
        """One LogGOPS simulation run (the "measured" side of the paper's
        validation).

        ``delta_L`` and an explicit ``injector`` are mutually exclusive,
        exactly as in :func:`repro.simulator.simulate`.
        """
        from ..simulator.loggops import simulate

        return simulate(self.graph, self.params, delta_L=delta_L, injector=injector, noise=noise)

    def simulated_sweep(self, delta_Ls, *, injector: str = "ideal", noise=None):
        """Simulated makespans over a ΔL sweep in one batched level pass.

        Uses :func:`repro.simulator.columnar.simulate_sweep`: every level of
        the graph advances all sweep points at once (one 2-D array pass), so
        the whole sweep costs a single traversal.
        """
        from ..simulator.columnar import simulate_sweep

        return simulate_sweep(self.graph, self.params, delta_Ls, injector=injector, noise=noise)

    def parametric(
        self, l_min: float | None = None, l_max: float = 10_000.0, *,
        max_pieces: int = 50_000,
    ) -> ParametricAnalysis:
        """The exact piecewise-linear ``T(L)`` curve on ``[l_min, l_max]``;
        ``l_min`` defaults to the baseline latency.

        The curve comes from :func:`~repro.core.envelope.forward_envelope`
        (no LP is built).  With ``cache_dir=`` set, a store hit answers
        without any traversal; a miss is built once and persisted (one key
        per curve: :func:`~repro.core.envelope.envelope_config`).
        """
        from .envelope import envelope_config, forward_envelope

        lo = self.params.L if l_min is None else l_min

        def build() -> PiecewiseLinear:
            return forward_envelope(
                self.graph, self.params, l_min=lo, l_max=l_max, max_pieces=max_pieces
            )

        if self._store is None:
            envelope = build()
        else:
            from ..artifacts import envelope_key

            key = envelope_key(self.graph, self.params, l_min=lo, l_max=l_max,
                               **envelope_config(max_pieces))
            envelope = self._store.get_or_build_envelope(key, build)
        return ParametricAnalysis(envelope, self.params, self.graph)

    @classmethod
    def sweep_many(
        cls,
        graphs: Sequence[ExecutionGraph],
        params: LogGPSParams,
        *,
        l_min: float | None = None,
        l_max: float = 10_000.0,
        max_pieces: int = 50_000,
        processes: int | None = None,
        cache_dir: str | os.PathLike | None = None,
    ) -> list[ParametricAnalysis]:
        """One :class:`ParametricAnalysis` per graph, via the sweep pool.

        The many-graph counterpart of :meth:`parametric`: graphs are
        deduplicated by content digest, and with ``processes > 1`` the unique
        ones fan out over a :class:`~repro.parallel.SweepPool` of ``spawn``
        workers, each graph shipped with its task as its pickled identity
        columns.
        """
        from .parametric import batched_sweep_graphs

        lo = params.L if l_min is None else l_min
        envelopes = batched_sweep_graphs(
            graphs,
            params,
            l_min=lo,
            l_max=l_max,
            max_pieces=max_pieces,
            processes=processes,
            cache_dir=cache_dir,
        )
        return [
            ParametricAnalysis(envelope, params, graph)
            for graph, envelope in zip(graphs, envelopes)
        ]

    # -- core metrics (all read off sensitivity_curve) ----------------------------

    def predict_runtime(self, delta_L: float = 0.0) -> float:
        """Predicted runtime (µs) with ``delta_L`` µs of added network latency."""
        return float(self.sensitivity_curve([delta_L]).runtime[0])

    def baseline_runtime(self) -> float:
        """Predicted runtime at the baseline latency (cached)."""
        if self._baseline_runtime is None:
            self._baseline_runtime = self.predict_runtime(0.0)
        return self._baseline_runtime

    def latency_sensitivity(self, delta_L: float = 0.0) -> float:
        """``λ_L = ∂T/∂L`` at the given added latency (messages on the critical path)."""
        return float(self.sensitivity_curve([delta_L]).latency_sensitivity[0])

    def l_ratio(self, delta_L: float = 0.0) -> float:
        """``ρ_L``: fraction of the predicted runtime attributable to network latency."""
        return float(self.sensitivity_curve([delta_L]).l_ratio[0])

    def bandwidth_sensitivity(self, delta_L: float = 0.0) -> float:
        """``λ_G = ∂T/∂G``: bytes (minus one per message) on the critical path."""
        if not self._gap_symbolic:
            raise ValueError(
                "build the analyzer with gap_symbolic=True to query bandwidth sensitivity"
            )
        solution = self.lp.solve_runtime(L=self.params.L + delta_L, backend=self.backend)
        return self.lp.gap_sensitivity(solution)

    # -- tolerance -----------------------------------------------------------------

    def latency_tolerance(self, degradation: float, *, absolute: bool = True) -> float:
        """Largest latency keeping the runtime within ``(1+degradation)·T₀``.

        ``absolute=True`` returns the total tolerable latency ``L`` (as in
        Fig. 1); ``absolute=False`` returns the tolerable *added* latency ΔL.
        Unbounded (``math.inf``) when no path carries a message.
        """
        tolerance = self.analysis.latency_tolerance(degradation)
        return tolerance if absolute else tolerance - self.params.L

    def tolerance_report(
        self, degradations: Sequence[float] | None = None
    ) -> ToleranceReport:
        """Latency tolerances at several degradation levels (default 1/2/5 %)."""
        degradations = tuple(degradations or self.DEFAULT_DEGRADATIONS)
        tolerances = {deg: self.latency_tolerance(deg) for deg in degradations}
        return ToleranceReport(
            baseline_runtime=self.baseline_runtime(),
            baseline_latency=self.params.L,
            tolerances=tolerances,
        )

    # -- curves and sweeps ------------------------------------------------------------

    def sensitivity_curve(self, delta_Ls: Iterable[float]) -> SensitivityCurve:
        """Sample runtime, ``λ_L`` and ``ρ_L`` over a ΔL sweep (Fig. 9 lower panels).

        Every point is read off :attr:`analysis` in one vectorised pass.
        """
        deltas = np.asarray(sorted(set(float(d) for d in delta_Ls)), dtype=np.float64)
        if not np.all((0 <= deltas) & (deltas < math.inf)):
            raise ValueError("delta_L values must be finite and non-negative")
        Ls = self.params.L + deltas
        envelope = self.analysis.envelope
        runtimes = envelope.sample(Ls)
        lambdas = envelope.slopes(Ls)
        with np.errstate(divide="ignore", invalid="ignore"):
            rhos = np.where(runtimes > 0, Ls * lambdas / runtimes, 0.0)
        return SensitivityCurve(
            delta_L=deltas, runtime=runtimes, latency_sensitivity=lambdas, l_ratio=rhos
        )

    def _algorithm2(self, search, l_min: float | None, l_max: float, **kwargs):
        """Run an Algorithm 2 wrapper on the raw graph (forward pass, no LP)."""
        lo = self.params.L if l_min is None else l_min
        return search(self.graph, lo, l_max, params=self.params, **kwargs)

    def critical_latencies(
        self, l_min: float | None = None, l_max: float = 1_000.0, *, step: float | None = None
    ) -> list[float]:
        """Critical latencies in ``[l_min, l_max]`` (Algorithm 2)."""
        return self._algorithm2(find_critical_latencies, l_min, l_max, step=step)

    def critical_latency_curve(self, l_min: float | None = None, l_max: float = 1_000.0):
        """One :class:`~repro.lp.parametric.Tangent` per linear segment of ``T(L)``."""
        return self._algorithm2(critical_latency_curve, l_min, l_max)

    # -- reporting ----------------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """One-line summary used by the CLI and the examples."""
        report = self.tolerance_report()
        lam = self.latency_sensitivity()
        return {
            "nranks": self.graph.nranks,
            "events": self.graph.num_events,
            "messages": self.graph.num_messages,
            "runtime_us": report.baseline_runtime,
            "lambda_L": lam,
            "rho_L": self.l_ratio(),
            "tolerance_1pct_us": report.tolerance(0.01),
            "tolerance_2pct_us": report.tolerance(0.02),
            "tolerance_5pct_us": report.tolerance(0.05),
        }
