"""Validation harness: measured-vs-predicted runtime sweeps (Fig. 9 / Table II).

On the real cluster the paper injects latency with its delay-thread injector,
measures the application runtime, and compares against LLAMP's prediction.
In this reproduction the *measurement* is the LogGOPS discrete-event
simulator (optionally with noise and a non-ideal injector) and the
*prediction* is :class:`~repro.core.analyzer.LatencyAnalyzer`'s exact
``T(L)`` envelope — two independent code paths over the same execution
graph, so agreement is meaningful and the RRMSE statistics of the paper can
be recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.analyzer import LatencyAnalyzer, ToleranceReport
from ..network.params import LogGPSParams
from ..schedgen.graph import ExecutionGraph
from ..simulator.injector import make_injector
from ..simulator.loggops import simulate
from ..simulator.noise import GaussianNoise, NoiseModel, NoNoise
from .metrics import rmse, rrmse

__all__ = ["ValidationSweep", "run_validation_sweep", "noise_seed"]

#: domain constant separating the validation sweep's noise streams from any
#: other SeedSequence user in the package
_NOISE_SEED_BASE = 7919


def noise_seed(rep: int, point: int) -> np.random.SeedSequence:
    """The noise seed of repetition ``rep`` at sweep point ``point``.

    A :class:`numpy.random.SeedSequence` keyed by the full ``(base, rep,
    point)`` tuple: every (repetition, point) pair gets a provably distinct,
    well-mixed stream.  The previous arithmetic scheme ``rep * 7919 +
    point`` collided as soon as a sweep had ≥ 7919 ΔL points (e.g. ``(rep=0,
    point=7919)`` vs ``(rep=1, point=0)``), silently reusing "independent"
    noise between repetitions.
    """
    return np.random.SeedSequence((_NOISE_SEED_BASE, int(rep), int(point)))


@dataclass
class ValidationSweep:
    """Result of a measured-vs-predicted ΔL sweep for one application/scale."""

    app: str
    nranks: int
    num_events: int
    delta_L: np.ndarray
    measured: np.ndarray
    predicted: np.ndarray
    latency_sensitivity: np.ndarray
    l_ratio: np.ndarray
    tolerance: ToleranceReport

    @property
    def rmse(self) -> float:
        """RMSE between measured and predicted runtimes (µs)."""
        return rmse(self.measured, self.predicted)

    @property
    def rrmse(self) -> float:
        """Relative RMSE (fraction; multiply by 100 for Table II percentages)."""
        return rrmse(self.measured, self.predicted)

    def rows(self) -> list[dict[str, float]]:
        """One dictionary per ΔL sample (used by the benchmark printers)."""
        return [
            {
                "delta_L_us": float(d),
                "measured_us": float(m),
                "predicted_us": float(p),
                "lambda_L": float(lam),
                "rho_L": float(rho),
            }
            for d, m, p, lam, rho in zip(
                self.delta_L, self.measured, self.predicted,
                self.latency_sensitivity, self.l_ratio,
            )
        ]

    def summary(self) -> dict[str, float]:
        return {
            "app": self.app,
            "nranks": self.nranks,
            "events": self.num_events,
            "rmse_s": self.rmse / 1e6,
            "rrmse_pct": self.rrmse * 100.0,
            "tol_1pct_us": self.tolerance.delta_tolerance(0.01),
            "tol_2pct_us": self.tolerance.delta_tolerance(0.02),
            "tol_5pct_us": self.tolerance.delta_tolerance(0.05),
        }


def run_validation_sweep(
    graph: ExecutionGraph,
    params: LogGPSParams,
    *,
    app: str = "",
    delta_Ls: Sequence[float] | None = None,
    injector: str = "delay_thread",
    noise: NoiseModel | None = None,
    noise_sigma: float = 0.002,
    repetitions: int = 1,
) -> ValidationSweep:
    """Sweep ΔL, measuring with the simulator and predicting with the analyzer.

    ``repetitions`` simulated runs per ΔL are averaged (the paper averages
    10 real runs); by default a small Gaussian compute noise makes the
    measurement realistically non-deterministic.  ΔL values must be finite
    and non-negative (checked before any simulation runs).
    """
    deltas = np.asarray(
        sorted(set(float(d) for d in (delta_Ls if delta_Ls is not None else np.linspace(0, 100, 11)))),
        dtype=np.float64,
    )
    analyzer = LatencyAnalyzer(graph, params)
    curve = analyzer.sensitivity_curve(deltas)
    tolerance = analyzer.tolerance_report()

    measured = np.zeros_like(deltas)
    for i, delta in enumerate(deltas):
        samples = []
        for rep in range(max(repetitions, 1)):
            run_noise: NoiseModel
            if noise is not None:
                run_noise = noise
            elif noise_sigma > 0:
                run_noise = GaussianNoise(sigma=noise_sigma, seed=noise_seed(rep, i))
            else:
                run_noise = NoNoise()
            result = simulate(
                graph,
                params,
                injector=make_injector(injector, float(delta)),
                noise=run_noise,
            )
            samples.append(result.makespan)
        measured[i] = float(np.mean(samples))

    return ValidationSweep(
        app=app,
        nranks=graph.nranks,
        num_events=graph.num_events,
        delta_L=deltas,
        measured=measured,
        predicted=curve.runtime,
        latency_sensitivity=curve.latency_sensitivity,
        l_ratio=curve.l_ratio,
        tolerance=tolerance,
    )
