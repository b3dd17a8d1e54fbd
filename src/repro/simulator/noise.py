"""System-noise models for the discrete-event simulator.

Measured runtimes on a real cluster are perturbed by OS noise and network
congestion (the paper's HPCG results visibly suffer from it, Section III-C).
To make the reproduction's "measured" data realistic — and the reported
RRMSE values non-trivially zero — the simulator can perturb every computation
interval with a noise model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

__all__ = ["NoiseModel", "NoNoise", "GaussianNoise", "OSJitterNoise"]


class NoiseModel(Protocol):
    """Perturbs the duration of computation vertices.

    The engine (:mod:`repro.simulator.columnar`) calls ``reset`` once per
    call and ``perturb_many`` once per level, with that level's durations
    in the shared deterministic order; a model without ``perturb_many`` is
    rejected.  ``perturb`` perturbs one duration, as the per-vertex oracle
    (:class:`repro.testing.LogGOPSSimulator`) draws: it must consume the RNG
    as ``perturb_many`` does for that duration (NumPy ``Generator`` draws
    are stream-equivalent between scalar and vectorised calls).  ``reset``
    re-seeds the RNG, which makes back-to-back runs reproducible.
    """

    def reset(self) -> None:
        """Re-seed / clear state before a simulation run."""

    def perturb(self, duration: float) -> float:
        """Return the perturbed duration (must stay non-negative)."""

    def perturb_many(self, durations: np.ndarray) -> np.ndarray:
        """:meth:`perturb` over one batch of durations, in order."""


@dataclass
class NoNoise:
    """The default: computation runs exactly as long as specified."""

    def reset(self) -> None:  # pragma: no cover - stateless
        return

    def perturb(self, duration: float) -> float:
        return duration

    def perturb_many(self, durations: np.ndarray) -> np.ndarray:
        return np.asarray(durations, dtype=np.float64)


@dataclass
class GaussianNoise:
    """Multiplicative Gaussian noise: ``duration * max(0, N(1, sigma))``.

    ``seed`` is anything :func:`numpy.random.default_rng` accepts — an int
    or a :class:`numpy.random.SeedSequence` (used by the validation sweep to
    derive collision-free per-(repetition, point) streams).
    """

    sigma: float = 0.01
    seed: int | np.random.SeedSequence = 0

    def __post_init__(self) -> None:
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and non-negative, got {self.sigma}")
        self._rng = np.random.default_rng(self.seed)

    def reset(self) -> None:
        # a fresh generator, not a retained one: back-to-back runs on one
        # simulator must replay the identical noise sequence
        self._rng = np.random.default_rng(self.seed)

    def perturb(self, duration: float) -> float:
        if duration <= 0:
            return duration
        factor = max(0.0, 1.0 + self._rng.normal(0.0, self.sigma))
        return duration * factor

    def perturb_many(self, durations: np.ndarray) -> np.ndarray:
        durations = np.asarray(durations, dtype=np.float64)
        out = durations.copy()
        positive = durations > 0
        count = int(np.count_nonzero(positive))
        if count:
            # scalar perturb() draws once per *positive* duration only; the
            # vectorised draw consumes the stream identically
            factors = 1.0 + self._rng.normal(0.0, self.sigma, size=count)
            np.maximum(factors, 0.0, out=factors)
            out[positive] *= factors
        return out


@dataclass
class OSJitterNoise:
    """Sparse OS-noise spikes: with probability ``p`` a detour of ``spike`` µs.

    This mimics the classic "noise injection" model (Hoefler et al., SC'10):
    most intervals are untouched, a few are hit by a fixed-length detour such
    as a timer tick or daemon activity.
    """

    probability: float = 0.001
    spike: float = 50.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if not 0 <= self.spike < math.inf:
            raise ValueError(f"spike must be finite and non-negative, got {self.spike}")
        self._rng = np.random.default_rng(self.seed)

    def reset(self) -> None:
        # re-seed so repeated runs replay the same spike pattern
        self._rng = np.random.default_rng(self.seed)

    def perturb(self, duration: float) -> float:
        if duration <= 0:
            return duration
        if self._rng.random() < self.probability:
            return duration + self.spike
        return duration

    def perturb_many(self, durations: np.ndarray) -> np.ndarray:
        durations = np.asarray(durations, dtype=np.float64)
        out = durations.copy()
        positive = durations > 0
        count = int(np.count_nonzero(positive))
        if count:
            hits = self._rng.random(count) < self.probability
            out[positive] += np.where(hits, self.spike, 0.0)
        return out
