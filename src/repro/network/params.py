"""LogGPS network parameter sets.

The LogGPS model (Ino et al., PPoPP'01) extends LogGP with an explicit
synchronisation threshold ``S``: messages larger than ``S`` bytes use the
rendezvous protocol, smaller ones are sent eagerly.  The parameters are:

========  =============================================================
``L``     maximum network latency between two processes [µs]
``o``     CPU overhead per message (send or receive side) [µs]
``g``     gap between two consecutive messages on the same NIC [µs]
``G``     gap per byte (inverse bandwidth) [µs/byte]
``O``     CPU overhead per byte [µs/byte] (commonly negligible; LogGPS
          drops it, and so does LLAMP)
``S``     rendezvous / eager protocol threshold [bytes]
``P``     number of processes
========  =============================================================

Two presets mirror the clusters used in the paper: the 188-node CSCS
validation test bed (Section III-B) and Piz Daint (Section IV).
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping

from ..units import KIB, NS, US

__all__ = [
    "LogGPSParams",
    "CSCS_TESTBED",
    "PIZ_DAINT",
    "DEFAULT_PARAMS",
]


@dataclass(frozen=True)
class LogGPSParams:
    """A single, homogeneous LogGPS parameter configuration ``θ``.

    All times are in microseconds; ``G`` and ``O`` are in microseconds per
    byte; ``S`` is in bytes.
    """

    L: float = 3.0 * US
    o: float = 5.0 * US
    g: float = 0.0 * US
    G: float = 0.018 * NS
    O: float = 0.0
    S: int = 256 * KIB
    P: int = 2

    def __post_init__(self) -> None:
        for name in ("L", "o", "g", "G", "O"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if self.S < 0:
            raise ValueError(f"S must be non-negative, got {self.S}")
        if self.P < 1:
            raise ValueError(f"P must be at least 1, got {self.P}")

    # -- derived quantities -------------------------------------------------

    def transmission_cost(self, size: int) -> float:
        """Wire time for a message of ``size`` bytes: ``L + (s - 1) * G``."""
        if size < 0:
            raise ValueError(f"message size must be non-negative, got {size}")
        return self.L + max(size - 1, 0) * self.G

    def bandwidth_cost(self, size: int) -> float:
        """Serialisation term only: ``(s - 1) * G``."""
        if size < 0:
            raise ValueError(f"message size must be non-negative, got {size}")
        return max(size - 1, 0) * self.G

    def uses_rendezvous(self, size: int) -> bool:
        """Return ``True`` if a message of ``size`` bytes uses rendezvous."""
        return size > self.S

    def eager_p2p_time(self, size: int) -> float:
        """End-to-end time of one eager point-to-point message.

        Sender overhead + wire + receiver overhead, assuming both sides are
        ready (the textbook LogGP ping time ``2o + L + (s-1)G``).
        """
        return 2.0 * self.o + self.transmission_cost(size)

    # -- convenience --------------------------------------------------------

    def with_latency(self, L: float) -> "LogGPSParams":
        """Return a copy with a different network latency ``L``."""
        return replace(self, L=L)

    def with_delta_latency(self, delta_L: float) -> "LogGPSParams":
        """Return a copy with ``delta_L`` *added* to the base latency."""
        return replace(self, L=self.L + delta_L)

    def with_processes(self, P: int) -> "LogGPSParams":
        """Return a copy for a different process count."""
        return replace(self, P=P)

    def with_overhead(self, o: float) -> "LogGPSParams":
        """Return a copy with a different per-message CPU overhead ``o``."""
        return replace(self, o=o)

    def replace(self, **kwargs: float) -> "LogGPSParams":
        """Generic :func:`dataclasses.replace` wrapper."""
        return replace(self, **kwargs)

    def content_digest(self) -> str:
        """A stable sha256 hex digest of the parameter configuration.

        The digest covers every field as packed little-endian binary
        (float64 for ``L``/``o``/``g``/``G``/``O``, int64 for ``S``/``P``)
        behind a versioned domain prefix, so equal configurations hash
        identically across processes and sessions.  Used as one half of the
        :mod:`repro.artifacts` cache keys.
        """
        payload = struct.pack(
            "<5dqq", self.L, self.o, self.g, self.G, self.O, int(self.S), int(self.P)
        )
        return hashlib.sha256(b"repro:loggps-params:v1\0" + payload).hexdigest()

    def as_dict(self) -> Mapping[str, float]:
        """Return the configuration as a plain dictionary."""
        return {
            "L": self.L,
            "o": self.o,
            "g": self.g,
            "G": self.G,
            "O": self.O,
            "S": self.S,
            "P": self.P,
        }

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return iter(self.as_dict().items())


#: Parameters measured with Netgauge on the 188-node CSCS validation test bed
#: (Section III-B): L = 3.0 µs, G = 0.018 ns/B, S = 256 KiB.  ``o`` varies per
#: application in the paper (Table II); 5 µs is the LULESH/HPCG value.
CSCS_TESTBED = LogGPSParams(L=3.0 * US, o=5.0 * US, g=0.0, G=0.018 * NS, S=256 * KIB)

#: Parameters measured on Piz Daint for the ICON case study (Section IV):
#: L = 1.4 µs, G = 0.013 ns/B, S = 256 KiB, o between 6.03 and 8.5 µs.
PIZ_DAINT = LogGPSParams(L=1.4 * US, o=8.5 * US, g=0.0, G=0.013 * NS, S=256 * KIB)

#: Default parameter set used when the caller does not specify one.
DEFAULT_PARAMS = CSCS_TESTBED
