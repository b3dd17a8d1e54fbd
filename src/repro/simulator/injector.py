"""Network latency injection strategies (Fig. 8 of the paper).

The paper validates LLAMP by *injecting* an extra latency ΔL into the network
and comparing the measured slowdown with the model's prediction.  Doing this
accurately in software is subtle; Fig. 8 contrasts four strategies on a
two-message micro-benchmark (sender posts two eager sends back to back,
receiver has both receives pre-posted):

``A — ideal``
    ΔL is added to the wire.  The sender finishes at ``2o``; the second
    message is delivered at ``3o + L0 + B + ΔL``.
``B — sender delay`` (Underwood et al.)
    The send call itself is delayed by ΔL, so the *sender* finishes late
    (``2o + 2ΔL``) and the receiver sees ``3o + L0 + B + 2ΔL``.
``C — receiver progress thread``
    A single progress thread serialises the delays: when ΔL exceeds the time
    between arrivals the second message waits behind the first and is
    released at ``2o + L0 + B + 2ΔL``.
``D — progress + delay threads`` (the paper's injector)
    Each message is stamped on arrival and released exactly ΔL later, which
    reproduces the ideal behaviour.

An injector is a declaration, not a policy object: its ``delta`` and the
place ``enters`` where that ΔL enters a run —

* ``"wire"`` (A, D): every message arrives ΔL later;
* ``"send"`` (B): every send occupies its rank's CPU ΔL longer;
* ``"progress"`` (C): every message bound for a rank queues FIFO behind that
  rank's one progress thread, ``release = max(arrival, busy) + ΔL``.

The engine (:mod:`repro.simulator.columnar`) builds its per-row arrays from
these declarations, and the per-vertex oracle
(:class:`repro.testing.LogGOPSSimulator`) applies them vertex by vertex.
:func:`two_message_model` is the closed form of the Fig. 8 micro-benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Protocol

import numpy as np

from ..network.params import LogGPSParams

__all__ = [
    "LatencyInjector",
    "IdealInjector",
    "SenderDelayInjector",
    "ReceiverProgressInjector",
    "DelayThreadInjector",
    "make_injector",
    "checked_deltas",
    "INJECTOR_NAMES",
    "ENTRY_POINTS",
    "TwoMessageOutcome",
    "two_message_model",
]

#: the places where an injector's ΔL can enter a run (``LatencyInjector.enters``)
ENTRY_POINTS = ("wire", "send", "progress")


class LatencyInjector(Protocol):
    """A latency-injection strategy: ``delta`` µs entering at ``enters``,
    one of :data:`ENTRY_POINTS`."""

    delta: float
    enters: str


@dataclass
class IdealInjector:
    """Strategy A: ΔL is added to the wire latency itself."""

    delta: float = 0.0
    enters: ClassVar[str] = "wire"


@dataclass
class SenderDelayInjector:
    """Strategy B: the send operation itself is delayed by ΔL.

    This is the approach of Underwood et al. hooked into ``post_send``; it
    inadvertently delays the *sender's* progress and therefore every
    subsequent send.
    """

    delta: float = 0.0
    enters: ClassVar[str] = "send"


@dataclass
class ReceiverProgressInjector:
    """Strategy C: a single receiver-side progress thread serialises delays.

    Messages bound for one rank queue behind that rank's progress thread,
    which serves them FIFO in the shared deterministic order (level-major,
    vertex-id-minor, edge id within one vertex).
    """

    delta: float = 0.0
    enters: ClassVar[str] = "progress"


@dataclass
class DelayThreadInjector:
    """Strategy D (the paper's injector): per-message timestamp + delay thread.

    Each message is stamped on arrival and released exactly ΔL later,
    independent of other in-flight messages, so the observable behaviour
    matches the ideal strategy A.
    """

    delta: float = 0.0
    enters: ClassVar[str] = "wire"


_STRATEGIES = {
    "ideal": IdealInjector,
    "sender_delay": SenderDelayInjector,
    "receiver_progress": ReceiverProgressInjector,
    "delay_thread": DelayThreadInjector,
}
INJECTOR_NAMES = tuple(_STRATEGIES)


def make_injector(name: str, delta: float) -> LatencyInjector:
    """Create an injector by name (one of :data:`INJECTOR_NAMES`)."""
    if name not in _STRATEGIES:
        raise ValueError(f"unknown injector {name!r}; expected one of {INJECTOR_NAMES}")
    return _STRATEGIES[name](delta)


def checked_deltas(values) -> np.ndarray:
    """``values`` as a float array, if every ΔL is finite and non-negative."""
    deltas = np.asarray(values, dtype=np.float64)
    if not np.all((0 <= deltas) & (deltas < math.inf)):
        raise ValueError("delta_L values must be finite and non-negative")
    return deltas


@dataclass(frozen=True)
class TwoMessageOutcome:
    """Completion times of the Fig. 8 micro-benchmark."""

    sender_finish: float
    receiver_finish: float


def two_message_model(
    params: LogGPSParams, delta: float, strategy: str, size: int = 1
) -> TwoMessageOutcome:
    """Closed-form Fig. 8 model: two back-to-back eager sends, receives pre-posted.

    ``sender_finish`` is the time at which the sender completes both sends
    (``t_R0`` in the figure), ``receiver_finish`` the time at which the
    receiver has observed both messages (``t_R1``).  Both ranks start at 0 and
    the receiver's pre-posted receives cost one ``o`` each on completion.
    """
    o, L0 = params.o, params.L
    B = params.bandwidth_cost(size)
    if strategy == "ideal" or strategy == "delay_thread":
        sender = 2 * o
        receiver = 3 * o + L0 + B + delta
    elif strategy == "sender_delay":
        sender = 2 * o + 2 * delta
        receiver = 3 * o + L0 + B + 2 * delta
    elif strategy == "receiver_progress":
        sender = 2 * o
        # The progress thread is still serving the first message's delay when
        # the second arrives (whenever delta > o), so the second message is
        # released 2*delta after its arrival-driven lower bound.
        first_release = o + L0 + B + delta
        second_arrival = 2 * o + L0 + B
        second_release = max(second_arrival, first_release) + delta
        receiver = second_release + o
    else:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {INJECTOR_NAMES}")
    return TwoMessageOutcome(sender_finish=sender, receiver_finish=receiver)
