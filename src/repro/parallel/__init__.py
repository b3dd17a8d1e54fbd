"""Multi-process execution of scenario fleets.

The package splits into two layers (see ``README.md`` here):

* :mod:`.pool` — :class:`SweepPool`, a persistent ``spawn`` process pool
  whose tasks are ``(graph_digest, params_digest, sweep spec)`` tuples;
  each envelope key is one worker call, shipped together with its pickled
  graph columns, and failures — a worker exception or a dead worker —
  surface as :class:`ScenarioError` with the scenario identity attached.
* :mod:`.fleet` — :class:`ScenarioFleet`, the grid driver behind
  ``llamp fleet``: expands (app × ranks × algorithm × params × injector)
  grids, answers what the artifact store holds without a pool, runs the
  rest across the pool and writes per-app shards plus one deterministic
  merged summary.
"""

import os

from .fleet import FleetResult, Scenario, ScenarioFleet
from .pool import ScenarioError, SweepPool, SweepTask

__all__ = [
    "live_shared_segments",
    "SweepTask",
    "SweepPool",
    "ScenarioError",
    "Scenario",
    "ScenarioFleet",
    "FleetResult",
]


def live_shared_segments() -> set[str]:
    """Names of the ``llamp-*`` shared-memory segments in ``/dev/shm``.

    The pool pickles graphs and creates no segment; this scan is kept for
    leak checks that compare the set before and after a run.  Returns an
    empty set on platforms without ``/dev/shm``.
    """
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return set()
    return {entry for entry in entries if entry.startswith("llamp-")}
