"""Content-addressed persistence of the pipeline's frozen artifacts.

``repro.artifacts`` is the persist-once/serve-many layer: single-file
``.npz`` round trips for frozen execution graphs, exact ``T(L)``
envelopes, recipe aliases and simulated sweeps (:mod:`.serialize`), plus an
on-disk :class:`ArtifactStore` keyed by the content digests of the inputs
(:mod:`.store`).  See ``README.md`` in this package for the format and the
digest contract.
"""

from .serialize import (
    FORMAT_VERSION,
    ArtifactFormatError,
    load_envelope,
    load_graph,
    save_envelope,
    save_graph,
)
from .store import (
    ArtifactStore,
    combine_digests,
    envelope_key,
    envelope_key_from_digests,
    recipe_key,
    simulation_key,
)

__all__ = [
    "FORMAT_VERSION",
    "ArtifactFormatError",
    "save_graph",
    "load_graph",
    "save_envelope",
    "load_envelope",
    "ArtifactStore",
    "combine_digests",
    "envelope_key",
    "envelope_key_from_digests",
    "recipe_key",
    "simulation_key",
]
