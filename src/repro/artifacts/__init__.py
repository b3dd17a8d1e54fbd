"""Content-addressed persistence of the pipeline's frozen artifacts.

``repro.artifacts`` is the persist-once/serve-many layer named by ROADMAP
item 1: single-file ``.npz`` round trips for frozen execution graphs
and exact ``T(L)`` envelopes (:mod:`.serialize`), plus an
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
]
