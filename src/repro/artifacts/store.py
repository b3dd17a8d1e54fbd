"""A content-addressed on-disk store for the pipeline's frozen artifacts.

Every expensive artifact (frozen graph, ``T(L)`` envelope, simulated ΔL
sweep) is immutable and a deterministic function of its inputs, so it can
be keyed by the sha256 digests of those inputs
(:meth:`ExecutionGraph.content_digest`, :meth:`LogGPSParams.content_digest`)
and rebuilt at most once per key — the persist-once/serve-many shape the
service layer mounts directly.  A ``recipe`` entry maps the inputs of one
graph build (:func:`recipe_key`) to the digest of the graph it builds, so a
warm caller can address the other entries without building the graph.

Layout::

    <root>/<kind>/<key[:2]>/<key>.npz

with ``kind`` one of :attr:`ArtifactStore.KINDS` and ``key`` a hex
digest (the two-character fan-out keeps directories small).  Writes are
atomic (tempfile + :func:`os.replace`), so concurrent workers racing on the
same key at worst both build and one replace wins — never a torn file.
Corrupt or truncated entries are deleted and rebuilt transparently; a
loader that fails with a programming error (``ImportError``, ``NameError``,
``AttributeError``) raises instead and leaves the entry in place.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import Callable

from .serialize import (
    load_envelope,
    load_graph,
    load_recipe,
    load_simulation,
    save_envelope,
    save_graph,
    save_recipe,
    save_simulation,
)

__all__ = [
    "ArtifactStore",
    "combine_digests",
    "envelope_key",
    "envelope_key_from_digests",
    "recipe_key",
    "simulation_key",
]

_HEX = set("0123456789abcdef")


def combine_digests(*parts: object) -> str:
    """Derive one sha256 cache key from several digest/config components.

    Each part is hashed behind a separator so the combination is injective
    over the part list (no concatenation ambiguity).
    """
    h = hashlib.sha256(b"repro:artifact-key:v1\0")
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def envelope_key(graph, params, *, l_min: float, l_max: float, **config: object) -> str:
    """The cache key of one exact ``T(L)`` envelope.

    Combines the graph and parameter content digests with the swept interval
    and the configuration that changes the produced curve, sorted by name
    so keyword order is irrelevant.  Every production caller passes
    :func:`~repro.core.envelope.envelope_config` (the piece bound
    ``MAX_PIECES`` only), so one curve has one key, the same one earlier
    versions wrote.
    """
    return envelope_key_from_digests(
        graph.content_digest(),
        params.content_digest(),
        l_min=l_min,
        l_max=l_max,
        **config,
    )


def envelope_key_from_digests(
    graph_digest: str, params_digest: str, *, l_min: float, l_max: float,
    **config: object,
) -> str:
    """:func:`envelope_key` for callers that hold only the content digests.

    Pool workers resolve scenarios by ``(graph_digest, params_digest)``
    without ever materialising the graph, yet must address the same store
    entries the in-process path writes — both key builders therefore share
    this digest-level implementation.
    """
    parts: list[object] = [
        "envelope",
        graph_digest,
        params_digest,
        repr(float(l_min)),
        repr(float(l_max)),
    ]
    for name in sorted(config):
        parts.append(name)
        parts.append(repr(config[name]))
    return combine_digests(*parts)


def recipe_key(app: str, nranks: int, algorithms, protocol, *, version: int) -> str:
    """The cache key of the graph digest one schedule recipe builds.

    A recipe is an application skeleton at ``nranks`` ranks scheduled with
    ``algorithms`` (a :class:`~repro.schedgen.collectives.CollectiveAlgorithms`)
    under ``protocol`` (a :class:`~repro.schedgen.builder.ProtocolConfig`);
    both are frozen dataclasses whose ``repr`` names every field.
    ``version`` is :data:`repro.apps.SCHEDULE_VERSION`: a change to the
    skeletons or to Schedgen that changes a graph bumps it, so no alias
    outlives the graphs it names.
    """
    return combine_digests(
        "recipe", int(version), app, int(nranks), repr(algorithms), repr(protocol)
    )


def simulation_key(
    graph_digest: str, params_digest: str, injector: str, deltas
) -> str:
    """The cache key of one simulated ΔL sweep of a graph under an injector."""
    return combine_digests(
        "simulation", graph_digest, params_digest, injector,
        *(repr(float(delta)) for delta in deltas),
    )


class ArtifactStore:
    """Content-addressed ``get_or_build`` cache over :mod:`.serialize`.

    The store is safe to share between processes (atomic writes, reads of
    complete files only); the hit/miss counters are process-local.
    """

    KINDS = ("graph", "envelope", "recipe", "simulation")

    _SAVERS: dict[str, Callable] = {
        "graph": save_graph,
        "envelope": save_envelope,
        "recipe": save_recipe,
        "simulation": save_simulation,
    }
    _LOADERS: dict[str, Callable] = {
        "graph": load_graph,
        "envelope": load_envelope,
        "recipe": load_recipe,
        "simulation": load_simulation,
    }

    def __init__(
        self, root: str | Path, *, graph_mmap_mode: str | None = None
    ) -> None:
        if graph_mmap_mode not in (None, "r"):
            raise ValueError(
                f"graph_mmap_mode must be None or 'r', got {graph_mmap_mode!r}"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.graph_mmap_mode = graph_mmap_mode
        self.hits: dict[str, int] = {kind: 0 for kind in self.KINDS}
        self.misses: dict[str, int] = {kind: 0 for kind in self.KINDS}

    # -- addressing ---------------------------------------------------------

    def path_for(self, kind: str, key: str) -> Path:
        """The on-disk path of entry ``(kind, key)`` (whether it exists or not)."""
        self._check_kind(kind)
        key = str(key)
        if len(key) < 6 or not set(key) <= _HEX:
            raise ValueError(f"artifact key must be a hex digest, got {key!r}")
        return self.root / kind / key[:2] / f"{key}.npz"

    def contains(self, kind: str, key: str) -> bool:
        return self.path_for(kind, key).exists()

    def _check_kind(self, kind: str) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown artifact kind {kind!r}; expected one of {self.KINDS}")

    # -- read/write ---------------------------------------------------------

    def _atomic_save(self, kind: str, path: Path, obj: object) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        os.close(fd)
        try:
            self._SAVERS[kind](obj, tmp)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def get(self, kind: str, key: str):
        """Load entry ``(kind, key)`` or return ``None`` (miss or corrupt).

        A corrupt entry is deleted so the next :meth:`get_or_build` rebuilds
        it.  An ``ImportError``, ``NameError`` or ``AttributeError`` is a bug
        in the loader, not a corrupt file: it propagates and the entry stays.
        Counters are not touched — use :meth:`get_or_build` for the counted
        path.
        """
        path = self.path_for(kind, key)
        if not path.exists():
            return None
        try:
            if kind == "graph" and self.graph_mmap_mode is not None:
                # zero-copy columns over the stored archive; every load is
                # context-managed or fd-free, so a long-lived fleet pool
                # serving thousands of gets never accumulates descriptors
                return self._LOADERS[kind](path, mmap_mode=self.graph_mmap_mode)
            return self._LOADERS[kind](path)
        except (ImportError, NameError, AttributeError):
            raise
        except Exception:
            path.unlink(missing_ok=True)
            return None

    def put(self, kind: str, key: str, obj: object) -> Path:
        """Store ``obj`` under ``(kind, key)`` unconditionally (atomic)."""
        path = self.path_for(kind, key)
        self._atomic_save(kind, path, obj)
        return path

    def get_or_build(self, kind: str, key: str, builder: Callable[[], object]):
        """Return the cached entry for ``key``, building and storing on miss."""
        cached = self.get(kind, key)
        if cached is not None:
            self.hits[kind] += 1
            return cached
        obj = builder()
        self.misses[kind] += 1
        self._atomic_save(kind, self.path_for(kind, key), obj)
        return obj

    # typed conveniences (fixed kind, precise return types for callers)

    def get_or_build_graph(self, key: str, builder: Callable[[], object]):
        return self.get_or_build("graph", key, builder)

    def get_or_build_envelope(self, key: str, builder: Callable[[], object]):
        return self.get_or_build("envelope", key, builder)

    # -- maintenance --------------------------------------------------------

    def entries(self, kind: str | None = None) -> list[Path]:
        """All stored entry files, optionally restricted to one kind."""
        kinds = self.KINDS if kind is None else (kind,)
        found: list[Path] = []
        for k in kinds:
            self._check_kind(k)
            base = self.root / k
            if base.is_dir():
                found.extend(sorted(base.glob("*/*.npz")))
        return found

    def stats(self) -> dict[str, object]:
        """Per-kind entry counts/sizes plus this process's hit/miss counters."""
        kinds = {}
        for kind in self.KINDS:
            files = self.entries(kind)
            kinds[kind] = {
                "entries": len(files),
                "bytes": sum(f.stat().st_size for f in files),
                "hits": self.hits[kind],
                "misses": self.misses[kind],
            }
        return {
            "root": str(self.root),
            "kinds": kinds,
            "total_entries": sum(k["entries"] for k in kinds.values()),
            "total_bytes": sum(k["bytes"] for k in kinds.values()),
        }

    def clear(self, kind: str | None = None) -> int:
        """Delete stored entries (all kinds by default); returns the count."""
        files = self.entries(kind)
        for path in files:
            path.unlink(missing_ok=True)
        return len(files)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArtifactStore(root={str(self.root)!r})"
