"""Single-file ``.npz`` serialisation of the pipeline's frozen artifacts.

Four artifact kinds are covered, each persisted as one NumPy ``.npz``
archive with a self-describing ``__artifact__`` tag and a format version:

* **graphs** — the identity columns of a frozen
  :class:`~repro.schedgen.graph.ExecutionGraph` (vertex kind/rank/cost/
  size/peer/tag, the dep/comm edge arrays, labels, ``nranks``), plus any
  already-computed level structure so the load path restores the cached
  views instead of re-deriving them;
* **envelopes** — the exact ``T(L)`` curve of a latency sweep as a
  :class:`~repro.core.parametric.PiecewiseLinear` (slopes + intercepts);
* **recipes** — the content digest of the graph one schedule recipe builds
  (a string), so a warm caller learns the digest without building;
* **simulations** — the simulated makespans of one ΔL sweep (floats).

Loads never re-run validation: every artifact was validated when it was
first built, and the formats store the already-frozen canonical columns.
``allow_pickle`` stays off on both ends — the formats are pure arrays.
"""

from __future__ import annotations

import io
import zipfile
from pathlib import Path

import numpy as np

from ..core.parametric import Line, PiecewiseLinear
from ..schedgen.graph import ExecutionGraph

__all__ = [
    "FORMAT_VERSION",
    "ArtifactFormatError",
    "save_graph",
    "load_graph",
    "save_envelope",
    "load_envelope",
    "save_recipe",
    "load_recipe",
    "save_simulation",
    "load_simulation",
]

#: bumped whenever any of the npz layouts changes incompatibly
FORMAT_VERSION = 1


class ArtifactFormatError(ValueError):
    """Raised when an artifact file has the wrong kind or an unknown version."""


def _save_npz(path: str | Path, arrays: dict[str, np.ndarray | int | float | str]) -> Path:
    """Write ``arrays`` to exactly ``path`` (no implicit ``.npz`` suffix)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    path.write_bytes(buffer.getvalue())
    return path


def _mmap_npz_members(path: Path, names: list[str]) -> dict[str, np.ndarray]:
    """Map selected ``.npy`` members of an uncompressed npz straight from disk.

    ``np.load`` silently ignores ``mmap_mode`` for npz archives, so zero-copy
    loads need the member offsets resolved by hand: ``np.savez`` stores
    members with ``ZIP_STORED`` (no compression), which means each member's
    npy stream sits contiguously in the file and an ``np.memmap`` with the
    right offset aliases it directly — no read, no copy, and **no retained
    file descriptor** (the mapping outlives the fd, which NumPy closes once
    the pages are mapped).

    The data offset comes from the member's *local* zip header — its name
    and extra-field lengths can legally differ from the central directory's,
    so the 30-byte local header is re-read rather than trusted from
    ``ZipInfo``.
    """
    arrays: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as archive, open(path, "rb") as fh:
        for name in names:
            info = archive.getinfo(f"{name}.npy")
            if info.compress_type != zipfile.ZIP_STORED:
                raise ArtifactFormatError(
                    f"{path}: member {name!r} is compressed; cannot memory-map"
                )
            fh.seek(info.header_offset)
            local = fh.read(30)
            if local[:4] != b"PK\x03\x04":
                raise ArtifactFormatError(
                    f"{path}: corrupt local header for member {name!r}"
                )
            name_len = int.from_bytes(local[26:28], "little")
            extra_len = int.from_bytes(local[28:30], "little")
            fh.seek(info.header_offset + 30 + name_len + extra_len)
            version = np.lib.format.read_magic(fh)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
            else:  # pragma: no cover - savez never writes 3.0 for these dtypes
                raise ArtifactFormatError(
                    f"{path}: member {name!r} has unsupported npy version {version}"
                )
            if dtype.hasobject:  # pragma: no cover - formats are pure arrays
                raise ArtifactFormatError(
                    f"{path}: member {name!r} holds objects; cannot memory-map"
                )
            arrays[name] = np.memmap(
                path, dtype=dtype, mode="r", offset=fh.tell(), shape=shape,
                order="F" if fortran else "C",
            )
    return arrays


def _check_kind(archive: np.lib.npyio.NpzFile, path: Path, expected: str) -> None:
    try:
        kind = str(archive["__artifact__"][()])
        version = int(archive["__version__"][()])
    except KeyError as exc:
        raise ArtifactFormatError(f"{path}: not a repro artifact file") from exc
    if kind != expected:
        raise ArtifactFormatError(
            f"{path}: expected a {expected!r} artifact, found {kind!r}"
        )
    if version > FORMAT_VERSION:
        raise ArtifactFormatError(
            f"{path}: format version {version} is newer than supported "
            f"({FORMAT_VERSION})"
        )


# ---------------------------------------------------------------------------
# execution graphs
# ---------------------------------------------------------------------------


def save_graph(graph: ExecutionGraph, path: str | Path) -> Path:
    """Persist a frozen :class:`ExecutionGraph` to ``path`` (one ``.npz``).

    All identity columns (see :attr:`ExecutionGraph.CONTENT_COLUMNS`) are
    stored verbatim, so the round trip is bit-identical and preserves
    :meth:`~ExecutionGraph.content_digest`.  If the level structure has
    already been computed it is stored too, and :func:`load_graph` restores
    it instead of re-deriving it.
    """
    arrays: dict[str, object] = {
        "__artifact__": "graph",
        "__version__": FORMAT_VERSION,
        "nranks": np.int64(graph.nranks),
    }
    arrays.update(graph.identity_columns())
    label_vids = np.array(sorted(graph.labels), dtype=np.int64)
    arrays["label_vids"] = label_vids
    arrays["label_text"] = np.array(
        [graph.labels[int(v)] for v in label_vids], dtype=np.str_
    )
    if graph._topo_order is not None and graph._level_indptr is not None:
        arrays["topo_order"] = graph._topo_order
        arrays["level_indptr"] = graph._level_indptr
    return _save_npz(path, arrays)


def load_graph(path: str | Path, *, mmap_mode: str | None = None) -> ExecutionGraph:
    """Reconstruct an :class:`ExecutionGraph` written by :func:`save_graph`.

    No validation runs (the graph was validated before it was frozen and
    saved); the CSR adjacency is rebuilt deterministically from the edge
    columns, and a stored level structure is re-attached to the cached-view
    slots so e.g. :meth:`~ExecutionGraph.topological_order` is free.

    With ``mmap_mode="r"`` the identity columns (and any stored level
    structure) are attached **zero-copy** as read-only memory maps over the
    archive file (see :func:`_mmap_npz_members`): loading a multi-gigabyte
    graph touches only the pages a consumer actually reads, and no file
    descriptor stays open.  Small metadata (labels, ``nranks``) is still
    read eagerly.  The column bytes — and therefore
    :meth:`~ExecutionGraph.content_digest` — are identical either way.
    """
    if mmap_mode not in (None, "r"):
        raise ValueError(f"mmap_mode must be None or 'r', got {mmap_mode!r}")
    path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        _check_kind(archive, path, "graph")
        nranks = int(archive["nranks"][()])
        labels = {
            int(vid): str(text)
            for vid, text in zip(archive["label_vids"], archive["label_text"])
        }
        has_levels = "topo_order" in archive.files and "level_indptr" in archive.files
        if mmap_mode is None:
            columns = {
                name: archive[name].copy()
                for name, _ in ExecutionGraph.CONTENT_COLUMNS
            }
            topo_order = archive["topo_order"].copy() if has_levels else None
            level_indptr = archive["level_indptr"].copy() if has_levels else None
    if mmap_mode == "r":
        wanted = [name for name, _ in ExecutionGraph.CONTENT_COLUMNS]
        if has_levels:
            wanted += ["topo_order", "level_indptr"]
        mapped = _mmap_npz_members(path, wanted)
        columns = {name: mapped[name] for name, _ in ExecutionGraph.CONTENT_COLUMNS}
        topo_order = mapped["topo_order"] if has_levels else None
        level_indptr = mapped["level_indptr"] if has_levels else None
    return ExecutionGraph.from_columns(
        nranks,
        columns,
        labels=labels,
        topo_order=topo_order,
        level_indptr=level_indptr,
    )


# ---------------------------------------------------------------------------
# latency envelopes
# ---------------------------------------------------------------------------


def save_envelope(envelope: PiecewiseLinear, path: str | Path) -> Path:
    """Persist an exact ``T(L)`` envelope (slopes, intercepts, interval) to
    ``path``."""
    if not isinstance(envelope, PiecewiseLinear):
        raise TypeError(
            f"save_envelope expects a PiecewiseLinear, got {type(envelope).__name__}"
        )
    payload: dict[str, object] = {
        "__artifact__": "envelope",
        "__version__": FORMAT_VERSION,
        # the only kind left; the tag stays so stores shared with earlier
        # versions read each other's files
        "envelope_kind": np.str_("piecewise"),
        "slopes": np.array([ln.slope for ln in envelope.lines], dtype=np.float64),
        "intercepts": np.array(
            [ln.intercept for ln in envelope.lines], dtype=np.float64
        ),
        "lo": np.float64(envelope.lo),
        "hi": np.float64(envelope.hi),
    }
    return _save_npz(path, payload)


def load_envelope(path: str | Path) -> PiecewiseLinear:
    """Reconstruct an envelope written by :func:`save_envelope`."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        _check_kind(archive, path, "envelope")
        kind = str(archive["envelope_kind"][()])
        if kind != "piecewise":
            raise ArtifactFormatError(f"{path}: unknown envelope kind {kind!r}")
        lines = [
            Line(float(s), float(i))
            for s, i in zip(archive["slopes"], archive["intercepts"])
        ]
        return PiecewiseLinear(
            lines=lines,
            lo=float(archive["lo"][()]),
            hi=float(archive["hi"][()]),
        )


# ---------------------------------------------------------------------------
# recipe aliases and simulated sweeps
# ---------------------------------------------------------------------------


def save_recipe(graph_digest: str, path: str | Path) -> Path:
    """Persist the graph digest a schedule recipe builds to ``path``."""
    return _save_npz(path, {
        "__artifact__": "recipe",
        "__version__": FORMAT_VERSION,
        "graph_digest": np.str_(graph_digest),
    })


def load_recipe(path: str | Path) -> str:
    """The graph digest written by :func:`save_recipe`."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        _check_kind(archive, path, "recipe")
        return str(archive["graph_digest"][()])


def save_simulation(makespans, path: str | Path) -> Path:
    """Persist the makespans of one simulated ΔL sweep to ``path``."""
    return _save_npz(path, {
        "__artifact__": "simulation",
        "__version__": FORMAT_VERSION,
        "makespan": np.asarray(makespans, dtype=np.float64),
    })


def load_simulation(path: str | Path) -> list[float]:
    """The makespans written by :func:`save_simulation`, as floats."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        _check_kind(archive, path, "simulation")
        return archive["makespan"].tolist()
