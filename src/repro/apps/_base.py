"""Shared infrastructure for the application skeletons.

Every application module exposes two functions:

``program(nranks, **knobs) -> Program``
    the communication/computation skeleton recorded through the virtual MPI
    API;
``build(nranks, params, **knobs) -> ExecutionGraph``
    convenience wrapper that also runs Schedgen with the given collective
    algorithms / protocol configuration.

The skeletons reproduce the *structure* of the paper's applications — which
neighbours talk to each other, how often collectives interleave with
point-to-point traffic, how much computation can overlap a transfer — with
computation costs calibrated so that the latency-tolerance orderings of the
paper (MILC ≪ LULESH < HPCG ≪ ICON) are preserved at laptop-friendly graph
sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from ..mpi.api import VirtualComm, run_program
from ..mpi.program import Program
from ..network.params import LogGPSParams
from ..schedgen.builder import ProtocolConfig, build_graph
from ..schedgen.collectives import CollectiveAlgorithms
from ..schedgen.graph import ExecutionGraph

__all__ = [
    "AppDescriptor",
    "cartesian_grid",
    "grid_coords",
    "grid_rank",
    "neighbor_ranks",
    "halo_exchange",
    "make_build",
]


@dataclass(frozen=True)
class AppDescriptor:
    """Metadata attached to every application skeleton."""

    name: str
    full_name: str
    scaling: str  # "weak" or "strong"
    domains: str


def cartesian_grid(nranks: int, ndims: int) -> tuple[int, ...]:
    """Factor ``nranks`` into a near-cubic ``ndims``-dimensional grid.

    Mirrors ``MPI_Dims_create``: the factors are as balanced as possible and
    sorted in non-increasing order.
    """
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    if ndims < 1:
        raise ValueError(f"ndims must be >= 1, got {ndims}")
    dims = [1] * ndims
    remaining = nranks
    # repeatedly strip the smallest prime factor and assign it to the
    # currently smallest dimension
    factors: list[int] = []
    n = remaining
    f = 2
    while f * f <= n:
        while n % f == 0:
            factors.append(f)
            n //= f
        f += 1
    if n > 1:
        factors.append(n)
    for factor in sorted(factors, reverse=True):
        dims[dims.index(min(dims))] *= factor
    dims.sort(reverse=True)
    return tuple(dims)


def grid_coords(rank: int, dims: Sequence[int]) -> tuple[int, ...]:
    """Coordinates of ``rank`` in a row-major Cartesian grid."""
    coords = []
    remainder = rank
    for dim in reversed(dims):
        coords.append(remainder % dim)
        remainder //= dim
    return tuple(reversed(coords))


def grid_rank(coords: Sequence[int], dims: Sequence[int]) -> int:
    """Rank of the process at ``coords`` in a row-major Cartesian grid."""
    rank = 0
    for coord, dim in zip(coords, dims):
        if not 0 <= coord < dim:
            raise ValueError(f"coordinate {coord} out of range for dimension {dim}")
        rank = rank * dim + coord
    return rank


def neighbor_ranks(rank: int, dims: Sequence[int], *, periodic: bool = True) -> list[int]:
    """Face neighbours (±1 in every dimension) of ``rank`` on the grid."""
    coords = grid_coords(rank, dims)
    neighbors: list[int] = []
    for axis, dim in enumerate(dims):
        if dim == 1:
            continue
        for direction in (-1, +1):
            shifted = list(coords)
            value = coords[axis] + direction
            if periodic:
                value %= dim
            elif not 0 <= value < dim:
                continue
            shifted[axis] = value
            neighbor = grid_rank(shifted, dims)
            if neighbor != rank:
                neighbors.append(neighbor)
    return neighbors


def halo_exchange(
    comm: VirtualComm,
    neighbors: Sequence[int],
    message_size: int,
    *,
    tag: int,
    overlap_compute: float = 0.0,
) -> None:
    """Non-blocking halo exchange with every neighbour.

    Receives are posted first, sends follow, an optional slice of computation
    overlaps the transfers, and a single ``MPI_Waitall`` closes the phase —
    the canonical pattern of stencil codes (and the one whose overlap LLAMP
    quantifies through the flatness of the ``λ_L`` curve).  Recorded as one
    block by :meth:`~repro.mpi.api.VirtualComm.halo_exchange`.
    """
    comm.halo_exchange(neighbors, message_size, tag=tag, overlap_compute=overlap_compute)


def make_build(
    program_factory: Callable[..., Program]
) -> Callable[..., ExecutionGraph]:
    """Create the standard ``build(nranks, params, ...)`` wrapper for an app."""

    def build(
        nranks: int,
        params: LogGPSParams | None = None,
        *,
        algorithms: CollectiveAlgorithms | None = None,
        protocol: ProtocolConfig | None = None,
        **knobs,
    ) -> ExecutionGraph:
        program = program_factory(nranks, **knobs)
        return build_graph(
            program, algorithms=algorithms, protocol=protocol, params=params
        )

    build.__doc__ = (
        "Build the execution graph of this application.\n\n"
        "Parameters are forwarded to the application's ``program`` factory; "
        "``params``/``algorithms``/``protocol`` configure Schedgen "
        "(collective algorithm selection and the eager/rendezvous threshold)."
    )
    return build
