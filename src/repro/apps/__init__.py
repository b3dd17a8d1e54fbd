"""Application skeletons reproducing the communication structure of the
applications evaluated in the paper.

Every module exposes ``program(nranks, **knobs) -> Program`` and
``build(nranks, params=None, algorithms=None, protocol=None, **knobs) ->
ExecutionGraph``; ``DESCRIPTOR`` carries the name / scaling mode used by the
benchmark harnesses.

=================  ======================================  ================
module             application                             paper appearance
=================  ======================================  ================
``lulesh``         LULESH 2.0 shock hydrodynamics          Figs. 1, 7, 9; Tables I, II
``hpcg``           HPCG conjugate gradients                Fig. 9; Table II
``milc``           MILC su3_rmd lattice QCD                Figs. 1, 9; Table II
``icon``           ICON weather & climate model            Figs. 1, 9, 10, 11, 20; Table II
``lammps``         LAMMPS EAM molecular dynamics           Fig. 7; Tables I, II
``npb``            NAS Parallel Benchmarks (7 kernels)     Fig. 7; Table I
``openmx``         OpenMX density-functional theory        Table II
``cloverleaf``     CloverLeaf hydrodynamics mini-app       Table II
``namd``           NAMD on a charm++-style runtime         Fig. 12
=================  ======================================  ================
"""

from . import cloverleaf, hpcg, icon, lammps, lulesh, milc, namd, npb, openmx
from ._base import AppDescriptor, cartesian_grid, halo_exchange, neighbor_ranks

#: version of the graphs the skeletons and Schedgen build.  Stored recipe
#: aliases (``repro.artifacts.recipe_key``) carry it, so bump it whenever a
#: change alters any skeleton's graph; ``tests/test_program_recording.py``
#: ties it to the pinned golden graph digests.
SCHEDULE_VERSION = 1

#: the applications of the paper's validation section (Fig. 9 / Table II)
VALIDATION_APPS = {
    "lulesh": lulesh,
    "hpcg": hpcg,
    "milc": milc,
    "icon": icon,
    "lammps": lammps,
    "openmx": openmx,
    "cloverleaf": cloverleaf,
}

#: every application module by name
ALL_APPS = {
    **VALIDATION_APPS,
    "npb": npb,
    "namd": namd,
}

__all__ = [
    "SCHEDULE_VERSION",
    "AppDescriptor",
    "cartesian_grid",
    "neighbor_ranks",
    "halo_exchange",
    "VALIDATION_APPS",
    "ALL_APPS",
    "lulesh",
    "hpcg",
    "milc",
    "icon",
    "lammps",
    "npb",
    "openmx",
    "cloverleaf",
    "namd",
]
