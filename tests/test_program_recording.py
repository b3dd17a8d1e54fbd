"""Rank programs recorded as rows: golden graphs, the ``ProgramOp`` view, costs.

The recorder stores each op as one int row plus a cost
(:class:`repro.mpi.program.RankProgram`); the graph builder reads those rows
as NumPy columns and the per-op readers read a lazily built ``ProgramOp``
view of them.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.apps import ALL_APPS, SCHEDULE_VERSION
from repro.mpi import OpKind, Program, ProgramOp, run_program
from repro.schedgen.collectives import CollectiveAlgorithms
from repro.schedgen.columnar import batches_from_program
from repro.testing import build_random_program

#: ``app nranks allreduce content-digest`` of every app's default graph,
#: pinned from the object-per-op recorder that preceded row storage.  A
#: recorder bug shared by the rows and the ``ProgramOp`` view (say, a field
#: written to the wrong slot) changes these digests; the legacy-vs-columnar
#: parity tests cannot see one, because both builders read the same rows.
_GOLDEN_TABLE = """
cloverleaf 1 recursive_doubling abffa169fd9a8ee59edde92cff2e3a56868f93e5d82cb5dfe6619ec4b4e58476
cloverleaf 1 ring abffa169fd9a8ee59edde92cff2e3a56868f93e5d82cb5dfe6619ec4b4e58476
cloverleaf 4 recursive_doubling 56eed405a2b39a395d63aec3aa6f47d65e455c6d30d2af812c4cbd6795761f5d
cloverleaf 4 ring 6affeb44fd8799950422bef0ae7e0047ab8668420d92b07f1bd9989b75448c1e
cloverleaf 8 recursive_doubling 741cf3a61c2e166b4274b09670414e1fc9bef099fe97811a6d862293d414594c
cloverleaf 8 ring d3f779e4f13654f9386937696263f017253a2b3e17c6eef3d1d537c9b8419e2d
hpcg 1 recursive_doubling 1c5fc7c80be3925b1a2ba887e37c437c2217223fc584653c7c92fbeb31be3187
hpcg 1 ring 1c5fc7c80be3925b1a2ba887e37c437c2217223fc584653c7c92fbeb31be3187
hpcg 4 recursive_doubling b66a26afa01b16f0b9530c7da8e23310d106cd2cc90dbd82a74dfe2b6efaf573
hpcg 4 ring 157d3f940107a0c054286e187ece61b0688653304003d49366fc014f7df3af61
hpcg 8 recursive_doubling 02c84d518031f34b440afe2f73e5ddecabd6c46868d68854c1f120db708ca332
hpcg 8 ring e11a730c6e1807b8bf647397c8f94acc06f245b9c755e4d3aaf699bb1d139605
icon 1 recursive_doubling 3242ff9ff33e8a89ecd7f92672461313e95504c9011072f89f46f5fb8aa630e2
icon 1 ring 3242ff9ff33e8a89ecd7f92672461313e95504c9011072f89f46f5fb8aa630e2
icon 4 recursive_doubling 68e66aca4c7bb83a4e7cafec2b7b1af79c6fd7873714fbed9e46ed074538d2e0
icon 4 ring a4212a989e7fe6797aaf9cebec2c7758570214b9510113cb01c52578304216f6
icon 8 recursive_doubling cf65e295ed4195584a9434976715dedd79f2195e9d632fbcb7c205f7f44f4d03
icon 8 ring 77b4b361ae0a542114d0350433b6640e48fc3a7153e9455407064ffebbb22460
lammps 1 recursive_doubling 1e6113cbfa5fdc931eda1bb29ff625c86ed9fcc0cae0a763f3b5478e09a5d2b5
lammps 1 ring 1e6113cbfa5fdc931eda1bb29ff625c86ed9fcc0cae0a763f3b5478e09a5d2b5
lammps 4 recursive_doubling 3cfd21698ceabc1846db6974cda3d1d2bffff066fda9c5ef6a8796baacd78e2f
lammps 4 ring b855cae1071c58f3a120f4b93f4f1d3d86585bf6f00029f85f048f0c1b039d8e
lammps 8 recursive_doubling 9d0aeefce89d56a4a2541bea6db6cd1fc4786f9f2896547b047b1cdf6afab4ec
lammps 8 ring 55db50f82cff923a1bec7bdf3c8c0d2a5b5420a2ea2b3fb6eab93318cd90dc74
lulesh 1 recursive_doubling dbcc94976e57ae3ef48cd09403190c3ce3f4261977a5b144976bc6b0ea24191d
lulesh 1 ring dbcc94976e57ae3ef48cd09403190c3ce3f4261977a5b144976bc6b0ea24191d
lulesh 4 recursive_doubling 5f53c7d7cf3f7d9461dd3e5b5d09e8650b43842421932c7522ac9e519def4a2d
lulesh 4 ring d20d983ac9ab65cc1ab9bdc9cc1401619f29dd920080b45180e096132f2b5336
lulesh 8 recursive_doubling 0ce6c201cd0b27f337a05b05639f4cb023803b7290fcc51060faedf989b965e1
lulesh 8 ring f486d0e57ecb495a0403cf2b1f46fa83489ed8f47119825ea3a3a60bc1f29cf9
milc 1 recursive_doubling cff3f96568b69e7bf02f4b420b0052d6d9667efe4334ff0811130eebb02fc3ea
milc 1 ring cff3f96568b69e7bf02f4b420b0052d6d9667efe4334ff0811130eebb02fc3ea
milc 4 recursive_doubling 6426cff10ba5b3faa9821295837e62f4270649dfbdf2d7546fa1a62ac47c60bc
milc 4 ring e4813de807720f21d04c5b747b9a1482a3523955a8e9d9187428ac0c4ac4a4c7
milc 8 recursive_doubling d895ed99f186fa9d3e8c6a30dac3718f7d0e4c2efb4f9499b29027e36db7b67f
milc 8 ring 40b253a9e69d4c0851d2deaa80871726a809168b88848e47f3b1788a945fcdc0
namd 1 recursive_doubling 57411462eff5a181059ba02a8437c3ad5fda5bfdee94fbac88362cf2b3ace1ba
namd 1 ring 57411462eff5a181059ba02a8437c3ad5fda5bfdee94fbac88362cf2b3ace1ba
namd 4 recursive_doubling efafb4c603529d8159c528a70b2835a8f2938df269426c6f1ad37f3571db002e
namd 4 ring 77d665af5d62a13172027b838e4cbfa2b2758422c37c580f71e1b058e9a71fe0
namd 8 recursive_doubling ced2279d9edee3b205a90ef11c71ab9b539c7281650392f0ef6b78d9cdf9b911
namd 8 ring 4d24f6ec9d5cf249c801ea50f5a60b9ba01c42bb0858c08a04ed70e7d9334578
npb 1 recursive_doubling c0ce94c9bce3d0beed111fd84b43e32ff8672eb775949c6043a2767b36bfbeb8
npb 1 ring c0ce94c9bce3d0beed111fd84b43e32ff8672eb775949c6043a2767b36bfbeb8
npb 4 recursive_doubling 9932c04210d486ab7eb6ce5fe6018e2562bc8b00024a4cf00a19bb3549eee122
npb 4 ring 4fd31c06328512343688f9500585fe5e652a9095a3a1a65ce24b6ed38c575783
npb 8 recursive_doubling f029064232a70e067486b2bb3f8dc99bf2d01fcce389dbad4fb1d076153ad2c4
npb 8 ring c6acb4d886011c1da9df69be1f347172805e65146415795fb8e8a35dae58f95c
openmx 1 recursive_doubling cba706234740b10578bd3bd4ac3a7e37706bab8f43d08a2fe291746fe7a5ef1f
openmx 1 ring cba706234740b10578bd3bd4ac3a7e37706bab8f43d08a2fe291746fe7a5ef1f
openmx 4 recursive_doubling 88922d9db962fd4c3111f6ada239b0c7d443cd27074294611dfc5040bfee5dfc
openmx 4 ring 16cfcf4a182b1b1ce891650bf04c10f210ff593248ff223909ec24963aef70b1
openmx 8 recursive_doubling 25d0f500f349ea6fd7ed11d54a3c152a44e6420c9b84761ad5e5843199584532
openmx 8 ring 43816740f2d88c99d68642a72df46ce54fe51ec5fc417e7afd6377e29e41a020
"""

GOLDEN_DIGESTS = {
    (app, int(nranks), allreduce): digest
    for app, nranks, allreduce, digest in map(str.split, _GOLDEN_TABLE.strip().splitlines())
}

_RANDOM_SEEDS = (0, 1, 2, 3)


@pytest.mark.parametrize("app,nranks,allreduce", sorted(GOLDEN_DIGESTS))
def test_graph_digest_matches_golden(app, nranks, allreduce):
    graph = ALL_APPS[app].build(nranks, algorithms=CollectiveAlgorithms(allreduce=allreduce))
    assert graph.content_digest() == GOLDEN_DIGESTS[app, nranks, allreduce]


def test_golden_table_covers_every_app():
    assert {app for app, _, _ in GOLDEN_DIGESTS} == set(ALL_APPS)
    assert len(GOLDEN_DIGESTS) == len(ALL_APPS) * 3 * 2


#: content digests of the three largest graphs ``perfbench``'s
#: ``curve-large`` workload builds (recursive-doubling allreduce); the table
#: above stops at 8 ranks
LARGE_GOLDEN_DIGESTS = {
    ("icon", 128): "cedbdbcfdca472f0ae1b262f518ae8baf55405caefbdb3e9219e86f50b43a8e3",
    ("lammps", 64): "5c2189900afd2d3f17b8ded0ff3090433050e038a1590c4e4a005faa40d53fa8",
    ("lulesh", 125): "d9ed42e835fed67306f9d2e511b92801204333d8a97971e57ee87c7385015bb9",
}


@pytest.mark.parametrize("app,nranks", sorted(LARGE_GOLDEN_DIGESTS))
def test_large_graph_digest_matches_golden(app, nranks):
    algorithms = CollectiveAlgorithms(allreduce="recursive_doubling")
    graph = ALL_APPS[app].build(nranks, algorithms=algorithms)
    assert graph.content_digest() == LARGE_GOLDEN_DIGESTS[app, nranks]


#: ``SCHEDULE_VERSION`` -> sha256 of the golden digests above at that version.
#: Stored recipe aliases map (version, app, ranks, algorithms, protocol) to a
#: graph digest, so a graph that changes under an unchanged version would let
#: a warm store answer for the old graph.
_GOLDEN_HASH_OF_VERSION = {
    1: "9af817dac449ce98e3ab3178dc799a1069a221071b7e2e1028431b75ef71b15c",
}


def _golden_hash() -> str:
    h = hashlib.sha256()
    h.update(_GOLDEN_TABLE.strip().encode())
    for (app, nranks), digest in sorted(LARGE_GOLDEN_DIGESTS.items()):
        h.update(f"\n{app} {nranks} {digest}".encode())
    return h.hexdigest()


def test_schedule_version_tracks_the_golden_digests():
    assert _GOLDEN_HASH_OF_VERSION.get(SCHEDULE_VERSION) == _golden_hash(), (
        "the golden graph digests changed but repro.apps.SCHEDULE_VERSION did "
        f"not: bump SCHEDULE_VERSION and pin {_golden_hash()} for the new version "
        "in _GOLDEN_HASH_OF_VERSION"
    )


def _program(name: str) -> Program:
    if name.startswith("random-"):
        return build_random_program(int(name.split("-")[1]), nranks=4, rounds=20)
    return ALL_APPS[name].program(4)


@pytest.mark.parametrize(
    "name", [*sorted(ALL_APPS), *(f"random-{seed}" for seed in _RANDOM_SEEDS)]
)
def test_ops_view_round_trips_through_append(name):
    program = _program(name)
    rebuilt = Program.empty(program.nranks)
    for rank_program, twin in zip(program.ranks, rebuilt.ranks):
        for op in rank_program.ops:
            twin.append(op)
        assert twin.rows == rank_program.rows
        assert twin.costs == rank_program.costs
        assert twin.requests == rank_program.requests
    for batch, twin in zip(batches_from_program(program), batches_from_program(rebuilt)):
        for column in ("kind", "cost", "peer", "size", "tag", "root", "request",
                       "recv_peer", "recv_size", "recv_tag"):
            got, want = getattr(twin, column), getattr(batch, column)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert twin.requests == batch.requests


def test_recording_and_building_construct_no_program_op(monkeypatch):
    constructed = []
    check = ProgramOp.__post_init__

    def counting(op):
        constructed.append(op.kind)
        check(op)

    monkeypatch.setattr(ProgramOp, "__post_init__", counting)
    ALL_APPS["lulesh"].build(8)
    assert constructed == []
    # the hook does see the per-op view when something reads it
    assert len(ALL_APPS["lulesh"].program(2).rank(0).ops) == len(constructed) > 0


def test_ops_view_is_read_only():
    program = run_program(lambda comm: comm.compute(1.0), 1)
    with pytest.raises(AttributeError):
        program.rank(0).ops.append(ProgramOp(kind=OpKind.COMPUTE, cost=2.0))
    assert len(program.rank(0)) == 1


def test_ops_view_follows_appends():
    rank_program = run_program(lambda comm: comm.compute(1.0), 1).rank(0)
    first = rank_program.ops
    assert rank_program.ops is first  # cached between appends
    rank_program.append(ProgramOp(kind=OpKind.COMPUTE, cost=2.0))
    assert [op.cost for op in rank_program.ops] == [1.0, 2.0]
    assert rank_program.ops[0] is first[0]


def test_columns_of_an_empty_rank_are_typed():
    batch = Program.empty(1).rank(0).columns()
    assert len(batch) == 0
    assert batch.kind.dtype == np.int16 and batch.cost.dtype == np.float64
    assert batch.peer.dtype == np.int64 and batch.requests == []
