"""Golden ``T(L)`` envelopes of every bundled application.

``app nranks interval slope:intercept ...`` of the forward envelope under
``CSCS_TESTBED``, pinned from the segmented convex-hull propagation that
preceded the batched tangent search.  ``inf`` is ``[L₀, ∞)`` (what
``analyze``/``curve``/``ingest`` read), ``1e4`` is ``[0, 10⁴]``.  Slopes are
message counts and must match exactly; intercepts are pinned to 1e-12
relative.
"""

from __future__ import annotations

import math
from functools import lru_cache

import pytest

from repro import CSCS_TESTBED
from repro.apps import ALL_APPS
from repro.core import forward_envelope

_GOLDEN_TABLE = """
cloverleaf 4 inf 110.0:227100.0224999999 160.0:193605.55119999987 210.0:137616.60950000014
cloverleaf 4 1e4 110.0:227100.0224999999 160.0:193605.55119999987 210.0:137616.60950000014
cloverleaf 8 inf 165.0:228150.03374999986 215.0:194655.5624499998 265.0:138666.6207500001
cloverleaf 8 1e4 165.0:228150.03374999986 215.0:194655.5624499998 265.0:138666.6207500001
hpcg 4 inf 90.0:294750.0113400002 135.0:273041.24301000015 180.0:251329.67532000033 225.0:171132.10443000004
hpcg 4 1e4 90.0:294750.0113400002 135.0:273041.24301000015 180.0:251329.67532000033 225.0:171132.10443000004
hpcg 8 inf 135.0:295875.0170100004 180.0:274166.2486800002 225.0:252454.68099000028 270.0:172257.1101
hpcg 8 1e4 135.0:295875.0170100004 180.0:274166.2486800002 225.0:252454.68099000028 270.0:172257.1101
icon 4 inf 24.0:1201200.0030240007 72.0:361468.3137120003
icon 4 1e4 24.0:1201200.0030240007
icon 8 inf 36.0:601320.0045360005 84.0:181588.3152240001
icon 8 1e4 36.0:601320.0045360005 84.0:181588.3152240001
lammps 4 inf 90.0:187556.3323319984 150.0:86619.67717199922
lammps 4 1e4 90.0:187556.3323319984 150.0:86619.67717199922
lammps 8 inf 102.0:188936.3424839977 162.0:87999.68732399691
lammps 8 1e4 102.0:188936.3424839977 162.0:87999.68732399691
lulesh 4 inf 80.0:209200.01007999995 120.0:206908.43303999986
lulesh 4 1e4 80.0:209200.01007999995 120.0:206908.43303999986
lulesh 8 inf 120.0:209800.0151199999 160.0:207508.43807999982
lulesh 8 1e4 120.0:209800.0151199999 160.0:207508.43807999982
milc 4 inf 152.0:396176.02721600275 224.0:290457.7831039988
milc 4 1e4 152.0:396176.02721600275 224.0:290457.7831039988
milc 8 inf 228.0:201048.04082400154 300.0:148377.44061599995
milc 8 1e4 228.0:201048.04082400154 300.0:148377.44061599995
namd 4 inf 10.0:51100.00846000001 60.0:48868.007560000064
namd 4 1e4 10.0:51100.00846000001 60.0:48868.007560000064
namd 8 inf 15.0:51650.01269000001 65.0:49418.01179000006
namd 8 1e4 15.0:51650.01269000001 65.0:49418.01179000006
npb 4 inf 300.0:203075.62339999978
npb 4 1e4 300.0:203075.62339999978
npb 8 inf 400.0:204075.63599999968
npb 8 1e4 400.0:204075.63599999968
openmx 4 inf 126.0:541308.4422120008
openmx 4 1e4 126.0:541308.4422120008
openmx 8 inf 180.0:271870.00927199976
openmx 8 1e4 180.0:271870.00927199976
"""

_INTERVALS = {"inf": (CSCS_TESTBED.L, math.inf), "1e4": (0.0, 1e4)}

GOLDEN_ENVELOPES = {
    (app, int(nranks), interval): [
        tuple(float(v) for v in piece.split(":")) for piece in pieces
    ]
    for app, nranks, interval, *pieces in map(str.split, _GOLDEN_TABLE.strip().splitlines())
}


@lru_cache(maxsize=2)
def _graph(app: str, nranks: int):
    return ALL_APPS[app].build(nranks, params=CSCS_TESTBED)


@pytest.mark.parametrize("app,nranks,interval", sorted(GOLDEN_ENVELOPES))
def test_envelope_matches_golden(app, nranks, interval):
    lo, hi = _INTERVALS[interval]
    envelope = forward_envelope(_graph(app, nranks), CSCS_TESTBED, l_min=lo, l_max=hi)
    expected = GOLDEN_ENVELOPES[app, nranks, interval]
    assert [line.slope for line in envelope.lines] == [s for s, _ in expected]
    assert [line.intercept for line in envelope.lines] == pytest.approx(
        [c for _, c in expected], rel=1e-12
    )


def test_golden_table_covers_every_app():
    assert {app for app, _, _ in GOLDEN_ENVELOPES} == set(ALL_APPS)
    assert len(GOLDEN_ENVELOPES) == len(ALL_APPS) * 2 * len(_INTERVALS)
