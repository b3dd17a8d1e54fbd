"""Tests for the LogGPS parameter container."""

import math

import pytest

from repro.network.params import CSCS_TESTBED, DEFAULT_PARAMS, PIZ_DAINT, LogGPSParams


def test_defaults_match_paper_cscs_testbed():
    assert CSCS_TESTBED.L == pytest.approx(3.0)
    assert CSCS_TESTBED.G == pytest.approx(0.018e-3)
    assert CSCS_TESTBED.S == 256 * 1024
    assert DEFAULT_PARAMS is CSCS_TESTBED


def test_piz_daint_parameters():
    assert PIZ_DAINT.L == pytest.approx(1.4)
    assert PIZ_DAINT.G == pytest.approx(0.013e-3)


@pytest.mark.parametrize(
    "field, value",
    [("L", -1.0), ("o", -0.1), ("g", -0.1), ("G", -1e-9), ("O", -1.0), ("S", -1), ("P", 0),
     ("L", math.nan), ("L", math.inf), ("o", math.nan), ("g", math.inf), ("G", math.nan),
     ("O", math.inf)],
)
def test_negative_values_rejected(field, value):
    with pytest.raises(ValueError):
        LogGPSParams(**{field: value})


def test_transmission_cost_formula():
    params = LogGPSParams(L=2.0, G=0.5)
    assert params.transmission_cost(1) == pytest.approx(2.0)
    assert params.transmission_cost(11) == pytest.approx(2.0 + 10 * 0.5)
    assert params.bandwidth_cost(11) == pytest.approx(5.0)
    assert params.bandwidth_cost(0) == 0.0


def test_transmission_cost_rejects_negative_size():
    with pytest.raises(ValueError):
        CSCS_TESTBED.transmission_cost(-1)


def test_eager_p2p_time():
    params = LogGPSParams(L=2.0, o=1.0, G=0.0)
    assert params.eager_p2p_time(8) == pytest.approx(2 * 1.0 + 2.0)


def test_rendezvous_threshold():
    params = LogGPSParams(S=1000)
    assert not params.uses_rendezvous(1000)
    assert params.uses_rendezvous(1001)


def test_with_latency_and_delta():
    params = LogGPSParams(L=3.0)
    assert params.with_latency(7.0).L == pytest.approx(7.0)
    assert params.with_delta_latency(2.5).L == pytest.approx(5.5)
    # original is unchanged (frozen dataclass)
    assert params.L == pytest.approx(3.0)


def test_with_processes_and_overhead():
    params = LogGPSParams()
    assert params.with_processes(64).P == 64
    assert params.with_overhead(9.0).o == pytest.approx(9.0)


def test_as_dict_and_iter():
    params = LogGPSParams(L=1.0, o=2.0, g=0.5, G=0.25, S=128, P=4)
    d = dict(params)
    assert d == params.as_dict()
    assert d["L"] == 1.0 and d["P"] == 4


def test_replace_generic():
    params = LogGPSParams()
    modified = params.replace(L=9.0, o=1.0)
    assert modified.L == 9.0 and modified.o == 1.0
    assert modified.S == params.S
