"""The overlap quadrature equals its reference copy bit for bit.

``overlap_reference`` keeps ``_sinc2_windows`` as it stood when it
evaluated sinc^2 at every (tone, panel) pair.  The shipped one evaluates
each distinct panel start once and gathers the rows; every test here
requires its windows, and the ``aci_overlap_matrix`` built on them, to be
``np.array_equal`` to the reference's, on geometries where panels repeat
(whole-number spacings, clipped wide bands) and where none does.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import overlap_reference as ref
from conftest import adjacent_band_scenario
from crloading import channel
from crloading.channel import _CHUNK, _PANELS, _sinc2_windows
from crloading.scenario import load_scenario
from test_channel import one_pu_cfg

pytestmark = pytest.mark.bitwise

TS = 1.024e-4


def assert_matrix_matches_reference(cfg):
    """``aci_overlap_matrix`` of ``cfg`` equals the matrix built on the
    reference quadrature, bit for bit."""
    got = channel.aci_overlap_matrix(cfg).omega
    with mock.patch.object(channel, "_sinc2_windows", ref._sinc2_windows):
        want = channel.aci_overlap_matrix(cfg).omega
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def assert_windows_match_reference(shift, start, width, gain=1.0):
    got = _sinc2_windows(shift, start, width, gain)
    assert np.array_equal(got, ref._sinc2_windows(shift, start, width, gain))


def shipped(name, n=None, **su):
    cfg = load_scenario(f"configs/{name}.json")
    if n is not None:
        su["num_subcarriers"] = n
    return dataclasses.replace(cfg, su=dataclasses.replace(cfg.su, **su))


def with_band(cfg, bandwidth):
    """``cfg`` with its first adjacent PU ``bandwidth`` Hz wide."""
    pu = cfg.adjacent_pus()[0]
    return dataclasses.replace(cfg, pus=tuple(
        dataclasses.replace(p, bandwidth=bandwidth) if p is pu else p
        for p in cfg.pus))


@pytest.mark.parametrize("n", [1, 6, 37, 128, 1024, 4096])
def test_default_config(n):
    assert_matrix_matches_reference(shipped("default", n))


def test_small_n6():
    assert_matrix_matches_reference(shipped("small_n6"))


def test_spacing_not_a_whole_number_of_panels():
    # T_s * delta_f = 1.024: no two tones share a panel start
    assert_matrix_matches_reference(
        shipped("default", 256, subcarrier_spacing=1e4))


def test_fractional_width():
    # 300.7 periods in 301 panels: h = 0.99900...
    assert_matrix_matches_reference(
        with_band(shipped("default", 1024), 300.7 / TS))


def test_windows_straddling_zero():
    shift = 0.5 * np.arange(-40, 41)
    assert_windows_match_reference(shift, -3.25, 7.0)
    assert_windows_match_reference(shift, -2.0, 4.0, 0.3)
    assert_windows_match_reference(np.linspace(-5.0, 5.0, 33), -0.7, 1.4)


@pytest.mark.parametrize("cfg", [
    one_pu_cfg(64, 5e3, 1.2e4),                             # 0.512 periods
    one_pu_cfg(2, 2 / 1.024e-4, 1796.0522412020512),        # node at x = 0
], ids=["narrow_pu", "node_at_zero"])
def test_direct_integral_cases(cfg):
    assert_matrix_matches_reference(cfg)


@pytest.mark.parametrize("n,bandwidth,center_offset", [
    (128, 1e10, 6.25e5), (128, 1e10, 2e10),
    (64, (_PANELS + 0.5) / TS, 0.0), (300, 2.5 * _PANELS / TS, 1e6),
])
def test_bands_wider_than_panels(n, bandwidth, center_offset):
    assert_matrix_matches_reference(one_pu_cfg(n, bandwidth, center_offset))


def test_more_tones_than_a_chunk():
    # two panels per chunk, every start distinct
    assert_windows_match_reference(0.5 * np.arange(_CHUNK + 3), -1.5, 3.0)


def test_random_four_band_scenarios():
    rng = np.random.default_rng(1066)
    for _ in range(12):
        assert_matrix_matches_reference(adjacent_band_scenario(rng))
    assert_matrix_matches_reference(adjacent_band_scenario(rng, 256))


def test_thousands_of_tones():
    # the draws of TestFuzzFourAdjacentBands' thousands-of-tones test
    rng = np.random.default_rng(4096)
    for n in (2048, 4096, 4096, 4096):
        assert_matrix_matches_reference(adjacent_band_scenario(rng, n))


@given(n=st.integers(1, 80),
       spacing=st.sampled_from([1.0, 0.5, 2.0, 3.0])
       | st.floats(0.05, 4.0),
       start=st.floats(-700.0, 700.0),
       width=st.integers(1, 1200).map(float) | st.floats(0.01, 1200.0),
       gain=st.floats(1e-12, 1.0))
@settings(max_examples=50, deadline=None)
def test_random_windows(n, spacing, start, width, gain):
    assert_windows_match_reference(spacing * (np.arange(n, 0, -1) - 0.5),
                                   start, width, gain)
