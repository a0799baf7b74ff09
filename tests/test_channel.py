"""Fading draws, CNIR assembly, and the spectral-overlap quadrature."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crloading.channel import (
    _sinc2,
    aci_overlap_matrix,
    adaptive_simpson,
    pu_interference_to_su,
    sample_sp_gain,
    sample_su_channel,
    spectral_overlap_factor,
    subcarrier_center_frequencies,
)
from crloading.errors import ConfigError, QuadratureError
from crloading.scenario import load_scenario, path_loss_db

# integral of sinc^2 over [-1/2, 1/2]; frozen from an independent
# high-order quadrature run (scipy.integrate.quad at 1e-14, cross-checked
# against the Si closed form)
MAIN_LOBE = 0.7736950099028163


def su_params(**over):
    d = {"num_subcarriers": 16, "symbol_duration": 1.024e-4,
         "noise_variance": 1e-9, "ber_threshold": 1e-4}
    d.update(over)
    return load_scenario({
        "su": d,
        "path_loss": {"exponent": 4.0, "wavelength": 1 / 3,
                      "reference_distance": 500.0},
    }).su


class TestSuChannel:
    def test_deterministic_per_seed(self):
        su = su_params()
        a = sample_su_channel(su, np.random.default_rng(5))
        b = sample_su_channel(su, np.random.default_rng(5))
        np.testing.assert_array_equal(a.cnir, b.cnir)

    def test_unit_mean_fading(self):
        su = su_params(num_subcarriers=100000)
        real = sample_su_channel(su, np.random.default_rng(0))
        assert np.mean(real.gains) == pytest.approx(1.0, abs=0.02)

    def test_link_gain_scales_cnir(self):
        rng_state = 11
        weak = sample_su_channel(su_params(su_link_gain=1e-6),
                                 np.random.default_rng(rng_state))
        strong = sample_su_channel(su_params(su_link_gain=2e-6),
                                   np.random.default_rng(rng_state))
        np.testing.assert_allclose(strong.cnir, 2.0 * weak.cnir, rtol=1e-12)

    def test_interference_lowers_cnir(self):
        clean = sample_su_channel(su_params(), np.random.default_rng(3))
        noisy = sample_su_channel(su_params(pu_interference=1e-9),
                                  np.random.default_rng(3))
        assert np.all(noisy.cnir < clean.cnir)
        np.testing.assert_allclose(noisy.cnir, clean.cnir / 2.0, rtol=1e-12)

    def test_interference_vector_echoed(self):
        j = tuple(float(k) * 1e-10 for k in range(16))
        su = su_params(pu_interference=list(j))
        out = pu_interference_to_su(su)
        np.testing.assert_allclose(out, np.asarray(j))

    def test_interference_default_zeros(self):
        np.testing.assert_array_equal(pu_interference_to_su(su_params()),
                                      np.zeros(16))

    def test_negative_interference_rejected(self):
        bad = dataclasses.replace(su_params(), pu_interference=-1e-9)
        with pytest.raises(ConfigError, match="non-negative"):
            pu_interference_to_su(bad)


class TestSpGain:
    @pytest.mark.parametrize("rate,mean,tol", [(1.0, 1.0, 0.02),
                                               (2.0, 0.5, 0.01)])
    def test_exponential_mean(self, rate, mean, tol):
        rng = np.random.default_rng(99)
        draws = np.array([sample_sp_gain(rate, rng) for _ in range(100000)])
        assert np.mean(draws) == pytest.approx(mean, abs=tol)

    def test_reproducible(self):
        a = [sample_sp_gain(1.5, np.random.default_rng(1)) for _ in range(4)]
        b = [sample_sp_gain(1.5, np.random.default_rng(1)) for _ in range(4)]
        assert a == b

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_non_positive_rate_rejected(self, rate):
        with pytest.raises(ConfigError, match="fading rate"):
            sample_sp_gain(rate, np.random.default_rng(0))


class TestAdaptiveSimpson:
    def test_main_lobe_value(self):
        v = adaptive_simpson(_sinc2, -0.5, 0.5, rel_tol=1e-12)
        assert v == pytest.approx(MAIN_LOBE, rel=1e-12)

    def test_removable_singularity(self):
        assert _sinc2(0.0) == 1.0

    def test_smooth_reference(self):
        # integral of x^2 over [0, 2] = 8/3 exactly
        assert adaptive_simpson(lambda x: x * x, 0.0, 2.0) == pytest.approx(
            8.0 / 3.0, rel=1e-13)

    def test_orientation(self):
        fwd = adaptive_simpson(_sinc2, -0.5, 1.5)
        rev = adaptive_simpson(_sinc2, 1.5, -0.5)
        assert rev == pytest.approx(-fwd, rel=1e-12)

    def test_empty_interval(self):
        assert adaptive_simpson(_sinc2, 0.3, 0.3) == 0.0

    @given(st.floats(min_value=-2.9, max_value=3.9))
    @settings(max_examples=40, deadline=None)
    def test_partition_additivity(self, split):
        whole = adaptive_simpson(_sinc2, -3.0, 4.0, rel_tol=1e-11)
        left = adaptive_simpson(_sinc2, -3.0, split, rel_tol=1e-11)
        right = adaptive_simpson(_sinc2, split, 4.0, rel_tol=1e-11)
        assert left + right == pytest.approx(whole, abs=1e-9)

    def test_budget_exhaustion_reports_progress(self):
        with pytest.raises(QuadratureError) as exc:
            adaptive_simpson(_sinc2, 0.0, 200.0, rel_tol=1e-13, max_depth=1)
        err = exc.value
        assert err.achieved_tol > 1e-13
        assert np.isfinite(err.value)


class TestOverlapFactor:
    def test_wide_band_totals_one(self):
        w = spectral_overlap_factor(0.0, 2e4, 1.0, 0.0, rel_tol=1e-7)
        assert w <= 1.0 + 1e-12
        assert w == pytest.approx(1.0, abs=1e-4)

    def test_main_interval(self):
        # band of one subcarrier spacing centred on the subcarrier
        ts = 1.024e-4
        w = spectral_overlap_factor(0.0, 1.0 / ts, ts, 0.0)
        assert w == pytest.approx(MAIN_LOBE, rel=1e-10)

    def test_symmetry_in_offset(self):
        ts = 1.024e-4
        a = spectral_overlap_factor(3.7e4, 1e4, ts, 0.0)
        b = spectral_overlap_factor(-3.7e4, 1e4, ts, 0.0)
        assert a == pytest.approx(b, rel=1e-10)

    def test_path_loss_attenuates(self):
        ts = 1.024e-4
        w0 = spectral_overlap_factor(1e4, 1e4, ts, 0.0)
        w20 = spectral_overlap_factor(1e4, 1e4, ts, 20.0)
        assert w20 == pytest.approx(0.01 * w0, rel=1e-10)

    def test_upper_bound_is_attenuation(self, rng):
        ts = 1.024e-4
        for _ in range(20):
            fc = float(rng.uniform(-5e4, 5e4))
            bw = float(rng.uniform(1e3, 5e5))
            loss = float(rng.uniform(0.0, 60.0))
            w = spectral_overlap_factor(fc, bw, ts, loss)
            assert 0.0 <= w <= 10.0 ** (-0.1 * loss) * (1.0 + 1e-9)

    def test_decays_beyond_band_edge(self):
        ts = 1.024e-4
        b = 1e4
        start = b / 2.0 + 1.0 / ts
        grid = start + np.linspace(0.0, 3e5, 25)
        vals = [spectral_overlap_factor(f, b, ts, 0.0) for f in grid]
        # sidelobe envelope decay: non-increasing on a coarse grid
        assert all(v2 <= v1 * (1 + 1e-6) for v1, v2 in zip(vals, vals[1:]))


def two_pu_cfg():
    return load_scenario({
        "su": {"num_subcarriers": 6, "symbol_duration": 1.024e-4,
               "noise_variance": 1e-9, "ber_threshold": 1e-4},
        "path_loss": {"exponent": 4.0, "wavelength": 1 / 3,
                      "reference_distance": 500.0},
        "pus": [
            {"kind": "adjacent", "distance": 1000.0,
             "interference_cap": 1e-14, "bandwidth": 1.25e6,
             "center_offset": 6.25e5},
            {"kind": "adjacent", "distance": 2000.0,
             "interference_cap": 1e-12, "bandwidth": 3.0e6,
             "center_offset": 2.0e6},
            {"kind": "cochannel", "distance": 5000.0,
             "interference_cap": 1e-14},
        ],
    })


def default_cfg_n1024():
    cfg = load_scenario("configs/default.json")
    return dataclasses.replace(
        cfg, su=dataclasses.replace(cfg.su, num_subcarriers=1024))


def one_pu_cfg(n, bandwidth, center_offset):
    return load_scenario({
        "su": {"num_subcarriers": n, "symbol_duration": 1.024e-4,
               "noise_variance": 1e-9, "ber_threshold": 1e-4},
        "path_loss": {"exponent": 4.0, "wavelength": 1 / 3,
                      "reference_distance": 500.0},
        "pus": [{"kind": "adjacent", "distance": 1000.0,
                 "interference_cap": 1e-14, "bandwidth": bandwidth,
                 "center_offset": center_offset}],
    })


class TestOverlapMatrix:
    @pytest.mark.parametrize("make,rows", [
        (two_pu_cfg, range(6)),                # T_s * B = 128 and 307.2
        (default_cfg_n1024, (0, 512, 1023)),   # far tones, x ~ 1e3
        # T_s * B = 0.512: one panel, shorter than a sinc^2 period
        (lambda: one_pu_cfg(64, 5e3, 1.2e4), range(64)),
        # center_offset found by search so that a quadrature node of the
        # nearest window lands exactly on x = 0, where sinc^2 reads 0/0
        (lambda: one_pu_cfg(2, 2 / 1.024e-4, 1796.0522412020512), range(2)),
    ], ids=["two_pu_n6", "default_n1024", "narrow_pu", "node_at_zero"])
    def test_matches_direct_integrals(self, make, rows):
        cfg = make()
        om = aci_overlap_matrix(cfg).omega
        su = cfg.su
        assert om.shape == (su.num_subcarriers, len(cfg.adjacent_pus()))
        for col, pu in enumerate(cfg.adjacent_pus()):
            loss = path_loss_db(pu.distance, cfg.path_loss)
            for i in rows:
                fc = pu.center_offset + (su.num_subcarriers - i - 0.5) \
                    * su.subcarrier_spacing
                direct = spectral_overlap_factor(fc, pu.bandwidth,
                                                 su.symbol_duration, loss,
                                                 rel_tol=1e-13)
                # abs=0: the far-tone factors (~1e-16) sit below approx's
                # default absolute tolerance of 1e-12
                assert om[i, col] == pytest.approx(direct, rel=1e-12, abs=0.0)

    def test_nearest_subcarrier_leaks_most(self):
        om = aci_overlap_matrix(two_pu_cfg()).omega
        # subcarrier N-1 sits closest to the adjacent band
        assert np.all(np.diff(om[:, 0]) > 0)

    def test_no_adjacent_pus_empty_matrix(self):
        cfg = load_scenario({
            "su": {"num_subcarriers": 4, "symbol_duration": 1.024e-4,
                   "noise_variance": 1e-9, "ber_threshold": 1e-4},
            "path_loss": {"exponent": 4.0, "wavelength": 1 / 3,
                          "reference_distance": 500.0},
        })
        assert aci_overlap_matrix(cfg).omega.shape == (4, 0)

    def test_center_frequencies_half_spacing_grid(self):
        su = su_params(num_subcarriers=4)
        f = subcarrier_center_frequencies(su)
        df = su.subcarrier_spacing
        np.testing.assert_allclose(f, [0.5 * df, 1.5 * df, 2.5 * df, 3.5 * df])
