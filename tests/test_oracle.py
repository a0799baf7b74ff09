"""Exhaustive discrete search used as ground truth in benchmarks."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from crloading.channel import AciFactors, sample_su_channel
from crloading.constraints import ConstraintCaps, build_caps
from crloading.discretizer import power_for_bits
from crloading.errors import SolverError
from crloading.experiments import trial_rng
from crloading.oracle import _FLAT_ENTRIES, OracleResult, exhaustive_search
from crloading.scenario import load_scenario

from conftest import make_caps, random_instance

C2 = np.array([100.0, 50.0])


class TestFrozenInstances:
    def test_two_tone_total_cap(self):
        res = exhaustive_search(C2, 0.5, 1e-4, make_caps(2, 2.0), b_max=4)
        assert list(res.bits) == [4, 3]
        assert res.objective == pytest.approx(-2.811168214603999, rel=1e-12)
        assert np.sum(res.powers) == pytest.approx(1.3776635707920022,
                                                   rel=1e-12)

    def test_single_tone(self):
        res = exhaustive_search(np.array([100.0]), 0.5, 1e-4, make_caps(1),
                                b_max=4)
        assert list(res.bits) == [4]
        assert res.objective == pytest.approx(-1.6437076972089648, rel=1e-12)

    def test_single_tone_cap_forces_step_down(self):
        res = exhaustive_search(np.array([100.0]), 0.5, 1e-4,
                                make_caps(1, 0.5), b_max=4)
        assert list(res.bits) == [3]
        assert res.objective == pytest.approx(-1.333730258697517, rel=1e-12)

    def test_tie_returns_lexicographically_smallest(self):
        # equal CNIR makes (3,4) and (4,3) score identically under the
        # 1.2 W cap; the reported winner must be deterministic
        res = exhaustive_search(np.array([100.0, 100.0]), 0.5, 1e-4,
                                make_caps(2, 1.2), b_max=4)
        assert list(res.bits) == [3, 4]
        assert res.objective == pytest.approx(-2.977437955906482, rel=1e-12)

    def test_zero_cap_transmits_nothing(self):
        res = exhaustive_search(C2, 0.5, 1e-4, make_caps(2, 0.0), b_max=4)
        assert list(res.bits) == [0, 0]
        assert res.objective == 0.0
        assert np.all(res.powers == 0.0)

    def test_weighted_cap_instance(self):
        caps = make_caps(2, np.inf, [0.5], omega=[[0.6], [0.05]])
        res = exhaustive_search(C2, 0.5, 1e-4, caps,
                                omega=caps.aci_weights.omega, b_max=4)
        assert list(res.bits) == [4, 4]
        assert res.objective == pytest.approx(-2.931123091626895, rel=1e-12)


class TestOverlapArgument:
    CAPS = make_caps(2, np.inf, [0.5], omega=[[0.6], [0.05]])

    @pytest.mark.parametrize("prune", [True, False], ids=["dfs", "flat"])
    def test_omitted_overlap_matrix_comes_from_the_caps(self, prune):
        res = exhaustive_search(C2, 0.5, 1e-4, self.CAPS, prune=prune)
        ref = exhaustive_search(C2, 0.5, 1e-4, self.CAPS,
                                omega=self.CAPS.aci_weights.omega,
                                prune=prune)
        assert list(res.bits) == list(ref.bits)
        assert res.objective == ref.objective
        load = float(self.CAPS.aci_weights.omega[:, 0] @ res.powers)
        assert load <= 0.5 * (1 + 1e-9)

    @pytest.mark.parametrize("prune", [True, False], ids=["dfs", "flat"])
    def test_two_caps_without_overlap_matrix_argument(self, prune):
        caps = make_caps(2, np.inf, [0.5, 0.3],
                         omega=[[0.6, 0.1], [0.05, 0.2]])
        res = exhaustive_search(C2, 0.5, 1e-4, caps, b_max=6, prune=prune)
        loads = caps.aci_weights.omega.T @ res.powers
        assert np.all(loads <= caps.aci_caps * (1 + 1e-9))

    @pytest.mark.parametrize("omega", [
        [[0.6, 0.1], [0.05, 0.2]], [[0.6]], [0.6, 0.05],
        np.zeros((3, 2)),
    ], ids=["extra_column", "missing_row", "one_dimensional", "both_extra"])
    def test_misshapen_overlap_matrix_rejected(self, omega):
        with pytest.raises(SolverError, match="the caps' own"):
            exhaustive_search(C2, 0.5, 1e-4, self.CAPS, omega=omega)
        # the caps' own matrix misshapen: refused where the caps are made
        # unless only its rows are wrong, which the search refuses
        with pytest.raises(SolverError, match="overlap matrix shape"):
            caps = ConstraintCaps(total_cap=np.inf, aci_caps=np.array([0.5]),
                                  aci_weights=AciFactors(np.array(omega)))
            exhaustive_search(C2, 0.5, 1e-4, caps)


class TestCnirChecked:
    @pytest.mark.parametrize("prune", [True, False], ids=["dfs", "flat"])
    @pytest.mark.parametrize("cnir", [[-100.0, 100.0], [np.nan, 100.0]],
                             ids=["negative", "nan"])
    def test_cnir_must_be_finite_and_positive(self, cnir, prune):
        with pytest.raises(SolverError, match="finite and positive"):
            exhaustive_search(cnir, 0.5, 1e-4, make_caps(2, 0.5),
                              prune=prune)


class TestAgainstInTestBruteForce:
    """Replicate the search with bare loops and compare."""

    DOMAIN = (0, 2, 3, 4)

    def brute(self, cnir, alpha, ber, total_cap, omega=None, aci_cap=None):
        best = None
        for combo in itertools.product(self.DOMAIN, repeat=len(cnir)):
            p = [power_for_bits(b, c, ber) if b else 0.0
                 for b, c in zip(combo, cnir)]
            if sum(p) > total_cap * (1 + 1e-9):
                continue
            if omega is not None:
                load = sum(w * pi for w, pi in zip(omega, p))
                if load > aci_cap * (1 + 1e-9):
                    continue
            f = alpha * sum(p) - (1 - alpha) * sum(combo)
            key = (f, combo)
            if best is None or key < best:
                best = key
        return best

    def test_matches_package_search(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 4))
            cnir = rng.uniform(20.0, 300.0, size=n)
            alpha = float(rng.uniform(0.3, 0.7))
            cap = float(rng.uniform(0.2, 3.0))
            f_ref, bits_ref = self.brute(cnir, alpha, 1e-4, cap)
            res = exhaustive_search(cnir, alpha, 1e-4, make_caps(n, cap),
                                    b_max=4)
            assert list(res.bits) == list(bits_ref)
            assert res.objective == pytest.approx(f_ref, rel=1e-10, abs=1e-12)

    def test_matches_with_weighted_cap(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 4))
            cnir = rng.uniform(20.0, 300.0, size=n)
            w = rng.uniform(0.05, 0.7, size=n)
            aci_cap = float(rng.uniform(0.05, 0.5))
            caps = make_caps(n, np.inf, [aci_cap], omega=w.reshape(-1, 1))
            f_ref, bits_ref = self.brute(cnir, 0.5, 1e-4, math.inf,
                                         omega=w, aci_cap=aci_cap)
            res = exhaustive_search(cnir, 0.5, 1e-4, caps,
                                    omega=caps.aci_weights.omega, b_max=4)
            assert list(res.bits) == list(bits_ref)
            assert res.objective == pytest.approx(f_ref, rel=1e-10, abs=1e-12)


class TestSearchMechanics:
    def test_pruned_equals_flat(self, rng):
        for _ in range(30):
            cnir, alpha, ber, caps = random_instance(rng, n_lo=2, n_hi=5)
            kw = dict(omega=caps.aci_weights.omega, b_max=6)
            a = exhaustive_search(cnir, alpha, ber, caps, prune=True, **kw)
            b = exhaustive_search(cnir, alpha, ber, caps, prune=False, **kw)
            assert list(a.bits) == list(b.bits)
            assert a.objective == pytest.approx(b.objective, rel=1e-12,
                                                abs=1e-15)

    def test_flat_node_count_is_domain_size_power_n(self):
        res = exhaustive_search(C2, 0.5, 1e-4, make_caps(2, 2.0), b_max=4,
                                prune=False)
        assert res.nodes_visited == 4 ** 2      # domain {0,2,3,4} squared

    def test_result_fields(self):
        res = exhaustive_search(C2, 0.5, 1e-4, make_caps(2, 2.0), b_max=4)
        assert isinstance(res, OracleResult)
        assert res.bits.dtype.kind == "i"
        assert res.nodes_visited > 0

    def test_feasibility_of_winner(self, rng):
        for _ in range(25):
            cnir, alpha, ber, caps = random_instance(rng, n_lo=2, n_hi=5)
            res = exhaustive_search(cnir, alpha, ber, caps,
                                    omega=caps.aci_weights.omega, b_max=6)
            assert np.sum(res.powers) <= caps.total_cap * (1 + 1e-9)
            loads = caps.aci_weights.omega.T @ res.powers
            assert np.all(loads <= caps.aci_caps * (1 + 1e-9))
            assert np.all((res.bits == 0) | (res.bits >= 2))

    def test_powers_are_priced_as_power_for_bits(self, rng):
        # the winner's powers are read off the candidate table: bitwise
        # (signed zeros too) what power_for_bits gives its bits, with two
        # or three bands and one BER ceiling per tone
        for r in range(20):
            cnir, alpha, ber, caps = random_instance(rng, n_lo=2, n_hi=5)
            n = cnir.size
            ber = ber * rng.uniform(0.5, 2.0, n)
            extra = rng.uniform(0.0, 0.6, (n, 1 + r % 2))
            caps = make_caps(n, caps.total_cap,
                             [*caps.aci_caps, *(0.5 * extra.sum(0))],
                             np.c_[caps.aci_weights.omega, extra])
            for prune in (True, False):
                res = exhaustive_search(cnir, alpha, ber, caps, b_max=6,
                                        prune=prune)
                assert res.powers.tobytes() == power_for_bits(
                    res.bits, cnir, ber, max_bits=6).tobytes()

    def test_large_n_refused(self):
        cnir = np.full(11, 100.0)
        with pytest.raises(SolverError, match="exhaustive"):
            exhaustive_search(cnir, 0.5, 1e-4, make_caps(11, 1.0), b_max=4)

    def test_raising_bmax_never_hurts(self, rng):
        for _ in range(15):
            cnir, alpha, ber, caps = random_instance(rng, n_lo=2, n_hi=4)
            lo = exhaustive_search(cnir, alpha, ber, caps,
                                   omega=caps.aci_weights.omega, b_max=4)
            hi = exhaustive_search(cnir, alpha, ber, caps,
                                   omega=caps.aci_weights.omega, b_max=6)
            assert hi.objective <= lo.objective + 1e-12


class TestBmaxChecked:
    def test_integral_float_counts(self):
        a = exhaustive_search(C2, 0.5, 1e-4, make_caps(2, 2.0), b_max=8.0)
        b = exhaustive_search(C2, 0.5, 1e-4, make_caps(2, 2.0), b_max=8)
        assert list(a.bits) == list(b.bits) and a.objective == b.objective

    @pytest.mark.parametrize("caps", [
        make_caps(2, 2.0), make_caps(2, 2.0, [1.0], omega=[[0.0], [0.5]]),
    ], ids=["no_band", "band_unweighted_on_the_tiny_tone"])
    @pytest.mark.parametrize("prune", [True, False], ids=["dfs", "flat"])
    def test_top_bit_count_at_a_tiny_cnir(self, caps, prune):
        # the 1e-3 tone's top powers pass the float range: they are inf,
        # with no overflow warning (an error under the test settings), and
        # the search returns its b_max = 8 answer; their load increments
        # (inf times a weight of 0) raise no warning either
        assert power_for_bits(1014, 1e-3, 1e-4, max_bits=1014) == math.inf
        cnir = np.array([1e-3, 50.0])
        want = exhaustive_search(cnir, 0.5, 1e-4, caps, b_max=8, prune=prune)
        got = exhaustive_search(cnir, 0.5, 1e-4, caps, b_max=1014,
                                prune=prune)
        assert list(got.bits) == list(want.bits) == [0, 4]
        assert got.powers.tobytes() == power_for_bits(
            got.bits, cnir, 1e-4, max_bits=1014).tobytes()

    @pytest.mark.parametrize("prune", [True, False], ids=["dfs", "flat"])
    @pytest.mark.parametrize("b_max", [4.5, True, 1015, 1, math.nan, "8"],
                             ids=["fractional", "bool", "above_1014",
                                  "below_2", "nan", "string"])
    def test_bad_b_max_names_the_bound(self, b_max, prune):
        with pytest.raises(SolverError, match=r"b_max must be an integer "
                                              r"in \[2, 1014\]"):
            exhaustive_search(C2, 0.5, 1e-4, make_caps(2, 2.0), b_max=b_max,
                              prune=prune)


class TestStreamedFlatSearch:
    """The flat engine over many blocks of ``_FLAT_ENTRIES`` powers."""

    def small_n6(self, trial):
        cfg = load_scenario("configs/small_n6.json")
        su = cfg.su
        cnir = sample_su_channel(su, trial_rng(cfg.experiment.seed,
                                               trial)).cnir
        return dict(cnir=cnir, alpha=su.alpha, ber_threshold=su.ber_threshold,
                    caps=build_caps(cfg), b_max=su.max_bits)

    def test_flat_equals_dfs_on_small_n6(self):
        assert 8 ** 6 * 6 > 8 * _FLAT_ENTRIES      # many blocks
        for trial in range(4):
            kw = self.small_n6(trial)
            assert kw["cnir"].size == 6 and kw["b_max"] == 8
            dfs = exhaustive_search(prune=True, **kw)
            flat = exhaustive_search(prune=False, **kw)
            assert np.array_equal(flat.bits, dfs.bits)
            assert flat.objective == dfs.objective
            assert flat.nodes_visited == 8 ** 6

    def test_tie_across_blocks_returns_lexicographically_smallest(self):
        # Powers 15, 35, 75 W at 2, 3, 4 bits and alpha = 1/64 make every
        # objective exact; the 400 W cap admits three tones at 4 bits and
        # five at 3, and all 56 placements of the 4s score the same.
        ber, n = math.exp(-8.0) / 5.0, 8
        assert list(power_for_bits([2, 3, 4], 1.0, ber)) == [15.0, 35.0, 75.0]
        assert 4 ** n * n >= 2 * _FLAT_ENTRIES     # at least 2 blocks
        for prune in (True, False):
            res = exhaustive_search(np.ones(n), 1 / 64, ber,
                                    make_caps(n, 400.0), b_max=4, prune=prune)
            assert list(res.bits) == [3, 3, 3, 3, 3, 4, 4, 4]
            assert res.objective == (400.0 - 63 * 27) / 64

    def test_peak_memory_stays_small(self):
        kw = self.small_n6(0)
        tracemalloc.start()
        try:
            exhaustive_search(prune=False, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


def three_band_config():
    """small_n6's link beside three adjacent bands drawn from seed 8, whose
    caps bind: the third band's load reaches 89-98% of its cap."""
    rng = np.random.default_rng(8)
    pus = [{"kind": "adjacent", "distance": float(rng.uniform(800, 2000)),
            "interference_cap": float(10.0 ** rng.uniform(-13.5, -12)),
            "probability": float(rng.uniform(0.8, 0.95)),
            "bandwidth": float(rng.uniform(0.5, 1.5) * 1.25e6),
            "center_offset": float(rng.uniform(0.4, 1.5) * 1.25e6)}
           for _ in range(3)]
    return load_scenario({
        "su": {"num_subcarriers": 6, "symbol_duration": 1.024e-4,
               "noise_variance": 1e-9, "ber_threshold": 1e-4, "alpha": 0.5,
               "power_threshold": 3.0, "max_bits": 8, "su_link_gain": 1e-7},
        "path_loss": {"exponent": 4.0, "wavelength": 1 / 3,
                      "reference_distance": 500.0},
        "pus": pus, "experiment": {"trials": 10, "seed": 7}})


def criterion_6_config():
    """Acceptance criterion 6's N=8 config: no adjacent band, and only the
    4 W power threshold caps the total (its co-channel PU has no limit)."""
    return load_scenario({
        "su": {"num_subcarriers": 8, "symbol_duration": 1.024e-4,
               "noise_variance": 1e-9, "ber_threshold": 1e-4,
               "su_link_gain": 1e-6, "power_threshold": 4.0, "max_bits": 8},
        "path_loss": {"exponent": 4.0, "wavelength": 1 / 3,
                      "reference_distance": 500.0},
        "pus": [{"kind": "cochannel", "distance": 5000.0,
                 "interference_cap": "inf", "probability": 0.9}],
        "experiment": {"trials": 1000, "seed": 31415}})


PINNED_CONFIGS = {
    "small_n6": lambda: load_scenario("configs/small_n6.json"),
    "criterion_6_n8": criterion_6_config,
    "three_bands": three_band_config,
}


def pinned_search(name, trial):
    """The pruned search on trial ``trial``'s draw of a pinned config."""
    cfg = PINNED_CONFIGS[name]()
    su = cfg.su
    cnir = sample_su_channel(su, trial_rng(cfg.experiment.seed, trial)).cnir
    return exhaustive_search(cnir, su.alpha, su.ber_threshold,
                             build_caps(cfg), b_max=su.max_bits)


@pytest.mark.bitwise
class TestPinnedSearches:
    """Bits, objective (as its exact hex) and nodes of the pruned search on
    the first draws of three configs: with one adjacent band, none, and
    three.  Any change to the search's order, pruning or load sums that
    moves a verdict moves one of these."""

    @pytest.mark.parametrize("name, trial, bits, objective, nodes", [
        ("small_n6", 0, [5, 4, 4, 0, 0, 2], "-0x1.b5efd122ab2e8p+2", 1753),
        ("small_n6", 1, [2, 2, 2, 2, 3, 2], "-0x1.7c1c37b3c34c9p+2", 1490),
        ("small_n6", 2, [3, 3, 0, 4, 0, 2], "-0x1.584a6aa0caa90p+2", 763),
        ("criterion_6_n8", 0, [7, 4, 8, 8, 2, 7, 7, 4],
         "-0x1.5920eaf7b0cd4p+4", 13667),
        ("criterion_6_n8", 1, [3, 7, 7, 4, 5, 7, 7, 8],
         "-0x1.62c5457cec4a6p+4", 16300),
        ("criterion_6_n8", 2, [8, 6, 5, 6, 6, 8, 8, 7],
         "-0x1.902914ef485bap+4", 27450),
        ("three_bands", 0, [3, 3, 2, 3, 0, 5], "-0x1.c4be435946720p+2", 1277),
        ("three_bands", 1, [4, 2, 2, 0, 0, 3], "-0x1.1eea57b17bfb0p+2", 407),
        ("three_bands", 2, [2, 4, 5, 4, 3, 0], "-0x1.008d51b41100ap+3", 999),
    ])
    def test_frozen_search(self, name, trial, bits, objective, nodes):
        res = pinned_search(name, trial)
        assert res.bits.tolist() == bits
        assert res.objective.hex() == objective
        assert res.nodes_visited == nodes

    def test_three_bands_binds_an_adjacent_cap(self):
        cfg = three_band_config()
        caps = build_caps(cfg)
        assert caps.aci_caps.size == 3
        res = pinned_search("three_bands", 1)
        loads = caps.aci_weights.omega.T @ res.powers
        assert np.max(loads / caps.aci_caps) > 0.95
