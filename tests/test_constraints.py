"""Statistical-constraint inversion into power caps, and feasibility checks."""

import math
import re
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crloading.constraints import (
    ConstraintCaps,
    aci_power_cap,
    build_caps,
    cci_power_cap,
    check_feasible,
)
from crloading.channel import AciFactors, sample_su_channel
from crloading.discretizer import Allocation, power_for_bits, round_and_repair
from crloading.errors import ConfigError, SolverError
from crloading.experiments import run_trial, trial_rng
from crloading.kkt import kkt_verify
from crloading.oracle import exhaustive_search
from crloading.scenario import load_scenario
from crloading.solver import FEAS_TOL, solve_continuous

from conftest import make_caps, solve_raw

# nu 10^(L/10) P_cci / (-ln(1-Psi)) at L = 125.506... dB, Psi = 0.9,
# P_cci = 1e-14 W -- frozen from an independent evaluation
COMBINED_CCI_CAP = 0.015430733027860202
L5000 = 125.50602246155555
INV_LN10 = 0.43429448190325176  # 1 / (-ln 0.1)


class TestCciCap:
    def test_reference_value(self):
        cap = cci_power_cap(1.0, L5000, 0.9, 1e-14, math.inf)
        assert cap == pytest.approx(COMBINED_CCI_CAP, rel=1e-12)
        # published operating point: 15.4307 mW
        assert cap == pytest.approx(15.4307e-3, rel=2e-2)

    def test_hard_limit_wins_when_lower(self):
        assert cci_power_cap(1.0, L5000, 0.9, 1e-14, 1e-4) == 1e-4

    def test_unit_denominator(self):
        # Psi = 1 - 1/e makes -ln(1-Psi) = 1
        psi = 1.0 - math.exp(-1.0)
        assert cci_power_cap(1.0, 0.0, psi, 5.0) == pytest.approx(5.0, rel=1e-12)

    def test_certainty_forces_silence(self):
        assert cci_power_cap(1.0, L5000, 1.0, 1e-14) == 0.0

    def test_infinite_interference_limit_leaves_hard_cap(self):
        assert cci_power_cap(1.0, L5000, 0.9, math.inf, 0.25) == 0.25
        assert cci_power_cap(1.0, L5000, 0.9, math.inf) == math.inf

    def test_bad_probability(self):
        with pytest.raises(ConfigError, match="probability"):
            cci_power_cap(1.0, L5000, 0.0, 1e-14)

    def test_negative_limit(self):
        with pytest.raises(ConfigError, match="co-channel .* must be >= 0"):
            cci_power_cap(1.0, L5000, 0.9, -1e-14)


class TestAciCap:
    def test_reference_value(self):
        assert aci_power_cap(1.0, 0.9, 1.0) == pytest.approx(INV_LN10,
                                                             rel=1e-12)

    def test_unit_denominator(self):
        psi = 1.0 - math.exp(-1.0)
        assert aci_power_cap(1.0, psi, 3.0) == pytest.approx(3.0, rel=1e-12)

    def test_certainty_forces_silence(self):
        assert aci_power_cap(1.0, 1.0, 3.0) == 0.0

    def test_infinite_limit_is_vacuous(self):
        assert aci_power_cap(1.0, 0.9, math.inf) == math.inf

    def test_negative_limit(self):
        with pytest.raises(ConfigError, match="adjacent-channel .* must be "
                                              ">= 0"):
            aci_power_cap(1.0, 0.9, -1e-8)

    @given(st.floats(min_value=0.01, max_value=0.98),
           st.floats(min_value=0.011, max_value=0.99))
    @settings(max_examples=60)
    def test_strictly_decreasing_in_confidence(self, lo, hi):
        if lo >= hi:
            lo, hi = hi, lo
        if lo == hi:
            hi = lo + 0.005
        assert aci_power_cap(1.0, hi, 1.0) < aci_power_cap(1.0, lo, 1.0)

    @given(st.floats(min_value=1e-15, max_value=1.0),
           st.floats(min_value=1.5, max_value=100.0))
    @settings(max_examples=40)
    def test_linear_in_threshold(self, p, k):
        one = aci_power_cap(1.0, 0.9, p)
        assert aci_power_cap(1.0, 0.9, k * p) == pytest.approx(
            k * one, rel=1e-12, abs=0.0)


class TestBuildCaps:
    def test_default_scenario(self):
        cfg = load_scenario("configs/default.json")
        caps = build_caps(cfg)
        # hard limit 0.1 mW undercuts the 15.43 mW co-channel cap
        assert caps.total_cap == pytest.approx(1e-4, rel=1e-12)
        assert caps.aci_caps.shape == (1,)
        assert caps.aci_caps[0] == pytest.approx(1e-14 * INV_LN10, rel=1e-12,
                                                 abs=0.0)
        assert caps.aci_weights.omega.shape == (128, 1)

    def test_cached_overlap_matrix_reused(self):
        cfg = load_scenario("configs/default.json")
        om = build_caps(cfg).aci_weights
        caps = build_caps(cfg, om)
        assert caps.aci_weights is om

    def test_mismatched_matrix_rejected(self):
        cfg = load_scenario("configs/default.json")
        from crloading.channel import AciFactors
        with pytest.raises(ConfigError, match="shape"):
            build_caps(cfg, AciFactors(omega=np.zeros((4, 1))))

    @pytest.mark.parametrize("omega, aci", [
        ((3, 2), (1,)),         # two columns for one cap
        ((3, 1), (2,)),         # one column for two caps
        ((3, 0), (1,)),
        ((3,), (1,)),           # a vector, not an (N, L) matrix
        ((3, 1, 1), (1,)),
    ])
    def test_misshapen_matrix_refused_where_made(self, omega, aci):
        # directly built caps are checked as build_caps' are, and the
        # message names both shapes
        with pytest.raises(SolverError, match=re.escape(
                f"overlap matrix shape {omega} is not (N, L) for ACI caps "
                f"{aci}")):
            ConstraintCaps(1.0, np.ones(aci), AciFactors(np.zeros(omega)))

    @pytest.mark.parametrize("total, aci, omega, match", [
        (math.nan, [1.0], [[0.5], [0.5]], "NaN"),
        (1.0, [math.nan], [[0.5], [0.5]], "NaN"),
        # a negative weight once let the solve load the ACI cap to 0.20086
        # at these caps and CNIR (298.6951599, 71.99024681), infeasibly
        (0.2008576442932259, [0.17932873902656254], [[1.0], [-1.0]],
         ">= 0"),
        (1.0, [1.0], [[math.inf], [0.5]], "finite"),
        (1.0, [1.0], [[math.nan], [0.5]], "finite"),
    ], ids=["nan_total", "nan_aci", "negative_weight", "inf_weight",
            "nan_weight"])
    def test_nan_cap_or_bad_weight_refused(self, total, aci, omega, match):
        # refused by the plan, which every solve, repair and search reads
        caps = ConstraintCaps(total, np.array(aci), AciFactors(np.array(omega)))
        with pytest.raises(SolverError, match=match):
            solve_continuous(np.array([298.6951599, 71.99024681]), caps,
                             types.SimpleNamespace(alpha=0.5,
                                                   ber_threshold=1e-4))

    @pytest.mark.parametrize("omega, aci", [((3, 0), (0,)), ((1, 1), (1,)),
                                            ((3, 2), (2,))])
    def test_matching_shapes_accepted(self, omega, aci):
        caps = ConstraintCaps(1.0, np.ones(aci), AciFactors(np.zeros(omega)))
        assert caps.plan(0.5, 1e-4).omega.shape == omega

    def test_multiple_cochannel_pus_take_min(self):
        base = load_scenario("configs/cci_binding.json")
        d = {
            "su": {"num_subcarriers": 32, "symbol_duration": 1.024e-4,
                   "noise_variance": 1e-9, "ber_threshold": 1e-4},
            "path_loss": {"exponent": 4.0, "wavelength": 1 / 3,
                          "reference_distance": 500.0},
            "pus": [
                {"kind": "cochannel", "distance": 5000.0,
                 "interference_cap": 1e-14},
                {"kind": "cochannel", "distance": 5000.0,
                 "interference_cap": 5e-15},
            ],
        }
        caps = build_caps(load_scenario(d))
        ref = build_caps(base).total_cap
        assert caps.total_cap == pytest.approx(0.5 * ref, rel=1e-12)


class TestCheckFeasible:
    def test_all_zero_is_feasible(self):
        n = 4
        alloc = Allocation(bits=np.zeros(n, dtype=int), powers=np.zeros(n),
                           objective=0.0, repair_steps=0)
        rep = check_feasible(alloc, make_caps(n, 1.0, [1e-3]),
                            np.full(n, 50.0), 1e-4)
        assert rep.feasible
        assert rep.worst_margin == 0.0

    def test_exact_ber_allocation(self):
        c = np.array([100.0, 40.0])
        bits = np.array([4, 2])
        powers = power_for_bits(bits, c, 1e-4)
        alloc = Allocation(bits=bits, powers=powers, objective=0.0,
                           repair_steps=0)
        rep = check_feasible(alloc, make_caps(2, 10.0), c, 1e-4)
        assert rep.feasible
        assert rep.ber_ok.all()

    def test_power_violation_flagged(self):
        c = np.array([100.0])
        powers = np.array([1.01])
        alloc = Allocation(bits=np.array([4]), powers=powers, objective=0.0,
                           repair_steps=0)
        rep = check_feasible(alloc, make_caps(1, 1.0), c, 1e-1)
        assert not rep.power_ok
        assert not rep.feasible
        assert rep.worst_margin == pytest.approx(0.01, rel=1e-9)

    def test_aci_violation_flagged(self):
        c = np.array([100.0, 50.0])
        caps = make_caps(2, np.inf, [0.1], omega=[[0.5], [0.5]])
        alloc = Allocation(bits=np.array([2, 2]),
                           powers=np.array([0.2, 0.2]), objective=0.0,
                           repair_steps=0)
        rep = check_feasible(alloc, caps, c, 1e-1)
        assert not rep.aci_ok[0]
        assert rep.worst_margin == pytest.approx(1.0, rel=1e-9)

    def test_overshooting_ber_power_is_fine(self):
        # extra power only lowers the BER; the BER check is one-sided
        c = np.array([100.0])
        p = power_for_bits(np.array([4]), c, 1e-4) * 2.0
        alloc = Allocation(bits=np.array([4]), powers=p, objective=0.0,
                           repair_steps=0)
        assert check_feasible(alloc, make_caps(1, 10.0), c, 1e-4).feasible

    def test_scaling_up_never_fixes_a_violation(self, rng):
        # monotonicity of the power-side constraints
        c = rng.uniform(20.0, 200.0, size=5)
        caps = make_caps(5, 1.0, [0.2], omega=rng.uniform(0.1, 0.5, (5, 1)))
        powers = rng.uniform(0.05, 0.4, size=5)
        bits = np.full(5, 0, dtype=int)  # skip the BER leg; power legs only
        base = check_feasible(
            Allocation(bits=bits, powers=powers, objective=0.0,
                       repair_steps=0), caps, c, 1e-4)
        for scale in (1.5, 3.0, 10.0):
            worse = check_feasible(
                Allocation(bits=bits, powers=powers * scale, objective=0.0,
                           repair_steps=0), caps, c, 1e-4)
            if not base.power_ok:
                assert not worse.power_ok
            if not base.aci_ok.all():
                assert not worse.aci_ok.all()
            assert worse.worst_margin >= base.worst_margin - 1e-12

    def test_dimension_mismatch(self):
        alloc = Allocation(bits=np.zeros(3, dtype=int), powers=np.zeros(3),
                           objective=0.0, repair_steps=0)
        with pytest.raises(SolverError, match="one entry per row"):
            check_feasible(alloc, make_caps(4, 1.0), np.full(4, 50.0), 1e-4)

    def test_feasible_margin_is_at_most_feas_tol(self):
        # a feasible allocation's BER may exceed its ceiling by rounding
        # once its power is rounded: the margin is then above 0, yet
        # within FEAS_TOL, and the verdict stays feasible
        cfg = load_scenario("configs/small_n6.json")
        caps = build_caps(cfg)
        margins = []
        for t in range(500):
            trial = run_trial(cfg, caps, t, 42)
            report = check_feasible(trial.allocation, caps, trial.cnir,
                                    cfg.su.ber_threshold)
            assert report.feasible
            margins.append(report.worst_margin)
        assert 0.0 <= min(margins) and max(margins) <= FEAS_TOL
        assert np.count_nonzero(margins) > 400

    def test_report_serializes(self):
        alloc = Allocation(bits=np.zeros(2, dtype=int), powers=np.zeros(2),
                           objective=0.0, repair_steps=0)
        d = check_feasible(alloc, make_caps(2, 1.0), np.full(2, 50.0),
                           1e-4).to_dict()
        assert d["feasible"] is True
        assert isinstance(d["ber_ok"], list)


class TestToneCounts:
    """Both audits refuse bits, powers or a CNIR without one entry per row
    of the caps' overlap matrix, and name the shapes."""

    AUDITS = {
        "check_feasible": lambda sol, alloc, caps, cnir, ber=1e-4:
            check_feasible(alloc, caps, cnir, ber),
        "kkt_verify": lambda sol, alloc, caps, cnir, ber=1e-4: kkt_verify(
            sol, cnir, ber, caps),
    }

    @staticmethod
    def _small_n6():
        """small_n6's caps, one draw's CNIR, its solution and allocation."""
        cfg = load_scenario("configs/small_n6.json")
        su, caps = cfg.su, build_caps(cfg)
        cnir = sample_su_channel(su, trial_rng(42, 0)).cnir
        sol = solve_continuous(cnir, caps, su)
        alloc = round_and_repair(sol, caps, None, cnir, su.ber_threshold,
                                 su.max_bits)
        return sol, alloc, caps, cnir

    @pytest.mark.parametrize("audit", sorted(AUDITS))
    def test_cnir_a_tone_short(self, audit):
        # a 5-tone CNIR against small_n6's 6-tone solution and allocation
        sol, alloc, caps, cnir = self._small_n6()
        with pytest.raises(SolverError, match=(
                r"bits \(6,\), powers \(6,\) and CNIR \(5,\) must each "
                r"have one entry per row of the caps' overlap matrix "
                r"\(6, 1\)")):
            self.AUDITS[audit](sol, alloc, caps, cnir[:5])

    @pytest.mark.parametrize("audit", sorted(AUDITS))
    def test_ber_ceiling_a_tone_short(self, audit):
        # a 5-entry BER ceiling against small_n6's 6 tones: the plan's rule
        sol, alloc, caps, cnir = self._small_n6()
        with pytest.raises(SolverError, match=(
                r"BER thresholds must be one value or one per tone: got "
                r"\(5,\) for 6 tones")):
            self.AUDITS[audit](sol, alloc, caps, cnir, np.full(5, 1e-4))

    @pytest.mark.parametrize("audit", sorted(AUDITS))
    def test_band_narrower_than_caps_without_adjacent_pus(self, audit):
        # cci_binding's caps are for 32 tones and weight none of them
        caps = build_caps(load_scenario("configs/cci_binding.json"))
        cnir = np.array([100.0, 50.0, 25.0])
        sol = solve_raw(cnir, 0.5, 1e-4)
        alloc = Allocation(bits=np.zeros(3, dtype=int), powers=np.zeros(3),
                           objective=0.0, repair_steps=0)
        with pytest.raises(SolverError, match=(
                r"bits \(3,\), powers \(3,\) and CNIR \(3,\) .* "
                r"overlap matrix \(32, 0\)")):
            self.AUDITS[audit](sol, alloc, caps, cnir)


class TestLoadingSigns:
    """Both audits refuse a NaN or negative bit count and a negative power:
    a negative power would cancel another tone's load, and a tone whose
    bit count is not >= 0 would never have its BER judged."""

    P4 = 15.0 * -math.log(5e-4) / 160.0   # 4 bits at CNIR 100, BER 1e-4

    @pytest.mark.parametrize("audit", sorted(TestToneCounts.AUDITS))
    @pytest.mark.parametrize("bits, tone0, cap", [
        ([0.0, 4.0], -P4, P4 / 2.0),
        ([math.nan, 4.0], 5.0, math.inf),
        ([-3.0, 4.0], 5.0, math.inf)],
        ids=["negative_power_hides_a_cap", "nan_bits", "negative_bits"])
    def test_refused(self, audit, bits, tone0, cap):
        loading = types.SimpleNamespace(
            bits=np.array(bits), powers=np.array([tone0, self.P4]),
            alpha=0.5, lambda_power=0.0, lambda_aci=np.zeros(0))
        with pytest.raises(SolverError,
                           match="bits and powers must be >= 0"):
            TestToneCounts.AUDITS[audit](loading, loading, make_caps(2, cap),
                                         np.full(2, 100.0))


@pytest.mark.usefixtures("feasibility_only")
class TestEveryConsumerReadsOneCapRule:
    """Tones at 2 bits, a cap C that just admits their load, and the next
    float below C, which just refuses it.  The audit, the repair, both
    oracle engines and kkt's feasibility check (every KKT bound open) must
    give the same verdict at both caps."""

    CNIR = np.array([120.0, 60.0, 35.0, 80.0])
    BITS = np.array([2, 2, 2, 0])
    ALPHA, BER = 0.1, 1e-4          # every tone pays for its 2 bits
    OMEGA = [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 1.0]]

    def verdicts(self, cnir, bits, caps):
        powers = power_for_bits(bits, cnir, self.BER)
        alloc = Allocation(bits=bits, powers=powers, objective=0.0,
                           repair_steps=0)
        relaxed = types.SimpleNamespace(
            bits=bits.astype(float), powers=powers, lambda_power=0.0,
            lambda_aci=np.zeros(caps.aci_caps.size), alpha=self.ALPHA)
        repaired = round_and_repair(relaxed, caps, None, cnir, self.BER,
                                    max_bits=2)
        return {
            "check_feasible": check_feasible(alloc, caps, cnir,
                                             self.BER).feasible,
            "repair": repaired.repair_steps == 0,
            **{f"oracle prune={prune}": np.array_equal(exhaustive_search(
                cnir, self.ALPHA, self.BER, caps, b_max=2,
                prune=prune).bits, bits) for prune in (True, False)},
            "kkt": kkt_verify(relaxed, cnir, self.BER, caps).passed,
        }

    @staticmethod
    def limit_caps(load):
        """The cap that just admits ``load`` (the slack, not the cap, does)
        and the next float below it, which just refuses it."""
        cap = load / (1.0 + FEAS_TOL)
        while cap * (1.0 + FEAS_TOL) < load:
            cap = np.nextafter(cap, math.inf)
        while np.nextafter(cap, 0.0) * (1.0 + FEAS_TOL) >= load:
            cap = np.nextafter(cap, 0.0)
        assert load > cap
        return float(cap), float(np.nextafter(cap, 0.0))

    def assert_both_sides_agree(self, cnir, bits, caps_at, load):
        admit, refuse = (self.verdicts(cnir, bits, caps_at(cap))
                         for cap in self.limit_caps(load))
        assert admit == dict.fromkeys(admit, True)
        assert refuse == dict.fromkeys(refuse, False)

    def test_verdicts_agree_on_both_sides_of_the_limit(self):
        # beside the total cap sit an infinite ACI cap, which never binds,
        # and a zero ACI cap, which forbids the fourth tone
        total = float(np.sum(power_for_bits(self.BITS, self.CNIR, self.BER)))
        self.assert_both_sides_agree(
            self.CNIR, self.BITS,
            lambda cap: make_caps(4, cap, [math.inf, 0.0], self.OMEGA), total)

    @pytest.mark.parametrize("n, seed, aci", [(8, 8, False), (6, 5, True)],
                             ids=["total_cap_8_tones", "aci_cap_6_tones"])
    def test_random_draws_on_both_sides_of_the_limit(self, n, seed, aci):
        # from 8 tones the search's running total rounds otherwise than
        # np.sum, and at any n its running ACI loads otherwise than the
        # audit's product, so both engines must ask the audit near a cap
        rng = np.random.default_rng(seed)
        bits = np.full(n, 2)
        for _ in range(200):
            cnir = rng.uniform(40.0, 400.0, n)
            powers = power_for_bits(bits, cnir, self.BER)
            if aci:
                omega = rng.uniform(0.05, 0.6, (n, 1))
                self.assert_both_sides_agree(
                    cnir, bits,
                    lambda cap: make_caps(n, math.inf, [cap], omega),
                    float((omega.T @ powers)[0]))
            else:
                self.assert_both_sides_agree(
                    cnir, bits, lambda cap: make_caps(n, cap),
                    float(np.sum(powers)))


class TestEveryConsumerReadsOneBerRule:
    """check_feasible and kkt judge a BER ceiling by one rule
    (``constraints._audit``): on powers a few ulps either side of where the
    BER meets its ceiling up to FEAS_TOL, their verdicts agree."""

    def test_audit_and_kkt_agree_at_the_ceiling(self, feasibility_only):
        rng = np.random.default_rng(3)
        caps = make_caps(1)
        verdicts = []
        for _ in range(1000):
            c = 10.0 ** rng.uniform(0.0, 3.0)
            b = rng.uniform(2.0, 12.0)
            ceiling = 10.0 ** rng.uniform(-6.0, -2.5)
            p = -(2.0 ** b - 1.0) * math.log(
                5.0 * (1.0 + FEAS_TOL) * ceiling) / (1.6 * c)
            steps = int(rng.integers(-4, 5))
            for _ in range(abs(steps)):
                p = np.nextafter(p, math.copysign(math.inf, steps))
            sol = types.SimpleNamespace(
                bits=np.array([b]), powers=np.array([p]), lambda_power=0.0,
                lambda_aci=np.zeros(0), alpha=0.5)
            audit = check_feasible(sol, caps, [c], ceiling).feasible
            kkt = kkt_verify(sol, [c], ceiling, caps).passed
            verdicts.append((audit, kkt))
        assert {audit for audit, _ in verdicts} == {True, False}
        assert all(audit == kkt for audit, kkt in verdicts)
