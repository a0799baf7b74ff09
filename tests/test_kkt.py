"""First-order optimality certification of continuous solutions.

The verifier recovers the per-subcarrier BER-equality multipliers from the
solution itself, so stationarity w.r.t. power is zero by construction; the
informative residual is the bit-direction one.  Tests therefore poke each
failure channel separately: bits (stationarity), caps (primal), slack
pricing (complementarity), and multiplier signs (dual).
"""

import dataclasses
import math
import types

import numpy as np
import pytest

from crloading.channel import sample_su_channel
from crloading.constraints import build_caps
from crloading.experiments import trial_rng
from crloading.kkt import KktTolerances, kkt_verify
from crloading.scenario import load_scenario
from crloading.solver import solve_capped, solve_continuous

from conftest import make_caps, random_instance

C2 = np.array([100.0, 50.0])
OM = np.array([[0.5], [0.1]])


def su(alpha=0.5, ber=1e-4):
    return types.SimpleNamespace(alpha=alpha, ber_threshold=ber)


def free_caps(n=2, l=0):
    return make_caps(n, np.inf, [np.inf] * l,
                     omega=OM[:n] if l else None)


class TestCleanSolutionsPass:
    def test_unconstrained(self):
        sol = solve_capped(C2, 0.5, 1e-4)
        rep = kkt_verify(sol, C2, 1e-4, free_caps())
        assert rep.passed
        assert rep.stationarity_bits <= 1e-10
        assert rep.primal <= 1e-12

    def test_total_cap(self):
        caps = make_caps(2, 1.0)
        sol = solve_capped(C2, 0.5, 1e-4, 1.0)
        rep = kkt_verify(sol, C2, 1e-4, caps)
        assert rep.passed
        assert rep.complementarity <= 1e-10
        assert rep.dual_sign >= 0.0

    def test_aci_cap(self):
        caps = make_caps(2, np.inf, [0.3], omega=OM)
        sol = solve_capped(C2, 0.5, 1e-4, math.inf, OM, np.array([0.3]))
        assert kkt_verify(sol, C2, 1e-4, caps).passed

    def test_joint_caps(self):
        caps = make_caps(2, 0.8, [0.22], omega=OM)
        sol = solve_capped(C2, 0.5, 1e-4, 0.8, OM, np.array([0.22]))
        rep = kkt_verify(sol, C2, 1e-4, caps)
        assert rep.passed
        # both caps bind: complementarity must still be ~0 because the
        # slacks themselves are ~0
        assert rep.complementarity <= 1e-10

    def test_all_nulled_passes_trivially(self):
        sol = solve_capped(np.array([1.0, 2.0]), 0.5, 1e-4)
        rep = kkt_verify(sol, np.array([1.0, 2.0]), 1e-4, free_caps())
        assert rep.passed
        assert rep.stationarity_bits == 0.0

    def test_vector_ber_threshold(self):
        ber = np.array([1e-4, 1e-4])
        sol = solve_capped(C2, 0.5, 1e-4)
        assert kkt_verify(sol, C2, ber, free_caps()).passed

    def test_random_instances_certify(self, rng):
        seen = set()
        for _ in range(120):
            cnir, alpha, ber, caps = random_instance(rng)
            sol = solve_continuous(cnir, caps, su(alpha, ber))
            rep = kkt_verify(sol, cnir, ber, caps)
            assert rep.passed, rep.to_dict()
            seen.add(sol.case_id)
        assert {5, 6, 7, 8} <= seen


class TestWideBandCertifies:
    """The shipped default scenario resized to hundreds and thousands of
    subcarriers: a Newton-settled total-power multiplier (~7e6 at N=1024)
    once turned a 1e-12 relative cap residual into a complementarity above
    the default tolerance on about one draw in ten."""

    @pytest.mark.parametrize("n", [256, 1024])
    def test_default_scenario_first_hundred_trials(self, n):
        cfg = load_scenario("configs/default.json")
        cfg = dataclasses.replace(
            cfg, su=dataclasses.replace(cfg.su, num_subcarriers=n))
        caps = build_caps(cfg)
        failed = []
        for t in range(100):
            real = sample_su_channel(cfg.su, trial_rng(1234, t))
            sol = solve_continuous(real, caps, cfg.su)
            rep = kkt_verify(sol, real.cnir, cfg.su.ber_threshold, caps)
            if not rep.passed:
                failed.append((t, rep.to_dict()))
        assert failed == []


class TestFailureChannels:
    def test_perturbed_bits_break_stationarity(self):
        sol = solve_capped(C2, 0.5, 1e-4)
        bad = dataclasses.replace(sol, bits=sol.bits + 0.1)
        rep = kkt_verify(bad, C2, 1e-4, free_caps())
        assert not rep.passed
        assert rep.stationarity_bits > 1e-4

    def test_perturbed_powers_break_stationarity(self):
        sol = solve_capped(C2, 0.5, 1e-4, 1.0)
        bad = dataclasses.replace(sol, powers=sol.powers * 1.01)
        rep = kkt_verify(bad, C2, 1e-4, make_caps(2, 1.5))
        assert not rep.passed
        assert rep.stationarity_bits > 1e-4

    def test_negative_multiplier_flagged(self):
        sol = solve_capped(C2, 0.5, 1e-4)
        bad = dataclasses.replace(sol, lambda_power=-0.1)
        rep = kkt_verify(bad, C2, 1e-4, free_caps())
        assert not rep.passed
        assert rep.dual_sign == pytest.approx(-0.1)

    def test_pricing_a_slack_cap_breaks_complementarity(self):
        # solved for cap 1.0 but audited against cap 1.5: the positive
        # multiplier now prices 0.5 W of slack
        sol = solve_capped(C2, 0.5, 1e-4, 1.0)
        rep = kkt_verify(sol, C2, 1e-4, make_caps(2, 1.5))
        assert not rep.passed
        assert rep.complementarity == pytest.approx(
            sol.lambda_power * 0.5, rel=1e-9)
        assert rep.stationarity_bits <= 1e-8     # consistency is intact
        assert rep.primal <= 1e-12

    def test_cap_overrun_breaks_primal(self):
        sol = solve_capped(C2, 0.5, 1e-4)
        cap = 0.9 * float(np.sum(sol.powers))
        rep = kkt_verify(sol, C2, 1e-4, make_caps(2, cap))
        assert not rep.passed
        assert rep.primal == pytest.approx(1.0 / 9.0, rel=1e-9)
        assert rep.complementarity <= 1e-12      # multiplier is zero

    def test_missed_ber_breaks_primal(self):
        sol = solve_capped(C2, 0.5, 1e-4)
        bad = dataclasses.replace(sol, powers=sol.powers * 0.99)
        rep = kkt_verify(bad, C2, 1e-4, free_caps())
        assert not rep.passed
        assert rep.primal > 0.0

    def test_overshot_ber_is_not_a_primal_violation(self):
        # more power than needed keeps the link below the BER ceiling;
        # that is primal-feasible (it fails stationarity instead)
        sol = solve_capped(C2, 0.5, 1e-4)
        bad = dataclasses.replace(sol, powers=sol.powers * 1.5)
        rep = kkt_verify(bad, C2, 1e-4, free_caps())
        assert rep.primal == 0.0
        assert not rep.passed


class TestTolerancesAndReport:
    def test_infinite_tolerances_accept_anything(self):
        sol = solve_capped(C2, 0.5, 1e-4)
        bad = dataclasses.replace(sol, bits=sol.bits + 1.0,
                                  lambda_power=-5.0)
        tols = KktTolerances(stationarity=math.inf, primal=math.inf,
                             complementarity=math.inf, dual_sign=math.inf)
        assert kkt_verify(bad, C2, 1e-4, free_caps(), tols).passed

    def test_default_tolerance_values(self):
        tols = KktTolerances()
        assert tols.stationarity == 1e-8
        assert tols.primal == 1e-9
        assert tols.complementarity == 1e-10
        assert tols.dual_sign == 1e-12

    def test_report_to_dict(self):
        sol = solve_capped(C2, 0.5, 1e-4, 1.0)
        d = kkt_verify(sol, C2, 1e-4, make_caps(2, 1.0)).to_dict()
        assert d["pass"] is True
        for key in ("stationarity_power", "stationarity_bits", "primal",
                    "complementarity", "dual_sign"):
            assert isinstance(d[key], float)

    def test_dimension_mismatch_raises(self):
        sol = solve_capped(C2, 0.5, 1e-4)
        with pytest.raises(Exception):
            kkt_verify(sol, np.array([100.0, 50.0, 25.0]), 1e-4,
                       free_caps(3))
