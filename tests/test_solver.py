"""Continuous bit/power loading: closed forms, dual search, regime dispatch.

Expected numbers were frozen from an independent root-finder (bisection /
brentq on the stationarity system) before the solver existed.
"""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crloading import solver
from crloading.errors import SolverError
from crloading.solver import (
    ContinuousSolution,
    cnir_threshold,
    lambda_total_power,
    objective_value,
    solve_capped,
    solve_continuous,
)

from conftest import make_caps, random_instance

NEGLOG = 7.600902459542082          # -ln(5e-4)
C_TH = 13.17136027385687            # activation CNIR at alpha=.5, BER=1e-4
C_TH_2 = 3.9348361546441777         # alpha=.3, BER=1e-3

C2 = np.array([100.0, 50.0])

# -- unconstrained optimum on C2 (alpha=.5, BER=1e-4) --------------------
B5 = [4.924523747090399, 3.924523747090399]
P5 = [1.3951894005168253, 1.3476837601446874]

# -- total-power cap 1.0 on the same instance ----------------------------
LAM6 = 0.7627340691630451
B6 = [3.587972906457258, 2.587972906457258]
P6 = [0.5237528201860691, 0.47624717981393105]

# -- single adjacent-band cap 0.3, weights (0.5, 0.1) --------------------
LAM7 = 2.111643334793393
B7 = [3.2868470430046623, 3.416268870457403]
P7 = [0.4161384491535517, 0.9193077542322416]
F7 = -2.6838348550381363

# -- two adjacent bands, weights [[.5,.05],[.1,.4]], caps (.25,.30) ------
LAM7_2 = [2.5116493519271077, 0.37590569368902715]
B7_2 = [3.0970136461869635, 3.0740808018020034]
P7_2 = [0.358974358974359, 0.7051282051282052]
F7_2 = -2.5534959419432015

# -- joint caps: total 0.8 AND aci 0.22 both bind ------------------------
LAM8_POW = 0.7007612971571163
LAM8_ACI = 1.2278473928344706
B8 = [3.064804610797723, 2.5201153706254926]
P8 = [0.35, 0.45]
F8 = -2.392459990711608

# -- joint caps where only the total one can bind (aci cap 0.25 goes
#    slack once the sum hits 0.8: the induced load is only ~0.2495) ------
LAM8D_POW = 1.0306834376830993
B8D = [3.3103477987445866, 2.3103477987445866]
P8D = [0.4237528201860691, 0.3762471798139311]
F8D = -2.4103477987445867


def su(alpha=0.5, ber=1e-4):
    return types.SimpleNamespace(alpha=alpha, ber_threshold=ber)


class TestActivationThreshold:
    def test_reference_values(self):
        assert cnir_threshold(0.5, 1e-4) == pytest.approx(C_TH, rel=1e-12)
        assert cnir_threshold(0.3, 1e-3) == pytest.approx(C_TH_2, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(SolverError, match="alpha"):
            cnir_threshold(alpha, 1e-4)

    def test_bits_hit_two_exactly_at_threshold(self):
        sol = solve_capped(np.array([C_TH]), 0.5, 1e-4)
        assert sol.bits[0] == pytest.approx(2.0, abs=1e-10)
        sol2 = solve_capped(np.array([C_TH_2]), 0.3, 1e-3)
        assert sol2.bits[0] == pytest.approx(2.0, abs=1e-10)
        assert sol2.powers[0] == pytest.approx(2.5247163215556854, rel=1e-12)

    def test_below_threshold_is_nulled(self):
        sol = solve_capped(np.array([C_TH * 0.999, C_TH * 1.001]), 0.5, 1e-4)
        assert sol.bits[0] == 0.0 and sol.powers[0] == 0.0
        assert sol.bits[1] > 2.0
        assert list(sol.active_set) == [1]

    @given(st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=1e-6, max_value=0.19))
    @settings(max_examples=80)
    def test_threshold_separates_regimes(self, alpha, ber):
        cth = cnir_threshold(alpha, ber)
        sol = solve_capped(np.array([cth * 0.98, cth * 1.02]), alpha, ber)
        assert sol.bits[0] == 0.0
        assert sol.bits[1] >= 2.0


class TestUnconstrained:
    def test_frozen_allocation(self):
        sol = solve_capped(C2, 0.5, 1e-4)
        np.testing.assert_allclose(sol.bits, B5, rtol=1e-12)
        np.testing.assert_allclose(sol.powers, P5, rtol=1e-12)
        assert sol.case_id == 5
        assert sol.lambda_power == 0.0
        assert sol.lambda_aci.size == 0
        assert sol.objective == pytest.approx(
            0.5 * sum(P5) - 0.5 * sum(B5), rel=1e-12)

    def test_power_bits_identity(self):
        # P = (1-alpha)/(mu ln2) (1 - 2^-b) with mu = alpha here
        sol = solve_capped(C2, 0.5, 1e-4)
        rhs = 0.5 / (0.5 * math.log(2)) * (1.0 - 2.0 ** -sol.bits)
        np.testing.assert_allclose(sol.powers, rhs, rtol=1e-12)

    def test_bits_log_in_cnir(self):
        # doubling the CNIR adds exactly one bit on the active set
        a = solve_capped(C2, 0.5, 1e-4)
        b = solve_capped(2.0 * C2, 0.5, 1e-4)
        np.testing.assert_allclose(b.bits - a.bits, 1.0, rtol=1e-12)

    def test_all_nulled_collapses_cleanly(self):
        sol = solve_capped(np.array([1.0, 2.0]), 0.5, 1e-4)
        assert sol.active_set.size == 0
        assert sol.objective == 0.0
        assert np.all(sol.powers == 0.0)


class TestTotalPowerMultiplier:
    def test_closed_form_value(self):
        lam = lambda_total_power(np.array([0, 1]), C2, 0.5, 1e-4, 1.0)
        assert lam == pytest.approx(LAM6, rel=1e-12)

    def test_loose_cap_clamps_to_zero(self):
        lam = lambda_total_power(np.array([0, 1]), C2, 0.5, 1e-4,
                                 sum(P5) * 1.01)
        assert lam == 0.0

    def test_monotone_in_cap(self, rng):
        c = cnir_threshold(0.5, 1e-4) * rng.lognormal(0.8, 0.4, size=6)
        act = np.arange(6)
        lams = [lambda_total_power(act, c, 0.5, 1e-4, cap)
                for cap in (0.5, 1.0, 2.0, 4.0)]
        assert all(x > y for x, y in zip(lams, lams[1:]))


class TestTotalPowerCap:
    def test_frozen_allocation(self):
        sol = solve_capped(C2, 0.5, 1e-4, 1.0)
        np.testing.assert_allclose(sol.bits, B6, rtol=1e-12)
        np.testing.assert_allclose(sol.powers, P6, rtol=1e-12)
        assert sol.lambda_power == pytest.approx(LAM6, rel=1e-12)
        assert sol.case_id == 6

    def test_cap_met_with_equality(self):
        for cap in (0.3, 1.0, 2.0):
            sol = solve_capped(C2, 0.5, 1e-4, cap)
            assert np.sum(sol.powers) == pytest.approx(cap, rel=1e-10)

    def test_tight_cap_sheds_weak_subcarrier(self):
        # squeezing hard enough drops the low-CNIR tone entirely and the
        # survivor absorbs the whole budget
        sol = solve_capped(C2, 0.5, 1e-4, 0.5)
        assert sol.bits[1] == 0.0
        assert list(sol.active_set) == [0]
        assert np.sum(sol.powers) == pytest.approx(0.5, rel=1e-10)

    def test_brutal_cap_sheds_everything(self):
        sol = solve_capped(C2, 0.5, 1e-4, 0.08)
        assert sol.active_set.size == 0
        assert np.all(sol.powers == 0.0)

    def test_objective_degrades_as_cap_tightens(self):
        fs = [solve_capped(C2, 0.5, 1e-4, cap).objective
              for cap in (2.0, 1.0, 0.5, 0.25)]
        assert all(a < b for a, b in zip(fs, fs[1:]))


class TestAciCapOnly:
    def test_frozen_single_band(self):
        sol = solve_capped(C2, 0.5, 1e-4, math.inf,
                           np.array([[0.5], [0.1]]), np.array([0.3]))
        assert sol.lambda_aci[0] == pytest.approx(LAM7, rel=1e-10)
        np.testing.assert_allclose(sol.bits, B7, rtol=1e-10)
        np.testing.assert_allclose(sol.powers, P7, rtol=1e-10)
        assert sol.objective == pytest.approx(F7, rel=1e-12)
        assert sol.case_id == 7
        load = 0.5 * sol.powers[0] + 0.1 * sol.powers[1]
        assert load == pytest.approx(0.3, rel=1e-10)

    def test_uniform_weights_reduce_to_total_cap(self):
        # omega = w * ones makes the aci cap an ordinary power cap of
        # cap / w, so the allocation must match case 6 exactly
        sol = solve_capped(C2, 0.5, 1e-4, math.inf,
                           np.array([[0.3], [0.3]]), np.array([0.3]))
        ref = solve_capped(C2, 0.5, 1e-4, 1.0)
        np.testing.assert_allclose(sol.bits, ref.bits, rtol=1e-9)
        np.testing.assert_allclose(sol.powers, ref.powers, rtol=1e-9)
        assert sol.lambda_aci[0] == pytest.approx(LAM6 / 0.3, rel=1e-9)

    def test_frozen_two_bands(self):
        om = np.array([[0.5, 0.05], [0.1, 0.4]])
        caps = np.array([0.25, 0.30])
        sol = solve_capped(C2, 0.5, 1e-4, math.inf, om, caps)
        np.testing.assert_allclose(sol.lambda_aci, LAM7_2, rtol=1e-9)
        np.testing.assert_allclose(sol.bits, B7_2, rtol=1e-9)
        np.testing.assert_allclose(sol.powers, P7_2, rtol=1e-9)
        assert sol.objective == pytest.approx(F7_2, rel=1e-10)
        np.testing.assert_allclose(om.T @ sol.powers, caps, rtol=1e-9)


class TestJointCaps:
    OM = np.array([[0.5], [0.1]])

    def test_frozen_both_binding(self):
        sol = solve_capped(C2, 0.5, 1e-4, 0.8, self.OM, np.array([0.22]))
        assert sol.lambda_power == pytest.approx(LAM8_POW, rel=1e-9)
        assert sol.lambda_aci[0] == pytest.approx(LAM8_ACI, rel=1e-9)
        np.testing.assert_allclose(sol.bits, B8, rtol=1e-9)
        np.testing.assert_allclose(sol.powers, P8, rtol=1e-9)
        assert sol.objective == pytest.approx(F8, rel=1e-10)
        assert sol.case_id == 8
        assert np.sum(sol.powers) == pytest.approx(0.8, rel=1e-10)
        assert float(self.OM[:, 0] @ sol.powers) == pytest.approx(
            0.22, rel=1e-10)

    def test_slack_aci_multiplier_drops_to_zero(self):
        # with cap 0.25 the adjacent-band load settles at ~0.2495 once the
        # total cap binds, so its multiplier must vanish
        sol = solve_capped(C2, 0.5, 1e-4, 0.8, self.OM, np.array([0.25]))
        assert sol.lambda_power == pytest.approx(LAM8D_POW, rel=1e-9)
        assert sol.lambda_aci[0] == 0.0
        np.testing.assert_allclose(sol.bits, B8D, rtol=1e-9)
        np.testing.assert_allclose(sol.powers, P8D, rtol=1e-9)
        assert sol.objective == pytest.approx(F8D, rel=1e-10)


class TestDispatch:
    def test_no_binding_caps_returns_unconstrained(self):
        caps = make_caps(2, np.inf, [np.inf], omega=[[0.5], [0.1]])
        sol = solve_continuous(C2, caps, su())
        assert sol.case_id == 5
        np.testing.assert_allclose(sol.bits, B5, rtol=1e-12)

    def test_generous_caps_also_unconstrained(self):
        caps = make_caps(2, sum(P5) * 2, [10.0], omega=[[0.5], [0.1]])
        assert solve_continuous(C2, caps, su()).case_id == 5

    def test_total_only(self):
        sol = solve_continuous(C2, make_caps(2, 1.0), su())
        assert sol.case_id == 6
        np.testing.assert_allclose(sol.powers, P6, rtol=1e-12)

    def test_aci_only(self):
        caps = make_caps(2, np.inf, [0.3], omega=[[0.5], [0.1]])
        sol = solve_continuous(C2, caps, su())
        assert sol.case_id == 7
        np.testing.assert_allclose(sol.powers, P7, rtol=1e-10)

    def test_joint(self):
        caps = make_caps(2, 0.8, [0.22], omega=[[0.5], [0.1]])
        sol = solve_continuous(C2, caps, su())
        assert sol.case_id == 8
        np.testing.assert_allclose(sol.powers, P8, rtol=1e-9)

    def test_joint_with_slack_aci_reports_case6(self):
        caps = make_caps(2, 0.8, [0.25], omega=[[0.5], [0.1]])
        sol = solve_continuous(C2, caps, su())
        assert sol.case_id == 6
        assert sol.lambda_aci[0] == 0.0
        np.testing.assert_allclose(sol.powers, P8D, rtol=1e-9)

    def test_accepts_realization_objects(self):
        from conftest import make_realization
        sol = solve_continuous(make_realization(C2), make_caps(2, 1.0), su())
        np.testing.assert_allclose(sol.powers, P6, rtol=1e-12)


class TestOverlapShape:
    @pytest.mark.parametrize("omega,aci_caps", [
        (None, (0.3,)),                         # caps but no matrix
        (np.array([[0.5], [0.1]]), (0.3, 0.2)),  # one column for two caps
        (np.array([[0.5, 0.1]]), (0.3, 0.2)),    # one row for two tones
        (np.array([0.5, 0.1]), (0.3,)),          # a vector
    ], ids=["missing", "too_few_columns", "too_few_rows", "one_dimensional"])
    def test_shape_must_be_tones_by_caps(self, omega, aci_caps):
        with pytest.raises(SolverError, match="overlap matrix shape"):
            solve_capped(C2, 0.5, 1e-4, math.inf, omega, aci_caps)


def _newton_only_duals(enforced, lam, active, q, alpha, wt, caps):
    """The dual step with the closed forms skipped: projected Newton with
    its bisection fallback on every enforced cap at once, row by row."""
    out = np.zeros_like(lam)
    for i in range(lam.shape[0]):
        cols = np.flatnonzero(enforced[i])
        if cols.size and np.any(active[i]):
            out[i, cols] = solver._newton_duals(
                np.zeros(cols.size), cols, (q[i], alpha, wt.T, caps, active[i]))
    return out


class TestDualStepAgreesWithNewton:
    """The closed forms tried first must land where the coupled Newton
    does: same multipliers, same loaded subcarriers, same label."""

    @staticmethod
    def _instance(rng):
        l = int(rng.integers(1, 4))
        n = int(rng.integers(2, 65))
        alpha = float(rng.uniform(0.25, 0.75))
        ber = float(10.0 ** rng.uniform(-5.0, -2.3))
        cnir = cnir_threshold(alpha, ber) * 10.0 ** rng.uniform(-0.5, 4.0, n)
        omega = rng.uniform(0.0, 1.0, (n, l)) * 10.0 ** rng.uniform(
            -3.0, 0.0, (n, l))
        free = solve_capped(cnir, alpha, ber)
        scale = 10.0 ** rng.uniform(-3.0, math.log10(2.0), 1 + l)
        total_cap = float(np.sum(free.powers)) * scale[0]
        aci_caps = omega.T @ free.powers * scale[1:]
        return cnir, alpha, ber, total_cap, omega, aci_caps

    def _compare(self, monkeypatch, *problem):
        got = solve_capped(*problem)
        with monkeypatch.context() as m:
            m.setattr(solver, "_solve_duals", _newton_only_duals)
            ref = solve_capped(*problem)
        lam_got = np.concatenate([[got.lambda_power], got.lambda_aci])
        lam_ref = np.concatenate([[ref.lambda_power], ref.lambda_aci])
        np.testing.assert_allclose(lam_got, lam_ref, rtol=1e-10, atol=0.0)
        np.testing.assert_array_equal(got.active_set, ref.active_set)
        np.testing.assert_allclose(got.powers, ref.powers, rtol=1e-10)
        assert got.case_id == ref.case_id
        return int(np.count_nonzero(lam_got > 0.0))

    def test_joint_fixture_takes_the_coupled_path(self, monkeypatch):
        problem = (C2, 0.5, 1e-4, 0.8, np.array([[0.5], [0.1]]),
                   np.array([0.22]))
        assert self._compare(monkeypatch, *problem) == 2

    def test_random_instances(self, monkeypatch):
        rng = np.random.default_rng(4242)
        positive = {0: 0, 1: 0, 2: 0}
        for _ in range(300):
            k = self._compare(monkeypatch, *self._instance(rng))
            positive[min(k, 2)] += 1
        # one positive multiplier: a closed form settled it; two or more:
        # only the coupled Newton can have
        assert positive[1] >= 50 and positive[2] >= 50, positive


# ---------------------------------------------------------------------------
# property-style checks over random instances
# ---------------------------------------------------------------------------

def _mu(sol, caps):
    om = caps.aci_weights.omega
    return sol.alpha + sol.lambda_power + om @ sol.lambda_aci


class TestRandomInstances:
    N_DRAW = 120

    def test_solution_structure(self, rng):
        for _ in range(self.N_DRAW):
            cnir, alpha, ber, caps = random_instance(rng)
            sol = solve_continuous(cnir, caps, su(alpha, ber))
            act = sol.active_set
            off = np.setdiff1d(np.arange(cnir.size), act)
            assert np.all(sol.bits[act] >= 2.0 - 1e-9)
            assert np.all(sol.powers[act] > 0.0)
            assert np.all(sol.bits[off] == 0.0)
            assert np.all(sol.powers[off] == 0.0)
            assert sol.lambda_power >= 0.0
            assert np.all(sol.lambda_aci >= 0.0)
            assert sol.case_id in (5, 6, 7, 8)

    def test_power_bits_identity_everywhere(self, rng):
        for _ in range(self.N_DRAW):
            cnir, alpha, ber, caps = random_instance(rng)
            sol = solve_continuous(cnir, caps, su(alpha, ber))
            act = sol.active_set
            if act.size == 0:
                continue
            mu = _mu(sol, caps)[act]
            rhs = (1 - alpha) / (mu * math.log(2)) * (1 - 2.0 ** -sol.bits[act])
            np.testing.assert_allclose(sol.powers[act], rhs, rtol=1e-9)

    def test_caps_respected(self, rng):
        for _ in range(self.N_DRAW):
            cnir, alpha, ber, caps = random_instance(rng)
            sol = solve_continuous(cnir, caps, su(alpha, ber))
            assert np.sum(sol.powers) <= caps.total_cap * (1 + 1e-9)
            loads = caps.aci_weights.omega.T @ sol.powers
            assert np.all(loads <= caps.aci_caps * (1 + 1e-9))

    def test_binding_matches_positive_multiplier(self, rng):
        for _ in range(self.N_DRAW):
            cnir, alpha, ber, caps = random_instance(rng)
            sol = solve_continuous(cnir, caps, su(alpha, ber))
            if sol.active_set.size == 0:
                continue
            if sol.lambda_power > 1e-10:
                assert np.sum(sol.powers) == pytest.approx(
                    caps.total_cap, rel=1e-8)
            loads = caps.aci_weights.omega.T @ sol.powers
            for l, lam in enumerate(sol.lambda_aci):
                if lam > 1e-10:
                    assert loads[l] == pytest.approx(caps.aci_caps[l],
                                                     rel=1e-8)

    def test_independent_bisection_agrees(self, rng):
        """Re-solve the dual conditions with plain bisection.

        Same stationarity equations, different algorithm: the production
        path runs a damped Newton on the active set, so agreement here
        rules out a systematically wrong fixed point.  Instances where a
        subcarrier sits near its activation boundary are skipped; there
        the active set itself is ambiguous at bisection accuracy.
        """
        neglog, checked = None, 0
        for _ in range(300):
            cnir, alpha, ber, caps = random_instance(rng)
            sol = solve_continuous(cnir, caps, su(alpha, ber))
            act = sol.active_set
            if sol.case_id not in (6, 7) or act.size == 0:
                continue
            if np.min(sol.bits[act]) < 2.05:
                continue
            neglog = -math.log(5.0 * ber)
            q = neglog / (1.6 * cnir[act])

            if sol.case_id == 6:
                w = np.ones(act.size)
                cap = caps.total_cap
            else:
                if np.count_nonzero(sol.lambda_aci > 1e-10) != 1:
                    continue
                w = caps.aci_weights.omega[act, 0]
                cap = caps.aci_caps[0]

            def load(lam):
                mu = alpha + w * lam if sol.case_id == 7 else alpha + lam
                p = (1 - alpha) / (math.log(2) * mu) - q
                return float(w @ p) - cap

            lo, hi = 0.0, 1.0
            while load(hi) > 0.0:
                hi *= 2.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if load(mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
            lam_ref = 0.5 * (lo + hi)
            lam_got = (sol.lambda_power if sol.case_id == 6
                       else sol.lambda_aci[0])
            assert lam_got == pytest.approx(lam_ref, rel=1e-8, abs=1e-10)
            checked += 1
        assert checked >= 30

    def test_tighter_caps_never_improve_objective(self, rng):
        for _ in range(40):
            cnir, alpha, ber, caps = random_instance(rng, kind="total")
            if not math.isfinite(caps.total_cap):
                continue
            loose = solve_continuous(cnir, caps, su(alpha, ber))
            tight = solve_continuous(
                cnir, make_caps(cnir.size, caps.total_cap * 0.6,
                                caps.aci_caps,
                                caps.aci_weights.omega),
                su(alpha, ber))
            assert tight.objective >= loose.objective - 1e-12

    def test_throughput_decreases_with_power_weight(self):
        sums = [solve_capped(C2, a, 1e-4).bits.sum()
                for a in (0.2, 0.4, 0.6, 0.8)]
        assert all(x > y for x, y in zip(sums, sums[1:]))
