"""Continuous bit/power loading: closed forms, dual search, regime dispatch.

Expected numbers were frozen from an independent root-finder (bisection /
brentq on the stationarity system) before the solver existed.
"""

import math
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crloading import experiments, solver
from crloading.channel import AciFactors, aci_overlap_matrix
from crloading.constraints import ConstraintCaps, build_caps, check_feasible
from crloading.discretizer import power_for_bits, round_and_repair
from crloading.errors import SolverError
from crloading.kkt import kkt_verify
from crloading.oracle import exhaustive_search
from crloading.scenario import apply_parameter, load_scenario
from crloading.solver import (
    ContinuousSolution,
    cnir_threshold,
    objective_value,
    solve_continuous,
)

from conftest import (adjacent_band_scenario, make_caps, make_loading,
                      random_instance, solve_raw)

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
        sol = solve_raw(np.array([C_TH]), 0.5, 1e-4)
        assert sol.bits[0] == pytest.approx(2.0, abs=1e-10)
        sol2 = solve_raw(np.array([C_TH_2]), 0.3, 1e-3)
        assert sol2.bits[0] == pytest.approx(2.0, abs=1e-10)
        assert sol2.powers[0] == pytest.approx(2.5247163215556854, rel=1e-12)

    def test_below_threshold_is_nulled(self):
        sol = solve_raw(np.array([C_TH * 0.999, C_TH * 1.001]), 0.5, 1e-4)
        assert sol.bits[0] == 0.0 and sol.powers[0] == 0.0
        assert sol.bits[1] > 2.0
        assert list(sol.active_set) == [1]

    @given(st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=1e-6, max_value=0.19))
    @settings(max_examples=80)
    def test_threshold_separates_regimes(self, alpha, ber):
        cth = cnir_threshold(alpha, ber)
        sol = solve_raw(np.array([cth * 0.98, cth * 1.02]), alpha, ber)
        assert sol.bits[0] == 0.0
        assert sol.bits[1] >= 2.0


class TestUnconstrained:
    def test_frozen_allocation(self):
        sol = solve_raw(C2, 0.5, 1e-4)
        np.testing.assert_allclose(sol.bits, B5, rtol=1e-12)
        np.testing.assert_allclose(sol.powers, P5, rtol=1e-12)
        assert sol.case_id == 5
        assert sol.lambda_power == 0.0
        assert sol.lambda_aci.size == 0
        assert sol.objective == pytest.approx(
            0.5 * sum(P5) - 0.5 * sum(B5), rel=1e-12)

    def test_power_bits_identity(self):
        # P = (1-alpha)/(mu ln2) (1 - 2^-b) with mu = alpha here
        sol = solve_raw(C2, 0.5, 1e-4)
        rhs = 0.5 / (0.5 * math.log(2)) * (1.0 - 2.0 ** -sol.bits)
        np.testing.assert_allclose(sol.powers, rhs, rtol=1e-12)

    def test_bits_log_in_cnir(self):
        # doubling the CNIR adds exactly one bit on the active set
        a = solve_raw(C2, 0.5, 1e-4)
        b = solve_raw(2.0 * C2, 0.5, 1e-4)
        np.testing.assert_allclose(b.bits - a.bits, 1.0, rtol=1e-12)

    def test_all_nulled_collapses_cleanly(self):
        sol = solve_raw(np.array([1.0, 2.0]), 0.5, 1e-4)
        assert sol.active_set.size == 0
        assert sol.objective == 0.0
        assert np.all(sol.powers == 0.0)


class TestTotalPowerCap:
    def test_frozen_allocation(self):
        sol = solve_raw(C2, 0.5, 1e-4, 1.0)
        np.testing.assert_allclose(sol.bits, B6, rtol=1e-12)
        np.testing.assert_allclose(sol.powers, P6, rtol=1e-12)
        assert sol.lambda_power == pytest.approx(LAM6, rel=1e-12)
        assert sol.case_id == 6

    def test_cap_met_with_equality(self):
        for cap in (0.3, 1.0, 2.0):
            sol = solve_raw(C2, 0.5, 1e-4, cap)
            assert np.sum(sol.powers) == pytest.approx(cap, rel=1e-10)

    def test_tight_cap_sheds_weak_subcarrier(self):
        # squeezing hard enough drops the low-CNIR tone entirely and the
        # survivor absorbs the whole budget
        sol = solve_raw(C2, 0.5, 1e-4, 0.5)
        assert sol.bits[1] == 0.0
        assert list(sol.active_set) == [0]
        assert np.sum(sol.powers) == pytest.approx(0.5, rel=1e-10)

    def test_brutal_cap_sheds_everything(self):
        sol = solve_raw(C2, 0.5, 1e-4, 0.08)
        assert sol.active_set.size == 0
        assert np.all(sol.powers == 0.0)

    def test_objective_degrades_as_cap_tightens(self):
        fs = [solve_raw(C2, 0.5, 1e-4, cap).objective
              for cap in (2.0, 1.0, 0.5, 0.25)]
        assert all(a < b for a, b in zip(fs, fs[1:]))


class TestAciCapOnly:
    def test_frozen_single_band(self):
        sol = solve_raw(C2, 0.5, 1e-4, math.inf,
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
        sol = solve_raw(C2, 0.5, 1e-4, math.inf,
                           np.array([[0.3], [0.3]]), np.array([0.3]))
        ref = solve_raw(C2, 0.5, 1e-4, 1.0)
        np.testing.assert_allclose(sol.bits, ref.bits, rtol=1e-9)
        np.testing.assert_allclose(sol.powers, ref.powers, rtol=1e-9)
        assert sol.lambda_aci[0] == pytest.approx(LAM6 / 0.3, rel=1e-9)

    def test_frozen_two_bands(self):
        om = np.array([[0.5, 0.05], [0.1, 0.4]])
        caps = np.array([0.25, 0.30])
        sol = solve_raw(C2, 0.5, 1e-4, math.inf, om, caps)
        np.testing.assert_allclose(sol.lambda_aci, LAM7_2, rtol=1e-9)
        np.testing.assert_allclose(sol.bits, B7_2, rtol=1e-9)
        np.testing.assert_allclose(sol.powers, P7_2, rtol=1e-9)
        assert sol.objective == pytest.approx(F7_2, rel=1e-10)
        np.testing.assert_allclose(om.T @ sol.powers, caps, rtol=1e-9)


class TestJointCaps:
    OM = np.array([[0.5], [0.1]])

    def test_frozen_both_binding(self):
        sol = solve_raw(C2, 0.5, 1e-4, 0.8, self.OM, np.array([0.22]))
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
        sol = solve_raw(C2, 0.5, 1e-4, 0.8, self.OM, np.array([0.25]))
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
        (np.zeros((2, 0)), (0.3,)),             # caps but no matrix
        (np.array([[0.5], [0.1]]), (0.3, 0.2)),  # one column for two caps
        (np.array([[0.5, 0.1]]), (0.3, 0.2)),    # one row for two tones
        (np.array([0.5, 0.1]), (0.3,)),          # a vector
    ], ids=["missing", "too_few_columns", "too_few_rows", "one_dimensional"])
    def test_shape_must_be_tones_by_caps(self, omega, aci_caps):
        # where the caps are made, or (rows alone wrong) where the CNIR is
        with pytest.raises(SolverError, match="overlap matrix shape"):
            caps = ConstraintCaps(math.inf, np.array(aci_caps),
                                  AciFactors(omega))
            solve_continuous(C2, caps, su())

    def test_cnir_must_match_the_caps_band(self):
        cfg = load_scenario("configs/small_n6.json")
        with pytest.raises(SolverError, match=r"overlap matrix shape \(6, 1\) "
                           "does not match 5 subcarriers x 1 adjacent"):
            solve_continuous(np.full(5, 100.0), build_caps(cfg), cfg.su)


class TestBerCeiling:
    """BER = 0.2 makes -ln(5 BER) zero: every entry point must refuse it
    (the one-row solve used to divide by zero and return an empty
    solution), and NaN too, which fails every comparison and so passed a
    test for BERs outside (0, 0.2); the audits used to judge a loading
    against any ceiling (0.5 feasible, -1e-4 a margin of 0, NaN one of NaN).
    A BER vector must also hold one value per tone."""

    CNIR = np.array([10.0, 20.0])
    ENTRY_POINTS = {
        "caps_plan": lambda c, ber: make_caps(c.size, 1.0).plan(0.5, ber),
        "solve_continuous": lambda c, ber: solve_continuous(
            c, make_caps(c.size, 1.0), su(alpha=0.5, ber=ber)),
        "round_and_repair": lambda c, ber: round_and_repair(
            types.SimpleNamespace(bits=np.full(c.size, 4.0), alpha=0.5),
            make_caps(c.size, 1.0), None, c, ber),
        "exhaustive_search": lambda c, ber: exhaustive_search(
            c, 0.5, ber, make_caps(c.size, 1.0)),
        "power_for_bits": lambda c, ber: power_for_bits(
            np.full(c.size, 4), c, ber),
        "check_feasible": lambda c, ber: check_feasible(
            make_loading(c.size), make_caps(c.size, 1.0), c, ber),
        "kkt_verify": lambda c, ber: kkt_verify(
            make_loading(c.size), c, ber, make_caps(c.size, 1.0)),
    }

    @pytest.mark.parametrize(
        "ber", [0.2, [1e-4, 0.2], math.nan, [1e-4, math.nan], 0.0, 0.5,
                -1e-4],
        ids=["scalar", "one_tone", "nan_scalar", "nan_one_tone", "zero",
             "one_half", "negative"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_ber_of_one_fifth_rejected(self, entry, ber):
        with pytest.raises(SolverError, match=r"\(0, 0\.2\)"):
            self.ENTRY_POINTS[entry](self.CNIR, np.asarray(ber))

    @pytest.mark.parametrize(
        "ber", [0.0, 0.2, 0.3, math.nan, [1e-4, math.nan]],
        ids=["zero", "one_fifth", "above", "nan", "nan_one_tone"])
    def test_cnir_threshold_rejects_a_ber_outside_the_model(self, ber):
        # no tone count here, so it stays out of ENTRY_POINTS
        with pytest.raises(SolverError, match=r"\(0, 0\.2\)"):
            cnir_threshold(0.5, ber)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_ber_vector_of_wrong_length_rejected(self, entry):
        with pytest.raises(SolverError, match="one per tone"):
            self.ENTRY_POINTS[entry](np.array([10.0, 20.0, 30.0]),
                                     [1e-4, 1e-4])


def _newton_only_duals(enforced, first, lam, active, q, plan):
    """The dual step with the closed forms skipped: projected Newton on
    every enforced cap at once from zero, row by row, with each row's
    (mu, powers) at the multipliers it lands on (``solver._state``); with
    no closed form to try, the preferred columns ``first`` go unused."""
    out = np.zeros_like(lam)
    wt = np.concatenate([np.ones((1, active.shape[1])), plan.omega.T])
    for i in range(lam.shape[0]):
        cols = np.flatnonzero(enforced[i])
        if cols.size and np.any(active[i]):
            out[i, cols] = solver._newton_duals(
                np.zeros(cols.size), wt[cols][:, active[i]].T,
                q[i, active[i]], plan.alpha, plan.caps[cols])
    return (out, *solver._state(out, active, q, plan))


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
        free = solve_raw(cnir, alpha, ber)
        scale = 10.0 ** rng.uniform(-3.0, math.log10(2.0), 1 + l)
        total_cap = float(np.sum(free.powers)) * scale[0]
        aci_caps = omega.T @ free.powers * scale[1:]
        return cnir, alpha, ber, total_cap, omega, aci_caps

    def _compare(self, monkeypatch, *problem):
        got = solve_raw(*problem)
        with monkeypatch.context() as m:
            m.setattr(solver, "_solve_duals", _newton_only_duals)
            ref = solve_raw(*problem)
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


def _monte_carlo_block(name, power_threshold=None):
    """The first Monte Carlo block of a shipped config at seed 1234, and the
    caps' plan; ``power_threshold`` replaces the SU's total-power limit."""
    cfg = load_scenario(f"configs/{name}.json")
    if power_threshold is not None:
        cfg = replace(cfg, su=replace(cfg.su,
                                      power_threshold=power_threshold))
    su = cfg.su
    plan = build_caps(cfg).plan(su.alpha, su.ber_threshold)
    trials = experiments._BLOCK_ENTRIES // su.num_subcarriers
    return experiments._draw(cfg, 1234, range(trials))[0], plan


class TestDualStepHandsBackItsState:
    """``_solve_duals`` returns each row's (mu, powers) at the
    multipliers it returns, byte for byte what ``_state`` computes from
    them: its candidate's when one column settles every row (the fast
    path), ``_state``'s own otherwise (the recompute path)."""

    def _check_block(self, monkeypatch, cnir, plan):
        """Checks every dual step of the block's solve: as the solve takes
        it, on each of its first 8 rows alone, and on those rows with a row
        appended that enforces no cap, so that no column settles every row.
        Returns the paths that the steps, the appended ones aside, took,
        and the solve's multipliers."""
        duals, state = solver._solve_duals, solver._state
        calls, paths = [], []

        def counted(*args):
            calls.append(None)
            return state(*args)

        def checked(enforced, first, lam, active, q):
            """The step, the same with mu one per tone, and its path, once
            its state is checked against ``_state``'s."""
            before = len(calls)
            step = duals(enforced, first, lam, active, q, plan)
            path = "recompute" if len(calls) > before else "fast"
            for got, want in zip(step[1:], state(step[0], active, q, plan)):
                # mu may be alpha, or one value per row
                got, want = np.broadcast_arrays(got, want)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
            return step, (step[0], np.broadcast_to(step[1], active.shape),
                          *step[2:]), path

        def spy(enforced, first, lam, active, q, plan):
            args = enforced, first, lam, active, q
            raw, step, path = checked(*args)
            paths.append(path)
            head = min(8, len(lam))
            for i in range(head):
                alone, path = checked(*(x[i:i + 1] for x in args))[1:]
                paths.append(path)
                for got, want in zip(alone, step):      # rows stay apart
                    assert got.tobytes() == want[i:i + 1].tobytes()
            # the appended row enforces no cap and prefers column 0
            wide, path = checked(*(np.concatenate([x[:head], x[:1] * False])
                                   for x in args))[1:]
            assert path == "recompute"
            for got, want in zip(wide, step):
                assert got[:head].tobytes() == want[:head].tobytes()
            return raw

        monkeypatch.setattr(solver, "_state", counted)
        monkeypatch.setattr(solver, "_solve_duals", spy)
        return paths, solver._solve_block(cnir, plan)[2]

    def test_total_power_closed_form(self, monkeypatch):
        paths, lam = self._check_block(monkeypatch,
                                       *_monte_carlo_block("cci_binding"))
        assert set(paths) == {"fast"} and np.count_nonzero(lam[:, 0])

    def test_single_cap_newton(self, monkeypatch):
        paths, lam = self._check_block(monkeypatch,
                                       *_monte_carlo_block("small_n6"))
        assert "fast" in paths and np.count_nonzero(lam[:, 1])

    def test_coupled_newton(self, monkeypatch):
        paths, lam = self._check_block(
            monkeypatch, *_monte_carlo_block("small_n6", power_threshold=1.0))
        assert {"fast", "recompute"} <= set(paths)
        assert np.count_nonzero(np.logical_and.reduce(lam > 0.0, 1)) == 419


class TestCapsHoldBelowTheUnconstrainedPoint:
    """The active-set loop enforces only the caps whose lam = 0 loads fail
    ``plan.limits``, the limit the audits judge by, and never re-tests them.
    That rests on every dual step leaving each row's loads at or below its
    lam = 0 loads, so a cap not enforced stays within its limit."""

    @staticmethod
    def _check_block(monkeypatch, cnir, plan):
        """Checks the loads of every state the dual step hands back during
        the block's solve; returns how many (row, cap) pairs it checked,
        and how many of them were not enforced."""
        cnir = np.atleast_2d(cnir)
        q = plan.lg / (1.6 * cnir)
        free = np.where(cnir >= plan.threshold,
                        (1.0 - plan.alpha) / math.log(2.0) / plan.alpha + q,
                        0.0)
        # the loop hands the dual step copies of q's rows: they name the row
        start = dict(zip(map(bytes, q), solver._cap_sums(free, plan.omega)))
        duals, counts = solver._solve_duals, np.zeros(2, int)

        def spy(enforced, first, lam, active, q, plan):
            step = duals(enforced, first, lam, active, q, plan)
            loads = solver._cap_sums(step[2], plan.omega)
            lam0 = np.array([start[bytes(r)] for r in q])   # lam = 0 loads
            assert np.array_equal(enforced, lam0 > plan.limits)
            assert np.all((loads <= plan.limits) | enforced)
            assert np.all(loads <= lam0)
            counts[:] += enforced.size, np.count_nonzero(~enforced)
            return step

        with monkeypatch.context() as m:
            m.setattr(solver, "_solve_duals", spy)
            solver._solve_block(cnir, plan)
        return counts

    @pytest.mark.parametrize("name, power_threshold", [
        ("default", None), ("cci_binding", None), ("small_n6", None),
        ("small_n6", 1.0)])
    def test_first_monte_carlo_block(self, monkeypatch, name,
                                     power_threshold):
        cnir, plan = _monte_carlo_block(name, power_threshold)
        assert self._check_block(monkeypatch, cnir, plan)[0]

    def test_zero_caps(self, monkeypatch):
        # the blocks of test_engine_reference.py::test_zero_caps
        rng = np.random.default_rng(7)
        n, alpha, ber = 64, 0.5, 1e-4
        cnir = cnir_threshold(alpha, ber) * 10.0 ** rng.uniform(-0.5, 3.0,
                                                                (40, n))
        omega = rng.uniform(0.1, 1.0, (n, 2))
        omega[::2, 0] = 0.0
        checked = np.zeros(2, int)
        for total, aci in ((0.0, [1e-3, 1e-3]), (math.inf, [0.0, 1e-2]),
                           (1e-2, [0.0, 0.0])):
            plan = make_caps(n, total, aci, omega).plan(alpha, ber)
            checked += self._check_block(monkeypatch, cnir, plan)
        assert checked[1]

    @pytest.mark.parametrize("col", [0, 1], ids=["total", "aci"])
    def test_load_within_feas_tol_is_not_enforced(self, col):
        # the lam = 0 load 1e-10 over its cap meets it by cap_limits, so the
        # solve keeps the cap-free point, as the audits accept it
        omega = np.array([[0.5], [0.1]])
        free = solve_raw(C2, 0.5, 1e-4, omega=omega, aci_caps=[math.inf])
        caps = np.full(2, math.inf)
        caps[col] = solver._cap_sums(free.powers[None], omega)[0, col] / (
            1.0 + 1e-10)
        c = make_caps(2, caps[0], caps[1:], omega)
        sol = solve_continuous(C2, c, su())
        assert sol.lambda_power == 0.0 and np.all(sol.lambda_aci == 0.0)
        assert sol.powers.tobytes() == free.powers.tobytes()
        assert check_feasible(sol, c, C2, 1e-4).feasible
        assert kkt_verify(sol, C2, 1e-4, c).passed

    def test_negative_cap_is_not_enforced(self):
        # the plan nulls every tone a cap < 0 weights, so its load is 0 and
        # no multiplier lowers it: the solve is the one under a zero cap
        rng = np.random.default_rng(7)
        n, alpha, ber = 64, 0.5, 1e-4
        cnir = cnir_threshold(alpha, ber) * 10.0 ** rng.uniform(-0.5, 3.0,
                                                                (40, n))
        omega = rng.uniform(0.1, 1.0, (n, 2))
        omega[::2, 0] = 0.0
        for total, aci in ((-1.0, [1e-3, 1e-3]), (1e-2, [-1.0, 1e-3]),
                           (math.inf, [-1.0, 1.0])):
            neg = make_caps(n, total, aci, omega).plan(alpha, ber)
            zero = make_caps(n, max(total, 0.0), np.maximum(aci, 0.0),
                             omega).plan(alpha, ber)
            for a, b in zip(solver._solve_block(cnir, neg),
                            solver._solve_block(cnir, zero)):
                assert a.tobytes() == b.tobytes()

    def test_four_adjacent_bands(self, monkeypatch):
        # twelve random four-band scenarios, four trials each
        rng = np.random.default_rng(1066)
        checked = np.zeros(2, int)
        for k in range(12):
            cfg = adjacent_band_scenario(rng)
            su = cfg.su
            cnir = experiments._draw(cfg, k, range(4))[0]
            checked += self._check_block(
                monkeypatch, cnir,
                build_caps(cfg).plan(su.alpha, su.ber_threshold))
        assert checked[1]


class TestPreferredCapFirst:
    """Each row's dual step tries first the cap its unconstrained load is
    over by the largest factor, then all in index order, and the step
    prices each cap once for all its rows.  Only a row that two single-cap
    candidates both settle could end elsewhere."""

    def test_aci_rows_skip_the_total_power_candidate(self, monkeypatch):
        # small_n6 is 94% case 7: its ACI load is over its cap by far more
        # than its total power, so the total-power closed form never runs
        cfg = load_scenario("configs/small_n6.json")
        plan = build_caps(cfg).plan(cfg.su.alpha, cfg.su.ber_threshold)
        calls, power_dual = [], solver._power_dual

        def spy(*args):
            calls.append(None)
            return power_dual(*args)

        monkeypatch.setattr(solver, "_power_dual", spy)
        cases = []
        for row in experiments._draw(cfg, 1234, range(100))[0]:
            lam = solver._solve_block(row[None], plan)[2][0]
            cases.append(5 + (lam[0] > 0) + 2 * (lam[1] > 0))
        assert (cases.count(5), cases.count(7)) == (6, 94) and not calls

    def test_mixed_block_rows_equal_their_one_row_solves(self):
        # at 1 W small_n6 ends in every case; 1,729 case-6 rows prefer the
        # ACI cap, whose candidate fails, and settle by the total's
        cnir, plan = _monte_carlo_block("small_n6", power_threshold=1.0)
        block = solver._solve_block(cnir, plan)
        lam = block[2]
        case = 5 + (lam[:, 0] > 0) + 2 * (lam[:, 1] > 0)
        assert np.bincount(case)[5:].tolist() == [25, 2072, 214, 419]
        q = plan.lg / (1.6 * cnir)
        free = np.where(cnir >= plan.threshold,
                        (1.0 - plan.alpha) / math.log(2.0) / plan.alpha + q,
                        0.0)
        load = solver._cap_sums(free, plan.omega)
        over = np.where(load > plan.limits, load / plan.caps, 0.0)
        prefers_aci = over[:, 1] > over[:, 0]
        assert np.count_nonzero(prefers_aci & (case == 6)) == 1729
        for t in range(200):
            for got, want in zip(solver._solve_block(cnir[t:t + 1], plan),
                                 block):
                assert got.tobytes() == want[t:t + 1].tobytes()

    @pytest.mark.parametrize("power_threshold", [0.5, 1.0, 2.0])
    def test_each_cap_priced_once_per_step(self, monkeypatch,
                                           power_threshold):
        # these blocks mix rows that prefer the ACI cap with rows that
        # prefer the total, and rows of both kinds try both caps
        cnir, plan = _monte_carlo_block("small_n6", power_threshold)
        steps, duals = [], solver._solve_duals

        def step(*args):
            steps.append({"_aci_dual": 0, "_power_dual": 0})
            return duals(*args)

        def counted(name):
            """``solver.<name>``, counting its calls into the open step."""
            fn = getattr(solver, name)

            def spy(*args):
                steps[-1][name] += 1
                return fn(*args)
            return spy

        monkeypatch.setattr(solver, "_solve_duals", step)
        for name in ("_aci_dual", "_power_dual"):
            monkeypatch.setattr(solver, name, counted(name))
        solver._solve_block(cnir, plan)
        assert steps and all(s["_aci_dual"] for s in steps)
        assert max(max(s.values()) for s in steps) == 1, steps


class TestPermutedTones:
    """Nothing in the solve ranks tones by position: permuting the CNIR
    columns and the overlap matrix's rows together permutes the active
    sets exactly, and bits, F and the multipliers up to rounding."""

    @pytest.mark.parametrize("name, power_threshold", [
        ("default", None), ("cci_binding", None), ("small_n6", None),
        ("small_n6", 1.0)])
    def test_first_monte_carlo_block(self, name, power_threshold):
        cnir, plan = _monte_carlo_block(name, power_threshold)
        ber = load_scenario(f"configs/{name}.json").su.ber_threshold
        alpha, n = plan.alpha, cnir.shape[1]

        def solve(perm):
            """Bits, F, lam and active of the block with tones ``perm``."""
            caps = make_caps(n, plan.caps[0], plan.caps[1:], plan.omega[perm])
            bits, powers, lam, active = solver._solve_block(
                cnir[:, perm], caps.plan(alpha, ber))
            f = alpha * powers.sum(1) - (1.0 - alpha) * bits.sum(1)
            return bits, f, lam, active

        bits, f, lam, active = solve(np.arange(n))
        rng = np.random.default_rng(0)
        for _ in range(3):
            perm = rng.permutation(n)
            got = solve(perm)
            assert np.array_equal(got[3], active[:, perm])
            for x, want, rtol in ((got[0], bits[:, perm], 1e-12),
                                  (got[1], f, 1e-12), (got[2], lam, 1e-9)):
                np.testing.assert_allclose(x, want, rtol=rtol, atol=0.0)


# (log10 P_th, trial) of the first 500 seed-1234 small_n6 draws whose
# continuous F rises when P_th is raised by 5%
SMALL_N6_RISES = {
    (-1.0, 69), (-0.75, 335), (-0.75, 438), (-0.5, 325), (-0.25, 57),
    (-0.25, 337), (0.0, 123), (0.0, 179), (0.0, 187), (0.0, 199), (0.0, 210),
    (0.0, 281), (0.0, 336), (0.0, 339), (0.0, 341), (0.0, 378), (0.0, 420),
    (0.0, 480), (0.0, 493)}


class TestLooserTotalCap:
    """A looser cap must not give a worse answer: raising ``power_threshold``
    by 5% never raises a row's continuous F, up to 1e-12 relative.  On
    small_n6 it does on the rows named, where a round nulls every tone
    under 2 bits at once (ROADMAP item 14); a better drop rule shrinks that
    set, and no looser bound hides it."""

    @pytest.mark.parametrize("name, exponents, trials, rises", [
        ("cci_binding", np.linspace(-5.0, 1.0, 25), 2000, set()),
        ("default", np.linspace(-4.0, -3.0, 5), 500, set()),
        ("small_n6", np.linspace(-5.0, 1.0, 25), 500, SMALL_N6_RISES)],
        ids=["cci_binding", "default", "small_n6"])
    def test_continuous_f_never_rises(self, name, exponents, trials, rises):
        cfg = load_scenario(f"configs/{name}.json")
        cnir = experiments._draw(cfg, 1234, range(trials))[0]
        alpha, ber = cfg.su.alpha, cfg.su.ber_threshold

        def f(power_threshold):
            """Continuous F of each row at this total-power limit."""
            su_p = replace(cfg.su, power_threshold=power_threshold)
            plan = build_caps(replace(cfg, su=su_p)).plan(alpha, ber)
            bits, powers, _, _ = solver._solve_block(cnir, plan)
            return alpha * powers.sum(1) - (1.0 - alpha) * bits.sum(1)

        got = set()
        for e in exponents:
            tight, loose = f(10.0 ** e), f(1.05 * 10.0 ** e)
            got |= {(float(e), int(t)) for t in np.flatnonzero(
                loose > tight + 1e-12 * np.abs(tight))}
        assert got == rises


# exponent index k of ACI_EXPONENTS -> the first 500 seed-1234 small_n6
# draws (at 3 W) whose continuous F rises when p_aci is raised by 5%
ACI_EXPONENTS = np.linspace(-13.0, -9.0, 20)
SMALL_N6_ACI_RISES = {
    4: [0], 5: [377], 7: [255], 10: [64], 11: [59, 390],
    12: [34, 45, 82, 241, 295, 390, 416, 430, 485]}


class TestLooserAciCap:
    """``TestLooserTotalCap`` for the adjacent-channel cap: raising
    small_n6's ``p_aci`` by 5% never raises a row's continuous F, up to
    1e-12 relative, but on the rows named (ROADMAP item 14)."""

    def test_continuous_f_never_rises(self):
        cfg = load_scenario("configs/small_n6.json")
        cnir = experiments._draw(cfg, 1234, range(500))[0]
        alpha, ber = cfg.su.alpha, cfg.su.ber_threshold
        omega = aci_overlap_matrix(cfg)

        def f(p_aci):
            """Continuous F of each row at this adjacent-channel cap."""
            caps = build_caps(apply_parameter(cfg, "p_aci", p_aci), omega)
            bits, powers, _, _ = solver._solve_block(
                cnir, caps.plan(alpha, ber))
            return alpha * powers.sum(1) - (1.0 - alpha) * bits.sum(1)

        got = set()
        for k, e in enumerate(ACI_EXPONENTS):
            tight, loose = f(10.0 ** e), f(1.05 * 10.0 ** e)
            got |= {(k, int(t)) for t in np.flatnonzero(
                loose > tight + 1e-12 * np.abs(tight))}
        assert got == {(k, t) for k, ts in SMALL_N6_ACI_RISES.items()
                       for t in ts}


class TestCoupledNewtonHardRows:
    """Rows the coupled Newton must settle: singular Hessians, an enforced
    cap with no loaded tone, and load sums whose terms nearly cancel."""

    @staticmethod
    def _spy(monkeypatch):
        """Record the (active tones, caps) shape of every coupled solve."""
        shapes, newton = [], solver._newton_duals

        def spy(lam, w, *args):
            shapes.append(w.shape)
            return newton(lam, w, *args)

        monkeypatch.setattr(solver, "_newton_duals", spy)
        return shapes

    def test_more_caps_than_active_tones(self, monkeypatch):
        # draw 91 of TestDualStepAgreesWithNewton: 2 tones, 4 caps
        rng = np.random.default_rng(4242)
        for _ in range(91):
            TestDualStepAgreesWithNewton._instance(rng)
        problem = TestDualStepAgreesWithNewton._instance(rng)
        shapes = self._spy(monkeypatch)
        TestDualStepAgreesWithNewton()._compare(monkeypatch, *problem)
        assert (2, 4) in shapes

    def test_collinear_caps_both_binding(self, monkeypatch):
        # uniform ACI weights make the ACI load 0.3 x the total power, so
        # the two caps bind at once and share one degree of freedom
        omega, aci_caps = np.full((2, 1), 0.3), np.array([0.3 * 0.8])
        got = solve_raw(C2, 0.5, 1e-4, 0.8, omega, aci_caps)
        monkeypatch.setattr(solver, "_solve_duals", _newton_only_duals)
        ref = solve_raw(C2, 0.5, 1e-4, 0.8, omega, aci_caps)
        assert got.case_id == 6 and ref.case_id == 8
        assert ref.lambda_power + 0.3 * ref.lambda_aci[0] == pytest.approx(
            got.lambda_power, rel=1e-10)
        np.testing.assert_allclose(ref.powers, got.powers, rtol=1e-10)
        assert kkt_verify(ref, C2, 1e-4,
                          make_caps(2, 0.8, aci_caps, omega)).passed

    def test_enforced_cap_left_without_loaded_tones(self, monkeypatch):
        # tone 0 is the only one the first cap weights; once that cap's
        # multiplier nulls it, the cap is enforced but carries no load,
        # and the coupled step must leave it at 0 rather than divide by
        # its zero Hessian diagonal
        cnir = np.array([45.6, 15.9, 14.2, 557.0, 881.0, 215.0])
        omega = np.array([[0.73, 0, 0], [0, 0, 0], [0.034, 0.73, 0],
                          [0, 0.54, 0], [0, 0, 0.12], [0, 0.65, 0]])
        aci_caps = np.array([0.048, 0.152, 0.108])
        shapes = self._spy(monkeypatch)
        sol = solve_raw(cnir, 0.5, 1e-4, 3.62, omega, aci_caps)
        assert shapes == [(6, 4), (4, 3)]
        assert sol.lambda_aci[0] == 0.0 and 0 not in sol.active_set
        assert kkt_verify(sol, cnir, 1e-4,
                          make_caps(6, 3.62, aci_caps, omega)).passed

    @pytest.mark.parametrize("name, power_threshold, coupled", [
        ("default", None, 0), ("cci_binding", None, 0), ("small_n6", 3.0, 0),
        ("small_n6", 2.0, 39), ("small_n6", 1.0, 419)])
    def test_multipliers_carry_no_sign_bit(self, name, power_threshold,
                                           coupled):
        # every producer of a multiplier yields +0.0 or more, so the coupled
        # Newton starts from lam as the last step left it, unclamped
        lam = solver._solve_block(*_monte_carlo_block(name,
                                                      power_threshold))[2]
        assert not np.count_nonzero(np.signbit(lam))
        assert np.count_nonzero(np.count_nonzero(lam > 0.0, 1) > 1) == coupled

    def test_four_band_fuzz_scenario_zero(self, monkeypatch):
        # A provisional active set holds tones whose k/mu and q cancel:
        # load terms near 0.36 W against a 1.4e-4 W total-power cap.  A
        # tolerance relative to the cap alone sits below the rounding of
        # that sum, and no method could meet it.
        cfg = adjacent_band_scenario(np.random.default_rng(1066))
        caps = build_caps(cfg)
        cnir = experiments._draw(cfg, 0, [0])[0][0]
        su = cfg.su
        got = solve_continuous(cnir, caps, su)
        shapes = self._spy(monkeypatch)
        monkeypatch.setattr(solver, "_solve_duals", _newton_only_duals)
        ref = solve_continuous(cnir, caps, su)
        assert shapes
        for sol in (got, ref):
            assert kkt_verify(sol, cnir, su.ber_threshold, caps).passed
        np.testing.assert_array_equal(got.active_set, ref.active_set)
        np.testing.assert_allclose(ref.powers, got.powers, rtol=1e-10)


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
        sums = [solve_raw(C2, a, 1e-4).bits.sum()
                for a in (0.2, 0.4, 0.6, 0.8)]
        assert all(x > y for x, y in zip(sums, sums[1:]))
