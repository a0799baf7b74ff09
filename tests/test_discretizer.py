"""Rounding to integer constellations and greedy cap repair.

Repair traces were worked out by hand (power table + marginal savings)
before running the implementation, then frozen here.
"""

import math
import types

import numpy as np
import pytest

from crloading.discretizer import Allocation, power_for_bits, round_and_repair
from crloading.errors import SolverError
from crloading.solver import FEAS_TOL, objective_value, solve_continuous

from conftest import make_caps, random_instance

P2_100 = 0.14251692111641404
P3_100 = 0.3325394826049661
P4_100 = 0.7125846055820702
P5_100 = 1.4726748515362784
P4_50 = 1.4251692111641403


def cont(bits, alpha=0.5):
    """Stand-in for a continuous solution: only .bits/.alpha are read."""
    return types.SimpleNamespace(bits=np.asarray(bits, dtype=float),
                                 alpha=alpha)


class TestPowerForBits:
    def test_frozen_values(self):
        assert power_for_bits(2, 13.17136027385687, 1e-4) == pytest.approx(
            1.0820212806667224, rel=1e-12)
        assert power_for_bits(4, 100.0, 1e-4) == pytest.approx(P4_100,
                                                               rel=1e-12)
        assert power_for_bits(5, 100.0, 1e-4) == pytest.approx(P5_100,
                                                               rel=1e-12)
        assert power_for_bits(4, 50.0, 1e-4) == pytest.approx(P4_50,
                                                              rel=1e-12)

    def test_vectorized(self):
        p = power_for_bits(np.array([4, 5, 0]), np.array([100.0, 100.0, 7.0]),
                           1e-4)
        np.testing.assert_allclose(p, [P4_100, P5_100, 0.0], rtol=1e-12)

    def test_zero_bits_zero_power(self):
        assert power_for_bits(0, 55.0, 1e-4) == 0.0

    def test_ber_is_met_exactly(self):
        for b, c in [(2, 30.0), (7, 400.0), (13, 9e3)]:
            p = power_for_bits(b, c, 1e-4)
            ber = 0.2 * math.exp(-1.6 * p * c / (2 ** b - 1))
            assert ber == pytest.approx(1e-4, rel=1e-12)

    def test_one_bit_rejected(self):
        with pytest.raises(SolverError):
            power_for_bits(1, 100.0, 1e-4)

    def test_out_of_range_rejected(self):
        with pytest.raises(SolverError):
            power_for_bits(-2, 100.0, 1e-4)
        with pytest.raises(SolverError):
            power_for_bits(17, 100.0, 1e-4, max_bits=16)

    def test_bad_ber_rejected(self):
        for ber in (0.0, 0.2, 0.5, -1e-3):
            with pytest.raises(SolverError):
                power_for_bits(4, 100.0, ber)

    def test_doubling_rule(self):
        # consecutive-bit power ratio follows (2^{b+1}-1)/(2^b-1) exactly
        bs = np.arange(3, 10)
        p = np.array([power_for_bits(b, 80.0, 1e-4) for b in bs])
        want = (2.0 ** bs[1:] - 1) / (2.0 ** bs[:-1] - 1)
        np.testing.assert_allclose(p[1:] / p[:-1], want, rtol=1e-12)


class TestRounding:
    def round_only(self, bits, cnir, max_bits=16):
        return round_and_repair(cont(bits), make_caps(len(bits)), None,
                                np.asarray(cnir, dtype=float), 1e-4,
                                max_bits=max_bits)

    def test_half_up(self):
        out = self.round_only([2.5, 3.49, 3.5, 4.51], [1e3] * 4)
        assert list(out.bits) == [3, 3, 4, 5]

    def test_gap_below_two_collapses(self):
        out = self.round_only([0.2, 0.9, 1.49, 1.5, 2.49], [1e3] * 5)
        assert list(out.bits) == [0, 0, 0, 2, 2]

    def test_max_bits_clamp(self):
        out = self.round_only([11.7, 6.2], [1e5] * 2, max_bits=8)
        assert list(out.bits) == [8, 6]

    def test_powers_recomputed_for_integer_bits(self):
        out = self.round_only([3.8, 4.2], [100.0, 100.0])
        np.testing.assert_allclose(out.powers, [P4_100, P4_100], rtol=1e-12)
        assert out.repair_steps == 0
        assert out.feasible


class TestRepair:
    def test_single_step_drops_greediest(self):
        # rounded [5,3,2] on C=[100,50,30] costs 2.612810220467591 W;
        # marginal savings are (0.76009, 0.38005, 0.47506) so the first
        # tone loses a bit and the total lands at 1.8527199745133822
        out = round_and_repair(cont([4.6, 3.4, 2.4]), make_caps(3, 2.2),
                               None, np.array([100.0, 50.0, 30.0]), 1e-4)
        assert list(out.bits) == [4, 3, 2]
        assert out.repair_steps == 1
        assert np.sum(out.powers) == pytest.approx(1.8527199745133822,
                                                   rel=1e-12)
        assert out.feasible

    def test_tie_breaks_to_lowest_index(self):
        # identical CNIR, identical bits: both tones offer the same saving
        out = round_and_repair(cont([3.3, 3.3]), make_caps(2, 0.5), None,
                               np.array([100.0, 100.0]), 1e-4)
        assert list(out.bits) == [2, 3]
        assert out.repair_steps == 1
        assert np.sum(out.powers) == pytest.approx(0.47505640372138014,
                                                   rel=1e-12)

    def test_two_step_repair(self):
        out = round_and_repair(cont([3.3, 3.3]), make_caps(2, 0.4), None,
                               np.array([100.0, 100.0]), 1e-4)
        assert list(out.bits) == [2, 2]
        assert out.repair_steps == 2
        assert np.sum(out.powers) == pytest.approx(0.28503384223282807,
                                                   rel=1e-12)

    def test_adjacent_band_cap_repair(self):
        caps = make_caps(2, np.inf, [0.5], omega=[[0.6], [0.05]])
        out = round_and_repair(cont([4.6, 3.4]), caps,
                               caps.aci_weights.omega,
                               np.array([100.0, 50.0]), 1e-4)
        assert list(out.bits) == [4, 3]
        assert out.repair_steps == 1
        load = float(caps.aci_weights.omega[:, 0] @ out.powers)
        assert load == pytest.approx(0.4608047116097387, rel=1e-12)

    def test_dropping_from_two_clears_the_tone(self):
        out = round_and_repair(cont([2.2, 2.2]), make_caps(2, 0.2), None,
                               np.array([100.0, 100.0]), 1e-4)
        # each 2-bit tone costs 0.1425; cap 0.2 forces one of them to zero
        assert list(out.bits) == [0, 2]
        assert out.powers[0] == 0.0

    def test_cap_zero_empties_everything(self):
        out = round_and_repair(cont([4.0, 3.0]), make_caps(2, 0.0), None,
                               np.array([100.0, 50.0]), 1e-4)
        assert np.all(out.bits == 0)
        assert np.all(out.powers == 0.0)
        assert out.feasible

    def test_negative_cap_is_hopeless(self):
        with pytest.raises(SolverError, match="repair"):
            round_and_repair(cont([4.0]), make_caps(1, -1.0), None,
                             np.array([100.0]), 1e-4)

    def test_objective_frozen_values(self):
        out = round_and_repair(cont([2.0]), make_caps(1), None,
                               np.array([100.0]), 1e-4)
        assert out.objective == pytest.approx(-0.9287415394417929, rel=1e-12)
        out = round_and_repair(cont([4.0]), make_caps(1), None,
                               np.array([100.0]), 1e-4)
        assert out.objective == pytest.approx(-1.6437076972089648, rel=1e-12)
        # at CNIR 1 the power term dwarfs the rate term
        out = round_and_repair(cont([2.0]), make_caps(1), None,
                               np.array([1.0]), 1e-4)
        assert out.objective == pytest.approx(6.125846055820701, rel=1e-12)


class TestEndToEnd:
    def pipeline(self, cnir, alpha, ber, caps, max_bits=16):
        su = types.SimpleNamespace(alpha=alpha, ber_threshold=ber)
        sol = solve_continuous(cnir, caps, su)
        return sol, round_and_repair(sol, caps, caps.aci_weights.omega,
                                     cnir, ber, max_bits=max_bits)

    def test_random_instances_stay_feasible(self, rng):
        for _ in range(200):
            cnir, alpha, ber, caps = random_instance(rng)
            _, out = self.pipeline(cnir, alpha, ber, caps)
            assert out.feasible
            assert np.sum(out.powers) <= caps.total_cap * (1 + 1e-9)
            loads = caps.aci_weights.omega.T @ out.powers
            assert np.all(loads <= caps.aci_caps * (1 + 1e-9))
            # bits stay in the supported constellation set
            assert np.all((out.bits == 0) | (out.bits >= 2))
            assert np.all(out.bits <= 16)

    def test_powers_meet_ber_exactly(self, rng):
        for _ in range(50):
            cnir, alpha, ber, caps = random_instance(rng)
            _, out = self.pipeline(cnir, alpha, ber, caps)
            on = out.bits >= 2
            if not np.any(on):
                continue
            got = 0.2 * np.exp(-1.6 * out.powers[on] * cnir[on]
                               / (2.0 ** out.bits[on] - 1.0))
            np.testing.assert_allclose(got, ber, rtol=1e-9)

    def test_rounding_moves_each_tone_at_most_half_before_repair(self, rng):
        for _ in range(60):
            cnir, alpha, ber, caps = random_instance(rng, kind="free")
            sol, out = self.pipeline(cnir, alpha, ber, caps)
            if out.repair_steps:
                continue
            drift = np.abs(out.bits - sol.bits)
            gap = (sol.bits > 0) & (sol.bits < 2)
            assert np.all(drift[~gap] <= 0.5 + 1e-12)

    def test_unconstrained_objective_close_to_continuous(self, rng):
        # with no caps the only loss is rounding; the scalarized objective
        # should move by less than the worst-case per-tone rounding cost
        for _ in range(40):
            cnir, alpha, ber, caps = random_instance(rng, kind="free")
            sol, out = self.pipeline(cnir, alpha, ber, caps)
            slack = 0.5 * (1 - alpha) * cnir.size + alpha * np.sum(sol.powers)
            assert out.objective <= sol.objective + slack + 1e-9


class TestOverlapArgument:
    # the adjacent-band instance of test_adjacent_band_cap_repair
    CAPS = make_caps(2, np.inf, [0.5], omega=[[0.6], [0.05]])

    def test_omitted_overlap_matrix_comes_from_the_caps(self):
        cnir = np.array([100.0, 50.0])
        out = round_and_repair(cont([5.0, 4.0]), self.CAPS, None, cnir, 1e-4)
        ref = round_and_repair(cont([5.0, 4.0]), self.CAPS,
                               self.CAPS.aci_weights.omega, cnir, 1e-4)
        assert list(out.bits) == list(ref.bits) == [4, 4]
        load = float(self.CAPS.aci_weights.omega[:, 0] @ out.powers)
        assert load <= 0.5

    @pytest.mark.parametrize("omega", [
        [[0.6, 0.1], [0.05, 0.2]],      # two columns for one cap
        [[0.6], [0.05], [0.1]],         # three rows for two tones
        [0.6, 0.05],                    # a vector, not an (N, L) matrix
    ], ids=["extra_column", "extra_row", "one_dimensional"])
    def test_misshapen_overlap_matrix_rejected(self, omega):
        with pytest.raises(SolverError, match="overlap matrix shape"):
            round_and_repair(cont([5.0, 4.0]), self.CAPS, omega,
                             np.array([100.0, 50.0]), 1e-4)

    def test_two_caps_without_overlap_matrix_argument(self):
        caps = make_caps(2, np.inf, [0.5, 0.3],
                         omega=[[0.6, 0.1], [0.05, 0.2]])
        out = round_and_repair(cont([5.0, 4.0]), caps, None,
                               np.array([100.0, 50.0]), 1e-4)
        loads = caps.aci_weights.omega.T @ out.powers
        assert np.all(loads <= caps.aci_caps * (1 + 1e-9))
        assert out.repair_steps > 0


class TestCnirChecked:
    @pytest.mark.parametrize("cnir", [[-100.0, 100.0], [np.nan, 100.0],
                                      [np.inf, 100.0], [0.0, 100.0]],
                             ids=["negative", "nan", "inf", "zero"])
    def test_cnir_must_be_finite_and_positive(self, cnir):
        # unchecked, a negative CNIR gives negative powers marked feasible
        # and NaN a misleading "repair emptied the allocation"
        with pytest.raises(SolverError, match="finite and positive"):
            round_and_repair(cont([4.0, 4.0]), make_caps(2, 0.5), None,
                             cnir, 1e-4)


# The greedy loop as it stood before the savings vector was kept across
# steps: every step re-evaluates the savings of all N tones.  Kept verbatim
# as the reference that the incremental loop must match bit for bit.
def _reference_marginal_power(bits, cnir, ber_threshold):
    """Power saved by removing one bit (2-bit carriers: full power)."""
    neglog = -np.log(5.0 * ber_threshold)
    step = np.power(2.0, bits - 1) * neglog / (1.6 * cnir)   # b >= 3
    full = 3.0 * neglog / (1.6 * cnir)                       # b == 2 -> 0
    out = np.where(bits >= 3, step, np.where(bits == 2, full, -np.inf))
    return out


def reference_round_and_repair(continuous, caps, omega, cnir, ber_threshold,
                               max_bits=16) -> Allocation:
    c = np.asarray(cnir, dtype=float)
    n = c.size
    ber = np.broadcast_to(np.asarray(ber_threshold, dtype=float), c.shape)
    omega = (np.zeros((n, 0)) if omega is None
             else np.atleast_2d(np.asarray(omega, dtype=float)))
    aci_caps = np.asarray(caps.aci_caps, dtype=float)
    total_cap = caps.total_cap
    alpha = continuous.alpha

    bits = np.floor(np.asarray(continuous.bits, dtype=float) + 0.5)
    bits = np.where(bits < 2.0, 0.0, np.minimum(bits, float(max_bits)))
    bits = bits.astype(int)
    powers = power_for_bits(bits, c, ber, max_bits)

    total = float(np.sum(powers))
    loads = omega.T @ powers
    steps = 0
    budget = int(np.sum(bits)) + 1
    while (total > total_cap * (1.0 + FEAS_TOL)
           or np.any(loads > aci_caps * (1.0 + FEAS_TOL))):
        if not np.any(bits > 0):
            break
        delta = _reference_marginal_power(bits, c, ber)
        pick = int(np.argmax(delta))        # argmax takes the lowest index on ties
        dp = delta[pick]
        bits[pick] -= 1 if bits[pick] >= 3 else 2
        powers[pick] = power_for_bits(bits[pick], c[pick], ber[pick], max_bits)
        total -= dp
        loads -= dp * omega[pick]
        steps += 1
        if steps > budget:
            raise SolverError("repair loop failed to terminate")
    # Recompute the sums once from scratch to shed accumulated rounding.
    total = float(np.sum(powers))
    loads = omega.T @ powers
    feasible = (total <= total_cap * (1.0 + FEAS_TOL)
                and bool(np.all(loads <= aci_caps * (1.0 + FEAS_TOL))))
    if not feasible:
        raise SolverError("repair emptied the allocation without reaching "
                          "feasibility")
    return Allocation(bits=bits, powers=powers,
                      objective=objective_value(bits, powers, alpha),
                      feasible=feasible, repair_steps=steps)


def repair_instance(rng):
    """(continuous, caps, omega, cnir, ber, max_bits) for the greedy loop.

    Half the draws take CNIR from four values and whole continuous bits, so
    many tones offer the same saving and the tie-break decides.  Caps are
    fractions of the rounded allocation's sums; "empty" sets one to 0,
    which strips every tone it couples (all of them for the total cap).
    """
    n = int(rng.choice([1, 2, 5, 16, 64, 256, 1024],
                       p=[0.1, 0.15, 0.2, 0.2, 0.2, 0.1, 0.05]))
    l = int(rng.integers(0, 4))
    ties = rng.random() < 0.5
    if ties:
        cnir = rng.choice([30.0, 80.0, 250.0, 1e3], size=n)
        bits = rng.integers(0, 19, size=n).astype(float)
    else:
        cnir = 10.0 ** rng.uniform(0.5, 4.5, size=n)
        bits = rng.uniform(0.0, 19.0, size=n)
    ber = (float(10.0 ** rng.uniform(-6.0, -2.5)) if rng.random() < 0.7
           else 10.0 ** rng.uniform(-6.0, -2.5, size=n))
    max_bits = int(rng.integers(6, 17))
    omega = rng.uniform(0.0, 0.6, size=(n, l))
    omega[rng.random(size=(n, l)) < 0.2] = 0.0
    continuous = cont(bits, alpha=float(rng.uniform(0.2, 0.8)))
    free = reference_round_and_repair(continuous, make_caps(n, np.inf), None,
                                      cnir, ber, max_bits)
    total = float(np.sum(free.powers))
    loads = omega.T @ free.powers
    # the old loop pays O(N) per step: keep large-N repairs short
    lo = 0.3 if n <= 64 else 0.8
    kind = rng.choice(["total", "aci", "both", "empty"])
    total_cap = total * rng.uniform(lo, 1.1) if kind != "aci" else np.inf
    aci = (loads * rng.uniform(lo, 1.1, size=l) if kind != "total"
           else np.full(l, np.inf))
    if kind == "empty" and n <= 64:
        if l and rng.random() < 0.5:
            aci[rng.integers(l)] = 0.0
        else:
            total_cap = 0.0
    caps = make_caps(n, total_cap, aci, omega)
    return continuous, caps, omega, cnir, ber, max_bits


def assert_same_allocation(got, ref):
    assert np.array_equal(got.bits, ref.bits)
    assert got.bits.dtype == ref.bits.dtype
    assert np.array_equal(got.powers, ref.powers)
    assert got.objective == ref.objective
    assert got.repair_steps == ref.repair_steps
    assert got.feasible == ref.feasible


class TestMatchesReferenceLoop:
    def test_seeded_random_instances(self):
        rng = np.random.default_rng(5150)
        steps = emptied = 0
        for _ in range(400):
            args = repair_instance(rng)
            ref = reference_round_and_repair(*args)
            got = round_and_repair(*args)
            assert_same_allocation(got, ref)
            steps += ref.repair_steps
            emptied += ref.repair_steps > 0 and not np.any(ref.bits)
        # the draws must exercise the loop, down to empty allocations
        assert steps > 10000
        assert emptied > 50

    def test_negative_cap_raises_in_both(self):
        rng = np.random.default_rng(77)
        for _ in range(15):
            cont_, caps, omega, cnir, ber, max_bits = repair_instance(rng)
            n = cnir.size
            if n > 64:                  # emptying N=1024 takes the old loop ~1 s
                continue
            bad = [make_caps(n, -1.0, caps.aci_caps, omega)]
            if caps.aci_caps.size:
                aci = caps.aci_caps.copy()
                aci[0] = -1.0
                bad.append(make_caps(n, caps.total_cap, aci, omega))
            for c in bad:
                for fn in (reference_round_and_repair, round_and_repair):
                    with pytest.raises(SolverError, match="repair"):
                        fn(cont_, c, omega, cnir, ber, max_bits)
