"""Block evaluation: a (T, N) block of draws solves and repairs each row
exactly as that row alone, and Monte Carlo runs reduce the same rows as
``run_trial``."""

import math
import types
from dataclasses import replace

import numpy as np
import pytest

from crloading import experiments
from crloading.constraints import build_caps
from crloading.discretizer import _repair, round_and_repair
from crloading.experiments import run_monte_carlo, run_trial
from crloading.kkt import kkt_verify
from crloading.scenario import load_scenario
from crloading.solver import _solve_block, cnir_threshold

from conftest import adjacent_band_scenario, make_caps, solve_raw

pytestmark = pytest.mark.bitwise

C2 = np.array([100.0, 50.0])


def assert_rows_match_one_row_solves(cnir, alpha, ber, total_cap, omega,
                                     aci_caps, max_bits=16):
    """Every row of the block solve and repair equals its one-row call;
    returns the case ids of the rows."""
    caps = make_caps(cnir.shape[1], total_cap, aci_caps, omega)
    plan = caps.plan(alpha, ber)
    bits, powers, lam, active = _solve_block(cnir, plan)
    d_bits, d_powers, steps = _repair(bits, cnir, plan, max_bits)[:3]
    cases = []
    for t, c in enumerate(cnir):
        sol = solve_raw(c, alpha, ber, total_cap, omega, aci_caps)
        assert np.array_equal(bits[t], sol.bits)
        assert np.array_equal(powers[t], sol.powers)
        assert np.array_equal(lam[t], np.r_[sol.lambda_power,
                                             sol.lambda_aci])
        assert np.array_equal(np.flatnonzero(active[t]), sol.active_set)
        alloc = round_and_repair(sol, caps, omega, c, ber, max_bits)
        assert np.array_equal(d_bits[t], alloc.bits)
        assert np.array_equal(d_powers[t], alloc.powers)
        assert steps[t] == alloc.repair_steps
        cases.append(sol.case_id)
    return cases


def random_block(rng):
    """(cnir, alpha, ber, total_cap, omega, aci_caps): rows share the caps
    but not the CNIR scale, so one block mixes regimes."""
    l = int(rng.integers(0, 5))
    n = int(rng.integers(1, 257))
    t = int(rng.integers(2, 9))
    alpha = float(rng.uniform(0.25, 0.75))
    ber = float(10.0 ** rng.uniform(-5.0, -2.3))
    base = cnir_threshold(alpha, ber) * 10.0 ** rng.uniform(-0.5, 3.0, n)
    cnir = base * 10.0 ** rng.uniform(-1.0, 1.0, (t, 1))
    omega = rng.uniform(0.0, 1.0, (n, l)) * 10.0 ** rng.uniform(-3.0, 0.0,
                                                                (n, l))
    free = solve_raw(base, alpha, ber)
    scale = 10.0 ** rng.uniform(-2.0, math.log10(2.0), 1 + l)
    total_cap = (float(np.sum(free.powers)) * scale[0]
                 if rng.random() < 0.7 else math.inf)
    aci_caps = omega.T @ free.powers * scale[1:]
    return cnir, alpha, ber, total_cap, omega, aci_caps


class TestRowIndependence:
    def test_random_blocks(self):
        rng = np.random.default_rng(6060)
        cases = set()
        for _ in range(60):
            cases.update(assert_rows_match_one_row_solves(*random_block(rng)))
        assert cases == {5, 6, 7, 8}

    def test_coupled_row_among_closed_form_rows(self):
        # the joint fixture of TestDualStepAgreesWithNewton between rows
        # that every tone is nulled in and a row only the total cap binds
        cnir = np.array([C2 * 0.1, C2, [14.0, 200.0], C2, C2 * 0.1])
        cases = assert_rows_match_one_row_solves(
            cnir, 0.5, 1e-4, 0.8, np.array([[0.5], [0.1]]), np.array([0.22]))
        assert cases == [5, 8, 6, 8, 5]


def reduce_rows(rows):
    """AggregateStats fields of run_trial rows, reduced independently."""
    table = np.array(rows, dtype=float)
    n = len(rows)

    def half_width(col):
        return 1.96 * float(np.std(col, ddof=1)) / math.sqrt(n)

    return dict(
        trials=n, avg_throughput=float(np.mean(table[:, 0])),
        avg_power=float(np.mean(table[:, 1])),
        cci_violation_rate=float(np.mean(table[:, 2])),
        aci_violation_rate=float(np.mean(table[:, 3])),
        throughput_ci95=half_width(table[:, 0]),
        power_ci95=half_width(table[:, 1]),
        cci_rate_ci95=half_width(table[:, 2]),
        aci_rate_ci95=half_width(table[:, 3]),
        cci_violation_rate_discrete=float(np.mean(table[:, 4])),
        aci_violation_rate_discrete=float(np.mean(table[:, 5])),
    )


class TestMonteCarloBlocks:
    def test_equals_run_trial_rows_across_a_block_boundary(self):
        cfg = load_scenario("configs/default.json")
        cfg = replace(cfg, su=replace(cfg.su, num_subcarriers=1024))
        caps = build_caps(cfg)
        trials = experiments._BLOCK_ENTRIES // 1024 + 5
        rows = [run_trial(cfg, caps, t, 99)[:6] for t in range(trials)]
        stats = run_monte_carlo(cfg, trials, 99, caps=caps)
        assert stats.to_dict() == reduce_rows(rows)

    def test_nulled_tones_cost_positive_zero(self):
        # the repaired powers of one run_monte_carlo block of small_n6
        cfg = load_scenario("configs/small_n6.json")
        powers = experiments._block(cfg, build_caps(cfg), cfg.experiment.seed,
                                    range(200))[1][1]
        assert np.count_nonzero(powers == 0.0) > 100
        assert not np.signbit(powers).any()


class TestFuzzFourAdjacentBands:
    TRIALS = 4

    @staticmethod
    def scenarios():
        """12 random four-band scenarios, then one with a PU at psi = 1
        and one with a zero interference cap: each makes that PU's cap 0,
        which forbids every tone it weights (all of them)."""
        rng = np.random.default_rng(1066)
        cfgs = [adjacent_band_scenario(rng) for _ in range(12)]
        for cfg, edge in ((cfgs[1], {"probability": 1.0}),
                          (cfgs[2], {"interference_cap": 0.0})):
            cfgs.append(replace(cfg, pus=(replace(cfg.pus[0], **edge),)
                                + cfg.pus[1:]))
        return cfgs

    def certify(self, k, cfg):
        """Solves trials 0..TRIALS-1 of ``cfg`` at seed ``k`` as one block,
        asserts that kkt certifies every row and that the Monte Carlo run
        completes; returns the block's (bits, lam)."""
        caps = build_caps(cfg)
        su = cfg.su
        cnir, _ = experiments._draw(cfg, k, range(self.TRIALS))
        bits, powers, lam, _ = _solve_block(
            cnir, caps.plan(su.alpha, su.ber_threshold))
        for t in range(self.TRIALS):
            row = types.SimpleNamespace(
                bits=bits[t], powers=powers[t], lambda_power=lam[t, 0],
                lambda_aci=lam[t, 1:], alpha=su.alpha)
            report = kkt_verify(row, cnir[t], su.ber_threshold, caps)
            assert report.passed, (k, t, report)
        run_monte_carlo(cfg, self.TRIALS, k, caps=caps)
        return bits, lam

    def test_every_row_certifies(self):
        for k, cfg in enumerate(self.scenarios()):
            bits, _ = self.certify(k, cfg)
            assert k < 12 or not bits.any()

    def test_thousands_of_tones_certify(self):
        # four scenarios; each overlap matrix takes ~0.2-0.3 s to build
        rng = np.random.default_rng(4096)
        lams = [self.certify(k, adjacent_band_scenario(rng, n))[1]
                for k, n in enumerate((2048, 4096, 4096, 4096))]
        assert any((lam[:, 1:] > 0.0).any() for lam in lams)  # an ACI binds

    def test_per_tone_ber_tuple(self):
        # the scenario loader keeps a per-subcarrier BER as a tuple
        cfg = load_scenario("configs/cci_binding.json")
        n = cfg.su.num_subcarriers
        cfg = replace(cfg, su=replace(
            cfg.su, ber_threshold=tuple(np.geomspace(1e-5, 1e-3, n))))
        caps = build_caps(cfg)
        rows = [run_trial(cfg, caps, t, 5)[:6] for t in range(40)]
        stats = run_monte_carlo(cfg, 40, 5, caps=caps)
        assert stats.to_dict() == reduce_rows(rows)
