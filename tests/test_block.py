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
from crloading.discretizer import _repair_block, round_and_repair
from crloading.errors import SolverError
from crloading.experiments import run_monte_carlo, run_trial
from crloading.kkt import kkt_verify
from crloading.scenario import load_scenario
from crloading.solver import _solve_block, cnir_threshold, solve_capped

from conftest import make_caps

C2 = np.array([100.0, 50.0])


def assert_rows_match_one_row_solves(cnir, alpha, ber, total_cap, omega,
                                     aci_caps, max_bits=16):
    """Every row of the block solve and repair equals its one-row call;
    returns the case ids of the rows."""
    caps = make_caps(cnir.shape[1], total_cap, aci_caps, omega)
    bits, powers, lam, active = _solve_block(cnir, alpha, ber, total_cap,
                                             omega, aci_caps)
    d_bits, d_powers, steps = _repair_block(bits, cnir, ber, caps, omega,
                                            max_bits)
    cases = []
    for t, c in enumerate(cnir):
        sol = solve_capped(c, alpha, ber, total_cap, omega, aci_caps)
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
    free = solve_capped(base, alpha, ber)
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


def adjacent_band_scenario(rng):
    """Four adjacent PUs, N up to 256, CNIR over ten decades within a draw
    (per-tone PU interference), risk levels psi up to 0.999."""
    n = int(rng.integers(1, 257))
    spacing = 9765.625
    pus = [{"kind": "adjacent", "distance": float(rng.uniform(600, 3000)),
            "interference_cap": float(10.0 ** rng.uniform(-14, -9)),
            "probability": float(rng.uniform(0.5, 0.999)),
            "fading_rate": float(rng.uniform(0.5, 2.0)),
            "bandwidth": float(rng.uniform(0.1, 2.0) * n * spacing),
            "center_offset": float(rng.uniform(0.2, 2.0) * n * spacing)}
           for _ in range(4)]
    return load_scenario({
        "su": {"num_subcarriers": n, "symbol_duration": 1.024e-4,
               "subcarrier_spacing": spacing,
               "noise_variance": 1e-9,
               "pu_interference": [float(x) for x in
                                   10.0 ** rng.uniform(-10.0, 0.0, n)],
               "ber_threshold": float(10.0 ** rng.uniform(-6.0, -3.0)),
               "alpha": float(rng.uniform(0.2, 0.8)),
               "power_threshold": float(10.0 ** rng.uniform(-4.0, 0.0)),
               "su_link_gain": float(10.0 ** rng.uniform(-4.0, 0.0)),
               "max_bits": 16},
        "path_loss": {"exponent": 4.0, "wavelength": 1 / 3,
                      "reference_distance": 500.0},
        "pus": pus,
    })


class TestFuzzFourAdjacentBands:
    TRIALS = 4

    def test_rows_certify_or_trial_is_named(self):
        rng = np.random.default_rng(1066)
        solved = named = 0
        for k in range(12):
            cfg = adjacent_band_scenario(rng)
            caps = build_caps(cfg)
            su = cfg.su
            cnir, _ = experiments._draw(cfg, k, range(self.TRIALS))
            try:
                bits, powers, lam, _ = _solve_block(
                    cnir, su.alpha, su.ber_threshold, caps.total_cap,
                    caps.aci_weights.omega, caps.aci_caps)
            except SolverError:
                with pytest.raises(SolverError,
                                   match=rf"trial \d+ of master seed {k} "):
                    run_monte_carlo(cfg, self.TRIALS, k, caps=caps)
                named += 1
                continue
            for t in range(self.TRIALS):
                row = types.SimpleNamespace(
                    bits=bits[t], powers=powers[t], lambda_power=lam[t, 0],
                    lambda_aci=lam[t, 1:], alpha=su.alpha)
                report = kkt_verify(row, cnir[t], su.ber_threshold, caps)
                assert report.passed, (k, t, report)
            run_monte_carlo(cfg, self.TRIALS, k, caps=caps)
            solved += 1
        assert solved >= 8, (solved, named)
