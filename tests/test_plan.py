"""Prepared per-config arrays: the plan a ConstraintCaps builds on first use
gives bitwise the results of a plan that fresh caps build for the call
alone, is built once per (caps, alpha, BER) and cannot go stale."""

import types
from dataclasses import replace

import numpy as np
import pytest

from crloading import constraints, experiments
from crloading.constraints import build_caps
from crloading.discretizer import _repair, round_and_repair
from crloading.errors import SolverError
from crloading.experiments import run_trial
from crloading.oracle import exhaustive_search
from crloading.scenario import load_scenario
from crloading.solver import Plan, solve_continuous

from conftest import adjacent_band_scenario, make_caps

SU = types.SimpleNamespace(alpha=0.5, ber_threshold=1e-4)


def fuzz_configs():
    """Four-band scenarios (per-tone PU interference), one with a PU at
    psi = 1 and one with a zero interference cap, and cci_binding with a
    per-tone BER."""
    rng = np.random.default_rng(1066)
    cfgs = [adjacent_band_scenario(rng) for _ in range(6)]
    for cfg, edge in ((cfgs[1], {"probability": 1.0}),
                      (cfgs[2], {"interference_cap": 0.0})):
        cfgs.append(replace(cfg, pus=(replace(cfg.pus[0], **edge),)
                            + cfg.pus[1:]))
    cci = load_scenario("configs/cci_binding.json")
    n = cci.su.num_subcarriers
    cfgs.append(replace(cci, su=replace(
        cci.su, ber_threshold=tuple(np.geomspace(1e-5, 1e-3, n)))))
    return cfgs


def assert_same(a, b):
    """Two dataclass results equal field by field, arrays bitwise."""
    for key, value in vars(a).items():
        other = getattr(b, key)
        if isinstance(value, np.ndarray):
            assert value.dtype == other.dtype and np.array_equal(value, other)
        else:
            assert value == other, key


class TestCachedPlanMatchesRawArguments:
    @pytest.mark.parametrize("k", range(9))
    def test_rows(self, k):
        cfg = fuzz_configs()[k]
        su, caps = cfg.su, build_caps(cfg)
        omega, n = caps.aci_weights.omega, su.num_subcarriers
        zero_caps = 0
        for t in range(6):
            cnir = experiments._draw(cfg, k, [t])[0][0]
            fresh = make_caps(n, caps.total_cap, caps.aci_caps, omega.copy())
            raw = solve_continuous(cnir, fresh, su)
            cached = solve_continuous(cnir, caps, su)
            assert_same(cached, raw)
            plan = fresh.plan(su.alpha, su.ber_threshold)
            bits, powers, steps = _repair(raw.bits[None], cnir[None], plan,
                                          su.max_bits)[:3]
            alloc = round_and_repair(cached, caps, None, cnir,
                                     su.ber_threshold, su.max_bits)
            assert np.array_equal(alloc.bits, bits[0])
            assert np.array_equal(alloc.powers, powers[0])
            assert alloc.repair_steps == steps[0]
            trial = run_trial(cfg, caps, t, k)
            assert_same(trial.solution, raw)
            assert_same(trial.allocation, alloc)
            zero_caps += bool(np.isinf(plan.threshold).any())
        assert k not in (6, 7) or zero_caps == 6


class TestBuiltOnce:
    def test_hundred_trials_one_plan(self, monkeypatch):
        built = []

        def counting(**fields):
            built.append(fields)
            return Plan(**fields)

        monkeypatch.setattr(constraints, "Plan", counting)
        cfg = load_scenario("configs/default.json")
        caps = build_caps(cfg)
        assert not built                # not in build_caps: on first use
        for t in range(100):
            run_trial(cfg, caps, t, 3)
        experiments.run_monte_carlo(cfg, 50, 3, caps=caps)
        assert len(built) == 1

    def test_another_alpha_or_ber_gets_its_own_plan(self):
        caps = make_caps(2, 1.0)
        first = caps.plan(0.5, 1e-4)
        assert caps.plan(0.5, 1e-4) is first
        assert caps.plan(0.5, (1e-4, 1e-4)) is not first
        assert caps.plan(0.4, 1e-4).alpha == 0.4
        again = caps.plan(0.5, np.array([1e-4, 2e-4]))
        assert caps.plan(0.5, np.array([1e-4, 2e-4])) is again
        assert caps.plan(0.5, np.array([1e-4, 3e-4])) is not again


class TestNotStale:
    def test_caps_arrays_are_read_only(self):
        caps = make_caps(2, 1.0, [0.5], [[0.6], [0.05]])
        plan = caps.plan(0.5, 1e-4)
        with pytest.raises(ValueError):
            caps.aci_caps[0] = 0.25
        with pytest.raises(ValueError):
            caps.aci_weights.omega[0, 0] = 0.3
        assert caps.plan(0.5, 1e-4) is plan
        assert plan.caps[1] == 0.5 and plan.omega[0, 0] == 0.6

    def test_plan_arrays_are_read_only(self):
        plan = make_caps(2, 1.0, [0.5], [[0.6], [0.05]]).plan(0.5, 1e-4)
        arrays = [v for v in vars(plan).values() if isinstance(v, np.ndarray)]
        # lg, neglog, threshold, omega, caps, limits, rank: one overlap
        # matrix, with no stored weight rows beside it, and one limit per cap
        assert len(arrays) == 7 and not hasattr(plan, "wt")
        for a in arrays:
            with pytest.raises(ValueError):
                a[...] = 0

    def test_replaced_caps_build_their_own(self):
        caps = make_caps(2, 1.0)
        plan = caps.plan(0.5, 1e-4)
        tighter = replace(caps, total_cap=0.5)
        assert tighter.plan(0.5, 1e-4) is not plan
        cnir = np.array([100.0, 50.0])
        sol = solve_continuous(cnir, tighter, SU)
        assert np.sum(sol.powers) == pytest.approx(0.5, rel=1e-12)

    def test_foreign_overlap_matrix_raises(self):
        caps = make_caps(2, np.inf, [0.5], [[0.6], [0.05]])
        cont = types.SimpleNamespace(bits=np.array([5.0, 4.0]), alpha=0.5)
        cnir = np.array([100.0, 50.0])
        own = round_and_repair(cont, caps, None, cnir, 1e-4)
        assert list(own.bits) == [4, 4]
        with pytest.raises(SolverError, match="the caps' own"):
            round_and_repair(cont, caps, [[0.06], [0.005]], cnir, 1e-4)
        with pytest.raises(SolverError, match="the caps' own"):
            exhaustive_search(cnir, 0.5, 1e-4, caps, [[0.06], [0.005]])
        assert caps.plan(0.5, 1e-4).omega[0, 0] == 0.6


class TestOneRowEntryPoints:
    def test_block_of_rows_rejected(self):
        caps = make_caps(2, 1.0)
        cnir = np.array([[100.0, 50.0], [80.0, 40.0]])
        cont = types.SimpleNamespace(bits=np.array([5.0, 4.0]), alpha=0.5)
        with pytest.raises(SolverError, match="one row"):
            solve_continuous(cnir, caps, SU)
        for omega in (None, np.zeros((2, 0))):
            with pytest.raises(SolverError, match="one row"):
                round_and_repair(cont, caps, omega, cnir, 1e-4)
        for rows in (cnir, cnir[:1]):   # a (1, N) block is not a row either
            for prune in (True, False):
                with pytest.raises(SolverError, match="one row"):
                    exhaustive_search(rows, 0.5, 1e-4, caps, b_max=4,
                                      prune=prune)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5])
    @pytest.mark.parametrize("prune", [True, False], ids=["dfs", "flat"])
    def test_oracle_alpha_checked_by_the_plan(self, alpha, prune):
        caps = make_caps(2, 1.0)
        with pytest.raises(SolverError, match=r"alpha must lie in \(0, 1\)"):
            exhaustive_search(np.array([100.0, 50.0]), alpha, 1e-4, caps,
                              b_max=4, prune=prune)
