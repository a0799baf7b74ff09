"""Monte Carlo harness: reproducibility, aggregation, sweeps, benchmarks."""

import numpy as np
import pytest

from crloading import experiments, solver
from crloading.channel import sample_su_channel
from crloading.constraints import build_caps
from crloading.errors import ConfigError, SolverError
from crloading.experiments import (
    compare_with_oracle,
    run_monte_carlo,
    run_trial,
    runtime_scaling,
    sweep_experiment,
    trial_rng,
)
from crloading.scenario import load_scenario


def small_cfg():
    return load_scenario("configs/small_n6.json")


def cci_cfg():
    return load_scenario("configs/cci_binding.json")


def unconstrained_cfg(n=8):
    return load_scenario({
        "su": {"num_subcarriers": n, "symbol_duration": 1.024e-4,
               "noise_variance": 1e-9, "ber_threshold": 1e-4,
               "su_link_gain": 1e-7, "power_threshold": "inf"},
        "path_loss": {"exponent": 4.0, "wavelength": 1 / 3,
                      "reference_distance": 500.0},
        "pus": [{"kind": "cochannel", "distance": 5000.0,
                 "interference_cap": "inf", "probability": 0.9}],
    })


class TestTrialRng:
    def test_reproducible(self):
        a = trial_rng(1234, 7).standard_normal(16)
        b = trial_rng(1234, 7).standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_trials_decorrelated(self):
        a = trial_rng(1234, 7).standard_normal(16)
        b = trial_rng(1234, 8).standard_normal(16)
        assert not np.array_equal(a, b)

    def test_seeds_decorrelated(self):
        a = trial_rng(1234, 7).standard_normal(16)
        b = trial_rng(4321, 7).standard_normal(16)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed, trial", [(-1, 0), (0, -1)])
    def test_negative_seed_or_trial_rejected(self, seed, trial):
        with pytest.raises(ConfigError, match="non-negative"):
            trial_rng(seed, trial)


class TestRunTrial:
    def test_deterministic(self):
        cfg = small_cfg()
        caps = build_caps(cfg)
        r1 = run_trial(cfg, caps, 3, cfg.experiment.seed)
        r2 = run_trial(cfg, caps, 3, cfg.experiment.seed)
        assert r1[0] == r2[0] and r1[1] == r2[1]
        np.testing.assert_array_equal(r1[6].bits, r2[6].bits)

    def test_discrete_allocation_feasible(self):
        cfg = small_cfg()
        caps = build_caps(cfg)
        for i in range(10):
            tput, power, *_, alloc, sol = run_trial(cfg, caps, i,
                                                    cfg.experiment.seed)
            assert tput == float(np.sum(alloc.bits))
            assert power == pytest.approx(float(np.sum(alloc.powers)))
            assert alloc.feasible
            assert np.sum(alloc.powers) <= caps.total_cap * (1 + 1e-9)


class TestMonteCarlo:
    def test_explicit_seed_matches_config_default(self):
        cfg = small_cfg()
        a = run_monte_carlo(cfg, trials=32)
        b = run_monte_carlo(cfg, trials=32, master_seed=cfg.experiment.seed)
        assert a == b

    @pytest.mark.parametrize("trials", [0, -2])
    def test_no_trials_rejected(self, trials):
        with pytest.raises(ConfigError, match="trials must be at least 1"):
            run_monte_carlo(small_cfg(), trials=trials)

    def test_different_seed_changes_the_answer(self):
        cfg = small_cfg()
        a = run_monte_carlo(cfg, trials=32)
        b = run_monte_carlo(cfg, trials=32, master_seed=99)
        assert a != b

    def test_precomputed_caps_equivalent(self):
        cfg = small_cfg()
        a = run_monte_carlo(cfg, trials=24)
        b = run_monte_carlo(cfg, trials=24, caps=build_caps(cfg))
        assert a == b

    def test_zero_cap_scenario_stays_silent(self):
        cfg = load_scenario({
            "su": {"num_subcarriers": 4, "symbol_duration": 1.024e-4,
                   "noise_variance": 1e-9, "ber_threshold": 1e-4},
            "path_loss": {"exponent": 4.0, "wavelength": 1 / 3,
                          "reference_distance": 500.0},
            "pus": [{"kind": "cochannel", "distance": 5000.0,
                     "interference_cap": 1e-14, "probability": 1.0}],
        })
        stats = run_monte_carlo(cfg, trials=16)
        assert stats.avg_throughput == 0.0
        assert stats.avg_power == 0.0
        assert stats.cci_violation_rate == 0.0

    def test_stats_fields_sane(self):
        stats = run_monte_carlo(small_cfg(), trials=64)
        assert stats.trials == 64
        assert stats.avg_throughput > 0.0
        assert stats.avg_power > 0.0
        assert 0.0 <= stats.aci_violation_rate <= 1.0
        assert stats.throughput_ci95 > 0.0
        d = stats.to_dict()
        assert d["trials"] == 64
        assert set(d) >= {"avg_throughput", "avg_power",
                          "cci_violation_rate", "aci_violation_rate"}

    def test_violation_rate_tracks_risk_budget(self):
        # binding co-channel cap: the continuous solution sits exactly on
        # it, so interference exceeds the limit with probability 1 - psi
        stats = run_monte_carlo(cci_cfg(), trials=1500)
        sigma = np.sqrt(0.1 * 0.9 / 1500)
        assert abs(stats.cci_violation_rate - 0.1) <= 3 * sigma
        # the rounded allocation backs off the cap, so its rate cannot be
        # larger than the continuous one on the same draws
        assert stats.cci_violation_rate_discrete <= stats.cci_violation_rate


class TestSweep:
    def test_values_come_from_config_by_default(self):
        cfg = cci_cfg()
        rows = sweep_experiment(cfg, trials=60)
        assert [v for v, _ in rows] == list(cfg.experiment.sweep_values)

    def test_relaxing_risk_budget_helps(self):
        rows = sweep_experiment(cci_cfg(), param="psi",
                                values=[0.8, 0.9, 0.99], trials=250)
        tput = [s.avg_throughput for _, s in rows]
        assert tput[0] >= tput[1] >= tput[2]
        assert tput[0] > tput[2]

    def test_common_random_numbers_across_vacuous_sweep(self):
        # with an infinite interference limit psi never enters the caps,
        # so every sweep point must reproduce bit-identical statistics
        rows = sweep_experiment(unconstrained_cfg(), param="psi",
                                values=[0.5, 0.9, 0.99], trials=40)
        base = rows[0][1]
        for _, stats in rows[1:]:
            assert stats == base

    def test_alpha_sweep_trades_rate_for_power(self):
        rows = sweep_experiment(unconstrained_cfg(), param="alpha",
                                values=[0.3, 0.5, 0.7], trials=60)
        tput = [s.avg_throughput for _, s in rows]
        power = [s.avg_power for _, s in rows]
        assert tput[0] > tput[1] > tput[2]
        assert power[0] > power[1] > power[2]


class TestFailingTrialIsNamed:
    """A solver failure inside a run names the trial that can replay it."""

    SEED = 2024

    @classmethod
    def fail_on(cls, monkeypatch, cfg, bad_trials):
        """Make the block solver raise on any block holding one of the
        ``bad_trials`` draws, in the Monte Carlo blocks and in run_trial."""
        bad = [sample_su_channel(cfg.su, trial_rng(cls.SEED, t)).cnir
               for t in bad_trials]
        solve = solver._solve_block

        def solve_or_fail(cnir, *args):
            if any(np.array_equal(row, b) for row in cnir for b in bad):
                raise SolverError("injected failure")
            return solve(cnir, *args)

        monkeypatch.setattr(solver, "_solve_block", solve_or_fail)
        monkeypatch.setattr(experiments, "_solve_block", solve_or_fail)
        return cfg

    @pytest.fixture
    def fail_on_trial_7(self, monkeypatch):
        return self.fail_on(monkeypatch, cci_cfg(), [7])

    def test_monte_carlo_names_seed_and_trial(self, fail_on_trial_7):
        with pytest.raises(SolverError,
                           match="trial 7 of master seed 2024 failed: "
                                 "injected failure"):
            run_monte_carlo(fail_on_trial_7, trials=12,
                            master_seed=self.SEED)

    def test_sweep_adds_the_value(self, fail_on_trial_7):
        with pytest.raises(SolverError,
                           match="psi=0.9: trial 7 of master seed 2024"):
            sweep_experiment(fail_on_trial_7, "psi", [0.9], trials=12,
                             master_seed=self.SEED)

    def test_lowest_of_two_failures_in_different_blocks(self, monkeypatch):
        cfg = self.fail_on(monkeypatch, cci_cfg(), [9, 5])
        # blocks of four trials: 5 and 9 fail in the second and third
        monkeypatch.setattr(experiments, "_BLOCK_ENTRIES",
                            4 * cfg.su.num_subcarriers)
        with pytest.raises(SolverError,
                           match="trial 5 of master seed 2024 failed: "
                                 "injected failure"):
            run_monte_carlo(cfg, trials=12, master_seed=self.SEED)


class TestOracleComparison:
    def test_proposed_never_beats_oracle(self):
        cmp = compare_with_oracle(small_cfg(), instances=12)
        assert len(cmp.rows) == 12
        assert np.all(cmp.gaps() >= -1e-12)
        assert cmp.median_gap <= cmp.max_gap
        assert cmp.speedup > 0.0

    def test_no_instances_rejected(self):
        with pytest.raises(ConfigError, match="instances must be at least 1"):
            compare_with_oracle(small_cfg(), instances=0)

    def test_deterministic_given_seed(self):
        a = compare_with_oracle(small_cfg(), instances=6, master_seed=5)
        b = compare_with_oracle(small_cfg(), instances=6, master_seed=5)
        assert a.gaps().tolist() == b.gaps().tolist()
        assert a.median_gap == b.median_gap


class TestRuntimeScaling:
    def test_rows_and_slope(self):
        rows, slope = runtime_scaling(unconstrained_cfg(), [8, 16, 32],
                                      repeats=3)
        assert [n for n, _ in rows] == [8, 16, 32]
        assert all(t > 0.0 for _, t in rows)
        assert np.isfinite(slope)

    def test_no_repeats_rejected(self):
        with pytest.raises(ConfigError, match="repeats must be at least 1"):
            runtime_scaling(unconstrained_cfg(), [8], repeats=0)

    @pytest.mark.parametrize("n", [-4, 0, 2.7, 2.0001, np.inf, np.nan,
                                   True, "8"])
    def test_band_size_must_be_a_positive_integer(self, n):
        with pytest.raises(ConfigError, match="band sizes must be integers"):
            runtime_scaling(unconstrained_cfg(), [8, n], repeats=1)

    def test_integral_float_size_is_accepted(self):
        rows, _ = runtime_scaling(unconstrained_cfg(), [8.0], repeats=1)
        assert rows[0][0] == 8
        assert isinstance(rows[0][0], int)

    def test_single_size_has_no_slope(self):
        rows, slope = runtime_scaling(unconstrained_cfg(), [16], repeats=2)
        assert len(rows) == 1
        assert np.isnan(slope)
