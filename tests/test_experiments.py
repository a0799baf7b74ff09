"""Monte Carlo harness: reproducibility, aggregation, sweeps, benchmarks."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crloading import experiments, solver
from crloading.channel import sample_sp_gain, sample_su_channel
from crloading.constraints import build_caps, check_feasible
from crloading.errors import ConfigError, SolverError
from crloading.experiments import (
    AggregateStats,
    compare_with_oracle,
    run_monte_carlo,
    run_trial,
    runtime_scaling,
    sweep_experiment,
    trial_rng,
)
from crloading.scenario import apply_parameter, load_scenario


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


def pu_count_cfg(num_pus):
    """Eight tones under per-tone PU interference and ``num_pus`` PUs, with
    fading rates other than 1."""
    kinds = [("cochannel", 0.5), ("adjacent", 2.5), ("cochannel", 3.7)]
    return load_scenario({
        "su": {"num_subcarriers": 8, "symbol_duration": 1.024e-4,
               "noise_variance": 1e-9, "ber_threshold": 1e-4,
               "su_link_gain": 1e-7,
               "pu_interference": [1e-10 * 3.0 ** i for i in range(8)]},
        "path_loss": {"exponent": 4.0, "wavelength": 1 / 3,
                      "reference_distance": 500.0},
        "pus": [{"kind": kind, "distance": 2000.0,
                 "interference_cap": 1e-11, "probability": 0.9,
                 "fading_rate": rate,
                 **({"bandwidth": 1e5, "center_offset": 1e5}
                    if kind == "adjacent" else {})}
                for kind, rate in kinds[:num_pus]],
    })


class TestBlockDrawEqualsTrialRng:
    """A block of trials, however long and whichever way its generators are
    seeded, draws bitwise what trial_rng, sample_su_channel and one
    sample_sp_gain per PU draw for each trial alone."""

    CFGS = [pu_count_cfg(k) for k in range(4)]

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3,
                                      2**130])
    # a block reaching 2^32 seeds each trial by trial_rng
    @pytest.mark.parametrize("start", [0, 2**31, 2**32 - 8])
    @pytest.mark.parametrize("length", [1, 15, 16, 17, 512])
    def test_rows_equal_trial_rng_draws(self, seed, start, length):
        trials = range(start, start + length)
        for cfg in self.CFGS:
            assert isinstance(cfg.su.pu_interference, tuple)
            cnir, sp = experiments._draw(cfg, seed, trials)
            assert cnir.shape == (length, 8)
            assert sp.shape == (length, len(cfg.pus))
            for row, t in enumerate(trials):
                rng = trial_rng(seed, t)
                np.testing.assert_array_equal(
                    cnir[row], sample_su_channel(cfg.su, rng).cnir)
                np.testing.assert_array_equal(
                    sp[row], [sample_sp_gain(pu.fading_rate, rng)
                              for pu in cfg.pus])

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**200),
           trials=st.lists(st.integers(0, 2**32 - 1), min_size=1,
                           max_size=8))
    def test_seed_words_equal_seed_sequence(self, seed, trials):
        words = experiments._seed_words(seed, np.array(trials, np.uint32))
        expected = [np.random.SeedSequence((seed, t)).generate_state(
            4, np.uint64) for t in trials]
        assert words.dtype == np.uint64
        np.testing.assert_array_equal(words, expected)

    @pytest.mark.parametrize("trials", [4, 64])
    def test_nonpositive_fading_rate_raises(self, trials):
        cfg = cci_cfg()
        pu = dataclasses.replace(cfg.pus[0], fading_rate=0.0)
        cfg = dataclasses.replace(cfg, pus=(pu,))
        with pytest.raises(ConfigError, match="fading rate must be positive"):
            run_monte_carlo(cfg, trials=trials)


# run_monte_carlo at 600 trials (several blocks), recorded from the
# trial-by-trial draw that trial_rng defines.
FROZEN_AGGREGATES = {
    ("cci_binding", 5): (
        600, 503.595, 0.015210474901216403, 0.11333333333333333, 0.0,
        0.8239555195568051, 1.4606380981110433e-05, 0.02538643294271932, 0.0,
        0.11, 0.0),
    ("cci_binding", 1234): (
        600, 503.47833333333335, 0.015199303516465914, 0.08333333333333333,
        0.0, 0.8723686960008343, 1.67681100296466e-05, 0.022133890479809754,
        0.0, 0.08, 0.0),
    ("default_psi0.9", 5): (
        600, 836.5766666666667, 9.962779505670362e-05, 0.0, 0.0,
        1.5979285651681832, 3.3047005354018806e-08, 0.0, 0.0, 0.0, 0.0),
    ("default_psi0.9", 1234): (
        600, 836.835, 9.959974735699418e-05, 0.0, 0.0, 1.5682817349146094,
        4.154260544783654e-08, 0.0, 0.0, 0.0, 0.0),
    ("small_n6", 5): (
        600, 11.16, 1.4527396241796662, 0.0, 0.07166666666666667,
        0.2389261511163157, 0.028395766462770457, 0.0, 0.020656333424754453,
        0.0, 0.05333333333333334),
    ("small_n6", 1234): (
        600, 11.253333333333334, 1.4821477286650844, 0.0, 0.09666666666666666,
        0.24469153573615157, 0.029222573562571668, 0.0, 0.023664920499589712,
        0.0, 0.08666666666666667),
}


@pytest.mark.bitwise
@pytest.mark.parametrize("name, seed", sorted(FROZEN_AGGREGATES))
def test_monte_carlo_aggregates_frozen(name, seed):
    if name == "default_psi0.9":
        cfg = apply_parameter(load_scenario("configs/default.json"), "psi",
                              0.9)
    else:
        cfg = load_scenario(f"configs/{name}.json")
    stats = run_monte_carlo(cfg, trials=600, master_seed=seed)
    assert stats == AggregateStats(*FROZEN_AGGREGATES[name, seed])


class TestRunTrial:
    def test_deterministic(self):
        cfg = small_cfg()
        caps = build_caps(cfg)
        r1 = run_trial(cfg, caps, 3, cfg.experiment.seed)
        r2 = run_trial(cfg, caps, 3, cfg.experiment.seed)
        assert r1[:6] == r2[:6]
        np.testing.assert_array_equal(r1.allocation.bits, r2.allocation.bits)
        np.testing.assert_array_equal(r1.cnir, r2.cnir)

    @pytest.mark.parametrize("config", ["configs/default.json",
                                        "configs/cci_binding.json",
                                        "configs/small_n6.json"])
    def test_record_carries_the_trials_cnir(self, config):
        # the CNIR the block drew, bitwise that of the per-trial generator
        cfg = load_scenario(config)
        caps = build_caps(cfg)
        for t in (0, 5, 17):
            trial = run_trial(cfg, caps, t, 1234)
            own = sample_su_channel(cfg.su, trial_rng(1234, t)).cnir
            assert trial.cnir.tobytes() == own.tobytes()

    def test_record_fields_in_order(self):
        cfg = small_cfg()
        trial = run_trial(cfg, build_caps(cfg), 3, cfg.experiment.seed)
        assert trial._fields == (
            "throughput_bits", "power_w", "cci_viol", "aci_viol",
            "cci_viol_discrete", "aci_viol_discrete", "allocation",
            "solution", "cnir")
        # positions 6 and 7 still read the allocation and the solution
        assert trial[6] is trial.allocation and trial[7] is trial.solution
        assert isinstance(trial.solution, solver.ContinuousSolution)
        assert all(type(x) is bool for x in trial[2:6])
        with pytest.raises(AttributeError):
            trial.cnir = None           # frozen

    def test_discrete_allocation_feasible(self):
        cfg = small_cfg()
        caps = build_caps(cfg)
        for i in range(10):
            trial = run_trial(cfg, caps, i, cfg.experiment.seed)
            alloc = trial.allocation
            assert trial.throughput_bits == float(np.sum(alloc.bits))
            assert trial.power_w == pytest.approx(float(np.sum(alloc.powers)))
            cnir = sample_su_channel(cfg.su,
                                     trial_rng(cfg.experiment.seed, i)).cnir
            assert check_feasible(alloc, caps, cnir,
                                  cfg.su.ber_threshold).feasible
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

    def test_config_without_a_sweep_rejected(self):
        with pytest.raises(ConfigError, match="sweep needs a parameter and "
                                              "a non-empty value list"):
            sweep_experiment(unconstrained_cfg(), trials=2)

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


class TestCountsAndSeedsAreIntegral:
    """A count or seed is never truncated: 2.5 trials used to run 2, seed
    1.7 ran seed 1 and seed -0.5 ran seed 0."""

    ENTRY_POINTS = {
        "run_monte_carlo": lambda count, seed: run_monte_carlo(
            small_cfg(), count, seed),
        "sweep_experiment": lambda count, seed: sweep_experiment(
            small_cfg(), "alpha", [0.5], count, seed),
        "compare_with_oracle": lambda count, seed: compare_with_oracle(
            small_cfg(), count, seed),
        "runtime_scaling": lambda count, seed: runtime_scaling(
            unconstrained_cfg(), [8], count, seed),
    }

    @pytest.mark.parametrize("count, seed", [
        (2.5, 1), (np.float64(2.5), 1), (True, 1), ("2", 1),
        (2, 1.7), (2, -0.5), (2, -1), (2, np.nan), (2, "1"),
    ], ids=["count_2.5", "count_np_2.5", "count_bool", "count_str",
            "seed_1.7", "seed_-0.5", "seed_-1", "seed_nan", "seed_str"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_rejected(self, entry, count, seed):
        with pytest.raises(ConfigError, match="must be at least [01] and "
                                              "integral, got "):
            self.ENTRY_POINTS[entry](count, seed)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_integral_floats_count(self, entry):
        a = self.ENTRY_POINTS[entry](2.0, np.float64(1.0))
        b = self.ENTRY_POINTS[entry](np.int64(2), 1)
        if entry == "compare_with_oracle":
            a, b = a.gaps().tolist(), b.gaps().tolist()
        elif entry == "runtime_scaling":     # timings differ, sizes do not
            a, b = a[0][0][0], b[0][0][0]
        assert a == b


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

    def test_certain_cap_loads_nothing_on_either_side(self):
        # psi = 1 makes the adjacent-channel cap 0: both objectives are 0
        cmp = compare_with_oracle(apply_parameter(small_cfg(), "psi", 1.0),
                                  instances=3)
        assert [r[1:4] for r in cmp.rows] == [(0.0, 0.0, 0.0)] * 3
        assert cmp.median_gap == cmp.max_gap == 0.0

    def test_failed_instance_names_itself_and_the_seed(self, monkeypatch):
        # the third search (instance 2) raises: the error names instance 2
        search, calls = experiments.exhaustive_search, []

        def third_fails(*args, **kw):
            calls.append(None)
            if len(calls) == 3:
                raise SolverError("injected failure")
            return search(*args, **kw)

        monkeypatch.setattr(experiments, "exhaustive_search", third_fails)
        with pytest.raises(SolverError,
                           match="^instance 2 of master seed 5 failed: "
                                 "injected failure$"):
            compare_with_oracle(small_cfg(), instances=4, master_seed=5)
        assert len(calls) == 3

    def test_deterministic_given_seed(self):
        a = compare_with_oracle(small_cfg(), instances=6, master_seed=5)
        b = compare_with_oracle(small_cfg(), instances=6, master_seed=5)
        assert a.gaps().tolist() == b.gaps().tolist()
        assert a.median_gap == b.median_gap

    def test_instance_t_is_monte_carlo_trial_t(self):
        # both draw through _draw: instance t's proposed objective is the
        # allocation run_trial gives trial t of the same master seed
        cfg = small_cfg()
        caps = build_caps(cfg)
        cmp = compare_with_oracle(cfg, instances=6, master_seed=5)
        for t in range(6):
            trial = run_trial(cfg, caps, t, 5)
            assert cmp.rows[t][1] == trial.allocation.objective


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
        with pytest.raises(ConfigError,
                           match="band sizes must be at least 1 and integral"):
            runtime_scaling(unconstrained_cfg(), [8, n], repeats=1)

    def test_integral_float_size_is_accepted(self):
        rows, _ = runtime_scaling(unconstrained_cfg(), [8.0], repeats=1)
        assert rows[0][0] == 8
        assert isinstance(rows[0][0], int)

    def test_single_size_has_no_slope(self):
        rows, slope = runtime_scaling(unconstrained_cfg(), [16], repeats=2)
        assert len(rows) == 1
        assert np.isnan(slope)
