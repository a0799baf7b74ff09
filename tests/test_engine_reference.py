"""The block engine equals its reference copy bit for bit.

``engine_reference`` keeps ``_solve_block``, ``_solve_duals`` and ``_strip``
as they stood before each round was made only as wide as its work: there,
mu is (T, N) whatever the multipliers, every load column multiplies by its
weights, bits are taken on every row still looping, and a repair round
orders all of a row's live tones.  Every test here requires the shipped
engine's bits, powers, multipliers, active sets and repair steps to be
``np.array_equal`` to the reference's.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import engine_reference as ref
from conftest import adjacent_band_scenario, make_caps, solve_raw
from crloading import discretizer, experiments, solver
from crloading.constraints import build_caps
from crloading.discretizer import _pricing, _repair, round_and_repair
from crloading.experiments import run_trial
from crloading.scenario import apply_parameter, load_scenario
from crloading.solver import _solve_block, cnir_threshold, solve_continuous

pytestmark = pytest.mark.bitwise

CONFIGS = [("cci_binding", None), ("default", None), ("small_n6", None),
           ("default", 1024)]


def assert_engine_matches_reference(cnir, plan, max_bits, monkeypatch):
    """Solve and repair the (T, N) block with the shipped engine, then with
    the reference solve and the reference ``_strip``; every array must be
    equal.  Returns the solve's (bits, powers, lam, active)."""
    solved = _solve_block(cnir, plan)
    for got, want in zip(solved, ref._solve_block(cnir, plan)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    repaired = _repair(solved[0], cnir, plan, max_bits)[:3]
    with monkeypatch.context() as m:
        m.setattr(discretizer, "_strip", ref._strip)
        expected = _repair(solved[0], cnir, plan, max_bits)[:3]
    for got, want in zip(repaired, expected):
        assert np.array_equal(got, want)
    for got, want in zip(repaired, ref._repair_block(solved[0], cnir, plan,
                                                     max_bits)):
        assert np.array_equal(got, want)
    return solved


def assert_one_row_calls_match_reference(cfg, trials, seed):
    """``run_trial``, and ``solve_continuous`` then ``round_and_repair``, on
    each trial's draw: bits, powers, multipliers, active set and repair
    steps must equal the reference one-row solve and repair.  Returns the
    reference multipliers, one row per trial."""
    su = cfg.su
    caps = build_caps(cfg)
    plan = caps.plan(su.alpha, su.ber_threshold)
    lams = []
    for t in trials:
        cnir = experiments._draw(cfg, seed, [t])[0]
        bits, powers, lam, active = ref._solve_block(cnir, plan)
        want = ref._repair_block(bits, cnir, plan, su.max_bits)
        trial = run_trial(cfg, caps, t, seed)
        alloc, sol = trial.allocation, trial.solution
        sol_alone = solve_continuous(cnir[0], caps, su)
        for s, a in ((sol, alloc), (sol_alone, round_and_repair(
                sol_alone, caps, None, cnir[0], su.ber_threshold,
                su.max_bits))):
            assert np.array_equal(s.bits, bits[0])
            assert np.array_equal(s.powers, powers[0])
            assert np.array_equal([s.lambda_power, *s.lambda_aci], lam[0])
            assert np.array_equal(s.active_set, np.flatnonzero(active[0]))
            assert np.array_equal(a.bits, want[0][0])
            assert np.array_equal(a.powers, want[1][0])
            assert a.repair_steps == want[2][0]
        lams.append(lam[0])
    return np.array(lams)


def config(name, n, psi):
    cfg = load_scenario(f"configs/{name}.json")
    if n:
        cfg = replace(cfg, su=replace(cfg.su, num_subcarriers=n))
    return apply_parameter(cfg, "psi", psi)


def monte_carlo_block(cfg, seed):
    """A Monte Carlo block of ``cfg``'s draws and the caps' plan."""
    su = cfg.su
    plan = build_caps(cfg).plan(su.alpha, su.ber_threshold)
    trials = max(1, experiments._BLOCK_ENTRIES // su.num_subcarriers)
    return experiments._draw(cfg, seed, range(trials))[0], plan


@pytest.mark.parametrize("psi", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("name,n", CONFIGS,
                         ids=[f"{c}-{n or 'own'}" for c, n in CONFIGS])
def test_shipped_configs(name, n, psi, monkeypatch):
    cfg = config(name, n, psi)
    cnir, plan = monte_carlo_block(cfg, 1234)
    assert_engine_matches_reference(cnir, plan, cfg.su.max_bits, monkeypatch)
    for row in cnir[:3]:                    # one-row calls, as run_trial's
        assert_engine_matches_reference(row[None], plan, cfg.su.max_bits,
                                        monkeypatch)


# 200 one-row calls in all: 120 on the shipped configs, 30 small_n6 rows
# with an ACI multiplier, 20 four-band draws and 30 under zero caps.
@pytest.mark.parametrize("psi", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("name,n", CONFIGS,
                         ids=[f"{c}-{n or 'own'}" for c, n in CONFIGS])
def test_one_row_calls_on_shipped_configs(name, n, psi):
    assert_one_row_calls_match_reference(config(name, n, psi), range(10),
                                         1234)


def test_one_row_calls_with_an_aci_multiplier():
    cfg = config("small_n6", None, 0.6)
    cnir, plan = monte_carlo_block(cfg, 42)
    rows = np.flatnonzero(ref._solve_block(cnir[:200], plan)[2][:, 1] > 0)
    lam = assert_one_row_calls_match_reference(cfg, rows[:30], 42)
    assert len(lam) == 30 and np.all(lam[:, 1] > 0)


def test_one_row_calls_through_the_coupled_newton(monkeypatch):
    # four adjacent bands at N = 62: most draws need the coupled step
    cfg = adjacent_band_scenario(np.random.default_rng(2024))
    calls, newton = [], solver._newton_duals

    def spy(*args):
        calls.append(args[1].shape)
        return newton(*args)
    monkeypatch.setattr(solver, "_newton_duals", spy)
    assert_one_row_calls_match_reference(cfg, range(20), 0)
    assert len(calls) >= 12       # 12 of the 20 draws reach it


@pytest.mark.parametrize("name", ["default", "small_n6"])
def test_one_row_calls_under_zero_caps(name):
    # psi = 1 maps every finite interference limit to a cap of 0: default
    # loads nothing, small_n6 only the tones its adjacent band never sees
    cfg = config(name, None, 1.0)
    assert_one_row_calls_match_reference(cfg, range(15), 1234)
    bits = np.array([run_trial(cfg, build_caps(cfg), t, 1234).allocation.bits
                     for t in range(15)])
    omega = build_caps(cfg).aci_weights.omega
    assert not bits[:, omega.any(1) | (name == "default")].any()


@pytest.mark.parametrize("psi", [0.5, 0.6, 0.7])
def test_small_n6_mixes_rows_with_and_without_aci_multiplier(psi,
                                                             monkeypatch):
    # mu takes the ACI column on every row once one row's multiplier is
    # positive, and drops it again when the rows left have none
    cfg = config("small_n6", None, psi)
    cnir, plan = monte_carlo_block(cfg, 42)
    lam = assert_engine_matches_reference(cnir[:500], plan, cfg.su.max_bits,
                                          monkeypatch)[2]
    assert np.count_nonzero(lam[:, 1] > 0) > 50
    assert np.count_nonzero(lam[:, 1] == 0) > 50


def test_four_bands_where_only_a_later_column_binds(monkeypatch):
    # Four ACI columns; only column 2, 3 or 4 (or 2 and 4) is tight, the
    # others loose or never enforced.  Rows scale the CNIR, so one block
    # mixes rows that bind it with rows that do not.  The last block, 32
    # rows x 256 tones, is the one of 4,096 entries or more with several
    # bands (the shipped configs have one at most): the engine's loads, a
    # BLAS product per row, must decide there as the reference's
    # elementwise sums do.
    rng = np.random.default_rng(1492)
    later = 0
    for k in range(25):
        n = 256 if k == 24 else int(rng.integers(2, 257))
        alpha = float(rng.uniform(0.25, 0.75))
        ber = float(10.0 ** rng.uniform(-5.0, -2.3))
        base = cnir_threshold(alpha, ber) * 10.0 ** rng.uniform(-0.3, 3.0, n)
        cnir = base * 10.0 ** rng.uniform(-1.0, 1.0, (32 if k == 24 else 8,
                                                       1))
        omega = rng.uniform(0.0, 1.0, (n, 4)) * 10.0 ** rng.uniform(
            -3.0, 0.0, (n, 4))
        free = solve_raw(base, alpha, ber).powers
        tight = [(1,), (2,), (3,), (1, 3)][k % 4]
        loose = np.setdiff1d(np.arange(4), tight)
        aci = omega.T @ free * rng.uniform(0.05, 0.6, 4)
        aci[loose] *= 100.0
        aci[0] = math.inf if k % 2 else aci[0]
        total = math.inf if k % 3 else 10.0 * float(np.sum(free))
        plan = make_caps(n, total, aci, omega).plan(alpha, ber)
        lam = assert_engine_matches_reference(cnir, plan, 16, monkeypatch)[2]
        assert not np.count_nonzero(lam[:, 1 + loose])
        later += np.count_nonzero(lam[:, 2:].any(1))
    assert later > 50


def test_zero_caps(monkeypatch):
    # A zero total cap forbids every tone; a zero ACI cap forbids the tones
    # it weights, here half of them, while the other cap still binds.
    rng = np.random.default_rng(7)
    n, alpha, ber = 64, 0.5, 1e-4
    cnir = cnir_threshold(alpha, ber) * 10.0 ** rng.uniform(-0.5, 3.0,
                                                            (40, n))
    omega = rng.uniform(0.1, 1.0, (n, 2))
    omega[::2, 0] = 0.0
    for total, aci in ((0.0, [1e-3, 1e-3]), (math.inf, [0.0, 1e-2]),
                       (1e-2, [0.0, 0.0])):
        plan = make_caps(n, total, aci, omega).plan(alpha, ber)
        bits = assert_engine_matches_reference(cnir, plan, 16,
                                               monkeypatch)[0]
        assert not bits[:, omega[:, 0] > 0].any()
        assert bits.any() == (total > 0 and aci[1] > 0)


def tied_rows(rng, t, n, eights):
    """(cont_bits, cnir, plan): t shuffles of one row of n tones at one
    CNIR, ``eights`` of them at 8 bits (the tied top savings), the rest at
    6 or 5; the total cap is 4.5 top savings under the rows' power."""
    row = np.resize([6.0, 5.0], n)
    row[:eights] = 8.0
    bits = np.array([rng.permutation(row) for _ in range(t)])
    cnir = np.full((t, n), 100.0)
    lg = make_caps(n).plan(0.5, 1e-4).lg
    cost, head, _ = _pricing(16)
    power = float(np.sum(cost[row.astype(int)] * -lg / 160.0))
    total = power - 4.5 * head[8] * -lg[0] / 160.0
    return bits, cnir, make_caps(n, total).plan(0.5, 1e-4)


@pytest.mark.parametrize("sort_all", [discretizer._SORT_ALL, 0])
def test_narrowed_round_boundary_inside_tied_savings(sort_all, monkeypatch):
    # Rows of 128 tones, 45 of them at 8 bits: their savings tie at the
    # top.  The total is over by 4.5 top savings, so a round needs 7 picks
    # (1 + ceil(4.5 / 0.8)), and the 7th largest saving of each row sits
    # inside its tied group.  The round must keep that whole group: picks
    # from an arbitrary part of it are not the lowest-index tones that the
    # greedy takes.  12 x 128 savings exceed _SORT_ALL, so the shipped
    # value partitions too.
    monkeypatch.setattr(discretizer, "_SORT_ALL", sort_all)
    rng = np.random.default_rng(1234)
    cont, cnir, plan = tied_rows(rng, 12, 128, 45)
    assert cont.size > 1024
    bits, _, steps = _repair(cont, cnir, plan, 16)[:3]
    with monkeypatch.context() as m:
        m.setattr(discretizer, "_strip", ref._strip)
        want_bits, _, want_steps = _repair(cont, cnir, plan, 16)[:3]
    assert np.array_equal(bits, want_bits)
    assert np.array_equal(steps, want_steps)
    # the greedy strips the lowest-index 8-bit tones of each row first
    for row, got in zip(cont, bits):
        eight = np.flatnonzero(row == 8.0)
        cut = np.flatnonzero(got != row)
        assert 4 <= cut.size < eight.size
        assert np.array_equal(cut, eight[:cut.size])
