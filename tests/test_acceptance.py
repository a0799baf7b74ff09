"""Acceptance gate: ten numbered criteria, one printed line each.

Each test prints "[acceptance] criterion k: PASS/FAIL - <what it checks>"
on the real stdout (bypassing capture) and then asserts.  Together they
pin the calibration value, the closed forms, optimality certificates,
statistical guarantees, oracle gaps, trend shapes, repair correctness,
quadrature accuracy, and runtime scaling.
"""

import math
import sys
import types

import numpy as np
import pytest

from crloading.channel import _sinc2_windows, path_loss_db
from crloading.constraints import build_caps, cci_power_cap
from crloading.discretizer import round_and_repair
from crloading.experiments import (compare_with_oracle, run_monte_carlo,
                                   runtime_scaling, sweep_experiment)
from crloading.kkt import kkt_verify
from crloading.oracle import exhaustive_search
from crloading.scenario import PathLossParams, load_scenario
from crloading.solver import cnir_threshold, solve_continuous

from conftest import random_instance, solve_raw


_CAPFD = None


@pytest.fixture(autouse=True)
def _capture_escape(capfd):
    # fd-level capture swallows even sys.__stdout__ writes on passing
    # tests; hold on to the capture fixture so _report can lift it just
    # long enough to show each verdict on every run.
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def _report(num, desc, ok):
    line = (f"[acceptance] criterion {num:2d}: "
            f"{'PASS' if ok else 'FAIL'} - {desc}")
    if _CAPFD is not None:
        with _CAPFD.disabled():
            print(line, file=sys.__stdout__, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _su(alpha, ber):
    return types.SimpleNamespace(alpha=alpha, ber_threshold=ber)


def _scenario(n, *, gain=1e-7, pth="inf", pus=None, seed=1234, max_bits=16):
    return load_scenario({
        "su": {"num_subcarriers": n, "symbol_duration": 1.024e-4,
               "noise_variance": 1e-9, "ber_threshold": 1e-4,
               "su_link_gain": gain, "power_threshold": pth,
               "max_bits": max_bits},
        "path_loss": {"exponent": 4.0, "wavelength": 1 / 3,
                      "reference_distance": 500.0},
        "pus": pus or [{"kind": "cochannel", "distance": 5000.0,
                        "interference_cap": "inf", "probability": 0.9}],
        "experiment": {"trials": 1000, "seed": seed},
    })


ADJ_PU = {"kind": "adjacent", "distance": 1000.0,
          "interference_cap": 1e-11, "probability": 0.9,
          "bandwidth": 1.25e6, "center_offset": 6.25e5}


def test_c01_calibration():
    loss = path_loss_db(5000.0, PathLossParams(exponent=4.0,
                                               wavelength=1.0 / 3.0,
                                               reference_distance=500.0))
    cap = cci_power_cap(1.0, loss, 0.9, 1e-14, math.inf)
    ok = abs(cap - 15.4307e-3) / 15.4307e-3 <= 0.02
    _report(1, f"co-channel power cap {cap * 1e3:.4f} mW vs 15.4307 mW "
               "(2% tolerance)", ok)


def test_c02_closed_forms():
    rng = np.random.default_rng(20230214)
    checked = 0
    worst_ber = worst_ident = worst_edge = 0.0
    for _ in range(120):
        alpha = float(rng.uniform(0.1, 0.9))
        ber = float(10.0 ** rng.uniform(-5.0, -2.0))
        cth = cnir_threshold(alpha, ber)
        cnir = cth * rng.lognormal(1.0, 0.8, size=100)
        sol = solve_raw(cnir, alpha, ber)
        act = sol.active_set
        if act.size:
            b, p, c = sol.bits[act], sol.powers[act], cnir[act]
            got = 0.2 * np.exp(-1.6 * c * p / (2.0 ** b - 1.0))
            worst_ber = max(worst_ber,
                            float(np.max(np.abs(got - ber) / ber)))
            ident = (1 - alpha) / (alpha * math.log(2)) * (1 - 2.0 ** -b)
            worst_ident = max(worst_ident,
                              float(np.max(np.abs(p - ident) / ident)))
            checked += act.size
        edge = solve_raw(np.array([cth]), alpha, ber)
        worst_edge = max(worst_edge, abs(float(edge.bits[0]) - 2.0))
    ok = (checked >= 10_000 and worst_ber <= 1e-9
          and worst_ident <= 1e-9 and worst_edge <= 1e-9)
    _report(2, f"closed forms on {checked} tuples: BER resid "
               f"{worst_ber:.1e}, identity resid {worst_ident:.1e}, "
               f"threshold bit gap {worst_edge:.1e} (tol 1e-9)", ok)


def test_c03_kkt_certifies_all_regimes():
    rng = np.random.default_rng(5150)
    counts = {5: 0, 6: 0, 7: 0, 8: 0}
    failures = 0
    for _ in range(1000):
        cnir, alpha, ber, caps = random_instance(rng)
        sol = solve_continuous(cnir, caps, _su(alpha, ber))
        counts[sol.case_id] += 1
        if not kkt_verify(sol, cnir, ber, caps).passed:
            failures += 1
    ok = failures == 0 and all(v >= 50 for v in counts.values())
    _report(3, f"KKT pass on 1000 instances (failures={failures}, "
               f"case counts={counts}, need >=50 each)", ok)


def test_c04_binding_equalities():
    rng = np.random.default_rng(6174)
    worst = 0.0
    neg_mult = 0.0
    for _ in range(1000):
        cnir, alpha, ber, caps = random_instance(rng)
        sol = solve_continuous(cnir, caps, _su(alpha, ber))
        neg_mult = min(neg_mult, sol.lambda_power,
                       float(np.min(sol.lambda_aci, initial=0.0)))
        if sol.case_id in (6, 8):
            worst = max(worst, abs(np.sum(sol.powers) - caps.total_cap)
                        / caps.total_cap)
        if sol.case_id in (7, 8):
            loads = caps.aci_weights.omega.T @ sol.powers
            for load, cap, lam in zip(loads, caps.aci_caps, sol.lambda_aci):
                if lam > 0.0:
                    worst = max(worst, abs(load - cap) / cap)
    ok = worst <= 1e-9 and neg_mult >= 0.0
    _report(4, f"binding caps met with equality (worst rel dev {worst:.1e},"
               f" most negative multiplier {neg_mult:.1e})", ok)


def test_c05_violation_rates_match_risk_budget():
    trials = 10_000
    psis = [0.8, 0.9, 0.99]
    cci_cfg = load_scenario("configs/cci_binding.json")
    aci_cfg = _scenario(16, pus=[dict(ADJ_PU)], seed=2718)
    ok = True
    summary = []
    for cfg, field in ((cci_cfg, "cci_violation_rate"),
                       (aci_cfg, "aci_violation_rate")):
        for psi, (_, stats) in zip(
                psis, sweep_experiment(cfg, "psi", psis, trials=trials)):
            rate = getattr(stats, field)
            half = 3.0 * math.sqrt(psi * (1.0 - psi) / trials)
            ok &= abs(rate - (1.0 - psi)) <= half
            summary.append(f"{field[:3]}@{psi}:{rate:.4f}")
    _report(5, "violation rate = 1-psi within 3 sigma at T=10^4 "
               f"({', '.join(summary)})", ok)


def test_c06_oracle_gap_and_speedup():
    ok = True
    notes = []
    speedup8 = 0.0
    for n, pth in ((4, 2.0), (6, 3.0), (8, 4.0)):
        cfg = _scenario(n, gain=1e-6, pth=pth, seed=31415, max_bits=8)
        cmp = compare_with_oracle(cfg, 100)
        gaps = cmp.gaps()
        ok &= bool(np.all(gaps >= -1e-12))
        ok &= float(np.median(gaps)) <= 0.05
        ok &= float(np.max(gaps)) <= 0.15
        notes.append(f"N={n}: med {np.median(gaps):.2%} "
                     f"max {np.max(gaps):.2%}")
        if n == 8:
            speedup8 = cmp.speedup
    ok &= speedup8 >= 100.0
    _report(6, f"oracle gap ({'; '.join(notes)}); speedup at N=8 "
               f"{speedup8:.0f}x (need >=100x)", ok)


def test_c07_trend_suite():
    free = _scenario(8, seed=424242)
    cci = load_scenario("configs/cci_binding.json")
    aci = _scenario(6, pus=[dict(ADJ_PU)], seed=99)
    hard = _scenario(32, gain=1.0, pth=1e-4, seed=777,
                     pus=[{"kind": "cochannel", "distance": 5000.0,
                           "interference_cap": 1e-14, "probability": 0.9}])
    t = 1000

    def tputs(cfg, param, values):
        return [s.avg_throughput
                for _, s in sweep_experiment(cfg, param, values, trials=t)]

    # (a) with every cap infinite, psi cannot matter: CRN makes the
    # sweep rows bit-identical
    rows = sweep_experiment(free, "psi", [0.5, 0.6, 0.7, 0.8, 0.9],
                            trials=t)
    a_ok = all(s == rows[0][1] for _, s in rows[1:])

    # (b) heavier power weighting never raises throughput or power
    rows = sweep_experiment(free, "alpha", [0.2, 0.35, 0.5, 0.65, 0.8],
                            trials=t)
    tp = [s.avg_throughput for _, s in rows]
    pw = [s.avg_power for _, s in rows]
    b_ok = (all(x >= y for x, y in zip(tp, tp[1:])) and tp[0] > tp[-1]
            and all(x >= y for x, y in zip(pw, pw[1:])) and pw[0] > pw[-1])

    # (c) relaxing either interference limit only helps, and once the cap
    # clears the unconstrained optimum the curve flattens exactly
    ta = tputs(aci, "p_aci", [1e-12, 5e-12, 2e-11, 1e-3, 1e-2])
    tc = tputs(cci, "p_cci", [1e-15, 1e-14, 1e-13, 1e-9, 1e-8])
    c_ok = (all(x <= y for x, y in zip(ta, ta[1:])) and ta[-2] == ta[-1]
            and all(x <= y for x, y in zip(tc, tc[1:])) and tc[-2] == tc[-1]
            and ta[0] < ta[-1] and tc[0] < tc[-1])

    # (d) total certainty of violation forbids transmitting at all
    rows = sweep_experiment(cci, "psi", [0.8, 0.9, 0.95, 0.99, 1.0],
                            trials=t)
    td = [s.avg_throughput for _, s in rows]
    d_ok = (all(x >= y for x, y in zip(td, td[1:])) and td[-1] == 0.0
            and rows[-1][1].avg_power == 0.0)

    # (e) with the 0.1 mW hard limit in place, the co-channel sweep
    # saturates exactly where the statistical cap crosses it
    te = tputs(hard, "p_cci", [1e-17, 3e-17, 6e-17, 1e-16, 1e-15])
    from crloading.scenario import apply_parameter
    caps_hi = [build_caps(apply_parameter(hard, "p_cci", v)).total_cap
               for v in (1e-16, 1e-15)]
    e_ok = (all(x <= y for x, y in zip(te, te[1:])) and te[-2] == te[-1]
            and te[0] < te[-1] and caps_hi == [1e-4, 1e-4])

    ok = a_ok and b_ok and c_ok and d_ok and e_ok
    _report(7, "trend suite: psi-invariant when uncapped "
               f"[{a_ok}], monotone in alpha [{b_ok}], relaxing limits "
               f"helps then saturates [{c_ok}], silent at psi=1 [{d_ok}], "
               f"hard-limit saturation [{e_ok}]", ok)


def test_c08_repair_correctness():
    rng = np.random.default_rng(31337)
    n_total = 10_000
    infeasible = 0
    worst_ber = 0.0
    oracle_checked = 0
    oracle_beaten = 0
    for _ in range(n_total):
        cnir, alpha, ber, caps = random_instance(rng)
        sol = solve_continuous(cnir, caps, _su(alpha, ber))
        alloc = round_and_repair(sol, caps, caps.aci_weights.omega, cnir,
                                 ber, max_bits=8)
        loads = caps.aci_weights.omega.T @ alloc.powers
        if (np.sum(alloc.powers) > caps.total_cap * (1 + 1e-9)
                or np.any(loads > caps.aci_caps * (1 + 1e-9))):
            infeasible += 1
        on = alloc.bits >= 2
        if np.any(on):
            got = 0.2 * np.exp(-1.6 * alloc.powers[on] * cnir[on]
                               / (2.0 ** alloc.bits[on] - 1.0))
            worst_ber = max(worst_ber,
                            float(np.max(np.abs(got - ber) / ber)))
        if cnir.size <= 6:
            opt = exhaustive_search(cnir, alpha, ber, caps,
                                    omega=caps.aci_weights.omega, b_max=8)
            oracle_checked += 1
            if alloc.objective < opt.objective - 1e-12:
                oracle_beaten += 1
    ok = (infeasible == 0 and worst_ber <= 1e-9 and oracle_beaten == 0
          and oracle_checked > 1000)
    _report(8, f"repair on {n_total} instances: infeasible={infeasible}, "
               f"worst BER resid {worst_ber:.1e}, discrete optimum "
               f"violated {oracle_beaten}/{oracle_checked} times", ok)


def test_c09_quadrature():
    # the rule that builds the overlap matrix, on windows [lo, hi] of sinc^2
    def integral(lo, hi):
        return float(_sinc2_windows(np.zeros(1), lo, hi - lo)[0])

    # full overlap of an entire (wide) band with itself: factor -> 1
    width = 1.024e-4 * 1.0e8
    wide = integral(-0.5 * width, 0.5 * width)
    wide_ok = abs(wide - 1.0) <= 1e-4
    # central unit-width window of the squared-sinc kernel, frozen from an
    # independent high-order quadrature
    main = integral(-0.5, 0.5)
    main_ok = abs(main - 0.7736950099028163) <= 1e-6
    # splitting an interval must not change the integral
    whole = integral(-3.0, 5.0)
    parts = integral(-3.0, 0.7) + integral(0.7, 5.0)
    add_ok = abs(whole - parts) <= 1e-9
    ok = wide_ok and main_ok and add_ok
    _report(9, f"quadrature: wide-band limit {wide:.6f} (tol 1e-4), "
               f"main window dev {abs(main - 0.7736950099028163):.1e} "
               f"(tol 1e-6), additivity dev {abs(whole - parts):.1e} "
               f"(tol 1e-9)", ok)


def test_c10_runtime_scaling():
    cfg = load_scenario("configs/default.json")
    rows, slope = runtime_scaling(cfg, [64, 128, 256, 512], repeats=3)
    ok = (np.isfinite(slope) and slope <= 2.5
          and all(t > 0 for _, t in rows))
    _report(10, f"solver runtime log-log slope {slope:.2f} over "
                "N=64..512 (need <= 2.5)", ok)
