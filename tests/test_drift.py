"""Drift of the float solve against an exact one: on 100 seeded rows
(``random_instance``, every third squeezed so both caps bind), the
multipliers, each tone's weighted multiplier sum, the powers and the caps'
loads stay within fixed bounds of the same KKT system solved at 50 digits
(``exact_reference``)."""

import types

import numpy as np
from mpmath import mp

from crloading.solver import solve_continuous

from conftest import random_instance
from exact_reference import exact_loads, exact_solve


def test_float_solve_within_bounds_of_exact():
    # Bounds sit ~10x above the worst drift of 300 such rows (lambda
    # 8.3e-11, P 1.7e-12, load over cap 1.2e-12).  A multiplier whose
    # weighted term is small beside alpha is ill-conditioned: its load
    # meets the cap to ~1e-12, which moves it by that times mu / (w lam),
    # and 2,000 rows over 20 seeds reached 5.3e-10 that way.  What the
    # tones read, sum_j w_ij lam_j relative to mu_i, is well conditioned:
    # those 2,000 rows (seeds 0-19) drifted 2.9e-12 at worst.
    rng = np.random.default_rng(1729)
    worst = {"lam": 0.0, "mu": 0.0, "powers": 0.0, "load": 0.0}
    binding = []
    for r in range(100):
        cnir, alpha, ber, caps = random_instance(
            rng, "both" if r % 3 == 0 else None)
        sol = solve_continuous(cnir, caps, types.SimpleNamespace(
            alpha=alpha, ber_threshold=ber))
        lam, powers = exact_solve(sol, cnir, ber, caps)
        lam_float = [sol.lambda_power, *sol.lambda_aci]
        binding.append(sum(x > 0.0 for x in lam_float))
        with mp.workdps(50):
            for x, e in zip(lam_float, lam):
                if x > 0.0:
                    worst["lam"] = max(worst["lam"], float(abs(x - e) / e))
            for i in sol.active_set:
                w = [1.0, *caps.aci_weights.omega[i]]
                e = mp.fsum(mp.mpf(wj) * x for wj, x in zip(w, lam))
                x = mp.fsum(mp.mpf(wj) * mp.mpf(x)
                            for wj, x in zip(w, lam_float))
                worst["mu"] = max(worst["mu"],
                                  float(abs(x - e) / (alpha + e)))
            for x, e in zip(sol.powers, powers):
                if e > 0.0:
                    worst["powers"] = max(worst["powers"],
                                          float(abs(x - e) / e))
                else:
                    assert x == 0.0
            for load, cap in zip(exact_loads(sol.powers, caps),
                                 [caps.total_cap, *caps.aci_caps]):
                if np.isfinite(cap):
                    worst["load"] = max(worst["load"],
                                        float((load - cap) / cap))
    assert binding.count(2) >= 10 and binding.count(1) >= 30
    assert worst["lam"] <= 1e-9, worst
    assert worst["mu"] <= 3e-11, worst
    assert worst["powers"] <= 1e-11, worst
    assert worst["load"] <= 1e-11, worst
