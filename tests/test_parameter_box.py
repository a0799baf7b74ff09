"""The whole parameter box: caps built directly, with every band size from
one tone to 64, up to eight adjacent bands, zero weights and zero caps,
tiny or infinite total caps, alpha and the BER ceiling over their open
ranges and CNIR over 14 decades.  The block solve and repair raise and warn
nothing there and give finite, non-negative powers; every repair is
feasible, and every one-row solve passes ``kkt_verify``."""

import math
import types
import warnings

import numpy as np

from crloading.channel import AciFactors
from crloading.constraints import ConstraintCaps, check_feasible
from crloading.discretizer import _repair, round_and_repair
from crloading.kkt import kkt_verify
from crloading.solver import _solve_block, cnir_threshold, solve_continuous

from conftest import make_caps, solve_raw


def box_block(rng):
    """(cnir, alpha, ber, caps) of one block of 1-4 rows sharing its caps:
    N in {1, 2, 3, 8, 64} and L in 0..8, alpha in [1e-6, 1 - 1e-6], BER in
    [1e-12, 0.19] and CNIR from 1e-4 to 1e10 times the loading threshold;
    30% of the weights and 10% of the ACI caps are 0, and the total cap is
    infinite (40%), tiny (30%, 1e-15 to 1e-9 W) or near the free power."""
    n = int(rng.choice([1, 2, 3, 8, 64]))
    l = int(rng.integers(0, 9))
    alpha = float(rng.uniform(1e-6, 1.0 - 1e-6))
    ber = float(10.0 ** rng.uniform(-12.0, math.log10(0.19)))
    cnir = cnir_threshold(alpha, ber) * 10.0 ** rng.uniform(
        -4.0, 10.0, (int(rng.integers(1, 5)), n))
    omega = 10.0 ** rng.uniform(-4.0, 0.0, (n, l))
    omega[rng.random((n, l)) < 0.3] = 0.0
    free = solve_raw(cnir[0], alpha, ber).powers
    u = rng.random()
    total = (math.inf if u < 0.4 else 10.0 ** rng.uniform(-15.0, -9.0)
             if u < 0.7 else np.sum(free) * 10.0 ** rng.uniform(-3.0, 0.3))
    aci = omega.T @ free * 10.0 ** rng.uniform(-3.0, 0.3, l)
    aci[rng.random(l) < 0.1] = 0.0
    return cnir, alpha, ber, ConstraintCaps(total, aci, AciFactors(omega))


def test_box_blocks_and_rows_certify():
    rng = np.random.default_rng(2026)
    rows = 0
    cases = set()
    for _ in range(200):
        cnir, alpha, ber, caps = box_block(rng)
        plan = caps.plan(alpha, ber)
        su = types.SimpleNamespace(alpha=alpha, ber_threshold=ber)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bits, powers = _solve_block(cnir, plan)[:2]
            d_bits, d_powers = _repair(bits, cnir, plan, 16)[:2]
            for c in cnir:
                sol = solve_continuous(c, caps, su)
                assert kkt_verify(sol, c, ber, caps).passed
                alloc = round_and_repair(sol, caps, None, c, ber, 16)
                assert check_feasible(alloc, caps, c, ber).feasible
                cases.add(sol.case_id)
                rows += 1
        for p in (powers, d_powers):
            assert np.all(np.isfinite(p)) and np.all(p >= 0.0)
        assert np.all(d_bits >= 0)
    assert cases == {5, 6, 7, 8}
    assert rows > 400


def test_huge_total_power_multiplier_certifies():
    # three tones 1e9-1e10 times over the threshold under a 1 nW total cap:
    # the power's stationarity residual is rounding of mu ~ 1.25e9
    cnir = cnir_threshold(0.5, 1e-4) * 10.0 ** np.linspace(9.0, 10.0, 3)
    sol = solve_raw(cnir, 0.5, 1e-4, 1e-9)
    assert sol.lambda_power > 1e9
    assert kkt_verify(sol, cnir, 1e-4, make_caps(3, 1e-9)).passed
