"""The whole parameter box: caps built directly, with every band size from
one tone to 64, up to eight adjacent bands, zero weights and zero caps,
tiny or infinite total caps, alpha and the BER ceiling over their open
ranges and CNIR over 14 decades.  The block solve and repair raise and warn
nothing there and give finite, non-negative powers; every repair is
feasible, every one-row solve passes ``kkt_verify``, and each block row is
bitwise its one-row solve and repair.  The box is drawn twice: by seeded
blocks, and by hypothesis over the same ranges."""

import math
import types
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

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


def certify(cnir, alpha, ber, caps):
    """Solve and repair the block and each of its rows alone, with every
    warning an error: the rows' case ids once each certifies, is feasible
    and matches its block row bitwise, and the block's powers are finite
    and non-negative."""
    plan = caps.plan(alpha, ber)
    su = types.SimpleNamespace(alpha=alpha, ber_threshold=ber)
    cases = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bits, powers = _solve_block(cnir, plan)[:2]
        d_bits, d_powers = _repair(bits, cnir, plan, 16)[:2]
        for t, c in enumerate(cnir):
            sol = solve_continuous(c, caps, su)
            assert kkt_verify(sol, c, ber, caps).passed
            alloc = round_and_repair(sol, caps, None, c, ber, 16)
            assert check_feasible(alloc, caps, c, ber).feasible
            assert sol.powers.tobytes() == powers[t].tobytes()
            assert alloc.powers.tobytes() == d_powers[t].tobytes()
            cases.append(sol.case_id)
    for p in (powers, d_powers):
        assert np.all(np.isfinite(p)) and np.all(p >= 0.0)
    assert np.all(d_bits >= 0)
    return cases


def test_box_blocks_and_rows_certify():
    rng = np.random.default_rng(2026)
    cases = [k for _ in range(200) for k in certify(*box_block(rng))]
    assert set(cases) == {5, 6, 7, 8}
    assert len(cases) > 400


@st.composite
def box_blocks(draw):
    """(cnir, alpha, ber, caps) over the box of ``box_block``: hypothesis
    draws the shape, alpha, the BER, how many weights and ACI caps are 0
    and the total cap's kind; a drawn seed fills the arrays."""
    n = draw(st.sampled_from([1, 2, 3, 8, 64]))
    l = draw(st.integers(0, 8))
    alpha = draw(st.floats(1e-6, 1.0 - 1e-6))
    ber = 10.0 ** draw(st.floats(-12.0, math.log10(0.19)))
    zero_weights = draw(st.sampled_from([0.0, 0.3, 1.0]))
    zero_caps = draw(st.integers(0, l))
    total = draw(st.sampled_from(["inf", "tiny", "near"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cnir = cnir_threshold(alpha, ber) * 10.0 ** rng.uniform(
        -4.0, 10.0, (draw(st.integers(1, 4)), n))
    omega = 10.0 ** rng.uniform(-4.0, 0.0, (n, l))
    omega[rng.random((n, l)) < zero_weights] = 0.0
    free = solve_raw(cnir[0], alpha, ber).powers
    total = (math.inf if total == "inf"
             else 10.0 ** rng.uniform(-15.0, -9.0) if total == "tiny"
             else np.sum(free) * 10.0 ** rng.uniform(-3.0, 0.3))
    aci = omega.T @ free * 10.0 ** rng.uniform(-3.0, 0.3, l)
    aci[rng.permutation(l)[:zero_caps]] = 0.0
    return cnir, alpha, ber, ConstraintCaps(total, aci, AciFactors(omega))


@given(box_blocks())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_box_drawn_by_hypothesis_certifies(block):
    certify(*block)


def test_huge_total_power_multiplier_certifies():
    # three tones 1e9-1e10 times over the threshold under a 1 nW total cap:
    # the power's stationarity residual is rounding of mu ~ 1.25e9
    cnir = cnir_threshold(0.5, 1e-4) * 10.0 ** np.linspace(9.0, 10.0, 3)
    sol = solve_raw(cnir, 0.5, 1e-4, 1e-9)
    assert sol.lambda_power > 1e9
    assert kkt_verify(sol, cnir, 1e-4, make_caps(3, 1e-9)).passed
