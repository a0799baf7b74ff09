"""Shared fixtures/helpers for the test suite."""

import numpy as np
import pytest

from crloading.channel import AciFactors, ChannelRealization
from crloading.constraints import ConstraintCaps
from crloading.solver import solve_capped


def make_caps(n, total_cap=np.inf, aci_caps=(), omega=None):
    """ConstraintCaps from raw numbers (no scenario round-trip).

    ``omega`` defaults to an (n, L) matrix of zeros sized to aci_caps.
    """
    aci = np.asarray(aci_caps, dtype=float)
    if omega is None:
        omega = np.zeros((n, aci.size))
    omega = np.asarray(omega, dtype=float).reshape(n, -1)
    return ConstraintCaps(total_cap=float(total_cap), aci_caps=aci,
                          aci_weights=AciFactors(omega=omega))


def make_realization(cnir):
    c = np.asarray(cnir, dtype=float)
    return ChannelRealization(gains=c.copy(), pu_interference=np.zeros_like(c),
                              cnir=c)


def random_instance(rng, kind=None, n_lo=2, n_hi=8):
    """One random solver problem: (cnir, alpha, ber, caps).

    ``kind`` picks which constraint family the caps squeeze: None draws
    uniformly from {"free", "total", "aci", "both"}.  Caps are set to a
    fraction of the unconstrained solution's totals so the intended family
    actually binds (unless the draw nulls everything, in which case the
    instance degenerates to "free" -- callers that care filter on case_id).
    """
    if kind is None:
        kind = rng.choice(["free", "total", "aci", "both"])
    n = int(rng.integers(n_lo, n_hi + 1))
    alpha = float(rng.uniform(0.25, 0.75))
    ber = float(10.0 ** rng.uniform(-5.0, -2.3))
    from crloading.solver import cnir_threshold
    cth = cnir_threshold(alpha, ber)
    cnir = cth * rng.lognormal(mean=0.7, sigma=0.7, size=n)
    omega = rng.uniform(0.05, 0.6, size=(n, 1))
    base = solve_capped(cnir, alpha, ber)
    total5 = float(np.sum(base.powers))
    load5 = float(base.powers @ omega[:, 0])
    total_cap = np.inf
    aci_cap = np.inf
    if total5 > 0.0:
        if kind == "total":
            total_cap = total5 * float(rng.uniform(0.35, 0.85))
        elif kind == "aci":
            aci_cap = load5 * float(rng.uniform(0.35, 0.85))
        elif kind == "both":
            # Independent draws almost never bind jointly (capping the
            # budget also deflates the weighted load), so squeeze the
            # load of the budget-capped optimum instead.
            total_cap = total5 * float(rng.uniform(0.45, 0.85))
            capped = solve_capped(cnir, alpha, ber, total_cap)
            load6 = float(capped.powers @ omega[:, 0])
            if load6 > 0.0:
                aci_cap = load6 * float(rng.uniform(0.95, 0.995))
    caps = make_caps(n, total_cap, [aci_cap], omega)
    return cnir, alpha, ber, caps


@pytest.fixture
def rng():
    return np.random.default_rng(20231201)
