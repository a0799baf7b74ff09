"""First-order optimality verification for continuous loading solutions.

The Lagrangian of the scalarized problem couples, per loaded subcarrier, a
BER-equality multiplier lam_i with the cap multipliers.  Stationarity with
respect to power fixes lam_i uniquely:

    lam_i = mu_i (2^b_i - 1) / (1.6 C_i BER_i)

with mu_i = alpha + lam_pow + sum_l w_il lam_aci_l and BER_i the tone's
BER 0.2 exp(-1.6 C_i P_i / (2^b_i - 1)) from ``ber_audit``.  That recovered
multiplier must be positive, and substituting it into the stationarity
condition with respect to bits must leave a residual of zero.  The power's
residual, mu_i less mu_i's own quotient, is only rounding of mu_i, so it is
held to the tolerance times max(1, max mu_i).  Primal feasibility,
complementary slackness, and dual sign complete the check.
A BER meets its ceiling, and a load its cap, by ``check_feasible``'s rules
(``constraints.ber_audit``, ``cap_audit``); ``primal`` is the worst excess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import _check_tones, ber_audit, cap_audit
from .errors import SolverError


@dataclass(frozen=True)
class KktTolerances:
    stationarity: float = 1e-8
    complementarity: float = 1e-10
    dual_sign: float = 1e-12


@dataclass(frozen=True)
class KktReport:
    stationarity_power: float   # max |d L / d P_i| with recovered lam_i
    stationarity_bits: float    # max |d L / d b_i| with recovered lam_i
    primal: float               # max relative constraint violation
    complementarity: float      # max |lam * slack| over cap constraints
    dual_sign: float            # most negative multiplier (>= 0 when clean)
    passed: bool

    def to_dict(self) -> dict:
        return {
            "stationarity_power": self.stationarity_power,
            "stationarity_bits": self.stationarity_bits,
            "primal": self.primal,
            "complementarity": self.complementarity,
            "dual_sign": self.dual_sign,
            "pass": self.passed,
        }


def kkt_verify(solution, cnir, ber_threshold, caps,
               tols: KktTolerances | None = None) -> KktReport:
    """Check a ContinuousSolution against the first-order conditions.

    Nulled subcarriers sit outside the continuous problem (their BER model
    degenerates), so the per-subcarrier conditions are evaluated on the
    active set only.  Bits, powers, CNIR and BER ceiling are checked as
    ``check_feasible`` checks them, and ``lambda_aci`` must have one entry
    per ACI cap (``SolverError`` otherwise).
    """
    tols = tols or KktTolerances()
    c, ceiling = _check_tones(solution.bits, solution.powers, cnir,
                              ber_threshold, caps)
    alpha = solution.alpha
    omega = caps.aci_weights.omega
    lam_pow = solution.lambda_power
    lam_aci = np.asarray(solution.lambda_aci, dtype=float)
    if lam_aci.shape != omega.shape[1:]:
        raise SolverError(f"lambda_aci {lam_aci.shape} must have one entry "
                          f"per ACI cap {omega.shape[1:]}")

    bits = np.asarray(solution.bits, dtype=float)
    powers = np.asarray(solution.powers, dtype=float)
    active = bits > 0
    ber_ok, ber_excess, ber_margin, ber = ber_audit(bits, powers, c, ceiling)

    stat_p = stat_b = comp = 0.0
    lam_sub_min, mu_top = math.inf, 1.0

    if np.any(active):
        b, p, ca = bits[active], powers[active], c[active]
        denom = 2.0 ** b - 1.0
        mu = alpha + lam_pow + omega[active] @ lam_aci
        slope = 1.6 * ca * ber[active]      # -(2^b - 1) dBER/dP
        # Recovered BER-equality multipliers (stationarity wrt power).
        lam_sub = mu * denom / slope
        lam_sub_min = float(np.min(lam_sub))
        resid_p = mu - lam_sub * slope / denom
        stat_p = float(np.max(np.abs(resid_p)))
        mu_top = max(1.0, float(np.max(mu)))
        resid_b = (-(1.0 - alpha)
                   + lam_sub * math.log(2.0) * p * 2.0 ** b / denom ** 2
                   * slope)
        stat_b = float(np.max(np.abs(resid_b)))
        # BER equality is the per-subcarrier complementarity contribution.
        comp = float(np.max(np.abs(lam_sub * ber_excess[active])))

    met, excess, margin = cap_audit(powers, caps)
    lam = np.concatenate([[lam_pow], lam_aci])
    comp = max(comp, float(np.max(np.abs(lam * excess))))

    dual = min(lam_sub_min, lam_pow, float(np.min(lam_aci, initial=math.inf)))
    passed = (stat_p <= tols.stationarity * mu_top
              and stat_b <= tols.stationarity
              and bool(np.all(ber_ok)) and bool(np.all(met))
              and comp <= tols.complementarity and dual >= -tols.dual_sign)
    return KktReport(stationarity_power=stat_p, stationarity_bits=stat_b,
                     primal=max(float(np.max(ber_margin, initial=0.0)),
                                float(np.max(margin))),
                     complementarity=comp, dual_sign=dual, passed=passed)
