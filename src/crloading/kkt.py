"""First-order optimality verification for continuous loading solutions.

The Lagrangian of the scalarized problem couples, per loaded subcarrier, a
BER-equality multiplier lam_i with the cap multipliers.  Stationarity with
respect to power fixes lam_i uniquely:

    lam_i = mu_i (2^b_i - 1) / (1.6 C_i BER_i)

with mu_i = alpha + lam_pow + sum_l w_il lam_aci_l and BER_i the tone's
BER 0.2 exp(-1.6 C_i P_i / (2^b_i - 1)) from ``constraints._audit``.  That
recovered multiplier must be positive, and substituting it into the
stationarity condition with respect to bits must leave a residual of zero.
The power's residual, mu_i less mu_i's own quotient, is only rounding of
mu_i, so it is held to ``_STATIONARITY`` times max(1, max mu_i).  Primal
feasibility, complementary slackness, and dual sign complete the check:
``_audit`` judges the BER ceilings and caps as ``check_feasible`` does, and
``primal`` is its worst excess.  Each residual and extremum is one numpy
reduction over the loaded tones (and the caps), so a NaN fails it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import _audit
from .errors import SolverError

_STATIONARITY, _COMPLEMENTARITY, _DUAL_SIGN = 1e-8, 1e-10, 1e-12


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


def kkt_verify(solution, cnir, ber_threshold, caps) -> KktReport:
    """Check a ContinuousSolution against the first-order conditions.

    Nulled subcarriers sit outside the continuous problem (their BER model
    degenerates), so the per-subcarrier conditions are evaluated on the
    active set only.  Bits, powers, CNIR and BER ceiling are checked as
    ``check_feasible`` checks them, and ``lambda_aci`` must have one entry
    per ACI cap (``SolverError`` otherwise).  The residuals are held to the
    fixed bounds ``_STATIONARITY``, ``_COMPLEMENTARITY`` and ``_DUAL_SIGN``.
    """
    bits, powers, c, ber, ber_excess, ber_ok, met, excess, primal = _audit(
        solution.bits, solution.powers, cnir, ber_threshold, caps)
    alpha = solution.alpha
    omega = caps.aci_weights.omega
    lam_pow = solution.lambda_power
    lam_aci = np.asarray(solution.lambda_aci, dtype=float)
    if lam_aci.shape != omega.shape[1:]:
        raise SolverError(f"lambda_aci {lam_aci.shape} must have one entry "
                          f"per ACI cap {omega.shape[1:]}")

    active = bits > 0
    b, p = bits[active], powers[active]
    denom = 2.0 ** b - 1.0
    mu = alpha + lam_pow + omega[active] @ lam_aci
    slope = 1.6 * c[active] * ber[active]      # -(2^b - 1) dBER/dP
    # Recovered BER-equality multipliers (stationarity wrt power).
    lam_sub = mu * denom / slope
    stat_p = float(np.max(np.abs(mu - lam_sub * slope / denom), initial=0.0))
    resid_b = (-(1.0 - alpha)
               + lam_sub * math.log(2.0) * p * 2.0 ** b / denom ** 2 * slope)
    stat_b = float(np.max(np.abs(resid_b), initial=0.0))
    # BER equality is the per-subcarrier complementarity term, beside the
    # caps' terms; a NaN multiplier or term fails both reductions.
    lam = np.concatenate([lam_sub, [lam_pow], lam_aci])
    comp = float(np.max(np.abs(lam * np.concatenate([ber_excess[active],
                                                     excess]))))
    dual = float(np.min(lam))
    passed = (stat_p <= _STATIONARITY * float(np.max(mu, initial=1.0))
              and stat_b <= _STATIONARITY
              and bool(np.all(ber_ok)) and bool(np.all(met))
              and comp <= _COMPLEMENTARITY and dual >= -_DUAL_SIGN)
    return KktReport(stationarity_power=stat_p, stationarity_bits=stat_b,
                     primal=primal, complementarity=comp, dual_sign=dual,
                     passed=passed)
