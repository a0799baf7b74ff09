"""Deterministic power caps from statistical interference constraints.

A constraint of the form  Pr(X * c * P <= Pmax) >= Psi  with X exponential
(rate nu) inverts to the deterministic cap  P <= nu * Pmax / (c * (-ln(1-Psi))).
For the co-channel PU, c is the path-loss attenuation 10^(-L/10) and P the
SU total power; the cap additionally never exceeds the hard transmit limit
P_th.  For an adjacent PU, c folds into the per-subcarrier overlap factors,
so the cap applies to the overlap-weighted power sum directly.

Psi = 1 demands certainty, which an exponential tail only delivers at zero
power, so finite interference limits map to a cap of exactly 0 there.  An
infinite interference limit makes the constraint vacuous regardless of Psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import AciFactors, aci_overlap_matrix
from .errors import ConfigError, SolverError
from .scenario import ScenarioConfig, path_loss_db
from .solver import (FEAS_TOL, Plan, _cap_sums, _checked_ber, _checked_cnir,
                     cap_limits, cnir_threshold)


@dataclass(frozen=True)
class ConstraintCaps:
    """All deterministic caps the solver enforces, for as many tones as the
    overlap matrix has rows: ``Plan.rows`` refuses a CNIR of any other
    length, naming both shapes."""

    total_cap: float            # watts; min of P_th and every CCI-derived cap
    aci_caps: np.ndarray        # watts, one per adjacent PU, shape (L,)
    aci_weights: AciFactors     # overlap matrix, shape (N, L)
    _plan: tuple = field(default=(None, None), init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        omega = self.aci_weights.omega
        if omega.ndim != 2 or omega.shape[1] != self.aci_caps.size:
            raise SolverError(f"overlap matrix shape {omega.shape} is not "
                              f"(N, L) for ACI caps {self.aci_caps.shape}")
        # read-only, so no plan built from them can go stale
        self.aci_caps.flags.writeable = False
        omega.flags.writeable = False

    def plan(self, alpha, ber_threshold) -> Plan:
        """The solve-and-repair plan at ``alpha`` and this BER ceiling, kept
        until another alpha or BER asks for one; checks alpha and the BER,
        and refuses a NaN cap and a weight that is negative or not finite
        (the solve decides its caps once, at lam = 0, so weights are >= 0)."""
        ber = np.asarray(ber_threshold, dtype=float)
        key = (alpha, ber.shape, ber.tobytes())
        if self._plan[0] == key:
            return self._plan[1]
        omega = np.array(self.aci_weights.omega, dtype=float)
        ber = _checked_ber(ber, len(omega))
        caps, limits = cap_limits(self.total_cap, self.aci_caps)
        if np.count_nonzero(np.isnan(caps)):
            raise SolverError("caps must not be NaN")
        if np.count_nonzero((omega >= 0.0) & (omega < math.inf)) < omega.size:
            raise SolverError("overlap weights must be finite and >= 0")
        zero = caps <= 0.0      # forbids every tone coupled to it
        lg = np.log(5.0 * ber)
        plan = Plan(alpha=alpha, lg=lg, neglog=-lg, threshold=np.where(
            zero[0] | (omega[:, zero[1:]] > 0.0).any(1), math.inf,
            cnir_threshold(alpha, ber)), omega=omega, caps=caps,
            limits=limits)
        for value in vars(plan).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        object.__setattr__(self, "_plan", (key, plan))
        return plan


@dataclass(frozen=True)
class FeasibilityReport:
    """Per-constraint verdicts for one allocation.

    ``worst_margin`` is the largest relative constraint violation across all
    families (at most FEAS_TOL when the allocation is feasible).
    """

    ber_ok: np.ndarray          # bool per subcarrier (vacuously true at b=0)
    power_ok: bool
    aci_ok: np.ndarray          # bool per adjacent PU
    worst_margin: float
    feasible: bool

    def to_dict(self) -> dict:
        return {
            "ber_ok": [bool(x) for x in self.ber_ok],
            "power_ok": bool(self.power_ok),
            "aci_ok": [bool(x) for x in self.aci_ok],
            "worst_margin": float(self.worst_margin),
            "feasible": bool(self.feasible),
        }


def _tail_scale(probability, fading_rate):
    """nu / (-ln(1 - Psi)); 0 when Psi = 1 (certainty -> zero power)."""
    if not 0.0 < probability <= 1.0:
        raise ConfigError(f"probability must lie in (0, 1], got {probability}")
    if fading_rate <= 0:
        raise ConfigError(f"fading rate must be positive, got {fading_rate}")
    if probability == 1.0:
        return 0.0
    return fading_rate / (-math.log1p(-probability))


def cci_power_cap(fading_rate, loss_db, probability, p_cci,
                  power_threshold=math.inf) -> float:
    """Total-power cap enforcing the co-channel interference constraint.

    min(P_th, nu * 10^(L/10) * P_CCI / (-ln(1 - Psi))); an infinite P_CCI
    leaves only the hard limit P_th.
    """
    if p_cci < 0:
        raise ConfigError("co-channel interference limit must be >= 0")
    if math.isinf(p_cci):
        return power_threshold
    return min(power_threshold,
               _tail_scale(probability, fading_rate) * 10.0 ** (0.1 * loss_db)
               * p_cci)


def aci_power_cap(fading_rate, probability, p_aci) -> float:
    """Cap on the overlap-weighted power sum for one adjacent PU:
    nu * P_ACI / (-ln(1 - Psi)).  Infinite P_ACI -> vacuous (inf)."""
    if p_aci < 0:
        raise ConfigError("adjacent-channel interference limit must be >= 0")
    if math.isinf(p_aci):
        return math.inf
    return _tail_scale(probability, fading_rate) * p_aci


def build_caps(cfg: ScenarioConfig, omega: AciFactors | None = None
               ) -> ConstraintCaps:
    """Assemble every cap for a scenario.

    The overlap matrix is recomputed unless passed in; pass a cached one
    when sweeping parameters that leave the spectral geometry unchanged.
    """
    total = cfg.su.power_threshold
    for pu in cfg.cochannel_pus():
        loss = path_loss_db(pu.distance, cfg.path_loss)
        total = cci_power_cap(pu.fading_rate, loss, pu.probability,
                              pu.interference_cap, total)
    if omega is None:
        omega = aci_overlap_matrix(cfg)
    adj = cfg.adjacent_pus()
    if omega.omega.shape != (cfg.su.num_subcarriers, len(adj)):
        raise ConfigError(
            f"overlap matrix shape {omega.omega.shape} does not match "
            f"{cfg.su.num_subcarriers} subcarriers x {len(adj)} adjacent PUs"
        )
    aci = np.array([
        aci_power_cap(p.fading_rate, p.probability, p.interference_cap)
        for p in adj
    ])
    return ConstraintCaps(total_cap=total, aci_caps=aci, aci_weights=omega)


def cap_audit(powers, caps: ConstraintCaps):
    """Per cap, total power first: whether the load of ``powers`` meets the
    cap (``cap_limits``), the load's excess over the cap (0 where the cap is
    infinite) and that excess relative to the cap (to 1 W for a zero cap)."""
    cap, limit = cap_limits(caps.total_cap, caps.aci_caps)
    load = _cap_sums(np.atleast_2d(powers), caps.aci_weights.omega)[0]
    excess = np.where(np.isfinite(cap), load - cap, 0.0)
    return load <= limit, excess, excess / np.where(cap > 0, cap, 1.0)


def ber_audit(bits, powers, c, ceiling):
    """Per tone, as ``cap_audit`` per cap: whether the BER of ``bits`` at
    ``powers`` (0 on an unloaded tone) meets its ``ceiling`` up to FEAS_TOL
    of it, its excess over the ceiling, that excess relative to it and the
    BER; the CNIR ``c`` and ``ceiling`` as ``_check_tones`` returns them."""
    bits, powers = np.asarray(bits, float), np.asarray(powers, float)
    on, ber = bits > 0, np.zeros_like(c)
    ber[on] = 0.2 * np.exp(-1.6 * powers[on] * c[on] / (2.0 ** bits[on] - 1))
    excess = ber - ceiling
    return (~on | (ber <= (1.0 + FEAS_TOL) * ceiling), excess,
            excess / ceiling, ber)


def _check_tones(bits, powers, cnir, ber_threshold, caps: ConstraintCaps):
    """The CNIR and the per-tone BER ceiling as ``solver._checked_cnir`` and
    ``_checked_ber`` hand them back (refusing what they refuse), once bits,
    powers and CNIR each have one entry per row of the caps' overlap matrix
    (``SolverError`` naming the shapes if not)."""
    shapes = np.shape(bits), np.shape(powers), np.shape(cnir)
    omega = caps.aci_weights.omega
    if shapes != (omega.shape[:1],) * 3:
        raise SolverError(
            f"bits {shapes[0]}, powers {shapes[1]} and CNIR {shapes[2]} must "
            f"each have one entry per row of the caps' overlap matrix "
            f"{omega.shape}")
    return _checked_cnir(cnir), _checked_ber(ber_threshold, len(omega))


def check_feasible(alloc, caps: ConstraintCaps, cnir,
                   ber_threshold) -> FeasibilityReport:
    """Verify an allocation (discrete or continuous) against every constraint.

    A BER meets its ceiling, and a load its cap, up to FEAS_TOL of it
    (``ber_audit``, ``cap_audit``).  Margins are relative excesses (over the
    ceiling or cap), so a feasible allocation has a worst margin of at most
    FEAS_TOL.  Bits, powers and CNIR must each have one entry per tone of the
    caps, and CNIR and BER ceiling pass the plan's checks (``_check_tones``).
    """
    c, ceiling = _check_tones(alloc.bits, alloc.powers, cnir, ber_threshold,
                              caps)
    ber_ok, _, ber_margin, _ = ber_audit(alloc.bits, alloc.powers, c, ceiling)
    ok, _, margin = cap_audit(np.asarray(alloc.powers, dtype=float), caps)
    worst = max(float(np.max(ber_margin, initial=0.0)),
                float(np.max(margin, initial=0.0)))
    return FeasibilityReport(ber_ok=ber_ok, power_ok=bool(ok[0]),
                             aci_ok=ok[1:], worst_margin=worst,
                             feasible=bool(np.all(ber_ok) and np.all(ok)))
