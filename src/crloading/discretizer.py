"""Rounding the continuous loading to integer bits, with greedy repair.

Constellations carry 0 or 2..b_max bits (1 bit is not used).  Rounding can
push the total or weighted power sums back over their caps; the repair loop
then strips one bit at a time from the subcarrier whose last bit costs the
most power (ties: lowest index), dropping 2-bit subcarriers to zero.  A step
changes only that subcarrier's saving, so it updates one entry of the savings
vector and the running sums, then takes one argmax; powers follow at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .solver import FEAS_TOL, objective_value, overlap_matrix


@dataclass(frozen=True)
class Allocation:
    """Discrete loading: integer bits plus exact BER-matching powers."""

    bits: np.ndarray            # int, each 0 or in [2, b_max]
    powers: np.ndarray          # watts
    objective: float
    feasible: bool
    repair_steps: int

    def to_dict(self) -> dict:
        return {
            "bits": [int(b) for b in self.bits],
            "powers": [float(p) for p in self.powers],
            "objective": self.objective,
            "feasible": self.feasible,
            "repair_steps": self.repair_steps,
        }


def power_for_bits(bits, cnir, ber_threshold, max_bits=16):
    """Power that hits the BER ceiling exactly for a b-bit constellation:

        P = -(2^b - 1) * ln(5 BER) / (1.6 C)

    Vectorized; bits must be 0 (no power) or integers in [2, max_bits];
    1 bit is rejected, as is any BER >= 0.2 (the model floor).
    """
    b = np.asarray(bits)
    c = np.asarray(cnir, dtype=float)
    ber = np.asarray(ber_threshold, dtype=float)
    if np.any(b == 1):
        raise SolverError("1-bit constellations are not part of the scheme")
    if np.any(b < 0) or np.any(b > max_bits):
        raise SolverError(f"bit counts must lie in {{0}} u [2, {max_bits}]")
    if np.any(ber >= 0.2) or np.any(ber <= 0):
        raise SolverError("BER threshold must lie in (0, 0.2) to invert the "
                          "BER model")
    p = -(np.power(2.0, b) - 1.0) * np.log(5.0 * ber) / (1.6 * c)
    p = np.where(b == 0, 0.0, p)
    return p if p.ndim else float(p)


def _marginal_power(bits, cnir, neglog):
    """Power saved by removing one bit (2-bit carriers: full power);
    ``neglog`` is -ln(5 BER)."""
    step = np.power(2.0, bits - 1) * neglog / (1.6 * cnir)   # b >= 3
    full = 3.0 * neglog / (1.6 * cnir)                       # b == 2 -> 0
    out = np.where(bits >= 3, step, np.where(bits == 2, full, -np.inf))
    return out


def round_and_repair(continuous, caps, omega, cnir, ber_threshold,
                     max_bits=16) -> Allocation:
    """Round continuous bits to integers and restore cap feasibility.

    Rounding is to the nearest integer (halves up) with the gap (0, 2)
    collapsing to 0 below 1.5 and to 2 above, then clamping at ``max_bits``.
    Powers are recomputed to hit the BER ceiling exactly.  While the total
    or any weighted power sum exceeds its cap, the subcarrier whose current
    top bit saves the most power loses it (ties broken by lowest index).
    ``omega`` defaults to the caps' own overlap matrix.
    """
    c = np.asarray(cnir, dtype=float)
    n = c.size
    ber = np.broadcast_to(np.asarray(ber_threshold, dtype=float), c.shape)
    aci_caps = np.asarray(caps.aci_caps, dtype=float)
    omega = overlap_matrix(caps.aci_weights.omega if omega is None else omega,
                           n, aci_caps.size)
    total_cap = caps.total_cap
    alpha = continuous.alpha

    bits = np.floor(np.asarray(continuous.bits, dtype=float) + 0.5)
    bits = np.where(bits < 2.0, 0.0, np.minimum(bits, float(max_bits)))
    bits = bits.astype(int)
    powers = power_for_bits(bits, c, ber, max_bits)

    # Running sums (total power, then each ACI load) and their limits.
    sums = [float(np.sum(powers))] + (omega.T @ powers).tolist()
    limits = ([total_cap * (1.0 + FEAS_TOL)]
              + (aci_caps * (1.0 + FEAS_TOL)).tolist())
    steps = 0
    budget = int(np.sum(bits)) + 1
    while any(s > m for s, m in zip(sums, limits)):
        if not steps:                       # first step: build the savings
            neglog = -np.log(5.0 * ber)
            delta = _marginal_power(bits, c, neglog)
        pick = int(delta.argmax())          # argmax takes the lowest index on ties
        dp = float(delta[pick])
        if dp == -np.inf:                 # every tone is already empty
            break
        b = int(bits[pick])
        b -= 1 if b >= 3 else 2
        bits[pick] = b
        # Only the picked tone's saving changes; same arithmetic as above.
        delta[pick] = (-np.inf if b < 2 else
                       (2.0 ** (b - 1) if b >= 3 else 3.0)
                       * float(neglog[pick]) / (1.6 * float(c[pick])))
        for j, w in enumerate([1.0] + omega[pick].tolist()):
            sums[j] -= dp * w
        steps += 1
        if steps > budget:
            raise SolverError("repair loop failed to terminate")
    if steps:
        powers = power_for_bits(bits, c, ber, max_bits)
    # Recompute the sums once from scratch to shed accumulated rounding.
    total = float(np.sum(powers))
    loads = omega.T @ powers
    feasible = (total <= total_cap * (1.0 + FEAS_TOL)
                and bool(np.all(loads <= aci_caps * (1.0 + FEAS_TOL))))
    if not feasible:
        raise SolverError("repair emptied the allocation without reaching "
                          "feasibility")
    return Allocation(bits=bits, powers=powers,
                      objective=objective_value(bits, powers, alpha),
                      feasible=feasible, repair_steps=steps)
