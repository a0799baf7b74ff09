"""Rounding the continuous loading to integer bits, with greedy repair.

Constellations carry 0 or 2..b_max bits (1 bit is not used).  Rounding can
push the total or weighted power sums back over their caps; the repair loop
then strips one bit at a time from the subcarrier whose last bit costs the
most power (ties: lowest index), dropping 2-bit subcarriers to zero.  A step
changes only that subcarrier's saving, so it updates one entry of the savings
vector and the running sums, then takes one argmax; powers follow at the end.
Rounding, powers and sums run on a (T, N) block of draws, the greedy loop on
each row that violates a cap; ``round_and_repair`` is the T = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .solver import FEAS_TOL, _as_arrays, objective_value, overlap_matrix


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
    if np.count_nonzero(b == 1):
        raise SolverError("1-bit constellations are not part of the scheme")
    if np.count_nonzero((b < 0) | (b > max_bits)):
        raise SolverError(f"bit counts must lie in {{0}} u [2, {max_bits}]")
    if np.count_nonzero((ber >= 0.2) | (ber <= 0)):
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
    return np.where(bits >= 3, step, np.where(bits == 2, full, -np.inf))


def _cap_sums(powers, omega):
    """Total power and adjacent-channel loads of each row, shape (T, 1+L),
    summed as one row alone is summed: ``np.sum(p)`` and ``omega.T @ p``."""
    sums = np.empty((powers.shape[0], 1 + omega.shape[1]))
    sums[:, 0] = powers.sum(1)
    if omega.shape[1]:
        ot = omega.T
        for t, p in enumerate(powers):
            sums[t, 1:] = ot @ p
    return sums


def _repair_block(cont_bits, cnir, ber_threshold, caps, omega, max_bits):
    """(bits, powers, steps) of each row of a (T, N) block of continuous
    bits, row t bitwise the repair of ``cnir[t]`` alone; the greedy loop
    runs row by row, with Python-float running sums."""
    bits = np.floor(cont_bits + 0.5)
    bits = np.where(bits < 2.0, 0.0, np.minimum(bits, float(max_bits)))
    bits = bits.astype(int)
    ber = np.zeros(cnir.shape[1]) + ber_threshold
    powers = power_for_bits(bits, cnir, ber, max_bits)
    limits = (np.concatenate([[caps.total_cap], caps.aci_caps])
              * (1.0 + FEAS_TOL))
    sums = _cap_sums(powers, omega)
    steps = np.zeros(bits.shape[0], dtype=int)
    rows = np.flatnonzero((sums > limits).any(1))
    neglog = -np.log(5.0 * ber)
    for t in rows:
        b, c, s, lim = bits[t], cnir[t], sums[t].tolist(), limits.tolist()
        delta = _marginal_power(b, c, neglog)
        budget = int(np.sum(b)) + 1
        n = 0
        while any(x > m for x, m in zip(s, lim)):
            pick = int(delta.argmax())      # the lowest index on ties
            dp = float(delta[pick])
            if dp == -np.inf:               # every tone is already empty
                break
            k = int(b[pick])
            k -= 1 if k >= 3 else 2
            b[pick] = k
            # Only the picked tone's saving changes; same arithmetic.
            delta[pick] = (-np.inf if k < 2 else
                           (2.0 ** (k - 1) if k >= 3 else 3.0)
                           * float(neglog[pick]) / (1.6 * float(c[pick])))
            for j, w in enumerate([1.0] + omega[pick].tolist()):
                s[j] -= dp * w
            n += 1
            if n > budget:
                raise SolverError("repair loop failed to terminate")
        steps[t] = n
    if rows.size:
        powers[rows] = power_for_bits(bits[rows], cnir[rows], ber, max_bits)
    # Recompute the sums once from scratch to shed accumulated rounding.
    sums = _cap_sums(powers, omega)
    if np.count_nonzero(sums <= limits) < sums.size:
        raise SolverError("repair emptied the allocation without reaching "
                          "feasibility")
    return bits, powers, steps


def round_and_repair(continuous, caps, omega, cnir, ber_threshold,
                     max_bits=16) -> Allocation:
    """Round continuous bits to integers and restore cap feasibility.

    Rounding is to the nearest integer (halves up) with the gap (0, 2)
    collapsing to 0 below 1.5 and to 2 above, then clamping at ``max_bits``.
    Powers are recomputed to hit the BER ceiling exactly.  While the total
    or any weighted power sum exceeds its cap, the subcarrier whose current
    top bit saves the most power loses it (ties broken by lowest index).
    ``omega`` defaults to the caps' own overlap matrix.  CNIR must be finite
    and positive.  This is the one-row case of the block repair.
    """
    c, _ = _as_arrays(cnir, ber_threshold)
    omega = overlap_matrix(caps.aci_weights.omega if omega is None else omega,
                           c.size, np.size(caps.aci_caps))
    bits, powers, steps = _repair_block(
        np.asarray(continuous.bits, dtype=float)[None], c[None],
        ber_threshold, caps, omega, max_bits)
    return Allocation(bits=bits[0], powers=powers[0],
                      objective=objective_value(bits[0], powers[0],
                                                continuous.alpha),
                      feasible=True, repair_steps=int(steps[0]))
