"""Rounding the continuous loading to integer bits, with greedy repair.

Constellations carry 0 or 2..b_max bits (1 bit is not used).  Rounding can
push the total or weighted power sums back over their caps; the greedy
repair then strips one bit at a time from the subcarrier whose top bit saves
the most power (ties: lowest index), dropping 2-bit subcarriers to zero.
All rows of a (T, N) block of draws that are over a cap are repaired
together, in rounds of batched greedy steps; ``round_and_repair`` is T = 1.
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
    if np.count_nonzero((b < 0) | (b > max_bits) | (b % 1 != 0)):
        raise SolverError(f"bit counts must lie in {{0}} u [2, {max_bits}]")
    if np.count_nonzero((ber >= 0.2) | (ber <= 0)):
        raise SolverError("BER threshold must lie in (0, 0.2) to invert the "
                          "BER model")
    p = -(np.ldexp(1.0, b.astype(int)) - 1.0) * np.log(5.0 * ber) / (1.6 * c)
    p = np.where(b == 0, 0.0, p)
    return p if p.ndim else float(p)


def _pricing(top):
    """Tables over b = 0..max(top, 2) of factors of ln(5 BER) / (1.6 C) < 0:
    minus the power, 1 - 2^b, and minus the top bit's saving, 2^(b-1) from
    b = 3, 3 at b = 2, -inf at 0.  2^b is exact for any b (``np.ldexp``)."""
    pow2 = np.ldexp(1.0, np.arange(max(int(top), 2) + 1))
    head = 0.5 * pow2
    head[:3] = (-np.inf, -np.inf, 3.0)
    return 1.0 - pow2, head


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


def _strip(bits, lg, den, sums, limits, omega, head):
    """Greedy steps of each row of ``bits`` (stripped in place), in rounds
    over all rows still over a cap.  A round sorts each row's savings
    (``head[b] * lg / den``, negated) by (-saving, index) and takes those
    above 0.8x the largest: a removal leaves that tone at most 3/4 of its
    old saving, so these are exactly the greedy's next picks, in order.  A
    row takes its picks up to the first feasible running ``sums`` (the
    loop's sequential subtractions), or all of them and another round."""
    # (-saving) * -[1, omega[tone]] is bitwise saving * [1, omega[tone]]
    nweights = np.empty((omega.shape[0], 1 + omega.shape[1]))
    nweights[:, 0] = -1.0
    np.negative(omega, out=nweights[:, 1:])
    down = np.arange(-1, head.size - 1) * (head > 3.0)  # b - 1, 0 from 2
    run, b, s, steps = np.arange(bits.shape[0]), bits, sums, 0
    rows = run[:, None]                     # row positions, as a column
    while True:
        neg = head[b] * lg / den                # -saving, +inf when empty
        order = np.argsort(neg, axis=1, kind="stable")
        neg = neg[rows[:run.size], order]
        live = neg < 0.8 * neg[:, :1]
        width = np.count_nonzero(live.any(0))
        order, neg, live = order[:, :width], neg[:, :width], live[:, :width]
        dpw = np.where(live, neg, 0.0)[..., None] * nweights[order]
        acc = np.subtract.accumulate(np.concatenate([s[:, None], dpw], 1), 1)
        over = (acc > limits).any(2)
        take = live & over[:, :-1]
        r, j = np.nonzero(take)
        t, rr = order[r, j], run[r]
        bits[rr, t] = down[bits[rr, t]]
        steps += np.bincount(rr, minlength=bits.shape[0])
        keep = over[:, -1] & take.any(1)        # over, and not all empty
        if not keep.any():
            return steps
        run, den, s = run[keep], den[keep], acc[keep, -1]
        b = bits[run]


def _repair_block(cont_bits, cnir, ber_threshold, caps, omega, max_bits):
    """(bits, powers, steps) of each row of a (T, N) block of continuous
    bits, row t bitwise the repair of ``cnir[t]`` alone; the rows over a
    cap are stripped together (``_strip``).  The BER, one value or one per
    tone, must lie in (0, 0.2) (``_as_arrays`` checks it)."""
    bits = np.floor(cont_bits + 0.5)
    bits = np.where(bits < 2.0, 0.0, np.minimum(bits, float(max_bits)))
    bits = bits.astype(int)
    lg, den = np.log(5.0 * np.asarray(ber_threshold, float)), 1.6 * cnir
    cost, head = _pricing(bits.max())
    powers = cost[bits] * lg / den
    limits = (np.concatenate([[caps.total_cap], caps.aci_caps])
              * (1.0 + FEAS_TOL))
    sums = _cap_sums(powers, omega)
    steps = np.zeros(bits.shape[0], dtype=int)
    todo = np.flatnonzero((sums > limits).any(1))
    if todo.size:
        b, d = bits[todo], den[todo]
        steps[todo] = _strip(b, lg, d, sums[todo], limits, omega, head)
        bits[todo] = b
        powers[todo] = cost[b] * lg / d
        # Recompute the sums from scratch to shed accumulated rounding.
        sums[todo] = _cap_sums(powers[todo], omega)
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
