"""Rounding the continuous loading to integer bits, with greedy repair.

Constellations carry 0 or 2..b_max bits (1 bit is not used).  Rounding can
push the total or weighted power sums back over their caps; the greedy
repair then strips one bit at a time from the subcarrier whose top bit saves
the most power (ties: lowest index), dropping 2-bit subcarriers to zero.
All rows of a (T, N) block of draws that are over a cap are repaired
together, in rounds of batched greedy steps; ``round_and_repair`` is T = 1.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SolverError
from .scenario import _MAX_BITS
from .solver import (_cap_sums, _checked_ber, _checked_cnir, _one_row,
                     objective_value)

# Rounds over at most this many (row, tone) savings sort them all, as a
# full stable sort is then cheaper than partitioning out the live tones:
# timed on default.json repairs of 1-4 rows of 128-1024 tones, sorting wins
# up to 256 savings, partitioning from 640, and they are within 15% between.
_SORT_ALL = 384


@dataclass(frozen=True)
class Allocation:
    """Discrete loading: integer bits plus exact BER-matching powers."""

    bits: np.ndarray            # int, each 0 or in [2, b_max]
    powers: np.ndarray          # watts
    objective: float
    repair_steps: int

    def to_dict(self) -> dict:
        return {"bits": self.bits.tolist(), "powers": self.powers.tolist(),
                "objective": self.objective, "repair_steps": self.repair_steps}


@np.errstate(over="ignore")
def power_for_bits(bits, cnir, ber_threshold, max_bits=16):
    """Power that hits the BER ceiling exactly for a b-bit constellation:

        P = -(2^b - 1) * ln(5 BER) / (1.6 C)

    Vectorized, tones on the last axis; bits 0 (no power) or integers in
    [2, max_bits] that broadcast with the CNIR, finite and positive, and
    the BER as the solve asks (``solver._checked_ber``); P may be inf.
    """
    b = np.asarray(bits)
    c = np.asarray(cnir, dtype=float)
    _checked_cnir(c)
    if np.count_nonzero(b == 1):
        raise SolverError("1-bit constellations are not part of the scheme")
    if np.count_nonzero((b < 0) | (b > max_bits) | (b % 1 != 0)):
        raise SolverError(f"bit counts must lie in {{0}} u [2, {max_bits}]")
    try:
        shape = np.broadcast_shapes(b.shape, c.shape)
    except ValueError:
        raise SolverError(f"bits {b.shape} and CNIR {c.shape} do not "
                          f"broadcast to one shape") from None
    ber = _checked_ber(ber_threshold, shape[-1] if shape else 1)
    cost = _pricing(np.max(b, initial=0))[0]    # as the repair prices bits
    p = cost[b.astype(int)] * -np.log(5.0 * ber) / (1.6 * c)
    return p if shape else float(p[0])


@lru_cache(maxsize=64)
def _pricing(top):
    """Read-only tables over b = 0..max(top, 2): 2^b - 1 (+0.0 at 0) and
    2^(b-1) (3 at 2, -inf at 0), factors of -ln(5 BER) / (1.6 C) giving the
    power and of ln(5 BER) / (1.6 C) minus the top bit's saving; the bits a
    step leaves (0 from 2)."""
    pow2 = np.ldexp(1.0, np.arange(max(int(top), 2) + 1))
    head = 0.5 * pow2
    head[:3] = (-np.inf, -np.inf, 3.0)
    tables = pow2 - 1.0, head, np.arange(-1, head.size - 1) * (head > 3.0)
    for table in tables:
        table.flags.writeable = False
    return tables


def _strip(bits, den, sums, plan, head, down):
    """Greedy steps of each row of ``bits`` (stripped in place), in rounds
    over all rows still over a cap.  A round orders each row's savings by
    (saving descending, index); those above 0.8x the largest, or a prefix
    of them, are the greedy's next picks (a removal leaves a tone at most
    3/4 of its saving).  A row takes its picks up to the first feasible
    running ``sums`` (the loop's sequential subtractions), or all of them
    and another round."""
    run, b, s, steps = np.arange(bits.shape[0]), bits, sums, 0
    rows = run[:, None]                     # row positions, as a column
    while True:
        neg = head[b] * plan.lg / den           # -saving, +inf when empty
        cut = 0.8 * np.minimum.reduce(neg, 1, keepdims=True)
        rws = rows[:run.size]
        if neg.size > _SORT_ALL:    # the live tones lead any width smallest
            if not np.logical_or.reduce(s[:, 1:] > plan.limits[1:], None):
                # Only the total is over and a live pick saves more than
                # -cut: a row's `need` best picks and their ties can end it.
                need = int(min(neg.shape[1], 1 + np.ceil(np.max(
                    (s[:, 0] - plan.limits[0]) / -cut[:, 0]))))
                last = np.partition(neg, need - 1, 1)[:, need - 1:need]
                neg[neg > last] = np.inf        # neg is this round's own
            width = int(np.add.reduce(neg < cut, 1).max())
            part = np.sort(np.argpartition(neg, width - 1, 1)[:, :width], 1)
            order = part[rws, np.argsort(neg[rws, part], 1, kind="stable")]
        else:
            order = neg.argsort(1, kind="stable")
        neg = neg[rws, order]
        live = neg < cut
        # sums - saving * [1, omega[tone]], one pick after another
        dpw = np.where(live, neg, 0.0)[..., None]
        if plan.omega.shape[1]:             # (the total's weights are 1)
            dpw = np.concatenate([dpw, dpw * plan.omega[order]], 2)
        acc = np.add.accumulate(np.concatenate([s[:, None], dpw], 1), 1)
        over = np.logical_or.reduce(acc > plan.limits, 2)
        take = live & over[:, :-1]
        r, j = np.nonzero(take)
        t, rr = order[r, j], run[r]
        bits[rr, t] = down[bits[rr, t]]
        steps += np.bincount(rr, minlength=bits.shape[0])
        keep = over[:, -1] & np.logical_or.reduce(take, 1)  # not all empty
        if not np.count_nonzero(keep):
            return steps
        run, den, s = run[keep], den[keep], acc[keep, -1]
        b = bits[run]


def _repair(cont_bits, cnir, plan, max_bits):
    """(bits, powers, steps, ``_cap_sums``) of each row of a (T, N) block of
    continuous bits over its checked CNIR, under ``plan``; row t is bitwise
    the repair of ``cnir[t]`` alone, and the rows over a cap are stripped
    together (``_strip``)."""
    bits = np.floor(cont_bits + 0.5)
    bits = np.where(bits < 2.0, 0.0, np.minimum(bits, float(max_bits)))
    bits = bits.astype(int)
    den = 1.6 * cnir
    cost, head, down = _pricing(bits.max())
    powers = cost[bits] * plan.neglog / den
    sums = _cap_sums(powers, plan.omega)
    steps = np.zeros(bits.shape[0], dtype=int)
    over = np.logical_or.reduce(sums > plan.limits, 1)
    count = np.count_nonzero(over)
    if count:
        # with every row over, the block's own arrays rather than copies
        todo = slice(None) if count == over.size else over.nonzero()[0]
        b, d = bits[todo], den[todo]
        steps[todo] = _strip(b, d, sums[todo], plan, head, down)
        bits[todo] = b
        powers[todo] = cost[b] * plan.neglog / d
        # Recompute the sums from scratch to shed accumulated rounding.
        sums[todo] = _cap_sums(powers[todo], plan.omega)
    if np.count_nonzero(sums <= plan.limits) < sums.size:
        raise SolverError("repair emptied the allocation without reaching "
                          "feasibility")
    return bits, powers, steps, sums


def _checked_max_bits(top, name):
    """``top`` (argument ``name``) as an int in [2, _MAX_BITS], not a bool."""
    if (isinstance(top, bool) or not isinstance(top, numbers.Real)
            or not 2 <= top <= _MAX_BITS or top % 1):
        raise SolverError(f"{name} must be an integer in [2, {_MAX_BITS}], "
                          f"got {top!r}")
    return int(top)


def _own_overlap(caps, omega):
    """The caps' overlap matrix; ``omega`` must be None, it or equal to it."""
    own = caps.aci_weights.omega
    if omega is None or omega is own or np.array_equal(omega, own):
        return own
    raise SolverError("the overlap matrix is the caps' own")


def _allocation(bits, powers, steps, alpha) -> Allocation:
    """Row 0 of a block repair's (bits, powers, steps)."""
    return Allocation(bits=bits[0], powers=powers[0],
                      objective=objective_value(bits[0], powers[0], alpha),
                      repair_steps=int(steps[0]))


def round_and_repair(continuous, caps, omega, cnir, ber_threshold,
                     max_bits=16) -> Allocation:
    """Round continuous bits to integers and restore cap feasibility.

    Rounding is to the nearest integer (halves up) with the gap (0, 2)
    collapsing to 0 below 1.5 and to 2 above, then clamping at ``max_bits``.
    Powers are recomputed to hit the BER ceiling exactly.  While the total
    or any weighted power sum exceeds its cap, the subcarrier whose current
    top bit saves the most power loses it (ties broken by lowest index).
    The repair reads the caps' plan, so ``omega`` must be None or their
    overlap matrix (``_own_overlap``), which callers pass positionally.
    The bits must be one number per tone, none NaN, the CNIR finite and
    positive and ``max_bits`` an integer in [2, 1014]; ``check_feasible``
    judges the result.  This is the one-row case of the block repair.
    """
    _own_overlap(caps, omega)
    plan = caps.plan(continuous.alpha, ber_threshold)
    b, c = np.asarray(continuous.bits, dtype=float), plan.rows(_one_row(cnir))
    if b.shape != c.shape[1:] or np.count_nonzero(np.isnan(b)):
        raise SolverError(f"continuous bits must be one number per tone, none "
                          f"NaN: got shape {b.shape} for CNIR {c.shape[1:]}")
    return _allocation(*_repair(b[None], c, plan, _checked_max_bits(
        max_bits, "max_bits"))[:3], continuous.alpha)
