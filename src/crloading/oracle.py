"""Discrete exhaustive-search baseline (small N only).

Enumerates every bit vector over {0, 2, 3, ..., b_max} per subcarrier, with
BER-exact powers, and returns the feasible vector minimizing the scalarized
objective.  Two equivalent engines:

* ``prune=True``: depth-first search with branch-and-bound.  Feasibility
  pruning uses that power grows with bits; objective pruning uses the sum
  of per-subcarrier unconstrained minima as an admissible bound.  Search
  order (subcarrier-major, bit values ascending) makes the first incumbent
  among objective ties the lexicographically smallest, and pruning on
  ">= incumbent" preserves that.  Each tone's (power, objective term, load
  increment) tuples are built once per search; the cap loads stay numpy
  vectors, as float loads would leave the solver short of acceptance
  criterion 6's 100x speedup over this search.
* ``prune=False``: flat vectorized enumeration in lexicographic order.  The
  last m tones' d^m digit combinations are the rows of one reused (d^m, N)
  power block; each combination of the leading digits, in C order, refills
  its leading columns, so memory stays within ``_FLAT_ENTRIES`` powers.

Both return identical results; the flat engine is the cross-check.  Each
sums loads its own way, so a load within 4 N eps of its limit is judged as
``check_feasible`` judges it: ``_cap_sums`` against the plan's limits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .discretizer import _checked_max_bits, _own_overlap, _pricing
from .errors import SolverError
from .solver import _cap_sums, _one_row, objective_value

# Powers (rows x tones) in one block of the flat search, at most, though a
# block has d rows at least.  Timed on small_n6 at b_max 8 (2-core Xeon VM):
# 2^16 (4,096 rows) searches in 13-18 ms at a 0.54 MiB peak, 2^14 (512 rows)
# in 42 ms, and 2^18 (32,768 rows) in 18 ms at 4.3 MiB.
_FLAT_ENTRIES = 1 << 16
_N_LIMIT = 10               # most subcarriers searched (it is exponential)


@dataclass(frozen=True)
class OracleResult:
    bits: np.ndarray
    powers: np.ndarray
    objective: float
    nodes_visited: int


def exhaustive_search(cnir, alpha, ber_threshold, caps, omega=None, b_max=8,
                      prune=True) -> OracleResult:
    """Globally optimal discrete loading by enumeration.

    Refuses more than ``_N_LIMIT`` subcarriers.  ``omega`` must be None or
    the caps' overlap matrix (``_own_overlap``), which callers pass
    positionally.  Objective ties resolve to the lexicographically smallest
    bit vector, so results are deterministic and engine-independent.  The
    caps' plan checks alpha, the BER, the CNIR and its tone count.
    """
    _own_overlap(caps, omega)
    plan = caps.plan(alpha, ber_threshold)
    c = plan.rows(_one_row(cnir))[0]
    n = c.size
    if n > _N_LIMIT:
        raise SolverError(f"exhaustive search over {n} subcarriers exceeds "
                          f"the limit {_N_LIMIT}")
    b_max = _checked_max_bits(b_max, "b_max")
    # Candidate powers (d, n) of bit values bcol, priced as the repair does.
    bcol = np.r_[0, 2:b_max + 1][:, None]
    with np.errstate(over="ignore"):
        pcand = _pricing(b_max)[0][bcol] * plan.neglog / (1.6 * c)
    fcand = alpha * pcand - (1.0 - alpha) * bcol

    # Sums of n nonnegative terms (powers, or powers times overlap factors)
    # in any two orders, fused or not, differ by under n eps relative
    # (Higham, Accuracy and Stability, 2nd ed., sec. 3.1), so past 4 n eps
    # of its limit a load gets ``_cap_sums``' verdict however it was summed.
    slack = 4 * n * np.finfo(float).eps
    lo, hi = plan.limits * (1.0 - slack), plan.limits * (1.0 + slack)
    digits, nodes = (_search_dfs(pcand, fcand, plan.omega, plan.limits, lo, hi)
                     if prune else _search_flat(pcand, plan.omega, plan.limits,
                                                lo, hi, bcol, alpha))
    bits = bcol[digits, 0]
    powers = pcand[digits, np.arange(n)]
    return OracleResult(bits=bits, powers=powers,
                        objective=objective_value(bits, powers, alpha),
                        nodes_visited=nodes)


def _search_dfs(pcand, fcand, omega, limits, lo, hi):
    """Digits of the best vector, and the nodes visited."""
    n = pcand.shape[1]
    # Admissible bound: unconstrained per-subcarrier minima, suffix-summed.
    fmin = fcand.min(axis=0)
    bound = np.concatenate([np.cumsum(fmin[::-1])[::-1], [0.0]]).tolist()
    # Per tone, per candidate: power and objective term as floats, and the
    # load increment p * omega[i] a node adds (inf power times 0 is nan).
    with np.errstate(invalid="ignore"):
        incs = pcand.T[:, :, None] * omega[:, None, :]          # (n, d, L)
    tones = [list(zip(*cand)) for cand
             in zip(pcand.T.tolist(), fcand.T.tolist(), incs)]
    pow_lo, pow_hi, aci_lo, aci_hi = float(lo[0]), float(hi[0]), lo[1:], hi[1:]

    best_f = 0.0
    best = [0] * n
    choice = [0] * n
    nodes = 0

    def dfs(i, cur_f, cur_p, cur_loads):
        nonlocal best_f, best, nodes
        if cur_f + bound[i] >= best_f:
            return
        if i == n:
            if (cur_p > pow_lo or (cur_loads > aci_lo).any()) and not (
                    _cap_sums(pcand[choice, range(n)][None], omega)
                    <= limits).all():
                return                  # in the band, and the audit refuses
            best_f = cur_f
            best = choice.copy()
            return
        for k, (p, f, w) in enumerate(tones[i]):
            nodes += 1
            if cur_p + p > pow_hi:
                break                   # power grows with bits: later k worse
            loads = cur_loads + w
            if (loads > aci_hi).any():
                break
            choice[i] = k
            dfs(i + 1, cur_f + f, cur_p + p, loads)
        choice[i] = 0

    dfs(0, 0.0, 0.0, np.zeros(omega.shape[1]))
    return best, nodes


@np.errstate(invalid="ignore")  # inf power x weight 0: nan load, not <= hi
def _search_flat(pcand, omega, limits, lo, hi, bcol, alpha):
    """Digits of the best vector, and the d^n vectors visited."""
    d, n = pcand.shape
    m = 1                                   # tones enumerated within a block
    while m < n and d ** (m + 1) * n <= _FLAT_ENTRIES:
        m += 1
    lead = n - m
    barr = bcol[:, 0].astype(float)
    tail = np.indices((d,) * m).reshape(m, -1).T    # (d^m, m), lex order
    tail_bits = barr[tail].sum(axis=1)
    block = np.empty((tail.shape[0], n))            # (d^m, n) powers
    block[:, lead:] = pcand[tail, np.arange(lead, n)]

    best_f = 0.0
    best_digits = [0] * n
    for head in itertools.product(range(d), repeat=lead):      # C order
        block[:, :lead] = pcand[list(head), np.arange(lead)]
        totals = block.sum(axis=1)             # summed as ``_cap_sums``
        ok = totals <= limits[0]
        if omega.shape[1]:
            loads = block @ omega   # summed otherwise: in the band, ask
            ok &= np.all(loads <= hi[1:], axis=1)           # ``_cap_sums``
            near = ok & np.any(loads > lo[1:], axis=1)
            if near.any():
                ok[near] = np.all(_cap_sums(block[near], omega) <= limits, 1)
        row_bits = barr[list(head)].sum() + tail_bits
        f = np.where(ok, alpha * totals - (1.0 - alpha) * row_bits, np.inf)
        k = int(np.argmin(f))           # first minimum: lex smallest in block
        if f[k] < best_f:
            best_f = float(f[k])
            best_digits = [*head, *tail[k]]
    return best_digits, d ** n
