"""Discrete exhaustive-search baseline (small N only).

Enumerates every bit vector over {0, 2, 3, ..., b_max} per subcarrier (or
even sizes only), with BER-exact powers, and returns the feasible vector
minimizing the scalarized objective.  Two equivalent engines:

* ``prune=True``: depth-first search with branch-and-bound.  Feasibility
  pruning uses that power grows with bits; objective pruning uses the sum
  of per-subcarrier unconstrained minima as an admissible bound.  Search
  order (subcarrier-major, bit values ascending) makes the first incumbent
  among objective ties the lexicographically smallest, and pruning on
  ">= incumbent" preserves that.
* ``prune=False``: flat vectorized enumeration in chunks.

Both return identical results; the flat engine is the cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretizer import power_for_bits
from .errors import SolverError
from .solver import FEAS_TOL, _as_arrays, objective_value, overlap_matrix


@dataclass(frozen=True)
class OracleResult:
    bits: np.ndarray
    powers: np.ndarray
    objective: float
    nodes_visited: int


def _bit_domain(b_max, even_only):
    if b_max < 2:
        raise SolverError("b_max must be at least 2")
    if even_only:
        vals = [0] + list(range(2, b_max + 1, 2))
    else:
        vals = [0] + list(range(2, b_max + 1))
    return vals


def exhaustive_search(cnir, alpha, ber_threshold, caps, omega=None, b_max=8,
                      even_only=False, prune=True, n_limit=10) -> OracleResult:
    """Globally optimal discrete loading by enumeration.

    Refuses more than ``n_limit`` subcarriers (the search is exponential).
    ``omega`` defaults to the caps' own overlap matrix.  Ties in the
    objective resolve to the lexicographically smallest bit vector, so
    results are deterministic and engine-independent.  CNIR must be finite
    and positive.
    """
    c, ber = _as_arrays(cnir, ber_threshold)
    n = c.size
    if n > n_limit:
        raise SolverError(
            f"exhaustive search over {n} subcarriers exceeds the limit "
            f"{n_limit}; raise n_limit only if you really mean it"
        )
    aci_caps = np.asarray(caps.aci_caps, dtype=float)
    omega = overlap_matrix(caps.aci_weights.omega if omega is None else omega,
                           n, aci_caps.size)
    total_cap = caps.total_cap

    bvals = _bit_domain(b_max, even_only)
    # Candidate powers per subcarrier, aligned with bvals.
    pcand = np.stack([
        power_for_bits(np.full(n, b), c, ber, max_bits=b_max) for b in bvals
    ])                                              # shape (d, n)
    fcand = alpha * pcand - (1.0 - alpha) * np.asarray(bvals)[:, None]

    if prune:
        return _search_dfs(n, bvals, pcand, fcand, omega, total_cap, aci_caps,
                           c, ber, alpha, b_max)
    return _search_flat(n, bvals, pcand, omega, total_cap, aci_caps,
                        c, ber, alpha, b_max)


def _search_dfs(n, bvals, pcand, fcand, omega, total_cap, aci_caps,
                c, ber, alpha, b_max):
    d = len(bvals)
    l = omega.shape[1]
    # Admissible bound: unconstrained per-subcarrier minima, suffix-summed.
    fmin = fcand.min(axis=0)
    bound = np.concatenate([np.cumsum(fmin[::-1])[::-1], [0.0]])
    pow_slack = (total_cap * (1.0 + FEAS_TOL) if math.isfinite(total_cap)
                 else math.inf)
    aci_slack = aci_caps * (1.0 + FEAS_TOL)

    best_f = 0.0
    best = [0] * n
    choice = [0] * n
    nodes = 0

    def dfs(i, cur_f, cur_p, cur_loads):
        nonlocal best_f, best, nodes
        if cur_f + bound[i] >= best_f:
            return
        if i == n:
            best_f = cur_f
            best = choice.copy()
            return
        for k in range(d):
            nodes += 1
            p = pcand[k, i]
            if cur_p + p > pow_slack:
                break                   # power grows with bits: later k worse
            loads = cur_loads + p * omega[i]
            if np.any(loads > aci_slack):
                break
            choice[i] = k
            dfs(i + 1, cur_f + fcand[k, i], cur_p + p, loads)
        choice[i] = 0

    dfs(0, 0.0, 0.0, np.zeros(l))
    bits = np.asarray([bvals[k] for k in best], dtype=int)
    powers = power_for_bits(bits, c, ber, max_bits=b_max)
    return OracleResult(bits=bits, powers=powers,
                        objective=objective_value(bits, powers, alpha),
                        nodes_visited=nodes)


def _search_flat(n, bvals, pcand, omega, total_cap, aci_caps,
                 c, ber, alpha, b_max):
    d = len(bvals)
    total = d ** n
    shape = (d,) * n
    barr = np.asarray(bvals, dtype=float)
    pow_slack = (total_cap * (1.0 + FEAS_TOL) if math.isfinite(total_cap)
                 else math.inf)
    aci_slack = np.where(np.isfinite(aci_caps),
                         aci_caps * (1.0 + FEAS_TOL), np.inf)

    best_f = 0.0
    best_digits = np.zeros(n, dtype=int)
    chunk = 1 << 18
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        digits = np.stack(
            np.unravel_index(np.arange(lo, hi), shape), axis=1
        )                                           # (rows, n), lex order
        p = np.take_along_axis(pcand, digits, axis=0)      # (rows, n)
        totals = p.sum(axis=1)
        ok = totals <= pow_slack
        if omega.shape[1]:
            loads = p @ omega
            ok &= np.all(loads <= aci_slack, axis=1)
        f = alpha * totals - (1.0 - alpha) * barr[digits].sum(axis=1)
        f = np.where(ok, f, np.inf)
        k = int(np.argmin(f))           # first minimum: lex smallest in chunk
        if f[k] < best_f:
            best_f = float(f[k])
            best_digits = digits[k]
    bits = np.asarray([bvals[k] for k in best_digits], dtype=int)
    powers = power_for_bits(bits, c, ber, max_bits=b_max)
    return OracleResult(bits=bits, powers=powers,
                        objective=objective_value(bits, powers, alpha),
                        nodes_visited=total)
