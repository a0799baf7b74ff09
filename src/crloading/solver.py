"""Continuous joint bit/power loading under power and interference caps.

The continuous relaxation is solved per subcarrier from the Lagrangian
stationarity system of the scalarized problem

    minimize  F = alpha * sum(P) - (1 - alpha) * sum(b)

subject to a per-subcarrier BER ceiling (held at equality), an optional
total-power cap and optional weighted-power (adjacent-channel) caps.  With
the BER model BER = 0.2 exp(-1.6 P C / (2^b - 1)) every regime admits the
same closed form per subcarrier, parameterized by an effective multiplier
mu_i = alpha + lam_pow + sum_l w_il lam_aci_l:

    b_i = log2[ (1-alpha) * 1.6 C_i / (ln2 * mu_i * (-ln(5 BER_i))) ]
    P_i = (1-alpha) / (ln2 * mu_i) + ln(5 BER_i) / (1.6 C_i)

One active-set loop covers every regime.  It starts from the unconstrained
optimum, enforces each cap the current point violates, nulls subcarriers
whose rate falls below 2 bits (remove-only), and repeats until neither
changes.  Binding a cap only lowers every power, so a cap that holds at the
unconstrained point is never enforced.  The loop runs on a (T, N) block of
CNIR rows at once (``solve_capped`` is the T = 1 case); each row is bitwise
its own one-row solve, as nothing multiplies matrices across rows.

On a fixed active set the enforced multipliers solve a complementarity
system (lam >= 0, residual <= 0, lam * residual = 0) with one solution, so
the cheapest solver that settles it wins:

1. the total-power closed form, every other multiplier at zero;
2. each adjacent-channel cap on its own, by a scalar Newton that climbs
   monotonically (the scaled residual is convex and decreasing);
3. the coupled projected Newton, with a cyclic-bisection fallback.

``case_id`` (5..8) only labels the result by which multipliers are positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError

_LN2 = math.log(2.0)
# Relative tolerance to which binding caps are equalized.
_DUAL_TOL = 1e-12
# Relative slack applied to every cap comparison ("is this violated?").
FEAS_TOL = 1e-9


@dataclass(frozen=True)
class ContinuousSolution:
    """Continuous loading: real-valued bits, exact BER-matching powers."""

    bits: np.ndarray            # b*_i >= 2 on the active set, 0 elsewhere
    powers: np.ndarray          # watts
    lambda_power: float         # multiplier of the total-power cap
    lambda_aci: np.ndarray      # multipliers of the ACI caps, shape (L,)
    active_set: np.ndarray      # sorted indices of loaded subcarriers
    case_id: int                # 5..8 by which multipliers are positive
    objective: float
    alpha: float                # trade-off weight the solution was solved for


def _as_arrays(cnir, ber_threshold):
    """CNIR (tones on the last axis) and one BER ceiling per tone."""
    c = np.atleast_1d(np.asarray(cnir, dtype=float))
    if np.count_nonzero((c > 0.0) & (c < math.inf)) < c.size:
        raise SolverError("CNIR values must be finite and positive")
    ber = np.zeros(c.shape[-1]) + ber_threshold
    if np.count_nonzero((ber <= 0) | (ber > 0.2)):
        raise SolverError("BER thresholds must lie in (0, 0.2]")
    return c, ber


def cnir_threshold(alpha, ber_threshold):
    """Smallest CNIR loaded by the unconstrained solution (rate hits 2 bits).

    Below this, the subcarrier is nulled.  Vectorized over ber_threshold.
    """
    if not 0.0 < alpha < 1.0:
        raise SolverError(f"alpha must lie in (0, 1), got {alpha}")
    ber = np.asarray(ber_threshold, dtype=float)
    out = -(4.0 / 1.6) * (alpha * _LN2 / (1.0 - alpha)) * np.log(5.0 * ber)
    return out if out.ndim else float(out)


def overlap_matrix(omega, n, num_caps) -> np.ndarray:
    """``omega`` as a float (N, L) array, one column per ACI cap.

    ``None`` stands for no adjacent bands; any other shape raises.
    """
    omega = (np.zeros((n, 0)) if omega is None
             else np.asarray(omega, dtype=float))
    if omega.shape != (n, num_caps):
        raise SolverError(
            f"overlap matrix shape {omega.shape} does not match {n} "
            f"subcarriers x {num_caps} adjacent-channel caps"
        )
    return omega


def objective_value(bits, powers, alpha) -> float:
    """Scalarized objective F = alpha * sum(P) - (1 - alpha) * sum(b)."""
    return float(alpha * np.add.reduce(powers, None)
                 - (1.0 - alpha) * np.add.reduce(bits, None))


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def _power_dual(q, active, alpha, cap):
    """Total-power multiplier per row that makes sum(P) over the ``active``
    tones equal ``cap``, with offsets ``q = ln(5 BER) / (1.6 C)``; 0 when
    the cap is slack."""
    denom = cap - np.where(active, q, 0.0).sum(-1)
    if np.count_nonzero(denom <= 0):
        raise SolverError(
            f"total-power cap {cap} incompatible with the active set "
            f"(denominator {denom.min()} <= 0)"
        )
    return np.maximum(active.sum(-1) * (1.0 - alpha) / _LN2 / denom - alpha,
                      0.0)


def lambda_total_power(active, cnir, alpha, ber_threshold, cap) -> float:
    """Closed-form multiplier that makes sum(P) over ``active`` equal ``cap``.

    Clamped at 0: a slack cap is inactive.
    """
    c, ber = _as_arrays(cnir, ber_threshold)
    idx = np.asarray(active, dtype=int)
    if idx.size == 0:
        raise SolverError("lambda_total_power needs a non-empty active set")
    q = np.log(5.0 * ber[idx]) / (1.6 * c[idx])
    return float(_power_dual(q, np.ones(q.size, dtype=bool), alpha, cap))


# ---------------------------------------------------------------------------
# Dual engine for the capped regimes
# ---------------------------------------------------------------------------


def _scaled_residuals(lam_e, cols, q, alpha, weights, caps, active):
    """Residual (load - cap)/cap for the enforced constraint columns."""
    k = (1.0 - alpha) / _LN2
    w_act = weights[active][:, cols]
    mu = alpha + w_act @ lam_e
    p = k / mu + q[active]
    loads = w_act.T @ p
    return (loads - caps[cols]) / caps[cols]


def _scaled_jacobian(lam_e, cols, alpha, weights, caps, active):
    k = (1.0 - alpha) / _LN2
    w_act = weights[active][:, cols]
    mu = alpha + w_act @ lam_e
    jac = -k * (w_act / mu[:, None] ** 2).T @ w_act
    return jac / caps[cols][:, None]


def _settled(lam_e, r) -> bool:
    """Every enforced cap is met to _DUAL_TOL, or priced at 0 and slack."""
    return bool(np.all((np.abs(r) <= _DUAL_TOL)
                       | ((lam_e == 0.0) & (r <= _DUAL_TOL))))


def _bisect_duals(lam_e, cols, args):
    """Cyclic per-constraint bisection; solves the complementarity system
    (each lam >= 0, residual <= 0, lam * residual = 0) for monotone loads."""
    m = lam_e.size
    for _ in range(500):
        for j in range(m):
            def res_j(x):
                trial = lam_e.copy()
                trial[j] = x
                return _scaled_residuals(trial, cols, *args)[j]

            if res_j(0.0) <= 0.0:
                lam_e[j] = 0.0
                continue
            hi = max(1.0, 2.0 * lam_e[j])
            doublings = 0
            while res_j(hi) > 0.0:
                hi *= 2.0
                doublings += 1
                if doublings > 900:
                    raise SolverError("cap equalization failed to bracket")
            lo = 0.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                r = res_j(mid)
                if abs(r) <= 0.01 * _DUAL_TOL:
                    break
                if r > 0.0:
                    lo = mid
                else:
                    hi = mid
                if hi - lo <= 1e-16 * hi:
                    break
            lam_e[j] = 0.5 * (lo + hi)
        r = _scaled_residuals(lam_e, cols, *args)
        if _settled(lam_e, r):
            return lam_e
    raise SolverError(
        f"cap equalization (bisection) did not converge; residuals {r}"
    )


def _merit(lam_e, cols, args):
    r = _scaled_residuals(lam_e, cols, *args)
    return float(np.max(np.where(lam_e > 0.0, np.abs(r), np.maximum(r, 0.0))))


def _newton_duals(lam_e, cols, args):
    """Projected damped Newton on the scaled cap residuals."""
    for _ in range(100):
        r = _scaled_residuals(lam_e, cols, *args)
        if _settled(lam_e, r):
            return lam_e
        free = (lam_e > 0.0) | (r > 0.0)
        jac = _scaled_jacobian(lam_e, cols, *args[1:])
        try:
            step = np.linalg.solve(jac[np.ix_(free, free)], -r[free])
        except np.linalg.LinAlgError:
            break
        direction = np.zeros_like(lam_e)
        direction[free] = step
        base = _merit(lam_e, cols, args)
        t = 1.0
        improved = False
        for _ in range(40):
            trial = np.maximum(lam_e + t * direction, 0.0)
            if _merit(trial, cols, args) < base * (1.0 - 1e-4 * t) + 1e-300:
                lam_e = trial
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return _bisect_duals(lam_e, cols, args)


def _aci_dual(w, active, q, alpha, cap):
    """Multiplier of one adjacent-channel cap per row, every other at 0.

    The load is convex and decreasing in the multiplier, so Newton from 0
    climbs monotonically to the root; each row stops at its own test.
    """
    k = (1.0 - alpha) / _LN2
    wa = np.where(active, w, 0.0)
    offset = (wa * q).sum(1, keepdims=True) - cap
    out = np.zeros(wa.shape[0])
    idx = np.arange(wa.shape[0])
    lam = np.zeros((wa.shape[0], 1))
    for _ in range(100):
        wm = wa / (alpha + wa * lam)
        excess = k * wm.sum(1, keepdims=True) + offset
        go = excess[:, 0] > _DUAL_TOL * cap
        if np.count_nonzero(go) < go.size:
            out[idx[~go]] = lam[~go, 0]
            idx, wa, offset, lam, wm, excess = (
                x[go] for x in (idx, wa, offset, lam, wm, excess))
            if not idx.size:
                return out
        lam = lam + excess / (k * (wm * wm).sum(1, keepdims=True))
    out[idx] = lam[:, 0]
    return out


def _solve_duals(enforced, lam, active, q, alpha, wt, caps):
    """Multipliers (R, J) solving each row's enforced caps to equality (or
    pinning them at 0) on its fixed active set; ``caps`` holds 1 for a cap
    never enforced.  The one-multiplier closed forms come first, column by
    column and on every row at once (a row with no active tone gets 0); a
    row none of them settles runs the coupled Newton alone, from its lam."""
    out = np.zeros_like(lam)
    todo = enforced.any(1)
    if not np.count_nonzero(todo):
        return out
    k = (1.0 - alpha) / _LN2
    for col in range(wt.shape[0]):
        need = todo & enforced[:, col]
        if not np.count_nonzero(need):
            continue
        x = (_power_dual(q, active, alpha, caps[0]) if col == 0
             else _aci_dual(wt[col], active, q, alpha, caps[col]))
        # alpha + w * lam of the candidate: its other multipliers are 0.
        p = np.where(active, k / (alpha + wt[col] * x[:, None]) + q, 0.0)
        r = ((p[:, None, :] * wt).sum(2) - caps) / caps
        # Settled: no enforced cap above it, this one not below it unless
        # its multiplier is 0.
        ok = (need & ~((r > _DUAL_TOL) & enforced).any(1)
              & ((r[:, col] >= -_DUAL_TOL) | (x == 0.0)))
        out[ok, col] = x[ok]
        todo &= ~ok
    for i in np.flatnonzero(todo):
        cols = np.flatnonzero(enforced[i])
        out[i, cols] = _newton_duals(np.maximum(lam[i, cols], 0.0), cols,
                                     (q[i], alpha, wt.T, caps, active[i]))
    return out


def _solve_block(cnir, alpha, ber_threshold, total_cap, omega, aci_caps):
    """(bits, powers, lam, active) of each row of a (T, N) CNIR block, the
    total-power multiplier first in lam.  The active-set loop runs on all
    unsettled rows at once, elementwise and by row sums, so row t is
    bitwise the solve of ``cnir[t]`` alone."""
    c, ber = _as_arrays(cnir, ber_threshold)
    t, n = c.shape
    aci_caps = np.asarray(aci_caps, dtype=float).reshape(-1)
    wt = np.ones((1 + aci_caps.size, n))
    wt[1:] = overlap_matrix(omega, n, aci_caps.size).T
    caps = np.concatenate([[total_cap], aci_caps])
    want = np.isfinite(caps)
    zero = want & (caps <= 0.0)     # forbids every subcarrier coupled to it
    want &= ~zero
    limit = caps * (1.0 + _DUAL_TOL)
    caps = np.where(want, caps, 1.0)
    neglog = -np.log(5.0 * ber)
    k = (1.0 - alpha) / _LN2
    active = (c >= cnir_threshold(alpha, ber)) & ~(wt[zero] > 0.0).any(0)
    lam = np.zeros((t, wt.shape[0]))
    enforced = np.zeros(lam.shape, dtype=bool)
    out = [np.zeros((t, n)), np.zeros((t, n)), lam.copy(), active.copy()]
    # State of the unsettled rows, compacted; idx maps them to block rows.
    idx, num, q = np.arange(t), (1.0 - alpha) * 1.6 * c, -neglog / (1.6 * c)
    for _ in range(4 * (n + aci_caps.size + 4)):
        lam = _solve_duals(enforced, lam, active, q, alpha, wt, caps)
        mu = alpha + lam[:, :1]
        for j in range(1, wt.shape[0]):     # no matmul: rows stay separate
            mu = mu + wt[j] * lam[:, j:j + 1]
        arg = num / (_LN2 * mu * neglog)
        # With every multiplier at 0 the threshold decided the active set;
        # only a positive multiplier can push a rate under 2 bits.
        drop = (arg < 4.0) & active & lam.any(1)[:, None]
        dropping = drop.any(1)
        active &= ~drop
        p = np.where(active, k / mu + q, 0.0)
        newly = (((p[:, None, :] * wt).sum(2) > limit) & want & ~enforced
                 & ~dropping[:, None])
        enforced |= newly
        done = ~(dropping | newly.any(1))
        if np.count_nonzero(done):
            settled = (np.log2(arg, out=np.zeros_like(arg), where=active), p,
                       lam, active)
            if np.count_nonzero(done) == t:     # all rows in this round
                return settled
            for a, v in zip(out, settled):
                a[idx[done]] = v[done]
            if np.count_nonzero(done) == done.size:
                return out
            idx, num, q, active, lam, enforced = (
                x[~done] for x in (idx, num, q, active, lam, enforced))
    raise SolverError("active-set iteration failed to settle")


def solve_capped(cnir, alpha, ber_threshold, total_cap=math.inf, omega=None,
                 aci_caps=()) -> ContinuousSolution:
    """Optimal continuous loading under every finite cap: the one-row case
    of the block solve.

    ``omega`` (N, L) weights the powers into the adjacent-channel loads
    capped by ``aci_caps``.  An infinite cap is never enforced, so
    ``solve_capped(cnir, alpha, ber)`` is the unconstrained optimum.
    """
    c = np.atleast_1d(np.asarray(cnir, dtype=float))
    bits, powers, lam, active = _solve_block(c[None], alpha, ber_threshold,
                                             total_cap, omega, aci_caps)
    lam_pow, lam_aci = float(lam[0, 0]), lam[0, 1:].copy()
    return ContinuousSolution(
        bits=bits[0], powers=powers[0], lambda_power=lam_pow,
        lambda_aci=lam_aci, active_set=np.flatnonzero(active[0]),
        case_id=5 + (lam_pow > 0) + 2 * any(lam_aci > 0),
        objective=objective_value(bits[0], powers[0], alpha), alpha=alpha,
    )


def solve_continuous(realization, caps, su_params) -> ContinuousSolution:
    """Solve one channel realization under its total-power and ACI caps."""
    return solve_capped(getattr(realization, "cnir", realization),
                        su_params.alpha, su_params.ber_threshold,
                        caps.total_cap, caps.aci_weights.omega, caps.aci_caps)
