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

One active-set loop (``solve_capped``) covers every regime.  It starts from
the unconstrained optimum, enforces each cap the current point violates,
nulls subcarriers whose rate falls below 2 bits (remove-only), and repeats
until neither changes.  Binding a cap only lowers every power, so a cap that
holds at the unconstrained point is never enforced.

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
    c = np.atleast_1d(np.asarray(cnir, dtype=float))
    if np.any(c <= 0) or not np.all(np.isfinite(c)):
        raise SolverError("CNIR values must be finite and positive")
    ber = np.broadcast_to(np.asarray(ber_threshold, dtype=float), c.shape)
    if np.any(ber <= 0) or np.any(ber > 0.2):
        raise SolverError("BER thresholds must lie in (0, 0.2]")
    return c, np.array(ber, dtype=float)


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
    return float(alpha * np.sum(powers) - (1.0 - alpha) * np.sum(bits))


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def _finish(c, neglog, alpha, lam, omega, active):
    """Assemble a ContinuousSolution from converged multipliers."""
    n = c.shape[0]
    bits = np.zeros(n)
    powers = np.zeros(n)
    if np.any(active):
        mu = alpha + lam[0] + omega[active] @ lam[1:]
        k = (1.0 - alpha) / _LN2
        arg = (1.0 - alpha) * 1.6 * c[active] / (_LN2 * mu * neglog[active])
        bits[active] = np.log2(arg)
        powers[active] = k / mu - neglog[active] / (1.6 * c[active])
    lam_pow = float(lam[0])
    lam_aci = np.array(lam[1:], dtype=float)
    if lam_pow > 0 and np.any(lam_aci > 0):
        case = 8
    elif lam_pow > 0:
        case = 6
    elif np.any(lam_aci > 0):
        case = 7
    else:
        case = 5
    return ContinuousSolution(
        bits=bits, powers=powers, lambda_power=lam_pow, lambda_aci=lam_aci,
        active_set=np.flatnonzero(active), case_id=case,
        objective=objective_value(bits, powers, alpha), alpha=alpha,
    )


def _power_dual(q, alpha, cap) -> float:
    """Total-power multiplier that makes sum(P) equal ``cap`` on the tones
    with offsets ``q = ln(5 BER) / (1.6 C)``; 0 when the cap is slack."""
    if q.size == 0:
        raise SolverError("lambda_total_power needs a non-empty active set")
    denom = cap - np.sum(q)
    if denom <= 0:
        raise SolverError(
            f"total-power cap {cap} incompatible with the active set "
            f"(denominator {denom} <= 0)"
        )
    return max(q.size * (1.0 - alpha) / _LN2 / denom - alpha, 0.0)


def lambda_total_power(active, cnir, alpha, ber_threshold, cap) -> float:
    """Closed-form multiplier that makes sum(P) over ``active`` equal ``cap``.

    Clamped at 0: a slack cap is inactive.
    """
    c, ber = _as_arrays(cnir, ber_threshold)
    idx = np.asarray(active, dtype=int)
    return _power_dual(np.log(5.0 * ber[idx]) / (1.6 * c[idx]), alpha, cap)


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


def _single_cap_dual(col, q, alpha, weights, caps, active):
    """Multiplier of adjacent-channel cap ``col`` with every other at 0.

    The load is convex and decreasing in the multiplier, so Newton from 0
    climbs monotonically to the root without overshooting it.
    """
    w = weights[active, col]
    k = (1.0 - alpha) / _LN2
    offset = w @ q[active] - caps[col]
    lam = 0.0
    for _ in range(100):
        wm = w / (alpha + w * lam)
        excess = k * np.sum(wm) + offset
        if excess <= _DUAL_TOL * caps[col]:
            break
        lam += excess / (k * (wm @ wm))
    return lam


def _solve_duals(enforced, lam, args):
    """Solve the enforced caps to equality (or pin at zero) on a fixed
    active set, updating ``lam`` in place.

    Candidates with a single positive multiplier come first: the total-power
    closed form, then each adjacent-channel cap alone.  The coupled Newton
    runs only when none of them leaves the other enforced caps settled.
    """
    cols = np.flatnonzero(enforced)
    q, alpha, weights, caps, active = args
    if cols.size == 0 or not np.any(active):
        lam[:] = 0.0
        return
    for j, col in enumerate(cols):
        lam_e = np.zeros(cols.size)
        lam_e[j] = (_power_dual(q[active], alpha, caps[0]) if col == 0
                    else _single_cap_dual(col, *args))
        if _settled(lam_e, _scaled_residuals(lam_e, cols, *args)):
            break
    else:
        lam_e = _newton_duals(np.maximum(lam[cols], 0.0), cols, args)
    lam[:] = 0.0
    lam[cols] = lam_e


def solve_capped(cnir, alpha, ber_threshold, total_cap=math.inf, omega=None,
                 aci_caps=()) -> ContinuousSolution:
    """Optimal continuous loading under every finite cap.

    ``omega`` (N, L) weights the powers into the adjacent-channel loads
    capped by ``aci_caps``.  An infinite cap is never enforced, so
    ``solve_capped(cnir, alpha, ber)`` is the unconstrained optimum.
    """
    c, ber = _as_arrays(cnir, ber_threshold)
    n = c.size
    aci_caps = np.asarray(aci_caps, dtype=float).reshape(-1)
    omega = overlap_matrix(omega, n, aci_caps.size)
    l = aci_caps.size
    neglog = -np.log(5.0 * ber)
    q = -neglog / (1.6 * c)
    weights = np.concatenate([np.ones((n, 1)), omega], axis=1)
    caps = np.concatenate([[total_cap], aci_caps])
    want = np.isfinite(caps)

    # A cap of exactly zero forbids any subcarrier coupled to it.
    forced_null = np.zeros(n, dtype=bool)
    for col in np.flatnonzero(want):
        if caps[col] <= 0.0:
            forced_null |= weights[:, col] > 0.0
            want[col] = False

    active = (c >= cnir_threshold(alpha, ber)) & ~forced_null
    lam = np.zeros(1 + l)
    enforced = np.zeros(1 + l, dtype=bool)
    k = (1.0 - alpha) / _LN2
    args = (q, alpha, weights, caps, active)

    for _ in range(4 * (n + l + 4)):
        _solve_duals(enforced, lam, args)
        p = np.zeros(n)
        if np.any(active):
            mu = alpha + weights[active] @ lam
            arg = (1.0 - alpha) * 1.6 * c[active] / (_LN2 * mu * neglog[active])
            # With every multiplier at 0 the threshold decided the active
            # set; only a positive multiplier can push a rate under 2 bits.
            if np.any(lam > 0.0) and np.any(arg < 4.0):
                idx = np.flatnonzero(active)
                active[idx[arg < 4.0]] = False
                continue
            p[active] = k / mu + q[active]
        loads = weights.T @ p
        newly = want & ~enforced & (loads > caps * (1.0 + _DUAL_TOL))
        if np.any(newly):
            enforced |= newly
            continue
        return _finish(c, neglog, alpha, lam, omega, active)
    raise SolverError("active-set iteration failed to settle")


def solve_continuous(realization, caps, su_params) -> ContinuousSolution:
    """Solve one channel realization under its total-power and ACI caps."""
    return solve_capped(getattr(realization, "cnir", realization),
                        su_params.alpha, su_params.ber_threshold,
                        caps.total_cap, caps.aci_weights.omega, caps.aci_caps)
