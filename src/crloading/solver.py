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

One active-set loop covers every regime.  From the unconstrained optimum
it enforces, once, each cap whose load there fails ``cap_limits`` (binding
a cap only lowers every power), then nulls subcarriers whose rate falls
below 2 bits (remove-only) until none does.  It runs on a (T, N) block of
CNIR rows at once (``solve_continuous`` is the T = 1 case); each row is
bitwise its own one-row solve, as nothing multiplies matrices across rows.

On a fixed active set the enforced multipliers solve a complementarity
system (lam >= 0, residual <= 0, lam * residual = 0) with one solution, so
the cheapest solver that settles it wins:

1. the total-power closed form, every other multiplier at zero;
2. each adjacent-channel cap on its own, by a scalar Newton that climbs
   monotonically (the scaled residual is convex and decreasing);
3. projected Newton ascent on the coupled dual, which is concave, so each
   step backtracks on the dual itself and the method needs no fallback.

Of 1 and 2, each row tries first the cap its unconstrained load is over
by the largest factor, then the others in index order.

``case_id`` (5..8) only labels the result by which multipliers are positive.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError

_LN2 = math.log(2.0)
# Relative tolerance to which binding caps are equalized.
_DUAL_TOL = 1e-12
# Relative slack applied to every cap comparison ("is this violated?").
FEAS_TOL = 1e-9


def cap_limits(total_cap, aci_caps):
    """The (1+L) caps, total power first, and the load each admits: a load
    meets its cap up to FEAS_TOL of it, so an infinite cap never binds and
    a zero cap admits no load."""
    aci = np.asarray(aci_caps, dtype=float).reshape(-1)
    caps = np.concatenate([[total_cap], aci])
    return caps, caps * (1.0 + FEAS_TOL)


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


def _checked_cnir(cnir):
    """CNIR as a float array (tones on the last axis), finite and positive."""
    c = np.atleast_1d(np.asarray(cnir, dtype=float))
    if np.count_nonzero((c > 0.0) & (c < math.inf)) < c.size:
        raise SolverError("CNIR values must be finite and positive")
    return c


def _ber_in_range(ber_threshold):
    """BER ceilings as a float array once each lies in (0, 0.2), the range
    the BER model inverts on; a NaN ceiling lies in no range."""
    ber = np.asarray(ber_threshold, dtype=float)
    if np.count_nonzero((ber > 0) & (ber < 0.2)) < ber.size:
        raise SolverError("BER thresholds must lie in (0, 0.2)")
    return ber


def _checked_ber(ber_threshold, n):
    """One BER ceiling per tone of ``n``, each in (0, 0.2)."""
    ber = np.asarray(ber_threshold, dtype=float)
    if ber.ndim and ber.shape != (n,):
        raise SolverError(f"BER thresholds must be one value or one per "
                          f"tone: got {ber.shape} for {n} tones")
    return np.zeros(n) + _ber_in_range(ber)


def cnir_threshold(alpha, ber_threshold):
    """Smallest CNIR loaded by the unconstrained solution (rate hits 2 bits).

    Below this, the subcarrier is nulled.  Vectorized over ber_threshold,
    each in (0, 0.2).
    """
    if not 0.0 < alpha < 1.0:
        raise SolverError(f"alpha must lie in (0, 1), got {alpha}")
    ber = _ber_in_range(ber_threshold)
    out = -(4.0 / 1.6) * (alpha * _LN2 / (1.0 - alpha)) * np.log(5.0 * ber)
    return out if out.ndim else float(out)


def objective_value(bits, powers, alpha) -> float:
    """Scalarized objective F = alpha * sum(P) - (1 - alpha) * sum(b)."""
    return float(alpha * np.add.reduce(powers, None)
                 - (1.0 - alpha) * np.add.reduce(bits, None))


def _cap_sums(powers, omega):
    """Total power and adjacent-channel loads of each row, shape (T, 1+L),
    summed as one row alone is summed: ``np.sum(p)`` and ``omega.T @ p``,
    the latter by one stacked product that runs its BLAS kernel row by row.
    The solve, the repair and both audits judge the caps by these sums."""
    sums = np.add.reduce(powers, 1, keepdims=True)
    if omega.shape[1]:
        sums = np.concatenate([sums, (omega.T @ powers[..., None])[..., 0]], 1)
    return sums


@dataclass(frozen=True, eq=False)
class Plan:
    """The read-only arrays that every solve and repair under one set of
    caps, one alpha and one BER ceiling reads (``ConstraintCaps.plan``)."""

    alpha: float
    lg: np.ndarray              # ln(5 BER) < 0, per tone
    neglog: np.ndarray          # -ln(5 BER)
    threshold: np.ndarray       # smallest CNIR loaded; inf if a zero cap
    omega: np.ndarray           # (N, L) weights of caps 1..L; cap 0's are 1
    caps: np.ndarray            # (1+L,) caps as ``cap_limits`` gives them
    limits: np.ndarray          # ``cap_limits``: enforce and repair above
    rank: np.ndarray = field(init=False)    # load * rank orders the caps

    def __post_init__(self):
        """``rank``, the least cap > 0 over each cap: times a load, the
        load's factor over its cap, scaled so that no product overflows (0
        for a cap <= 0 or infinite).  The total's is raised by FEAS_TOL, so
        that a row whose caps tie tries the total first, as the index order
        does."""
        caps = self.caps
        finite = (caps > 0.0) & (caps < math.inf)
        rank = np.divide(caps[finite].min(initial=math.inf), caps,
                         out=np.zeros(caps.shape), where=finite)
        rank[0] *= 1.0 + FEAS_TOL
        object.__setattr__(self, "rank", rank)

    def rows(self, cnir):
        """``cnir`` as a float (T, N) block once it is checked to be
        finite, positive and one value per tone of the plan."""
        c = np.atleast_2d(_checked_cnir(cnir))
        if c.shape[1] != self.omega.shape[0]:
            raise SolverError(
                f"overlap matrix shape {self.omega.shape} does not match "
                f"{c.shape[1]} subcarriers x {self.omega.shape[1]} "
                f"adjacent-channel caps")
        return c


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def _power_dual(q, active, alpha, cap):
    """Total-power multiplier per row that makes sum(P) over the ``active``
    tones equal ``cap``, with offsets ``q = ln(5 BER) / (1.6 C)``; 0 when
    the cap is slack.  Every q is negative and the plan makes the cap
    positive, so the denominator is at least the cap."""
    denom = cap - np.add.reduce(np.where(active, q, 0.0), -1)
    return np.maximum(np.add.reduce(active, -1) * (1.0 - alpha) / _LN2
                      / denom - alpha, 0.0)


# ---------------------------------------------------------------------------
# Dual engine for the capped regimes
# ---------------------------------------------------------------------------


def _tol(caps, load, wq):
    """How far a load may miss its cap and count as met: _DUAL_TOL times the
    cap or, if larger, the load's terms in magnitude, sum w (k/mu - q) =
    load - 2 sum w q (k/mu and q cancel on a tone that will yet be nulled)."""
    return _DUAL_TOL * np.maximum(caps, load - 2.0 * wq)


def _settled(excess, tol, lam, enforced):
    """Whether ``lam`` settles each row's caps, from its loads' ``excess``:
    each enforced load is at most ``tol`` above its cap, each load with a
    multiplier > 0 at most ``tol`` below it, and a NaN load never is."""
    return np.logical_and.reduce(((excess <= tol) | ~enforced)
                                 & ((excess >= -tol) | (lam == 0.0)), -1)


def _newton_duals(lam, w, q, alpha, caps):
    """Multipliers of the caps weighted by ``w`` (active tones x caps), by
    projected Newton ascent from ``lam >= 0`` on the concave dual

        phi(lam) = k * sum(ln mu) - lam . (caps - w^T q),  mu = alpha + w lam,

    whose gradient is the load excess (D. P. Bertsekas, SIAM J. Control
    Optim. 20(2), 1982).  A multiplier whose scaled gradient step reaches
    0 is held on its bound by that step; the others take a Newton step
    damped by nu times the Hessian's diagonal, so a singular Hessian (more
    caps than tones, collinear weights) still ascends.  Each step
    backtracks along the projection arc (Armijo)."""
    k = (1.0 - alpha) / _LN2
    wq = w.T @ q
    nu = 1e-12
    for _ in range(100):
        mu = alpha + w @ lam
        load = w.T @ (k / mu + q)
        g = load - caps
        if _settled(g, _tol(caps, load, wq), lam, np.True_):  # all enforced
            return lam
        wm = w / mu[:, None]
        hess = k * wm.T @ wm            # minus the Hessian of phi
        diag = hess.diagonal()
        step = g / diag
        free = lam + step > 0.0
        step[free] = np.linalg.solve(
            hess[np.ix_(free, free)] + nu * np.diag(diag[free]), g[free])
        for t in 0.5 ** np.arange(50):
            trial = np.maximum(lam + t * step, 0.0)
            d = trial - lam
            # phi(trial) - phi(lam), free of phi's own rounding
            gain = k * np.log1p((w @ d) / mu).sum() - d @ (caps - wq)
            if gain >= 1e-4 * (t * g[free] @ step[free] + g[~free] @ d[~free]):
                break
        else:
            break
        lam = trial
        nu = max(0.1 * nu, 1e-12) if t == 1.0 else min(10.0 * nu, 1e6)
    raise SolverError(f"cap equalization did not converge; excess {g}")


def _aci_dual(w, active, q, alpha, cap):
    """Multiplier of one adjacent-channel cap per row, every other at 0.

    The load is convex and decreasing in the multiplier, so Newton from 0
    climbs monotonically to the root; a row that meets its stop test steps
    by 0.0 from then on, dividing nothing.
    """
    k = (1.0 - alpha) / _LN2
    wa = np.where(active, w, 0.0)
    offset = np.add.reduce(wa * q, 1, keepdims=True) - cap
    lam = np.zeros((wa.shape[0], 1))
    for _ in range(100):
        wm = wa / (alpha + wa * lam)
        excess = k * np.add.reduce(wm, 1, keepdims=True) + offset
        go = excess > _DUAL_TOL * cap
        if not np.count_nonzero(go):
            break
        lam = lam + np.divide(excess, k * np.add.reduce(
            wm * wm, 1, keepdims=True), out=np.zeros(lam.shape), where=go)
    return lam[:, 0]


def _state(lam, active, q, plan):
    """(mu, powers) of each row at ``lam``: mu = alpha + w lam over the
    columns some row has > 0 (alpha while none has), with no matmul."""
    mu = plan.alpha
    for j in np.logical_or.reduce(lam, 0).nonzero()[0]:
        mu = mu + (plan.omega[:, j - 1] if j else 1.0) * lam[:, j:j + 1]
    return mu, np.where(active, (1.0 - plan.alpha) / _LN2 / mu + q, 0.0)


def _solve_duals(enforced, first, lam, active, q, plan):
    """Multipliers (R, J) solving each row's enforced caps to equality (or
    pinning them at 0) on its fixed active set under ``plan``, and each
    row's (mu, powers) at them.  The one-multiplier closed forms come
    first, column by column on every row at once (a row with no active tone
    gets 0); a row none settles runs the coupled Newton alone, from its lam.
    A column that settles every row hands back its candidate's state.

    Each row tries its preferred column ``first``, if enforced, before the
    rest, which go in index order, and no column twice.  Whether a
    candidate settles a row rests on that row alone, and the system has one
    solution, so the order moves a row's answer only if two single-cap
    candidates both settle it: both caps binding within the equalization
    tolerance at once."""
    alpha, caps, omega = plan.alpha, plan.caps, plan.omega
    out, todo = np.zeros(lam.shape), np.ones(lam.shape[0], bool)
    k, wq, tol = (1.0 - alpha) / _LN2, None, _DUAL_TOL * caps
    order = enumerate(enforced.T)       # (column, rows that may try it)
    if np.count_nonzero(first):
        order = itertools.chain(
            ((col, enforced[:, col] & (first == col))
             for col in range(1, lam.shape[1])),
            ((col, rows & (first != col) if col else rows)
             for col, rows in order))
    for col, rows in order:
        need = todo & rows
        wanted = np.count_nonzero(need)
        if not wanted:
            continue
        w = omega[:, col - 1] if col else 1.0      # cap col's weights
        x = (_aci_dual(w, active, q, alpha, caps[col]) if col
             else _power_dual(q, active, alpha, caps[0]))
        cand = np.zeros(lam.shape)      # the candidate: x in column col
        cand[:, col] = x
        mu = alpha + w * x[:, None]
        p = np.where(active, k / mu + q, 0.0)
        load = _cap_sums(p, omega)
        excess = load - caps
        # _tol >= _DUAL_TOL * cap: wq = sum w q only if a row fails that
        ok = need & _settled(excess, tol, cand, enforced)
        if np.count_nonzero(ok) < wanted:
            if wq is None:
                wq = _cap_sums(np.where(active, q, 0.0), omega)
            ok = need & _settled(excess, _tol(caps, load, wq), cand, enforced)
        np.copyto(out[:, col], x, where=ok)
        if np.count_nonzero(ok) == ok.size:     # the candidate's state holds
            return out, mu, p
        todo ^= ok
    for i in todo.nonzero()[0]:
        a = active[i]   # weights (k, J) on a, C order: it sets the BLAS bits
        w = np.c_[np.ones(np.count_nonzero(a)), omega[a]]
        j = np.flatnonzero(enforced[i] & w.any(0))  # the rest are slack at 0
        out[i, j] = _newton_duals(np.maximum(lam[i, j], 0.0), w.take(j, 1),
                                  q[i, a], alpha, caps[j])
    return (out, *_state(out, active, q, plan))


def _solve_block(cnir, plan):
    """(bits, powers, lam, active) of each row of a (T, N) CNIR block under
    ``plan``, the total-power multiplier first in lam.  The active-set loop
    runs on all unsettled rows at once, elementwise and by row sums, so row
    t is bitwise the solve of ``cnir[t]`` alone.

    Round 0 prices every tone at mu = alpha and enforces, once, the caps
    whose loads there exceed ``plan.limits``: no later load exceeds round
    0's, in floating point too, so every other cap stays within its limit.
    Those loads also give each row the cap it is over by the largest
    factor, which the dual step tries first; two single-cap candidates
    both settle a row only when both caps bind within ``_DUAL_TOL`` at
    once, so outside such a tie the order moves no answer.
    Each multiplier is >= 0 (``_power_dual`` clamps, ``_aci_dual`` climbs
    from 0, ``_newton_duals`` projects), so mu_i = fl(alpha + ...) >= alpha,
    fl(k/mu_i + q_i) <= fl(k/alpha + q_i) by monotone rounding, a nulled
    tone's 0.0 is below its round-0 power (>= 0.75 k/alpha), and each row's
    ``_cap_sums`` adds powers >= 0 with weights >= 0 in a fixed order."""
    c = plan.rows(cnir)
    t, n = c.shape
    active, lam = c >= plan.threshold, np.zeros((t, plan.caps.size))
    num, q, mu = (1.0 - plan.alpha) * 1.6 * c, plan.lg / (1.6 * c), plan.alpha
    p = np.where(active, (1.0 - plan.alpha) / _LN2 / mu + q, 0.0)
    # nothing lowers a load of 0: a cap < 0, whose tones the plan nulls
    load = _cap_sums(p, plan.omega)
    enforced = load > np.maximum(plan.limits, 0.0)
    busy = np.logical_or.reduce(enforced, 1)
    # each row's preferred cap, the one it is over by the largest factor
    first = (load * plan.rank).argmax(1)
    # State of the unsettled rows, compacted once some settle: then idx maps
    # them to block rows, and out holds the settled ones.
    idx = out = arg = None
    for _ in range(n + 2):      # after round 0, a row nulls a tone or settles
        left = np.count_nonzero(busy)
        if left < busy.size:                # some rows settle this round
            if arg is None:                 # round 0: rates at mu = alpha
                arg = num / (_LN2 * mu * plan.neglog)
            if out is None and not left:    # all rows, all at once
                return (np.log2(arg, out=np.zeros(arg.shape), where=active),
                        p, lam, active)
            if out is None:
                idx, out = np.arange(t), [np.empty((t, v.shape[1]), v.dtype)
                                          for v in (p, p, lam, active)]
            done = ~busy
            rows, arg = idx[done], arg[done]    # bits of the settled alone
            out[0][rows] = np.log2(arg, out=np.zeros(arg.shape),
                                   where=active[done])
            for a, v in zip(out[1:], (p, lam, active)):
                a[rows] = v[done]
            if not left:
                return out
            idx, num, q, active, lam, enforced, first = (
                x[busy] for x in (idx, num, q, active, lam, enforced, first))
        lam, mu, p = _solve_duals(enforced, first, lam, active, q, plan)
        arg = num / (_LN2 * mu * plan.neglog)
        # only lam > 0 pushes a rate under 2 bits
        drop = (arg < 4.0) & active & np.logical_or.reduce(lam, 1)[:, None]
        busy = np.logical_or.reduce(drop, 1)
        active ^= drop
    raise SolverError("active-set iteration failed to settle")


def _one_row(cnir):
    """``cnir`` (one value or one per tone) as a float (1, N) block; the
    one-row entry points refuse a block of several rows."""
    c = np.atleast_1d(np.asarray(cnir, dtype=float))
    if c.ndim > 1:
        raise SolverError(f"CNIR must be one row of tones, got shape "
                          f"{c.shape}")
    return c[None]


def _solution(block, alpha) -> ContinuousSolution:
    """Row 0 of a block solve's (bits, powers, lam, active)."""
    bits, powers, lam, active = (x[0] for x in block)
    lam_pow, lam_aci = float(lam[0]), lam[1:].copy()
    return ContinuousSolution(
        bits=bits, powers=powers, lambda_power=lam_pow, lambda_aci=lam_aci,
        active_set=active.nonzero()[0],
        case_id=5 + (lam_pow > 0) + 2 * any(lam_aci > 0),
        objective=objective_value(bits, powers, alpha), alpha=alpha,
    )


def solve_continuous(realization, caps, su_params) -> ContinuousSolution:
    """Solve one channel realization under its total-power and ACI caps,
    with the caps' plan at the SU's alpha and BER."""
    plan = caps.plan(su_params.alpha, su_params.ber_threshold)
    c = _one_row(getattr(realization, "cnir", realization))
    return _solution(_solve_block(c, plan), su_params.alpha)
