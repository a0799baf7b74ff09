"""The block engine as it stood before each round was narrowed to its work:
``_solve_block``, ``_solve_duals`` (with the ``_power_dual``, ``_aci_dual``,
``_meets``, ``_tol`` and the coupled Newton ``_newton_duals`` they call),
``_strip`` and the block repair ``_repair_block`` around it (with
``_cap_sums``), kept verbatim as the reference that
``test_engine_reference.py`` requires the shipped engine to equal bit for
bit.  Each round here runs on every tone of every row left: mu is (T, N)
whatever the multipliers, every load column multiplies by its weights, bits
are taken on every row still looping, and a repair round orders all of a
row's live tones.  The repair gathers the rows over a cap by index and
sums every load column through one (T, 1+L) array.  Both weight the caps
by one (1+L, N) array, ones for the total power, then ``plan.omega.T``
(``_weights``), as the plan once stored it.  It enforces a cap above its
own limit, not the audits' (``_enforce_limit``).  Its powers are
``_pricing``'s 2^b - 1 times ``plan.neglog``, as the shipped repair prices
them, so an empty tone costs +0.0 W."""

import math

import numpy as np

from crloading.discretizer import _pricing
from crloading.errors import SolverError
from crloading.solver import _DUAL_TOL, _LN2

# Rounds over at most this many (row, tone) savings sort them all.
_SORT_ALL = 1024


def _enforce_limit(plan):
    """The loads above which the reference enforces a cap: caps*(1+_DUAL_TOL),
    inf for a cap <= 0.  Its bitwise comparisons show that no tested row
    has a load between this and ``plan.limits``, where the rules differ."""
    return np.where(plan.caps <= 0.0, math.inf, plan.caps * (1.0 + _DUAL_TOL))


def _weights(plan):
    """The (1+L, N) weights of every cap: ones, then the overlap matrix."""
    omega = plan.omega
    return np.concatenate([np.ones((1, omega.shape[0])), omega.T])


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


def _tol(caps, load, wq):
    """How far a load may miss its cap and count as met: _DUAL_TOL times the
    cap or, if larger, the load's terms in magnitude, sum w (k/mu - q) =
    load - 2 sum w q (k/mu and q cancel on a tone that will yet be nulled)."""
    return _DUAL_TOL * np.maximum(caps, load - 2.0 * wq)


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
        tol = _tol(caps, load, wq)
        if np.all((g <= tol) & ((g >= -tol) | (lam == 0.0))):
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


def _meets(excess, tol, enforced, x, col):
    """Rows whose enforced loads are within ``tol`` above their caps, and
    whose cap ``col`` is within it below unless its multiplier ``x`` is 0."""
    return (~((excess > tol) & enforced).any(1)
            & ((excess[:, col] >= -tol[..., col]) | (x == 0.0)))


def _solve_duals(enforced, lam, active, q, alpha, wt, caps):
    """Multipliers (R, J) solving each row's enforced caps to equality (or
    pinning them at 0) on its fixed active set; ``caps`` holds 1 for a cap
    never enforced.  The one-multiplier closed forms come first, column by
    column and on every row at once (a row with no active tone gets 0); a
    row none of them settles runs the coupled Newton alone, from its lam.
    A row that one closed form settled last round (its only positive
    multiplier in ``lam``) tries that column first."""
    out = np.zeros(lam.shape)
    todo = enforced.any(1)
    k, wq = (1.0 - alpha) / _LN2, None
    order = list(enumerate(enforced.T))     # (column, rows enforcing it)
    if np.count_nonzero(lam):
        first = lam > 0.0
        first &= (first.sum(1) == 1)[:, None]
        order = [(c, first[:, c]) for c, _ in order] + [
            (c, rows & ~first[:, c]) for c, rows in order]
    for col, rows in order:
        need = todo & rows
        if not np.count_nonzero(need):
            continue
        x = (_power_dual(q, active, alpha, caps[0]) if col == 0
             else _aci_dual(wt[col], active, q, alpha, caps[col]))
        # alpha + w * lam of the candidate: its other multipliers are 0.
        p = np.where(active, k / (alpha + wt[col] * x[:, None]) + q, 0.0)
        load = (p[:, None, :] * wt).sum(2)
        excess = load - caps
        # _tol >= _DUAL_TOL * cap: wq = sum w q only if a row fails with that
        ok = need & _meets(excess, _DUAL_TOL * caps, enforced, x, col)
        if np.count_nonzero(need ^ ok):
            if wq is None:
                wq = (np.where(active, q, 0.0)[:, None, :] * wt).sum(2)
            ok = need & _meets(excess, _tol(caps, load, wq), enforced, x, col)
        out[ok, col] = x[ok]
        todo &= ~ok
    for i in todo.nonzero()[0]:
        # a cap no active tone loads is slack at 0
        cols = np.flatnonzero(enforced[i] & wt[:, active[i]].any(1))
        out[i, cols] = _newton_duals(
            np.maximum(lam[i, cols], 0.0), wt[cols][:, active[i]].T,
            q[i, active[i]], alpha, caps[cols])
    return out


def _solve_block(cnir, plan):
    """(bits, powers, lam, active) of each row of a (T, N) CNIR block under
    ``plan``, the total-power multiplier first in lam.  The active-set loop
    runs on all unsettled rows at once, elementwise and by row sums, so row
    t is bitwise the solve of ``cnir[t]`` alone."""
    c = plan.rows(cnir)
    t, n = c.shape
    alpha, wt, caps = plan.alpha, _weights(plan), plan.caps
    k = (1.0 - alpha) / _LN2
    active = c >= plan.threshold
    lam = np.zeros((t, wt.shape[0]))
    enforced = np.zeros(lam.shape, dtype=bool)
    out = [np.zeros((t, n)), np.zeros((t, n)), lam.copy(), active.copy()]
    # State of the unsettled rows, compacted; idx maps them to block rows.
    idx, num, q = np.arange(t), (1.0 - alpha) * 1.6 * c, plan.lg / (1.6 * c)
    dropping = np.zeros(t, dtype=bool)
    for it in range(4 * (n + wt.shape[0] + 3)):
        mu = alpha + lam[:, :1]
        for j in range(1, wt.shape[0]):     # no matmul: rows stay separate
            mu = mu + wt[j] * lam[:, j:j + 1]
        arg = num / (_LN2 * mu * plan.neglog)
        if it:  # lam = 0 in round 1, and only lam > 0 pushes a rate under 2
            drop = (arg < 4.0) & active & lam.any(1)[:, None]
            dropping = drop.any(1)
            active &= ~drop
        p = np.where(active, k / mu + q, 0.0)
        newly = ((p[:, None, :] * wt).sum(2) > _enforce_limit(plan)) & ~(
            enforced | dropping[:, None])
        enforced |= newly
        done = ~(dropping | newly.any(1))
        count = np.count_nonzero(done)
        if count:
            settled = (np.log2(arg, out=np.zeros(arg.shape), where=active), p,
                       lam, active)
            if count == t:                      # all rows in this round
                return settled
            for a, v in zip(out, settled):
                a[idx[done]] = v[done]
            if count == done.size:
                return out
            idx, num, q, active, lam, enforced = (
                x[~done] for x in (idx, num, q, active, lam, enforced))
        # Every row left has a cap enforced: lam = 0 holds only in round 1.
        lam = _solve_duals(enforced, lam, active, q, alpha, wt, caps)
    raise SolverError("active-set iteration failed to settle")


def _strip(bits, den, sums, plan, head, down):
    """Greedy steps of each row of ``bits`` (stripped in place), in rounds
    over all rows still over a cap.  A round orders each row's savings by
    (saving descending, index); those above 0.8x the largest are exactly the
    greedy's next picks (a removal leaves a tone at most 3/4 of its saving).
    A row takes its picks up to the first feasible running ``sums`` (the
    loop's sequential subtractions), or all of them and another round."""
    run, b, s, steps = np.arange(bits.shape[0]), bits, sums, 0
    rows = run[:, None]                     # row positions, as a column
    wt = _weights(plan)
    while True:
        neg = head[b] * plan.lg / den           # -saving, +inf when empty
        cut = 0.8 * np.minimum.reduce(neg, 1, keepdims=True)
        rws = rows[:run.size]
        if neg.size > _SORT_ALL:    # the live tones lead any width smallest
            width = int((neg < cut).sum(1).max())
            part = np.sort(np.argpartition(neg, width - 1, 1)[:, :width], 1)
            order = part[rws, np.argsort(neg[rws, part], 1, kind="stable")]
        else:
            order = np.argsort(neg, 1, kind="stable")
        neg = neg[rws, order]
        live = neg < cut
        # sums - saving * [1, omega[tone]], one pick after another
        dpw = np.where(live, neg, 0.0)[..., None] * wt.T[order]
        acc = np.add.accumulate(np.concatenate([s[:, None], dpw], 1), 1)
        over = (acc > plan.limits).any(2)
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


def _repair_block(cont_bits, cnir, plan, max_bits):
    """(bits, powers, steps) of each row of a (T, N) block of continuous
    bits over its checked CNIR, under ``plan``; row t is bitwise the
    repair of ``cnir[t]`` alone, and the rows over a cap are stripped
    together (``_strip``)."""
    bits = np.floor(cont_bits + 0.5)
    bits = np.where(bits < 2.0, 0.0, np.minimum(bits, float(max_bits)))
    bits = bits.astype(int)
    den = 1.6 * cnir
    cost, head, down = _pricing(bits.max())
    powers = cost[bits] * plan.neglog / den
    sums = _cap_sums(powers, plan.omega)
    steps = np.zeros(bits.shape[0], dtype=int)
    todo = (sums > plan.limits).any(1).nonzero()[0]
    if todo.size:
        b, d = bits[todo], den[todo]
        steps[todo] = _strip(b, d, sums[todo], plan, head, down)
        bits[todo] = b
        powers[todo] = cost[b] * plan.neglog / d
        # Recompute the sums from scratch to shed accumulated rounding.
        sums[todo] = _cap_sums(powers[todo], plan.omega)
    if np.count_nonzero(sums <= plan.limits) < sums.size:
        raise SolverError("repair emptied the allocation without reaching "
                          "feasibility")
    return bits, powers, steps
