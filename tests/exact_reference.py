"""The continuous solve at 50 digits, as the drift test's reference.

On the float solution's own active set, with the caps its multipliers
bind (those above 0), the binding caps' loads equal their caps:

    sum_i w_ij P_i(lam) = cap_j,  P_i = k / mu_i + q_i,
    mu_i = alpha + sum_j w_ij lam_j,  k = (1 - alpha) / ln 2,
    q_i = ln(5 BER_i) / (1.6 C_i),

with w_i0 = 1 for the total power.  ``mp.findroot`` solves that system
(each load relative to its cap) from the float multipliers, so Newton
starts within the float solve's rounding of the root.  Every input is
read at its float value, 1.6 included, so the reference solves the same
problem the float solve does, only in exact arithmetic.
"""

import numpy as np
from mpmath import mp

DPS = 50


def exact_solve(sol, cnir, ber, caps):
    """(lam, powers) at ``DPS`` digits for a ``ContinuousSolution``: lam
    has one mpf per cap, total power first (0 where the float solution's
    is), and powers one per tone (0 off its active set)."""
    with mp.workdps(DPS):
        alpha = mp.mpf(sol.alpha)
        k = (1 - alpha) / mp.log(2)
        ber = np.broadcast_to(np.asarray(ber, dtype=float), np.shape(cnir))
        tones = [int(i) for i in sol.active_set]
        q = {i: mp.log(5 * mp.mpf(ber[i])) / (mp.mpf(1.6) * mp.mpf(cnir[i]))
             for i in tones}
        lam_float = [sol.lambda_power, *sol.lambda_aci]
        cap = [caps.total_cap, *caps.aci_caps]
        binding = [j for j, x in enumerate(lam_float) if x > 0.0]

        def weight(i, j):
            return mp.mpf(caps.aci_weights.omega[i, j - 1]) if j else 1

        def powers(lam):
            return {i: k / (alpha + mp.fsum(weight(i, j) * x for j, x
                                            in zip(binding, lam))) + q[i]
                    for i in tones}

        def excess(*lam):
            p = powers(lam)
            return [mp.fsum(weight(i, j) * p[i] for i in tones)
                    / mp.mpf(cap[j]) - 1 for j in binding]

        root = (mp.findroot(excess, [mp.mpf(lam_float[j]) for j in binding])
                if binding else [])
        root = [root[r] for r in range(len(binding))]
        lam = [mp.mpf(0)] * len(cap)
        for j, x in zip(binding, root):
            lam[j] = x
        p = powers(root)
        return lam, [p.get(i, mp.mpf(0)) for i in range(len(cnir))]


def exact_loads(powers, caps):
    """The caps' loads of float ``powers``, summed exactly: total power
    first, then one per ACI cap."""
    with mp.workdps(DPS):
        p = [mp.mpf(x) for x in powers]
        omega = caps.aci_weights.omega
        return [mp.fsum(p)] + [mp.fsum(mp.mpf(w) * x for w, x in
                                       zip(omega[:, j], p))
                               for j in range(omega.shape[1])]
