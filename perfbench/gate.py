"""Correctness gate: checks on the outputs the benchmark times.

The gate uses only public ``crloading`` functions.  A trial is *failed* when
it raises ``SolverError``, when its continuous solution fails
``kkt_verify``, or when its allocation fails ``check_feasible``.  An
infeasible allocation is a wrong output and also makes the run incorrect;
an uncertified solution or a raised error is counted, not fatal.
"""

from __future__ import annotations

import math

import numpy as np

from crloading import (AggregateStats, check_feasible, exhaustive_search,
                       kkt_verify)

# Relative tolerance against recorded references.  Summation order may
# change between versions of the program (batched engines, vectorised
# repair); 1e-9 allows that while catching any change of outcome.
REFERENCE_RTOL = 1e-9
# An oracle gap below this means the proposed allocation beat the
# "optimal" one: the oracle or the objective is wrong.
GAP_FLOOR = -1e-12


def check_trial(sol, alloc, cnir, caps, su):
    """(kkt_passed, feasible) for one continuous solution and allocation."""
    kkt = kkt_verify(sol, cnir, su.ber_threshold, caps)
    feas = check_feasible(alloc, caps, cnir, su.ber_threshold)
    return kkt.passed, feas.feasible


def reduce_outcomes(table) -> AggregateStats:
    """Reduce per-trial outcome rows exactly as ``run_monte_carlo`` does.

    Each row is (bits, power, cci, aci, cci_discrete, aci_discrete).
    """
    table = np.asarray(table, dtype=float).reshape(-1, 6)
    trials = table.shape[0]

    def mean_ci(col):
        m = float(np.mean(col))
        if trials > 1:
            hw = 1.96 * float(np.std(col, ddof=1)) / math.sqrt(trials)
        else:
            hw = 0.0
        return m, hw

    thr, thr_ci = mean_ci(table[:, 0])
    pwr, pwr_ci = mean_ci(table[:, 1])
    cci, cci_ci = mean_ci(table[:, 2])
    aci, aci_ci = mean_ci(table[:, 3])
    return AggregateStats(
        trials=trials, avg_throughput=thr, avg_power=pwr,
        cci_violation_rate=cci, aci_violation_rate=aci,
        throughput_ci95=thr_ci, power_ci95=pwr_ci, cci_rate_ci95=cci_ci,
        aci_rate_ci95=aci_ci,
        cci_violation_rate_discrete=float(np.mean(table[:, 4])),
        aci_violation_rate_discrete=float(np.mean(table[:, 5])),
    )


def mismatches(got: dict, want: dict, rtol=0.0):
    """Keys whose values differ by more than ``rtol`` (relative)."""
    bad = []
    for key, w in want.items():
        g = got.get(key)
        if g is None or not math.isclose(g, w, rel_tol=rtol, abs_tol=0.0):
            bad.append(key)
    return bad


def engines_agree(cnir, su, caps):
    """The pruned DFS and the flat enumeration return the same optimum.

    Returns the DFS result, or None when they disagree.
    """
    omega = caps.aci_weights.omega
    dfs = exhaustive_search(cnir, su.alpha, su.ber_threshold, caps, omega,
                            b_max=su.max_bits, prune=True)
    flat = exhaustive_search(cnir, su.alpha, su.ber_threshold, caps, omega,
                             b_max=su.max_bits, prune=False)
    same = (np.array_equal(dfs.bits, flat.bits)
            and dfs.objective == flat.objective)
    return dfs if same else None


class Gate:
    """Collects failed trials (with replay coordinates) and gate errors."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures = []          # one dict per failure, with coordinates
        self.errors = []            # gate violations that make the run wrong

    def fail(self, reason, master_seed, value, trial, trials=1,
             wrong_output=False):
        """Record failed trials; ``trial_rng(master_seed, trial)`` replays
        the first of them at sweep value ``value``."""
        self.failed += trials
        self.failures.append({"workload": self.workload,
                              "master_seed": master_seed, "value": value,
                              "trial": trial, "trials": trials,
                              "reason": reason})
        if wrong_output:
            self.errors.append(f"{reason} at value={value} trial={trial}")

    def record(self, kkt_ok, feasible, master_seed, value, trial):
        """Record the outcome of the per-trial checks."""
        reasons = [r for r, ok in (("kkt", kkt_ok), ("infeasible", feasible))
                   if not ok]
        if reasons:
            self.fail("+".join(reasons), master_seed, value, trial,
                      wrong_output=not feasible)

    def expect(self, ok, message):
        if not ok:
            self.errors.append(message)

    @property
    def correct(self):
        return not self.errors
