"""Monte Carlo harness, parameter sweeps, oracle comparison, runtime scaling.

Reproducibility contract: trial t of a run with master seed s draws from
``default_rng(SeedSequence((s, t)))``, so trials are independent work items
whose results do not depend on execution order or batching.  Sweeps reuse
the same master seed at every parameter value (common random numbers), so
curves differ only through the parameter.

Violation-rate semantics: the statistical interference guarantee applies to
the power the solver targets, and the continuous solution attains a binding
cap exactly; the reported ``cci/aci_violation_rate`` therefore samples the
realized interference at the continuous powers.  Rates for the transmitted
(discrete) allocation, which is conservative after rounding, are reported
alongside as ``*_discrete``.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .channel import aci_overlap_matrix, sample_sp_gain, sample_su_channel
from .constraints import ConstraintCaps, build_caps
from .discretizer import round_and_repair
from .errors import ConfigError, SolverError
from .oracle import exhaustive_search
from .scenario import ScenarioConfig, apply_parameter, path_loss_db
from .solver import solve_continuous


@dataclass(frozen=True)
class AggregateStats:
    """Reduction of one Monte Carlo run.  CI fields are 95% half-widths."""

    trials: int
    avg_throughput: float           # bits per OFDM symbol
    avg_power: float                # watts
    cci_violation_rate: float
    aci_violation_rate: float
    throughput_ci95: float
    power_ci95: float
    cci_rate_ci95: float
    aci_rate_ci95: float
    cci_violation_rate_discrete: float
    aci_violation_rate_discrete: float

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in (
            "trials", "avg_throughput", "avg_power", "cci_violation_rate",
            "aci_violation_rate", "throughput_ci95", "power_ci95",
            "cci_rate_ci95", "aci_rate_ci95", "cci_violation_rate_discrete",
            "aci_violation_rate_discrete",
        )}


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """The per-trial generator: splittable, order-independent."""
    return np.random.default_rng(np.random.SeedSequence((master_seed,
                                                         trial_index)))


def run_trial(cfg: ScenarioConfig, caps: ConstraintCaps, trial_index: int,
              master_seed: int):
    """One trial: sample, solve, discretize, sample interference outcomes.

    Returns (throughput_bits, power_w, cci_viol, aci_viol,
    cci_viol_discrete, aci_viol_discrete, allocation, solution).
    """
    rng = trial_rng(master_seed, trial_index)
    su = cfg.su
    real = sample_su_channel(su, rng)
    sol = solve_continuous(real, caps, su)
    alloc = round_and_repair(sol, caps, caps.aci_weights.omega, real.cnir,
                             su.ber_threshold, su.max_bits)
    total_cont = float(np.sum(sol.powers))
    total_disc = float(np.sum(alloc.powers))
    omega = caps.aci_weights.omega
    aci_cont = omega.T @ sol.powers
    aci_disc = omega.T @ alloc.powers

    cci = cci_d = aci = aci_d = False
    adj_seen = 0
    for pu in cfg.pus:
        gain = sample_sp_gain(pu.fading_rate, rng)
        if pu.kind == "cochannel":
            atten = 10.0 ** (-0.1 * path_loss_db(pu.distance, cfg.path_loss))
            cci |= gain * atten * total_cont > pu.interference_cap
            cci_d |= gain * atten * total_disc > pu.interference_cap
        else:
            aci |= gain * aci_cont[adj_seen] > pu.interference_cap
            aci_d |= gain * aci_disc[adj_seen] > pu.interference_cap
            adj_seen += 1
    return (float(np.sum(alloc.bits)), total_disc, cci, aci, cci_d, aci_d,
            alloc, sol)


def _trial_block(cfg, caps, indices, master_seed):
    out = np.empty((len(indices), 6))
    for row, t in enumerate(indices):
        try:
            out[row] = run_trial(cfg, caps, t, master_seed)[:6]
        except SolverError as exc:
            raise SolverError(f"trial {t} of master seed {master_seed} "
                              f"failed: {exc}") from exc
    return out


def run_monte_carlo(cfg: ScenarioConfig, trials=None, master_seed=None,
                    caps: ConstraintCaps | None = None,
                    workers: int = 1) -> AggregateStats:
    """Run ``trials`` independent trials and reduce.

    The reduction always happens in trial-index order, so the result is
    identical for any ``workers`` count.
    """
    trials = cfg.experiment.trials if trials is None else int(trials)
    master_seed = (cfg.experiment.seed if master_seed is None
                   else int(master_seed))
    if caps is None:
        caps = build_caps(cfg)
    if workers <= 1 or trials < 2 * workers:
        table = _trial_block(cfg, caps, range(trials), master_seed)
    else:
        bounds = np.linspace(0, trials, workers + 1).astype(int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(
                lambda se: _trial_block(cfg, caps, range(se[0], se[1]),
                                        master_seed),
                zip(bounds[:-1], bounds[1:]),
            ))
        table = np.concatenate(parts, axis=0)

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
    cci_d = float(np.mean(table[:, 4]))
    aci_d = float(np.mean(table[:, 5]))
    return AggregateStats(
        trials=trials, avg_throughput=thr, avg_power=pwr,
        cci_violation_rate=cci, aci_violation_rate=aci,
        throughput_ci95=thr_ci, power_ci95=pwr_ci, cci_rate_ci95=cci_ci,
        aci_rate_ci95=aci_ci, cci_violation_rate_discrete=cci_d,
        aci_violation_rate_discrete=aci_d,
    )


def sweep_experiment(cfg: ScenarioConfig, param=None, values=None,
                     trials=None, master_seed=None, workers: int = 1):
    """Monte Carlo at each parameter value with common random numbers.

    Returns a list of (value, AggregateStats).  The spectral geometry does
    not depend on any sweepable parameter, so the overlap matrix is built
    once and shared.
    """
    param = cfg.experiment.sweep_param if param is None else param
    values = cfg.experiment.sweep_values if values is None else values
    if param is None or values is None or not len(values):
        raise ConfigError("sweep needs a parameter and a non-empty value list")
    omega = aci_overlap_matrix(cfg)
    out = []
    for v in values:
        cfg_v = apply_parameter(cfg, param, v)
        caps = build_caps(cfg_v, omega)
        try:
            stats = run_monte_carlo(cfg_v, trials, master_seed, caps=caps,
                                    workers=workers)
        except SolverError as exc:
            raise SolverError(f"{param}={v}: {exc}") from exc
        out.append((float(v), stats))
    return out


@dataclass(frozen=True)
class OracleComparison:
    rows: tuple                     # (trial, f_proposed, f_opt, gap, ts, to)
    median_gap: float
    max_gap: float
    speedup: float                  # median oracle time / median solver time

    def gaps(self):
        return np.asarray([r[3] for r in self.rows])


def compare_with_oracle(cfg: ScenarioConfig, instances: int, master_seed=None,
                        prune: bool = True) -> OracleComparison:
    """Proposed pipeline vs exhaustive search on random channel draws.

    The relative optimality gap is (F_proposed - F_opt) / |F_opt| (both
    objectives are negative for any non-trivial instance).
    """
    master_seed = (cfg.experiment.seed if master_seed is None
                   else int(master_seed))
    su = cfg.su
    caps = build_caps(cfg)
    omega = caps.aci_weights.omega
    rows = []
    for t in range(instances):
        rng = trial_rng(master_seed, t)
        real = sample_su_channel(su, rng)
        t0 = time.perf_counter()
        sol = solve_continuous(real, caps, su)
        alloc = round_and_repair(sol, caps, omega, real.cnir,
                                 su.ber_threshold, su.max_bits)
        t1 = time.perf_counter()
        opt = exhaustive_search(real.cnir, su.alpha, su.ber_threshold, caps,
                                omega, b_max=su.max_bits, prune=prune)
        t2 = time.perf_counter()
        if opt.objective != 0.0:
            gap = (alloc.objective - opt.objective) / abs(opt.objective)
        else:
            gap = 0.0 if alloc.objective == 0.0 else math.inf
        rows.append((t, alloc.objective, opt.objective, gap, t1 - t0,
                     t2 - t1))
    gaps = [r[3] for r in rows]
    t_solve = float(np.median([r[4] for r in rows]))
    t_oracle = float(np.median([r[5] for r in rows]))
    return OracleComparison(rows=tuple(rows),
                            median_gap=float(np.median(gaps)),
                            max_gap=float(np.max(gaps)),
                            speedup=t_oracle / t_solve if t_solve > 0
                            else math.inf)


def _resized(cfg: ScenarioConfig, n: int) -> ScenarioConfig:
    su = cfg.su
    if isinstance(su.ber_threshold, tuple) or isinstance(su.pu_interference,
                                                         tuple):
        raise ConfigError("runtime scaling needs scalar per-subcarrier "
                          "parameters to resize the band")
    return replace(cfg, su=replace(su, num_subcarriers=int(n)))


def runtime_scaling(cfg: ScenarioConfig, n_values, repeats: int = 7,
                    master_seed=None):
    """Median solve_continuous wall time per band size.

    Returns (rows, slope): rows are (n, median_seconds); slope is the
    log-log fit over the rows (nan with fewer than two sizes).
    """
    master_seed = (cfg.experiment.seed if master_seed is None
                   else int(master_seed))
    rows = []
    for n in n_values:
        cfg_n = _resized(cfg, n)
        caps = build_caps(cfg_n)
        su = cfg_n.su
        times = []
        for r in range(repeats):
            rng = trial_rng(master_seed, 1_000_000 * int(n) + r)
            real = sample_su_channel(su, rng)
            t0 = time.perf_counter()
            solve_continuous(real, caps, su)
            times.append(time.perf_counter() - t0)
        rows.append((int(n), float(np.median(times))))
    if len(rows) >= 2:
        slope = float(np.polyfit(np.log([r[0] for r in rows]),
                                 np.log([r[1] for r in rows]), 1)[0])
    else:
        slope = math.nan
    return rows, slope
