"""Monte Carlo harness, parameter sweeps, oracle comparison, runtime scaling.

Reproducibility contract: trial t of a run with master seed s draws from
``default_rng(SeedSequence((s, t)))``, so trials are independent work items
whose results do not depend on execution order or batching (Monte Carlo runs
draw and solve blocks whose rows equal ``run_trial`` bitwise, seeding a long
block from a vectorised copy of SeedSequence's hash).  Sweeps reuse
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
import numbers
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .channel import (_cnir, _sp_mean, aci_overlap_matrix,
                      pu_interference_to_su)
from .constraints import ConstraintCaps, build_caps
from .discretizer import _allocation, _repair, round_and_repair
from .errors import ConfigError, SolverError
from .oracle import exhaustive_search
from .scenario import (_MAX_COUNT, ScenarioConfig, apply_parameter,
                       path_loss_db)
from .solver import _cap_sums, _solution, _solve_block, solve_continuous

# Trials per block in run_monte_carlo: about 2^14 CNIR entries, so each
# (trials x N) array of a block stays near 128 KiB.
_BLOCK_ENTRIES = 1 << 14
# A block of this many trials or more seeds its generators from one
# vectorised hash (~0.1 ms); a shorter one calls trial_rng (~15 us a trial).
_HASHED_BLOCK = 16
_MASK32 = 0xFFFFFFFF
Trial = namedtuple("Trial", "throughput_bits power_w cci_viol aci_viol "
                   "cci_viol_discrete aci_viol_discrete allocation solution "
                   "cnir")


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
        return asdict(self)


def _integer(value, what: str, least: int) -> int:
    """``value`` as an int >= ``least``; integral floats such as 64.0 count."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (isinstance(value, numbers.Integral)
                    or float(value).is_integer()) or value < least):
        raise ConfigError(f"{what} must be at least {least} and integral, "
                          f"got {value!r}")
    return int(value)


def _seed(cfg: ScenarioConfig, master_seed) -> int:
    """The master seed, ``experiment.seed`` when not given."""
    return _integer(cfg.experiment.seed if master_seed is None
                    else master_seed, "master seed", 0)


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """The per-trial generator: splittable, order-independent."""
    if master_seed < 0 or trial_index < 0:
        raise ConfigError(f"seed and trial index must be non-negative, got "
                          f"seed {master_seed}, trial {trial_index}")
    return np.random.default_rng(np.random.SeedSequence((master_seed,
                                                         trial_index)))


@lru_cache(maxsize=64)
def _hash_constants(start, count, init, mult):
    """``_hash``'s h_start .. h_(start+count), a read-only uint32 column."""
    h = np.array([init * pow(mult, i, 1 << 32) & _MASK32
                  for i in range(start, start + count + 1)], np.uint32)
    h.flags.writeable = False
    return h[:, None]


def _hash(value, start, count, init=0x43B0D7E5, mult=0x931E8875):
    """SeedSequence's hash steps start .. start + count - 1, step i on row i
    of ``value``: xor h_i, times h_(i+1), fold; h_i = init*mult^i mod 2^32."""
    h = _hash_constants(start, count, init, mult)
    value = (value ^ h[:-1]) * h[1:]
    return value ^ value >> 16


def _mix(x, y):
    out = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
    return out ^ out >> 16


def _seed_words(master_seed: int, trials: np.ndarray) -> np.ndarray:
    """``SeedSequence((master_seed, t)).generate_state(4, np.uint64)`` of
    each trial index t < 2^32, shape (T, 4): numpy's mixing of the entropy
    words into a 4-word pool, then its state generation, on (words, T)
    uint32 arrays, which wrap silently as numpy's own arithmetic does."""
    words = [master_seed >> k & _MASK32
             for k in range(0, max(master_seed.bit_length(), 1), 32)]
    entropy = np.zeros((max(4, len(words) + 1), trials.size), np.uint32)
    entropy[:len(words)] = np.array(words, np.uint32)[:, None]
    entropy[len(words)] = trials
    pool = _hash(entropy[:4], 0, 4)
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], 4 + 3 * src, 3))
    for i, word in enumerate(entropy[4:]):
        pool = _mix(pool, _hash(word, 16 + 4 * i, 4))
    state = _hash(pool[[0, 1, 2, 3] * 2], 0, 8, 0x8B51F9DD, 0x58F38DED)
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


class _StateWords(ISeedSequence):
    """Hands a bit generator the words its SeedSequence would generate."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


@lru_cache(maxsize=64)
def _constants(cfg: ScenarioConfig):
    """What every block of ``cfg`` draws and scores with: sigma^2 + J per
    tone, the mean of each SU->PU gain, and the path-loss attenuation of
    each co-channel PU (None for an adjacent one)."""
    floor = cfg.su.noise_variance + pu_interference_to_su(cfg.su)
    means = np.array([_sp_mean(pu.fading_rate) for pu in cfg.pus])
    floor.flags.writeable = means.flags.writeable = False
    return floor, means, tuple(10.0 ** (-0.1 * path_loss_db(
        pu.distance, cfg.path_loss)) if pu.kind == "cochannel" else None
        for pu in cfg.pus)


def _draw(cfg: ScenarioConfig, master_seed: int, trials):
    """CNIR rows and SU->PU gains (one per PU, in ``cfg.pus`` order, drawn
    after the SU link) of the given trials, bitwise as ``trial_rng`` then
    ``sample_su_channel`` and ``sample_sp_gain`` draw them: each generator
    fills one row of standard exponentials, scaled per column."""
    su, n = cfg.su, cfg.su.num_subcarriers
    floor, means, _ = _constants(cfg)
    if len(trials) < _HASHED_BLOCK or max(trials) > _MASK32:
        rngs = (trial_rng(master_seed, t) for t in trials)
    else:
        rngs = (np.random.Generator(np.random.PCG64(_StateWords(w)))
                for w in _seed_words(master_seed,
                                     np.array(trials, np.uint32)))
    draws = np.empty((len(trials), n + len(means)))
    for rng, row in zip(rngs, draws):
        rng.standard_exponential(out=row)
    return _cnir(su, draws[:, :n], floor), draws[:, n:] * means


def _outcomes(cfg: ScenarioConfig, omega, sp, cont_powers, bits, sums):
    """Per trial: throughput, power, and the co- and adjacent-channel
    violation indicators at the continuous, then the discrete powers (whose
    cap sums the repair hands over)."""
    sums = np.array((_cap_sums(cont_powers, omega), sums))
    viol = np.zeros((2, 2, len(sp)), dtype=bool)
    adj = 0
    for gain, pu, atten in zip(sp.T, cfg.pus, _constants(cfg)[2]):
        if atten is not None:
            viol[:, 0] |= gain * atten * sums[:, :, 0] > pu.interference_cap
        else:
            adj += 1
            viol[:, 1] |= gain * sums[:, :, adj] > pu.interference_cap
    return np.concatenate([np.add.reduce(bits, 1, keepdims=True),
                           sums[1, :, :1], viol.reshape(4, -1).T], axis=1)


def _block(cfg: ScenarioConfig, caps: ConstraintCaps, master_seed: int,
           trials):
    """Draw, solve, repair and score ``trials`` as one block under the caps'
    plan: the CNIR, the solve's, ``_repair``'s and ``_outcomes``'s arrays."""
    su = cfg.su
    plan = caps.plan(su.alpha, su.ber_threshold)
    c, sp = _draw(cfg, master_seed, trials)
    solved = _solve_block(c, plan)
    repaired = _repair(solved[0], c, plan, su.max_bits)
    return c, solved, repaired, _outcomes(cfg, plan.omega, sp, solved[1],
                                          repaired[0], repaired[3])


def run_trial(cfg: ScenarioConfig, caps: ConstraintCaps, trial_index: int,
              master_seed: int) -> Trial:
    """One trial: sample, solve, discretize, sample interference outcomes;
    the one-trial block of ``run_monte_carlo``.

    Returns a ``Trial``: the six outcomes ``run_monte_carlo`` reduces, the
    Allocation, the ContinuousSolution and the CNIR the trial drew.
    """
    c, solved, repaired, table = _block(cfg, caps, master_seed, [trial_index])
    row = table[0].tolist()
    return Trial(row[0], row[1], *map(bool, row[2:]),
                 _allocation(*repaired[:3], cfg.su.alpha),
                 _solution(solved, cfg.su.alpha), c[0])


def run_monte_carlo(cfg: ScenarioConfig, trials=None, master_seed=None,
                    caps: ConstraintCaps | None = None) -> AggregateStats:
    """Run ``trials`` independent trials and reduce.

    Trials are drawn one by one as ``run_trial`` draws them, then solved and
    repaired in blocks of trials x N; row t of a block is bitwise trial t
    alone, so the result equals the reduction of ``run_trial`` rows.  A
    ``SolverError`` in trial t is re-raised naming t and the master seed, so
    ``crloading solve --seed S --trial T [--param P --value V]`` replays it.
    """
    trials = _integer(cfg.experiment.trials if trials is None else trials,
                      "trials", 1)
    if trials > _MAX_COUNT:     # the loader's bound, for a trials argument
        raise ConfigError(f"trials must be at most {_MAX_COUNT}, got {trials}")
    master_seed = _seed(cfg, master_seed)
    if caps is None:
        caps = build_caps(cfg)
    block = max(1, _BLOCK_ENTRIES // cfg.su.num_subcarriers)
    table = np.empty((6, trials))       # one row per outcome, for reductions
    for first in range(0, trials, block):
        rows = range(first, min(first + block, trials))
        try:
            table[:, rows.start:rows.stop] = _block(cfg, caps, master_seed,
                                                    rows)[3].T
        except SolverError:
            for t in rows:      # replay trial by trial: name the first failure
                try:
                    run_trial(cfg, caps, t, master_seed)
                except SolverError as exc:
                    raise SolverError(f"trial {t} of master seed "
                                      f"{master_seed} failed: {exc}") from exc
            raise

    # each row reduces as np.mean and np.std reduce it alone
    mean = table.mean(1).tolist()
    ci = ((1.96 * table[:4].std(1, ddof=1) / math.sqrt(trials)).tolist()
          if trials > 1 else [0.0] * 4)
    return AggregateStats(trials, *mean[:4], *ci, *mean[4:])


def sweep_experiment(cfg: ScenarioConfig, param=None, values=None,
                     trials=None, master_seed=None):
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
            stats = run_monte_carlo(cfg_v, trials, master_seed, caps=caps)
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


def compare_with_oracle(cfg: ScenarioConfig, instances: int,
                        master_seed=None) -> OracleComparison:
    """Proposed pipeline vs the pruned exhaustive search on random draws.

    The relative optimality gap is (F_proposed - F_opt) / |F_opt| (both
    objectives are negative for any non-trivial instance).  A
    ``SolverError`` in instance t is re-raised naming t and the master seed.
    """
    instances = _integer(instances, "instances", 1)
    master_seed = _seed(cfg, master_seed)
    su = cfg.su
    caps = build_caps(cfg)
    rows = []
    for t in range(instances):
        cnir = _draw(cfg, master_seed, [t])[0][0]
        try:
            t0 = time.perf_counter()
            sol = solve_continuous(cnir, caps, su)
            alloc = round_and_repair(sol, caps, None, cnir,
                                     su.ber_threshold, su.max_bits)
            t1 = time.perf_counter()
            opt = exhaustive_search(cnir, su.alpha, su.ber_threshold,
                                    caps, b_max=su.max_bits)
            t2 = time.perf_counter()
        except SolverError as exc:
            raise SolverError(f"instance {t} of master seed {master_seed} "
                              f"failed: {exc}") from exc
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


def _resized(cfg: ScenarioConfig, n) -> ScenarioConfig:
    su, n = cfg.su, _integer(n, "band sizes", 1)
    if n == su.num_subcarriers:
        return cfg
    if isinstance(su.ber_threshold, tuple) or isinstance(su.pu_interference,
                                                         tuple):
        raise ConfigError("resizing the band needs scalar per-subcarrier "
                          "parameters")
    return replace(cfg, su=replace(su, num_subcarriers=n))


def runtime_scaling(cfg: ScenarioConfig, n_values, repeats: int = 7,
                    master_seed=None):
    """Median solve_continuous wall time per band size.

    Every size must be an integer >= 1 (an integral float such as 64.0
    counts).  Returns (rows, slope): rows are (n, median_seconds); slope is
    the log-log fit over the rows (nan with fewer than two sizes).
    """
    repeats = _integer(repeats, "repeats", 1)
    master_seed = _seed(cfg, master_seed)
    rows = []
    for cfg_n in [_resized(cfg, n) for n in n_values]:
        caps = build_caps(cfg_n)
        su, n = cfg_n.su, cfg_n.su.num_subcarriers
        times = []
        for r in range(repeats):
            cnir = _draw(cfg_n, master_seed, [1_000_000 * n + r])[0][0]
            t0 = time.perf_counter()
            solve_continuous(cnir, caps, su)
            times.append(time.perf_counter() - t0)
        rows.append((n, float(np.median(times))))
    if len(rows) >= 2:
        slope = float(np.polyfit(np.log([r[0] for r in rows]),
                                 np.log([r[1] for r in rows]), 1)[0])
    else:
        slope = math.nan
    return rows, slope
