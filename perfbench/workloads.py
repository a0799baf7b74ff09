"""The benchmark's workloads: set-up, the untraced timed run and the traced
replay.

Every workload is one closed-loop client in one process (``workers=1``).
The untraced run gives the end-to-end metrics and the traced run the
per-layer ones; both check the outputs they time through ``gate``.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from crloading import (SolverError, aci_overlap_matrix, apply_parameter,
                       build_caps, check_feasible, compare_with_oracle,
                       exhaustive_search, kkt_verify, load_scenario,
                       path_loss_db, round_and_repair, run_monte_carlo,
                       run_trial, sample_sp_gain, sample_su_channel,
                       solve_continuous, trial_rng)

from gate import GAP_FLOOR, check_trial, engines_agree, reduce_outcomes
from spans import NullTracer, Tracer
from speed import SpeedProbe

# Set-up is repeated at least this often, so setup_s and wall_s are medians.
MIN_PASSES = 3
# Trials timed one by one for the latency percentiles: p99 then has ten
# samples beyond it.
LATENCY_TRIALS = 1000
# Latency samples are scaled by the speed probes around blocks this long.
LATENCY_BLOCK_S = 0.05
# Oracle instances on which the DFS and flat engines must agree.
ORACLE_ENGINE_SAMPLE = 3
# The package's relative slack on every cap comparison.
FEAS_TOL = 1e-9
_LN2 = math.log(2.0)
NO_TRACE = NullTracer()


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    num_subcarriers: int | None
    sweep: bool
    oracle: bool
    pass_size: int              # trials per sweep point, or oracle instances
    default_seed: int
    heldout_seed: int


def load_workloads(spec):
    out = {}
    for name, w in spec["workloads"].items():
        oracle = bool(w.get("oracle", False))
        out[name] = Workload(
            name=name, config=w["config"],
            num_subcarriers=w["num_subcarriers"],
            sweep=bool(w.get("sweep", False)), oracle=oracle,
            pass_size=int(w["pass_instances" if oracle else "pass_trials"]),
            default_seed=int(w["default_seed"]),
            heldout_seed=int(w["heldout_seed"]))
    return out


def set_up(w: Workload, root, tr=NO_TRACE):
    """load_scenario + aci_overlap_matrix + build_caps per sweep point.

    Returns (cfg, points), each point (value, cfg_at_value, caps); value is
    None where the workload runs at the config's own parameters.
    """
    with tr.span("scenario.load"):
        cfg = load_scenario(root / w.config)
        if w.num_subcarriers is not None:
            cfg = replace(cfg, su=replace(cfg.su,
                                          num_subcarriers=w.num_subcarriers))
    with tr.span("channel.overlap"):
        omega = aci_overlap_matrix(cfg)
    values = cfg.experiment.sweep_values if w.sweep else (None,)
    points = []
    for v in values:
        cfg_v = (cfg if v is None
                 else apply_parameter(cfg, cfg.experiment.sweep_param, v))
        with tr.span("constraints.build_caps"):
            caps = build_caps(cfg_v, omega)
        points.append((v, cfg_v, caps))
    return cfg, points


def percentile(xs, q):
    return float(np.percentile(xs, q)) if len(xs) else 0.0


def median(xs):
    return float(statistics.median(xs)) if len(xs) else 0.0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def run_untraced(w: Workload, root, seed, seconds, gate):
    """Time the workload and return (metrics, info).

    First a fixed latency phase of LATENCY_TRIALS individually timed and
    checked trials, then timed passes until ``seconds`` have gone by (at
    least MIN_PASSES).  ``metrics`` maps every end-to-end metric name to its
    value; timings are scaled to the speed probe's reference (see
    ``speed.py``), and ``info`` keeps the raw ones.
    """
    start = time.perf_counter()
    _, points = set_up(w, root)
    _warm_up(points, seed)
    clock = _Clock()
    if w.oracle:
        latency, rows, bits = _oracle_latency(points[0], seed, clock, gate)
        per_pass = w.pass_size
        calls_to = "compare_with_oracle"

        def calls(state):
            return [partial(compare_with_oracle, state[0], w.pass_size, seed)]
    else:
        latency = _mc_latency(points, seed, clock, gate)
        per_pass = w.pass_size * len(points)
        calls_to = "run_monte_carlo"

        def calls(state):
            return [partial(run_monte_carlo, cfg_v, w.pass_size, seed,
                            caps=caps) for _, cfg_v, caps in state[1]]

    values = [p[0] for p in points]
    passes = _Passes(clock)
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start < seconds):
        _, results = passes.run(lambda: set_up(w, root), calls)
        gate.attempted += per_pass
        for v, r in zip(values, results):
            if isinstance(r, SolverError):
                gate.fail(f"{calls_to}: {r}", seed, v, None,
                          trials=w.pass_size)
    first = [_outputs(r) for r in passes.results[0]]
    for results in passes.results[1:]:
        gate.expect([_outputs(r) for r in results] == first,
                    "passes with one seed give different outputs")

    info = {"passes": len(passes), "trials_per_pass": per_pass,
            "latency_samples": len(latency.scaled),
            "raw": {"setup_s": median([r[0] for r in passes.raw]),
                    "wall_s": median([sum(r) for r in passes.raw]),
                    "trial_p50_us": 1e6 * percentile(latency.raw, 50),
                    "trial_p99_us": 1e6 * percentile(latency.raw, 99),
                    "probe_median_s": median(clock.probe.samples)}}
    if w.oracle:
        if first[0] is not None:
            gate.expect(list(first[0]) == rows[:w.pass_size],
                        "compare_with_oracle rows differ from the replay")
        gaps = [r[3] for r in rows]
        info.update(gap_median=median(gaps), gap_max=max(gaps, default=0.0))
        # Oracle cost is heavy-tailed across instances, so throughput is
        # taken over the LATENCY_TRIALS distinct instances, not over the
        # passes, which repeat pass_size instances.
        trials_per_s = (len(latency.scaled) / sum(latency.scaled)
                        if latency.scaled else 0.0)
        info["raw"]["trials_per_s"] = (len(latency.raw) / sum(latency.raw)
                                       if latency.raw else 0.0)
    else:
        bits = [a.avg_throughput for a in first if a is not None]
        info["aggregates"] = [[p[0], None if a is None else a.to_dict()]
                              for p, a in zip(points, first)]
        trials_per_s = median([per_pass / x for x in passes.work if x])
        info["raw"]["trials_per_s"] = median([per_pass / r[1]
                                              for r in passes.raw if r[1]])
    metrics = {
        "setup_s": median(passes.setup),
        "wall_s": median(passes.wall),
        "trials_per_s": trials_per_s,
        "trial_p50_us": 1e6 * percentile(latency.scaled, 50),
        "trial_p99_us": 1e6 * percentile(latency.scaled, 99),
        "peak_rss_mb": peak_rss_mb(),
        "bits_per_symbol": float(np.mean(bits)) if bits else 0.0,
    }
    return metrics, info


def _outputs(result):
    """The deterministic part of one timed call's result."""
    if isinstance(result, SolverError):
        return None
    if hasattr(result, "rows"):                 # OracleComparison
        return tuple(r[:4] for r in result.rows)
    return result


def _warm_up(points, seed):
    """One untimed trial per point, after an untimed set-up, so lazy
    imports and first-call costs are not timed."""
    for _, cfg_v, caps in points:
        try:
            run_trial(cfg_v, caps, 0, seed)
        except SolverError:
            pass                # counted where it is timed


class _Clock:
    """Speed probes in sequence; each timed unit is scaled by the probes
    taken right before and after it (see ``speed.py``)."""

    def __init__(self):
        self.probe = SpeedProbe()
        self.last = self.probe()

    def rescale(self):
        """Probe now; return the scale for the time since the last probe."""
        after = self.probe()
        k = self.probe.scale(self.last, after)
        self.last = after
        return k

    def time(self, fn):
        """Return (result, scaled seconds, raw seconds) of ``fn()``."""
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        return out, raw * self.rescale(), raw


class _Passes:
    """Timed passes: set-up, then the workload's calls, each timed on its
    own."""

    def __init__(self, clock):
        self.clock = clock
        self.setup, self.wall, self.work, self.raw = [], [], [], []
        self.results = []

    def run(self, setup_fn, calls):
        state, setup, raw_setup = self.clock.time(setup_fn)
        work = raw_work = 0.0
        results = []
        for call in calls(state):
            try:
                out, scaled, raw = self.clock.time(call)
            except SolverError as exc:
                out, scaled, raw = exc, 0.0, 0.0
                self.clock.rescale()
            results.append(out)
            work += scaled
            raw_work += raw
        self.setup.append(setup)
        self.work.append(work)
        self.wall.append(setup + work)
        self.raw.append((raw_setup, raw_work))
        self.results.append(results)
        return state, results

    def __len__(self):
        return len(self.results)


class _Latency:
    """Latency samples, scaled per block of LATENCY_BLOCK_S by the probes
    around the block."""

    def __init__(self, clock):
        self.clock = clock
        self.scaled, self.raw, self._block = [], [], []
        self._end = time.perf_counter() + LATENCY_BLOCK_S

    def add(self, seconds):
        self._block.append(seconds)
        if time.perf_counter() >= self._end:
            self.flush()

    def flush(self):
        if self._block:
            k = self.clock.rescale()
            self.scaled += [x * k for x in self._block]
            self.raw += self._block
            self._block = []
        self._end = time.perf_counter() + LATENCY_BLOCK_S


def _mc_latency(points, seed, clock, gate):
    """Time ``run_trial`` on trials 0..LATENCY_TRIALS-1, cycling through the
    sweep points, and check each result."""
    clock.rescale()
    latency = _Latency(clock)
    for j in range(LATENCY_TRIALS):
        v, cfg_v, caps = points[j % len(points)]
        t0 = time.perf_counter()
        try:
            res = run_trial(cfg_v, caps, j, seed)
        except SolverError as exc:
            gate.fail(f"SolverError: {exc}", seed, v, j)
            continue
        latency.add(time.perf_counter() - t0)
        cnir = sample_su_channel(cfg_v.su, trial_rng(seed, j)).cnir
        gate.record(*check_trial(res[7], res[6], cnir, caps, cfg_v.su),
                    seed, v, j)
    latency.flush()
    gate.attempted += LATENCY_TRIALS
    return latency


def _oracle_latency(point, seed, clock, gate):
    """Time instances 0..LATENCY_TRIALS-1 of the oracle comparison one by
    one, and check each.  Returns (latency, rows, bits), rows as
    ``compare_with_oracle`` gives them without the timings."""
    _, cfg, caps = point
    su = cfg.su
    rows, bits = [], []
    clock.rescale()
    latency = _Latency(clock)
    for t in range(LATENCY_TRIALS):
        t0 = time.perf_counter()
        try:
            row, sol, alloc, cnir, opt = _replay_oracle_instance(
                NO_TRACE, cfg, caps, seed, t, t)
        except SolverError as exc:
            gate.fail(f"SolverError: {exc}", seed, None, t)
            continue
        latency.add(time.perf_counter() - t0)
        kkt_ok, feasible = check_trial(sol, alloc, cnir, caps, su)
        feasible &= check_feasible(opt, caps, cnir, su.ber_threshold).feasible
        gate.record(kkt_ok, feasible, seed, None, t)
        gate.expect(row[3] >= GAP_FLOOR,
                    f"oracle gap {row[3]} < {GAP_FLOOR} at instance {t}")
        if t < ORACLE_ENGINE_SAMPLE:
            dfs = engines_agree(cnir, su, caps)
            gate.expect(dfs is not None and dfs.objective == opt.objective,
                        f"oracle engines disagree on instance {t}")
        rows.append(row)
        bits.append(float(np.sum(alloc.bits)))
    latency.flush()
    gate.attempted += LATENCY_TRIALS
    return latency, rows, bits


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


def entry_regime(cnir, caps, su):
    """Which caps the unconstrained optimum violates: free, power, aci or
    joint.

    The unconstrained closed form is evaluated here rather than through the
    solver, so the classification does not move when the solver's regimes
    are restructured.
    """
    c = np.asarray(cnir, dtype=float)
    neglog = -np.log(5.0 * np.broadcast_to(su.ber_threshold, c.shape))
    alpha = su.alpha
    threshold = (4.0 / 1.6) * (alpha * _LN2 / (1.0 - alpha)) * neglog
    powers = np.where(c >= threshold,
                      (1.0 - alpha) / (_LN2 * alpha) - neglog / (1.6 * c), 0.0)
    aci_caps = np.asarray(caps.aci_caps, dtype=float)
    viol_pow = (math.isfinite(caps.total_cap)
                and np.sum(powers) > caps.total_cap * (1.0 + FEAS_TOL))
    viol_aci = bool(np.any(
        np.isfinite(aci_caps)
        & (caps.aci_weights.omega.T @ powers > aci_caps * (1.0 + FEAS_TOL))))
    return ("free", "power", "aci", "joint")[int(viol_pow) + 2 * viol_aci]


def rounded_bits(sol_bits, max_bits):
    """Total bits after the discretizer's rounding, before any repair."""
    b = np.floor(np.asarray(sol_bits, dtype=float) + 0.5)
    return float(np.sum(np.where(b < 2.0, 0.0, np.minimum(b, max_bits))))


def _replay_trial(tr, cfg, caps, seed, t, uid):
    """``run_trial`` step by step with a span around each layer call.

    Returns (outcome row, solution, allocation, cnir); the row is what
    ``run_monte_carlo`` reduces.
    """
    su = cfg.su
    with tr.span("experiments.trial", uid):
        with tr.span("channel.sample", uid):
            rng = trial_rng(seed, t)
            real = sample_su_channel(su, rng)
        with tr.span("solver.solve", uid):
            sol = solve_continuous(real, caps, su)
        with tr.span("discretizer.repair", uid):
            alloc = round_and_repair(sol, caps, caps.aci_weights.omega,
                                     real.cnir, su.ber_threshold, su.max_bits)
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
                atten = 10.0 ** (-0.1 * path_loss_db(pu.distance,
                                                     cfg.path_loss))
                cci |= gain * atten * total_cont > pu.interference_cap
                cci_d |= gain * atten * total_disc > pu.interference_cap
            else:
                aci |= gain * aci_cont[adj_seen] > pu.interference_cap
                aci_d |= gain * aci_disc[adj_seen] > pu.interference_cap
                adj_seen += 1
    row = (float(np.sum(alloc.bits)), total_disc, cci, aci, cci_d, aci_d)
    return row, sol, alloc, real.cnir


def _replay_oracle_instance(tr, cfg, caps, seed, t, uid):
    """One ``compare_with_oracle`` row, step by step with spans.

    Returns (row, solution, allocation, cnir, oracle result).
    """
    su = cfg.su
    omega = caps.aci_weights.omega
    with tr.span("experiments.trial", uid):
        with tr.span("channel.sample", uid):
            real = sample_su_channel(su, trial_rng(seed, t))
        with tr.span("solver.solve", uid):
            sol = solve_continuous(real, caps, su)
        with tr.span("discretizer.repair", uid):
            alloc = round_and_repair(sol, caps, omega, real.cnir,
                                     su.ber_threshold, su.max_bits)
        with tr.span("oracle.search", uid):
            opt = exhaustive_search(real.cnir, su.alpha, su.ber_threshold,
                                    caps, omega, b_max=su.max_bits)
        if opt.objective != 0.0:
            gap = (alloc.objective - opt.objective) / abs(opt.objective)
        else:
            gap = 0.0 if alloc.objective == 0.0 else math.inf
    return (t, alloc.objective, opt.objective, gap), sol, alloc, real.cnir, opt


def run_traced(w: Workload, root, seed, gate):
    """Replay one pass with spans and return (metrics, info, tracer).

    After each traced trial the same replay runs once more without spans;
    the paired times give the tracing overhead.
    """
    _warm_up(set_up(w, root)[1], seed)
    replay = _replay_oracle_instance if w.oracle else _replay_trial
    tr = Tracer()
    samples = {}                # uid -> per-trial facts
    point_rows = []
    traced = untraced = 0.0
    cfg, points = set_up(w, root, tr)
    for p, (v, cfg_v, caps) in enumerate(points):
        su = cfg_v.su
        rows = []
        for t in range(w.pass_size):
            uid = p * w.pass_size + t
            gate.attempted += 1
            t0 = time.perf_counter()
            try:
                row, sol, alloc, cnir, *opt = replay(tr, cfg_v, caps, seed,
                                                     t, uid)
            except SolverError as exc:
                gate.fail(f"SolverError: {exc}", seed, v, t)
                continue
            traced += time.perf_counter() - t0
            with tr.span("kkt.verify", uid):
                kkt_ok = kkt_verify(sol, cnir, su.ber_threshold, caps).passed
            feasible = True
            for a in [alloc] + opt:
                with tr.span("constraints.check_feasible", uid):
                    feasible &= check_feasible(a, caps, cnir,
                                               su.ber_threshold).feasible
            gate.record(kkt_ok, feasible, seed, v, t)
            t0 = time.perf_counter()
            replay(NO_TRACE, cfg_v, caps, seed, t, uid)
            untraced += time.perf_counter() - t0
            rows.append(row)
            samples[uid] = {
                "entry": entry_regime(cnir, caps, su),
                "case": sol.case_id, "active": len(sol.active_set),
                "steps": alloc.repair_steps,
                "rounded": rounded_bits(sol.bits, su.max_bits),
                "kept": float(np.sum(alloc.bits)),
                "kkt": kkt_ok, "feasible": feasible,
                "nodes": opt[0].nodes_visited if opt else None,
                "gap": row[3] if opt else None,
            }
        point_rows.append(rows)

    # The package's own entry points on the same trials must agree.
    aggregates = []
    for (v, cfg_v, caps), rows in zip(points, point_rows):
        try:
            if w.oracle:
                ref = compare_with_oracle(cfg_v, w.pass_size, seed)
            else:
                ref = run_monte_carlo(cfg_v, w.pass_size, seed, caps=caps)
                aggregates.append([v, ref.to_dict()])
        except SolverError:
            ref = None
            if not w.oracle:
                aggregates.append([v, None])
        complete = len(rows) == w.pass_size
        gate.expect((ref is None) == (not complete),
                    f"traced and untraced runs fail differently at value={v}")
        if ref is None or not complete:
            continue
        if w.oracle:
            gate.expect(rows == [r[:4] for r in ref.rows],
                        "traced oracle rows differ from compare_with_oracle")
            gate.expect(min(r[3] for r in rows) >= GAP_FLOOR,
                        f"oracle gap below {GAP_FLOOR}")
            for t in range(min(ORACLE_ENGINE_SAMPLE, w.pass_size)):
                real = sample_su_channel(cfg_v.su, trial_rng(seed, t))
                dfs = engines_agree(real.cnir, cfg_v.su, caps)
                gate.expect(dfs is not None and dfs.objective == rows[t][2],
                            f"oracle engines disagree on instance {t}")
        else:
            gate.expect(reduce_outcomes(rows) == ref,
                        f"traced trials reduce to other aggregates than "
                        f"run_monte_carlo at value={v}")

    metrics = _layer_metrics(cfg, tr, samples)
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0
                                      if untraced else 0.0)
    info = {"traced_trials": len(samples), "spans": len(tr.spans),
            "aggregates": aggregates}
    return metrics, info, tr


def _layer_metrics(cfg, tr, samples):
    us = 1e6
    selfs = tr.self_times()
    # Top-level spans cover all traced work; the paired untraced replays
    # between them are not part of it.
    top = sum(s[2] - s[1] for s in tr.spans if s[3] < 0)
    layer_self = tr.layer_self_times()
    solve_by_entry = {e: [] for e in ("free", "power", "aci", "joint")}
    for s in tr.spans:
        if s[0] == "solver.solve" and s[4] in samples:
            solve_by_entry[samples[s[4]]["entry"]].append(s[2] - s[1])
    trial_spans = tr.durations("experiments.trial")
    trial_self = [t for s, t in zip(tr.spans, selfs)
                  if s[0] == "experiments.trial"]
    vals = list(samples.values())
    n = len(vals)
    rounded = sum(x["rounded"] for x in vals)
    nodes = [x["nodes"] for x in vals if x["nodes"] is not None]
    gaps = [x["gap"] for x in vals if x["gap"] is not None]
    m = {
        "scenario.load_ms": 1e3 * median(tr.durations("scenario.load")),
        "channel.overlap_s": median(tr.durations("channel.overlap")),
        "channel.sample_us_p50": us * percentile(
            tr.durations("channel.sample"), 50),
        "channel.sample_us_p99": us * percentile(
            tr.durations("channel.sample"), 99),
        "constraints.build_caps_ms": 1e3 * median(
            tr.durations("constraints.build_caps")),
        "constraints.check_feasible_us_p50": us * percentile(
            tr.durations("constraints.check_feasible"), 50),
        "constraints.infeasible_count": sum(not x["feasible"] for x in vals),
        "solver.solve_us_p50": us * percentile(tr.durations("solver.solve"),
                                               50),
        "solver.solve_us_p99": us * percentile(tr.durations("solver.solve"),
                                               99),
    }
    for e, d in solve_by_entry.items():
        m[f"solver.solve_us_p50.{e}"] = us * percentile(d, 50)
    for e in solve_by_entry:
        m[f"solver.entry.{e}.count"] = sum(x["entry"] == e for x in vals)
    for c in (5, 6, 7, 8):
        m[f"solver.case{c}.count"] = sum(x["case"] == c for x in vals)
    m.update({
        "solver.active_tones_mean": (sum(x["active"] for x in vals) / n
                                     if n else 0.0),
        "discretizer.repair_us_p50": us * percentile(
            tr.durations("discretizer.repair"), 50),
        "discretizer.repair_us_p99": us * percentile(
            tr.durations("discretizer.repair"), 99),
        "discretizer.repair_steps_mean": (sum(x["steps"] for x in vals) / n
                                          if n else 0.0),
        "discretizer.repair_steps_max": max((x["steps"] for x in vals),
                                            default=0),
        "discretizer.bits_kept_ratio": (sum(x["kept"] for x in vals) / rounded
                                        if rounded else 0.0),
        "kkt.verify_us_p50": us * percentile(tr.durations("kkt.verify"), 50),
        "kkt.pass_ratio": sum(x["kkt"] for x in vals) / n if n else 0.0,
        "oracle.search_ms_p50": 1e3 * percentile(
            tr.durations("oracle.search"), 50),
        "oracle.search_ms_p99": 1e3 * percentile(
            tr.durations("oracle.search"), 99),
        "oracle.nodes_mean": sum(nodes) / len(nodes) if nodes else 0.0,
        # The oracle's bit domain {0, 2, ..., b_max} has b_max values, so
        # unpruned enumeration visits b_max ** N leaves.
        "oracle.pruned_ratio": (
            1.0 - (sum(nodes) / len(nodes))
            / float(cfg.su.max_bits) ** cfg.su.num_subcarriers
            if nodes else 0.0),
        "oracle.gap_median": median(gaps),
        "oracle.gap_max": max(gaps, default=0.0),
        "experiments.trial_us_p50": us * percentile(trial_spans, 50),
        "experiments.self_us_p50": us * percentile(trial_self, 50),
    })
    for layer in ("scenario", "channel", "constraints", "solver",
                  "discretizer", "kkt", "oracle", "experiments"):
        m[f"{layer}.busy_frac"] = layer_self.get(layer, 0.0) / top
    return m
