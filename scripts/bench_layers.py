#!/usr/bin/env python3
"""Per-layer timings of the package, written as one JSON file.

For default, cci_binding, small_n6 and default at N=1024 (seed 1234, the
config's own psi) each repeat times:

- ``load_scenario`` on the config's parsed JSON (no file read), per call
- ``aci_overlap_matrix``, and ``build_caps`` given that matrix, per call
- the block draw (``_draw`` of one Monte Carlo block), per trial
- ``_solve_block`` and ``_repair_block``, per row, on that block and on
  one-row blocks (T = 1, as ``run_trial`` calls them)
- ``run_trial``, per call
- ``run_monte_carlo`` over two blocks, as trials per second

and, not repeated, the cProfile function calls of one ``run_trial`` (over
its first 20 trials) and, per config, the one-row ``_solve_block`` split
by the regime its first 100 draws end in (case 5: no cap binds, 6: the
total power, 7: ACI caps alone, 8: both).  Every figure is the median and
quartiles of the repeats (of the trials, for the call count).

Two single figures close the file: one small_n6 ``exhaustive_search``
call per repeat, and one ``compare_with_oracle`` run at acceptance
criterion 6's N=8 config (``--c6-instances`` draws, 100 as the criterion
runs it), whose per-instance solve + repair times give the solver median
behind the criterion's speedup.  Run from the repository root:

    PYTHONPATH=src python scripts/bench_layers.py --out bench/BENCH_<n>.json
"""

import argparse
import cProfile
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import crloading
from crloading import experiments
from crloading.channel import aci_overlap_matrix
from crloading.constraints import build_caps
from crloading.discretizer import _repair_block
from crloading.experiments import compare_with_oracle
from crloading.oracle import exhaustive_search
from crloading.scenario import load_scenario
from crloading.solver import _solve_block

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = [("default", None), ("cci_binding", None), ("small_n6", None),
           ("default", 1024)]
SEED = 1234
ONE_ROW = 20                # one-row (or per-call) calls per repeat
BY_CASE = 100               # draws split by regime for the one-row solve
# Acceptance criterion 6 at N=8 (tests/test_acceptance.py, test_c06).
CRITERION_6 = {
    "su": {"num_subcarriers": 8, "symbol_duration": 1.024e-4,
           "noise_variance": 1e-9, "ber_threshold": 1e-4,
           "su_link_gain": 1e-6, "power_threshold": 4.0, "max_bits": 8},
    "path_loss": {"exponent": 4.0, "wavelength": 1 / 3,
                  "reference_distance": 500.0},
    "pus": [{"kind": "cochannel", "distance": 5000.0,
             "interference_cap": "inf", "probability": 0.9}],
    "experiment": {"trials": 1000, "seed": 31415},
}


def provenance(repeats):
    """Where the timed code came from and what it ran on."""
    src = Path(crloading.__file__).resolve().parent

    def git(*argv):
        return subprocess.run(["git", "-C", str(src), *argv],
                              capture_output=True, text=True).stdout.strip()
    return {"head": git("rev-parse", "HEAD") or "unknown",
            "src_modified": bool(git("status", "--porcelain", ".")),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "repeats": repeats, "seed": SEED}


def timed(fn, per):
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) / per


def summary(samples, scale, unit):
    q1, med, q3 = np.percentile(np.asarray(samples) * scale, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3),
            "unit": unit}


def call_count(fn):
    """Function calls (Python and C) cProfile counts in one ``fn()``."""
    prof = cProfile.Profile()
    prof.runcall(fn)
    prof.create_stats()
    return sum(stat[1] for stat in prof.stats.values())


def solve_by_case(cfg, plan, repeats):
    """The one-row ``_solve_block`` per call, over the first BY_CASE draws
    grouped by the case they end in, with the number of draws in each."""
    groups = {}
    for t in range(BY_CASE):
        c = experiments._draw(cfg, SEED, [t])[0]
        pos = _solve_block(c, plan)[2][0] > 0
        case = 5 + int(pos[0]) + 2 * int(pos[1:].any())
        groups.setdefault(f"case{case}", []).append(c)
    out = {}
    for key, rows in sorted(groups.items()):
        samples = [timed(lambda: [_solve_block(c, plan) for c in rows],
                         len(rows)) for _ in range(repeats + 1)][1:]
        out[key] = {**summary(samples, 1e6, "us"), "draws": len(rows)}
    return out


def config_layers(name, n, repeats):
    raw = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    cfg = load_scenario(raw)
    if n:
        cfg = replace(cfg, su=replace(cfg.su, num_subcarriers=n))
    su = cfg.su
    omega = aci_overlap_matrix(cfg)
    caps = build_caps(cfg, omega)
    plan = caps.plan(su.alpha, su.ber_threshold)
    block = range(max(1, experiments._BLOCK_ENTRIES // su.num_subcarriers))
    cnir = experiments._draw(cfg, SEED, block)[0]
    bits = _solve_block(cnir, plan)[0]
    rows = [(c[None], b[None]) for c, b in zip(cnir[:ONE_ROW],
                                               bits[:ONE_ROW])]
    t = len(block)
    work = {
        "load_scenario_us": (
            lambda: [load_scenario(raw) for _ in range(ONE_ROW)], ONE_ROW),
        "overlap_ms": (lambda: aci_overlap_matrix(cfg), 1),
        "build_caps_us": (
            lambda: [build_caps(cfg, omega) for _ in range(ONE_ROW)], ONE_ROW),
        "draw_us_per_trial": (
            lambda: experiments._draw(cfg, SEED, block), t),
        "solve_block_us_per_row": (lambda: _solve_block(cnir, plan), t),
        "repair_block_us_per_row": (
            lambda: _repair_block(bits, cnir, plan, su.max_bits), t),
        "solve_one_row_us": (
            lambda: [_solve_block(c, plan) for c, _ in rows], len(rows)),
        "repair_one_row_us": (
            lambda: [_repair_block(b, c, plan, su.max_bits)
                     for c, b in rows], len(rows)),
        "run_trial_us": (
            lambda: [experiments.run_trial(cfg, caps, i, SEED)
                     for i in range(ONE_ROW)], ONE_ROW),
        "monte_carlo_us_per_trial": (
            lambda: experiments.run_monte_carlo(cfg, 2 * t, SEED, caps=caps),
            2 * t),
    }
    samples = {key: [] for key in work}
    for _ in range(repeats + 1):            # the first repeat warms up
        for key, (fn, per) in work.items():
            samples[key].append(timed(fn, per))
    out = {key: summary(xs[1:], 1e3, "ms") if key.endswith("_ms")
           else summary(xs[1:], 1e6, "us") for key, xs in samples.items()}
    mc = out.pop("monte_carlo_us_per_trial")
    out["monte_carlo_trials_per_s"] = {
        "median": 1e6 / mc["median"], "q1": 1e6 / mc["q3"],
        "q3": 1e6 / mc["q1"], "unit": "1/s"}
    out["run_trial_calls"] = summary(
        [call_count(lambda: experiments.run_trial(cfg, caps, i, SEED))
         for i in range(ONE_ROW)], 1, "calls")
    return {"num_subcarriers": su.num_subcarriers, "block_trials": t,
            "layers": out, "solve_one_row_by_case": solve_by_case(
                cfg, plan, repeats)}


def oracle_call(repeats):
    """One small_n6 exhaustive search per repeat, on trial 0's draw."""
    cfg = load_scenario(ROOT / "configs" / "small_n6.json")
    su = cfg.su
    caps = build_caps(cfg)
    cnir = experiments._draw(cfg, SEED, [0])[0][0]

    def call():
        exhaustive_search(cnir, su.alpha, su.ber_threshold, caps,
                          caps.aci_weights.omega, b_max=su.max_bits)
    samples = [timed(call, 1) for _ in range(repeats + 1)][1:]
    return summary(samples, 1e3, "ms")


def criterion_6(instances):
    """``compare_with_oracle`` at criterion 6's N=8 config: solve + repair
    per instance (timed right after each oracle call, as the criterion
    times it) and the oracle's median and speedup."""
    cmp = compare_with_oracle(load_scenario(CRITERION_6), instances)
    solve = [row[4] for row in cmp.rows]
    return {"instances": instances,
            "solve_repair_us": summary(solve, 1e6, "us"),
            "oracle_ms_median": 1e3 * float(np.median([r[5]
                                                       for r in cmp.rows])),
            "speedup": cmp.speedup}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--repeats", type=int, default=10,
                    help="timed repeats per figure, >= 1 (default 10)")
    ap.add_argument("--c6-instances", type=int, default=100,
                    help="criterion 6 draws, >= 1 (default 100)")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    if args.c6_instances < 1:
        ap.error("--c6-instances must be at least 1")
    doc = {"provenance": provenance(args.repeats), "configs": {}}
    for name, n in CONFIGS:
        key = f"{name}_n{n}" if n else name
        doc["configs"][key] = config_layers(name, n, args.repeats)
    doc["oracle_small_n6_call"] = oracle_call(args.repeats)
    doc["criterion_6_n8"] = criterion_6(args.c6_instances)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    for key, cfg in doc["configs"].items():
        for layer, fig in cfg["layers"].items():
            print(f"{key:16s} {layer:26s} {fig['median']:12.2f} {fig['unit']}")
        for case, fig in cfg["solve_one_row_by_case"].items():
            print(f"{key:16s} {'solve_one_row_us.' + case:26s} "
                  f"{fig['median']:12.2f} us ({fig['draws']} draws)")
    fig = doc["oracle_small_n6_call"]
    print(f"{'small_n6':16s} {'oracle_call_ms':26s} {fig['median']:12.2f} ms")
    c6 = doc["criterion_6_n8"]
    print(f"{'criterion_6_n8':16s} {'solve_repair_us':26s} "
          f"{c6['solve_repair_us']['median']:12.2f} us (speedup "
          f"{c6['speedup']:.0f}x over {c6['instances']} instances)")


if __name__ == "__main__":
    sys.exit(main())
