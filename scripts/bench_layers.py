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

plus one small_n6 ``exhaustive_search`` call.  Every figure is the median
and quartiles of the repeats.  Run from the repository root:

    PYTHONPATH=src python scripts/bench_layers.py --out bench/BENCH_<n>.json
"""

import argparse
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
from crloading.oracle import exhaustive_search
from crloading.scenario import load_scenario
from crloading.solver import _solve_block

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = [("default", None), ("cci_binding", None), ("small_n6", None),
           ("default", 1024)]
SEED = 1234
ONE_ROW = 20                # one-row (or per-call) calls per repeat


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
    return {"num_subcarriers": su.num_subcarriers, "block_trials": t,
            "layers": out}


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


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--repeats", type=int, default=10,
                    help="timed repeats per figure, >= 1 (default 10)")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    doc = {"provenance": provenance(args.repeats), "configs": {}}
    for name, n in CONFIGS:
        key = f"{name}_n{n}" if n else name
        doc["configs"][key] = config_layers(name, n, args.repeats)
    doc["oracle_small_n6_call"] = oracle_call(args.repeats)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    for key, cfg in doc["configs"].items():
        for layer, fig in cfg["layers"].items():
            print(f"{key:16s} {layer:26s} {fig['median']:12.2f} {fig['unit']}")
    fig = doc["oracle_small_n6_call"]
    print(f"{'small_n6':16s} {'oracle_call_ms':26s} {fig['median']:12.2f} ms")


if __name__ == "__main__":
    sys.exit(main())
