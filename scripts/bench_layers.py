#!/usr/bin/env python3
"""Per-layer timings of the package, written as one JSON file.

For default, cci_binding, small_n6 and default at N=1024 (seed 1234, the
config's own psi) each repeat times:

- ``load_scenario`` on the config's parsed JSON (no file read), per call
- ``aci_overlap_matrix``, and ``build_caps`` given that matrix, per call;
  and, not repeated, the tracemalloc peak of one ``aci_overlap_matrix``
- the set-up perfbench times as ``setup_s``: ``load_scenario`` from the
  file, ``aci_overlap_matrix`` and ``build_caps`` at each sweep point
- the block draw (``_draw`` of one Monte Carlo block), per trial
- ``_solve_block`` and ``_repair``, per row, on that block and on
  one-row blocks (T = 1, as ``run_trial`` calls them)
- ``_outcomes``, per trial: the time ``_block`` spends in it on that block
- ``_cap_sums`` of the block's repaired powers, per row
- ``run_trial``, per call
- ``check_feasible`` of the allocation and ``kkt_verify`` of the
  continuous solution, per call, in ``AUDIT_PASSES`` passes over the first
  ``ONE_ROW`` trials (200 calls per repeat)
- ``run_monte_carlo`` over two blocks, as trials per second

and, not repeated, the cProfile function calls of one ``run_trial`` (over
its first 20 trials) and, per config, the one-row ``_solve_block`` split
by the regime its first 100 draws end in (case 5: no cap binds, 6: the
total power, 7: ACI caps alone, 8: both).  Every figure is the median and
quartiles of the repeats (of the trials, for the call count).

Three figures close the file: one small_n6 ``exhaustive_search`` call
per repeat, pruned (the default, with the nodes it visits and its median
time per node) and flat
(``prune=False``, with the tracemalloc peak of one flat call), and one
``compare_with_oracle`` run at acceptance criterion 6's N=8 config
(``--c6-instances`` draws, 100 as the criterion runs it), whose
per-instance times give the solver and oracle medians behind the
criterion's speedup.  Run from the repository root:

    PYTHONPATH=src python scripts/bench_layers.py --out bench/BENCH_<n>.json

With ``--parent DIR`` the package under ``DIR/src/crloading`` (a checkout
of the parent commit, say) is loaded too, as module ``crloading_parent``,
and both trees are timed in this one process: each repeat runs every
layer on both, alternating which goes first, so a drift in the machine's
speed lands on both sides alike.  The parent's figures go to ``--out``
with ``_parent`` before its suffix (``bench/BENCH_<n>_parent.json``).
"""

import argparse
import cProfile
import importlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = [("default", None), ("cci_binding", None), ("small_n6", None),
           ("default", 1024)]
SEED = 1234
ONE_ROW = 20                # one-row (or per-call) calls per repeat
AUDIT_PASSES = 10           # passes of each audit over those ONE_ROW trials
BY_CASE = 100               # draws split by regime for the one-row solve
MODULES = ("channel", "constraints", "discretizer", "experiments", "kkt",
           "oracle", "scenario", "solver")
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


def tree(package):
    """The timed modules of ``package``, by their names."""
    return SimpleNamespace(src=Path(importlib.import_module(
                               package).__file__).parent,
                           **{name: importlib.import_module(
                               f"{package}.{name}") for name in MODULES})


def load_parent(root):
    """``root/src/crloading`` imported as package ``crloading_parent``."""
    src = Path(root).resolve() / "src" / "crloading"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"no package at {src}")
    spec = importlib.util.spec_from_file_location(
        "crloading_parent", src / "__init__.py",
        submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return tree(spec.name)


def provenance(t, repeats):
    """Where the timed code came from and what it ran on."""
    def git(*argv):
        return subprocess.run(["git", "-C", str(t.src), *argv],
                              capture_output=True, text=True).stdout.strip()
    return {"head": git("rev-parse", "HEAD") or "unknown",
            "src_modified": bool(git("status", "--porcelain", ".")),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "repeats": repeats, "seed": SEED}


def timed(fn, per):
    """A callable timing one ``fn()``, in seconds per ``per`` units."""
    def run():
        t0 = time.perf_counter()
        fn()
        return (time.perf_counter() - t0) / per
    return run


def inside(module, name, fn, per):
    """A callable timing the calls ``fn()`` makes to ``module.name``, in
    seconds per ``per`` units."""
    def run():
        real, spent = getattr(module, name), [0.0]

        def call(*args):
            t0 = time.perf_counter()
            out = real(*args)
            spent[0] += time.perf_counter() - t0
            return out
        setattr(module, name, call)
        try:
            fn()
        finally:
            setattr(module, name, real)
        return spent[0] / per
    return run


def interleaved(works, repeats):
    """Samples of ``works``, one dict of timing callables per tree: every
    repeat runs each key on every tree that has it, in alternating tree
    order; the first repeat warms up and is dropped."""
    keys = dict.fromkeys(key for work in works for key in work)
    samples = [{key: [] for key in work} for work in works]
    for r in range(repeats + 1):
        for key in keys:
            for i in (range(len(works)) if r % 2 == 0
                      else reversed(range(len(works)))):
                if key in works[i]:
                    samples[i][key].append(works[i][key]())
    return [{key: xs[1:] for key, xs in s.items()} for s in samples]


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


def by_case_work(t, cfg, plan):
    """Timings of the one-row ``_solve_block`` per call over the first
    BY_CASE draws, grouped by the case they end in, and the group sizes."""
    groups = {}
    for i in range(BY_CASE):
        c = t.experiments._draw(cfg, SEED, [i])[0]
        pos = t.solver._solve_block(c, plan)[2][0] > 0
        case = 5 + int(pos[0]) + 2 * int(pos[1:].any())
        groups.setdefault(f"case{case}", []).append(c)
    return ({key: timed(lambda rows=rows: [t.solver._solve_block(c, plan)
                                           for c in rows], len(rows))
             for key, rows in sorted(groups.items())},
            {key: len(rows) for key, rows in groups.items()})


def set_up(t, path, n):
    """One tree's set-up of a config, as perfbench's ``set_up`` does it:
    load it (resized to ``n`` tones), build its overlap matrix, and its caps
    at each point of its sweep (once at its own parameters if none)."""
    cfg = t.scenario.load_scenario(path)
    if n:
        cfg = replace(cfg, su=replace(cfg.su, num_subcarriers=n))
    omega, exp = t.channel.aci_overlap_matrix(cfg), cfg.experiment
    for v in exp.sweep_values or (None,):
        cfg_v = (cfg if v is None
                 else t.scenario.apply_parameter(cfg, exp.sweep_param, v))
        t.constraints.build_caps(cfg_v, omega)


def config_work(t, path, n):
    """One tree's set-up for a config: its layer timings, its by-case
    timings and draw counts, and what the record carries besides."""
    raw = json.loads(path.read_text())
    cfg = t.scenario.load_scenario(raw)
    if n:
        cfg = replace(cfg, su=replace(cfg.su, num_subcarriers=n))
    su, exp = cfg.su, t.experiments
    omega = t.channel.aci_overlap_matrix(cfg)
    caps = t.constraints.build_caps(cfg, omega)
    plan = caps.plan(su.alpha, su.ber_threshold)
    block = range(max(1, exp._BLOCK_ENTRIES // su.num_subcarriers))
    cnir = exp._draw(cfg, SEED, block)[0]
    solve, repair = t.solver._solve_block, t.discretizer._repair
    bits = solve(cnir, plan)[0]
    powers = repair(bits, cnir, plan, su.max_bits)[1]
    rows = [(c[None], b[None]) for c, b in zip(cnir[:ONE_ROW],
                                               bits[:ONE_ROW])]
    sols = [(c, t.solver.solve_continuous(c, caps, su))
            for c in cnir[:ONE_ROW]]
    allocs = [(c, t.discretizer.round_and_repair(
        sol, caps, None, c, su.ber_threshold, su.max_bits))
        for c, sol in sols]
    size = len(block)
    work = {
        "load_scenario_us": timed(
            lambda: [t.scenario.load_scenario(raw) for _ in range(ONE_ROW)],
            ONE_ROW),
        "overlap_ms": timed(lambda: t.channel.aci_overlap_matrix(cfg), 1),
        "build_caps_us": timed(
            lambda: [t.constraints.build_caps(cfg, omega)
                     for _ in range(ONE_ROW)], ONE_ROW),
        "setup_ms": timed(lambda: set_up(t, path, n), 1),
        "draw_us_per_trial": timed(lambda: exp._draw(cfg, SEED, block), size),
        "solve_block_us_per_row": timed(lambda: solve(cnir, plan), size),
        "repair_block_us_per_row": timed(
            lambda: repair(bits, cnir, plan, su.max_bits), size),
        "outcomes_us_per_trial": inside(
            exp, "_outcomes", lambda: exp._block(cfg, caps, SEED, block),
            size),
        "cap_sums_us_per_row": timed(
            lambda: t.solver._cap_sums(powers, plan.omega), size),
        "solve_one_row_us": timed(
            lambda: [solve(c, plan) for c, _ in rows], len(rows)),
        "repair_one_row_us": timed(
            lambda: [repair(b, c, plan, su.max_bits) for c, b in rows],
            len(rows)),
        "run_trial_us": timed(
            lambda: [exp.run_trial(cfg, caps, i, SEED)
                     for i in range(ONE_ROW)], ONE_ROW),
        "check_feasible_us": timed(
            lambda: [t.constraints.check_feasible(a, caps, c,
                                                  su.ber_threshold)
                     for _ in range(AUDIT_PASSES) for c, a in allocs],
            AUDIT_PASSES * len(allocs)),
        "kkt_verify_us": timed(
            lambda: [t.kkt.kkt_verify(sol, c, su.ber_threshold, caps)
                     for _ in range(AUDIT_PASSES) for c, sol in sols],
            AUDIT_PASSES * len(sols)),
        "monte_carlo_us_per_trial": timed(
            lambda: exp.run_monte_carlo(cfg, 2 * size, SEED, caps=caps),
            2 * size),
    }
    calls = [call_count(lambda: exp.run_trial(cfg, caps, i, SEED))
             for i in range(ONE_ROW)]
    cases, draws = by_case_work(t, cfg, plan)
    return work, cases, {"num_subcarriers": su.num_subcarriers,
                         "block_trials": size, "calls": calls,
                         "draws": draws, "overlap_peak_mib": peak_mib(
                             lambda: t.channel.aci_overlap_matrix(cfg))}


def config_layers(trees, name, n, repeats):
    """Each tree's record of one config, its layers timed interleaved."""
    path = ROOT / "configs" / f"{name}.json"
    works, cases, info = zip(*(config_work(t, path, n) for t in trees))
    out = []
    for samples, case_samples, rec in zip(interleaved(works, repeats),
                                          interleaved(cases, repeats), info):
        layers = {key: summary(xs, 1e3, "ms") if key.endswith("_ms")
                  else summary(xs, 1e6, "us") for key, xs in samples.items()}
        mc = layers.pop("monte_carlo_us_per_trial")
        layers["monte_carlo_trials_per_s"] = {
            "median": 1e6 / mc["median"], "q1": 1e6 / mc["q3"],
            "q3": 1e6 / mc["q1"], "unit": "1/s"}
        layers["run_trial_calls"] = summary(rec["calls"], 1, "calls")
        out.append({"num_subcarriers": rec["num_subcarriers"],
                    "block_trials": rec["block_trials"],
                    "overlap_peak_mib": rec["overlap_peak_mib"],
                    "layers": layers,
                    "solve_one_row_by_case": {
                        key: {**summary(xs, 1e6, "us"),
                              "draws": rec["draws"][key]}
                        for key, xs in case_samples.items()}})
    return out


def peak_mib(fn):
    """The peak MiB tracemalloc sees during one ``fn()``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def oracle_search(t, prune):
    """One small_n6 exhaustive search on trial 0's draw, as a callable."""
    cfg = t.scenario.load_scenario(ROOT / "configs" / "small_n6.json")
    su = cfg.su
    caps = t.constraints.build_caps(cfg)
    cnir = t.experiments._draw(cfg, SEED, [0])[0][0]
    return lambda: t.oracle.exhaustive_search(
        cnir, su.alpha, su.ber_threshold, caps, caps.aci_weights.omega,
        b_max=su.max_bits, prune=prune)


def criterion_6(t, instances):
    """``compare_with_oracle`` at criterion 6's N=8 config: solve + repair
    per instance (timed right after each oracle call, as the criterion
    times it) and the oracle's median and speedup."""
    cmp = t.experiments.compare_with_oracle(
        t.scenario.load_scenario(CRITERION_6), instances)
    solve = [row[4] for row in cmp.rows]
    return {"instances": instances,
            "solve_repair_us": summary(solve, 1e6, "us"),
            "oracle_ms_median": 1e3 * float(np.median([r[5]
                                                       for r in cmp.rows])),
            "speedup": cmp.speedup}


def report(docs):
    """Every figure, one line each; parent -> change when there are two."""
    def cell(figs):
        return " -> ".join(f"{fig['median']:10.2f}" for fig in figs)
    for key, cfg in docs[-1]["configs"].items():
        for layer, fig in cfg["layers"].items():
            print(f"{key:16s} {layer:26s} "
                  f"{cell([d['configs'][key]['layers'][layer] for d in docs])}"
                  f" {fig['unit']}")
        for case, fig in cfg["solve_one_row_by_case"].items():
            figs = [d["configs"][key]["solve_one_row_by_case"].get(case)
                    for d in docs]
            print(f"{key:16s} {'solve_one_row_us.' + case:26s} "
                  f"{cell([f for f in figs if f])} us "
                  f"({fig['draws']} draws)")
        print(f"{key:16s} {'overlap_peak_mib':26s} "
              + " -> ".join(f"{d['configs'][key]['overlap_peak_mib']:10.2f}"
                            for d in docs) + " MiB")
    calls = [d["oracle_small_n6_call"] for d in docs]
    print(f"{'small_n6':16s} {'oracle_call_ms':26s} {cell(calls)} ms ("
          + " -> ".join(str(c["nodes_visited"]) for c in calls) + " nodes)")
    print(f"{'small_n6':16s} {'oracle_us_per_node':26s} "
          + " -> ".join(f"{c['us_per_node']:10.2f}" for c in calls) + " us")
    flat = [d["oracle_small_n6_flat"] for d in docs]
    print(f"{'small_n6':16s} {'flat_call_ms':26s} {cell(flat)} ms")
    print(f"{'small_n6':16s} {'flat_peak_mib':26s} "
          + " -> ".join(f"{f['peak_mib']:10.2f}" for f in flat) + " MiB")
    c6 = [d["criterion_6_n8"] for d in docs]
    print(f"{'criterion_6_n8':16s} {'solve_repair_us':26s} "
          f"{cell([c['solve_repair_us'] for c in c6])} us (speedup "
          + " -> ".join(f"{c['speedup']:.0f}x" for c in c6)
          + f" over {c6[-1]['instances']} instances)")
    print(f"{'criterion_6_n8':16s} {'oracle_ms_median':26s} "
          + " -> ".join(f"{c['oracle_ms_median']:10.2f}" for c in c6)
          + " ms")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--repeats", type=int, default=10,
                    help="timed repeats per figure, >= 1 (default 10)")
    ap.add_argument("--c6-instances", type=int, default=100,
                    help="criterion 6 draws, >= 1 (default 100)")
    ap.add_argument("--parent", metavar="DIR",
                    help="also time DIR/src/crloading, interleaved, and "
                         "write its figures to OUT with _parent added")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    if args.c6_instances < 1:
        ap.error("--c6-instances must be at least 1")
    trees = ([load_parent(args.parent)] if args.parent else []) + [
        tree("crloading")]
    docs = [{"provenance": provenance(t, args.repeats), "configs": {}}
            for t in trees]
    for name, n in CONFIGS:
        key = f"{name}_n{n}" if n else name
        for doc, rec in zip(docs, config_layers(trees, name, n,
                                                args.repeats)):
            doc["configs"][key] = rec
    for doc, t, samples in zip(docs, trees, interleaved(
            [{"oracle": timed(oracle_search(t, True), 1),
              "flat": timed(oracle_search(t, False), 1)} for t in trees],
            args.repeats)):
        call = summary(samples["oracle"], 1e3, "ms")
        nodes = oracle_search(t, True)().nodes_visited
        doc["oracle_small_n6_call"] = {
            **call, "nodes_visited": nodes,
            "us_per_node": 1e3 * call["median"] / nodes}
        doc["oracle_small_n6_flat"] = {
            **summary(samples["flat"], 1e3, "ms"),
            "peak_mib": peak_mib(oracle_search(t, False))}
    for doc, t in zip(docs, trees):
        doc["criterion_6_n8"] = criterion_6(t, args.c6_instances)
    out = Path(args.out)
    paths = ([out.with_name(f"{out.stem}_parent{out.suffix}")]
             if args.parent else []) + [out]
    out.parent.mkdir(parents=True, exist_ok=True)
    for path, doc in zip(paths, docs):
        path.write_text(json.dumps(doc, indent=2) + "\n")
    report(docs)


if __name__ == "__main__":
    sys.exit(main())
