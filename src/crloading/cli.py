"""Command-line front end.

Subcommands: solve, sweep, oracle-compare, kkt-check, runtime.  Tabular
output is RFC-4180 CSV with a header row; single-result output is JSON.
Exit codes: 0 on success, 2 for configuration problems, 3 for solver
failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .constraints import build_caps, check_feasible
from .channel import sample_su_channel
from .discretizer import round_and_repair
from .errors import ConfigError, SolverError
from .experiments import (compare_with_oracle, runtime_scaling,
                          sweep_experiment, trial_rng)
from .kkt import kkt_verify
from .scenario import SWEEPABLE, load_scenario
from .solver import solve_continuous


def _parse_values(text):
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part.lower() in ("inf", "infinity"):
            out.append(math.inf)
        else:
            try:
                out.append(float(part))
            except ValueError:
                raise ConfigError(f"bad sweep value {part!r}")
    if not out:
        raise ConfigError("empty value list")
    return out


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _emit_json(obj, path):
    fh, close = _open_out(path)
    try:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
    finally:
        if close:
            fh.close()


def _emit_csv(header, rows, path):
    fh, close = _open_out(path)
    try:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if close:
            fh.close()


def _solve_one(cfg, seed, trial=0):
    caps = build_caps(cfg)
    rng = trial_rng(seed, trial)
    real = sample_su_channel(cfg.su, rng)
    sol = solve_continuous(real, caps, cfg.su)
    alloc = round_and_repair(sol, caps, caps.aci_weights.omega, real.cnir,
                             cfg.su.ber_threshold, cfg.su.max_bits)
    return caps, real, sol, alloc


def cmd_solve(args):
    cfg = load_scenario(args.config)
    seed = cfg.experiment.seed if args.seed is None else args.seed
    caps, real, sol, alloc = _solve_one(cfg, seed, args.trial)
    report = check_feasible(alloc, caps, real.cnir, cfg.su.ber_threshold)
    out = alloc.to_dict()
    out.update({
        "seed": seed,
        "case_id": sol.case_id,
        "total_power": float(np.sum(alloc.powers)),
        "total_bits": int(np.sum(alloc.bits)),
        "lambda_power": sol.lambda_power,
        "lambda_aci": [float(x) for x in sol.lambda_aci],
        "feasibility": report.to_dict(),
    })
    _emit_json(out, args.output)
    return 0


def cmd_sweep(args):
    cfg = load_scenario(args.config)
    param = args.param or cfg.experiment.sweep_param
    values = (_parse_values(args.values) if args.values
              else cfg.experiment.sweep_values)
    results = sweep_experiment(cfg, param, values, trials=args.trials,
                               master_seed=args.seed, workers=args.workers)
    header = ["param_value", "avg_throughput", "avg_power",
              "cci_violation_rate", "aci_violation_rate", "throughput_ci95",
              "power_ci95", "cci_rate_ci95", "aci_rate_ci95"]
    rows = [
        [v, s.avg_throughput, s.avg_power, s.cci_violation_rate,
         s.aci_violation_rate, s.throughput_ci95, s.power_ci95,
         s.cci_rate_ci95, s.aci_rate_ci95]
        for v, s in results
    ]
    _emit_csv(header, rows, args.output)
    return 0


def cmd_oracle_compare(args):
    cfg = load_scenario(args.config)
    comp = compare_with_oracle(cfg, args.instances, master_seed=args.seed)
    header = ["seed", "f_proposed", "f_opt", "rel_gap", "t_proposed_s",
              "t_oracle_s"]
    _emit_csv(header, [list(r) for r in comp.rows], args.output)
    print(f"median_gap={comp.median_gap:.6g} max_gap={comp.max_gap:.6g} "
          f"speedup={comp.speedup:.3g}x", file=sys.stderr)
    return 0


def cmd_kkt_check(args):
    cfg = load_scenario(args.config)
    seed = cfg.experiment.seed if args.seed is None else args.seed
    caps, real, sol, _ = _solve_one(cfg, seed)
    report = kkt_verify(sol, real.cnir, cfg.su.ber_threshold, caps)
    out = report.to_dict()
    out["case_id"] = sol.case_id
    out["seed"] = seed
    _emit_json(out, args.output)
    return 0 if report.passed else 3


def cmd_runtime(args):
    cfg = load_scenario(args.config)
    n_values = [int(v) for v in _parse_values(args.n_values)]
    rows, slope = runtime_scaling(cfg, n_values, repeats=args.repeats,
                                  master_seed=args.seed)
    _emit_csv(["n_subcarriers", "median_seconds"], rows, args.output)
    print(f"log-log slope: {slope:.3f}", file=sys.stderr)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="crloading",
        description="Bit/power loading for OFDM cognitive radio under "
                    "statistical interference constraints",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="scenario JSON file")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (default: experiment.seed)")
        p.add_argument("--output", default=None,
                       help="output file (default stdout)")

    p = sub.add_parser("solve", help="solve one channel realization")
    common(p)
    p.add_argument("--trial", type=int, default=0,
                   help="trial index to replay (default 0)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="Monte Carlo parameter sweep")
    common(p)
    p.add_argument("--param", choices=SWEEPABLE, default=None)
    p.add_argument("--values", default=None,
                   help="comma-separated values ('inf' allowed)")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle-compare",
                       help="proposed pipeline vs exhaustive search")
    common(p)
    p.add_argument("--instances", type=int, default=20)
    p.set_defaults(func=cmd_oracle_compare)

    p = sub.add_parser("kkt-check",
                       help="verify first-order optimality of one solution")
    common(p)
    p.set_defaults(func=cmd_kkt_check)

    p = sub.add_parser("runtime", help="solver runtime vs band size")
    common(p)
    p.add_argument("--n-values", default="64,128,256,512")
    p.add_argument("--repeats", type=int, default=7)
    p.set_defaults(func=cmd_runtime)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
