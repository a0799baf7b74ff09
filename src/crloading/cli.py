"""Command-line front end.

Subcommands: solve (replays one Monte Carlo trial with its feasibility,
KKT report and violation flags), sweep (every AggregateStats field per
value), oracle-compare and runtime (these two resize the band to each of
--n-values).  Tables are RFC-4180 CSV with a header row, single results
JSON.  Exit codes: 0 on success, 1 when stdout closes early, 2 for
configuration problems, 3 for solver failures and failed KKT reports.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .constraints import build_caps, check_feasible
from .errors import ConfigError, SolverError
from .experiments import (_resized, compare_with_oracle, run_trial,
                          runtime_scaling, sweep_experiment)
from .kkt import kkt_verify
from .scenario import SWEEPABLE, apply_parameter, load_scenario


def _parse_values(text, flag):
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(float(part))
        except ValueError:
            raise ConfigError(f"bad {flag} value {part!r}")
    if not out:
        raise ConfigError(f"empty {flag} list")
    return out


def _emit(path, write):
    """``write`` to the file at ``path``, or to stdout when none is given."""
    if path in (None, "-"):
        return write(sys.stdout)
    with open(path, "w", newline="") as fh:
        write(fh)


def _emit_json(obj, path):
    _emit(path, lambda fh: fh.write(json.dumps(obj, indent=2) + "\n"))


def _emit_csv(header, rows, path):
    _emit(path, lambda fh: csv.writer(fh).writerows([header, *rows]))


def cmd_solve(args):
    """Trial ``args.trial`` of ``run_monte_carlo``, with its certificates."""
    cfg = load_scenario(args.config)
    if (args.param is None) != (args.value is None):
        raise ConfigError("--param and --value go together")
    if args.param:
        cfg = apply_parameter(cfg, args.param, args.value)
    seed = cfg.experiment.seed if args.seed is None else args.seed
    caps = build_caps(cfg)
    trial = run_trial(cfg, caps, args.trial, seed)
    alloc, sol, cnir = trial.allocation, trial.solution, trial.cnir
    ber = cfg.su.ber_threshold
    kkt = kkt_verify(sol, cnir, ber, caps)
    out = alloc.to_dict()
    out.update({
        "seed": seed,
        "case_id": sol.case_id,
        "total_power": float(np.sum(alloc.powers)),
        "total_bits": int(np.sum(alloc.bits)),
        "lambda_power": sol.lambda_power,
        "lambda_aci": [float(x) for x in sol.lambda_aci],
        "feasibility": check_feasible(alloc, caps, cnir, ber).to_dict(),
        "kkt": kkt.to_dict(),
        "violations": dict(zip(("cci", "aci", "cci_discrete",
                                "aci_discrete"), trial[2:6])),
    })
    _emit_json(out, args.output)
    return 0 if kkt.passed else 3


def cmd_sweep(args):
    cfg = load_scenario(args.config)
    param = args.param or cfg.experiment.sweep_param
    values = (cfg.experiment.sweep_values if args.values is None
              else _parse_values(args.values, "--values"))
    results = sweep_experiment(cfg, param, values, trials=args.trials,
                               master_seed=args.seed)
    _emit_csv(["param_value", *results[0][1].to_dict()],
              [[v, *s.to_dict().values()] for v, s in results], args.output)
    return 0


def cmd_oracle_compare(args):
    cfg = load_scenario(args.config)
    sized = [cfg] if args.n_values is None else [
        _resized(cfg, n) for n in _parse_values(args.n_values, "--n-values")]
    rows = []
    for cfg_n in sized:
        n = cfg_n.su.num_subcarriers
        comp = compare_with_oracle(cfg_n, args.instances,
                                   master_seed=args.seed)
        rows += [[n, *r] for r in comp.rows]
        print(f"n_subcarriers={n} median_gap={comp.median_gap:.6g} "
              f"max_gap={comp.max_gap:.6g} speedup={comp.speedup:.3g}x",
              file=sys.stderr)
    _emit_csv(["n_subcarriers", "seed", "f_proposed", "f_opt", "rel_gap",
               "t_proposed_s", "t_oracle_s"], rows, args.output)
    return 0


def cmd_runtime(args):
    cfg = load_scenario(args.config)
    sizes = _parse_values(args.n_values, "--n-values")
    rows, slope = runtime_scaling(cfg, sizes, repeats=args.repeats,
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
                       help="master seed, >= 0 (default: experiment.seed)")
        p.add_argument("--output", default=None,
                       help="output file (default stdout)")

    p = sub.add_parser("solve", help="replay one Monte Carlo trial and "
                       "certify it")
    common(p)
    p.add_argument("--trial", type=int, default=0,
                   help="trial index to replay, >= 0 (default 0)")
    p.add_argument("--param", choices=SWEEPABLE)
    p.add_argument("--value", type=float, default=None,
                   help="--param's value ('inf' allowed): a sweep point")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="Monte Carlo parameter sweep")
    common(p)
    p.add_argument("--param", choices=SWEEPABLE, default=None)
    p.add_argument("--values", default=None,
                   help="comma-separated values ('inf' allowed)")
    p.add_argument("--trials", type=int, default=None,
                   help="trials per value, >= 1, run in index order "
                        "(default: experiment.trials)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle-compare",
                       help="proposed pipeline vs exhaustive search")
    common(p)
    p.add_argument("--instances", type=int, default=20,
                   help="channel draws per band size, >= 1 (default 20)")
    p.add_argument("--n-values", default=None,
                   help="comma-separated band sizes (default: config's N)")
    p.set_defaults(func=cmd_oracle_compare)

    p = sub.add_parser("runtime", help="solver runtime vs band size")
    common(p)
    p.add_argument("--n-values", default="64,128,256,512",
                   help="comma-separated band sizes, integers >= 1")
    p.add_argument("--repeats", type=int, default=7,
                   help="timed solves per size, >= 1 (default 7)")
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
    except BrokenPipeError:     # the reader closed stdout: end quietly,
        # with stdout on devnull so that the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
