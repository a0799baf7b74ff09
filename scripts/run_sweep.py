#!/usr/bin/env python3
"""Monte Carlo sweep over one scenario parameter.

Runs the full pipeline (channel draw -> continuous solve -> rounding ->
interference outcome) for every sweep value and prints a small table with
95% confidence half-widths.  Optionally writes the same rows as CSV.

Example:
    python scripts/run_sweep.py --config configs/cci_binding.json \
        --param psi --values 0.5,0.8,0.9,0.95,0.99 --trials 2000
"""

import argparse
import csv
import sys

from crloading.experiments import sweep_experiment
from crloading.scenario import SWEEPABLE, load_scenario


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--param", choices=SWEEPABLE, default=None,
                    help="defaults to the config's sweep_param")
    ap.add_argument("--values", default=None,
                    help="comma-separated; defaults to the config's list")
    ap.add_argument("--trials", type=int, default=None,
                    help="trials per value, run in index order; defaults "
                         "to the config's experiment.trials")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--csv", default=None, help="also write rows here")
    return ap.parse_args()


def main():
    args = parse_args()
    cfg = load_scenario(args.config)
    values = ([float(v) for v in args.values.split(",")]
              if args.values else None)
    rows = sweep_experiment(cfg, args.param, values, trials=args.trials,
                            master_seed=args.seed)

    param = args.param or cfg.experiment.sweep_param
    print(f"# {param} sweep, {rows[0][1].trials} trials/point, "
          f"seed {args.seed if args.seed is not None else cfg.experiment.seed}")
    print(f"{param:>10}  {'bits/sym':>12}  {'power [W]':>14}  "
          f"{'cci rate':>10}  {'aci rate':>10}")
    for v, s in rows:
        print(f"{v:>10g}  {s.avg_throughput:>8.2f}±{s.throughput_ci95:<4.2f}"
              f"  {s.avg_power:>10.4e}  {s.cci_violation_rate:>10.4f}"
              f"  {s.aci_violation_rate:>10.4f}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["param_value"] + list(rows[0][1].to_dict()))
            for v, s in rows:
                w.writerow([v] + list(s.to_dict().values()))
        print(f"# wrote {args.csv}", file=sys.stderr)


if __name__ == "__main__":
    main()
