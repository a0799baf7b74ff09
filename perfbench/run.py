#!/usr/bin/env python3
"""crloading benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload cci_sweep --seed 777 --seconds 15 \
        --trace 0

Run from the repository root.  ``--trace 0`` times the workload with
tracing off and reports the end-to-end metrics; ``--trace 1`` replays one
pass with a span around every call into the package and reports the
per-layer metrics.  Both check the outputs (see ``gate.py``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
provenance and every metric by name and unit.  A full record, and in a
traced run the spans, go to ``perfbench/out/``.  The exit code is 0 when
the gate passes, 1 when it fails and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Pin BLAS and OpenMP pools to one thread before numpy is imported, so the
# figures measure the program and not the scheduler.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_program():
    """Put the checkout's ``src`` first on the import path and import the
    package from there; exit with code 2 when it is missing."""
    src = ROOT / "src"
    if not (src / "crloading" / "__init__.py").is_file():
        print(f"error: no crloading package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import crloading
    if Path(crloading.__file__).resolve().parent != (src / "crloading"):
        print("error: crloading was imported from outside the checkout",
              file=sys.stderr)
        sys.exit(2)
    return crloading


def main(argv=None):
    spec = json.loads((HERE / "spec.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(spec["workloads"]))
    ap.add_argument("--seed", type=int, default=None,
                    help="default: the config's experiment.seed")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    load_program()
    from gate import Gate
    from report import (check_references, provenance, result_line,
                        write_record)
    from workloads import load_workloads, run_traced, run_untraced

    w = load_workloads(spec)[args.workload]
    seed = w.default_seed if args.seed is None else args.seed
    prov = provenance(ROOT, w, seed, args)
    gate = Gate(w.name)
    tracer = None
    if args.trace:
        values, info, tracer = run_traced(w, ROOT, seed, gate)
        wanted = spec["per_layer"]
    else:
        values, info = run_untraced(w, ROOT, seed, args.seconds, gate)
        wanted = spec["end_to_end"]
    check_references(gate, HERE / "references.json", w.name, seed,
                     args.trace, values, info)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    prov["samples"] = {k: v for k, v in info.items() if k != "aggregates"}

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{seed}-trace{args.trace}"
    write_record(out / f"{stem}.json", prov, info, gate, metrics)
    if tracer is not None:
        tracer.write(out / f"{stem}.spans.jsonl")

    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>16.6g} {m['unit']}")
    for name in sorted(set(values) - set(metrics)):
        print(f"{name:<40} {values[name]:>16.6g} (printed, not bounded)")
    print(f"{'failed_frac':<40} {gate.failed / max(gate.attempted, 1):>16.6g}"
          f" ratio ({gate.failed} of {gate.attempted})")
    for f in gate.failures:
        print("failure " + json.dumps(f, sort_keys=True))
    for e in gate.errors:
        print(f"gate error: {e}")
    print(result_line(gate, metrics))
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
