#!/usr/bin/env python3
"""Record the deterministic outputs of workloads on their default and
held-out seeds into ``references.json``.

    python3 perfbench/make_references.py [WORKLOAD ...]

With no names, every workload is recorded again; otherwise only those named.

Run it from the repository root, only when a change is meant to alter the
program's outputs; the gate compares later runs with these references.
"""

import json
import sys

from run import HERE, ROOT, load_program

load_program()

from gate import Gate  # noqa: E402
from workloads import load_workloads, run_traced, run_untraced  # noqa: E402


def main():
    spec = json.loads((HERE / "spec.json").read_text())
    exact = {key: [m["name"] for m in spec[key] if m["exact"]]
             for key in ("end_to_end", "per_layer")}
    path = HERE / "references.json"
    refs = json.loads(path.read_text()) if path.is_file() else {}
    names = sys.argv[1:] or list(spec["workloads"])
    for name, w in load_workloads(spec).items():
        if name not in names:
            continue
        refs[name] = {}
        for seed in (w.default_seed, w.heldout_seed):
            entry = refs[name].setdefault(str(seed), {})
            for mode, key in (("untraced", "end_to_end"),
                              ("traced", "per_layer")):
                gate = Gate(name)
                if mode == "traced":
                    values, info, _ = run_traced(w, ROOT, seed, gate)
                else:
                    values, info = run_untraced(w, ROOT, seed, 1e-3, gate)
                if not gate.correct:
                    sys.exit(f"{name} seed {seed} {mode}: {gate.errors}")
                entry[mode] = {
                    "metrics": {m: values[m] for m in exact[key]},
                    "info": {k: info[k] for k in ("gap_median", "gap_max")
                             if k in info},
                    "aggregates": info.get("aggregates", []),
                }
                print(name, seed, mode, entry[mode]["metrics"], flush=True)
    path.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
