"""Provenance, reference checks and the result record of one run."""

from __future__ import annotations

import hashlib
import json
import os
import platform
from pathlib import Path

import numpy as np

from gate import REFERENCE_RTOL, mismatches


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _git_commit(root):
    """HEAD of the checkout, read from ``.git`` without running git; None
    when the checkout is not a git repository."""
    head = _read(root / ".git" / "HEAD")
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(root / ".git" / ref)
    if loose is not None:
        return loose.strip()
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _source_digest(root):
    """sha256 over the package sources, which identifies the program when
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "crloading").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu():
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.is_dir() else ():
        level = (_read(idx / "level") or "").strip()
        kind = (_read(idx / "type") or "").strip()
        if level in ("2", "3") and kind != "Instruction":
            caches[f"L{level}"] = (_read(idx / "size") or "").strip()
    return model, caches


def provenance(root, w, seed, args):
    model, caches = _cpu()
    return {
        "workload": w.name, "seed": seed, "default_seed": w.default_seed,
        "heldout_seed": w.heldout_seed, "seconds": args.seconds,
        "trace": args.trace, "pass_size": w.pass_size,
        "git_commit": _git_commit(root), "src_sha256": _source_digest(root),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpu_model": model, "caches": caches,
        "loadavg_start": list(os.getloadavg()),
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_THREADS")},
    }


def check_references(gate, path, workload, seed, trace, values, info):
    """Compare the deterministic outputs with the recorded references for
    this workload and seed, if there are any."""
    refs = json.loads(Path(path).read_text()) if Path(path).is_file() else {}
    ref = refs.get(workload, {}).get(str(seed), {}).get(
        "traced" if trace else "untraced")
    if ref is None:
        return
    bad = mismatches(values, ref["metrics"], REFERENCE_RTOL)
    bad += mismatches(info, ref.get("info", {}), REFERENCE_RTOL)
    gate.expect(not bad, f"differs from the references: {bad}")
    got = info.get("aggregates") or []
    want = ref.get("aggregates") or []
    gate.expect(len(got) == len(want),
                "number of sweep points differs from the references")
    for (v, g), (_, r) in zip(got, want):
        if g is None or r is None:
            gate.expect(g is None and r is None,
                        f"failure at value={v} differs from the references")
            continue
        bad = mismatches(g, r, REFERENCE_RTOL)
        gate.expect(not bad, f"aggregates at value={v} differ from the "
                             f"references: {bad}")


def result_line(gate, metrics):
    return json.dumps({"correct": gate.correct, "attempted": gate.attempted,
                       "failed": gate.failed, "metrics": metrics})


def write_record(path, prov, info, gate, metrics):
    record = {"provenance": prov, "info": info, "correct": gate.correct,
              "attempted": gate.attempted, "failed": gate.failed,
              "failures": gate.failures, "gate_errors": gate.errors,
              "metrics": metrics}
    Path(path).write_text(json.dumps(record, indent=1) + "\n")
