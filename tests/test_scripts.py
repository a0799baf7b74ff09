"""Smoke test: every script under scripts/ runs end to end on tiny counts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["run_sweep.py", "--config", "configs/cci_binding.json", "--trials", "5"],
    ["check_guarantee.py", "--trials", "20", "--psi", "0.9"],
    ["compare_oracle.py", "--config", "configs/small_n6.json", "--sizes", "4",
     "--instances", "2"],
    ["runtime_scaling.py", "--config", "configs/cci_binding.json",
     "--sizes", "16,32", "--repeats", "2"],
], ids=lambda argv: argv[0])
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]),
                           *argv[1:]], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
