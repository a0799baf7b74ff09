"""Smoke test: scripts/bench_layers.py runs end to end on tiny counts.

The paper's sweep, oracle and runtime tables come from the ``crloading``
CLI (tests/test_cli.py); bench_layers.py is the one script, as tooling.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]),
                           *argv[1:]], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_bench_layers_writes_every_figure(tmp_path):
    out = tmp_path / "bench" / "BENCH.json"
    run_script(["bench_layers.py", "--out", str(out), "--repeats", "1",
                "--c6-instances", "2"])
    assert_bench_figures(json.loads(out.read_text()))


def test_bench_layers_times_a_parent_tree_alongside(tmp_path):
    # this tree as its own parent: two files, each with every figure
    out = tmp_path / "BENCH.json"
    run_script(["bench_layers.py", "--out", str(out), "--repeats", "1",
                "--c6-instances", "2", "--parent", str(ROOT)])
    parent = tmp_path / "BENCH_parent.json"
    assert sorted(tmp_path.iterdir()) == [out, parent]
    for path in (out, parent):
        assert_bench_figures(json.loads(path.read_text()))


def assert_bench_figures(doc):
    assert {"head", "python", "numpy", "nproc"} <= set(doc["provenance"])
    assert set(doc["configs"]) == {"default", "cci_binding", "small_n6",
                                   "default_n1024"}
    for cfg in doc["configs"].values():
        assert set(cfg["layers"]) == {
            "load_scenario_us", "overlap_ms", "build_caps_us", "setup_ms",
            "draw_us_per_trial", "solve_block_us_per_row",
            "repair_block_us_per_row", "outcomes_us_per_trial",
            "cap_sums_us_per_row", "solve_one_row_us",
            "repair_one_row_us", "run_trial_us", "check_feasible_us",
            "kkt_verify_us", "monte_carlo_trials_per_s", "run_trial_calls"}
        assert cfg["overlap_peak_mib"] > 0
        by_case = cfg["solve_one_row_by_case"]
        assert by_case and set(by_case) <= {"case5", "case6", "case7",
                                            "case8"}
        assert sum(fig["draws"] for fig in by_case.values()) == 100
        for fig in [*cfg["layers"].values(), *by_case.values()]:
            assert 0 < fig["q1"] <= fig["median"] <= fig["q3"]
    call = doc["oracle_small_n6_call"]
    assert set(call) == {"median", "q1", "q3", "unit", "nodes_visited",
                         "us_per_node"}
    assert call["median"] > 0 and call["nodes_visited"] > 0
    assert call["us_per_node"] == 1e3 * call["median"] / call["nodes_visited"]
    flat = doc["oracle_small_n6_flat"]
    assert flat["median"] > 0 and flat["peak_mib"] > 0
    c6 = doc["criterion_6_n8"]
    assert c6["instances"] == 2 and c6["speedup"] > 0
    assert 0 < c6["solve_repair_us"]["median"]
    assert c6["oracle_ms_median"] > 0
