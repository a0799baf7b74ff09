"""Tests of the benchmark's own correctness gate and tracing.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, load_program  # noqa: E402

load_program()

from crloading import run_monte_carlo  # noqa: E402

from gate import Gate, check_trial, reduce_outcomes  # noqa: E402
from report import check_references  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import _replay_trial, load_workloads, set_up  # noqa: E402

SPEC = json.loads((HERE / "spec.json").read_text())
SEED = 11


def _point(workload="cci_sweep"):
    w = load_workloads(SPEC)[workload]
    _, points = set_up(w, ROOT)
    return points[0]


def _replay(cfg, caps, trials, tracer=None):
    tracer = tracer or Tracer()
    return [_replay_trial(tracer, cfg, caps, SEED, t, t)
            for t in range(trials)]


def test_corrupted_allocation_trips_gate():
    _, cfg, caps = _point()
    (_, sol, alloc, cnir), = _replay(cfg, caps, 1)
    assert check_trial(sol, alloc, cnir, caps, cfg.su) == (True, True)

    # Half the power on every loaded tone misses the BER target there.
    bad = replace(alloc, powers=alloc.powers * 0.5)
    kkt_ok, feasible = check_trial(sol, bad, cnir, caps, cfg.su)
    assert not feasible
    gate = Gate("cci_sweep")
    gate.record(kkt_ok, feasible, SEED, 0.8, 0)
    assert not gate.correct
    assert gate.failed == 1
    assert gate.failures[0]["trial"] == 0


def test_uncertified_solution_is_failed_but_not_wrong():
    gate = Gate("wideband_n1024")
    gate.record(False, True, SEED, None, 25)
    assert gate.correct
    assert gate.failed == 1
    assert gate.failures[0]["reason"] == "kkt"


def test_traced_replay_reduces_to_run_monte_carlo():
    _, cfg, caps = _point()
    rows = [r[0] for r in _replay(cfg, caps, 20)]
    assert reduce_outcomes(rows) == run_monte_carlo(cfg, 20, SEED, caps=caps)
    rows[3] = (rows[3][0] - 1.0,) + rows[3][1:]
    assert reduce_outcomes(rows) != run_monte_carlo(cfg, 20, SEED, caps=caps)


def test_self_times_account_for_the_root_span():
    _, cfg, caps = _point("aci_default")
    tr = Tracer()
    with tr.span("bench.workload"):
        _replay(cfg, caps, 3, tr)
    root = tr.spans[0][2] - tr.spans[0][1]
    assert abs(sum(tr.self_times()) - root) < 1e-9
    assert set(tr.layer_self_times()) == {"bench", "experiments", "channel",
                                          "solver", "discretizer"}


def test_reference_mismatch_trips_gate(tmp_path):
    refs = {"cci_sweep": {str(SEED): {"untraced": {
        "metrics": {"bits_per_symbol": 500.0}, "aggregates": []}}}}
    path = tmp_path / "references.json"
    path.write_text(json.dumps(refs))
    gate = Gate("cci_sweep")
    check_references(gate, path, "cci_sweep", SEED, 0,
                     {"bits_per_symbol": 500.0}, {"aggregates": []})
    assert gate.correct
    check_references(gate, path, "cci_sweep", SEED, 0,
                     {"bits_per_symbol": 499.0}, {"aggregates": []})
    assert not gate.correct


def test_spec_matches_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
        got = [(m["name"], m["unit"], m["better"]) for m in SPEC[key]]
        assert got == want, key
    assert [w["name"] for w in bench["workloads"]] == list(SPEC["workloads"])
