"""End-to-end CLI checks, all in-process through main(argv)."""

import csv
import json
import types

import pytest

import crloading.cli as cli
from crloading.constraints import build_caps
from crloading.errors import SolverError
from crloading.experiments import run_trial
from crloading.scenario import load_scenario

SMALL = "configs/small_n6.json"
CCI = "configs/cci_binding.json"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_json_to_stdout(self, capsys):
        code, out, _ = run(capsys, "solve", "--config", SMALL)
        assert code == 0
        doc = json.loads(out)
        assert doc["feasibility"]["feasible"] is True
        assert doc["case_id"] in (5, 6, 7, 8)
        assert len(doc["bits"]) == 6
        assert doc["total_bits"] == sum(doc["bits"])
        assert doc["total_power"] == pytest.approx(sum(doc["powers"]))

    def test_output_file_and_determinism(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, "solve", "--config", SMALL, "--output",
                   str(f1))[0] == 0
        assert run(capsys, "solve", "--config", SMALL, "--output",
                   str(f2))[0] == 0
        assert f1.read_text() == f2.read_text()
        assert f1.read_text().endswith("\n")

    def test_seed_override(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "solve", "--config", SMALL, "--output", str(f1))
        run(capsys, "solve", "--config", SMALL, "--seed", "9", "--output",
            str(f2))
        d1, d2 = json.loads(f1.read_text()), json.loads(f2.read_text())
        assert d1["seed"] != d2["seed"]
        assert d1["bits"] != d2["bits"]

    def test_trial_replays_monte_carlo_trial(self, capsys):
        cfg = load_scenario(SMALL)
        seed = cfg.experiment.seed
        alloc = run_trial(cfg, build_caps(cfg), 7, seed)[6]
        code, out, _ = run(capsys, "solve", "--config", SMALL,
                           "--trial", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["bits"] == [int(b) for b in alloc.bits]
        assert doc["powers"] == [float(p) for p in alloc.powers]
        first = json.loads(run(capsys, "solve", "--config", SMALL)[1])
        assert first["bits"] != doc["bits"]


class TestSweep:
    HEADER = ["param_value", "avg_throughput", "avg_power",
              "cci_violation_rate", "aci_violation_rate",
              "throughput_ci95", "power_ci95", "cci_rate_ci95",
              "aci_rate_ci95"]

    def test_csv_shape(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--config", CCI, "--param", "psi",
                         "--values", "0.8,0.9", "--trials", "30",
                         "--output", str(out))
        assert code == 0
        rows = list(csv.reader(out.open(newline="")))
        assert rows[0] == self.HEADER
        assert len(rows) == 3
        assert [r[0] for r in rows[1:]] == ["0.8", "0.9"]
        assert float(rows[1][1]) > float(rows[2][1]) * 0.5    # sane numbers

    def test_defaults_come_from_config(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--config", CCI, "--trials", "10",
                         "--output", str(out))
        assert code == 0
        rows = list(csv.reader(out.open(newline="")))
        assert [r[0] for r in rows[1:]] == ["0.8", "0.9", "0.99"]

    def test_workers_reproduce_serial_csv(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "sweep", "--config", CCI, "--values", "0.9",
            "--trials", "30", "--output", str(a))
        run(capsys, "sweep", "--config", CCI, "--values", "0.9",
            "--trials", "30", "--workers", "3", "--output", str(b))
        assert a.read_text() == b.read_text()

    def test_unknown_param_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--config", CCI, "--param", "bogus"])
        assert exc.value.code == 2

    def test_bad_value_list(self, capsys):
        code, _, err = run(capsys, "sweep", "--config", CCI,
                           "--values", "0.8,oops")
        assert code == 2
        assert "config error" in err

    def test_empty_value_list(self, capsys):
        code, _, err = run(capsys, "sweep", "--config", CCI, "--values", ",")
        assert code == 2


class TestOracleCompare:
    def test_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code, _, err = run(capsys, "oracle-compare", "--config", SMALL,
                           "--instances", "5", "--output", str(out))
        assert code == 0
        rows = list(csv.reader(out.open(newline="")))
        assert rows[0] == ["seed", "f_proposed", "f_opt", "rel_gap",
                           "t_proposed_s", "t_oracle_s"]
        assert len(rows) == 6
        assert all(float(r[3]) >= -1e-12 for r in rows[1:])
        assert "median_gap=" in err and "speedup=" in err


class TestKktCheck:
    def test_clean_solution_exits_zero(self, capsys):
        code, out, _ = run(capsys, "kkt-check", "--config", SMALL)
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["case_id"] in (5, 6, 7, 8)

    def test_failed_report_exits_three(self, capsys, monkeypatch):
        fake = types.SimpleNamespace(passed=False,
                                     to_dict=lambda: {"pass": False})
        monkeypatch.setattr(cli, "kkt_verify", lambda *a, **k: fake)
        code, out, _ = run(capsys, "kkt-check", "--config", SMALL)
        assert code == 3
        assert json.loads(out)["pass"] is False


class TestRuntime:
    def test_csv_and_slope_line(self, tmp_path, capsys):
        out = tmp_path / "rt.csv"
        code, _, err = run(capsys, "runtime", "--config", SMALL,
                           "--n-values", "6,8", "--repeats", "1",
                           "--output", str(out))
        assert code == 0
        rows = list(csv.reader(out.open(newline="")))
        assert rows[0] == ["n_subcarriers", "median_seconds"]
        assert [r[0] for r in rows[1:]] == ["6", "8"]
        assert "log-log slope:" in err


class TestErrorPaths:
    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "solve", "--config", "no/such/file.json")
        assert code == 2
        assert err.startswith("config error:")

    def test_unparseable_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "solve", "--config", str(bad))
        assert code == 2

    def test_semantically_invalid_config(self, tmp_path, capsys):
        doc = json.loads(open(SMALL).read())
        doc["su"]["alpha"] = 2.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "solve", "--config", str(bad))
        assert code == 2
        assert "alpha" in err

    def test_solver_failure_exits_three(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise SolverError("dual search diverged")
        monkeypatch.setattr(cli, "solve_continuous", boom)
        code, _, err = run(capsys, "solve", "--config", SMALL)
        assert code == 3
        assert err.startswith("solver error:")

    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2
