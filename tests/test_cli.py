"""End-to-end CLI checks, in-process through main(argv) except where a
real pipe is needed."""

import argparse
import csv
import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import crloading.cli as cli
from crloading.channel import sample_su_channel
from crloading.constraints import build_caps
from crloading.errors import SolverError
from crloading.experiments import (AggregateStats, run_trial,
                                   sweep_experiment, trial_rng)
from crloading.kkt import kkt_verify
from crloading.scenario import apply_parameter, load_scenario

ROOT = Path(__file__).resolve().parents[1]
SMALL = "configs/small_n6.json"
CCI = "configs/cci_binding.json"
FLAGS = ("cci", "aci", "cci_discrete", "aci_discrete")


def kkt_of_trial(cfg, trial):
    """``kkt_verify`` of ``run_trial``'s continuous solution of ``trial``."""
    caps = build_caps(cfg)
    seed = cfg.experiment.seed
    sol = run_trial(cfg, caps, trial, seed).solution
    cnir = sample_su_channel(cfg.su, trial_rng(seed, trial)).cnir
    return kkt_verify(sol, cnir, cfg.su.ber_threshold, caps).to_dict()


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
        alloc = run_trial(cfg, build_caps(cfg), 7, seed).allocation
        code, out, _ = run(capsys, "solve", "--config", SMALL,
                           "--trial", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["bits"] == [int(b) for b in alloc.bits]
        assert doc["powers"] == [float(p) for p in alloc.powers]
        first = json.loads(run(capsys, "solve", "--config", SMALL)[1])
        assert first["bits"] != doc["bits"]

    def test_nulled_tones_print_positive_zero(self, capsys):
        # trial 3 of small_n6 sends no power on three of its tones
        out = run(capsys, "solve", "--config", SMALL, "--trial", "3")[1]
        powers = json.loads(out)["powers"]
        assert powers.count(0.0) == 3
        assert not np.signbit(powers).any()

    def test_violations_are_the_trials_flags(self, capsys):
        # trial 11 of small_n6 violates the adjacent-channel cap
        cfg = load_scenario(SMALL)
        flags = run_trial(cfg, build_caps(cfg), 11, cfg.experiment.seed)[2:6]
        assert any(flags)
        doc = json.loads(run(capsys, "solve", "--config", SMALL,
                             "--trial", "11")[1])
        assert doc["violations"] == dict(zip(FLAGS, flags))

    @pytest.mark.parametrize("config", ["configs/default.json", CCI, SMALL])
    def test_clean_trials_certify(self, capsys, config):
        for trial in range(10):
            code, out, _ = run(capsys, "solve", "--config", config,
                               "--trial", str(trial))
            assert code == 0
            doc = json.loads(out)
            assert doc["kkt"]["pass"] is True
            assert doc["feasibility"]["feasible"] is True
            assert set(doc["violations"]) == set(FLAGS)

    def test_kkt_is_that_of_the_trials_solve(self, capsys):
        code, out, _ = run(capsys, "solve", "--config", SMALL,
                           "--trial", "3")
        assert code == 0
        doc = json.loads(out)
        # the residuals, not just the regime, are those of trial 3's solve
        assert doc["kkt"] == kkt_of_trial(load_scenario(SMALL), 3)
        first = json.loads(run(capsys, "solve", "--config", SMALL)[1])
        assert (first["kkt"]["stationarity_power"]
                != doc["kkt"]["stationarity_power"])

    def test_failed_report_exits_three(self, capsys, monkeypatch):
        fake = types.SimpleNamespace(passed=False,
                                     to_dict=lambda: {"pass": False})
        monkeypatch.setattr(cli, "kkt_verify", lambda *a, **k: fake)
        code, out, _ = run(capsys, "solve", "--config", SMALL)
        assert code == 3
        doc = json.loads(out)
        assert doc["kkt"]["pass"] is False
        assert doc["feasibility"]["feasible"] is True

    @pytest.mark.parametrize("config", ["configs/default.json", CCI, SMALL])
    def test_bytes_those_of_a_second_draw(self, capsys, monkeypatch,
                                          config):
        # solve certifies against the record's CNIR; it once drew the
        # trial's channel again for that, and its JSON keeps those bytes
        def redrawn(cfg, caps, t, seed):
            trial = run_trial(cfg, caps, t, seed)
            return trial._replace(cnir=sample_su_channel(
                cfg.su, trial_rng(seed, t)).cnir)

        for t in ("0", "3", "11"):
            own = run(capsys, "solve", "--config", config, "--trial", t)
            with monkeypatch.context() as m:
                m.setattr(cli, "run_trial", redrawn)
                again = run(capsys, "solve", "--config", config, "--trial", t)
            assert own == again and own[0] == 0

    def test_param_value_replays_sweep_trial(self, capsys):
        # a sweep failure names "psi=0.99" and the trial; --param/--value
        # replays that trial at that point
        cfg = apply_parameter(load_scenario(CCI), "psi", 0.99)
        seed = cfg.experiment.seed
        trial = run_trial(cfg, build_caps(cfg), 5, seed)
        alloc, sol = trial.allocation, trial.solution
        code, out, _ = run(capsys, "solve", "--config", CCI, "--trial", "5",
                           "--param", "psi", "--value", "0.99")
        assert code == 0
        doc = json.loads(out)
        assert doc["bits"] == [int(b) for b in alloc.bits]
        assert doc["powers"] == [float(p) for p in alloc.powers]
        assert doc["lambda_power"] == sol.lambda_power
        assert doc["kkt"] == kkt_of_trial(cfg, 5)
        own = json.loads(run(capsys, "solve", "--config", CCI,
                             "--trial", "5")[1])
        assert own["lambda_power"] != doc["lambda_power"]


class TestSweep:
    HEADER = ["param_value",
              *(f.name for f in dataclasses.fields(AggregateStats))]

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
        col = {h: i for i, h in enumerate(rows[0])}
        thr = col["avg_throughput"]
        assert float(rows[1][thr]) > float(rows[2][thr]) * 0.5  # sane numbers
        # every cell, *_discrete rates included, is the library's figure
        want = sweep_experiment(load_scenario(CCI), "psi", [0.8, 0.9],
                                trials=30)
        assert [[float(x) for x in r] for r in rows[1:]] == [
            [v, *s.to_dict().values()] for v, s in want]
        assert rows[1][col["trials"]] == "30"

    def test_defaults_come_from_config(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--config", CCI, "--trials", "10",
                         "--output", str(out))
        assert code == 0
        rows = list(csv.reader(out.open(newline="")))
        assert [r[0] for r in rows[1:]] == ["0.8", "0.9", "0.99"]

    def test_other_param_needs_values(self, capsys):
        # the config's values are psi's, so alpha without --values is refused
        code, out, err = run(capsys, "sweep", "--config", CCI, "--param",
                             "alpha", "--trials", "2")
        assert code == 2
        assert err.startswith("config error: sweep needs a parameter")
        assert out == ""

    def test_unknown_param_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--config", CCI, "--param", "bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, flag", [
        ("sweep", "--values"), ("runtime", "--n-values"),
        ("oracle-compare", "--n-values")])
    def test_bad_value_list(self, capsys, command, flag):
        code, out, err = run(capsys, command, "--config", CCI, flag, "4,x")
        assert code == 2
        assert err.startswith(f"config error: bad {flag} value 'x'")
        assert out == ""

    @pytest.mark.parametrize("text", [",", ""])
    @pytest.mark.parametrize("command, flag", [
        ("sweep", "--values"), ("runtime", "--n-values"),
        ("oracle-compare", "--n-values")])
    def test_empty_value_list(self, capsys, command, flag, text):
        code, out, err = run(capsys, command, "--config", CCI, flag, text)
        assert code == 2
        assert err.startswith(f"config error: empty {flag} list")
        assert out == ""


class TestOracleCompare:
    HEADER = ["n_subcarriers", "seed", "f_proposed", "f_opt", "rel_gap",
              "t_proposed_s", "t_oracle_s"]

    def test_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code, _, err = run(capsys, "oracle-compare", "--config", SMALL,
                           "--instances", "5", "--output", str(out))
        assert code == 0
        rows = list(csv.reader(out.open(newline="")))
        assert rows[0] == self.HEADER
        assert len(rows) == 6
        assert [r[0] for r in rows[1:]] == ["6"] * 5    # the config's own N
        assert all(float(r[4]) >= -1e-12 for r in rows[1:])
        assert err.count("\n") == 1
        assert "n_subcarriers=6 median_gap=" in err and "speedup=" in err

    def test_n_values_compares_each_band_size(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code, _, err = run(capsys, "oracle-compare", "--config", SMALL,
                           "--n-values", "4,6", "--instances", "2",
                           "--output", str(out))
        assert code == 0
        rows = list(csv.reader(out.open(newline="")))
        assert rows[0] == self.HEADER
        assert [r[:2] for r in rows[1:]] == [["4", "0"], ["4", "1"],
                                             ["6", "0"], ["6", "1"]]
        assert all(float(r[4]) >= -1e-12 for r in rows[1:])
        assert [line.split()[0] for line in err.splitlines()] == [
            "n_subcarriers=4", "n_subcarriers=6"]

    def test_n_values_refuses_per_tone_vectors(self, tmp_path, capsys):
        doc = json.loads(open(SMALL).read())
        doc["su"]["ber_threshold"] = [1e-4] * 6
        per_tone = tmp_path / "per_tone.json"
        per_tone.write_text(json.dumps(doc))
        code, out, err = run(capsys, "oracle-compare", "--config",
                             str(per_tone), "--n-values", "4")
        assert code == 2
        assert err.startswith("config error: resizing the band needs scalar")
        assert out == ""
        # without --n-values the band keeps its size and its vectors
        assert run(capsys, "oracle-compare", "--config", str(per_tone),
                   "--instances", "1")[0] == 0

    def test_n_values_of_the_own_size_keep_per_tone_vectors(self, tmp_path,
                                                            capsys):
        doc = json.loads(open(SMALL).read())
        doc["su"]["ber_threshold"] = [1e-4] * 6
        per_tone = tmp_path / "per_tone.json"
        per_tone.write_text(json.dumps(doc))
        for argv in (("oracle-compare", "--instances", "1"),
                     ("runtime", "--repeats", "1")):
            code, out, _ = run(capsys, *argv, "--config", str(per_tone),
                               "--n-values", "6")
            assert code == 0
            assert [r[0] for r in csv.reader(out.splitlines()[1:])] == ["6"]

    def test_sizes_past_the_search_limit_are_refused_first(self, capsys):
        # N=12 is refused before N=6 is compared: no row, no summary line
        code, out, err = run(capsys, "oracle-compare", "--config", SMALL,
                             "--n-values", "6,12", "--instances", "2")
        assert code == 2
        assert err == ("config error: the exhaustive search takes at most "
                       "10 subcarriers, got 12\n")
        assert out == ""


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

    def test_integer_too_large_for_a_float_exits_two(self, tmp_path, capsys):
        doc = json.loads(open(SMALL).read())
        doc["su"]["su_link_gain"] = 10 ** 400
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", "--config", str(bad))
        assert code == 2
        assert err.startswith("config error: su.su_link_gain: number too "
                              "large for a float")
        assert out == ""

    @pytest.mark.parametrize("section, key, bound", [
        ("su", "max_bits", 1014), ("su", "num_subcarriers", 2 ** 32),
        ("experiment", "trials", 2 ** 32)])
    def test_huge_count_exits_two(self, tmp_path, capsys, section, key,
                                  bound):
        doc = json.loads(open(SMALL).read())
        doc.setdefault(section, {})[key] = 10 ** 400
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        for cmd in ("solve", "sweep"):
            code, out, err = run(capsys, cmd, "--config", str(bad))
            assert code == 2
            assert err.startswith(f"config error: {section}.{key}: ")
            assert f"{bound}, got 1000" in err
            assert out == ""

    def test_integer_past_the_digit_cap_exits_two(self, tmp_path, capsys):
        # Python's JSON reader refuses integers of over 4,300 digits
        text = open(SMALL).read()
        assert '"max_bits": 8' in text
        bad = tmp_path / "bad.json"
        bad.write_text(text.replace('"max_bits": 8',
                                    '"max_bits": 1' + "0" * 5000))
        code, out, err = run(capsys, "solve", "--config", str(bad))
        assert code == 2
        assert err.startswith("config error: config is not valid JSON")
        assert out == ""

    def test_huge_trials_flag_exits_two(self, capsys):
        code, out, err = run(capsys, "sweep", "--config", SMALL, "--param",
                             "psi", "--values", "0.9", "--trials",
                             str(10 ** 400))
        assert code == 2
        assert err.startswith("config error: trials must be at most "
                              f"{2 ** 32}, got 1000")
        assert out == ""

    def test_solver_failure_exits_three(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise SolverError("dual search diverged")
        monkeypatch.setattr(cli, "run_trial", boom)
        code, _, err = run(capsys, "solve", "--config", SMALL)
        assert code == 3
        assert err.startswith("solver error:")

    @pytest.mark.parametrize("argv", [
        ("sweep", "--config", CCI, "--trials", "0"),
        ("sweep", "--config", CCI, "--trials", "-2"),
        ("oracle-compare", "--config", SMALL, "--instances", "0"),
        ("solve", "--config", SMALL, "--trial", "-1"),
        ("solve", "--config", SMALL, "--seed", "-1"),
        ("runtime", "--config", SMALL, "--n-values", "6", "--repeats", "0"),
    ], ids=["zero_trials", "negative_trials", "zero_instances",
            "negative_trial", "negative_seed", "zero_repeats"])
    def test_bad_count_or_seed_exits_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("config error:")
        assert out == ""

    @pytest.mark.parametrize("flags,message", [
        (("--param", "psi"), "--param and --value go together"),
        (("--value", "0.9"), "--param and --value go together"),
        (("--param", "alpha", "--value", "1.5"), "alpha sweep value 1.5"),
        (("--param", "p_cci", "--value", "nan"), "p_cci sweep value nan"),
        (("--param", "p_aci", "--value", "1e-30"), "p_aci sets nothing"),
    ], ids=["param_alone", "value_alone", "out_of_range", "nan_cap",
            "no_adjacent_pu"])
    def test_bad_replay_point_exits_two(self, capsys, flags, message):
        code, out, err = run(capsys, "solve", "--config", CCI, *flags)
        assert code == 2
        assert err.startswith(f"config error: {message}")
        assert out == ""

    @pytest.mark.parametrize("sizes", ["-4", "0", "2.7", "8,inf"])
    def test_bad_band_size_exits_two(self, capsys, sizes):
        code, out, err = run(capsys, "runtime", "--config", CCI,
                             f"--n-values={sizes}", "--repeats", "1")
        assert code == 2
        assert err.startswith("config error: band sizes must be at least 1 "
                              "and integral")
        assert out == ""

    @pytest.mark.parametrize("command", ["runtime", "oracle-compare"])
    def test_band_size_past_the_loaders_bound_exits_two(self, capsys,
                                                         command):
        # refused as the loader refuses num_subcarriers, before any array
        code, out, err = run(capsys, command, "--config", CCI,
                             "--n-values", "8,1e20")
        assert code == 2
        assert err == (f"config error: band sizes must be at most {2 ** 32}"
                       f", got {10 ** 20}\n")
        assert out == ""

    def test_sweep_of_a_parameter_that_sets_nothing_exits_two(self, capsys):
        # small_n6 has no co-channel PU, so every row would be the same
        code, out, err = run(capsys, "sweep", "--config", SMALL, "--param",
                             "p_cci", "--values", "1e-14,1e-12", "--trials",
                             "50")
        assert code == 2
        assert err.startswith("config error: p_cci sets nothing")
        assert out == ""

    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_kkt_check_is_gone(self, capsys):
        # solve reports the KKT certificate itself
        with pytest.raises(SystemExit) as exc:
            cli.main(["kkt-check", "--config", SMALL])
        assert exc.value.code == 2

    def test_closed_stdout_ends_quietly(self):
        # a table past the 64 KiB pipe buffer: the write fails in main
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.Popen(
            [sys.executable, "-m", "crloading.cli", "oracle-compare",
             "--config", SMALL, "--n-values", "1", "--instances", "2000"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"n_subcarriers,seed,")
        proc.stdout.close()
        err = proc.communicate(timeout=60)[1].decode()
        assert proc.returncode == 1
        assert "Traceback" not in err and "n_subcarriers=1 " in err


def test_readme_commands_parse():
    """The README's CLI block shows every subcommand, each of its
    ``crloading`` lines parses, and every script the README names exists."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
    commands = block.replace("\\\n", " ").splitlines()
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert {c.split()[1] for c in commands} == set(subparsers.choices)
    for command in commands:
        argv = shlex.split(command.replace("[", "").replace("]", ""))
        assert argv[0] == "crloading"
        cli.build_parser().parse_args(argv[1:])
    for name in re.findall(r"scripts/(\w+\.py)", readme):
        assert (ROOT / "scripts" / name).is_file(), name
