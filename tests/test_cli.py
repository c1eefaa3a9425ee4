import csv
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from minrep import bilocal, cli, fockspace, harmonics, reports
from minrep.reports import Report

SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def slow_down(monkeypatch, owner, name):
    """Make each call of owner.name advance the reports' clock by 1000 ms.

    Returns the list of those calls' arguments.
    """
    calls = []
    monkeypatch.setattr(reports, "time", SimpleNamespace(
        perf_counter=lambda: time.perf_counter() + len(calls)))
    original = getattr(owner, name)

    def slow(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, slow)
    return calls


def run_process(argv, cwd):
    """Run `python -m minrep` in a fresh interpreter: (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "minrep"] + argv, cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class TestTable1:
    def test_records_are_charged_with_the_table(self, capsys, monkeypatch):
        calls = slow_down(monkeypatch, cli.rootsys, "table1_report")
        code, out = run(["table1", "--ranks-a", "2..3", "--format", "json"], capsys)
        assert code == 0 and len(calls) == 1
        assert sum(r["wall_ms"] for r in json.loads(out)["records"]) >= 1000

    def test_csv_columns(self, capsys):
        code, out = run(["table1", "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["label", "dim_g", "H_label", "dim_g1", "gk_dim",
                           "eq_identities_ok"]
        labels = {r[0] for r in rows[1:]}
        assert {"E6", "E7", "E8", "F4", "G2"} <= labels
        # classical families at 4+ ranks each
        for fam in "ABCD":
            assert sum(1 for l in labels if l.startswith(fam) and l[1:].isdigit()) >= 4

    def test_exit_zero_iff_identities_hold(self, capsys):
        code, _ = run(["table1", "--format", "json"], capsys)
        assert code == 0

    def test_custom_ranks(self, capsys):
        code, out = run(["table1", "--format", "csv", "--ranks-c", "2..3"], capsys)
        rows = list(csv.reader(io.StringIO(out)))
        labels = {r[0] for r in rows[1:]}
        assert "C2" in labels and "C3" in labels and "C6" not in labels

    @pytest.mark.parametrize("flag,value", [
        ("--ranks-a", "5..2"),   # empty range
        ("--ranks-a", "0"),      # below A's minimum rank 1
        ("--ranks-b", "1"),      # below B's minimum rank 2
        ("--ranks-c", "1..3"),   # below C's minimum rank 2
        ("--ranks-d", "2..3"),   # below D's minimum rank 3
    ])
    def test_bad_rank_range_exits_two(self, capsys, flag, value):
        code, _ = run(["table1", flag, value], capsys)
        assert code == cli.EXIT_USAGE


class TestRelations:
    def test_su22_all_pass(self, capsys):
        code, out = run(["check-relations", "--algebra", "su22",
                         "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True

    @pytest.mark.parametrize("algebra", ["su22", "unn", "so-star"])
    def test_records_are_charged_with_the_generators(self, capsys, monkeypatch, algebra):
        # the report exists before its generators are built
        calls = slow_down(monkeypatch, cli, "_generators")
        code, out = run(["check-relations", "--algebra", algebra, "--n", "1",
                         "--format", "json"], capsys)
        assert code == 0 and len(calls) == 1
        assert sum(r["wall_ms"] for r in json.loads(out)["records"]) >= 1000

    def test_so_star_includes_cone_and_casimir(self, capsys):
        code, out = run(["check-relations", "--algebra", "so-star", "--n", "1",
                         "--format", "json"], capsys)
        assert code == 0
        ids = {r["check_id"] for r in json.loads(out)["records"]}
        assert any("casimir" in i for i in ids)

    def test_so12_runs_the_casimir_suite(self, capsys):
        code, out = run(["check-relations", "--algebra", "so-star", "--n", "3",
                         "--format", "json"], capsys)
        assert code == 0
        records = {r["check_id"]: r for r in json.loads(out)["records"]}
        assert "so*(12)/casimir/deferred" not in records
        casimir = [r for cid, r in records.items() if cid.startswith("so*(12)/casimir/")]
        # [D, E_i], [D, F_i], [D, H_i] for the six D_6 nodes, plus the scale search
        assert len(casimir) == 19
        assert all(r["passed"] for r in casimir)
        assert (records["so*(12)/casimir/scale-search"]["detail"]
                == "exact equality at lambda = 1")

    def test_casimir_deferred_above_so12(self, capsys):
        code, out = run(["check-relations", "--algebra", "so-star", "--n", "4",
                         "--format", "json"], capsys)
        assert code == 0
        ids = {r["check_id"] for r in json.loads(out)["records"]}
        assert "so*(16)/casimir/deferred" in ids

    def test_desk_scale_guard(self, capsys):
        code, _ = run(["check-relations", "--algebra", "unn", "--n", "9999"], capsys)
        assert code == cli.EXIT_USAGE


class TestBilocalCommand:
    def test_trivial_scalar_case(self, capsys):
        code, out = run(["check-bilocal", "--L", "1", "--trials", "1",
                         "--seed", "0", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_determinism_bytes(self, capsys):
        argv = ["check-bilocal", "--L", "2", "--trials", "3", "--seed", "5",
                "--format", "json", "--stable"]
        _, out1 = run(argv, capsys)
        _, out2 = run(argv, capsys)
        assert out1 == out2

    def test_json_roundtrip_schema(self, capsys):
        _, out = run(["check-bilocal", "--L", "1", "--trials", "1",
                      "--seed", "0", "--format", "json", "--stable"], capsys)
        data = json.loads(out)
        assert set(data) == {"ok", "records", "summary", "title"}
        for rec in data["records"]:
            assert {"check_id", "passed", "negative_control",
                    "detail", "defect"} <= set(rec)

    def test_zero_trials_refused(self, capsys):
        # zero trials would report passing random and Frobenius records that checked nothing
        code, out = run(["check-bilocal", "--trials", "0"], capsys)
        assert code == cli.EXIT_USAGE and out == ""

    def test_l_bound(self, capsys):
        code, _ = run(["check-bilocal", "--L", "9"], capsys)
        assert code == cli.EXIT_USAGE


class TestDecompose:
    def test_level_three(self, capsys):
        code, out = run(["decompose", "--n", "2", "--level", "3",
                         "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert len(data["table"]) == 4

    def test_records_are_charged_with_the_decomposition(self, capsys, monkeypatch):
        # a clock that jumps 1000 ms inside the decomposition must show in
        # the records' wall_ms: the report exists before that work
        slow_down(monkeypatch, fockspace, "joint_weight_decomposition")
        code, out = run(["decompose", "--n", "2", "--level", "2", "--format", "json"], capsys)
        assert code == 0
        assert sum(r["wall_ms"] for r in json.loads(out)["records"]) >= 1000

    def test_state_cap_guard(self, capsys):
        code, _ = run(["decompose", "--n", "2", "--level", "8",
                       "--max-states", "500"], capsys)
        assert code == cli.EXIT_USAGE


class TestOtherCommands:
    def test_harmonics(self, capsys):
        code, out = run(["harmonics", "--nmax", "2", "--format", "json"], capsys)
        assert code == 0 and json.loads(out)["ok"]

    def test_harmonics_records_are_charged_with_the_ladders(self, capsys, monkeypatch):
        # every ladder is built before the first mode's report exists
        calls = slow_down(monkeypatch, harmonics, "harmonic_ladder")
        code, out = run(["harmonics", "--nmax", "2", "--format", "json"], capsys)
        assert code == 0 and len(calls) == 3
        assert sum(r["wall_ms"] for r in json.loads(out)["records"]) >= 3000

    def test_massless(self, capsys):
        code, out = run(["massless", "--format", "json"], capsys)
        assert code == 0 and json.loads(out)["ok"]

    def test_closure(self, capsys):
        code, out = run(["closure", "--family", "so-star", "--k", "1",
                         "--flavors", "2", "--format", "json"], capsys)
        assert code == 0 and json.loads(out)["ok"]

    def test_closure_state_cap_guard(self, capsys):
        # the --level cross-check basis (41 states here) must respect the cap
        code, _ = run(["closure", "--family", "sp-real", "--k", "1", "--level", "40",
                       "--max-states", "10"], capsys)
        assert code == cli.EXIT_USAGE

    def test_dual_pair(self, capsys):
        code, out = run(["check-dual-pair", "--algebra", "su22",
                         "--format", "json"], capsys)
        assert code == 0 and json.loads(out)["ok"]

    @pytest.mark.parametrize("algebra,builder", [("su22", "u22_weight_basis"),
                                                 ("so-star", "so_star_pair_elements")])
    def test_dual_pair_records_are_charged_with_the_pair(self, capsys, monkeypatch,
                                                         algebra, builder):
        # the report exists before the pair's elements are built
        calls = slow_down(monkeypatch, cli.oscrep, builder)
        code, out = run(["check-dual-pair", "--algebra", algebra, "--format", "json"], capsys)
        assert code == 0 and len(calls) == 1
        assert sum(r["wall_ms"] for r in json.loads(out)["records"]) >= 1000


class TestExitCodes:
    def test_failing_check_exits_one(self, capsys, monkeypatch):
        from minrep.reports import Report

        def broken():
            rep = Report("sabotaged")
            rep.add("sabotaged/identity", False, defect="forced failure")
            return rep

        monkeypatch.setattr(cli.oscrep, "theta_grading_check", broken)
        code, out = run(["check-relations", "--algebra", "su22",
                         "--format", "json"], capsys)
        assert code == cli.EXIT_CHECK_FAILED
        assert json.loads(out)["ok"] is False

    @pytest.mark.parametrize("error", [
        bilocal.ReducibleAlgebraError("forced reducible algebra"),
        harmonics.ConformalInfinityError("forced point at conformal infinity"),
        ValueError("bracket leaves the mode span: forced"),
        RuntimeError("a message\nover two lines"),
    ])
    def test_any_exception_in_a_suite_exits_three(self, capsys, monkeypatch, error):
        def exploding(*a, **kw):
            raise error

        monkeypatch.setattr(cli.rootsys, "table1_report", exploding)
        code = cli.main(["table1"])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_INTERNAL
        assert out == "" and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_empty_report_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "COMMANDS", dict(cli.COMMANDS,
                                                  massless=lambda args: Report("empty")))
        code, out = run(["massless", "--format", "json"], capsys)
        assert code == cli.EXIT_CHECK_FAILED
        assert json.loads(out)["ok"] is False

    def test_internal_breach_exits_three(self, capsys, monkeypatch):
        def exploding(*a, **kw):
            raise cli.rootsys.RootSystemError("forced breach")

        monkeypatch.setattr(cli.rootsys, "table1_report", exploding)
        code, _ = run(["table1"], capsys)
        assert code == cli.EXIT_INTERNAL


class TestConfigAndOutput:
    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nmax": 2, "format": "json"}))
        code, out = run(["harmonics", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["title"] == "harmonics/nmax2"

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no-such-key": 1}))
        code, _ = run(["harmonics", "--config", str(cfg)], capsys)
        assert code == cli.EXIT_USAGE

    def test_output_file_and_env_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MINREP_OUT_DIR", str(tmp_path))
        code, _ = run(["massless", "--format", "json", "--stable",
                       "--out", "rep.json"], capsys)
        assert code == 0
        data = json.loads((tmp_path / "rep.json").read_text())
        assert data["ok"] is True
        assert not any("wall_ms" in r for r in data["records"])

    def test_wall_ms_is_measured_per_record(self, capsys, monkeypatch):
        # a clock whose steps keep growing: averaged times would all be equal
        steps = itertools.count()
        now = [0.0]

        def clock():
            now[0] += next(steps) / 1000
            return now[0]

        monkeypatch.setattr(reports, "time", SimpleNamespace(perf_counter=clock))
        code, out = run(["table1", "--ranks-a", "2..4", "--format", "json"], capsys)
        assert code == 0
        times = [r["wall_ms"] for r in json.loads(out)["records"]]
        assert len(times) > 1 and len(set(times)) == len(times)

    @pytest.mark.parametrize("value, code", [("2", cli.EXIT_OK), ("x", cli.EXIT_USAGE)])
    def test_config_values_parsed_like_flags(self, tmp_path, value, code):
        (tmp_path / "cfg.json").write_text(json.dumps({"nmax": value}))
        got, out, err = run_process(["harmonics", "--config", "cfg.json",
                                     "--format", "json"], tmp_path)
        assert got == code and "Traceback" not in err
        if code == cli.EXIT_OK:
            assert json.loads(out)["title"] == "harmonics/nmax2"

    def test_line_flag_wins_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nmax": "3", "format": "csv"}))
        code, out = run(["harmonics", "--config", str(cfg), "--nmax", "1",
                         "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["title"] == "harmonics/nmax1"

    def test_unwritable_out_path_exits_two(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "x.json"
        code, out, err = run_process(["table1", "--out", str(missing)], tmp_path)
        assert code == cli.EXIT_USAGE
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
