import argparse
import csv
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from minrep import bilocal, cli, fockspace, harmonics, linalg, oscrep, reports, weylalg
from minrep.reports import Report
from minrep.scalars import QI
from test_bilocal import _CLOSED_FORM_TERMS

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


def no_suite(args):
    pytest.fail(f"the {args.command} suite started on a request it must refuse")


def subcommands():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return list(sub.choices)


# the shortest valid line of each subcommand
MINIMAL_ARGV = {
    "table1": ["table1"],
    "check-relations": ["check-relations", "--algebra", "su22"],
    "check-dual-pair": ["check-dual-pair", "--algebra", "su22"],
    "check-bilocal": ["check-bilocal"],
    "decompose": ["decompose"],
    "harmonics": ["harmonics"],
    "massless": ["massless"],
    "closure": ["closure", "--family", "so-star"],
}


def typed_options():
    """(subcommand, flag, config key) for every option that has a type."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(name, action.option_strings[0], action.dest)
            for name, parser in sub.choices.items()
            for action in parser._actions if action.type is not None]


# every typed option refuses these; a huge value is refused too, except where
# it only raises a cap
BAD_VALUES = ["abc", 1.5, "", -1]
HUGE = 10 ** 20
RAISES_A_CAP = {"--max-states", "--pair-limit"}


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
        ("--ranks-a", "2..31"),  # above the top rank 30, for each family
        ("--ranks-b", "31"),
        ("--ranks-c", "20..40"),
        ("--ranks-d", "3..200"),
        ("--ranks-a", "2..1000000000000"),
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
        # the report exists before its generators are built; su(2,2) has
        # rank 2 only
        calls = slow_down(monkeypatch, cli, "_generators")
        rank = "2" if algebra == "su22" else "1"
        code, out = run(["check-relations", "--algebra", algebra, "--n", rank,
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

    def test_so16_runs_the_casimir_suite(self, capsys):
        code, out = run(["check-relations", "--algebra", "so-star", "--n", "4",
                         "--format", "json"], capsys)
        assert code == 0
        records = {r["check_id"]: r for r in json.loads(out)["records"]}
        casimir = [r for cid, r in records.items() if cid.startswith("so*(16)/casimir/")]
        # [D, E_i], [D, F_i], [D, H_i] for the eight D_8 nodes, plus the scale search
        assert len(casimir) == 25
        assert all(r["passed"] for r in casimir)
        assert (records["so*(16)/casimir/scale-search"]["detail"]
                == "exact equality at lambda = 1")

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

    def test_records_that_compared_no_trial_fail(self, capsys):
        # the parser refuses --trials 0; called directly, the suite must not
        # pass the Frobenius record on no trial.  The basis record draws no
        # trial: it compares all L^4 elementary pairs whatever --trials says
        args = cli.build_parser().parse_args(["check-bilocal", "--L", "2"])
        args.trials = 0
        records = {r.check_id: r for r in cli.run_check_bilocal(args).records}
        frobenius = records["bilocal/frobenius/trials0"]
        assert not frobenius.passed and frobenius.detail == "seed 7"
        basis = records["bilocal/basis/L2"]
        assert basis.passed and basis.detail == "16 elementary pairs"
        args.trials = 1
        records = {r.check_id: r for r in cli.run_check_bilocal(args).records}
        assert records["bilocal/frobenius/trials1"].passed

    def test_transposed_rhs_control_fires_at_every_l(self, capsys):
        for size in range(1, 9):
            _, out = run(["check-bilocal", "--L", str(size), "--trials", "1",
                          "--format", "json"], capsys)
            records = {r["check_id"]: r for r in json.loads(out)["records"]}
            assert records["bilocal/negative-control/transposed-rhs"]["passed"] is True

    def test_t_algebra_record_fails_on_a_span_open_under_transpose(self, capsys, monkeypatch):
        original = bilocal.canonical_m_span

        def span(kind, n):
            if kind == "R":
                return [{(i, i): QI(1) for i in range(n)}, {(0, 1): QI(1)}]
            return original(kind, n)

        monkeypatch.setattr(bilocal, "canonical_m_span", span)
        code, out = run(["check-bilocal", "--L", "1", "--trials", "1",
                         "--format", "json"], capsys)
        assert code == cli.EXIT_CHECK_FAILED
        records = {r["check_id"]: r for r in json.loads(out)["records"]}
        rec = records["canonical/R/N2/t-algebra"]
        assert rec["passed"] is False
        assert rec["defect"] == "basis element 1 transposes out of the span"


def _rational_label(rng, size):
    """The label check-bilocal once drew: entry k/r from the same randint
    pair per entry, in the same order, read off a table of QI values."""
    table = {(k, r): QI(k) / r for k in range(-9, 10) for r in range(1, 5)}
    return {(i, j): x for i in range(size) for j in range(size)
            if (x := table[rng.randint(-9, 9), rng.randint(1, 4)])}


def _label_pairs(seed, size, count):
    """count labels drawn by cli._random_label and by the rational oracle,
    each from its own Random(seed)."""
    ints, rats = random.Random(seed), random.Random(seed)
    return [(cli._random_label(ints, size), _rational_label(rats, size))
            for _ in range(count)]


def _basis_record(size):
    """check-bilocal's bilocal/basis/L{size} record, from run_check_bilocal."""
    args = cli.build_parser().parse_args(["check-bilocal", "--L", str(size), "--trials", "1"])
    rec, = (r for r in cli.run_check_bilocal(args).records
            if r.check_id == f"bilocal/basis/L{size}")
    assert rec.detail == f"{size ** 4} elementary pairs"
    return rec


def _first_failure(size):
    """The first elementary pair E_ab, E_cd, in the record's order, whose
    formula check fails, named as (a, b, c, d) in front of its defect."""
    return next(f"(a, b, c, d) = {abcd}: {r.records[0].defect}"
                for abcd in itertools.product(range(size), repeat=4)
                if not (r := bilocal.verify_commutator_formula(
                    {abcd[:2]: 1}, {abcd[2:]: 1}, size)).ok)


class TestBasisRecord:
    @pytest.mark.parametrize("size", range(1, 9))
    def test_every_elementary_pair_passes(self, monkeypatch, size):
        # every label pair reaches a sum through its closed form, noted as
        # the sum reads it; each sum_products call of bilocal notes how many
        # pairs it read
        pairs, items = [], bilocal._closed_form_items

        def noting(m, mp, n, w):
            pairs.append((m, mp))
            yield from items(m, mp, n, w)

        monkeypatch.setattr(bilocal, "_closed_form_items", noting)
        consumed, kernel = [], bilocal.sum_products

        def counting(it):
            before = len(pairs)
            out = kernel(it)
            consumed.append(len(pairs) - before)
            return out

        monkeypatch.setattr(bilocal, "sum_products", counting)
        rec = _basis_record(size)
        assert rec.passed and rec.defect == ""
        # the identity label at each size up to L, one sum each, then every
        # E_ab x E_cd exactly once, all in one sum, then the transposed-rhs
        # control's closed form
        basis = [{(a, b): 1} for a in range(size) for b in range(size)]
        assert pairs[size:-1] == [(e, f) for e in basis for f in basis]
        assert [n for n in consumed if n] == [1] * size + [size ** 4, 1]

    def test_the_closed_form_at_the_transposed_label_fails(self, monkeypatch):
        # the closed form taken at tM' in place of M' misses the Wick
        # commutator on some elementary pair at every L > 1; at L = 1, tM' = M'
        items = bilocal._closed_form_items
        monkeypatch.setattr(bilocal, "_closed_form_items", lambda a, b, size, w: items(
            a, linalg.dict_transpose(b), size, w))
        assert _basis_record(1).passed
        for size in range(2, 9):
            rec = _basis_record(size)
            assert not rec.passed and rec.defect == _first_failure(size), size
        # E_00 and E_01 are the first pair whose second label is not symmetric
        assert _basis_record(2).defect.startswith("(a, b, c, d) = (0, 0, 0, 1): ")

    @pytest.mark.parametrize("dropped", sorted(_CLOSED_FORM_TERMS))
    def test_dropping_any_closed_form_term_fails(self, monkeypatch, dropped):
        items, monos = bilocal._closed_form_items, _CLOSED_FORM_TERMS[dropped]
        monkeypatch.setattr(bilocal, "_closed_form_items", lambda a, b, size, w: (
            item for item in items(a, b, size, w) if item[0][2] not in monos))
        for size in range(1, 5):
            rec = _basis_record(size)
            assert not rec.passed and rec.defect, size
            assert rec.defect == _first_failure(size), size


class TestIntegerTrialLabels:
    @pytest.mark.parametrize("seed", [1, 7, 41, 101])
    @pytest.mark.parametrize("size", [1, 4, 8])
    def test_each_label_is_twelve_times_the_rational_draw(self, seed, size):
        for got, want in _label_pairs(seed, size, 3):
            assert got.keys() == want.keys()
            assert all(type(x) is int and x == 12 * want[ij] for ij, x in got.items())

    @pytest.mark.parametrize("dropped", ["D13", "D14", "D23", "D24"])
    def test_a_dropped_single_term_fails_with_144_times_the_defect(self, monkeypatch, dropped):
        items, monos = bilocal._closed_form_items, _CLOSED_FORM_TERMS[dropped]
        monkeypatch.setattr(bilocal, "_closed_form_items", lambda a, b, size, w: (
            item for item in items(a, b, size, w) if item[0][2] not in monos))
        totals, grouped = [], bilocal._grouped
        monkeypatch.setattr(bilocal, "_grouped",
                            lambda t, c: totals.append(t) or grouped(t, c))
        (m, rm), (mp, rmp) = _label_pairs(41, 4, 2)
        assert not bilocal.verify_commutator_formula(m, mp, 4).ok
        assert not bilocal.verify_commutator_formula(rm, rmp, 4).ok
        on_ints, on_rationals = totals
        assert on_rationals and on_ints == {k: 144 * x for k, x in on_rationals.items()}
        rec = _basis_record(4)
        assert not rec.passed and rec.defect

    @pytest.mark.parametrize("broken", [False, True])
    @pytest.mark.parametrize("seed", [1, 7, 41, 101])
    def test_the_frobenius_records_keep_their_verdicts(self, monkeypatch, seed, broken):
        if broken:
            # without the transpose, product-compatibility fails on most triples
            monkeypatch.setattr(bilocal.linalg, "dict_transpose", lambda m: m)
        labels = _label_pairs(seed, 3, 30)
        verdicts = []
        for side in (0, 1):
            for trial in range(10):
                rep = bilocal.frobenius_property_check(
                    *(pair[side] for pair in labels[3 * trial:3 * trial + 3]))
                verdicts.append([(r.check_id, r.passed) for r in rep.records])
        assert verdicts[:10] == verdicts[10:]
        assert any(not ok for trial in verdicts for _, ok in trial) == broken
        (m1, r1), (m2, r2), (m3, r3) = labels[:3]
        assert bilocal.frobenius(linalg.product(m1, m2), m3) == \
            1728 * bilocal.frobenius(linalg.product(r1, r2), r3)


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

    def test_bookkeeping_fails_when_b_raises_nothing(self, capsys, monkeypatch):
        # with B's raising operator zero every lowest-weight vector is an sl2
        # highest-weight vector, so the irrep content no longer adds up
        gauge = fockspace.DualPair.gauge.func
        monkeypatch.setattr(fockspace.DualPair, "gauge", property(
            lambda self: gauge(self)._replace(raising=(weylalg.WeylElement.zero(),))))
        code, out = run(["decompose", "--n", "2", "--level", "4", "--format", "json"], capsys)
        assert code == cli.EXIT_CHECK_FAILED
        failed = {r["check_id"] for r in json.loads(out)["records"] if not r["passed"]}
        assert failed == {f"decompose/level{level}/bookkeeping" for level in (2, 3, 4)}

    def test_multiplicity_one_fails_on_a_level_with_no_rows(self, capsys, monkeypatch):
        # an empty row list compares no multiplicity, so it must not pass
        monkeypatch.setattr(fockspace.MultiplicityTable, "rows_at", lambda self, level: [])
        code, out = run(["decompose", "--n", "2", "--level", "2", "--format", "json"], capsys)
        assert code == cli.EXIT_CHECK_FAILED
        records = json.loads(out)["records"]
        failed = {r["check_id"] for r in records if not r["passed"]}
        assert failed == {f"decompose/level{level}/multiplicity-one" for level in range(3)}
        assert all(r["detail"] == "multiplicities []" for r in records
                   if r["check_id"] in failed)


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

    def test_compactification_fails_on_a_corrupted_map(self, capsys, monkeypatch):
        # N1 = x1 in place of 2 x1 leaves the defect -3 x1^2, so the identity
        # record fails with its defect, while the z4 control still fires
        original = harmonics.compactification

        def corrupted():
            num, den = original()
            return [num[0].scale(QI(1) / 2)] + num[1:], den

        monkeypatch.setattr(harmonics, "compactification", corrupted)
        code, out = run(["harmonics", "--nmax", "2", "--format", "json"], capsys)
        assert code == cli.EXIT_CHECK_FAILED
        failed = [r for r in json.loads(out)["records"] if not r["passed"]]
        assert [r["check_id"] for r in failed] == ["harmonics/compactification/polynomial-identity"]
        assert failed[0]["defect"] == "(-3)*x1^2"

    def test_massless(self, capsys):
        code, out = run(["massless", "--format", "json"], capsys)
        assert code == 0 and json.loads(out)["ok"]

    def test_closure(self, capsys):
        code, out = run(["closure", "--family", "so-star", "--k", "1",
                         "--flavors", "2", "--format", "json"], capsys)
        assert code == 0 and json.loads(out)["ok"]

    def test_closure_matrix_record_that_compares_no_column_fails(self, capsys):
        # two quadratics that each raise the level by 2 leave no column at
        # level 1, so such a pair compares nothing and must fail
        span = fockspace.dual_pair("so_star", 1).a_span
        raise_of = [max(0, fockspace.flavor_sum(e, 1).max_level_raise()) for e in span]
        argv = ["closure", "--family", "so-star", "--k", "1", "--format", "json"]
        code, out = run(argv + ["--level", "1"], capsys)
        assert code == cli.EXIT_CHECK_FAILED
        failed, empty = set(), set()
        for rec in json.loads(out)["records"]:
            if not rec["passed"]:
                failed.add(rec["check_id"])
            if "/matrix/pair" in rec["check_id"]:
                s, t = map(int, rec["check_id"].rsplit("pair", 1)[1].split(","))
                raises = raise_of[s] + raise_of[t]
                if 1 - raises < 0:
                    empty.add(rec["check_id"])
                    # the detail says why, and names the --level that compares the pair
                    assert rec["detail"] == (
                        f"Fock cross-check at level 1 compared no column: the two "
                        f"operators raise the level by {raises}, so --level {raises} "
                        f"compares the pair")
                    assert rec["defect"] == ""
                else:
                    assert rec["detail"] == "Fock cross-check at level 1"
        assert len(empty) == 5 and failed == empty
        code, out = run(argv + ["--level", "4"], capsys)
        assert code == cli.EXIT_OK and json.loads(out)["ok"]

    @pytest.mark.parametrize("argv", [
        ["closure", "--family", "u-pq", "--k", "3", "--flavors", "1", "--level", "3"],
        ["closure", "--family", "sp-real", "--k", "1", "--level", "1"],
    ])
    def test_the_level_a_failing_cross_check_names_compares_its_pair(self, capsys, argv):
        code, out = run(argv + ["--format", "json"], capsys)
        assert code == cli.EXIT_CHECK_FAILED
        failed = [r for r in json.loads(out)["records"] if not r["passed"]]
        assert failed and all("/matrix/pair" in r["check_id"] for r in failed)
        for rec in failed:
            level = rec["detail"].rsplit("--level ", 1)[1].split()[0]
            code, out = run(argv[:-1] + [level, "--format", "json"], capsys)
            again = {r["check_id"]: r for r in json.loads(out)["records"]}[rec["check_id"]]
            assert again["passed"] and again["detail"] == f"Fock cross-check at level {level}"

    def test_closure_state_cap_guard(self, capsys):
        # the --level cross-check basis (41 states here) must respect the cap
        code, _ = run(["closure", "--family", "sp-real", "--k", "1", "--level", "40",
                       "--max-states", "10"], capsys)
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("cap", [14, 15])
    def test_massless_state_cap_guard(self, capsys, cap):
        # the helicity basis holds the 15 states of level <= 2 on four modes
        code, out = run(["massless", "--max-states", str(cap), "--format", "json"], capsys)
        if cap < 15:
            assert code == cli.EXIT_USAGE and out == ""
        else:
            assert code == cli.EXIT_OK and json.loads(out)["ok"]

    @pytest.mark.parametrize("value", [0, -3])
    def test_pair_limit_below_one_exits_two(self, tmp_path, capsys, value):
        # 0 divided by zero; -3 kept only the pairs with a nonzero pairing
        argv = ["closure", "--family", "so-star", "--k", "1", "--format", "json"]
        code, out = run(argv + ["--pair-limit", str(value)], capsys)
        assert code == cli.EXIT_USAGE and out == ""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pair_limit": value}))
        code, out = run(argv + ["--config", str(cfg)], capsys)
        assert code == cli.EXIT_USAGE and out == ""

    @pytest.mark.parametrize("command", ["check-relations", "check-dual-pair"])
    @pytest.mark.parametrize("value", [1, 5])
    def test_su22_refuses_another_rank(self, tmp_path, capsys, command, value):
        # su(2,2) has rank 2 only: another --n is refused, not ignored
        argv = [command, "--algebra", "su22", "--format", "json"]
        code, out = run(argv + ["--n", str(value)], capsys)
        assert code == cli.EXIT_USAGE and out == ""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": value}))
        code, out = run(argv + ["--config", str(cfg)], capsys)
        assert code == cli.EXIT_USAGE and out == ""
        code, out = run(argv + ["--n", "2"], capsys)
        assert code == cli.EXIT_OK and json.loads(out)["ok"]

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


def count_builds(monkeypatch) -> dict:
    """Count polarizations, Chevalley sets and so*(4n) matrix bases built,
    by wrapping Polarization.__post_init__ and the builders on their module."""
    counts = {"polarizations": 0, "sets": 0, "matrix bases": 0}

    def counted(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args):
            counts[key] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(weylalg.Polarization, "__post_init__", "polarizations")
    counted(oscrep, "unn_generators", "sets")
    counted(oscrep, "so_star_generators", "sets")
    counted(oscrep, "so_star_basis", "matrix bases")
    return counts


class TestBuildCounts:
    # Each command builds its dual pair once and only the parts it reads.
    # Before the pair, check-relations su22 built 9 polarizations and 6
    # u(2,2) sets.  Every Chevalley set is read through the standard
    # polarization of its modes, which the pair shares, so a command that
    # builds a set builds that one polarization.
    # (polarizations, Chevalley sets, so*(4n) matrix bases) per command
    BUILDS = [
        (["check-relations", "--algebra", "su22"], (1, 1, 0)),
        (["check-relations", "--algebra", "unn"], (1, 1, 0)),
        (["check-relations", "--algebra", "so-star", "--n", "2"], (1, 1, 1)),
        (["check-dual-pair", "--algebra", "su22"], (1, 1, 0)),
        (["check-dual-pair", "--algebra", "so-star"], (1, 1, 0)),
        (["decompose"], (1, 1, 0)),
        (["closure", "--family", "so-star", "--k", "2", "--pair-limit", "20"], (1, 0, 1)),
        (["closure", "--family", "sp-real", "--flavors", "2"], (0, 0, 0)),
    ]

    @pytest.mark.parametrize("argv,want", [pytest.param(a, w, id=" ".join(a)) for a, w in BUILDS])
    def test_each_part_is_built_once_and_only_when_read(self, capsys, monkeypatch,
                                                        argv, want):
        counts = count_builds(monkeypatch)
        code, _ = run(argv + ["--format", "json"], capsys)
        assert code == 0
        assert (counts["polarizations"], counts["sets"], counts["matrix bases"]) == want

    def test_massless_builds_one_polarization(self, capsys, monkeypatch):
        # the su(2,2) set it reads twice is built over one u(2,2) polarization
        counts = count_builds(monkeypatch)
        code, _ = run(["massless", "--format", "json"], capsys)
        assert code == 0 and counts["polarizations"] == 1

    def test_each_call_builds_its_own_polarization(self, capsys, monkeypatch):
        # a polarization cached before the call is not read by it, so a
        # command repeats the same work in a process that ran others
        weylalg.standard_polarization(2)
        counts = count_builds(monkeypatch)
        for _ in range(2):
            code, _ = run(["check-relations", "--algebra", "su22", "--format", "json"], capsys)
            assert code == 0
        assert counts["polarizations"] == 2


class TestExitCodes:
    def test_failing_check_exits_one(self, capsys, monkeypatch):
        from minrep.reports import Report

        def broken(*args):
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
        harmonics.HarmonicError("forced harmonic seed that is not unique"),
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

    @pytest.mark.parametrize("command,flag,key", typed_options())
    def test_every_typed_option_refuses_bad_values(self, tmp_path, capsys, monkeypatch,
                                                   command, flag, key):
        # on the line and through --config alike, before any suite starts
        monkeypatch.setattr(cli, "COMMANDS", {name: no_suite for name in cli.COMMANDS})
        cfg = tmp_path / "cfg.json"
        for value in BAD_VALUES + ([] if flag in RAISES_A_CAP else [HUGE]):
            code, out = run(MINIMAL_ARGV[command] + [flag, str(value)], capsys)
            assert (code, out) == (cli.EXIT_USAGE, ""), value
            cfg.write_text(json.dumps({key: value}))
            code, out = run(MINIMAL_ARGV[command] + ["--config", str(cfg)], capsys)
            assert (code, out) == (cli.EXIT_USAGE, ""), value

    def test_a_bad_value_returns_two_and_help_exits_zero(self, capsys):
        # a parse error returns the usage code from main, as a bad config
        # does, rather than leaving argparse to exit the process
        for argv in (["check-bilocal", "--L", "abc"], ["check-bilocal", "--L", "9"],
                     ["no-such-command"], ["closure"], ["harmonics", "--nmax", "2", "x"]):
            code = cli.main(argv)
            out, err = capsys.readouterr()
            assert (code, out) == (cli.EXIT_USAGE, ""), argv
            assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        for argv in (["--help"], ["check-bilocal", "--help"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 0
            assert "usage: minrep" in capsys.readouterr().out

    def test_the_walk_reaches_every_subcommand_and_the_trials_cap(self):
        walked = typed_options()
        assert {name for name, _, _ in walked} == set(subcommands()) == set(MINIMAL_ARGV)
        assert ("check-bilocal", "--trials", "trials") in walked

    @pytest.mark.parametrize("argv", [
        ["decompose", "--algebra", "so-star", "--n", "2",
         "--level", "99999999999999999999"],
        ["closure", "--family", "so-star", "--level", "99999999999999999999"],
    ])
    def test_huge_level_is_refused_before_any_suite_starts(self, capsys, monkeypatch,
                                                           argv):
        # the basis is sized in closed form, so the --max-states cap refuses
        # it at once; a suite that starts fails the test
        monkeypatch.setattr(cli, "COMMANDS", {name: no_suite for name in cli.COMMANDS})
        code, out = run(argv, capsys)
        assert code == cli.EXIT_USAGE and out == ""

    @pytest.mark.parametrize("value", [0, -1])
    def test_max_states_below_one_exits_two_for_every_subcommand(self, tmp_path, capsys,
                                                                 monkeypatch, value):
        started = []

        def suite(args):
            started.append(args.command)
            rep = Report(args.command)
            rep.add(f"{args.command}/started", True)
            return rep

        monkeypatch.setattr(cli, "COMMANDS", {name: suite for name in cli.COMMANDS})
        assert set(MINIMAL_ARGV) == set(subcommands())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_states": value}))
        for name, argv in MINIMAL_ARGV.items():
            code, out = run(argv + ["--max-states", str(value)], capsys)
            assert code == cli.EXIT_USAGE and out == "", argv
            code, out = run(argv + ["--config", str(cfg)], capsys)
            assert code == cli.EXIT_USAGE and out == "", argv
            assert not started
            # the same line under the default cap starts its suite
            code, _ = run(argv, capsys)
            assert code == cli.EXIT_OK and started == [name]
            started.clear()

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

    def test_config_key_config_is_refused(self, tmp_path, capsys):
        # it would become --config PATH, which is parsed and never read
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"config": "/nonexistent/x.json"}))
        code, out = run(["harmonics", "--config", str(cfg)], capsys)
        assert code == cli.EXIT_USAGE and out == ""

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


def payload_of(argv, stable):
    """The payload that ``emit`` encodes for the line argv."""
    args = cli.build_parser().parse_args(argv)
    result = cli.COMMANDS[args.command](args)
    report, table = result if isinstance(result, tuple) else (result, None)
    payload = report.as_dict(stable)
    if table is not None:
        payload["table"] = table
    return payload


def awkward_report():
    """A report whose strings hold quotes, newlines, non-ASCII characters and
    the text of a record boundary, in passing and failing records."""
    rep = Report('quo"te\nnew line')
    for text in ('a "quoted" id', "two\nlines", "non-ASCII: so*(8) ⊂ u(4,4), é",
                 "},\n      {", "},\\n      {", "}, {", ""):
        rep.add(text, True, detail=text, defect=text)
        rep.add(f"{text}/fails", False, negative_control=True, detail=text)
    return rep


class TestJsonText:
    """``_json_text`` against its oracle, the stdlib's indented encoding."""

    @pytest.mark.parametrize("stable", [True, False])
    @pytest.mark.parametrize("argv", [
        ["harmonics", "--nmax", "2"],
        ["table1", "--ranks-a", "2..3"],
        ["decompose", "--level", "2"],
        ["closure", "--family", "so-star", "--k", "1", "--level", "1"],
    ])
    def test_reports_and_tables(self, argv, stable):
        payload = payload_of(argv, stable)
        assert "wall_ms" in payload["records"][0] or stable
        assert cli._json_text(payload) == json.dumps(payload, sort_keys=True, indent=2)

    @pytest.mark.parametrize("stable", [True, False])
    def test_empty_report(self, stable):
        payload = Report("empty").as_dict(stable)
        assert payload["records"] == []
        assert cli._json_text(payload) == json.dumps(payload, sort_keys=True, indent=2)

    @pytest.mark.parametrize("stable", [True, False])
    def test_strings_that_look_like_separators(self, stable):
        payload = awkward_report().as_dict(stable)
        payload["table"] = [{"label": "},\n      {", "n": 1}, {"label": "é\"", "n": [1, 2]}]
        assert cli._json_text(payload) == json.dumps(payload, sort_keys=True, indent=2)


class TestSharedParser:
    def test_the_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_a_call_keeps_no_state_for_the_next(self, tmp_path, capsys):
        # a config line, then a usage error, then a plain line: the plain
        # line reads the defaults a fresh interpreter reads
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nmax": 2, "format": "json"}))
        code, out = run(["harmonics", "--config", str(cfg)], capsys)
        assert code == cli.EXIT_OK and json.loads(out)["title"] == "harmonics/nmax2"
        code, out = run(["harmonics", "--nmax", "99", "--format", "csv"], capsys)
        assert (code, out) == (cli.EXIT_USAGE, "")
        plain = ["harmonics", "--stable"]
        code, out = run(plain, capsys)
        assert (code, out) == run_process(plain, tmp_path)[:2]
        assert out.startswith("== harmonics/nmax6 ==")
