import json
from types import SimpleNamespace

import pytest

from minrep import reports
from minrep.poly import Poly
from minrep.reports import Report
from minrep.scalars import QI


def test_ok_requires_every_record_including_controls():
    rep = Report("t")
    rep.add("a", True)
    rep.add("b", True, negative_control=True)
    assert rep.ok
    rep.add("c", False, negative_control=True)  # a control that failed to fire
    assert not rep.ok


def test_empty_report_is_not_ok():
    # a report with no records checked nothing, so it must not pass
    rep = Report("t")
    assert not rep.ok
    assert rep.as_dict(stable=False)["ok"] is False
    rep.add("a", True)
    assert rep.ok


def test_counts_and_failures():
    rep = Report("t")
    rep.add("a", True)
    rep.add("b", False, defect="boom")
    assert rep.counts == {"total": 2, "passed": 1, "failed": 1, "negative_controls": 0}
    assert [r.check_id for r in rep.records if not r.passed] == ["b"]


def test_records_sorted_in_serialization():
    rep = Report("t")
    rep.add("z/last", True)
    rep.add("a/first", True)
    data = rep.as_dict(stable=False)
    assert [r["check_id"] for r in data["records"]] == ["a/first", "z/last"]


def test_stable_mode_strips_wall_times():
    rep = Report("t")
    rep.add("a", True)
    assert "wall_ms" in rep.as_dict(stable=False)["records"][0]
    assert "wall_ms" not in rep.as_dict(stable=True)["records"][0]
    json.loads(json.dumps(rep.as_dict(stable=True)))


def test_extend_merges_records():
    a = Report("a")
    a.add("x", True)
    b = Report("b")
    b.add("y", False)
    a.extend(b)
    assert not a.ok and a.counts["total"] == 2


def test_text_rendering_shows_defects():
    rep = Report("t")
    rep.add("bad", False, defect="(1) a1* a1")
    text = rep.to_text()
    assert "FAIL bad" in text and "(1) a1* a1" in text


def test_identity_passes_on_a_zero_defect_and_bounds_a_nonzero_one():
    rep = Report("t")
    zero = Poly()
    assert rep.identity("zero", zero).passed and rep.records[0].defect == "0"
    big = Poly({(e, 0): QI(e + 1) for e in range(reports.DEFECT_TERMS + 2)})
    rec = rep.identity("big", big)
    assert not rec.passed
    assert rec.defect == "(1) + (2)*x0 + (3)*x0^2 + (4)*x0^3 + ... (6 terms)"
    assert str(big).count(" + ") == 5


def test_each_record_is_timed_from_the_one_before(monkeypatch):
    ticks = iter([0.0, 0.002, 0.010, 0.011, 0.014, 0.040, 0.041])
    monkeypatch.setattr(reports, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    rep = Report("t")            # 0.000
    rep.add("a", True)           # 0.002
    rep.add("b", True)           # 0.010
    sub = Report("sub")          # 0.011: the work before sub goes to "c"
    sub.add("c", True)           # 0.014
    rep.extend(sub)              # 0.040: building sub is not charged to "d"
    rep.add("d", True)           # 0.041
    got = [r.wall_ms for r in rep.records]
    assert got == pytest.approx([2.0, 8.0, 4.0, 1.0])


def test_work_before_a_sub_report_is_charged_once(monkeypatch):
    ticks = iter([0.0, 0.001, 0.005, 0.006, 0.020, 0.030, 0.031])
    monkeypatch.setattr(reports, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    rep = Report("t")            # 0.000
    sub = Report("sub")          # 0.001: made before "a", so it inherits nothing
    rep.add("a", True)           # 0.005
    sub.add("c", True)           # 0.006
    rep.extend(sub)              # 0.020
    empty = Report("empty")      # 0.030: no record to charge
    rep.extend(empty)            # 0.031
    assert [r.wall_ms for r in rep.records] == pytest.approx([5.0, 5.0])
