"""Structured pass/fail reports shared by all verification suites."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .lincomb import LinComb

# A failing identity record renders this many terms of its defect, then the count.
DEFECT_TERMS = 4


def render_defect(defect: LinComb) -> str:
    """A defect element as a record's defect: its first DEFECT_TERMS terms,
    each rendered by the element's own ``_term``, and the count, or "" when
    it is zero, so that a passing record keeps an empty defect."""
    return defect.render(DEFECT_TERMS) if defect.terms else ""


@dataclass
class CheckRecord:
    """One verified identity.

    For a negative control, ``passed`` means the deliberately corrupted
    input was correctly detected as defective.
    """

    check_id: str
    passed: bool
    negative_control: bool
    detail: str
    defect: str
    wall_ms: float

    def as_dict(self, stable: bool) -> dict:
        d = {
            "check_id": self.check_id,
            "passed": self.passed,
            "negative_control": self.negative_control,
            "detail": self.detail,
            "defect": self.defect,
        }
        if not stable:
            d["wall_ms"] = round(self.wall_ms, 3)
        return d


@dataclass
class Report:
    """Check records in the order they were made.

    Each added record is timed from the previous record, or from the
    report's creation: the work a check does runs just before its ``add``.
    """

    title: str
    records: list[CheckRecord] = field(default_factory=list)
    _stamp: float = field(init=False, repr=False, compare=False)
    _created: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._stamp = self._created = time.perf_counter()

    def _lap(self) -> float:
        """Milliseconds since the last stamp; the stamp moves to now."""
        now = time.perf_counter()
        ms, self._stamp = (now - self._stamp) * 1000, now
        return ms

    def add(self, check_id: str, passed: bool, *, negative_control: bool = False,
            detail: str = "", defect: str = "") -> CheckRecord:
        rec = CheckRecord(check_id, bool(passed), negative_control, detail, defect, self._lap())
        self.records.append(rec)
        return rec

    def identity(self, check_id: str, defect) -> CheckRecord:
        """Record the identity whose defect, an exact element, must be zero."""
        return self.add(check_id, defect.is_zero(), defect=defect.render(DEFECT_TERMS))

    def extend(self, other: "Report") -> None:
        """Merge `other`'s records, which carry their own times.

        The work done between this report's last stamp and the creation of
        `other`, such as building what `other` checks, is charged to
        `other`'s first record; the work that built `other`'s records is
        not charged to this report's next record.
        """
        if other.records:
            other.records[0].wall_ms += max(0.0, (other._created - self._stamp) * 1000)
        self.records.extend(other.records)
        self._lap()

    @property
    def ok(self) -> bool:
        """Every record passed, and there is at least one: an empty report checked nothing."""
        return bool(self.records) and all(r.passed for r in self.records)

    @property
    def counts(self) -> dict:
        return {
            "total": len(self.records),
            "passed": sum(r.passed for r in self.records),
            "failed": sum(not r.passed for r in self.records),
            "negative_controls": sum(r.negative_control for r in self.records),
        }

    def as_dict(self, stable: bool) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "summary": self.counts,
            "records": [r.as_dict(stable) for r in sorted(self.records, key=lambda r: r.check_id)],
        }

    def to_text(self) -> str:
        lines = [f"== {self.title} =="]
        for r in sorted(self.records, key=lambda r: r.check_id):
            tag = "PASS" if r.passed else "FAIL"
            nc = " [negative-control]" if r.negative_control else ""
            extra = f"  ({r.detail})" if r.detail else ""
            lines.append(f"{tag}{nc} {r.check_id}{extra}")
            if not r.passed and r.defect:
                lines.append(f"      defect: {r.defect}")
        c = self.counts
        lines.append(f"-- {c['passed']}/{c['total']} passed --")
        return "\n".join(lines)
