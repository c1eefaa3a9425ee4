"""Byte-identity of each subcommand's ``--stable --format json`` report.

The goldens under tests/golden/ are the behaviour contract for refactors:
a change that alters one must say which record changed and why.  Rewrite
them deliberately with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from minrep import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "table1": ["table1"],
    "check-relations-su22": ["check-relations", "--algebra", "su22"],
    "check-relations-unn": ["check-relations", "--algebra", "unn"],
    "check-dual-pair-su22": ["check-dual-pair", "--algebra", "su22"],
    "check-dual-pair-so-star": ["check-dual-pair", "--algebra", "so-star"],
    "check-bilocal": ["check-bilocal"],
    "decompose": ["decompose"],
    "harmonics": ["harmonics"],
    "harmonics-nmax7": ["harmonics", "--nmax", "7"],
    "closure-sp-real": ["closure", "--family", "sp-real"],
    "closure-u-pq-flavors2": ["closure", "--family", "u-pq", "--flavors", "2"],
    "check-relations-so-star-n2": ["check-relations", "--algebra", "so-star", "--n", "2"],
    "closure-so-star-k2-pairs100": ["closure", "--family", "so-star", "--k", "2",
                                    "--flavors", "1", "--pair-limit", "100"],
    "massless": ["massless"],
    "closure-u-pq-k2-flavors2-level2": ["closure", "--family", "u-pq", "--k", "2",
                                        "--flavors", "2", "--level", "2"],
    "check-relations-so-star-n3": ["check-relations", "--algebra", "so-star", "--n", "3"],
    "check-relations-so-star-n4": ["check-relations", "--algebra", "so-star", "--n", "4"],
    "check-bilocal-L4-trials50-seed101": ["check-bilocal", "--L", "4", "--trials", "50",
                                          "--seed", "101"],
    "check-bilocal-L8-trials3-seed101": ["check-bilocal", "--L", "8", "--trials", "3",
                                         "--seed", "101"],
    "decompose-so-star-n2-level5": ["decompose", "--algebra", "so-star", "--n", "2",
                                    "--level", "5"],
    "closure-sp-real-k2-flavors2-level4": ["closure", "--family", "sp-real", "--k", "2",
                                           "--flavors", "2", "--level", "4"],
    "check-dual-pair-so-star-n3": ["check-dual-pair", "--algebra", "so-star", "--n", "3"],
    "closure-so-star-k1-flavors3": ["closure", "--family", "so-star", "--k", "1",
                                    "--flavors", "3"],
    "decompose-so-star-n3-level4": ["decompose", "--algebra", "so-star", "--n", "3",
                                    "--level", "4"],
}


def _stable_json(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv + ["--stable", "--format", "json"])
    return rc, buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stable_json_matches_golden(name):
    rc, text = _stable_json(CASES[name])
    assert rc == cli.EXIT_OK
    assert text == (GOLDEN / f"{name}.json").read_text()


if __name__ == "__main__":
    for name, argv in CASES.items():
        rc, text = _stable_json(argv)
        if rc != cli.EXIT_OK:
            sys.exit(f"{name}: exit {rc}")
        (GOLDEN / f"{name}.json").write_text(text)
