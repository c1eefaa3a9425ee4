"""Every function in ``src/minrep`` is reached by some command, or is
exempt for a stated reason.

A fresh interpreter traces every Python call from before ``minrep`` is
imported, so calls made at import count, and runs the golden commands
plus the text and csv reports, a failing check and a ``table1`` rank
range.  Each ``def`` under ``src/minrep``, found with ``ast``, must be
among the calls or on ``EXEMPT``.  An exemption that names no unreached
``def`` fails too, so the list cannot go stale.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from test_golden import CASES

SRC = Path(__file__).resolve().parents[1] / "src"

# (exit code, argv) of each traced command
COMMANDS = [(0, argv + ["--stable", "--format", "json"]) for argv in CASES.values()] + [
    (0, ["massless"]),
    (0, ["massless", "--format", "csv"]),
    (0, ["table1"]),
    (0, ["table1", "--format", "csv"]),
    (0, ["table1", "--ranks-a", "2..4", "--ranks-b", "2..3", "--ranks-c", "2..3",
         "--ranks-d", "3..4", "--format", "json"]),
    # so*(8) at level <= 2 compares no column, a documented check failure
    (1, ["closure", "--family", "so-star", "--k", "1", "--level", "2", "--format", "json"]),
    # a value past an option's bound, a usage error
    (2, ["check-bilocal", "--L", "9"]),
]

# Qualified name of a def, or of a class for all its defs -> why no command reaches it.
EXEMPT = {
    "bilocal.wick_product": "perfbench/layertrace.py spans it by name",
    "bilocal.bilocal_field": "perfbench/layerkernels.py builds its Wick inputs with it",
    "linalg.mat_mul": "perfbench/layertrace.py spans it by name, and "
                      "perfbench/layerkernels.py times it",
    "harmonics.build_harmonic": "perfbench/layertrace.py spans it by name",
    "oscrep.so_star_matrix_basis": "perfbench/layerkernels.py builds its mat_mul inputs with it",
    "poly.Poly.diff": "perfbench/layertrace.py spans it by name",
    "scalars.QIS": "perfbench/layertrace.py counts QIS.__mul__ by name",
    "lincomb.LinComb.__setattr__": "the guard that keeps every LinComb immutable",
    "scalars.QI.__setattr__": "the guard that keeps a QI immutable",
    "linalg.ColumnMap.__bool__": "refuses a truth test of a partly formed map",
    "lincomb.LinComb.__bool__": "the truth value of an element, which tests read",
    "lincomb.LinComb.__hash__": "keeps an element hashable next to its __eq__",
    "lincomb.LinComb.__neg__": "the additive inverse, which the addition-law test and "
                               "the generator oracle read",
    "scalars.QI.__rsub__": "the test oracles subtract a QI from an int or Fraction",
    "scalars.QI.__rtruediv__": "the test oracles divide an int or Fraction by a QI",
    "lincomb.LinComb.__str__": "renders a failing identity's defect",
    "lincomb.LinComb._term": "renders a failing identity's defect",
    "bilocal.WickElement._term": "renders a failing bilocal defect",
    "weylalg.WeylMonomial.__str__": "renders a failing Weyl defect",
    "weylalg.mode_str": "renders a failing Weyl defect",
    "scalars.QI.__repr__": "renders a QI in a failing test's message",
}

# Runs in the fresh interpreter: traces, runs the commands read from stdin
# and prints the exit codes and the (file, first line, name) of each call.
_CHILD = """
import contextlib, io, json, sys
calls = set()
sys.settrace(lambda frame, event, arg: calls.add(frame.f_code))
from minrep import cli
codes = []
for _, argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
sys.settrace(None)
print(json.dumps({"codes": codes,
                  "calls": [[c.co_filename, c.co_firstlineno, c.co_name] for c in calls]}))
"""


def _defs(tree: ast.Module, module: str):
    """(qualified name, first line, name) of every def, nested ones too;
    a decorated def's code starts at its first decorator."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                yield f"{prefix}.{child.name}", first, child.name
                yield from walk(child, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}.{child.name}")
            else:
                yield from walk(child, prefix)
    return walk(tree, module)


def _exempt(name: str):
    """The EXEMPT key covering name, or None."""
    parts = name.split(".")
    for i in range(len(parts), 1, -1):
        if ".".join(parts[:i]) in EXEMPT:
            return ".".join(parts[:i])
    return None


def test_every_def_is_reached_or_exempt():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps(COMMANDS),
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["codes"] == [code for code, _ in COMMANDS]
    calls = {(Path(f).resolve(), line, name) for f, line, name in out["calls"]}

    unreached = []
    for path in sorted((SRC / "minrep").glob("*.py")):
        tree = ast.parse(path.read_text())
        unreached += [qual for qual, line, name in _defs(tree, path.stem)
                      if (path.resolve(), line, name) not in calls]
    missing = [q for q in unreached if _exempt(q) is None]
    assert not missing, f"no command reaches {missing}: delete them or exempt them"
    stale = set(EXEMPT) - {_exempt(q) for q in unreached}
    assert not stale, f"these exemptions cover no unreached def: {sorted(stale)}"
