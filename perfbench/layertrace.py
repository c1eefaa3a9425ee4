"""Span tracer for minrep's layers, applied from outside the package.

The tracer replaces each traced function with a wrapper wherever minrep
binds it: in the defining module, in every module that imported it by
name (``from .weylalg import normal_product``) and in class namespaces
(``__rmul__ = __mul__``).  Span functions record one span per call:
name, start, end, parent span and run id.  Scalar operations are only
counted, so each caller's self time includes its scalar arithmetic.
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import json
import pstats
import sys
import time
from collections import Counter, defaultdict

from minrep import cli

# (span name, module, attribute path).  The span name is the metric prefix.
SPANNED = [
    ("linalg.mat_mul", "linalg", "mat_mul"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.inverse", "linalg", "inverse"),
    ("weylalg.normal_product", "weylalg", "normal_product"),
    ("weylalg.commutator", "weylalg", "commutator"),
    ("weylalg.quadratic_blocks", "weylalg", "quadratic_blocks"),
    ("fockspace.central_pairing", "fockspace", "central_pairing"),
    ("fockspace.enumerate_basis", "fockspace", "enumerate_basis"),
    ("fockspace.operator_matrix", "fockspace", "operator_matrix"),
    ("oscrep.casimir_elements", "oscrep", "casimir_elements"),
    ("oscrep.matrix_membership", "oscrep", "matrix_membership"),
    ("oscrep.so_star_generators", "oscrep", "so_star_generators"),
    ("bilocal.wick_product", "bilocal", "wick_product"),
    ("bilocal.commutant_type", "bilocal", "commutant_type"),
    ("poly.Poly.mul", "poly", "Poly.__mul__"),
    ("poly.Poly.diff", "poly", "Poly.diff"),
    ("poly.Poly.scale", "poly", "Poly.scale"),
    ("harmonics.build_harmonic", "harmonics", "build_harmonic"),
    ("harmonics.verify_mode", "harmonics", "verify_mode"),
    ("massless.ccr_check", "massless", "ccr_check"),
    ("massless.realization_functoriality_check", "massless",
     "realization_functoriality_check"),
    ("rootsys.table1_report", "rootsys", "table1_report"),
]

COUNTED = [
    ("scalars.qi_mul", "scalars", "QI.__mul__"),
    ("scalars.qi_add", "scalars", "QI.__add__"),
    ("scalars.qis_mul", "scalars", "QIS.__mul__"),
]


def _useful_products(args, out):
    """(scalar products with two nonzero factors, all scalar products)."""
    a, b = args
    cols = len(b[0]) if b else 0
    useful = sum(sum(1 for row in a if row[j]) * sum(1 for x in brow if x)
                 for j, brow in enumerate(b))
    return useful, len(a) * len(b) * cols


# Waste and size statistics, computed from operands and results after the
# span closes.  Each returns a tuple of increments to the span's sums.
STATS = {
    "linalg.mat_mul": _useful_products,
    "fockspace.central_pairing": lambda args, out: (int(bool(out)),),
    "fockspace.enumerate_basis": lambda args, out: (out.dim,),
    "fockspace.operator_matrix": lambda args, out: (len(out.entries),),
    "bilocal.wick_product": lambda args, out: (len(out.terms),),
}


def _resolve(module: str, path: str):
    owner = sys.modules[f"minrep.{module}"]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return vars(owner)[attr]


def _binding_sites(original):
    """Every (namespace owner, key) in minrep that holds `original`."""
    sites = []
    for name, mod in list(sys.modules.items()):
        if name != "minrep" and not name.startswith("minrep."):
            continue
        for key, val in vars(mod).items():
            if val is original:
                sites.append((mod, key))
            elif isinstance(val, type) and val.__module__ == name:
                sites.extend((val, k) for k, v in vars(val).items() if v is original)
    return sites


class Tracer:
    """Spans and counters for one traced stretch of work."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, run id]
        self.stack: list[int] = []
        self.run_id = ""
        self._stat_sums: dict[tuple, list] = defaultdict(lambda: [0, 0])
        self._scalar_calls = {name: [0] for name, _, _ in COUNTED}

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.run_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _spanned(self, name, fn):
        stat = STATS.get(name)
        stat_sums = self._stat_sums

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if stat is not None:
                sums = stat_sums[name, rec[4]]
                for i, v in enumerate(stat(args, out)):
                    sums[i] += v
            return out

        return traced

    def _counted(self, name, fn):
        cell = self._scalar_calls[name]

        def counted(self_, other):
            cell[0] += 1
            return fn(self_, other)

        return counted

    @contextlib.contextmanager
    def active(self):
        """Wrap the traced functions wherever minrep binds them; restore on exit."""
        restore = []
        try:
            for kind, table in ((self._spanned, SPANNED), (self._counted, COUNTED)):
                for name, module, path in table:
                    original = _resolve(module, path)
                    wrapper = kind(name, original)
                    for owner, key in _binding_sites(original):
                        setattr(owner, key, wrapper)
                        restore.append((owner, key, original))
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)

    # -- results ----------------------------------------------------------

    def call_counts(self) -> dict:
        counts = Counter({name: 0 for name, _, _ in SPANNED})
        counts.update(rec[0] for rec in self.spans if rec[0] in counts)
        counts.update({name: cell[0] for name, cell in self._scalar_calls.items()})
        return dict(counts)

    def self_times(self) -> dict:
        """Per span name: total duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out

    def stat_sums(self, name: str, run_id: str | None = None) -> list:
        total = [0, 0]
        for (n, rid), sums in self._stat_sums.items():
            if n == name and run_id in (None, rid):
                total = [t + s for t, s in zip(total, sums)]
        return total

    def waste(self, run_id: str | None = None) -> dict:
        """The waste ratios' numerators and bases, for one run id or all."""
        useful, products = self.stat_sums("linalg.mat_mul", run_id)
        pairings = sum(1 for rec in self.spans if rec[0] == "fockspace.central_pairing"
                       and run_id in (None, rec[4]))
        nonzero = self.stat_sums("fockspace.central_pairing", run_id)[0]
        return {"linalg.mat_mul.useful_products": [useful, products],
                "fockspace.central_pairing.nonzero": [nonzero, pairings]}

    def layer_metrics(self) -> dict:
        calls = self.call_counts()
        self_s = self.self_times()
        m = {f"{name}.calls": n for name, n in calls.items()}
        m.update({f"{name}.self_s": self_s.get(name, 0.0) for name, _, _ in SPANNED})
        waste = self.waste()
        useful, products = waste["linalg.mat_mul.useful_products"]
        nonzero, pairings = waste["fockspace.central_pairing.nonzero"]
        m["linalg.mat_mul.useful_ratio"] = useful / products if products else 0.0
        m["fockspace.central_pairing.nonzero_ratio"] = nonzero / pairings if pairings else 0.0
        m["fockspace.enumerate_basis.states"] = self.stat_sums("fockspace.enumerate_basis")[0]
        m["fockspace.operator_matrix.nonzeros"] = self.stat_sums("fockspace.operator_matrix")[0]
        m["bilocal.wick_product.terms"] = self.stat_sums("bilocal.wick_product")[0]
        return m

    def dump(self, path) -> None:
        names = sorted({rec[0] for rec in self.spans})
        code = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "run_id"],
                       "names": names,
                       "spans": [[code[n], s, e, p, r] for n, s, e, p, r in self.spans]},
                      fh, separators=(",", ":"))


def _run_stable(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv + ["--stable", "--format", "json"])
    return rc, buf.getvalue()


def fidelity_selftest(argv) -> dict:
    """Traced call counts must equal cProfile's, and tracing must not change output.

    Runs `argv` three times: under cProfile, plain, and traced.  Returns the
    mismatching counts and whether the stable outputs are byte-identical.
    """
    prof = cProfile.Profile()
    prof.enable()
    try:
        _run_stable(argv)
    finally:
        prof.disable()
    profiled = {(f, line, fn): nc for (f, line, fn), (_, nc, _, _, _)
                in pstats.Stats(prof).stats.items()}
    plain_rc, plain = _run_stable(argv)
    tracer = Tracer()
    with tracer.active():
        traced_rc, traced = _run_stable(argv)
    counts = tracer.call_counts()
    mismatches, called = {}, 0
    for name, module, path in SPANNED + COUNTED:
        code = _resolve(module, path).__code__
        want = profiled.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        called += want > 0
        if counts[name] != want:
            mismatches[name] = {"traced": counts[name], "cprofile": want}
    return {"argv": argv, "count_mismatches": mismatches,
            "functions_compared": len(SPANNED) + len(COUNTED), "functions_called": called,
            "stable_identical": plain_rc == traced_rc == 0 and plain == traced}
