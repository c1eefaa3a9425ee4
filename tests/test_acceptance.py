"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

All arithmetic in the package is exact, so every check below is an exact
identity or an exact integer table match; the only numeric bounds are the
documented wall-clock budgets.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction

from minrep import bilocal, fockspace, harmonics, massless, oscrep, poly, rootsys
from minrep.scalars import QI
from minrep.weylalg import WeylElement, commutator

RESULTS = []


def _criterion(cid: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    RESULTS.append((cid, ok))
    assert ok, line


EXPECTED_EXCEPTIONAL = {
    "E6": (78, "A5", 20, 11),
    "E7": (133, "D6", 32, 17),
    "E8": (248, "E7", 56, 29),
    "F4": (52, "C3", 14, 8),
    "G2": (14, "A1", 4, 3),
}


def test_criterion_01_table_reproduction():
    start = time.monotonic()
    rows = {r.algebra_label: r for r in rootsys.table1_report()}
    ok = True
    for label, (dim, h, g1, gk) in EXPECTED_EXCEPTIONAL.items():
        r = rows[label]
        ok &= (r.dim_g, r.dim_g1, r.gk_dim) == (dim, g1, gk)
        ok &= r.centralizer_label == rootsys.canonical_label([h], 0)
    per_family = {"A": 0, "B": 0, "C": 0, "D": 0}
    for label, r in rows.items():
        ok &= r.identities_hold()
        fam = label if label[0] not in "ABCD" else label[0]
        rank = 0 if fam == label else int(label[1:])
        if fam in per_family:
            per_family[fam] += 1
            g1, gk = rootsys.expected_dims(fam, rank)
            ok &= (r.dim_g1, r.gk_dim) == (g1, gk)
            ok &= r.centralizer_label == rootsys.expected_centralizer(fam, rank)
    ok &= all(v >= 4 for v in per_family.values())
    elapsed = time.monotonic() - start
    ok &= elapsed < 5.0
    _criterion("01-table-reproduction", ok,
               f"{len(rows)} rows, {elapsed:.2f}s < 5s")


def test_criterion_02_chevalley_serre_suites():
    start = time.monotonic()
    ok = oscrep.check_chevalley(oscrep.su22_generators()).ok
    g = oscrep.su22_generators()
    et, ht = g.extras["E_theta"], g.extras["H_theta"]
    ok &= commutator(ht, et) == et.scale(2)
    for n in (1, 2, 3):
        ok &= oscrep.check_chevalley(oscrep.unn_generators(n)).ok
        gs = oscrep.so_star_generators(n)
        ok &= oscrep.check_chevalley(gs).ok
        ok &= all(e.adjoint() == f for e, f in zip(gs.E[:-1], gs.F[:-1]))
        ok &= oscrep.check_theta_sl2(gs).ok
    elapsed = time.monotonic() - start
    ok &= elapsed < 30.0
    _criterion("02-chevalley-serre", ok, f"{elapsed:.2f}s < 30s")


def test_criterion_03_dual_pair_commutants():
    ok = True
    for n in (1, 2, 3):
        pair = fockspace.dual_pair("so_star", n)
        elems = oscrep.so_star_pair_elements(pair.chevalley)
        ok &= oscrep.check_dual_pair(pair.gauge.span, [w for _, w in elems]).ok
    u22 = fockspace.dual_pair("u_pq", 2)
    gens = oscrep.su22_generators(u22.chevalley)
    basis = oscrep.u22_weight_basis(gens, u22.polarization)
    ok &= len(basis) == 16
    ok &= oscrep.check_dual_pair(u22.gauge.span, [w for _, w in basis]).ok
    # negative controls must fire
    bad = WeylElement.monomial([("a", 1)], [("a", 1)])
    control1 = not commutator(bad, fockspace.dual_pair("so_star", 1).gauge.raising[0]).is_zero()
    control2 = not commutator(WeylElement.monomial([("a", 1)], [("a", 2)]),
                              WeylElement.monomial([("a", 2)], [("a", 1)])).is_zero()
    ok &= control1 and control2
    _criterion("03-dual-pairs", ok, "n <= 3 plus helicity, controls fire")


def test_criterion_04_nilpotent_cone():
    gens = oscrep.so_star_generators(2)
    ok = oscrep.nilpotent_cone_defect(gens).is_zero()
    ex = gens.extras
    modes = [("a", i) for i in range(1, 5)] + [("b", i) for i in range(1, 5)]
    fock = fockspace.enumerate_basis(modes, 4)
    m = {k: fockspace.operator_matrix(ex[k], fock)
         for k in ("E_12", "E_34", "E_14", "E_23", "E_13", "E_24")}
    # E_12 E_34 + E_14 E_23 = E_13 E_24 on each safe column, read through apply
    for c in fockspace.safe_columns(fock, 2, 2):
        e, lhs = {c: QI(1)}, {}
        for a, b in (("E_12", "E_34"), ("E_14", "E_23")):
            for r, x in m[a].apply(m[b].apply(e)).items():
                lhs[r] = lhs.get(r, QI(0)) + x
        ok &= {r: x for r, x in lhs.items() if x} == m["E_13"].apply(m["E_24"].apply(e))
    sym = fockspace.operator_matrix(oscrep.nilpotent_cone_defect(gens), fock)
    ok &= not any(sym.entries[c] for c in range(fock.dim))
    _criterion("04-nilpotent-cone", ok, "symbolic and Fock cutoff 4")


def test_criterion_05_bilocal_commutator_theorem():
    ok = True
    for size in (1, 2, 3, 4):
        ident = bilocal.unit_matrix(size)
        ok &= bilocal.verify_commutator_formula(ident, ident, size).ok
        rng = random.Random(500 + size)
        for _ in range(50):
            m = {(i, j): QI(rng.randint(-9, 9)) / rng.randint(1, 4)
                 for i in range(size) for j in range(size)}
            mp = {(i, j): QI(rng.randint(-9, 9)) / rng.randint(1, 4)
                  for i in range(size) for j in range(size)}
            ok &= bilocal.verify_commutator_formula(m, mp, size).ok
    rng = random.Random(77)
    for _ in range(50):
        ms = [{(i, j): QI(rng.randint(-6, 6)) / rng.randint(1, 3)
               for i in range(3) for j in range(3)} for _ in range(3)]
        ok &= bilocal.frobenius_property_check(*ms).ok
    mats2 = []
    for a in range(2):
        for b in range(2):
            mats2.append({(a, b): Fraction(1)})
    kind, comm = bilocal.commutant_type(bilocal.TAlgebra(mats2, 2))
    ok &= kind == "R" and len(comm) == 1
    kind, comm = bilocal.commutant_type(
        bilocal.TAlgebra(bilocal.canonical_m_span("C", 1), 2))
    ok &= kind == "C" and len(comm) == 2
    lefts = bilocal.quaternion_left_algebra(1)
    kind, comm = bilocal.commutant_type(bilocal.TAlgebra(lefts, 4))
    ok &= kind == "H" and len(comm) == 4
    _criterion("05-bilocal-theorem", ok,
               "50 trials per size 1..4, Frobenius, R/C/H classifier")


def test_criterion_06_fock_decomposition_pattern():
    start = time.monotonic()
    pair = fockspace.dual_pair("so_star", 2)
    gens = pair.chevalley
    fock = fockspace.enumerate_basis(pair.modes, 3)
    table = fockspace.joint_weight_decomposition(pair, fock)
    rows0 = table.rows_at(0)
    ok = rows0 == [fockspace.MultiplicityRow(0, (0, 0, 0, 2), 0, 1)]
    rows1 = table.rows_at(1)
    ok &= len(rows1) == 1 and rows1[0].isospin_double == 1 and rows1[0].multiplicity == 1
    vac = fock.index[(0,) * len(fock.modes)]
    e_mat = fockspace.operator_matrix(pair.gauge.raising[0], fock)
    for j in range(1, 5):
        b_state = fockspace.operator_matrix(
            WeylElement.monomial([("b", j)], []), fock).apply({vac: QI(1)})
        a_state = fockspace.operator_matrix(
            WeylElement.monomial([("a", j)], []), fock).apply({vac: QI(1)})
        ok &= e_mat.apply(b_state) == a_state
    rows2 = table.rows_at(2)
    ok &= [r.isospin_double for r in rows2] == [2]
    lw = fockspace.lowest_weight_vectors(gens, fock)
    support = set()
    for (lvl, _), vecs in lw.items():
        if lvl != 2:
            continue
        for v in vecs:
            states = {fock.states[c] for c, x in v.items() if x}
            ok &= len(states) == 1
            support |= states
    a4 = tuple(2 if m == ("a", 4) else 0 for m in fock.modes)
    b4 = tuple(2 if m == ("b", 4) else 0 for m in fock.modes)
    ab = tuple(1 if m in (("a", 4), ("b", 4)) else 0 for m in fock.modes)
    ok &= support == {a4, b4, ab}
    for level in range(4):
        total = sum(len(vs) for (lvl, _), vs in lw.items() if lvl == level)
        ok &= total == table.lw_dimension(level)
        ok &= all(r.multiplicity == 1 for r in table.rows_at(level))
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    _criterion("06-fock-decomposition", ok, f"{elapsed:.2f}s < 60s")


def test_criterion_07_closure_central_charge():
    ok = True
    for family, k in (("sp_real", 1), ("sp_real", 2), ("u_pq", 1), ("u_pq", 2),
                      ("so_star", 1)):
        for flavors in (1, 2):
            ok &= fockspace.truncated_closure_check(family, k, flavors).ok
    for flavors in (1, 2):
        # the largest quaternionic instance, every one of its 406 pairs
        ok &= fockspace.truncated_closure_check("so_star", 2, flavors).ok
    _criterion("07-closure-central-charge", ok,
               "R/C/H families, N = 1 and 2, K <= 2, all pairs")


def test_criterion_08_massless_model():
    ok = massless.ccr_check(6).ok
    rep = massless.vacuum_checks()
    ok &= rep.ok
    ok &= massless.lightlike_identity().ok
    h = massless.realize(oscrep.su22_generators().extras["h"])
    ok &= poly.apply(poly.operator_terms(h), massless.vacuum()).is_zero()
    modes = [("a", 1), ("a", 2), ("b", 1), ("b", 2)]
    fock = fockspace.enumerate_basis(modes, 2)
    ok &= fockspace.helicity_spectrum(fock, 0) == {0: 1}
    ok &= fockspace.helicity_spectrum(fock, 1) == {-1: 2, 1: 2}
    ok &= fockspace.helicity_spectrum(fock, 2) == {-2: 3, 0: 4, 2: 3}
    _criterion("08-massless-model", ok,
               "CCR deg 6, vacuum, p^2 = 0, helicity histograms")


def test_criterion_09_harmonics():
    ok = True
    cols = harmonics.operator_columns()
    for n in range(1, 7):
        count = 0
        for l in range(n):
            for m in range(-l, l + 1):
                mode = harmonics.build_harmonic(n, l, m)
                ok &= harmonics.verify_mode(mode.poly, n, l, m, cols).ok
                count += 1
        ok &= count == n * n
    ok &= harmonics.level_count_check(
        [mode for n in range(1, 7) for l in range(n)
         for mode in harmonics.harmonic_ladder(n, l)]).ok
    rng = random.Random(19)
    pts = 0
    while pts < 20:
        x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4))
        ok &= not harmonics.sphere_identity_defect(x)
        pts += 1
    ok &= harmonics.sphere_identity_polynomial_check()
    _criterion("09-harmonics", ok, "n <= 6 gives n^2 verified modes, 20 points")


def test_criterion_10_casimir_relation():
    ok = True
    details = []
    for n in (1, 2):
        pair = fockspace.dual_pair("so_star", n)
        d, rep = oscrep.casimir_defect(pair.chevalley, pair.polarization)
        ok &= rep.ok
        scale = [r for r in rep.records if "scale-search" in r.check_id]
        ok &= bool(scale) and scale[0].passed
        details.append(f"n={n}: {scale[0].detail}")
    _criterion("10-casimir-relation", ok, "; ".join(details))


def test_zz_acceptance_summary():
    lines = [f"  {cid}: {'PASS' if ok else 'FAIL'}" for cid, ok in RESULTS]
    print("\nACCEPTANCE SUMMARY")
    print("\n".join(lines))
    assert all(ok for _, ok in RESULTS)
    assert len(RESULTS) == 10
