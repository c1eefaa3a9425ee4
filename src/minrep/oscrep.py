"""Concrete oscillator realizations and their exact relation suites.

Generators of su(2,2), u(n,n) and so*(4n) are built as quadratic Weyl
elements over a/b mode pairs; Chevalley-Serre relations, dual-pair
commutants, matrix membership conditions, the quadratic Casimir relation
and the degree-two relation among the noncompact raising operators of
so*(8) are all verified as exact symbolic identities.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import linalg
from .reports import Report
from .rootsys import cartan_a_type, cartan_d_type
from .scalars import QI
from .weylalg import (WeylElement, Polarization, commutator, ad_power,
                      normal_product, quadratic_from_matrix,
                      standard_polarization)


class AlgebraError(ValueError):
    pass


# ---------------------------------------------------------------------------
# QI-matrix helpers

def qi_mat(rows):
    return [[QI.of(x) for x in row] for row in rows]


def mat_conj(m):
    return [[x.conj() for x in row] for row in m]


def mat_star(m):
    """Conjugate transpose."""
    return [[m[j][i].conj() for j in range(len(m))] for i in range(len(m[0]))]


def mat_is_zero(m):
    return all(not x for row in m for x in row)


def qi_diag(entries):
    n = len(entries)
    return [[QI.of(entries[i]) if i == j else QI(0) for j in range(n)] for i in range(n)]


def basis_matrix(n, i, j, c=1):
    m = [[QI(0)] * n for _ in range(n)]
    m[i][j] = QI.of(c)
    return m


# ---------------------------------------------------------------------------
# Form specifications and matrix membership


@dataclass(frozen=True)
class FormSpec:
    family: str        # "sp_real" | "u_pq" | "so_star"
    size: int
    beta: tuple | None = None
    sigma: tuple | None = None
    sympl: tuple | None = None

    def __post_init__(self):
        one = linalg.identity(self.size, QI(1))
        if self.beta is not None:
            b = [list(r) for r in self.beta]
            if not mat_is_zero(linalg.mat_sub(mat_star(b), b)):
                raise AlgebraError("beta must be hermitean")
            if not mat_is_zero(linalg.mat_sub(linalg.mat_mul(b, b), one)):
                raise AlgebraError("beta^2 must be 1")
        if self.sigma is not None:
            s = [list(r) for r in self.sigma]
            if s != linalg.transpose(s):
                raise AlgebraError("sigma must be symmetric")
            if not mat_is_zero(linalg.mat_sub(linalg.mat_mul(s, s), one)):
                raise AlgebraError("sigma^2 must be 1")
        if self.sympl is not None:
            j = [list(r) for r in self.sympl]
            jj = linalg.mat_mul(j, mat_star(j))
            if not mat_is_zero(linalg.mat_sub(jj, one)):
                raise AlgebraError("J J* must be 1")
            mj2 = linalg.mat_scale(QI(-1), linalg.mat_mul(j, j))
            if not mat_is_zero(linalg.mat_sub(mj2, one)):
                raise AlgebraError("-J^2 must be 1")


def form_spec(family: str, k: int) -> FormSpec:
    if family == "sp_real":
        j = [[QI(0)] * (2 * k) for _ in range(2 * k)]
        for i in range(k):
            j[i][k + i] = QI(1)
            j[k + i][i] = QI(-1)
        return FormSpec("sp_real", 2 * k, sympl=tuple(tuple(r) for r in j))
    if family == "u_pq":
        beta = qi_diag([1] * k + [-1] * k)
        return FormSpec("u_pq", 2 * k, beta=tuple(tuple(r) for r in beta))
    if family == "so_star":
        m = 2 * k
        beta = qi_diag([1] * m + [-1] * m)
        sigma = [[QI(0)] * (2 * m) for _ in range(2 * m)]
        for i in range(m):
            sigma[i][m + i] = QI(1)
            sigma[m + i][i] = QI(1)
        return FormSpec("so_star", 2 * m,
                        beta=tuple(tuple(r) for r in beta),
                        sigma=tuple(tuple(r) for r in sigma))
    raise AlgebraError(f"unknown form family {family!r}")


def matrix_membership(x, spec: FormSpec) -> bool:
    n = spec.size
    if len(x) != n or any(len(row) != n for row in x):
        raise AlgebraError(f"matrix size does not match the {spec.family} form ({n})")
    x = qi_mat(x)
    if spec.family == "sp_real":
        j = [list(r) for r in spec.sympl]
        cond = linalg.mat_add(linalg.mat_mul(x, j), linalg.mat_mul(j, linalg.transpose(x)))
        if not mat_is_zero(cond):
            return False
        k = n // 2
        a = [row[:k] for row in x[:k]]
        b = [row[:k] for row in x[k:]]
        return ([row[k:] for row in x[k:]] == mat_conj(a)
                and [row[k:] for row in x[:k]] == mat_conj(b))
    if spec.family == "u_pq":
        beta = [list(r) for r in spec.beta]
        return mat_is_zero(linalg.mat_add(linalg.mat_mul(mat_star(x), beta),
                                          linalg.mat_mul(beta, x)))
    if spec.family == "so_star":
        beta = [list(r) for r in spec.beta]
        sigma = [list(r) for r in spec.sigma]
        if not mat_is_zero(linalg.mat_add(linalg.mat_mul(mat_star(x), beta),
                                          linalg.mat_mul(beta, x))):
            return False
        # the two forms fix the block shape [[u, v], [v*, -u^T]] with u
        # antihermitian and v antisymmetric, so X is traceless
        return mat_is_zero(linalg.mat_add(linalg.mat_mul(linalg.transpose(x), sigma),
                                          linalg.mat_mul(sigma, x)))
    raise AlgebraError(f"unknown form family {spec.family!r}")


# ---------------------------------------------------------------------------
# Generator sets


@dataclass
class GeneratorSet:
    algebra_label: str
    cartan_matrix: list
    E: list
    F: list
    H: list
    extras: dict = field(default_factory=dict)
    polarization: Polarization | None = None

    @property
    def rank(self) -> int:
        return len(self.E)


def _a(i):
    return ("a", i)


def _b(i):
    return ("b", i)


def _number(m) -> WeylElement:
    """The number operator m* m of one mode."""
    return WeylElement.monomial([m], [m])


def _require(ok: bool, what: str):
    """Raise AlgebraError unless a generator invariant holds (kept under -O)."""
    if not ok:
        raise AlgebraError(f"generator invariant fails: {what}")


def su22_generators() -> GeneratorSet:
    """Chevalley-Cartan basis of su(2,2) over modes a1, a2, b1, b2.

    It is the u(2,2) set relabelled: the same A3 chain, the same theta
    triple, and the u(2,2) charge Q as the helicity h.
    """
    gens = unn_generators(2)
    hs = gens.H
    _require(hs[0] == _number(_a(1)) - _number(_a(2)), "su(2,2): H1 != N_a1 - N_a2")
    _require(hs[1] == _number(_a(2)) + _number(_b(1)) + WeylElement.one(),  # a2*a2 + b1 b1*
             "su(2,2): H2 != N_a2 + N_b1 + 1")
    _require(hs[2] == _number(_b(2)) - _number(_b(1)), "su(2,2): H3 != N_b2 - N_b1")
    e1, e2, e3 = gens.E
    _require(commutator(commutator(e1, e2), e3) == gens.extras["E_theta"],
             "su(2,2): [[E1, E2], E3] != a1* b2*")
    extras = {k: gens.extras[k] for k in ("E_theta", "F_theta", "H_theta")}
    extras["h"] = gens.extras["Q"]
    return replace(gens, algebra_label="su22", extras=extras)


def unn_generators(n: int) -> GeneratorSet:
    """u(n,n) Chevalley set over modes a1..an, b1..bn (A_{2n-1} diagram).

    The noncompact node is E_n = a_n* b_1*; the b-side chain mirrors the
    a-side one, and the charge operator Q spans the center.
    """
    if n < 1:
        raise AlgebraError("u(n,n) requires n >= 1")
    mono = WeylElement.monomial
    es, fs = [], []
    for i in range(1, n):
        es.append(mono([_a(i)], [_a(i + 1)]))
        fs.append(mono([_a(i + 1)], [_a(i)]))
    es.append(mono([_a(n), _b(1)], []))
    fs.append(mono([], [_b(1), _a(n)], -1))
    for j in range(1, n):
        es.append(mono([_b(j + 1)], [_b(j)], -1))   # -b_j b_{j+1}*
        fs.append(mono([_b(j)], [_b(j + 1)], -1))
    hs = [commutator(e, f) for e, f in zip(es, fs)]

    q = WeylElement.zero()
    for i in range(1, n + 1):
        q = q + _number(_a(i)) - _number(_b(i))
    e_theta = mono([_a(1), _b(n)], [])
    f_theta = mono([], [_b(n), _a(1)], -1)
    h_theta = commutator(e_theta, f_theta)

    return GeneratorSet(
        algebra_label=f"u({n},{n})",
        cartan_matrix=cartan_a_type(2 * n - 1),
        E=es, F=fs, H=hs,
        extras={"Q": q, "E_theta": e_theta, "F_theta": f_theta, "H_theta": h_theta},
        polarization=standard_polarization(n),
    )


def so_star_generators(n: int) -> GeneratorSet:
    """so*(4n) Chevalley set over a1..a_{2n}, b1..b_{2n} (D_{2n} diagram).

    E_i = a_i* a_{i+1} + b_{i+1} b_i* with F_i = E_i* for the compact chain;
    the spin node is E_{2n} = a_{2n-1}* b_{2n}* - a_{2n}* b_{2n-1}*.  Extras
    carry all noncompact raising operators E_ij, the u(1) generators Q and
    H, and the commuting sp(2) triple.
    """
    if n < 1:
        raise AlgebraError("so*(4n) requires n >= 1")
    k = 2 * n
    mono = WeylElement.monomial
    es, fs = [], []
    for i in range(1, k):
        e = mono([_a(i)], [_a(i + 1)]) + mono([_b(i)], [_b(i + 1)])
        es.append(e)
        fs.append(e.adjoint())
    e_spin = mono([_a(k - 1), _b(k)], []) - mono([_a(k), _b(k - 1)], [])
    f_spin = mono([], [_a(k), _b(k - 1)]) - mono([], [_a(k - 1), _b(k)])
    es.append(e_spin)
    fs.append(f_spin)
    hs = [commutator(e, f) for e, f in zip(es, fs)]

    expect_last = (_number(_a(k - 1)) + _number(_a(k)) + _number(_b(k - 1))
                   + _number(_b(k)) + WeylElement.scalar(2))
    _require(hs[-1] == expect_last, f"so*({4 * n}): spin-node H is not N + 2 on the last modes")

    extras = {}
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            extras[f"E_{i}{j}"] = mono([_a(i), _b(j)], []) - mono([_a(j), _b(i)], [])
    extras["E_theta"] = extras["E_12"]
    extras["F_theta"] = -extras["E_12"].adjoint()
    extras["H_theta"] = commutator(extras["E_theta"], extras["F_theta"])

    q = WeylElement.zero()
    h_center = WeylElement.zero()
    sp_e = WeylElement.zero()
    sp_f = WeylElement.zero()
    for i in range(1, k + 1):
        q = q + _number(_a(i)) - _number(_b(i))
        h_center = h_center + _number(_a(i)) + _number(_b(i)) + WeylElement.one()  # a*a + b b*
        sp_e = sp_e + mono([_a(i)], [_b(i)])
        sp_f = sp_f + mono([_b(i)], [_a(i)])
    sp_q = commutator(sp_e, sp_f)
    _require(sp_q == q, f"so*({4 * n}): [sp2_E, sp2_F] != Q")
    extras.update({"Q": q, "H": h_center, "sp2_E": sp_e, "sp2_F": sp_f, "sp2_Q": sp_q})

    return GeneratorSet(
        algebra_label=f"so*({4 * n})",
        cartan_matrix=cartan_d_type(k),
        E=es, F=fs, H=hs,
        extras=extras,
        polarization=standard_polarization(k),
    )


def sp2_triple(n: int) -> list:
    gens = so_star_generators(n)
    return [gens.extras["sp2_E"], gens.extras["sp2_F"], gens.extras["sp2_Q"]]


def so_star_pair_elements(gens: GeneratorSet):
    """(name, element) list spanning so*(4n) for commutant checks.

    Chevalley triples, every noncompact E_ij with its adjoint, and the
    u(1) generator H of the maximal compact u(2n).  The charge operator Q
    and the sp(2) triple live in the commutant, not in so*(4n), so they
    are deliberately not included here.
    """
    out = []
    for i, (e, f, h) in enumerate(zip(gens.E, gens.F, gens.H), start=1):
        out += [(f"E{i}", e), (f"F{i}", f), (f"H{i}", h)]
    for name, el in gens.extras.items():
        if name.startswith("E_") and name != "E_theta":
            out.append((name, el))
            out.append((name + "*", el.adjoint()))
    out.append(("H", gens.extras["H"]))
    return out


# ---------------------------------------------------------------------------
# Relation suites


def scalar_ratio(x: WeylElement, y: WeylElement):
    """lambda with x = lambda*y, or None.  Zero x gives lambda = 0."""
    if x.is_zero():
        return QI(0)
    if y.is_zero():
        return None
    mono, q = next(iter(y.terms.items()))
    if mono not in x.terms:
        return None
    lam = x.terms[mono] / q
    return lam if x == y.scale(lam) else None


def check_chevalley(gens: GeneratorSet) -> Report:
    """Exact Chevalley-Serre suite against the generator set's Cartan matrix."""
    rep = Report(f"chevalley/{gens.algebra_label}")
    r = gens.rank
    c = gens.cartan_matrix
    for i in range(r):
        d = commutator(gens.E[i], gens.F[i]) - gens.H[i]
        rep.add(f"{gens.algebra_label}/EF/{i + 1}", d.is_zero(), defect=str(d))
    for i in range(r):
        for j in range(r):
            if i != j:
                d = commutator(gens.E[i], gens.F[j])
                rep.add(f"{gens.algebra_label}/EFcross/{i + 1},{j + 1}", d.is_zero(), defect=str(d))
            dh = commutator(gens.H[i], gens.E[j]) - gens.E[j].scale(c[i][j])
            rep.add(f"{gens.algebra_label}/HE/{i + 1},{j + 1}", dh.is_zero(), defect=str(dh))
            df = commutator(gens.H[i], gens.F[j]) + gens.F[j].scale(c[i][j])
            rep.add(f"{gens.algebra_label}/HF/{i + 1},{j + 1}", df.is_zero(), defect=str(df))
    for i in range(r):
        for j in range(i + 1, r):
            d = commutator(gens.H[i], gens.H[j])
            rep.add(f"{gens.algebra_label}/HH/{i + 1},{j + 1}", d.is_zero(), defect=str(d))
    for i in range(r):
        for j in range(r):
            if i == j:
                continue
            k = 1 - c[i][j]
            de = ad_power(gens.E[i], gens.E[j], k)
            rep.add(f"{gens.algebra_label}/serreE/{i + 1},{j + 1}", de.is_zero(), defect=str(de))
            df = ad_power(gens.F[i], gens.F[j], k)
            rep.add(f"{gens.algebra_label}/serreF/{i + 1},{j + 1}", df.is_zero(), defect=str(df))
    return rep


def derive_cartan_matrix(gens: GeneratorSet):
    """Read c_ij off the verified eigenvalue relations [H_i, E_j] = c_ij E_j."""
    r = gens.rank
    out = []
    for i in range(r):
        row = []
        for j in range(r):
            lam = scalar_ratio(commutator(gens.H[i], gens.E[j]), gens.E[j])
            if lam is None or not lam.is_real() or lam.real_fraction().denominator != 1:
                raise AlgebraError(f"[H_{i + 1}, E_{j + 1}] is not an integer multiple of E_{j + 1}")
            row.append(int(lam.real_fraction()))
        out.append(row)
    return out


def check_theta_sl2(gens: GeneratorSet) -> Report:
    """The distinguished sl2: [H_t, E_t] = 2 E_t, [H_t, F_t] = -2 F_t."""
    rep = Report(f"theta-sl2/{gens.algebra_label}")
    et, ft, ht = (gens.extras[k] for k in ("E_theta", "F_theta", "H_theta"))
    d1 = commutator(ht, et) - et.scale(2)
    rep.add(f"{gens.algebra_label}/theta/HE", d1.is_zero(), defect=str(d1))
    d2 = commutator(ht, ft) + ft.scale(2)
    rep.add(f"{gens.algebra_label}/theta/HF", d2.is_zero(), defect=str(d2))
    d3 = commutator(et, ft) - ht
    rep.add(f"{gens.algebra_label}/theta/EF", d3.is_zero(), defect=str(d3))
    return rep


def check_dual_pair(gens_a: list, gens_b: list, label: str = "dual-pair",
                    names_a: list | None = None, names_b: list | None = None) -> Report:
    """All brackets between the two generator families must vanish."""
    rep = Report(label)
    names_a = names_a or [f"A{i}" for i in range(len(gens_a))]
    names_b = names_b or [f"B{i}" for i in range(len(gens_b))]
    for na, x in zip(names_a, gens_a):
        for nb, y in zip(names_b, gens_b):
            d = commutator(x, y)
            rep.add(f"{label}/[{na},{nb}]", d.is_zero(), defect=str(d))
    return rep


# ---------------------------------------------------------------------------
# u(2,2) weight basis and structure of the theta grading


def u22_weight_basis():
    """16 weight-adapted basis elements spanning u(2,2) over the complex span.

    Off-diagonal matrix units through the polarization map, then three
    traceless diagonals chosen so membership in the sl2 centralizer is
    readable element by element, then the helicity generator h.  Weight
    vectors diagonalize ad of any Cartan element, which is what the
    grading and centralizer checks need.
    """
    pol = standard_polarization(2)
    out = []
    for alpha in range(4):
        for beta in range(4):
            if alpha != beta:
                out.append((f"X_{alpha + 1}{beta + 1}",
                            quadratic_from_matrix(basis_matrix(4, alpha, beta), pol)))
    diags = {"H_a": [1, -1, 0, 0, ], "H_b": [0, 1, -1, 0], "H_c": [1, -1, -1, 1]}
    for name, d in diags.items():
        out.append((name, quadratic_from_matrix(qi_diag(d), pol)))
    gens = su22_generators()
    out.append(("h", gens.extras["h"]))
    return out


def su22_weight_basis():
    return [(n, w) for n, w in u22_weight_basis() if n != "h"]


def theta_grading_check() -> Report:
    """ad(H_theta) eigenvalues on the su(2,2) basis lie in -2..2, ends 1-dim."""
    rep = Report("theta-grading/su22")
    ht = su22_generators().extras["H_theta"]
    eigencount: dict[int, int] = {}
    ok_all = True
    for name, x in su22_weight_basis():
        lam = scalar_ratio(commutator(ht, x), x)
        ok = lam is not None and lam.is_real() and lam.real_fraction().denominator == 1 \
            and -2 <= lam.real_fraction() <= 2
        ok_all &= ok
        rep.add(f"su22/grading/{name}", ok,
                detail=f"eigenvalue {lam}" if lam is not None else "not an eigenvector")
        if ok:
            eigencount[int(lam.real_fraction())] = eigencount.get(int(lam.real_fraction()), 0) + 1
    rep.add("su22/grading/end-spaces",
            ok_all and eigencount.get(2, 0) == 1 and eigencount.get(-2, 0) == 1,
            detail=f"eigenvalue multiplicities {dict(sorted(eigencount.items()))}")
    return rep


def sl2_centralizer_check() -> Report:
    """Exactly 4 su(2,2) basis elements commute with the full theta sl2."""
    rep = Report("sl2-centralizer/su22")
    gens = su22_generators()
    triple = [gens.extras[k] for k in ("E_theta", "F_theta", "H_theta")]
    commuting = [name for name, x in su22_weight_basis()
                 if all(commutator(x, t).is_zero() for t in triple)]
    rep.add("su22/centralizer/dimension", len(commuting) == 4,
            detail=f"commuting basis elements: {commuting}")
    elems = dict(su22_weight_basis())
    closed = all(
        _in_weyl_span([elems[n] for n in commuting],
                      commutator(elems[x], elems[y]))
        for x in commuting for y in commuting)
    rep.add("su22/centralizer/subalgebra", closed,
            detail="closed under commutators within the 4-dim span")
    return rep


def _in_weyl_span(basis: list, target: WeylElement) -> bool:
    monos = list({m for el in basis + [target] for m in el.terms})
    return linalg.in_span([[el.terms.get(m, QI(0)) for m in monos] for el in basis],
                          [target.terms.get(m, QI(0)) for m in monos])


# ---------------------------------------------------------------------------
# Casimir relation


def so_star_block(u, v):
    """The so*(4n) block matrix [[u, v], [v*, -t(u)]] from k x k blocks u, v."""
    mtu = linalg.mat_scale(QI(-1), linalg.transpose(u))
    return [r + s for r, s in zip(u, v)] + [r + s for r, s in zip(mat_star(v), mtu)]


def so_star_matrix_basis(n: int):
    """Real basis of so*(4n) as 4n x 4n matrices in the block form."""
    k = 2 * n
    spec = form_spec("so_star", n)
    out = []
    zero_k = [[QI(0)] * k for _ in range(k)]
    for u in unitary_basis([1] * k):
        out.append(so_star_block(u, zero_k))
    for a in range(k):
        for b in range(a + 1, k):
            for c in (QI(1), QI(0, 1)):
                v = [[QI(0)] * k for _ in range(k)]
                v[a][b] = c
                v[b][a] = -c
                out.append(so_star_block(zero_k, v))
    for x in out:
        if not matrix_membership(x, spec):
            raise AlgebraError("constructed basis element fails membership")
    if len(out) != k * (2 * k - 1):
        raise AlgebraError("so* basis has the wrong dimension")
    return out


def unitary_basis(signs, traceless: bool = False):
    """Real basis of u(p,q) (su(p,q) if traceless) as QI matrices X with
    X* D + D X = 0, D = diag(signs); u(k) is the case of k signs +1.

    The diagonal elements come first (i e_aa, or i(e_aa - e_{a+1,a+1})
    when traceless), then the pair e_ab - s e_ba, i(e_ab + s e_ba) for
    each a < b, where s = signs[a] signs[b].
    """
    k = len(signs)
    i = QI(0, 1)

    def unit(entries):
        m = [[QI(0)] * k for _ in range(k)]
        for (a, b), c in entries.items():
            m[a][b] = c
        return m

    if traceless:
        out = [unit({(a, a): i, (a + 1, a + 1): -i}) for a in range(k - 1)]
    else:
        out = [unit({(a, a): i}) for a in range(k)]
    for a in range(k):
        for b in range(a + 1, k):
            s = signs[a] * signs[b]
            out.append(unit({(a, b): QI(1), (b, a): QI(-s)}))
            out.append(unit({(a, b): i, (b, a): QI(0, s)}))
    return out


def _dual_basis(basis, trace_form):
    # real_fraction raises if the trace form fails to be real on the basis
    gram = [[trace_form(x, y).real_fraction() for y in basis] for x in basis]
    inv = [[QI(c) for c in row] for row in linalg.inverse(gram)]
    # dual a = sum_b inv[a][b] basis[b]: one sparse product of inv with the
    # basis matrices flattened to rows, which touches only their nonzeros
    n = len(basis[0])
    flat = linalg.mat_mul(inv, [[x for row in xb for x in row] for xb in basis])
    return [[d[i * n:(i + 1) * n] for i in range(n)] for d in flat]


def casimir_elements(n: int):
    """(C_so, C_u, symmetrized sum of E_ij E_ij*) for so*(4n).

    All dual bases are taken with respect to one uniform pairing, the trace
    form of the defining 4n-dimensional representation; the center term of
    the maximal compact u(2n) then carries H^2/(4n), and the noncompact
    products enter Weyl (symmetrically) ordered.  In this normalization the
    Casimir relation holds exactly with unit scale, which the scale search
    in casimir_defect certifies rather than assumes.
    """
    k = 2 * n
    pol = standard_polarization(k)
    gens = so_star_generators(n)

    so_basis = so_star_matrix_basis(n)
    so_dual = _dual_basis(so_basis, linalg.trace_product)
    c_so = WeylElement.zero()
    for x, xd in zip(so_basis, so_dual):
        c_so = c_so + normal_product(quadratic_from_matrix(x, pol),
                                     quadratic_from_matrix(xd, pol))

    zero_k = [[QI(0)] * k for _ in range(k)]
    su_basis = [so_star_block(u, zero_k) for u in unitary_basis([1] * k, traceless=True)]
    su_dual = _dual_basis(su_basis, linalg.trace_product)
    c_su = WeylElement.zero()
    for x, xd in zip(su_basis, su_dual):
        c_su = c_su + normal_product(quadratic_from_matrix(x, pol),
                                     quadratic_from_matrix(xd, pol))

    h = gens.extras["H"]
    c_u = c_su + normal_product(h, h).scale(Fraction(1, 4 * n))

    ee = WeylElement.zero()
    half = Fraction(1, 2)
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            eij = gens.extras[f"E_{i}{j}"]
            fij = eij.adjoint()
            ee = ee + (normal_product(eij, fij) + normal_product(fij, eij)).scale(half)
    return c_so, c_u, ee, gens


def casimir_defect(n: int):
    """Defect D = C_so - C_u + sym(E E*) with centrality report and scale search."""
    # created before the Casimir elements, so its first record is charged with them
    rep = Report(f"casimir/so*({4 * n})")
    c_so, c_u, ee, gens = casimir_elements(n)
    d = c_so - c_u + ee
    for i, (e, f, h) in enumerate(zip(gens.E, gens.F, gens.H), start=1):
        for tag, g in (("E", e), ("F", f), ("H", h)):
            c = commutator(d, g)
            rep.add(f"{gens.algebra_label}/casimir/[D,{tag}{i}]", c.is_zero(), defect=str(c))

    # scale search: lambda C_so = C_u - sym(E E*) up to a central constant
    target = c_u - ee
    lam = scalar_ratio(target.without_scalar(), c_so.without_scalar())
    if lam is None:
        rep.add(f"{gens.algebra_label}/casimir/scale-search", False,
                detail="no rational rescaling matches the non-scalar part")
    else:
        residual = c_so.scale(lam) - target
        if residual.is_zero():
            rep.add(f"{gens.algebra_label}/casimir/scale-search", True,
                    detail=f"exact equality at lambda = {lam}")
        elif residual.is_scalar():
            rep.add(f"{gens.algebra_label}/casimir/scale-search", True,
                    detail=(f"lambda = {lam} with residual central constant "
                            f"{residual.scalar_part()}"))
        else:
            rep.add(f"{gens.algebra_label}/casimir/scale-search", False,
                    detail=f"lambda = {lam} leaves a non-central residual")
    return d, rep


# ---------------------------------------------------------------------------
# Nilpotent cone relation for so*(8)


def nilpotent_cone_defect():
    ex = so_star_generators(2).extras
    lhs = (normal_product(ex["E_12"], ex["E_34"])
           + normal_product(ex["E_14"], ex["E_23"]))
    return lhs - normal_product(ex["E_13"], ex["E_24"])


def nilpotent_cone_check() -> Report:
    rep = Report("nilpotent-cone/so*(8)")
    d = nilpotent_cone_defect()
    rep.add("so*(8)/cone/identity", d.is_zero(), defect=str(d))
    ex = so_star_generators(2).extras
    corrupted = (normal_product(ex["E_12"], ex["E_34"])
                 + normal_product(ex["E_14"], ex["E_23"])
                 - normal_product(ex["E_14"], ex["E_24"]))
    rep.add("so*(8)/cone/negative-control", not corrupted.is_zero(),
            negative_control=True,
            detail="E_13 replaced by E_14 must break the identity")
    return rep
