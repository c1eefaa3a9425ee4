"""Concrete oscillator realizations and their exact relation suites.

Generators of su(2,2), u(n,n) and so*(4n) are the quadratics phi~ X phi
of their matrix Chevalley bases, read through the standard polarization
of their a/b mode pairs; Chevalley-Serre relations, dual-pair
commutants, matrix membership conditions, the quadratic Casimir relation
and the degree-two relation among the noncompact raising operators of
so*(8) are all verified as exact symbolic identities.  The Lie algebra
matrices (bases, duals, membership arguments) are {(row, col): entry}
dicts of their nonzero entries, multiplied by ``linalg.product`` and
summed through ``scalars.sum_products``.  Each batch of them is one such
call: the membership of a list of matrices, the Gram and the dual rows
of a basis, and the quadratics the Casimir relation reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from itertools import chain

from . import linalg
from .reports import Report, render_defect
from .rootsys import cartan_a_type, cartan_d_type
from .scalars import QI, QI_I, QI_ONE, QI_ZERO, int_if_integer, sum_batches, sum_products
from .weylalg import (WeylElement, Polarization, commutator, ad_power, normal_product,
                      quadratic_from_matrix, quadratics_from_matrices, standard_polarization,
                      sum_of_products)


class AlgebraError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Form specifications and matrix membership


@dataclass(frozen=True)
class FormSpec:
    """The forms fixing a family's algebra, each as {(row, col): entry} of
    its nonzero entries, with those entries by row and by column in
    ``index`` (keyed by field name)."""

    family: str        # "sp_real" | "u_pq" | "so_star"
    size: int
    beta: dict | None = None
    sigma: dict | None = None
    sympl: dict | None = None
    index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "index", {
            name: _by_row_and_col(form) for name in ("beta", "sigma", "sympl")
            if (form := getattr(self, name)) is not None})
        one = _identity(self.size)
        if self.beta is not None:
            if _star(self.beta) != self.beta:
                raise AlgebraError("beta must be hermitean")
            if linalg.product(self.beta, self.beta) != one:
                raise AlgebraError("beta^2 must be 1")
        if self.sigma is not None:
            if linalg.dict_transpose(self.sigma) != self.sigma:
                raise AlgebraError("sigma must be symmetric")
            if linalg.product(self.sigma, self.sigma) != one:
                raise AlgebraError("sigma^2 must be 1")
        if self.sympl is not None:
            if linalg.product(self.sympl, _star(self.sympl)) != one:
                raise AlgebraError("J J* must be 1")
            if linalg.product(self.sympl, self.sympl) != {ii: -f for ii, f in one.items()}:
                raise AlgebraError("-J^2 must be 1")


def _by_row_and_col(form: dict):
    """({row: [(col, f)]}, {col: [(row, f)]}) over the entries f of form."""
    rows: dict[int, list] = {}
    cols: dict[int, list] = {}
    for (i, j), f in form.items():
        rows.setdefault(i, []).append((j, f))
        cols.setdefault(j, []).append((i, f))
    return rows, cols


def _star(m: dict) -> dict:
    """The conjugate transpose of m, given as {(row, col): entry}."""
    return {ij: f.conj() for ij, f in linalg.dict_transpose(m).items()}


def form_spec(family: str, k: int) -> FormSpec:
    if family == "sp_real":
        sympl = {}
        for i in range(k):
            sympl[(i, k + i)] = QI_ONE
            sympl[(k + i, i)] = QI(-1)
        return FormSpec("sp_real", 2 * k, sympl=sympl)
    if family == "u_pq":
        beta = {(i, i): QI_ONE if i < k else QI(-1) for i in range(2 * k)}
        return FormSpec("u_pq", 2 * k, beta=beta)
    if family == "so_star":
        m = 2 * k
        beta = {(i, i): QI_ONE if i < m else QI(-1) for i in range(2 * m)}
        sigma = {}
        for i in range(m):
            sigma[(i, m + i)] = sigma[(m + i, i)] = QI_ONE
        return FormSpec("so_star", 2 * m, beta=beta, sigma=sigma)
    raise AlgebraError(f"unknown form family {family!r}")


# Each family's conditions L F + F R = 0 on X, as (L, form, R), with L
# and R read off X: so_star's two forms fix the block shape [[u, v],
# [v*, -u^T]] with u antihermitian and v antisymmetric, so X is traceless.
_CONDITIONS = {"sp_real": (("x", "sympl", "trans"),),
               "u_pq": (("star", "beta", "x"),),
               "so_star": (("star", "beta", "x"), ("trans", "sigma", "x"))}


def matrix_membership(xs: list, spec: FormSpec) -> list:
    """Whether each X of xs, given as {(row, col): entry} of its nonzero QI
    entries, lies in the family's algebra, one verdict per matrix, in
    order: X*beta + beta X = 0 and t(X) sigma + sigma X = 0 for the forms
    the spec has, or, for sp_real, X J + J t(X) = 0 with X of the real
    shape [[a, conj b], [b, conj a]].

    Every condition of every matrix is summed over X's nonzero entries (and
    the form's) in one kernel call keyed by (matrix index, condition,
    entry), so no dense product is formed.  An entry outside the form's
    size raises.
    """
    n = spec.size
    conditions = _CONDITIONS.get(spec.family)
    if conditions is None:
        raise AlgebraError(f"unknown form family {spec.family!r}")
    if not all(0 <= i < n and 0 <= k < n for x in xs for i, k in x):
        raise AlgebraError(f"matrix size does not match the {spec.family} form ({n})")
    failing = {key[0] for key in sum_products(chain.from_iterable(
        _condition_items(t, x, conditions, spec.index) for t, x in enumerate(xs)))}
    verdicts = [t not in failing for t in range(len(xs))]
    if spec.family != "sp_real":
        return verdicts
    # the real shape: moving an entry by half the size in both indices conjugates it
    h = n // 2
    return [ok and {((i + h) % n, (k + h) % n): v.conj() for (i, k), v in x.items()} == x
            for ok, x in zip(verdicts, xs)]


def _condition_items(t, x: dict, conditions, index):
    """((t, c, i, j), ...) of each condition c's L F + F R, for
    sum_products, with L and R the (row, col, value) entries of X, its
    transpose or its conjugate transpose and F's nonzero entries by row
    and by column from the spec's index."""
    views = {"x": [(i, k, v) for (i, k), v in x.items()]}
    views["trans"] = [(k, i, v) for i, k, v in views["x"]]
    if any(left == "star" for left, _, _ in conditions):
        views["star"] = [(k, i, v.conj()) for i, k, v in views["x"]]
    for c, (left, form, right) in enumerate(conditions):
        rows, cols = index[form]
        for i, k, v in views[left]:
            for j, f in rows.get(k, ()):
                yield (t, c, i, j), v, f, 1
        for k, j, v in views[right]:
            for i, f in cols.get(k, ()):
                yield (t, c, i, j), f, v, 1


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

    @property
    def rank(self) -> int:
        return len(self.E)


def _require(ok: bool, what: str):
    """Raise AlgebraError unless a generator invariant holds (kept under -O)."""
    if not ok:
        raise AlgebraError(f"generator invariant fails: {what}")


def su22_generators() -> GeneratorSet:
    """Chevalley-Cartan basis of su(2,2) over modes a1, a2, b1, b2.

    It is the u(2,2) set of ``unn_generators(2)`` relabelled: the same A3
    chain and theta triple, and the u(2,2) charge Q as the helicity h.
    """
    gens = unn_generators(2)
    e1, e2, e3 = gens.E
    _require(commutator(commutator(e1, e2), e3) == gens.extras["E_theta"],
             "su(2,2): [[E1, E2], E3] != a1* b2*")
    extras = {k: gens.extras[k] for k in ("E_theta", "F_theta", "H_theta")}
    extras["h"] = gens.extras["Q"]
    return replace(gens, algebra_label="su22", extras=extras)


def _unit(i: int, j: int) -> dict:
    """The matrix unit e_ij, indices from 0."""
    return {(i, j): QI_ONE}


def _diagonal(i: int, j: int, s: int) -> dict:
    """e_ii + s e_jj."""
    return {(i, i): QI_ONE, (j, j): QI(s)}


def _identity(size: int) -> dict:
    """The size x size identity matrix."""
    return {(i, i): QI_ONE for i in range(size)}


def unn_generators(n: int) -> GeneratorSet:
    """u(n,n) Chevalley set over modes a1..an, b1..bn (A_{2n-1} diagram).

    Each generator is phi~ X phi of its sl(2n) matrix in the standard
    polarization: E_i = e_{i,i+1}, F_i = e_{i+1,i}, H_i = e_ii -
    e_{i+1,i+1}, and the theta triple on e_{1,2n} and e_{2n,1}.  The
    noncompact node is E_n = a_n* b_1*, and the charge operator Q =
    phi~ 1 phi + n spans the center.  Each H is the image of its matrix,
    not the bracket [E, F] of the Weyl elements, so the Chevalley suite's
    EF and theta/EF records compare two routes.
    """
    if n < 1:
        raise AlgebraError("u(n,n) requires n >= 1")
    m = 2 * n
    quad = partial(quadratic_from_matrix, pol=standard_polarization(n))
    return GeneratorSet(
        algebra_label=f"u({n},{n})",
        cartan_matrix=cartan_a_type(m - 1),
        E=[quad(_unit(i, i + 1)) for i in range(m - 1)],
        F=[quad(_unit(i + 1, i)) for i in range(m - 1)],
        H=[quad(_diagonal(i, i + 1, -1)) for i in range(m - 1)],
        extras={"Q": quad(_identity(m)) + WeylElement.scalar(n),
                "E_theta": quad(_unit(0, m - 1)), "F_theta": quad(_unit(m - 1, 0)),
                "H_theta": quad(_diagonal(0, m - 1, -1))},
    )


def so_star_generators(n: int) -> GeneratorSet:
    """so*(4n) Chevalley set over a1..a_{2n}, b1..b_{2n} (D_{2n} diagram).

    Each generator is phi~ X phi of its matrix in the block form [[u, v],
    [v*, -t(u)]] of ``so_star_basis``, through the standard polarization.
    The compact chain has u = e_{i,i+1}, e_{i+1,i} and e_ii - e_{i+1,i+1},
    so E_i = a_i* a_{i+1} + b_i* b_{i+1} and F_i = E_i*.  The spin node
    E_{2n} and every noncompact raising operator E_ij of the extras are
    the block v = e_ij - e_ji, their F the block v*.  The extras also
    carry the charge Q = phi~ 1 phi + 2n, which lives in the commutant
    sp(2), and the u(1) generator H of the maximal compact u(2n), the
    compact block of 1.  Each H is the image of its matrix, as in
    ``unn_generators``.
    """
    if n < 1:
        raise AlgebraError("so*(4n) requires n >= 1")
    k = 2 * n
    quad = partial(quadratic_from_matrix, pol=standard_polarization(k))

    def compact(u):
        return quad(_compact_block(u, k))

    def raising(i, j):    # [[0, v], [0, 0]] with v = e_ij - e_ji
        return quad(_noncompact_block(_antisymmetric(i, j, QI_ONE), {}, k))

    def lowering(i, j):   # [[0, 0], [v*, 0]]
        return quad(_noncompact_block({}, _star(_antisymmetric(i, j, QI_ONE)), k))

    extras = {f"E_{i + 1}{j + 1}": raising(i, j) for i in range(k) for j in range(i + 1, k)}
    extras.update(E_theta=extras["E_12"], F_theta=lowering(0, 1),
                  H_theta=compact(_diagonal(0, 1, 1)),
                  Q=quad(_identity(2 * k)) + WeylElement.scalar(k), H=compact(_identity(k)))
    return GeneratorSet(
        algebra_label=f"so*({4 * n})",
        cartan_matrix=cartan_d_type(k),
        E=[compact(_unit(i, i + 1)) for i in range(k - 1)] + [raising(k - 2, k - 1)],
        F=[compact(_unit(i + 1, i)) for i in range(k - 1)] + [lowering(k - 2, k - 1)],
        H=([compact(_diagonal(i, i + 1, -1)) for i in range(k - 1)]
           + [compact(_diagonal(k - 2, k - 1, 1))]),
        extras=extras,
    )


def so_star_pair_elements(gens: GeneratorSet):
    """(name, element) list spanning so*(4n) for commutant checks.

    Chevalley triples, every noncompact E_ij with its adjoint, and the
    u(1) generator H of the maximal compact u(2n).  The charge operator Q
    lives in the commutant sp(2), not in so*(4n), so it is deliberately
    not included here.
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
        rep.identity(f"{gens.algebra_label}/EF/{i + 1}", d)
    for i in range(r):
        for j in range(r):
            if i != j:
                d = commutator(gens.E[i], gens.F[j])
                rep.identity(f"{gens.algebra_label}/EFcross/{i + 1},{j + 1}", d)
            dh = commutator(gens.H[i], gens.E[j]) - gens.E[j].scale(c[i][j])
            rep.identity(f"{gens.algebra_label}/HE/{i + 1},{j + 1}", dh)
            df = commutator(gens.H[i], gens.F[j]) + gens.F[j].scale(c[i][j])
            rep.identity(f"{gens.algebra_label}/HF/{i + 1},{j + 1}", df)
    for i in range(r):
        for j in range(i + 1, r):
            d = commutator(gens.H[i], gens.H[j])
            rep.identity(f"{gens.algebra_label}/HH/{i + 1},{j + 1}", d)
    for i in range(r):
        for j in range(r):
            if i == j:
                continue
            k = 1 - c[i][j]
            de = ad_power(gens.E[i], gens.E[j], k)
            rep.identity(f"{gens.algebra_label}/serreE/{i + 1},{j + 1}", de)
            df = ad_power(gens.F[i], gens.F[j], k)
            rep.identity(f"{gens.algebra_label}/serreF/{i + 1},{j + 1}", df)
    return rep


def derive_cartan_matrix(gens: GeneratorSet):
    """Read c_ij off the verified eigenvalue relations [H_i, E_j] = c_ij E_j."""
    r = gens.rank
    out = []
    for i in range(r):
        row = []
        for j in range(r):
            c = int_if_integer(scalar_ratio(commutator(gens.H[i], gens.E[j]), gens.E[j]))
            if type(c) is not int:
                raise AlgebraError(f"[H_{i + 1}, E_{j + 1}] is not an integer multiple of E_{j + 1}")
            row.append(c)
        out.append(row)
    return out


def check_theta_sl2(gens: GeneratorSet) -> Report:
    """The distinguished sl2: [H_t, E_t] = 2 E_t, [H_t, F_t] = -2 F_t."""
    rep = Report(f"theta-sl2/{gens.algebra_label}")
    et, ft, ht = (gens.extras[k] for k in ("E_theta", "F_theta", "H_theta"))
    d1 = commutator(ht, et) - et.scale(2)
    rep.identity(f"{gens.algebra_label}/theta/HE", d1)
    d2 = commutator(ht, ft) + ft.scale(2)
    rep.identity(f"{gens.algebra_label}/theta/HF", d2)
    d3 = commutator(et, ft) - ht
    rep.identity(f"{gens.algebra_label}/theta/EF", d3)
    return rep


def check_dual_pair(gens_a: list, gens_b: list, label: str, names_a: list,
                    names_b: list) -> Report:
    """All brackets between the two generator families, named `names_a`
    and `names_b`, must vanish; a name list that does not match its
    family's length raises ValueError rather than skip a bracket."""
    rep = Report(label)
    for na, x in zip(names_a, gens_a, strict=True):
        for nb, y in zip(names_b, gens_b, strict=True):
            d = commutator(x, y)
            rep.identity(f"{label}/[{na},{nb}]", d)
    return rep


# ---------------------------------------------------------------------------
# u(2,2) weight basis and structure of the theta grading


def u22_weight_basis(gens: GeneratorSet, pol: Polarization):
    """16 weight-adapted basis elements spanning u(2,2) over the complex span.

    Off-diagonal matrix units through the polarization map `pol`, then
    three traceless diagonals chosen so membership in the sl2 centralizer
    is readable element by element, then the helicity h of `gens`.  Weight
    vectors diagonalize ad of any Cartan element, which is what the
    grading and centralizer checks need.
    """
    out = []
    for alpha in range(4):
        for beta in range(4):
            if alpha != beta:
                out.append((f"X_{alpha + 1}{beta + 1}",
                            quadratic_from_matrix({(alpha, beta): QI(1)}, pol)))
    diags = {"H_a": [1, -1, 0, 0, ], "H_b": [0, 1, -1, 0], "H_c": [1, -1, -1, 1]}
    for name, d in diags.items():
        out.append((name, quadratic_from_matrix({(a, a): QI(c) for a, c in enumerate(d) if c},
                                                pol)))
    out.append(("h", gens.extras["h"]))
    return out


def su22_weight_basis(gens: GeneratorSet, pol: Polarization):
    return [(n, w) for n, w in u22_weight_basis(gens, pol) if n != "h"]


def theta_grading_check(gens: GeneratorSet, pol: Polarization) -> Report:
    """ad(H_theta) eigenvalues on the su(2,2) basis lie in -2..2, ends 1-dim."""
    rep = Report("theta-grading/su22")
    ht = gens.extras["H_theta"]
    eigencount: dict[int, int] = {}
    ok_all = True
    for name, x in su22_weight_basis(gens, pol):
        lam = scalar_ratio(commutator(ht, x), x)
        c = int_if_integer(lam)
        ok = type(c) is int and -2 <= c <= 2
        ok_all &= ok
        rep.add(f"su22/grading/{name}", ok,
                detail=f"eigenvalue {lam}" if lam is not None else "not an eigenvector")
        if ok:
            eigencount[c] = eigencount.get(c, 0) + 1
    rep.add("su22/grading/end-spaces",
            ok_all and eigencount.get(2, 0) == 1 and eigencount.get(-2, 0) == 1,
            detail=f"eigenvalue multiplicities {dict(sorted(eigencount.items()))}")
    return rep


def sl2_centralizer_check(gens: GeneratorSet, pol: Polarization) -> Report:
    """Exactly 4 su(2,2) basis elements commute with the full theta sl2."""
    rep = Report("sl2-centralizer/su22")
    triple = [gens.extras[k] for k in ("E_theta", "F_theta", "H_theta")]
    elems = dict(su22_weight_basis(gens, pol))
    commuting = [name for name, x in elems.items()
                 if all(commutator(x, t).is_zero() for t in triple)]
    rep.add("su22/centralizer/dimension", len(commuting) == 4,
            detail=f"commuting basis elements: {commuting}")
    span = [elems[n].terms for n in commuting]
    closed = all(linalg.in_span(span, [commutator(elems[x], elems[y]).terms
                                       for x in commuting for y in commuting]))
    rep.add("su22/centralizer/subalgebra", closed,
            detail="closed under commutators within the 4-dim span")
    return rep


# ---------------------------------------------------------------------------
# Casimir relation


def so_star_basis(n: int) -> list[dict]:
    """Real basis of so*(4n) as {(row, col): entry} dicts in the block form
    [[u, v], [v*, -t(u)]]: u(2n) in the compact blocks, then for each
    a < b the antisymmetric v = c (e_ab - e_ba) with c = 1 and c = i."""
    k = 2 * n
    spec = form_spec("so_star", n)
    out = [_compact_block(u, k) for u in unitary_basis([1] * k)]
    for a in range(k):
        for b in range(a + 1, k):
            for c in (QI_ONE, QI_I):
                v = _antisymmetric(a, b, c)
                out.append(_noncompact_block(v, _star(v), k))
    if not all(matrix_membership(out, spec)):
        raise AlgebraError("constructed basis element fails membership")
    if len(out) != k * (2 * k - 1):
        raise AlgebraError("so* basis has the wrong dimension")
    return out


def so_star_matrix_basis(n: int):
    """so_star_basis(n) as dense 4n x 4n rows, for dense matrix products."""
    size = 4 * n
    return [[[x.get((i, j), QI_ZERO) for j in range(size)] for i in range(size)]
            for x in so_star_basis(n)]


def _compact_block(u: dict, k: int) -> dict:
    """The so*(4n) element [[u, 0], [0, -t(u)]] of a k x k block u."""
    return {**u, **{(k + b, k + a): -c for (a, b), c in u.items()}}


def _noncompact_block(v: dict, w: dict, k: int) -> dict:
    """The matrix [[0, v], [w, 0]] of two k x k blocks v and w: an so*(4n)
    element when w = v*, a raising operator's when w = 0 and a lowering
    operator's when v = 0."""
    return {**{(i, k + j): c for (i, j), c in v.items()},
            **{(k + i, j): c for (i, j), c in w.items()}}


def _antisymmetric(i: int, j: int, c: QI) -> dict:
    """c (e_ij - e_ji)."""
    return {(i, j): c, (j, i): -c}


def unitary_basis(signs, traceless: bool = False) -> list[dict]:
    """Real basis of u(p,q) (su(p,q) if traceless) as {(row, col): entry}
    dicts X with X* D + D X = 0, D = diag(signs); u(k) is the case of k
    signs +1.

    The diagonal elements come first (i e_aa, or i(e_aa - e_{a+1,a+1})
    when traceless), then the pair e_ab - s e_ba, i(e_ab + s e_ba) for
    each a < b, where s = signs[a] signs[b].
    """
    k = len(signs)
    if traceless:
        out = [{(a, a): QI_I, (a + 1, a + 1): -QI_I} for a in range(k - 1)]
    else:
        out = [{(a, a): QI_I} for a in range(k)]
    for a in range(k):
        for b in range(a + 1, k):
            s = signs[a] * signs[b]
            out.append({(a, b): QI_ONE, (b, a): QI(-s)})
            out.append({(a, b): QI_I, (b, a): QI(0, s)})
    return out


def _dual_basis(basis: list[dict]) -> list[dict]:
    """The basis dual to `basis` under the trace form tr(xy), each matrix
    as {(row, col): entry}.

    The Gram entry tr(x_a x_b) sums v * w over the entries v = x_a[i][k]
    and w = x_b[k][i], so an index from each position to the basis
    matrices nonzero there reaches only the pairs that share one.  All the
    Gram rows are summed in one kernel call keyed by (a, b), and all the
    dual rows in another keyed by (a, position).
    """
    n = len(basis)
    at: dict = {}
    for b, x in enumerate(basis):
        linalg.index_positions(at, b, x)
    gram = sum_batches(chain.from_iterable(linalg.trace_items(x, at, 1, a)
                                           for a, x in enumerate(basis)), n)
    if not all(c.is_real() for row in gram for c in row.values()):
        raise AlgebraError("the trace form is not real on the basis")
    # dual a = sum_b inv[a][b] basis[b], over the nonzeros of both
    return sum_batches((((a, ik), c, v, 1) for a, inv_row in enumerate(linalg.inverse(gram))
                        for b, c in inv_row.items() for ik, v in basis[b].items()), n)


def casimir_elements(gens: GeneratorSet, pol: Polarization):
    """(C_so, C_u, symmetrized sum of E_ij E_ij*) for the so*(4n) set `gens`,
    with quadratics read through the polarization `pol` of its 4n modes.

    All dual bases are taken with respect to one uniform pairing, the trace
    form of the defining 4n-dimensional representation; the center term of
    the maximal compact u(2n) then carries H^2/(4n), and the noncompact
    products enter Weyl (symmetrically) ordered.  In this normalization the
    Casimir relation C_so = C_u - sym(E E*) holds exactly, with unit scale
    and no central constant, which casimir_defect certifies.  The
    quadratics of both bases and their duals are read in one kernel call,
    and each of the three is summed over all of its products in one more.
    """
    k = pol.size // 2
    n = k // 2
    so_basis = so_star_basis(n)
    su_basis = [_compact_block(u, k) for u in unitary_basis([1] * k, traceless=True)]
    m, p = len(so_basis), len(su_basis)
    quads = quadratics_from_matrices(
        so_basis + _dual_basis(so_basis) + su_basis + _dual_basis(su_basis), pol)
    c_so = sum_of_products(zip(quads[:m], quads[m:2 * m]))
    h = gens.extras["H"]
    c_u = sum_of_products(chain(zip(quads[2 * m:2 * m + p], quads[2 * m + p:]),
                                [(h.scale(Fraction(1, 4 * n)), h)]))
    ee = []
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            eij = gens.extras[f"E_{i}{j}"]
            fij = eij.adjoint()
            ee += [(eij, fij), (fij, eij)]
    return c_so, c_u, sum_of_products(ee).scale(Fraction(1, 2))


def casimir_defect(gens: GeneratorSet, pol: Polarization):
    """Defect D = C_so - C_u + sym(E E*), with its centrality records and
    the record that it is zero: the Casimir relation at unit scale."""
    # created before the Casimir elements, so its first record is charged with them
    rep = Report(f"casimir/{gens.algebra_label}")
    c_so, c_u, ee = casimir_elements(gens, pol)
    d = c_so - c_u + ee
    for i, (e, f, h) in enumerate(zip(gens.E, gens.F, gens.H), start=1):
        for tag, g in (("E", e), ("F", f), ("H", h)):
            c = commutator(d, g)
            rep.identity(f"{gens.algebra_label}/casimir/[D,{tag}{i}]", c)

    ok = d.is_zero()
    rep.add(f"{gens.algebra_label}/casimir/scale-search", ok,
            detail="exact equality at lambda = 1" if ok else "C_so - C_u + sym(E E*) is not zero",
            defect=render_defect(d))
    return d, rep


# ---------------------------------------------------------------------------
# Nilpotent cone relation for so*(8)


def nilpotent_cone_defect(gens: GeneratorSet):
    """The degree-two relation among the so*(8) set's raising operators."""
    ex = gens.extras
    lhs = (normal_product(ex["E_12"], ex["E_34"])
           + normal_product(ex["E_14"], ex["E_23"]))
    return lhs - normal_product(ex["E_13"], ex["E_24"])


def nilpotent_cone_check(gens: GeneratorSet) -> Report:
    rep = Report("nilpotent-cone/so*(8)")
    d = nilpotent_cone_defect(gens)
    rep.identity("so*(8)/cone/identity", d)
    ex = gens.extras
    corrupted = (normal_product(ex["E_12"], ex["E_34"])
                 + normal_product(ex["E_14"], ex["E_23"])
                 - normal_product(ex["E_14"], ex["E_24"]))
    rep.add("so*(8)/cone/negative-control", not corrupted.is_zero(),
            negative_control=True,
            detail="E_13 replaced by E_14 must break the identity")
    return rep
