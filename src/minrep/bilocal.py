"""Wick calculus for normal-ordered products of free fields at labeled points.

Fields phi_f(x_k) carry a flavor f and a point label k; the two-point
contractions D+_{kl} are kept as algebraically independent commuting
symbols, so every identity proved here is an identity of Wick
combinatorics with no analytic input.  A Wick element is one flat sum
{(normal product, D-monomial): QI coefficient}, a D-monomial being a
sorted tuple of (k, l) pairs, to which a product appends its contraction
set.  The product and the commutator share one kernel: it hands each
Wick term's coefficient product to ``scalars.sum_products`` once, keyed
by (normal product, coefficient monomial, contraction set), which sums
them in ints and reduces each total once, and builds the element once
from those totals; it reads each pair of normal products' contraction
sets from a bounded cache, since the same pairs of fields meet again in
every product of bilinears.  The commutator is formed from the
contracted terms alone, since the uncontracted terms of uv and vu
cancel, and its transposed half is formed once per total, not once per
product.  The closed form writes each label product as an index sum over
the nonzero entries, keyed like the Wick terms, a route apart from the
Wick combinatorics.  The formula check hands the Wick commutator's terms
and minus the closed form's of any number of tagged label pairs to one
``scalars.sum_products`` call, keyed by tag, each label's field built
once per call at each of its point pairs; a pair passes when none of
its totals is left, and the totals left, grouped pair by pair with their
transposed halves, are its defect, of which a failing check renders the
first terms.  Both routes sum through that kernel, so the check does not
test it; its oracle tests do.  On top of the engine sit the closed commutator
formula for matrix-labeled bilinears, the Frobenius pairing of the
labeling matrix algebra, and the real/complex/quaternionic commutant
classification.  Every matrix here, from the Wick labels of the formula
and Frobenius checks to the t-algebras, their commutants, the canonical
real forms and their invariance algebras, is a ``{(row, col): entry}``
dict of its nonzero entries, the format of ``linalg.product``, with a
size given alongside, and every entry outside that size is refused.  A
sign test on a commutant value asserts that the value is real.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from . import linalg
from .lincomb import LinComb, combine
from .reports import Report
from .scalars import QI, QI_ONE, QI_ZERO, sum_products

# ---------------------------------------------------------------------------
# Wick elements

_EMPTY = ()


class WickElement(LinComb):
    """Linear combination of D-monomials times normal products: the terms
    are {(normal product, D-monomial): QI coefficient}, a normal product a
    sorted tuple of (point, flavor) fields, a D-monomial a sorted tuple of
    (k, l) pairs standing for the product of the symbols D+_{kl}."""

    __slots__ = ()

    def _term(self, key, c) -> str:
        fields, mono = key
        np = "".join(f"phi{f}(x{p})" for p, f in fields)
        return f"({c})" + "".join(f"*D{k}{l}" for k, l in mono) + (f" :{np}:" if np else "")


def _contraction_sets(left: tuple, right: tuple):
    """Yield (contracted (k, l) pairs, uncontracted left, uncontracted right).

    Walks the left fields one at a time, pairing each either with nothing
    or with one unused right field of the same flavor; the first set yielded
    is the empty one.
    """
    if not left or not right:
        yield _EMPTY, left, right
        return
    head, tail = left[0], left[1:]
    # head stays uncontracted
    for pairs, ra, rb in _contraction_sets(tail, right):
        yield pairs, (head,) + ra, rb
    # head contracts with each matching right field
    for idx, other in enumerate(right):
        if head[1] != other[1]:
            continue
        pair = ((head[0], other[0]),)
        rest = right[:idx] + right[idx + 1:]
        for pairs, ra, rb in _contraction_sets(tail, rest):
            yield pair + pairs, ra, rb


def _flavor_sharing_pairs(u: WickElement, v: WickElement):
    """The pairs of terms of u and v that have a flavor in common, which are
    exactly those with a nonempty contraction set, found by indexing v's
    terms by flavor."""
    by_flavor: dict = {}
    for kb, cb in v.terms.items():
        for _, g in kb[0]:
            by_flavor.setdefault(g, {})[kb] = cb
    for term in u.terms.items():
        shared: dict = {}
        for _, f in term[0][0]:
            shared.update(by_flavor.get(f, {}))
        for other in shared.items():
            yield term, other


# The (left, right) normal-product pairs whose contraction sets are kept: the
# bilinear pairs of two L x L labels number L**4, 4096 at the L = 8 cap.
_CONTRACTION_CACHE_SIZE = 4096


@lru_cache(maxsize=_CONTRACTION_CACHE_SIZE)
def _contractions(left: tuple, right: tuple) -> tuple:
    """The contraction sets of two normal products, the empty set first, each
    as the (uncontracted normal product, (), sorted pairs) key that a
    product of constant coefficients takes."""
    return tuple((tuple(sorted(ra + rb)), _EMPTY, tuple(sorted(pairs)))
                 for pairs, ra, rb in _contraction_sets(left, right))


# The distinct contraction sets whose transposes are kept; a product of two
# bilinears has six nonempty ones.
_TRANSPOSE_CACHE_SIZE = 4096


@lru_cache(maxsize=_TRANSPOSE_CACHE_SIZE)
def _transposed(pairs: tuple) -> tuple:
    """tS: the sorted pairs (l, k) of a set S of contraction pairs (k, l)."""
    return tuple(sorted((l, k) for k, l in pairs))


def _grouped(totals: dict, commutator: bool) -> WickElement:
    """The WickElement of {(normal product, coefficient monomial m, pairs S):
    coefficient} totals: each adds +c at (normal product, m+S), and for a
    commutator -c at (normal product, m+tS), the transpose acting on S
    alone.  A term that two totals reach is summed, and a zero sum dropped."""
    out: dict = {}
    for (key, mono, pairs), c in totals.items():
        halves = ((pairs, c), (_transposed(pairs), -c)) if commutator else ((pairs, c),)
        combine((((key, tuple(sorted(mono + s)) if mono else s), x) for s, x in halves), out)
    return WickElement(out)


def _wick_sum(term_pairs, commutator: bool) -> WickElement:
    """Sum the Wick terms of the given pairs of terms and build the element
    once at the end.  Each pair's coefficient product c1*c2 goes to
    scalars.sum_products once under every contraction set S, keyed (normal
    product, m1 + m2, S), which sums them in ints and reduces each total
    once; for the commutator the empty set is skipped, and _grouped adds
    each total at S and its negative at the transpose tS."""
    return _grouped(sum_products(_wick_items(term_pairs, commutator)), commutator)


def _wick_items(term_pairs, commutator: bool):
    """((normal product, m, S), c1, c2, 1) for every pair of terms (c1 D+_m1,
    c2 D+_m2) and contraction set S, with m = m1 + m2; the commutator skips
    the empty set.  A pair of terms with no D-monomial takes the set's key
    as it is."""
    for ((fa, m1), c1), ((fb, m2), c2) in term_pairs:
        sets = _contractions(fa, fb)
        if commutator:
            sets = sets[1:]
        m = m1 + m2
        if not m:
            for key in sets:
                yield key, c1, c2, 1
            continue
        for key, _, pairs in sets:
            yield (key, m, pairs), c1, c2, 1


def wick_product(u: WickElement, v: WickElement) -> WickElement:
    """Product of normal-ordered elements by summing over contraction sets."""
    return _wick_sum(((a, b) for a in u.terms.items() for b in v.terms.items()), False)


def wick_commutator(u: WickElement, v: WickElement) -> WickElement:
    """[u, v] from one walk over the contraction sets S of uv: those of vu are
    the transposes tS, over the same coefficients D+_m and uncontracted
    fields, so each nonempty S adds D+_{m+S} - D+_{m+tS}, and the empty set
    cancels.  Each product is summed once, under S, and the minus half is
    formed once per total.  Only the pairs of terms that share a flavor are
    visited."""
    return _wick_sum(_flavor_sharing_pairs(u, v), True)


# ---------------------------------------------------------------------------
# Matrix-labeled bilinears and the closed commutator formula


def bilocal_field(m, p: int, q: int) -> WickElement:
    """V_M(x_p, x_q) = sum_ij M_ij :phi_i(x_p) phi_j(x_q):, linear in M,
    for a dense label M given as a list of rows.  No command builds a field
    from a dense label; the layer benchmark in perfbench/ does."""
    return _field((((i, j), c) for i, row in enumerate(m) for j, c in enumerate(row)), p, q)


def _field(entries, p: int, q: int) -> WickElement:
    """V_M(x_p, x_q) of the ((i, j), M_ij) entries of M, 0-based i and j, at
    two distinct points, so each nonzero entry is its own term; the lower
    point comes first, as V_M(x_p, x_q) = V_tM(x_q, x_p)."""
    if p == q:
        raise ValueError(f"a bilocal field takes two distinct points, got {p} twice")
    if p > q:
        return _field((((j, i), c) for (i, j), c in entries), q, p)
    return WickElement._nonzero({(((p, i + 1), (q, j + 1)), _EMPTY): QI.of(c)
                                 for (i, j), c in entries if c})


# The four single contractions of the closed form: D_kl V(p, x; q, y) times
# sum_s A_x B_y, where A is read from M and B from M', each from its rows
# (A_x = M_sx) or, where the flag is set, from its columns (A_x = M_xs).
_SINGLES = ((False, False, 2, 4, (1, 3)),   # D13 V_{tM M'}(2, 4): sum_s M_sx M'_sy
            (True, True, 1, 3, (2, 4)),     # D24 V_{M tM'}(1, 3): sum_s M_xs M'_ys
            (True, False, 1, 4, (2, 3)),    # D23 V_{M M'}(1, 4): sum_s M_xs M'_sy
            (False, True, 2, 3, (1, 4)))    # D14 V_{M' M}(3, 2): sum_s M_sx M'_ys


# The plus halves D+_{13} D+_{24} and D+_{14} D+_{23} of DD_{12,34} and
# DD_{12,43}, which the two traces multiply, keyed like the Wick items
_CENTRALS = tuple((_EMPTY, _EMPTY, ((1, i), (2, j))) for i, j in ((3, 4), (4, 3)))


@lru_cache(maxsize=16)
def _single_keys(size: int) -> tuple:
    """Per single contraction, keys[x][y] = the +D+_kl key of its normal
    product :phi_x(x_p) phi_y(x_q):, 0-based x and y."""
    span = range(1, size + 1)
    return tuple(tuple(tuple((tuple(sorted(((p, x), (q, y)))), _EMPTY, ((k, l),))
                             for y in span) for x in span)
                 for *_, p, q, (k, l) in _SINGLES)


def _closed_form_items(m: dict, mp: dict, size: int, w: int):
    """((normal product, (), S), x, y, w) for every product of the closed
    form, each label product an index sum over the nonzero entries: each
    entry of M meets one row or column of M', read from dicts, so a pair
    of labels costs its entries, not its size.  S is +D+_kl for a single
    contraction and D+_{1i} D+_{2j} for a central one, whose transposed
    halves _grouped forms.  w = -1 gives minus the closed form.  Raises
    ValueError, before its first item, on an entry of M or M' outside
    size x size."""
    _require_size((m, mp), size)
    rows, cols = {}, {}
    for (i, j), c in mp.items():
        if c:
            rows.setdefault(i, []).append((j, c))
            cols.setdefault(j, []).append((i, c))
    tables = _single_keys(size)
    for (i, j), a in m.items():
        if not a:
            continue
        for (m_cols, mp_cols, *_), table in zip(_SINGLES, tables):
            # the summed index s and the free index x of A_x = M_sx, or of M_xs
            s, x = (j, i) if m_cols else (i, j)
            row = table[x]
            for y, b in (cols if mp_cols else rows).get(s, ()):
                yield row[y], a, b, w
        # tr(tM M') DD_{12,34} + tr(M M') DD_{12,43}: M_ij M'_ij and M_ij M'_ji
        for key, b in zip(_CENTRALS, (mp.get((i, j)), mp.get((j, i)))):
            if b:
                yield key, a, b, w


def commutator_rhs(m: dict, mp: dict, size: int) -> WickElement:
    """Closed form: D13 V_{tM M'}(2,4) + D24 V_{M tM'}(1,3)
    + D23 V_{M M'}(1,4) + D14 V_{M' M}(3,2)
    + tr(tM M') DD_{12,34} + tr(M M') DD_{12,43}.

    The central coefficients follow the single/double contraction
    bookkeeping: the (1-3)(2-4) pairing carries sum M_ij M'_ij, the
    (1-4)(2-3) pairing carries sum M_ij M'_ji.  For symmetric labels the
    two coincide.  Each product is summed once under its plus half, keyed
    like the Wick items, and _grouped adds the transposed half of each
    total, D_{kl} = D+_{kl} - D+_{lk}.
    """
    return _grouped(sum_products(_closed_form_items(m, mp, size, 1)), True)


def _formula_items(label_pairs, size: int):
    """((tag, key), x, y, w) of each (tag, M, M') pair: minus the closed
    form's products, then the Wick commutator's, under the pair's tag.  The
    closed form goes first, so a label entry outside the size is refused
    before any Wick term of its pair is formed.  Each label's field is
    built once per call at each of its two point pairs, keyed by the
    label's entries, however many pairs it is in."""
    fields: dict = {}

    def field(m: dict, p: int, q: int) -> WickElement:
        key = (p, tuple(m.items()))
        f = fields.get(key)
        if f is None:
            f = fields[key] = _field(m.items(), p, q)
        return f

    for tag, m, mp in label_pairs:
        wick = _wick_items(_flavor_sharing_pairs(field(m, 1, 2), field(mp, 3, 4)), True)
        for key, x, y, w in chain(_closed_form_items(m, mp, size, -1), wick):
            yield (tag, key), x, y, w


def formula_defects(label_pairs, size: int) -> dict:
    """{tag: defect} of each (tag, M, M') pair of size x size labels whose
    Wick commutator [V_M(1,2), V_M'(3,4)] misses the closed form.  Every
    pair's Wick terms and minus its closed form's, each summed once under
    its contraction set S, go to one sum_products call keyed by tag, and
    the totals left are grouped pair by pair, the transposed half formed
    per total.  Every S runs from point 1 or 2 to point 3 or 4, so no tS
    meets an S: the formula holds on every pair exactly when the dict is
    empty."""
    by_tag: dict = {}
    for (tag, key), c in sum_products(_formula_items(label_pairs, size)).items():
        by_tag.setdefault(tag, {})[key] = c
    return {tag: _grouped(totals, True) for tag, totals in by_tag.items()}


def verify_commutator_formula(m: dict, mp: dict, size: int) -> Report:
    """Exact equality of the Wick commutator against the closed form for
    two size x size labels: the one-pair case of formula_defects."""
    rep = Report("bilocal/commutator-formula")
    rep.identity(f"bilocal/formula/L{size}",
                 formula_defects(((0, m, mp),), size).get(0, WickElement()))
    return rep


def misses_transposed_rhs(m: dict, mp: dict, size: int) -> bool:
    """Whether the closed form taken at tM' differs from the Wick commutator
    [V_M(1,2), V_M'(3,4)] of two size x size labels; for a symmetric M' the
    two agree."""
    lhs = wick_commutator(_field(m.items(), 1, 2), _field(mp.items(), 3, 4))
    return lhs != commutator_rhs(m, linalg.dict_transpose(mp), size)


# ---------------------------------------------------------------------------
# Frobenius pairing


def frobenius(m1: dict, m2: dict) -> QI:
    """<M1, M2> = tr(tM1 M2) = sum_ij M1_ij M2_ij, over the entries of M1
    that are also nonzero in M2."""
    return sum_products((0, x, y, 1) for ij, x in m1.items()
                        if x and (y := m2.get(ij))).get(0, QI_ZERO)


def frobenius_property_check(m1: dict, m2: dict, m3: dict) -> Report:
    """<M1 M2, M3> = <M1, M3 tM2>, symmetry, and positivity on M1."""
    rep = Report("bilocal/frobenius")
    lhs = frobenius(linalg.product(m1, m2), m3)
    rhs = frobenius(m1, linalg.product(m3, linalg.dict_transpose(m2)))
    rep.add("frobenius/product-compatibility", lhs == rhs,
            detail=f"{lhs} vs {rhs}")
    rep.add("frobenius/symmetry", frobenius(m1, m2) == frobenius(m2, m1))
    sq = frobenius(m1, m1)
    rep.add("frobenius/positivity", sq.real_fraction() > 0 if any(m1.values()) else sq == 0,
            detail=f"<M,M> = {sq}")
    return rep


# ---------------------------------------------------------------------------
# t-algebras and commutant classification
#
# A matrix here is a {(row, col): entry} dict of its nonzero entries, as in
# linalg, and each algebra names its size.


@dataclass
class TAlgebra:
    basis: list
    size: int

    def __post_init__(self):
        _require_size(self.basis, self.size)
        if linalg.rank(self.basis) != len(self.basis):
            raise ValueError("t-algebra basis is linearly dependent")
        checks = []
        for i, a in enumerate(self.basis):
            checks.append((f"basis element {i} transposes out of the span",
                           linalg.dict_transpose(a)))
            checks += [(f"product {i}*{j} leaves the span", linalg.product(a, b))
                       for j, b in enumerate(self.basis)]
        checks.append(("unital t-algebra must contain the identity", unit_matrix(self.size)))
        for (msg, _), ok in zip(checks, linalg.in_span(self.basis, [t for _, t in checks])):
            if not ok:
                raise ValueError(msg)


def _require_size(mats, size: int):
    """Raise ValueError unless every entry of every matrix lies in size x size."""
    for m in mats:
        if not all(0 <= i < size and 0 <= j < size for i, j in m):
            raise ValueError(f"matrix entry outside {size} x {size}")


def unit_matrix(size: int) -> dict:
    """The size x size identity matrix."""
    return {(i, i): QI_ONE for i in range(size)}


def _sum(*terms) -> dict:
    """The nonzero entries of sum w * m over the (w, m) terms."""
    return sum_products((ij, x, w, 1) for w, m in terms for ij, x in m.items())


class ReducibleAlgebraError(ValueError):
    """The algebra acts reducibly; decompose before classifying."""


def commutant_basis(mats, size: int):
    """Exact solve of M X = X M for all M: basis of the commutant.

    One column per unknown X_ab, over the entries (M, i, j) of M X - X M:
    each nonzero M_rc puts M_rc into X_ck's column at (r, k) and -M_rc into
    X_kr's column at (k, c), for every k.  Raises ValueError on an entry
    outside size x size."""
    _require_size(mats, size)
    cols = [{} for _ in range(size * size)]
    for mi, m in enumerate(mats):
        for (r, c), x in m.items():
            x = QI.of(x)
            for k in range(size):
                combine((((mi, r, k), x),), cols[c * size + k])
                combine((((mi, k, c), -x),), cols[k * size + r])
    return [{divmod(j, size): x for j, x in rel.items()} for rel in linalg.kernel(cols)]


def invariance_algebra(span, size: int):
    """Basis of every antisymmetric A with tA M + M A = 0 for all M in `span`.

    For antisymmetric A that is [M, A] = 0, so these are the antisymmetric
    elements of the commutant.  When the span is closed under transposition
    the commutant is too, and they are the parts X - tX of its elements;
    one reduction of those parts gives the basis.
    """
    parts = [_sum((1, x), (-1, linalg.dict_transpose(x))) for x in commutant_basis(span, size)]
    return linalg.rref(parts)[0]


def commutant_type(alg: TAlgebra):
    """Classify the commutant of an irreducible t-algebra as R, C or H.

    Returns (label, commutant basis).  The division structure over the
    reals is established exactly: dimension 1 is the scalars, since the
    identity commutes with every matrix; dimension 2 needs the traceless
    part of its non-scalar element to square to a negative scalar;
    dimension 4 needs the traceless part to satisfy a Clifford relation
    with negative definite Gram matrix.  Anything else means the algebra
    was reducible over R, reported as an error.
    """
    size = alg.size
    comm = commutant_basis(alg.basis, size)
    dim = len(comm)
    if dim == 1:
        return "R", comm
    traceless = [t for c in comm if (t := _traceless_part(c, size))]
    if dim == 2:
        # two independent elements are not both scalar, so traceless has one
        lam = _scalar_value(linalg.product(traceless[0], traceless[0]), size)
        if lam is None or lam.real_fraction() >= 0:
            raise ReducibleAlgebraError(_REDUCIBLE)
        return "C", comm
    if dim == 4:
        basis3 = _independent(traceless, 3)
        gram = [[QI_ZERO] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                anti = _sum((1, linalg.product(basis3[i], basis3[j])),
                            (1, linalg.product(basis3[j], basis3[i])))
                lam = _scalar_value(anti, size)
                if lam is None:
                    raise ReducibleAlgebraError(_REDUCIBLE)
                gram[i][j] = -lam / 2
        if not _positive_definite(gram):
            raise ReducibleAlgebraError(_REDUCIBLE)
        return "H", comm
    raise ReducibleAlgebraError(_REDUCIBLE)


def _traceless_part(m, size):
    t = sum((x for (i, j), x in m.items() if i == j), QI_ZERO) / size
    return _sum((1, m), (-1, {(i, i): t for i in range(size)}))


def _scalar_value(m, size):
    """lam when m is lam times the identity, else None."""
    lam = m.get((0, 0), QI_ZERO)
    return lam if m == ({(i, i): lam for i in range(size)} if lam else {}) else None


def _independent(mats, want):
    picked = []
    for m in mats:
        if not linalg.in_span(picked, [m])[0]:
            picked.append(m)
            if len(picked) == want:
                return picked
    raise ReducibleAlgebraError("commutant traceless part is too small")


def _positive_definite(g):
    """Sylvester's criterion by one elimination pass without row swaps.

    The k-th pivot is the ratio of the k-th to the (k-1)-th leading minor,
    so every leading minor is positive exactly when every pivot is.
    """
    a = [row[:] for row in g]
    for k, pivot_row in enumerate(a):
        p = pivot_row[k]
        if p.real_fraction() <= 0:
            return False
        for row in a[k + 1:]:
            f = row[k] / p
            for j in range(k, len(row)):
                row[j] -= f * pivot_row[j]
    return True


_REDUCIBLE = ("algebra acts reducibly over R: decompose into isotypic blocks "
              "before classifying")


# ---------------------------------------------------------------------------
# Canonical real forms of the labeling algebras and gauge invariance


_QUAT = {  # (a, b): the product a b of two units, as (unit, sign)
    ("1", "1"): ("1", 1), ("1", "i"): ("i", 1), ("1", "j"): ("j", 1), ("1", "k"): ("k", 1),
    ("i", "1"): ("i", 1), ("i", "i"): ("1", -1), ("i", "j"): ("k", 1), ("i", "k"): ("j", -1),
    ("j", "1"): ("j", 1), ("j", "i"): ("k", -1), ("j", "j"): ("1", -1), ("j", "k"): ("i", 1),
    ("k", "1"): ("k", 1), ("k", "i"): ("j", 1), ("k", "j"): ("i", -1), ("k", "k"): ("1", -1),
}

_UNITS = ("1", "i", "j", "k")


def quaternion_matrix(q: str, side: str) -> dict:
    """4x4 matrix of multiplication by a unit quaternion q, on the "left"
    (u -> q u) or on the "right" (u -> u q)."""
    m = {}
    for col, u in enumerate(_UNITS):
        prod, sign = _QUAT[{"left": (q, u), "right": (u, q)}[side]]
        m[_UNITS.index(prod), col] = QI(sign)
    return m


# the complex unit i on R^2 = C, with J^2 = -1
_J = {(0, 1): QI(-1), (1, 0): QI_ONE}


def _block_diag(block: dict, b: int, copies: int) -> dict:
    """copies of the b x b block down the diagonal."""
    return {(c * b + i, c * b + j): x for c in range(copies) for (i, j), x in block.items()}


def quaternion_left_algebra(n: int):
    """Left multiplications by 1, i, j, k on n quaternionic coordinates."""
    return [_block_diag(quaternion_matrix(q, "left"), 4, n) for q in _UNITS]


def canonical_m_span(kind: str, n: int):
    """The labeling span for N fields over R, C or H in real coordinates.

    R: scalar multiples of the identity on R^N.
    C: {x 1 + y J} on R^(2N) via the regular representation of 1, i.
    H: right multiplications by 1, i, j, k on R^(4N).
    """
    if kind == "R":
        return [unit_matrix(n)]
    if kind == "C":
        return [unit_matrix(2 * n), _block_diag(_J, 2, n)]
    if kind == "H":
        return [_block_diag(quaternion_matrix(q, "right"), 4, n) for q in _UNITS]
    raise ValueError(f"unknown kind {kind!r}")


def _field_variation(v: WickElement, a: dict) -> dict:
    """The nonzero terms of the variation of v under phi_i -> sum_k A_ik phi_k
    at every point: each field of each normal product replaced in turn, all
    summed in one sum_products call.  A is {(i, k): entry} with 0-based i
    and k, and the flavors of v's fields are 1-based."""
    rows: dict = {}
    for (i, k), x in a.items():
        rows.setdefault(i + 1, []).append((k + 1, x))
    return sum_products(((tuple(sorted(fields[:s] + ((p, k),) + fields[s + 1:])), mono), c, x, 1)
                        for (fields, mono), c in v.terms.items()
                        for s, (p, f) in enumerate(fields) for k, x in rows.get(f, ()))


def gauge_dimension(kind: str, n: int) -> int:
    """dim o(N), u(N) or sp(2N): the full invariance algebra of the R, C or H labels."""
    return {"R": n * (n - 1) // 2, "C": n * n, "H": n * (2 * n + 1)}[kind]


def canonical_form_check(kind: str, n: int) -> Report:
    """Closure of the canonical span and its full invariance algebra.

    (a) the span of the labeling matrices is closed under the four
    products of the commutator formula (tM M', M tM', M M', M' M);
    (b) the antisymmetric A with tA M + M A = 0 for every M in the span,
    read off one kernel, span o(N), u(N) or sp(2N) by dimension, so the
    gauge group is all of the bilocal's invariance group;
    (c) every generator of that kernel leaves the bilocal invariant,
    checked both on matrices, as tA M + M A = 0, and in the Wick engine,
    as a vanishing variation of V_M(x_1, x_2) under phi_i -> sum_k A_ik phi_k.
    """
    rep = Report(f"bilocal/canonical/{kind}/N{n}")
    span = canonical_m_span(kind, n)
    size = {"R": 1, "C": 2, "H": 4}[kind] * n
    targets = []
    for a in span:
        ta = linalg.dict_transpose(a)
        targets.append(ta)
        for b in span:
            targets += [linalg.product(ta, b), linalg.product(a, linalg.dict_transpose(b)),
                        linalg.product(a, b), linalg.product(b, a)]
    closed = all(linalg.in_span(span, targets))
    rep.add(f"canonical/{kind}/N{n}/closure", closed,
            detail="span closed under transpose and the four products")
    gauge = invariance_algebra(span, size)
    want = gauge_dimension(kind, n)
    rep.add(f"canonical/{kind}/N{n}/full-invariance", len(gauge) == want,
            detail=f"dim {len(gauge)}, expected {want}")
    ok_mat = True
    ok_wick = True
    bilocals = [_field(m.items(), 1, 2) for m in span]
    for a in gauge:
        ta = linalg.dict_transpose(a)
        if ta != {ij: -x for ij, x in a.items()}:
            ok_mat = False
        for m, v in zip(span, bilocals):
            if _sum((1, linalg.product(ta, m)), (1, linalg.product(m, a))):
                ok_mat = False
            if _field_variation(v, a):
                ok_wick = False
    rep.add(f"canonical/{kind}/N{n}/gauge-matrix", ok_mat,
            detail=f"tA M + M A = 0 for each of the {len(gauge)} kernel generators")
    rep.add(f"canonical/{kind}/N{n}/gauge-wick", ok_wick,
            detail=f"transformed bilocal vanishes in the Wick engine for each of the "
                   f"{len(gauge)} kernel generators")
    try:
        TAlgebra(span, size)
    except ValueError as exc:
        ok, defect = False, str(exc)
    else:
        ok, defect = True, ""
    rep.add(f"canonical/{kind}/N{n}/t-algebra", ok,
            detail="span verified closed under products and transposition",
            defect=defect)
    return rep

