"""Each operator of the massless model and the harmonic modes, a Weyl
element applied by the one walker, against oracles built from
``Poly.diff``, ``Poly.mul_var`` and ``Poly.scale``.

Two oracles stand apart from the walker.  The ``oracle_*`` functions
write each operator's formula term by term, one intermediate polynomial
per step.  ``DiffOp`` writes each as a sum of c * x_u * d_d^k and
applies it one term at a time; L^2 is applied factor by factor.  A
kernel that weighs a second derivative of x^m by m instead of m(m-1)
fails the Laplacian on every monomial with an exponent of 3 or more.
"""

from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from minrep import harmonics, linalg, massless, poly
from minrep.lincomb import column_sum
from minrep.poly import Poly, apply, operator_terms
from minrep.scalars import QI
from minrep.weylalg import WeylElement, WeylMonomial
from monomials import monomials_up_to

NVARS = 4
_I = QI(0, 1)
_HALF = QI(Fraction(1, 2))


def _sum(polys):
    out = Poly()
    for p in polys:
        out = out + p
    return out


def _applied(w: WeylElement, p: Poly) -> Poly:
    return apply(operator_terms(w), p)


def oracle_term(p, u, d, k, a):
    """a x_u d_d^k applied to p one step at a time."""
    for _ in range(k):
        p = p.diff(d)
    if u is not None:
        p = p.mul_var(u)
    return p.scale(QI.of(a))


class DiffOp:
    """The operator {(u, d, k): c}, the sum of c * x_u * d_d^k with the
    factor x_u optional (u None) and no derivative for k = 0, applied one
    term at a time through ``oracle_term``."""

    def __init__(self, terms: dict):
        self.terms = terms

    def __call__(self, p: Poly) -> Poly:
        return _sum(oracle_term(p, u, d, k, a) for (u, d, k), a in self.terms.items())


def oracle_creator(v, vb):
    return lambda p: p.mul_var(v) - p.diff(vb)


def oracle_eff_diff(p, i):
    return p.diff(i) - p.mul_var((i + 2) % 4).scale(_HALF)


def oracle_laplacian(p):
    return _sum(p.diff(i).diff(i) for i in range(NVARS))


def oracle_euler(p):
    return _sum(p.diff(i).mul_var(i) for i in range(NVARS))


def oracle_hamiltonian(p):
    return oracle_euler(p) + p


def oracle_angular(j, p):
    """L_j = i eps_{jkl} z_l d/dz_k on the first three variables."""
    a, b = {1: (1, 2), 2: (2, 0), 3: (0, 1)}[j]
    return p.diff(a).mul_var(b).scale(_I) - p.diff(b).mul_var(a).scale(_I)


def oracle_lowering(p):
    return oracle_angular(1, p) - oracle_angular(2, p).scale(_I)


def oracle_raising(p):
    return oracle_angular(1, p) + oracle_angular(2, p).scale(_I)


def oracle_l_squared(p):
    return _sum(oracle_angular(j, oracle_angular(j, p)) for j in (1, 2, 3))


# The named operators as Weyl elements, applied by the walker.
WEYL = {f"{m[0]}{m[1]}" + ("*" if creator else ""): op
        for (m, creator), op in massless._OPS.items()}
WEYL.update({f"eff_diff{i}": op for i, op in enumerate(massless._EFF_DIFF)})
WEYL.update({f"L{j}": op for j, op in harmonics._L.items()})
WEYL.update({"L-": harmonics._LOWERING, "L+": harmonics._RAISING,
             "euler": harmonics._EULER, "H": harmonics._HAMILTONIAN,
             "laplacian": harmonics._LAPLACIAN, "L^2": harmonics._L_SQUARED})


def _massless_oracles():
    pairs = []
    for mode in massless.MODES:
        kind, alpha = mode
        v = alpha - 1 if kind == "a" else alpha + 1
        vb = (v + 2) % 4
        pairs.append((f"{kind}{alpha}", lambda p, v=v: p.diff(v)))
        pairs.append((f"{kind}{alpha}*", oracle_creator(v, vb)))
    return pairs


ORACLES = _massless_oracles() + [
    (f"eff_diff{i}", lambda p, i=i: oracle_eff_diff(p, i)) for i in range(NVARS)
] + [
    (f"L{j}", lambda p, j=j: oracle_angular(j, p)) for j in (1, 2, 3)
] + [
    ("L-", oracle_lowering),
    ("L+", oracle_raising),
    ("euler", oracle_euler),
    ("H", oracle_hamiltonian),
    ("laplacian", oracle_laplacian),
    ("L^2", oracle_l_squared),
]
PAIRS = [(name, lambda p, name=name: _applied(WEYL[name], p), oracle) for name, oracle in ORACLES]
IDS = [name for name, _, _ in PAIRS]


@pytest.mark.parametrize("name,op,oracle", PAIRS, ids=IDS)
def test_operator_matches_oracle_on_every_monomial(name, op, oracle):
    for mono in monomials_up_to(NVARS, 5):
        p = Poly({mono: QI(1)})
        assert op(p) == oracle(p), (name, mono)


_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_qi = st.builds(QI, _fractions, _fractions)
_polys = st.dictionaries(st.tuples(*[st.integers(0, 4)] * NVARS), _qi,
                         max_size=10).map(Poly)


@settings(max_examples=60, deadline=None)
@given(p=_polys)
def test_operators_match_oracles_on_random_polynomials(p):
    for name, op, oracle in PAIRS:
        assert op(p) == oracle(p), name


def _weyl_term(step) -> WeylMonomial:
    """The Weyl monomial of x_u d_d^k over the modes ("x", i)."""
    u, d, k = step
    return WeylMonomial.make([] if u is None else [("x", u)], [("x", d)] * k)


_var = st.integers(0, NVARS - 1)
_step = st.one_of(st.tuples(st.none() | _var, _var, st.integers(1, 2)),
                  st.tuples(st.none() | _var, st.none(), st.just(0)))
_diffops = st.dictionaries(_step, st.integers(-3, 3) | _qi, min_size=1, max_size=5)


@settings(max_examples=80, deadline=None)
@given(p=_polys, terms=_diffops)
def test_diffop_equals_the_sum_of_its_terms_applied_one_by_one(p, terms):
    # each term c x_u d_d^k is the Weyl monomial x_u* x_d^k, so the walker
    # of the element must give the oracle's sum of its terms applied alone
    w = WeylElement({_weyl_term(step): QI.of(c) for step, c in terms.items()})
    assert _applied(w, p) == DiffOp(terms)(p)


def test_an_int_unit_monomials_image_keeps_int_coefficients():
    z0, z1 = ("z", 0), ("z", 1)
    w = WeylElement({WeylMonomial.make([], [z0, z0]): QI(1),
                     WeylMonomial.make([z1], [z0]): QI(-2),
                     WeylMonomial.make([], []): QI(3)})
    want = {(1, 1, 0, 0): 6, (2, 2, 0, 0): -6, (3, 1, 0, 0): 3}
    column = poly.columns(w)[(3, 1, 0, 0)]
    assert column == want and all(type(c) is int for c in column.values())
    for unit in (1, QI(1)):
        image = _applied(w, Poly({(3, 1, 0, 0): unit}))
        assert image.terms == want
        assert all(type(c) is QI for c in image.terms.values())


def _exponents(modes) -> tuple:
    """The exponent tuple of a multiset of the modes ("u", i)."""
    return tuple(modes.count(("u", i)) for i in range(NVARS))


_multisets = st.lists(_var, max_size=3).map(lambda xs: [("u", x) for x in xs])
_weyl_elements = st.dictionaries(st.tuples(_multisets, _multisets).map(
    lambda ca: WeylMonomial.make(*ca)), st.integers(-3, 3).filter(bool) | _qi.filter(bool),
    min_size=1, max_size=6).map(lambda t: WeylElement({m: QI.of(c) for m, c in t.items()}))


@settings(max_examples=100, deadline=None)
@given(w=_weyl_elements)
def test_the_bargmann_action_is_faithful(w):
    # for b of least total degree among the derivative multidegrees of
    # w = sum c_ab x^a d^b, the column at x^b is b! sum_a c_ab x^a, which
    # is not zero: a nonzero element is a nonzero operator, so an identity
    # of Weyl elements holds on every polynomial
    b = min((_exponents(m.annihilators) for m in w.terms), key=sum)
    want = {_exponents(m.creators): c * prod(map(factorial, b))
            for m, c in w.terms.items() if _exponents(m.annihilators) == b}
    column = poly.columns(w)[b]
    assert column and Poly(column) == Poly(want)


def test_zero_polynomial_evaluates_to_the_rings_zero():
    zero = Poly().evaluate([QI(1)] * NVARS)
    assert type(zero) is QI and zero == QI(0)
    assert Poly().evaluate([Fraction(1, 2)] * 2) == 0
    assert Poly({(1, 0, 1, 0): QI(2)}).evaluate([QI(0, 1)] * NVARS) == QI(-2)


# ---------------------------------------------------------------------------
# Columns: each operator's image of a unit monomial, one walk held in a
# ColumnMap and bracketed by linalg.bracket_defect, against the DiffOp form


def _angular(j) -> DiffOp:
    a, b = {1: (1, 2), 2: (2, 0), 3: (0, 1)}[j]
    return DiffOp({(b, a, 1): _I, (a, b, 1): -_I})


def _add(*ops, scales=None) -> DiffOp:
    terms = {}
    for op, s in zip(ops, scales or [1] * len(ops)):
        for key, c in op.terms.items():
            terms[key] = QI.of(terms.get(key, 0)) + QI.of(c) * s
    return DiffOp(terms)


def _diffops() -> dict:
    out = {}
    for mode in massless.MODES:
        kind, alpha = mode
        v = alpha - 1 if kind == "a" else alpha + 1
        out[f"{kind}{alpha}"] = DiffOp({(None, v, 1): 1})
        out[f"{kind}{alpha}*"] = DiffOp({(v, None, 0): 1, (None, (v + 2) % 4, 1): -1})
    for i in range(NVARS):
        out[f"eff_diff{i}"] = DiffOp({(None, i, 1): 1, ((i + 2) % 4, None, 0): -_HALF})
    for j in (1, 2, 3):
        out[f"L{j}"] = _angular(j)
    out["L-"] = _add(_angular(1), _angular(2), scales=[1, -_I])
    out["L+"] = _add(_angular(1), _angular(2), scales=[1, _I])
    out["euler"] = DiffOp({(i, i, 1): 1 for i in range(NVARS)})
    out["H"] = _add(out["euler"], DiffOp({(None, None, 0): 1}))
    out["laplacian"] = DiffOp({(None, i, 2): 1 for i in range(NVARS)})
    # L^2 = L- L+ + (L3 + 1) L3, applied factor by factor
    l3_plus_one = _add(out["L3"], DiffOp({(None, None, 0): 1}))
    out["L^2"] = lambda p: out["L-"](out["L+"](p)) + l3_plus_one(out["L3"](p))
    return out


DIFFOPS = _diffops()


def _image(columns, p: Poly) -> Poly:
    """p's image read off the columns: the sum of c * columns[m] over p's terms."""
    return Poly(column_sum((r, c * v) for m, c in p.terms.items()
                                  for r, v in columns[m].items()))


def _composed_bracket_defect(x, y, cols, z=None, c=1) -> dict:
    """[X, Y] - cZ on each unit monomial in cols, by applying the oracle
    operators to a Poly one after the other."""
    out = {}
    for m in cols:
        unit = Poly({m: QI(1)})
        col = x(y(unit)) - y(x(unit))
        if z is not None:
            col = col - z(unit).scale(QI.of(c))
        out.update(((m, r), v) for r, v in col.terms.items())
    return out


def test_diffop_columns_match_the_named_operators():
    # every named operator's walker columns equal its DiffOp form's on all
    # 330 monomials of degree <= 7
    assert set(IDS) == set(DIFFOPS) == set(WEYL)
    monos = list(monomials_up_to(NVARS, 7))
    assert len(monos) == 330
    for name, w in WEYL.items():
        cols = poly.columns(w)
        for m in monos:
            assert cols[m] == DIFFOPS[name](Poly({m: QI(1)})).terms, (name, m)


@settings(max_examples=60, deadline=None)
@given(p=_polys)
def test_column_map_image_equals_the_map(p):
    for name, w in WEYL.items():
        assert _image(poly.columns(w), p) == _applied(w, p), name


def test_column_map_forms_each_column_once_from_an_int_unit():
    calls = []
    terms = operator_terms(harmonics._LAPLACIAN)

    def counted(m):
        calls.append(m)
        return poly._column(terms, m)

    lap = linalg.ColumnMap(counted)
    monos = list(monomials_up_to(NVARS, 3))
    for _ in range(2):
        for m in monos:
            lap[m]
    assert calls == monos
    assert all(type(v) is int for m in monos for v in lap[m].values())
    assert lap[(2, 0, 0, 0)] == {(0, 0, 0, 0): 2}


@settings(max_examples=30, deadline=None)
@given(p=_polys)
def test_bracket_columns_are_the_composed_bracket(p):
    for a, b in (("a1", "a1*"), ("a1*", "b1*"), ("L1", "L2"), ("H", "L-"), ("L+", "laplacian"),
                 ("L^2", "L-")):
        x, y = DIFFOPS[a], DIFFOPS[b]
        want = x(y(p)) - y(x(p))
        defect = linalg.bracket_defect(poly.columns(WEYL[a]), poly.columns(WEYL[b]),
                                       list(p.terms), poly.columns(WeylElement.zero()))
        got = Poly(column_sum((r, p.terms[m] * v) for (m, r), v in defect.items()))
        assert got == want, (a, b)


_names = st.sampled_from(sorted(WEYL))


@settings(max_examples=60, deadline=None)
@given(p=_polys, x=_names, y=_names, z=st.none() | _names, c=st.integers(-2, 2) | _qi)
def test_bracket_defect_is_the_composed_bracket_on_each_column(p, x, y, z, c):
    cols = list(p.terms)
    cz = WEYL[z].scale(c) if z else WeylElement.zero()
    got = linalg.bracket_defect(poly.columns(WEYL[x]), poly.columns(WEYL[y]), cols,
                                poly.columns(cz))
    assert got == _composed_bracket_defect(DIFFOPS[x], DIFFOPS[y], cols, z and DIFFOPS[z], c)
    assert all(v for v in got.values())


def test_bracket_defect_is_empty_exactly_on_an_identity():
    monos = list(monomials_up_to(NVARS, 4))
    cols = {name: poly.columns(w) for name, w in WEYL.items()}
    il3, minus_il3 = (poly.columns(WEYL["L3"].scale(c)) for c in (_I, -_I))
    assert not linalg.bracket_defect(cols["L1"], cols["L2"], monos, il3)
    wrong = linalg.bracket_defect(cols["L1"], cols["L2"], monos, minus_il3)
    assert wrong == _composed_bracket_defect(DIFFOPS["L1"], DIFFOPS["L2"], monos,
                                             DIFFOPS["L3"], -_I) != {}
