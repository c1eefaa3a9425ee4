"""Each differential operator of the massless model and the harmonic modes
against its composition of ``Poly.diff``, ``Poly.mul_var`` and ``Poly.scale``.

The compositions below are the oracle: each is the operator's formula
written term by term, one intermediate polynomial per step.  A kernel that
weighs a second derivative of x^m by m instead of m(m-1) fails the
Laplacian on every monomial with an exponent of 3 or more.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from minrep import harmonics, linalg, massless
from minrep.linalg import ColumnMap
from minrep.poly import DiffOp, Poly, column_sum, monomials_up_to
from minrep.scalars import QI

NVARS = 4
_I = QI(0, 1)
_HALF = QI(Fraction(1, 2))


def _sum(polys):
    out = Poly(NVARS)
    for p in polys:
        out = out + p
    return out


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


def _massless_pairs():
    real = massless.realize_schrodinger()
    pairs = []
    for mode in massless.MODES:
        kind, alpha = mode
        v = alpha - 1 if kind == "a" else alpha + 1
        vb = (v + 2) % 4
        pairs.append((f"{kind}{alpha}", real.ops[(mode, False)],
                      lambda p, v=v: p.diff(v)))
        pairs.append((f"{kind}{alpha}*", real.ops[(mode, True)], oracle_creator(v, vb)))
    return pairs


PAIRS = _massless_pairs() + [
    (f"eff_diff{i}", lambda p, i=i: massless.eff_diff(p, i),
     lambda p, i=i: oracle_eff_diff(p, i)) for i in range(NVARS)
] + [
    (f"L{j}", harmonics._L[j], lambda p, j=j: oracle_angular(j, p)) for j in (1, 2, 3)
] + [
    ("L-", harmonics.lowering, oracle_lowering),
    ("L+", harmonics._RAISING, oracle_raising),
    ("euler", harmonics._EULER, oracle_euler),
    ("H", harmonics._HAMILTONIAN, oracle_hamiltonian),
    ("laplacian", harmonics.laplacian, oracle_laplacian),
]
IDS = [name for name, _, _ in PAIRS]


@pytest.mark.parametrize("name,op,oracle", PAIRS, ids=IDS)
def test_operator_matches_oracle_on_every_monomial(name, op, oracle):
    for mono in monomials_up_to(NVARS, 5):
        p = Poly(NVARS, {mono: QI(1)})
        assert op(p) == oracle(p), (name, mono)


_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_qi = st.builds(QI, _fractions, _fractions)
_polys = st.dictionaries(st.tuples(*[st.integers(0, 4)] * NVARS), _qi,
                         max_size=10).map(lambda t: Poly(NVARS, t))


@settings(max_examples=60, deadline=None)
@given(p=_polys)
def test_operators_match_oracles_on_random_polynomials(p):
    for name, op, oracle in PAIRS:
        assert op(p) == oracle(p), name


def oracle_term(p, u, d, k, a):
    """a x_u d_d^k applied to p one step at a time."""
    for _ in range(k):
        p = p.diff(d)
    if u is not None:
        p = p.mul_var(u)
    return p.scale(a)


_var = st.integers(0, NVARS - 1)
_step = st.one_of(st.tuples(st.none() | _var, _var, st.integers(1, 2)),
                  st.tuples(st.none() | _var, st.none(), st.just(0)))
_diffops = st.dictionaries(_step, st.integers(-3, 3) | _qi, min_size=1, max_size=5)


@settings(max_examples=80, deadline=None)
@given(p=_polys, terms=_diffops)
def test_diffop_equals_the_sum_of_its_terms_applied_one_by_one(p, terms):
    want = _sum(oracle_term(p, u, d, k, a) for (u, d, k), a in terms.items())
    assert DiffOp(terms)(p) == want


def test_an_int_unit_monomials_image_keeps_int_coefficients():
    op = DiffOp({(None, 0, 2): 1, (1, 0, 1): -2, (None, None, 0): 3})
    image = op(Poly(NVARS, {(3, 1, 0, 0): 1}))
    assert image.terms == {(1, 1, 0, 0): 6, (2, 2, 0, 0): -6, (3, 1, 0, 0): 3}
    assert all(type(c) is QI for c in image.terms.values())
    image = op(Poly(NVARS, {(3, 1, 0, 0): QI(1)}))
    assert image.terms == {(1, 1, 0, 0): 6, (2, 2, 0, 0): -6, (3, 1, 0, 0): 3}
    assert all(type(c) is QI for c in image.terms.values())


def test_zero_polynomial_evaluates_to_the_rings_zero():
    zero = Poly(NVARS).evaluate([QI(1)] * NVARS)
    assert type(zero) is QI and zero == QI(0)
    assert Poly(2).evaluate([Fraction(1, 2)] * 2) == 0
    assert Poly(NVARS, {(1, 0, 1, 0): QI(2)}).evaluate([QI(0, 1)] * NVARS) == QI(-2)


# ---------------------------------------------------------------------------
# Columns: each operator's image of a unit monomial, read through a ColumnMap
# and bracketed by linalg.bracket_defect


DIFFOPS = {f"{m[0]}{m[1]}" + ("*" if creator else ""): op
           for (m, creator), op in massless._OPS.items()}
DIFFOPS.update({f"eff_diff{i}": op for i, op in enumerate(massless._EFF_DIFF)})
DIFFOPS.update({f"L{j}": op for j, op in harmonics._L.items()})
DIFFOPS.update({"L-": harmonics._LOWERING, "L+": harmonics._RAISING,
                "euler": harmonics._EULER, "H": harmonics._HAMILTONIAN,
                "laplacian": harmonics._LAPLACIAN})


def _image(columns, p: Poly) -> Poly:
    """p's image read off the columns: the sum of c * columns[m] over p's terms."""
    return Poly(NVARS, column_sum((r, c * v) for m, c in p.terms.items()
                                  for r, v in columns[m].items()))


def _composed_bracket_defect(x, y, cols, z=None, c=1) -> dict:
    """[X, Y] - cZ on each unit monomial in cols, by applying the operators
    to a Poly one after the other, the route the kernel replaced."""
    out = {}
    for m in cols:
        unit = Poly(NVARS, {m: QI(1)})
        col = x(y(unit)) - y(x(unit))
        if z is not None:
            col = col - z(unit).scale(QI.of(c))
        out.update(((m, r), v) for r, v in col.terms.items())
    return out


def test_diffop_columns_match_the_named_operators():
    assert {name for name, _, _ in PAIRS} == set(DIFFOPS)
    for name, op, _ in PAIRS:
        for m in monomials_up_to(NVARS, 3):
            assert DIFFOPS[name](Poly(NVARS, {m: QI(1)})) == op(Poly(NVARS, {m: QI(1)}))


@settings(max_examples=60, deadline=None)
@given(p=_polys)
def test_column_map_image_equals_the_map(p):
    for name, op in DIFFOPS.items():
        assert _image(ColumnMap(op.column), p) == op(p), name


def test_column_map_forms_each_column_once_from_an_int_unit():
    calls = []

    def counted(m):
        calls.append(m)
        return harmonics._LAPLACIAN.column(m)

    lap = ColumnMap(counted)
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
    for a, b in (("a1", "a1*"), ("a1*", "b1*"), ("L1", "L2"), ("H", "L-"), ("L+", "laplacian")):
        x, y = DIFFOPS[a], DIFFOPS[b]
        want = x(y(p)) - y(x(p))
        defect = linalg.bracket_defect(ColumnMap(x.column), ColumnMap(y.column), list(p.terms))
        got = Poly(NVARS, column_sum((r, p.terms[m] * v) for (m, r), v in defect.items()))
        assert got == want, (a, b)


_names = st.sampled_from(sorted(DIFFOPS))


@settings(max_examples=60, deadline=None)
@given(p=_polys, x=_names, y=_names, z=st.none() | _names, c=st.integers(-2, 2) | _qi)
def test_bracket_defect_is_the_composed_bracket_on_each_column(p, x, y, z, c):
    x, y, z = DIFFOPS[x], DIFFOPS[y], z and DIFFOPS[z]
    cols = list(p.terms)
    got = linalg.bracket_defect(ColumnMap(x.column), ColumnMap(y.column), cols,
                                z and ColumnMap(z.column), c)
    assert got == _composed_bracket_defect(x, y, cols, z, c)
    assert all(v for v in got.values())


def test_bracket_defect_is_empty_exactly_on_an_identity():
    monos = list(monomials_up_to(NVARS, 4))
    cols = {name: ColumnMap(op.column) for name, op in DIFFOPS.items()}
    assert not linalg.bracket_defect(cols["L1"], cols["L2"], monos, cols["L3"], _I)
    wrong = linalg.bracket_defect(cols["L1"], cols["L2"], monos, cols["L3"], -_I)
    assert wrong == _composed_bracket_defect(DIFFOPS["L1"], DIFFOPS["L2"], monos,
                                             DIFFOPS["L3"], -_I) != {}
