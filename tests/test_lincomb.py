"""Algebraic laws of the sparse linear-combination core, its subclasses and the
Weyl algebra: products, commutators, adjoints and Fock matrices."""

from __future__ import annotations

from fractions import Fraction

import pytest

from minrep.bilocal import WickElement
from minrep.fockspace import enumerate_basis, operator_matrix, safe_columns
from minrep.lincomb import combine
from minrep.poly import Poly
from minrep.scalars import QI
from minrep.weylalg import WeylElement, WeylMonomial, commutator, normal_product

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# Fixed and derandomized, so every run checks the same examples.
PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=60,
                   suppress_health_check=[HealthCheck.too_slow])

# Few keys and small coefficients, so that sums cancel often.
fractions = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2]))
gaussians = st.builds(QI, fractions, fractions)


def _terms(keys, coeffs):
    return st.dictionaries(keys, coeffs, max_size=4)


def _wick_elements():
    fields = st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)), max_size=2)
    pairs = st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)), max_size=2)
    keys = st.tuples(fields.map(lambda fs: tuple(sorted(fs))),
                     pairs.map(lambda ps: tuple(sorted(ps))))
    return _terms(keys, fractions).map(WickElement)


def _weyl_elements():
    modes = st.lists(st.sampled_from([("a", 1), ("a", 2)]), max_size=2)
    monos = st.builds(WeylMonomial.make, modes, modes)
    return _terms(monos, gaussians).map(WeylElement)


def _polys():
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return _terms(exps, gaussians).map(Poly)


# kind -> (element strategy, strategy for a scalar already in the ring, or
# None for a kind that has no scale)
KINDS = {
    "Poly": (_polys(), gaussians),
    "WickElement": (_wick_elements(), None),
    "WeylElement": (_weyl_elements(), gaussians),
}


def _no_zero_coefficient(x) -> bool:
    return all(c for c in x.terms.values())


@pytest.mark.parametrize("kind", sorted(KINDS))
@PROFILE
@given(data=st.data())
def test_addition_laws(kind, data):
    elems, _ = KINDS[kind]
    a, b, c = data.draw(elems), data.draw(elems), data.draw(elems)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a - b) + b == a
    assert (a - a).is_zero() and not (a - a)
    assert all(_no_zero_coefficient(x) for x in (a, a + b, a - b, -a))


@pytest.mark.parametrize("kind", ["Poly", "WeylElement"])      # WickElement has no scale
@PROFILE
@given(data=st.data())
def test_scale_distributes(kind, data):
    elems, scalars = KINDS[kind]
    a, b = data.draw(elems), data.draw(elems)
    s, t = data.draw(scalars), data.draw(scalars)
    assert (a + b).scale(s) == a.scale(s) + b.scale(s)
    assert a.scale(s + t) == a.scale(s) + a.scale(t)
    assert _no_zero_coefficient(a.scale(s))


@pytest.mark.parametrize("kind", sorted(KINDS))
@PROFILE
@given(data=st.data())
def test_equal_elements_hash_equal(kind, data):
    elems, _ = KINDS[kind]
    a, b = data.draw(elems), data.draw(elems)
    rebuilt = (a + b) - b   # same value, dict built in another order
    assert rebuilt == a
    assert hash(rebuilt) == hash(a)


@PROFILE
@given(x=_weyl_elements(), y=_weyl_elements(), z=_weyl_elements())
def test_normal_product_associative(x, y, z):
    left = normal_product(normal_product(x, y), z)
    assert left == normal_product(x, normal_product(y, z))
    assert _no_zero_coefficient(left)


@PROFILE
@given(x=_weyl_elements(), y=_weyl_elements(), z=_weyl_elements())
def test_commutator_jacobi_identity(x, y, z):
    total = (commutator(x, commutator(y, z)) + commutator(y, commutator(z, x))
             + commutator(z, commutator(x, y)))
    assert total.is_zero()


@PROFILE
@given(x=_weyl_elements(), y=_weyl_elements())
def test_adjoint_reverses_normal_products(x, y):
    assert normal_product(x, y).adjoint() == normal_product(y.adjoint(), x.adjoint())
    assert x.adjoint().adjoint() == x


# Modes of two flavors (the second index), shared between the operands or
# not; lists of up to three modes repeat them, and an empty pair of lists
# is the scalar monomial.  Coefficients have non-integer real and
# imaginary parts.
_FLAVOR_MODES = [("a", 1, 1), ("a", 2, 1), ("a", 1, 2), ("b", 1, 2)]
_thirds = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))


def _two_flavor_elements():
    modes = st.lists(st.sampled_from(_FLAVOR_MODES), max_size=3)
    monos = st.builds(WeylMonomial.make, modes, modes)
    return _terms(monos, st.builds(QI, _thirds, _thirds)).map(WeylElement)


_A1 = ("a", 1, 1)


@PROFILE
@given(x=_two_flavor_elements(), y=_two_flavor_elements())
@example(x=WeylElement.monomial([_A1, _A1], [_A1, _A1], QI(Fraction(1, 2), Fraction(-2, 3))),
         y=WeylElement.monomial([_A1, _A1], [_A1], QI(Fraction(-1, 3), Fraction(3, 2)))
         + WeylElement.scalar(QI(Fraction(5, 2), Fraction(1, 3))))
def test_commutator_is_the_difference_of_the_normal_products(x, y):
    br = commutator(x, y)
    assert br == normal_product(x, y) - normal_product(y, x)
    assert _no_zero_coefficient(br)


# Two modes up to level 6: 28 states, and the level-0 to level-2 columns
# survive two factors that each raise the level by at most 2.
_FOCK = enumerate_basis([("a", 1), ("a", 2)], 6)


@PROFILE
@given(x=_weyl_elements(), y=_weyl_elements())
def test_operator_matrix_is_multiplicative_on_safe_columns(x, y):
    mx, my = operator_matrix(x, _FOCK), operator_matrix(y, _FOCK)
    cols = safe_columns(_FOCK, mx.level_raise, my.level_raise)
    assert cols
    mxy = operator_matrix(normal_product(x, y), _FOCK)
    for c in cols:
        assert mxy.apply({c: QI(1)}) == mx.apply(my.apply({c: QI(1)}))


def test_combine_leaves_cancelled_sums_for_the_constructor():
    d12, one = ((), ((1, 2),)), ((), ())
    acc = combine([(d12, Fraction(1)), (one, Fraction(2)), (d12, Fraction(-1))], {})
    assert acc == {d12: 0, one: 2}
    assert WickElement(acc).terms == {one: 2}


def test_elements_are_immutable():
    for x in (Poly(), WickElement(), WeylElement()):
        with pytest.raises(AttributeError):
            x.terms = {}
