"""QI against the two-Fraction implementation it replaced, and the field laws.

``FractionQI`` below is that implementation, kept as an oracle: each
operation of ``QI``, with ``QI``, ``int`` and ``Fraction`` operands on
either side, must give the value, ``str``, ``repr`` and hash the oracle
gives.  The oracle's ``__str__`` renders a negative imaginary part in full
("2-3i"); the replaced code dropped its leading digit ("2-i").
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd

import pytest

from minrep.scalars import QI, sum_products

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# Fixed and derandomized, so every run checks the same examples.
PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=300,
                   suppress_health_check=[HealthCheck.too_slow])


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot build an exact scalar from {type(x).__name__}")


class FractionQI:
    """Gaussian rational re + im*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    @staticmethod
    def of(x):
        return x if isinstance(x, FractionQI) else FractionQI(_frac(x))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, FractionQI):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        o = FractionQI.of(other)
        return FractionQI(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return FractionQI(-self.re, -self.im)

    def __sub__(self, other):
        o = FractionQI.of(other)
        return FractionQI(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return FractionQI.of(other) - self

    def __mul__(self, other):
        o = FractionQI.of(other)
        return FractionQI(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = FractionQI.of(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero in QI")
        return FractionQI((self.re * o.re + self.im * o.im) / n,
                          (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        return FractionQI.of(other) / self

    def conj(self):
        return FractionQI(self.re, -self.im)

    def __repr__(self):
        return f"QI({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return _imag_str(self.im)
        return f"{self.re}{'+' if self.im > 0 else '-'}{_imag_str(abs(self.im))}"


def _imag_str(im: Fraction) -> str:
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return f"{im}i"


# Denominators with common factors, so that sums and products need reducing.
fractions = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 12]))
plain = st.one_of(st.integers(-6, 6), fractions)          # int or Fraction operands
components = st.tuples(plain, plain)


def _fields(q: QI) -> tuple:
    return q._a, q._b, q._d


def _agrees(got, want) -> bool:
    return (isinstance(got, QI) and got.re == want.re and got.im == want.im
            and hash(got) == hash(want) and str(got) == str(want)
            and repr(got) == repr(want))


def _reduced(q: QI) -> bool:
    a, b, d = _fields(q)
    return d > 0 and gcd(a, b, d) == 1 and all(type(x) is int for x in (a, b, d))


@PROFILE
@given(x=components, y=components)
def test_binary_operations_agree_with_the_oracle(x, y):
    new, old = (QI(*x), QI(*y)), (FractionQI(*x), FractionQI(*y))
    assert _agrees(new[0], old[0])
    for op in ("__add__", "__sub__", "__mul__", "__radd__", "__rsub__", "__rmul__"):
        assert _agrees(getattr(new[0], op)(new[1]), getattr(old[0], op)(old[1])), op
    if old[1]:
        assert _agrees(new[0] / new[1], old[0] / old[1])
    else:
        with pytest.raises(ZeroDivisionError):
            new[0] / new[1]
    assert _agrees(-new[0], -old[0])
    assert _agrees(new[0].conj(), old[0].conj())
    assert (new[0] == new[1]) == (old[0] == old[1])
    assert bool(new[0]) == bool(old[0])


@PROFILE
@given(x=components, s=plain)
def test_mixed_operands_agree_with_the_oracle(x, s):
    new, old = QI(*x), FractionQI(*x)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for args, oracle_args in (((new, s), (old, s)), ((s, new), (s, old))):
            try:
                want = op(*oracle_args)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    op(*args)
                continue
            assert _agrees(op(*args), want), (op, args)
    assert (new == s) == (old == s) and (s == new) == (s == old)
    assert QI(s) == s and hash(QI(s)) == hash(s) == hash(QI.of(s))


@PROFILE
@given(x=components, y=components, z=components)
def test_field_axioms(x, y, z):
    a, b, c = QI(*x), QI(*y), QI(*z)
    zero, one = QI(0), QI(1)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a
    assert a + (-a) == zero and a - a == zero
    if a:
        assert a * (one / a) == one and (b / a) * a == b
    assert (a * b).conj() == a.conj() * b.conj()
    results = [a, a + b, a - b, a * b, -a, a.conj(), a + 2, 4 - a, a * 3, a * 0]
    if b:
        results.append(a / b)
    assert all(_reduced(q) for q in results)


@PROFILE
@given(x=components, y=components, z=components)
def test_equal_values_have_equal_fields(x, y, z):
    a, b, c = QI(*x), QI(*y), QI(*z)
    # the same value reached along different paths
    for one, other in (((a + b) - b, a), (a * (b + c), a * b + a * c),
                       ((a + b) + c, a + (b + c)), (QI(*x), QI(a.re, a.im))):
        assert one == other
        assert _fields(one) == _fields(other)
        assert hash(one) == hash(other)
    if b:
        assert _fields((a * b) / b) == _fields(a)
    assert _fields(a - a) == _fields(QI(0)) == (0, 0, 1)


def test_str_renders_a_negative_imaginary_part_in_full():
    assert str(QI(2, -3)) == "2-3i"
    assert str(QI(2, -1)) == "2-i"
    assert str(QI(Fraction(1, 2), Fraction(-5, 3))) == "1/2-5/3i"
    assert str(QI(2, 3)) == "2+3i" and str(QI(0, -1)) == "-i"


# ---------------------------------------------------------------------------
# sum_products: sums of products in ints, each total reduced once

operands = st.one_of(plain, st.builds(lambda c: QI(*c), components))
# int weights, zero among them
product_items = st.lists(st.tuples(st.integers(0, 3), operands, operands,
                                   st.integers(-3, 3)), max_size=12)


def _oracle_sums(items) -> dict:
    out: dict = {}
    for key, x, y, w in items:
        out[key] = out.get(key, FractionQI(0)) + _value(x) * _value(y) * w
    return {k: v for k, v in out.items() if v}


def _value(x):
    return FractionQI(x.re, x.im) if isinstance(x, QI) else FractionQI.of(x)


@PROFILE
@given(items=product_items)
def test_sum_products_agrees_with_the_oracle(items):
    got, want = sum_products(items), _oracle_sums(items)
    assert got.keys() == want.keys()
    for key, s in got.items():
        assert _agrees(s, want[key]), key
        assert _fields(s) == _fields(QI(want[key].re, want[key].im))


@PROFILE
@given(items=product_items)
def test_sum_products_equals_plain_qi_sums(items):
    plain_sums: dict = {}
    for key, x, y, w in items:
        plain_sums[key] = plain_sums.get(key, QI(0)) + QI.of(x) * QI.of(y) * w
    got = sum_products(items)
    assert got == {k: v for k, v in plain_sums.items() if v}
    assert all(_fields(s) == _fields(plain_sums[k]) and _reduced(s) for k, s in got.items())


@PROFILE
@given(items=product_items)
def test_sum_products_drops_totals_that_cancel(items):
    # each product once with each sign: every total is zero
    assert sum_products(items + [(k, x, y, -w) for k, x, y, w in items]) == {}
    # a key whose products cancel is left out, the others are kept
    cancelled = [("gone", x, y, w) for _, x, y, w in items]
    cancelled += [("gone", y, x, -w) for _, x, y, w in items]
    assert sum_products(items + cancelled) == sum_products(items)


def test_sum_products_reads_int_fraction_and_qi_operands():
    half = Fraction(1, 2)
    got = sum_products([("a", 2, half, 1), ("a", QI(0, 1), QI(0, 1), 1),
                        ("b", half, QI(1, Fraction(1, 3)), -1), ("c", 3, 4, 1)])
    assert got == {"b": QI(-half, Fraction(-1, 6)), "c": QI(12)}   # "a": 1 - 1 = 0
    assert _fields(got["b"]) == (-3, -1, 6) and _fields(got["c"]) == (12, 0, 1)
    assert sum_products([]) == {} and sum_products(iter(())) == {}
    with pytest.raises(TypeError):
        sum_products([("a", 1.5, 1, 1)])


def test_sum_products_weighs_each_product_and_reads_ints_without_a_qi(monkeypatch):
    third = QI(Fraction(1, 3), 1)
    items = [("a", 2, 3, -2), ("a", 5, 7, 0), ("b", third, 3, 2), ("b", 4, third, -1),
             ("c", QI(0, 1), QI(0, 1), 3)]
    want = {"a": QI(-12), "b": QI(Fraction(2, 3), 2), "c": QI(-3)}
    assert sum_products(items) == want
    assert _fields(sum_products(items)["b"]) == (2, 6, 3)
    assert sum_products([("z", 5, 7, 0), ("z", QI(0, 1), 2, 0)]) == {}

    def no_qi(x):
        raise AssertionError(f"built a QI for {x!r}")
    monkeypatch.setattr(QI, "of", staticmethod(no_qi))
    assert sum_products(items) == want
