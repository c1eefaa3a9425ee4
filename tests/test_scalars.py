from fractions import Fraction

import pytest

from minrep.scalars import QI, QIS, QIS_INV_SQRT2, QIS_SQRT2, residues


def test_qi_field_arithmetic():
    a = QI(Fraction(3, 2), Fraction(-1, 3))
    b = QI(Fraction(-2), Fraction(5, 7))
    assert a + b == QI(Fraction(-1, 2), Fraction(8, 21))
    assert a * b - b * a == QI(0)
    assert (a / b) * b == a
    assert a - a == 0
    assert QI(0, 1) * QI(0, 1) == QI(-1)


def test_qi_conjugation_and_reality():
    a = QI(2, -3)
    assert a.conj() == QI(2, 3)
    assert (a * a.conj()).is_real()
    assert QI(5).real_fraction() == 5
    with pytest.raises(ValueError):
        QI(1, 1).real_fraction()


def test_qi_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QI(1) / QI(0)


def test_qi_equality_with_plain_numbers():
    assert QI(Fraction(7, 2)) == Fraction(7, 2)
    assert QI(3) == 3
    assert QI(3, 1) != 3
    assert hash(QI(4)) == hash(Fraction(4))


def test_qis_sqrt2_relation():
    s = QIS_SQRT2
    assert s * s == QIS(QI(2))
    assert QIS_INV_SQRT2 * QIS_INV_SQRT2 == QIS(QI(Fraction(1, 2)))
    assert QIS_INV_SQRT2 * s == QIS(QI(1))


def test_qis_conj_keeps_s_real():
    x = QIS(QI(1, 2), QI(0, -3))
    assert x.conj() == QIS(QI(1, -2), QI(0, 3))


def test_qis_rational_part_guard():
    with pytest.raises(ValueError):
        QIS_SQRT2.rational_part()
    assert QIS(QI(5)).rational_part() == QI(5)


def test_immutability():
    with pytest.raises(AttributeError):
        QI(1).re = Fraction(2)
    with pytest.raises(AttributeError):
        QI(1)._d = 2
    # construction happens in __new__, so calling __init__ rewrites nothing
    q, x = QI(1), QIS(QI(1))
    q.__init__(5)
    x.__init__(QI(5))
    assert q == 1 and x == 1
    with pytest.raises(AttributeError):
        QIS(QI(1)).u = QI(2)


def test_qis_hash_agrees_with_equality():
    # a == b must imply hash(a) == hash(b), also across the ring embeddings
    for x in (1, Fraction(-3, 4), QI(2), QI(1, -5)):
        assert QIS(QI.of(x)) == x
        assert hash(QIS(QI.of(x))) == hash(x)
    assert {QIS(QI(1)): "one"}[1] == "one"
    assert QIS(QI(1), QI(1)) != QI(1)


def test_residues_read_each_ring_mod_p():
    p, root = 13, 5                                   # 5 * 5 = 25 = -1 mod 13
    vector = {"a": QI(Fraction(3, 2), 1), "b": Fraction(-7, 4), "c": 20, "d": QI(-5, 1)}
    # (3 + 2 * 5) / 2 = 0; -7 / 4 = -7 * 10 = 8; 20 = 7; -5 + 5 = 0
    assert residues(vector, p, root) == {"b": 8, "c": 7}
    assert residues({}, p, root) == {}


def test_residues_refuse_a_denominator_that_p_divides():
    assert residues({0: 1, 1: Fraction(1, 26)}, 13, 5) is None
    assert residues({0: QI(Fraction(1, 13), 1)}, 13, 5) is None
    with pytest.raises(TypeError):
        residues({0: 0.5}, 13, 5)
