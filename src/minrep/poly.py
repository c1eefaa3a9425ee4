"""Multivariate polynomials with ``QI`` coefficients.

Monomials are exponent tuples.  Every polynomial the package builds has
``QI`` coefficients: the harmonic modes, the sphere identity and the
Gaussian wave functions of the massless model.

``DiffOp`` is the one kernel for the linear differential operators that
act on them, sums of c * x_u * (d/dx_d)^k with k = 0, 1 or 2 and the
factor x_u optional.  Its one term walker, ``walk``, yields an item
(monomial, c, a, w) per pair of a polynomial term c and an operator term
a, with w the int that d^k brings down.  Applying the operator sums
those items in ints through ``scalars.sum_products`` and builds one
``Poly`` of ``QI`` coefficients without testing them for zero again.  An
operator coefficient that is a real integer is kept as an ``int``, so it
is read without building a ``QI``.

``DiffOp.column`` forms the operator's image of a unit monomial, which
carries the int 1, as a plain {monomial: coeff} dict without a ``Poly``;
a real-integer operator's columns stay in ints.  Wrapped in a
``linalg.ColumnMap``, which forms each column on its first read and then
keeps it, an operator goes to ``linalg.bracket_defect``, so a check of
[X, Y] = cZ forms each operator's image of a monomial once, not once per
pair and monomial.  ``column_sum`` is the one sum of scaled columns,
which a column image, a composed or summed column and a polynomial's
image read off columns all go through.
"""

from __future__ import annotations

from .lincomb import LinComb, combine
from .scalars import int_if_integer, sum_products


class Poly(LinComb):
    """Immutable sparse polynomial: {exponent tuple: coefficient}."""

    __slots__ = ("nvars",)

    def __init__(self, nvars: int, terms: dict | None = None):
        LinComb.__init__(self, terms)
        object.__setattr__(self, "nvars", nvars)

    def _like(self, terms: dict) -> "Poly":
        return Poly(self.nvars, terms)

    @staticmethod
    def constant(nvars: int, c) -> "Poly":
        return Poly(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars: int, i: int, one) -> "Poly":
        exp = [0] * nvars
        exp[i] = 1
        return Poly(nvars, {tuple(exp): one})

    def __eq__(self, other):
        return isinstance(other, Poly) and self.nvars == other.nvars \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        acc: dict = {}
        for m1, c1 in self.terms.items():
            combine(((tuple(a + b for a, b in zip(m1, m2)), c1 * c2)
                     for m2, c2 in other.terms.items()), acc)
        return Poly(self.nvars, acc)

    def scale(self, c) -> "Poly":
        return self._scaled(c)

    def diff(self, i: int) -> "Poly":
        t = {}
        for m, c in self.terms.items():
            if m[i]:
                e = list(m)
                e[i] -= 1
                t[tuple(e)] = c * m[i]
        return Poly(self.nvars, t)

    def mul_var(self, i: int, power: int = 1) -> "Poly":
        t = {}
        for m, c in self.terms.items():
            e = list(m)
            e[i] += power
            t[tuple(e)] = c
        return Poly(self.nvars, t)

    def evaluate(self, point):
        """Evaluate at a point given as a list of coefficient-ring values.

        The zero polynomial evaluates to the zero of the point's ring.
        """
        if not self.terms:
            return point[0] * 0 if point else 0
        total = None
        for m, c in self.terms.items():
            v = c
            for i, e in enumerate(m):
                for _ in range(e):
                    v = v * point[i]
            total = v if total is None else total + v
        return total

    def leading_monomial(self) -> tuple:
        return min(self.terms)

    def _term(self, m, c) -> str:
        mono = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(m) if e)
        return f"({c})" + (f"*{mono}" if mono else "")


class DiffOp(LinComb):
    """Immutable operator {(u, d, k): c} standing for the sum of c * x_u * d_d^k.

    u is a variable index or None (no factor), d a variable index or None
    when k = 0; the identity is {(None, None, 0): 1}.  Operators add,
    subtract and scale like any ``LinComb``; calling one on a ``Poly``
    applies it.
    """

    __slots__ = ()

    def __init__(self, terms: dict | None = None):
        LinComb.__init__(self, {key: int_if_integer(c)
                                for key, c in (terms or {}).items()})

    def scale(self, c) -> "DiffOp":
        return self._scaled(c)

    def walk(self, terms: dict):
        """(monomial, c, a, w) for each term c x^m of terms, a polynomial's
        {monomial: coeff} dict, and each term a x_u d_d^k of this operator
        that does not annihilate it: the pair's image is w c a times the
        monomial, with w the int that d_d^k brings down, n from x_d^n for
        k = 1, n (n-1) for k = 2 and 1 for k = 0."""
        steps = self.terms.items()
        for m, c in terms.items():
            for (u, d, k), a in steps:
                if k:
                    n = m[d]
                    if n < k:
                        continue
                    e = list(m)
                    e[d] = n - k
                    w = n * (n - 1) if k == 2 else n
                else:
                    e = list(m)
                    w = 1
                if u is not None:
                    e[u] += 1
                yield tuple(e), c, a, w

    def __call__(self, p: Poly) -> Poly:
        """p with this operator applied, in one walk over p's terms whose
        items ``sum_products`` sums in ints; it leaves out the zero totals,
        so the result skips the zero filter."""
        return _nonzero_poly(p.nvars, sum_products(self.walk(p.terms)))

    def column(self, m: tuple) -> dict:
        """The image of the unit monomial m, as a {monomial: coeff} dict
        with no zero, formed without a ``Poly``.  The unit is the int 1, so
        each coefficient is an operator coefficient times an int and a
        real-integer operator's column stays in ints."""
        return column_sum((e, a * w) for e, _, a, w in self.walk({m: 1}))


def column_sum(items) -> dict:
    """The {key: total} column of (key, value) items, with no zero total:
    an operator's column, or the sum of q * column over a map's columns."""
    return {k: v for k, v in combine(items, {}).items() if v}


_set_nvars = Poly.nvars.__set__


def _nonzero_poly(nvars: int, terms: dict) -> Poly:
    """The Poly of terms that hold no zero coefficient, built unfiltered."""
    p = Poly._nonzero(terms)
    _set_nvars(p, nvars)
    return p


def monomials_of_degree(nvars: int, degree: int):
    """All exponent tuples of the given total degree, lexicographic."""
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            yield (first,) + rest


def monomials_up_to(nvars: int, degree: int):
    for d in range(degree + 1):
        yield from monomials_of_degree(nvars, d)
