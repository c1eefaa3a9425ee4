"""Multivariate polynomials with ``QI`` coefficients, and the operators
that act on them.

Monomials are exponent tuples.  Every polynomial the package builds has
``QI`` coefficients: the harmonic modes, the sphere identity and the
Gaussian wave functions of the massless model.  ``Poly.__mul__`` sums
the products of every pair of terms in one ``scalars.sum_products``
call, in ints.

Every linear operator on them is a ``WeylElement`` in the Bargmann
picture: a mode (name, i) stands for the variable x_i, its creator for
multiplication by x_i and its annihilator for d/dx_i, so a normal-ordered
monomial is x^a d^b and a monomial is its own occupation state.
``operator_terms`` reads an element's terms once for ``weylalg.walk``,
whose images of a monomial are keyed by the image monomial itself.
``columns`` holds an operator as a ``linalg.ColumnMap``: column m, the
image of the unit monomial x^m, is one walk summed by
``lincomb.column_sum`` the first time it is read, so a real-integer
operator's columns stay in ints; the harmonic eigen-checks read them.
``apply`` maps a ``Poly`` through an operator's terms in one
``scalars.sum_products`` call over their images.  The action is
faithful, so an identity of operators is checked on their elements.
"""

from __future__ import annotations

from functools import partial
from operator import add

from .linalg import ColumnMap
from .lincomb import LinComb, column_sum
from .scalars import QI_ONE, sum_products
from .weylalg import WeylElement, walk, walker_terms


class Poly(LinComb):
    """Immutable sparse polynomial: {exponent tuple: coefficient}."""

    __slots__ = ()

    @staticmethod
    def constant(n: int, c) -> "Poly":
        return Poly({(0,) * n: c})

    @staticmethod
    def variable(n: int, i: int) -> "Poly":
        """x_i, with coefficient ``QI_ONE``."""
        exp = [0] * n
        exp[i] = 1
        return Poly({tuple(exp): QI_ONE})

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        return Poly._nonzero(sum_products(
            (tuple(map(add, m1, m2)), c1, c2, 1)
            for m1, c1 in self.terms.items() for m2, c2 in other.terms.items()))

    def scale(self, c) -> "Poly":
        return self._scaled(c)

    def diff(self, i: int) -> "Poly":
        t = {}
        for m, c in self.terms.items():
            if m[i]:
                e = list(m)
                e[i] -= 1
                t[tuple(e)] = c * m[i]
        return Poly(t)

    def mul_var(self, i: int) -> "Poly":
        t = {}
        for m, c in self.terms.items():
            e = list(m)
            e[i] += 1
            t[tuple(e)] = c
        return Poly(t)

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


def operator_terms(w: WeylElement) -> list:
    """w's walker terms over polynomials: the mode (name, i) is x_i."""
    return walker_terms(w, {m: m[1] for m in w.modes()})


def columns(w: WeylElement) -> ColumnMap:
    """w as a map of its columns, each the image of a unit monomial,
    formed by one walk on its first read."""
    return ColumnMap(partial(_column, operator_terms(w)))


def _column(terms, m: tuple) -> dict:
    return column_sum((image, q * w) for _, image, _, q, w in walk(terms, ((m, 1),)))


def apply(terms, p: Poly) -> Poly:
    """The operator of the walker terms applied to p: the images of its
    terms on p's terms, summed in one ``sum_products`` call, which leaves
    the zero totals out."""
    return Poly._nonzero(sum_products(
        (image, c, q, w) for _, image, c, q, w in walk(terms, p.terms.items())))
