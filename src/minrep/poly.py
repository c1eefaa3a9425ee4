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
from .scalars import sum_products
from .weylalg import WeylElement, walk, walker_terms


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
        return _nonzero_poly(self.nvars, sum_products(
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
    return _nonzero_poly(p.nvars, sum_products(
        (image, c, q, w) for _, image, c, q, w in walk(terms, p.terms.items())))


_set_nvars = Poly.nvars.__set__


def _nonzero_poly(nvars: int, terms: dict) -> Poly:
    """The Poly of terms that hold no zero coefficient, built unfiltered."""
    p = Poly._nonzero(terms)
    _set_nvars(p, nvars)
    return p
