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
``operator_terms`` reads an element's terms once for ``weylalg.column``,
the one walker, whose column of a monomial is keyed by (tag, image
monomial): the harmonic eigen-checks stack several operators' terms
under their own tags and read each monomial's column of all of them in
one walk.  ``apply`` maps a ``Poly`` through an operator's terms, summing
c times the column of each term c x^m in one ``scalars.sum_products``
call.  The action is faithful, so an identity of operators is checked on
their elements.
"""

from __future__ import annotations

from operator import add

from .lincomb import LinComb
from .scalars import QI_ONE, sum_products
from .weylalg import WeylElement, column, column_terms


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


def operator_terms(w: WeylElement, tag=0) -> list:
    """w's walker terms over polynomials, under `tag`: the mode (name, i)
    is x_i."""
    return column_terms(w, {m: m[1] for m in w.modes()}, tag)


def apply(terms, p: Poly) -> Poly:
    """The operator of the walker terms applied to p: c times the column
    of each term c x^m of p, summed in one ``sum_products`` call, which
    leaves the zero totals out."""
    return Poly._nonzero(sum_products(
        (image, c, v, 1) for m, c in p.terms.items() for (_, image), v in column(terms, m).items()))
