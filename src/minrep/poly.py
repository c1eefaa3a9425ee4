"""Multivariate polynomials over an exact coefficient ring.

Monomials are exponent tuples; coefficients are any ring type supporting
+, -, *, truthiness and (for conjugation) .conj().  Used with QI for the
harmonic polynomials and with QIS for the Gaussian wave-function model.
"""

from __future__ import annotations

from .lincomb import LinComb, combine


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

    def __rmul__(self, other):
        return self.scale(other)

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

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=-1)

    def coefficient(self, mono: tuple):
        return self.terms.get(mono)

    def conj(self) -> "Poly":
        return Poly(self.nvars, {m: c.conj() for m, c in self.terms.items()})

    def evaluate(self, point):
        """Evaluate at a point given as a list of coefficient-ring values."""
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

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            mono = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}"
                            for i, e in enumerate(m) if e)
            parts.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


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
