"""Sparse linear combinations over an exact coefficient ring.

Every algebraic object the package certifies identities between is a
finite sum of basis keys with exact coefficients: Weyl and Wick elements,
harmonic polynomials and Fock matrices.  They all store it the same way,
as a ``{key: coefficient}`` dict holding no zero coefficient, so equality
of two dicts is equality of the elements.  The columns of every linear
map, the Fock matrices and the polynomial operators alike, are such dicts
too; ``weylalg.column``, the one walker, sums each as it walks it.
"""

from __future__ import annotations

_new = object.__new__


def combine(pairs, acc: dict) -> dict:
    """Sum (key, coefficient) pairs into `acc` and return it.

    A key's first coefficient is stored as given, so no zero of the ring is
    built; sums that cancel stay in `acc` as zeros for the caller (usually
    a LinComb constructor) to drop.
    """
    get = acc.get
    for key, c in pairs:
        s = get(key)
        acc[key] = c if s is None else s + c
    return acc


class LinComb:
    """Immutable {key: coefficient} element; the constructor drops zeros.

    Subclasses render one term in ``_term``, and may add constructors, a
    product and a public ``scale``, which coerces its argument into the
    ring before calling ``_scaled``.  ``_like`` builds a new element of
    the same kind.  A kernel whose sums already left out every zero, such
    as ``scalars.sum_products``, builds through ``_nonzero`` instead.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        object.__setattr__(self, "terms",
                           {k: c for k, c in terms.items() if c} if terms else {})

    @classmethod
    def _nonzero(cls, terms: dict):
        """The element with these terms, which must hold no zero coefficient:
        for a kernel whose sums already left the zeros out, where the
        constructor's filter would test every coefficient again."""
        obj = _new(cls)
        _set_terms(obj, terms)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _like(self, terms: dict):
        return type(self)(terms)

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._like(combine(other.terms.items(), dict(self.terms)))

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._like(combine(((k, -c) for k, c in other.terms.items()),
                                  dict(self.terms)))

    def _scaled(self, c):
        """This element times `c`, a coefficient already in the ring."""
        if not c:
            return self._like({})
        return self._like({k: c * v for k, v in self.terms.items()})

    def _term(self, key, c) -> str:
        return f"({c}) {key}"

    def render(self, limit: int | None = None) -> str:
        """The terms in sorted key order; past `limit` of them, only their count."""
        if not self.terms:
            return "0"
        items = sorted(self.terms.items())
        parts = [self._term(key, c) for key, c in items[:limit]]
        if len(parts) < len(items):
            parts.append(f"... ({len(items)} terms)")
        return " + ".join(parts)

    def __str__(self):
        return self.render()


_set_terms = LinComb.terms.__set__
