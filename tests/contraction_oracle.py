"""The general normal-ordering rule for a pair of Weyl monomials, the
oracle of ``weylalg``'s product kernel: every pair of monomials goes
through the full enumeration of contraction counts, with no shortcut for
pairs that share no mode or contract once."""

from itertools import product as iproduct
from math import comb, factorial

from minrep.weylalg import Mode, WeylMonomial


def _mono_product(x: WeylMonomial, y: WeylMonomial):
    """Yield (integer weight, monomial) terms of the normal-ordered product:
    the uncontracted term first, then those of _contractions."""
    yield 1, WeylMonomial.make(x.creators + y.creators, x.annihilators + y.annihilators)
    yield from _contractions(x, y)


def _contractions(x: WeylMonomial, y: WeylMonomial):
    """Yield the (integer weight, monomial) terms of x.y with a contraction.

    Only the annihilators of x interact with the creators of y; a mode with
    p annihilators meeting q creators contributes k! C(p,k) C(q,k) for each
    number k of contractions, independently across modes.
    """
    xa, yc = x.annihilators, y.creators
    shared = [(m, xa.count(m), yc.count(m)) for m in dict.fromkeys(xa) if m in yc]
    counts = iproduct(*[range(min(p, q) + 1) for _, p, q in shared])
    next(counts)   # no contraction at all: the uncontracted term
    for ks in counts:
        weight = 1
        removed: dict[Mode, int] = {}
        for (m, p, q), k in zip(shared, ks):
            if k:
                weight *= factorial(k) * comb(p, k) * comb(q, k)
                removed[m] = k
        creators = list(x.creators) + _multiset_minus(yc, removed)
        annihilators = _multiset_minus(xa, removed) + list(y.annihilators)
        yield weight, WeylMonomial.make(creators, annihilators)


def _multiset_minus(items, removed: dict) -> list:
    left = dict(removed)
    out = []
    for m in items:
        if left.get(m, 0):
            left[m] -= 1
        else:
            out.append(m)
    return out
