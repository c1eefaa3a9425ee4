"""Exact symbolic Weyl (CCR) algebra in normal-ordered form.

Elements are finite Q(i)-linear combinations of normal-ordered monomials
c*_{m1}...c*_{mp} c_{n1}...c_{nq} over an arbitrary universe of modes.
A mode is any hashable, totally ordered tuple, e.g. ("a", 1) or
("h", 2, 1, 0); products are rewritten to canonical normal order through
the contraction rule [c_m, c*_n] = delta_{mn}, so structural equality of
the term dictionaries is semantic equality.  Contracted terms come only
from the pairs of terms that contract: the right factor's terms are
indexed by the modes of their creators, and each left term meets only
those its annihilators reach.  A product adds the uncontracted term of
every pair; a commutator leaves it out, since it is the same in both
orders.  A pair that meets in one mode, once on each side, contracts once
with weight 1 and its monomial is built directly; any other pair goes
through every count of contractions.  Products and commutators hand their
terms to ``scalars.sum_products``, which sums them in ints;
``sum_of_products`` sums many products in one such call.
Quadratics phi~ X phi are read off the polarization's table of
normal-ordered products, with X a {(row, col): entry} dict of its nonzero
entries, as are the matrices read back off a quadratic.

An element acts on the states a*^n|0>, or in the Bargmann picture
(a* = z, a = d/dz) on the monomials z^n, both keyed by the exponent
tuple n.  ``walk`` is the one walker of that action: it reads an
element's terms from ``walker_terms``, with real-integer coefficients as
ints, and yields each term's image of each state it is handed, so the
Fock matrices and the polynomial operators form their columns alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import chain, product as iproduct
from math import comb, factorial
from types import MappingProxyType
from typing import NamedTuple

from .lincomb import LinComb
from .scalars import QI, QI_ZERO, int_if_integer, sum_products

Mode = tuple


class SpanError(ValueError):
    """An element or bracket falls outside the span a reader expects."""


def mode_str(m: Mode) -> str:
    return str(m[0]) + "_".join(str(x) for x in m[1:])


class WeylMonomial(NamedTuple):
    """Normal-ordered monomial: creator multiset then annihilator multiset."""

    creators: tuple[Mode, ...]
    annihilators: tuple[Mode, ...]

    @staticmethod
    def make(creators, annihilators) -> "WeylMonomial":
        """The one builder of a product's monomials: each side sorted, the
        tuple built by tuple.__new__, not the NamedTuple's Python __new__."""
        return _tuple_new(WeylMonomial, (tuple(sorted(creators)), tuple(sorted(annihilators))))

    @property
    def level_shift(self) -> int:
        return len(self.creators) - len(self.annihilators)

    def adjoint(self) -> "WeylMonomial":
        return WeylMonomial(self.annihilators, self.creators)

    def __str__(self):
        parts = [mode_str(m) + "*" for m in self.creators]
        parts += [mode_str(m) for m in self.annihilators]
        return " ".join(parts) if parts else "1"


_tuple_new = tuple.__new__
_ONE_MONO = WeylMonomial((), ())


def _contractions(x: WeylMonomial, y: WeylMonomial):
    """Yield the (integer weight, monomial) terms of x.y with a contraction.

    Only the annihilators of x interact with the creators of y; a mode with
    p annihilators meeting q creators contributes k! C(p,k) C(q,k) for each
    number k of contractions, independently across modes.  A single mode
    met once on each side contracts once, with weight 1, and that monomial
    is built directly.
    """
    xa, yc = x.annihilators, y.creators
    shared = [m for m in dict.fromkeys(xa) if m in yc]
    if len(shared) == 1 and xa.count(m := shared[0]) == 1 and yc.count(m) == 1:
        i, j = xa.index(m), yc.index(m)
        yield 1, WeylMonomial.make(x.creators + yc[:j] + yc[j + 1:],
                                   xa[:i] + xa[i + 1:] + y.annihilators)
        return
    shared = [(m, xa.count(m), yc.count(m)) for m in shared]
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


class WeylElement(LinComb):
    """Immutable Q(i)-linear combination of normal-ordered monomials."""

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "WeylElement":
        return _ZERO

    @staticmethod
    def one() -> "WeylElement":
        return _IDENTITY

    @staticmethod
    def scalar(c) -> "WeylElement":
        return WeylElement({_ONE_MONO: QI.of(c)})

    @staticmethod
    def creator(mode: Mode, coeff=1) -> "WeylElement":
        return WeylElement({WeylMonomial.make([mode], []): QI.of(coeff)})

    @staticmethod
    def annihilator(mode: Mode, coeff=1) -> "WeylElement":
        return WeylElement({WeylMonomial.make([], [mode]): QI.of(coeff)})

    @staticmethod
    def monomial(creators, annihilators, coeff=1) -> "WeylElement":
        return WeylElement({WeylMonomial.make(creators, annihilators): QI.of(coeff)})

    # -- structure ---------------------------------------------------------

    def scalar_part(self) -> QI:
        return self.terms.get(_ONE_MONO, QI_ZERO)

    def without_scalar(self) -> "WeylElement":
        t = dict(self.terms)
        t.pop(_ONE_MONO, None)
        return WeylElement._nonzero(t)

    def modes(self) -> set:
        out = set()
        for m in self.terms:
            out.update(m.creators)
            out.update(m.annihilators)
        return out

    def max_level_raise(self) -> int:
        return max((m.level_shift for m in self.terms), default=0)

    # -- arithmetic --------------------------------------------------------

    def scale(self, c) -> "WeylElement":
        return self._scaled(QI.of(c))

    def adjoint(self) -> "WeylElement":
        return WeylElement({m.adjoint(): q.conj() for m, q in self.terms.items()})

    # -- rendering ---------------------------------------------------------

    __repr__ = LinComb.__str__


_ZERO = WeylElement({})
_IDENTITY = WeylElement({_ONE_MONO: QI(1)})


def normal_product(x: WeylElement, y: WeylElement) -> WeylElement:
    """Product x.y rewritten to canonical normal-ordered form via the CCR."""
    return WeylElement._nonzero(sum_products(_product_items(x, y)))


def sum_of_products(pairs) -> WeylElement:
    """The sum of x.y over the (x, y) pairs, summed in one kernel call."""
    return WeylElement._nonzero(sum_products(
        item for x, y in pairs for item in _product_items(x, y)))


def _product_items(x: WeylElement, y: WeylElement):
    """(monomial, qx, qy, weight) for each term of x.y, for sum_products:
    the uncontracted term of every pair of terms, then the contracted
    terms of the pairs that contract."""
    make = WeylMonomial.make
    for (xc, xa), qx in x.terms.items():
        for (yc, ya), qy in y.terms.items():
            yield make(xc + yc, xa + ya), qx, qy, 1
    yield from _contraction_items(x, y, 1)


def commutator(x: WeylElement, y: WeylElement) -> WeylElement:
    """[x, y] from the contracted terms of x.y and of y.x alone.

    A pair of terms has the same uncontracted term in both orders, so it
    cancels and is never formed, and a pair that does not contract in an
    order is not visited in it.
    """
    return WeylElement._nonzero(sum_products(chain(_contraction_items(x, y, 1),
                                                   _contraction_items(y, x, -1))))


def _contraction_items(x: WeylElement, y: WeylElement, sign: int):
    """(monomial, qx, qy, sign * weight) for each contracted term of x.y.

    y's terms are indexed by the modes of their creators, so each term of
    x meets only the terms of y whose creators its annihilators contract.
    This index is the only route to _contractions: products and
    commutators alike visit no pair of terms that does not contract.
    """
    by_creator: dict[Mode, dict] = {}
    for my, qy in y.terms.items():
        for m in my.creators:
            by_creator.setdefault(m, {})[my] = qy
    for mx, qx in x.terms.items():
        meets: dict = {}
        for m in mx.annihilators:
            meets.update(by_creator.get(m, ()))
        for my, qy in meets.items():
            for w, mono in _contractions(mx, my):
                yield mono, qx, qy, sign * w


def ad_power(x: WeylElement, y: WeylElement, k: int) -> WeylElement:
    """Iterated bracket ad(x)^k (y)."""
    out = y
    for _ in range(k):
        out = commutator(x, out)
    return out


# ---------------------------------------------------------------------------
# Acting on states


def walker_terms(w: WeylElement, pos: dict, tag=0) -> list:
    """w's terms as (tag, q, annihilator positions, creator positions) for
    ``walk``, pos mapping each mode to its position in a state tuple.  q
    is read by ``int_if_integer``, so a real-integer coefficient is an int
    and the images it gives stay in ints."""
    return [(tag, int_if_integer(q), [pos[m] for m in mono.annihilators],
             [pos[m] for m in mono.creators]) for mono, q in w.terms.items()]


def walk(terms, states):
    """(tag, image, c, q, weight) for each (state, c) of states and each of
    the walker terms that does not annihilate the state: the term q c*..c
    maps c times the state to c * q * weight times the image.

    A state is an occupation or exponent tuple n, standing for a*^n|0> or
    for z^n.  Each annihilator takes one from its entry k and brings down
    the int k, each creator adds one, and weight is the product of those
    ints.  The tags are the caller's: a Fock module tags each term with
    the row offset of its operator.
    """
    for state, c in states:
        for tag, q, ann, cre in terms:
            occ = list(state)
            weight = 1
            for i in ann:
                k = occ[i]
                if not k:
                    break
                weight *= k
                occ[i] = k - 1
            else:
                for i in cre:
                    occ[i] += 1
                yield tag, tuple(occ), c, q, weight


# ---------------------------------------------------------------------------
# Quadratics from matrices


@dataclass(frozen=True)
class Polarization:
    """Spinor pair (phi, phi_tilde) with [phi^b, phi~_a] = delta_a^b.

    The standard split over k creation/annihilation pairs of each charge is
    phi = (a_1..a_k, b*_1..b*_k), phi~ = (a*_1..a*_k, -b_1..-b_k).  Each
    phi~_a phi^b must normal-order to a coefficient c_ab times a monomial
    of its own, plus a scalar; ``products`` maps that monomial to
    (a, b, c_ab), and ``table[a][b]`` is (monomial, c_ab, scalar), both
    read-only.  Construction raises ValueError if either condition fails.
    """

    phi: tuple[WeylElement, ...]
    phi_tilde: tuple[WeylElement, ...]
    products: dict = field(init=False, repr=False, compare=False)
    table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        products = {}
        table = []
        for a, ft in enumerate(self.phi_tilde):
            row = []
            for b, f in enumerate(self.phi):
                if commutator(f, ft) != (_IDENTITY if a == b else _ZERO):
                    raise ValueError("polarization does not satisfy the CCR pairing")
                prod = normal_product(ft, f)
                terms = prod.without_scalar().terms
                if len(terms) != 1 or next(iter(terms)) in products:
                    raise ValueError("phi~_a phi^b do not normal-order to distinct monomials")
                (mono, c), = terms.items()
                products[mono] = (a, b, c)
                row.append((mono, c, prod.scalar_part()))
            table.append(tuple(row))
        object.__setattr__(self, "products", MappingProxyType(products))
        object.__setattr__(self, "table", tuple(table))

    @property
    def size(self) -> int:
        return len(self.phi)


@cache
def standard_polarization(k: int) -> Polarization:
    """The standard split over k a/b mode pairs, built once per k until
    the cache is cleared: the value is frozen, so every reader of one
    size shares it.  ``cli.main`` clears it as each command starts."""
    phi = tuple([WeylElement.annihilator(("a", i)) for i in range(1, k + 1)]
                + [WeylElement.creator(("b", i)) for i in range(1, k + 1)])
    phit = tuple([WeylElement.creator(("a", i)) for i in range(1, k + 1)]
                 + [WeylElement.annihilator(("b", i), -1) for i in range(1, k + 1)])
    return Polarization(phi, phit)


def quadratic_from_matrix(x, pol: Polarization) -> WeylElement:
    """The literal bilinear sum_{ab} phi~_a X_ab phi^b, not normal subtracted,
    for X given as {(a, b): X_ab}.

    Reordering constants (e.g. b b* = b*b + 1) are kept, so the map is an
    exact Lie algebra homomorphism on matrices; any scalar offset against
    other conventions is visible in the output rather than absorbed.  Each
    entry X_ab adds X_ab c_ab on its own monomial and X_ab times the scalar
    of phi~_a phi^b, both from pol.table.
    """
    n = pol.size
    items = []
    for (a, b), v in x.items():
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"matrix must be {n}x{n} to match the polarization")
        mono, c, scalar = pol.table[a][b]
        items.append((mono, v, c, 1))
        if scalar:
            items.append((_ONE_MONO, v, scalar, 1))
    return WeylElement._nonzero(sum_products(items))


def matrix_from_quadratic(w: WeylElement, pol: Polarization) -> dict:
    """Invert quadratic_from_matrix by reading X off w's monomials, as
    {(a, b): X_ab}.

    The monomial of phi~_a phi^b carries X_ab c_ab (pol.products), so each
    entry is one coefficient of w over c_ab; w's scalar part is ignored.
    Raises SpanError on any other monomial: a1 a2 and b1* b2*, say, are
    in no phi~ X phi, although they commute with every phi^b.
    """
    x = {}
    for mono, q in w.terms.items():
        if mono == _ONE_MONO:
            continue
        entry = pol.products.get(mono)
        if entry is None:
            raise SpanError(f"quadratic leaves the mode span of the polarization: {mono}")
        a, b, c = entry
        x[a, b] = q / c
    return x


def mode_action_matrix(w: WeylElement, modes: list[Mode]) -> dict:
    """Matrix M = t(A) with [w, xi_a] = sum_b A_ab xi_b on xi = (c_1..c_n, c*_1..c*_n),
    as {(row, col): entry}.

    With (alpha, beta, gamma) = quadratic_blocks(w, modes), the brackets
    [w, c_r] and [w, c*_r] give M = [[-t(alpha), 2 gamma], [-2 beta, alpha]];
    the transpose makes w -> M a Lie algebra homomorphism.  Raises SpanError
    if w is not quadratic in the modes.
    """
    alpha, beta, gamma = quadratic_blocks(w, modes)
    n = len(modes)
    out = {(j, i): -x for (i, j), x in alpha.items()}
    out.update({(i, n + j): 2 * x for (i, j), x in gamma.items()})
    out.update({(n + i, j): -2 * x for (i, j), x in beta.items()})
    out.update({(n + i, n + j): x for (i, j), x in alpha.items()})
    return out


def quadratic_blocks(w: WeylElement, modes: list[Mode]):
    """Split a quadratic into (alpha, beta, gamma) coefficient matrices,
    each as {(i, j): entry} of its nonzero entries.

    w = sum alpha_ij c*_i c_j + sum beta_ij c*_i c*_j + sum gamma_ij c_i c_j
    + scalar, with beta and gamma symmetric.  Each monomial fills its own
    entry (two mirrored ones off the diagonal of beta and gamma).  Raises
    SpanError on a monomial that is not quadratic in the modes.
    """
    idx = {m: i for i, m in enumerate(modes)}
    blocks = {(1, 1): {}, (2, 0): {}, (0, 2): {}}
    half = QI(Fraction(1, 2))
    for mono, q in w.terms.items():
        shape = (len(mono.creators), len(mono.annihilators))
        if shape == (0, 0):
            continue
        if sum(shape) != 2:
            raise SpanError(f"element is not quadratic: {mono}")
        if not idx.keys() >= {*mono.creators, *mono.annihilators}:
            raise SpanError(f"element leaves the mode span: {mono}")
        i, j = (idx[m] for m in mono.creators + mono.annihilators)
        block = blocks[shape]
        if shape == (1, 1) or i == j:
            block[i, j] = q
        else:
            block[i, j] = block[j, i] = q * half
    return blocks[1, 1], blocks[2, 0], blocks[0, 2]
