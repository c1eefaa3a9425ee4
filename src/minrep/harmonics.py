"""Discrete mode basis of a free massless field on compactified spacetime.

Homogeneous harmonic polynomials h_{n,l,m} of degree n-1 in four complex
variables, simultaneous eigenfunctions of the conformal Hamiltonian
H = z.d/dz + 1, the total angular momentum L^2 and its third component L3.
Each mode is a product h_{n,l,m} = Y_{l,m}(z1, z2, z3) f_{n,l}(z4, rho^2)
of two factors that each lead with coefficient 1.  The solid harmonics
Y_{l,m} are (z1 + i z2)^l lowered step by step with L- = L1 - i L2 down
to m = -l; they do not depend on n, so ``harmonic_modes`` builds the
chain of each l once.  The radial factor f_{n,l} = sum_b c_b z4^(d-2b) rho^(2b),
d = n-1-l, has the closed-form coefficients that harmonicity imposes, and
each product is one ``Poly.__mul__``; construction and verification are
exact over Q(i).  Each operator is a ``weylalg.WeylElement`` over the
modes ("z", i), built once at import: in the Bargmann picture z_i is the
creator and d/dz_i the annihilator, so the Laplacian is sum a_i a_i,
H = sum a*_i a_i + 1 and L_j = i (a*_b a_a - a*_a a_b).
L^2 = L- L+ + (L3 + 1) L3, which rests on [L1, L2] = i L3, is formed once
by ``weylalg.sum_of_products``.
``operator_columns`` stacks the Laplacian, H, L^2 and L3, tagged 0 to
3, in one column map, so a monomial's images under all four are one
``weylalg.column`` walk, formed once per command.  ``verify_mode`` sums
the four eigen-defects (X - c) h off those columns in one
``scalars.sum_products`` call keyed (operator, monomial).  The angular
algebra check forms each bracket's defect as one exact Weyl element with
``weylalg.commutator``; the Bargmann action is faithful, so an identity
of the elements holds on polynomials of every degree.  The level counts
are ranks, which ``linalg`` certifies mod a prime.

The compactification of Minkowski space is defined once, as polynomials
in the real coordinates: z = N/D with D = 2w.  Its sphere identity
sum z^2 = conj(w)/w holds at every real point exactly when
sum N_a^2 = D conj(D) as polynomials, which is checked as one identity;
D never vanishes at a real point, so no point needs to be skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain
from math import comb

from . import linalg
from .linalg import ColumnMap
from .poly import Poly, apply, operator_terms
from .reports import Report, render_defect
from .scalars import QI, QI_I, QI_ONE, sum_batches
from .weylalg import WeylElement, WeylMonomial, column, commutator, sum_of_products

NVARS = 4


class HarmonicError(ValueError):
    pass


_Z = [("z", i) for i in range(NVARS)]


def _z_d(u: int, d: int, c) -> WeylElement:
    """c z_u d/dz_d."""
    return WeylElement.monomial([_Z[u]], [_Z[d]], c)


_LAPLACIAN = WeylElement({WeylMonomial.make([], [z, z]): QI_ONE for z in _Z})
_EULER = WeylElement({WeylMonomial.make([z], [z]): QI_ONE for z in _Z})
_HAMILTONIAN = _EULER + WeylElement.one()

_EPS = {(1, 2): 3, (2, 3): 1, (3, 1): 2}

# L_j = i eps_{jkl} z_l d/dz_k on the first three variables: for each
# positively oriented (k, l) = (a, b), i (z_b d_a - z_a d_b).
_L = {j: _z_d(b - 1, a - 1, QI_I) - _z_d(a - 1, b - 1, QI_I) for (a, b), j in _EPS.items()}
_LOWERING = _L[1] - _L[2].scale(QI_I)
_RAISING = _L[1] + _L[2].scale(QI_I)
_L_SQUARED = sum_of_products([(_LOWERING, _RAISING), (_L[3] + WeylElement.one(), _L[3])])


@dataclass(frozen=True)
class HarmonicMode:
    n: int
    l: int
    m: int
    poly: Poly


def _solid_harmonics(l: int) -> list[Poly]:
    """The solid harmonics Y_{l,m} for m = l, l-1, ..., -l: (z1 + i z2)^l
    lowered step by step with L-, each step normalized.  They involve only
    z1, z2, z3, so one chain serves the ladders of every n."""
    top, power = {}, QI_ONE
    for k in range(l + 1):
        top[(l - k, k, 0, 0)] = power * comb(l, k)
        power = power * QI_I
    ys = [_normalize_leading(Poly(top))]
    lowering = operator_terms(_LOWERING)
    for m in range(l - 1, -l - 1, -1):
        p = apply(lowering, ys[-1])
        if p.is_zero():
            raise HarmonicError(f"lowering annihilated the solid harmonic ({l},{m})")
        ys.append(_normalize_leading(p))
    return ys


def _radial_factor(n: int, l: int) -> Poly:
    """f_{n,l} = sum_b c_b z4^(d-2b) rho^(2b), with rho^2 = z1^2 + z2^2 +
    z3^2 and d = n-1-l, for which Y_{l,m} f_{n,l} is harmonic.

    The Laplacian of z4^(d-2b) rho^(2b) Y_l is (d-2b)(d-2b-1)
    z4^(d-2b-2) rho^(2b) Y_l + 2b(2b+2l+1) z4^(d-2b) rho^(2b-2) Y_l, so
    harmonicity is the recurrence c_b = -c_{b-1} (d-2b+2)(d-2b+1) /
    (2b(2b+2l+1)), here with c_0 = 1; rho^(2b) is expanded by the
    multinomial theorem.
    """
    d = n - 1 - l
    terms, c = {}, Fraction(1)
    for b in range(d // 2 + 1):
        if b:
            c = -c * (d - 2 * b + 2) * (d - 2 * b + 1) / (2 * b * (2 * b + 2 * l + 1))
        for i in range(b + 1):
            for j in range(b - i + 1):
                multinomial = comb(b, i) * comb(b - i, j)
                terms[(2 * i, 2 * j, 2 * (b - i - j), d - 2 * b)] = QI.of(c * multinomial)
    return Poly(terms)


def _normalize_leading(p: Poly) -> Poly:
    """Scale so the lexicographically first monomial has coefficient 1."""
    if p.is_zero():
        raise HarmonicError("cannot normalize the zero polynomial")
    lead = p.terms[p.leading_monomial()]
    return p.scale(QI_ONE / lead)


def harmonic_ladder(n: int, l: int, solid: list[Poly]) -> list[HarmonicMode]:
    """h_{n,l,m} = Y_{l,m} f_{n,l} for m = l, l-1, ..., -l, from `solid`,
    the ``_solid_harmonics`` of l; raises on invalid labels.

    Lex order is a monomial order, so the lex-least monomial of a product
    is the product of its factors' lex-least ones: each factor leads with
    coefficient 1, so each product is already normalized.
    """
    if n < 1 or not 0 <= l <= n - 1:
        raise HarmonicError(f"invalid ladder labels (n,l) = ({n},{l})")
    f = _radial_factor(n, l)
    return [HarmonicMode(n, l, l - k, y * f) for k, y in enumerate(solid)]


def harmonic_modes(nmax: int) -> list[HarmonicMode]:
    """Every h_{n,l,m} with n <= nmax, ladder by ladder, the solid
    harmonics of each l built once and shared by its ladders."""
    solid = [_solid_harmonics(l) for l in range(nmax)]
    return [mode for n in range(1, nmax + 1) for l in range(n)
            for mode in harmonic_ladder(n, l, solid[l])]


def build_harmonic(n: int, l: int, m: int) -> HarmonicMode:
    """Construct h_{n,l,m}; raises on invalid label ranges."""
    if n < 1 or not 0 <= l <= n - 1 or not -l <= m <= l:
        raise HarmonicError(f"invalid mode labels (n,l,m) = ({n},{l},{m})")
    return harmonic_ladder(n, l, _solid_harmonics(l))[l - m]


def operator_columns() -> ColumnMap:
    """A new column map of the Laplacian, H, L^2 and L3 stacked, tagged 0
    to 3: column m holds their images of x^m keyed (tag, image), walked on
    its first read and then kept.  The operators are read at this call, so
    one replaced on the module changes the map."""
    ops = (_LAPLACIAN, _HAMILTONIAN, _L_SQUARED, _L[3])
    return ColumnMap(partial(column, [t for tag, op in enumerate(ops)
                                      for t in operator_terms(op, tag)]))


def verify_mode(h: Poly, n: int, l: int, m: int, cols: ColumnMap) -> Report:
    """Exact eigen-checks: harmonicity, H, L^2 and L3, read off the
    stacked columns `cols` of ``operator_columns``.  The four defects
    (X - c) h are summed in one ``sum_products`` call keyed (operator,
    monomial), over the terms of h, each term's stacked column and -c
    times the term, so no operator is applied to h.  A failing record
    renders its defect as a bounded ``Poly``."""
    rep = Report(f"harmonic/{n},{l},{m}")
    records = (("laplacian", 0), ("conformal-hamiltonian", n), ("L2", l * (l + 1)), ("L3", m))
    defects = sum_batches(chain(
        ((key, c, u, 1) for mono, c in h.terms.items() for key, u in cols[mono].items()),
        (((tag, mono), c, -eigen, 1) for tag, (_, eigen) in enumerate(records) if eigen
         for mono, c in h.terms.items())), len(records))
    for (record, _), defect in zip(records, defects):
        defect = Poly._nonzero(defect)
        rep.add(f"mode/{n},{l},{m}/{record}", defect.is_zero(), defect=render_defect(defect))
    rep.add(f"mode/{n},{l},{m}/nonzero", not h.is_zero())
    return rep


def level_count_check(modes: list[HarmonicMode]) -> Report:
    """Each level n up to the highest of `modes` carries exactly n^2
    linearly independent modes among them."""
    nmax = max((mode.n for mode in modes), default=0)
    rep = Report(f"harmonics/levels<={nmax}")
    for n in range(1, nmax + 1):
        level = [mode for mode in modes if mode.n == n]
        r = linalg.rank([mode.poly.terms for mode in level])
        rep.add(f"harmonics/level{n}/count",
                len(level) == n * n and r == n * n,
                detail=f"{len(level)} modes, rank {r}, expected {n * n}")
    return rep


def angular_algebra_check() -> Report:
    """[L_j, L_k] = i eps_{jkl} L_l and commutation of H with L^2, L3,
    each bracket's defect one exact Weyl element."""
    rep = Report("harmonics/angular-algebra")
    for (j, k), l in _EPS.items():
        defect = commutator(_L[j], _L[k]) - _L[l].scale(QI_I)
        rep.add(f"angular/[L{j},L{k}]=iL{l}", defect.is_zero(), defect=render_defect(defect))
    for name, op in (("L2", _L_SQUARED), ("L3", _L[3])):
        defect = commutator(_HAMILTONIAN, op)
        rep.add(f"angular/[H,{name}]=0", defect.is_zero(), defect=render_defect(defect))
    return rep


# ---------------------------------------------------------------------------
# Compactification


def compactification() -> tuple[list[Poly], Poly]:
    """The map of Minkowski space into the complex quadric, as polynomials
    (N, D) in the real coordinates x0..x3: z = N/D, with N = (2x1, 2x2,
    2x3, 1 - x^2), D = 2w = 1 + x^2 - 2i x0 and x^2 the Minkowski square.
    D conj(D) = (1 + x^2)^2 + (2x0)^2, so no real point is at infinity."""
    x = [Poly.variable(NVARS, i) for i in range(NVARS)]
    one = Poly.constant(NVARS, QI_ONE)
    xsq = x[1] * x[1] + x[2] * x[2] + x[3] * x[3] - x[0] * x[0]
    return [x[i].scale(QI(2)) for i in (1, 2, 3)] + [one - xsq], one + xsq - x[0].scale(QI(0, 2))


def sphere_defect(num: list[Poly], den: Poly) -> Poly:
    """sum N_a^2 - D conj(D), with conj(D) the polynomial of conjugated
    coefficients.  At real x it is D^2 (sum z^2 - conj(w)/w), so the map
    (N, D) lands on the sphere sum z^2 = conj(w)/w exactly when this is
    the zero polynomial."""
    total = Poly()
    for p in num:
        total = total + p * p
    return total - den * Poly({m: c.conj() for m, c in den.terms.items()})


def compactification_check() -> Report:
    """The sphere identity of ``compactification`` as one polynomial
    identity, and a negative control: with 1 + x^2 = 2 - N4 in place of
    N4 = 1 - x^2 the defect is 4x^2, which must not vanish."""
    rep = Report("harmonics/compactification")
    num, den = compactification()
    defect = sphere_defect(num, den)
    rep.add("harmonics/compactification/polynomial-identity", defect.is_zero(),
            defect=render_defect(defect))
    wrong = num[:3] + [Poly.constant(NVARS, QI(2)) - num[3]]
    rep.add("harmonics/negative-control/compactification-z4",
            not sphere_defect(wrong, den).is_zero(), negative_control=True,
            detail="with 1 + x^2 in place of 1 - x^2 in N4 the sphere identity must fail")
    return rep
