"""Discrete mode basis of a free massless field on compactified spacetime.

Homogeneous harmonic polynomials h_{n,l,m} of degree n-1 in four complex
variables, simultaneous eigenfunctions of the conformal Hamiltonian
H = z.d/dz + 1, the total angular momentum L^2 and its third component L3.
Each (n, l) ladder is built once: an explicit top seed at m = l, lowered
step by step with L- = L1 - i L2 down to m = -l; construction and
verification are exact over Q(i).

Also provides the rational embedding of Minkowski points into the complex
quadric coordinates z(x) and its sphere identity sum z^2 = conj(w)/w.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .poly import Poly, monomials_of_degree
from .reports import Report
from .scalars import QI

NVARS = 4
_ONE = QI(1)
_I = QI(0, 1)


class HarmonicError(ValueError):
    pass


def _z(i: int) -> Poly:
    return Poly.variable(NVARS, i, _ONE)


def laplacian(p: Poly) -> Poly:
    out = Poly(NVARS)
    for i in range(NVARS):
        out = out + p.diff(i).diff(i)
    return out


def euler(p: Poly) -> Poly:
    out = Poly(NVARS)
    for i in range(NVARS):
        out = out + p.diff(i).mul_var(i)
    return out


def conformal_hamiltonian(p: Poly) -> Poly:
    return euler(p) + p


_EPS = {(1, 2): 3, (2, 3): 1, (3, 1): 2}


def angular_momentum(j: int, p: Poly) -> Poly:
    """L_j = i eps_{jkl} z_l d/dz_k acting on the first three variables."""
    out = Poly(NVARS)
    for (a, b), c in _EPS.items():
        if c == j:
            # eps_{j k l} with (k, l) = (a, b) positive orientation
            out = out + p.diff(a - 1).mul_var(b - 1).scale(_I)
            out = out - p.diff(b - 1).mul_var(a - 1).scale(_I)
    return out


def l_squared(p: Poly) -> Poly:
    out = Poly(NVARS)
    for j in (1, 2, 3):
        out = out + angular_momentum(j, angular_momentum(j, p))
    return out


def lowering(p: Poly) -> Poly:
    return angular_momentum(1, p) - angular_momentum(2, p).scale(_I)


def raising(p: Poly) -> Poly:
    return angular_momentum(1, p) + angular_momentum(2, p).scale(_I)


@dataclass(frozen=True)
class HarmonicMode:
    n: int
    l: int
    m: int
    poly: Poly


def _top_seed(n: int, l: int) -> Poly:
    """Top state h_{n,l,l}: (z1 + i z2)^l times a harmonic in (z4, rho^2).

    The radial factor sum_b c_b z4^(d-2b) rho^(2b) with rho^2 = z1^2 + z2^2
    + z3^2 and d = n-1-l is pinned (up to scale) by harmonicity, a small
    exact kernel computation.
    """
    d = n - 1 - l
    u = _z(0) + _z(1).scale(_I)
    ul = Poly.constant(NVARS, _ONE)
    for _ in range(l):
        ul = ul * u
    rho2 = _z(0) * _z(0) + _z(1) * _z(1) + _z(2) * _z(2)
    cands = []
    for b in range(d // 2 + 1):
        f = Poly.constant(NVARS, _ONE)
        for _ in range(b):
            f = f * rho2
        f = f.mul_var(3, d - 2 * b)
        cands.append(ul * f)
    images = [laplacian(c) for c in cands]
    monos = sorted({mm for im in images for mm in im.terms})
    if not monos:
        kern = [[_ONE] + [QI(0)] * (len(cands) - 1)]
    else:
        mat = [[im.terms.get(mm, QI(0)) for im in images] for mm in monos]
        kern = linalg.kernel(mat)
    if len(kern) != 1:
        raise HarmonicError(f"harmonic seed for (n,l) = ({n},{l}) is not unique")
    out = Poly(NVARS)
    for c, cand in zip(kern[0], cands):
        out = out + cand.scale(c)
    return out


def _normalize_leading(p: Poly) -> Poly:
    """Scale so the lexicographically first monomial has coefficient 1."""
    if p.is_zero():
        raise HarmonicError("cannot normalize the zero polynomial")
    lead = p.terms[p.leading_monomial()]
    return p.scale(_ONE / lead)


def harmonic_ladder(n: int, l: int) -> list[HarmonicMode]:
    """h_{n,l,m} for m = l, l-1, ..., -l from one seed; raises on invalid labels."""
    if n < 1 or not 0 <= l <= n - 1:
        raise HarmonicError(f"invalid ladder labels (n,l) = ({n},{l})")
    p = _top_seed(n, l)
    modes = [HarmonicMode(n, l, l, _normalize_leading(p))]
    for m in range(l - 1, -l - 1, -1):
        p = lowering(p)
        if p.is_zero():
            raise HarmonicError(f"lowering annihilated the mode ({n},{l},{m})")
        modes.append(HarmonicMode(n, l, m, _normalize_leading(p)))
    return modes


def build_harmonic(n: int, l: int, m: int) -> HarmonicMode:
    """Construct h_{n,l,m}; raises on invalid label ranges."""
    if n < 1 or not 0 <= l <= n - 1 or not -l <= m <= l:
        raise HarmonicError(f"invalid mode labels (n,l,m) = ({n},{l},{m})")
    return harmonic_ladder(n, l)[l - m]


def verify_mode(h: Poly, n: int, l: int, m: int) -> Report:
    """Exact eigen-checks: harmonicity, H, L^2 and L3."""
    rep = Report(f"harmonic/{n},{l},{m}")
    rep.add(f"mode/{n},{l},{m}/laplacian", laplacian(h).is_zero())
    d = conformal_hamiltonian(h) - h.scale(QI(n))
    rep.add(f"mode/{n},{l},{m}/conformal-hamiltonian", d.is_zero())
    d2 = l_squared(h) - h.scale(QI(l * (l + 1)))
    rep.add(f"mode/{n},{l},{m}/L2", d2.is_zero())
    d3 = angular_momentum(3, h) - h.scale(QI(m))
    rep.add(f"mode/{n},{l},{m}/L3", d3.is_zero())
    rep.add(f"mode/{n},{l},{m}/nonzero", not h.is_zero())
    return rep


def level_count_check(modes: list[HarmonicMode]) -> Report:
    """Each level n up to the highest of `modes` carries exactly n^2
    linearly independent modes among them."""
    nmax = max((mode.n for mode in modes), default=0)
    rep = Report(f"harmonics/levels<={nmax}")
    for n in range(1, nmax + 1):
        level = [mode for mode in modes if mode.n == n]
        monos = sorted(set(monomials_of_degree(NVARS, n - 1)))
        mat = [[mode.poly.terms.get(mm, QI(0)) for mm in monos] for mode in level]
        r = linalg.rank(mat)
        rep.add(f"harmonics/level{n}/count",
                len(level) == n * n and r == n * n,
                detail=f"{len(level)} modes, rank {r}, expected {n * n}")
    return rep


def angular_algebra_check(degree: int = 3) -> Report:
    """[L_j, L_k] = i eps_{jkl} L_l and commutation of H with L^2, L3.

    Verified as exact operator identities on the full polynomial space of
    the given degree.
    """
    rep = Report("harmonics/angular-algebra")
    basis = [Poly(NVARS, {mm: _ONE}) for d in range(degree + 1)
             for mm in monomials_of_degree(NVARS, d)]
    for (j, k), l in _EPS.items():
        ok = True
        for p in basis:
            lhs = angular_momentum(j, angular_momentum(k, p)) \
                - angular_momentum(k, angular_momentum(j, p))
            rhs = angular_momentum(l, p).scale(_I)
            if lhs != rhs:
                ok = False
                break
        rep.add(f"angular/[L{j},L{k}]=iL{l}", ok)
    for name, op in (("L2", l_squared), ("L3", lambda q: angular_momentum(3, q))):
        ok = all(conformal_hamiltonian(op(p)) == op(conformal_hamiltonian(p))
                 for p in basis)
        rep.add(f"angular/[H,{name}]=0", ok)
    return rep


# ---------------------------------------------------------------------------
# Compactification


class ConformalInfinityError(ValueError):
    pass


def compactify(x) -> tuple:
    """Map a rational Minkowski 4-vector (x0, x1, x2, x3) into complex z.

    z_i = x_i / w for i = 1..3, z_4 = (1 - x^2) / (2w) with
    2w = 1 + x^2 - 2 i x0 and x^2 the Minkowski square.  Points with w = 0
    sit at conformal infinity and are rejected.
    """
    x0, x1, x2, x3 = (Fraction(c) for c in x)
    xsq = x1 * x1 + x2 * x2 + x3 * x3 - x0 * x0
    two_w = QI(1 + xsq, -2 * x0)
    if not two_w:
        raise ConformalInfinityError(f"point {x} lies at conformal infinity")
    w = two_w * QI(Fraction(1, 2))
    return (QI(x1) / w, QI(x2) / w, QI(x3) / w, QI(1 - xsq) / two_w)


def omega(x) -> QI:
    x0, x1, x2, x3 = (Fraction(c) for c in x)
    xsq = x1 * x1 + x2 * x2 + x3 * x3 - x0 * x0
    return QI(1 + xsq, -2 * x0) * QI(Fraction(1, 2))


def sphere_identity_defect(x) -> QI:
    """sum z_a(x)^2 - conj(w)/w, identically zero away from infinity."""
    z = compactify(x)
    s = QI(0)
    for c in z:
        s = s + c * c
    w = omega(x)
    return s - w.conj() / w


def sphere_identity_polynomial_check() -> bool:
    """The identity behind the map: 4|x|^2 + (1-x^2)^2 = |1+x^2-2ix0|^2.

    Expanded as a polynomial identity in the four real coordinates, using
    the same exact polynomial engine that backs the harmonic modes.
    """
    xs = [Poly.variable(4, i, _ONE) for i in range(4)]  # x0..x3
    xsq = xs[1] * xs[1] + xs[2] * xs[2] + xs[3] * xs[3] - xs[0] * xs[0]
    c1 = Poly.constant(4, _ONE)
    lhs = (xs[1] * xs[1] + xs[2] * xs[2] + xs[3] * xs[3]).scale(QI(4)) \
        + (c1 - xsq) * (c1 - xsq)
    rhs = (c1 + xsq) * (c1 + xsq) + (xs[0] * xs[0]).scale(QI(4))
    return lhs == rhs
