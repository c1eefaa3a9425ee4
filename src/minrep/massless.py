"""Light-cone momentum-space realization of the 4-mode oscillator algebra.

States are polynomials P(u1, u2, ub1, ub2) standing for P times the
Gaussian ground state e^(-u.ub/2), in the coordinates u = sqrt(2) z of the
light-cone spinor z, where every coefficient is a Gaussian rational.  With
v a mode's own variable (u_alpha for a_alpha, ub_alpha for b_alpha) and vb
its partner, the mode acts as c = d/dv and c* = v - d/dvb: the Gaussian is
folded into the action.  The inner product is evaluated by the exact
moment rule u^a ub^a -> a!, which gives the ground state unit norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .poly import Poly, monomials_up_to
from .reports import Report
from .scalars import QI
from .weylalg import WeylElement

# variable order: u1, u2, ub1, ub2
NVARS = 4
_U = (0, 1)
_UB = (2, 3)
MODES = (("a", 1), ("a", 2), ("b", 1), ("b", 2))
_ONE = QI(1)
_TWO = QI(2)
_HALF = QI(Fraction(1, 2))


def vacuum() -> Poly:
    return Poly.constant(NVARS, _ONE)


def _conj_var(i: int) -> int:
    return i + 2 if i < 2 else i - 2


def eff_diff(p: Poly, i: int) -> Poly:
    """Derivative through the Gaussian: d_i(P e^-u.ub/2) = (d_i P - vb P/2) e^-u.ub/2."""
    return p.diff(i) - p.mul_var(_conj_var(i)).scale(_HALF)


def _operator(mode, creator: bool):
    """c = d/dv, or c* = v - d/dvb, for the mode's own variable v."""
    kind, alpha = mode
    v = (_U if kind == "a" else _UB)[alpha - 1]
    if not creator:
        return lambda p: p.diff(v)
    vb = _conj_var(v)
    return lambda p: p.mul_var(v) - p.diff(vb)


@dataclass(frozen=True)
class DiffOpRealization:
    """The eight first-order operators keyed by (mode, creator), plus application maps."""

    ops: dict

    def apply_monomial(self, creators, annihilators, p: Poly) -> Poly:
        for m in reversed(list(annihilators)):
            p = self.ops[(m, False)](p)
        for m in reversed(list(creators)):
            p = self.ops[(m, True)](p)
        return p

    def apply(self, w: WeylElement, p: Poly) -> Poly:
        out = Poly(NVARS)
        for mono, q in w.terms.items():
            img = self.apply_monomial(mono.creators, mono.annihilators, p)
            out = out + img.scale(q)
        return out


def realize_schrodinger() -> DiffOpRealization:
    return DiffOpRealization({(mode, creator): _operator(mode, creator)
                              for mode in MODES for creator in (False, True)})


def _basis(degree: int):
    return [Poly(NVARS, {m: _ONE}) for m in monomials_up_to(NVARS, degree)]


def ccr_check(degree: int = 6) -> Report:
    """CCR as exact operator identities on all monomials of degree <= D."""
    real = realize_schrodinger()
    rep = Report(f"massless/ccr/degree<={degree}")
    basis = _basis(degree)
    keys = sorted(real.ops)
    for k1 in keys:
        for k2 in keys:
            if k1 >= k2:
                continue
            want_one = (k1[0] == k2[0] and not k1[1] and k2[1])
            o1, o2 = real.ops[k1], real.ops[k2]
            ok = True
            for p in basis:
                br = o1(o2(p)) - o2(o1(p))
                want = p if want_one else Poly(NVARS)
                if br != want:
                    ok = False
                    break
            n1 = f"{k1[0][0]}{k1[0][1]}" + ("*" if k1[1] else "")
            n2 = f"{k2[0][0]}{k2[0][1]}" + ("*" if k2[1] else "")
            rep.add(f"ccr/[{n1},{n2}]", ok,
                    detail="= 1" if want_one else "= 0")
    return rep


# ---------------------------------------------------------------------------
# Exact Gaussian inner product


def inner_product(p: Poly, q: Poly) -> QI:
    """<P, Q> for states P e^-u.ub/2, Q e^-u.ub/2 with unit ground-state norm.

    The moment rule: a monomial u1^a ub1^b u2^c ub2^d in conj(P) Q
    integrates to delta_ab delta_cd a! c!.
    """
    total = QI(0)
    for (a, c, b, d), coeff in (_swap_conj(p) * q).terms.items():
        if a == b and c == d:
            total = total + coeff * (factorial(a) * factorial(c))
    return total


def _swap_conj(p: Poly) -> Poly:
    t = {}
    for (a, c, b, d), coeff in p.terms.items():
        t[(b, d, a, c)] = coeff.conj()
    return Poly(NVARS, t)


def vacuum_checks() -> Report:
    """Ground-state identities for the realized conformal generators."""
    from . import oscrep

    real = realize_schrodinger()
    rep = Report("massless/vacuum")
    vac = vacuum()
    gens = oscrep.su22_generators()

    for name, el in (("E1", gens.E[0]), ("H1", gens.H[0]),
                     ("E3", gens.E[2]), ("H3", gens.H[2]),
                     ("F1", gens.F[0]), ("F2", gens.F[1]), ("F3", gens.F[2]),
                     ("h", gens.extras["h"])):
        img = real.apply(el, vac)
        rep.add(f"vacuum/{name}|0>=0", img.is_zero(), defect=str(img))

    center = gens.H[0] + gens.H[1].scale(2) + gens.H[2]
    img = real.apply(center, vac)
    rep.add("vacuum/(H1+2H2+H3)|0>=2|0>", img == vac.scale(_TWO),
            defect=str(img - vac.scale(_TWO)))

    # the same operator in closed form: (u.ub/2 - 2 dbar.d) P, Gaussian folded
    direct = Poly(NVARS)
    for u, ub in zip(_U, _UB):
        direct = direct + vac.mul_var(u).mul_var(ub).scale(_HALF)
        direct = direct - eff_diff(eff_diff(vac, u), ub).scale(_TWO)
    rep.add("vacuum/(zzb-dbar.d)|0>=2|0>", direct == vac.scale(_TWO),
            defect=str(direct - vac.scale(_TWO)))

    rep.add("vacuum/<0|0>=1", inner_product(vac, vac) == QI(1),
            detail=f"<0|0> = {inner_product(vac, vac)}")

    # moment rule against the closed radial integral value for one quantum:
    # norm of a1*|0> must be 1 = <0| a1 a1* |0>
    a1s = real.ops[(("a", 1), True)](vac)
    rep.add("vacuum/|a1*0|^2=1", inner_product(a1s, a1s) == QI(1),
            detail=f"norm {inner_product(a1s, a1s)}")

    # and against the ladder: |(c*)^k|0>|^2 = <0| c^k (c*)^k |0> = k!
    ok = True
    for mode in MODES:
        state = vac
        for k in range(5):
            ok &= inner_product(state, state) == factorial(k)
            state = real.ops[(mode, True)](state)
    rep.add("vacuum/|c*^k 0|^2=k!", ok, detail="each creator c*, k = 0..4")
    return rep


def realization_functoriality_check(degree: int = 4) -> Report:
    """Brackets commute with the realization on polynomials of degree <= D.

    For every Chevalley pair (x, y) of the conformal generator set, the
    realized commutator equals the realization of the symbolic commutator.
    """
    from . import oscrep
    from .weylalg import commutator

    real = realize_schrodinger()
    rep = Report(f"massless/functoriality/degree<={degree}")
    gens = oscrep.su22_generators()
    named = [(f"E{i+1}", e) for i, e in enumerate(gens.E)]
    named += [(f"F{i+1}", f) for i, f in enumerate(gens.F)]
    named += [("E_theta", gens.extras["E_theta"]), ("H_theta", gens.extras["H_theta"])]
    basis = _basis(degree)
    for i, (n1, x) in enumerate(named):
        for n2, y in named[i + 1:]:
            sym = commutator(x, y)
            ok = all(real.apply(x, real.apply(y, p)) - real.apply(y, real.apply(x, p))
                     == real.apply(sym, p) for p in basis)
            rep.add(f"functorial/[{n1},{n2}]", ok)
    return rep


# ---------------------------------------------------------------------------
# Light-like momentum identity, in the spinor z itself


def pauli_bilinears():
    """p_mu = z sigma_mu zb as polynomials in (z1, z2, zb1, zb2)."""
    one = QI(1)
    z1 = Poly.variable(NVARS, 0, one)
    z2 = Poly.variable(NVARS, 1, one)
    zb1 = Poly.variable(NVARS, 2, one)
    zb2 = Poly.variable(NVARS, 3, one)
    i = QI(0, 1)
    p0 = z1 * zb1 + z2 * zb2
    p1 = z1 * zb2 + z2 * zb1
    p2 = (z1 * zb2).scale(-i) + (z2 * zb1).scale(i)
    p3 = z1 * zb1 - z2 * zb2
    return p0, p1, p2, p3


def lightlike_identity() -> Report:
    rep = Report("massless/lightlike")
    p0, p1, p2, p3 = pauli_bilinears()
    defect = p0 * p0 - p1 * p1 - p2 * p2 - p3 * p3
    rep.add("lightlike/p^2=0", defect.is_zero(), defect=str(defect))
    one = QI(1)
    zzb = Poly.variable(NVARS, 0, one) * Poly.variable(NVARS, 2, one) \
        + Poly.variable(NVARS, 1, one) * Poly.variable(NVARS, 3, one)
    rep.add("lightlike/p0=z.zb", p0 == zzb)
    val = p0.evaluate([QI(1), QI(0), QI(1), QI(0)])
    rep.add("lightlike/p0-unit-spinor", val == QI(1), detail=f"p0(1,0) = {val}")
    z1zb1 = Poly.variable(NVARS, 0, one) * Poly.variable(NVARS, 2, one)
    z2zb2 = Poly.variable(NVARS, 1, one) * Poly.variable(NVARS, 3, one)
    rep.add("lightlike/p3-convention", p3 == z1zb1 - z2zb2)
    return rep
