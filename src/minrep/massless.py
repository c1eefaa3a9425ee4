"""Light-cone momentum-space realization of the 4-mode oscillator algebra.

States are polynomials P(z1, z2, zb1, zb2) standing for P times the
Gaussian ground state; the 1/sqrt(2) in the first-order operators lives in
the ring Q(i)[s]/(s^2-2), and every quadratic lands back in Q(i).  The
Gaussian factor is folded into the effective derivative action, and the
inner product is evaluated by the exact moment rule, normalized so the
ground state has unit norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .poly import Poly, monomials_up_to
from .reports import Report
from .scalars import QI, QIS
from .weylalg import WeylElement

# variable order: z1, z2, zb1, zb2
NVARS = 4
_Z = (0, 1)
_ZB = (2, 3)
_HALF_S = QIS(QI(0), QI(Fraction(1, 2)))   # 1/sqrt(2)
_ONE = QIS(QI(1))


def vacuum() -> Poly:
    return Poly.constant(NVARS, _ONE)


def _conj_var(i: int) -> int:
    return i + 2 if i < 2 else i - 2


def eff_diff(p: Poly, i: int) -> Poly:
    """Derivative through the Gaussian: d_i(P e^-zzb) = (d_i P - zc P) e^-zzb."""
    return p.diff(i) - p.mul_var(_conj_var(i))


def op_a(alpha: int):
    return lambda p: p.diff(_Z[alpha - 1]).scale(_HALF_S)


def op_a_star(alpha: int):
    def act(p):
        z = _Z[alpha - 1]
        return (p.mul_var(z).scale(QIS(QI(2))) - p.diff(_ZB[alpha - 1])).scale(_HALF_S)
    return act


def op_b(alpha: int):
    return lambda p: p.diff(_ZB[alpha - 1]).scale(_HALF_S)


def op_b_star(alpha: int):
    def act(p):
        zb = _ZB[alpha - 1]
        return (p.mul_var(zb).scale(QIS(QI(2))) - p.diff(_Z[alpha - 1])).scale(_HALF_S)
    return act


@dataclass(frozen=True)
class DiffOpRealization:
    """The eight first-order operators keyed by mode, plus application maps."""

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
            out = out + img.scale(QIS(q))
        return out


def realize_schrodinger() -> DiffOpRealization:
    ops = {}
    for alpha in (1, 2):
        ops[(("a", alpha), False)] = op_a(alpha)
        ops[(("a", alpha), True)] = op_a_star(alpha)
        ops[(("b", alpha), False)] = op_b(alpha)
        ops[(("b", alpha), True)] = op_b_star(alpha)
    return DiffOpRealization(ops)


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


def surd_cancellation_check(degree: int = 3) -> Report:
    """Composite quadratics have no residual sqrt(2) component."""
    real = realize_schrodinger()
    rep = Report("massless/surd")
    basis = _basis(degree)
    ok = True
    for mode in (("a", 1), ("a", 2), ("b", 1), ("b", 2)):
        num = lambda p, m=mode: real.ops[(m, True)](real.ops[(m, False)](p))
        for p in basis:
            img = num(p)
            for c in img.terms.values():
                if c.v:
                    ok = False
    rep.add("surd/quadratics-rational", ok,
            detail="s-components cancel in every bilinear")
    return rep


# ---------------------------------------------------------------------------
# Exact Gaussian inner product


def inner_product(p: Poly, q: Poly) -> QI:
    """<P, Q> for states P e^-zzb, Q e^-zzb with unit ground-state norm.

    The moment rule: a monomial z1^a zb1^b z2^c zb2^d in conj(P) Q
    integrates to delta_ab delta_cd a! c! / 2^(a+c).
    """
    prod = _swap_conj(p) * q
    total = QI(0)
    for mono, coeff in prod.terms.items():
        a, c, b, d = mono
        if a != b or c != d:
            continue
        w = Fraction(factorial(a) * factorial(c), 2 ** (a + c))
        total = total + coeff.rational_part() * QI(w)
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
    rep.add("vacuum/(H1+2H2+H3)|0>=2|0>", img == vac.scale(QIS(QI(2))),
            defect=str(img - vac.scale(QIS(QI(2)))))

    # the same operator in closed form: (z zb - dbar d) P, Gaussian folded
    direct = Poly(NVARS)
    for alpha in (0, 1):
        z, zb = _Z[alpha], _ZB[alpha]
        direct = direct + vac.mul_var(z).mul_var(zb)
        direct = direct - eff_diff(eff_diff(vac, z), zb)
    rep.add("vacuum/(zzb-dbar.d)|0>=2|0>", direct == vac.scale(QIS(QI(2))),
            defect=str(direct - vac.scale(QIS(QI(2)))))

    rep.add("vacuum/<0|0>=1", inner_product(vac, vac) == QI(1),
            detail=f"<0|0> = {inner_product(vac, vac)}")

    # moment rule against the closed radial integral value for one quantum:
    # norm of a1*|0> must be 1 = <0| a1 a1* |0>
    a1s = real.ops[(("a", 1), True)](vac)
    rep.add("vacuum/|a1*0|^2=1", inner_product(a1s, a1s) == QI(1),
            detail=f"norm {inner_product(a1s, a1s)}")
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
# Light-like momentum identity


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
