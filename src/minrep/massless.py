"""Light-cone momentum-space realization of the 4-mode oscillator algebra.

States are polynomials P(u1, u2, ub1, ub2) standing for P times the
Gaussian ground state e^(-u.ub/2), in the coordinates u = sqrt(2) z of the
light-cone spinor z, where every coefficient is a Gaussian rational.  With
v a mode's own variable (u_alpha for a_alpha, ub_alpha for b_alpha) and vb
its partner, the mode acts as c = d/dv and c* = v - d/dvb: the Gaussian is
folded into the action.  In the Bargmann picture the variable v is the
creator of the mode ("u", v) and d/dv its annihilator, so each of the
eight operators, and each derivative through the Gaussian, is a
``WeylElement`` in those four modes, built once at import.  ``realize``
substitutes the operators into a Weyl element of the oscillator modes:
each of its terms becomes the normal-ordered product of its substituted
factors, so a realized element is again one Weyl element, which
``poly.apply`` applies to a polynomial.  The inner product is evaluated
by the exact moment rule u^a ub^a -> a!, which gives the ground state
unit norm.

The CCR and the functoriality of brackets are each one identity of Weyl
elements per pair of operators, whose defect ``weylalg.commutator``
forms exactly.  The Bargmann action of the Weyl algebra on polynomials
is faithful: if b is a derivative multidegree of least total degree
among the terms c_ab z^a d^b of a nonzero normal-ordered w, then
w z^b = b! sum_a c_ab z^a, which is not zero.  So an identity of the
elements holds on every polynomial of every degree.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .poly import Poly, apply, operator_terms
from .reports import Report, render_defect
from .scalars import QI, QI_I, QI_ONE
from .weylalg import WeylElement, commutator, normal_product

# variable order: u1, u2, ub1, ub2
NVARS = 4
_U = (0, 1)
_UB = (2, 3)
MODES = (("a", 1), ("a", 2), ("b", 1), ("b", 2))
_TWO = QI(2)
_HALF = QI(Fraction(1, 2))


def vacuum() -> Poly:
    return Poly.constant(NVARS, QI_ONE)


def _conj_var(i: int) -> int:
    return i + 2 if i < 2 else i - 2


def _u(i: int) -> tuple:
    """The Bargmann mode of the variable i."""
    return ("u", i)


_EFF_DIFF = tuple(WeylElement.annihilator(_u(i)) - WeylElement.creator(_u(_conj_var(i)), _HALF)
                  for i in range(NVARS))


def eff_diff(p: Poly, i: int) -> Poly:
    """Derivative through the Gaussian: d_i(P e^-u.ub/2) = (d_i P - vb P/2) e^-u.ub/2."""
    return apply(operator_terms(_EFF_DIFF[i]), p)


# c = d/dv and c* = v - d/dvb, for each mode's own variable v
_OWN = {mode: (_U if mode[0] == "a" else _UB)[mode[1] - 1] for mode in MODES}
_OPS = {**{(mode, False): WeylElement.annihilator(_u(v)) for mode, v in _OWN.items()},
        **{(mode, True): WeylElement.creator(_u(v)) - WeylElement.annihilator(_u(_conj_var(v)))
           for mode, v in _OWN.items()}}


def realize(w: WeylElement) -> WeylElement:
    """w with each oscillator mode's creator and annihilator replaced by
    its operator in ``_OPS``: each monomial c*_1..c*_p c_1..c_q becomes
    the normal-ordered product of its substituted factors in that order,
    scaled by its coefficient."""
    out = WeylElement.zero()
    for mono, q in w.terms.items():
        x = WeylElement.scalar(q)
        for key in [(m, True) for m in mono.creators] + [(m, False) for m in mono.annihilators]:
            x = normal_product(x, _OPS[key])
        out = out + x
    return out


def ccr_check() -> Report:
    """The CCR of the eight operators, each pair's bracket minus 1 or 0
    formed as one exact Weyl element."""
    rep = Report("massless/ccr")
    keys = sorted(_OPS)
    for k1 in keys:
        for k2 in keys:
            if k1 >= k2:
                continue
            want_one = (k1[0] == k2[0] and not k1[1] and k2[1])
            defect = commutator(_OPS[k1], _OPS[k2])
            if want_one:
                defect = defect - WeylElement.one()
            n1 = f"{k1[0][0]}{k1[0][1]}" + ("*" if k1[1] else "")
            n2 = f"{k2[0][0]}{k2[0][1]}" + ("*" if k2[1] else "")
            rep.add(f"ccr/[{n1},{n2}]", defect.is_zero(), detail="= 1" if want_one else "= 0",
                    defect=render_defect(defect))
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
    return Poly(t)


def vacuum_checks() -> Report:
    """Ground-state identities for the realized conformal generators."""
    from . import oscrep

    rep = Report("massless/vacuum")
    vac = vacuum()
    gens = oscrep.su22_generators()

    for name, el in (("E1", gens.E[0]), ("H1", gens.H[0]),
                     ("E3", gens.E[2]), ("H3", gens.H[2]),
                     ("F1", gens.F[0]), ("F2", gens.F[1]), ("F3", gens.F[2]),
                     ("h", gens.extras["h"])):
        img = apply(operator_terms(realize(el)), vac)
        rep.identity(f"vacuum/{name}|0>=0", img)

    center = gens.H[0] + gens.H[1].scale(2) + gens.H[2]
    img = apply(operator_terms(realize(center)), vac)
    rep.identity("vacuum/(H1+2H2+H3)|0>=2|0>", img - vac.scale(_TWO))

    # the same operator in closed form: (u.ub/2 - 2 dbar.d) P, Gaussian folded
    direct = Poly()
    for u, ub in zip(_U, _UB):
        direct = direct + vac.mul_var(u).mul_var(ub).scale(_HALF)
        direct = direct - eff_diff(eff_diff(vac, u), ub).scale(_TWO)
    rep.identity("vacuum/(zzb-dbar.d)|0>=2|0>", direct - vac.scale(_TWO))

    rep.add("vacuum/<0|0>=1", inner_product(vac, vac) == QI(1),
            detail=f"<0|0> = {inner_product(vac, vac)}")

    # moment rule against the closed radial integral value for one quantum:
    # norm of a1*|0> must be 1 = <0| a1 a1* |0>
    a1s = apply(operator_terms(_OPS[(("a", 1), True)]), vac)
    rep.add("vacuum/|a1*0|^2=1", inner_product(a1s, a1s) == QI(1),
            detail=f"norm {inner_product(a1s, a1s)}")

    # and against the ladder: |(c*)^k|0>|^2 = <0| c^k (c*)^k |0> = k!
    ok = True
    for mode in MODES:
        state = vac
        for k in range(5):
            ok &= inner_product(state, state) == factorial(k)
            state = apply(operator_terms(_OPS[(mode, True)]), state)
    rep.add("vacuum/|c*^k 0|^2=k!", ok, detail="each creator c*, k = 0..4")
    return rep


def realization_functoriality_check() -> Report:
    """Brackets commute with the realization.

    For every Chevalley pair (x, y) of the conformal generator set, the
    commutator of the realized elements minus the realization of the
    symbolic commutator is one exact Weyl element, which must be zero.
    """
    from . import oscrep

    rep = Report("massless/functoriality")
    gens = oscrep.su22_generators()
    named = [(f"E{i+1}", e) for i, e in enumerate(gens.E)]
    named += [(f"F{i+1}", f) for i, f in enumerate(gens.F)]
    named += [("E_theta", gens.extras["E_theta"]), ("H_theta", gens.extras["H_theta"])]
    realized = {n: realize(w) for n, w in named}
    for i, (n1, x) in enumerate(named):
        for n2, y in named[i + 1:]:
            defect = commutator(realized[n1], realized[n2]) - realize(commutator(x, y))
            rep.add(f"functorial/[{n1},{n2}]", defect.is_zero(),
                    defect=render_defect(defect))
    return rep


# ---------------------------------------------------------------------------
# Light-like momentum identity, in the spinor z itself


# sigma_0 = 1 and the Pauli matrices sigma_1..sigma_3, each as {(alpha, beta): entry}
_PAULI = ({(0, 0): QI_ONE, (1, 1): QI_ONE},
          {(0, 1): QI_ONE, (1, 0): QI_ONE},
          {(0, 1): -QI_I, (1, 0): QI_I},
          {(0, 0): QI_ONE, (1, 1): -QI_ONE})


def pauli_bilinears():
    """p_mu = sum z_alpha (sigma_mu)_{alpha beta} zb_beta, read off the table
    ``_PAULI``, as polynomials in (z1, z2, zb1, zb2)."""
    z = [Poly.variable(NVARS, i) for i in range(NVARS)]
    return tuple(sum(((z[a] * z[2 + b]).scale(s) for (a, b), s in sigma.items()), Poly())
                 for sigma in _PAULI)


def lightlike_identity() -> Report:
    """p^2 = 0, and p0 and p3 of the Pauli table against their closed forms
    z.zb and z1 zb1 - z2 zb2."""
    rep = Report("massless/lightlike")
    p0, p1, p2, p3 = pauli_bilinears()
    defect = p0 * p0 - p1 * p1 - p2 * p2 - p3 * p3
    rep.identity("lightlike/p^2=0", defect)
    z1, z2, zb1, zb2 = (Poly.variable(NVARS, i) for i in range(NVARS))
    rep.add("lightlike/p0=z.zb", p0 == z1 * zb1 + z2 * zb2)
    val = p0.evaluate([QI(1), QI(0), QI(1), QI(0)])
    rep.add("lightlike/p0-unit-spinor", val == QI(1), detail=f"p0(1,0) = {val}")
    rep.add("lightlike/p3-convention", p3 == z1 * zb1 - z2 * zb2)
    return rep
