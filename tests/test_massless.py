import itertools
from fractions import Fraction
from math import factorial

from minrep import linalg, massless, oscrep, poly
from minrep.massless import (ccr_check, inner_product, lightlike_identity,
                             pauli_bilinears, realize, vacuum, vacuum_checks)
from minrep.poly import Poly, operator_terms
from minrep.scalars import QI, QIS
from minrep.weylalg import WeylElement, commutator
from monomials import monomials_up_to
from test_poly import DIFFOPS
from walk_oracle import columns


def _applied(w: WeylElement, p: Poly) -> Poly:
    return poly.apply(operator_terms(w), p)


def _op(key):
    """The operator of a (mode, creator) key, applied by the walker."""
    return lambda p: _applied(massless._OPS[key], p)


def _key_name(key) -> str:
    (kind, alpha), creator = key
    return f"{kind}{alpha}" + ("*" if creator else "")


def _ccr_brackets():
    """(id, X, Y, Z) of each CCR record, whose identity is [X, Y] = Z, read
    from the operators in ``massless._OPS`` when iterated."""
    for k1, k2 in itertools.combinations(sorted(massless._OPS), 2):
        one = k1[0] == k2[0] and not k1[1] and k2[1]
        yield (f"ccr/[{_key_name(k1)},{_key_name(k2)}]", massless._OPS[k1], massless._OPS[k2],
               WeylElement.one() if one else WeylElement.zero())


def _named_generators():
    gens = oscrep.su22_generators()
    named = [(f"E{i+1}", e) for i, e in enumerate(gens.E)]
    named += [(f"F{i+1}", f) for i, f in enumerate(gens.F)]
    return named + [("E_theta", gens.extras["E_theta"]), ("H_theta", gens.extras["H_theta"])]


def _functorial_brackets():
    """(id, R(x), R(y), R([x, y])) of each functoriality record, R the
    realization."""
    for (n1, x), (n2, y) in itertools.combinations(_named_generators(), 2):
        yield f"functorial/[{n1},{n2}]", realize(x), realize(y), realize(commutator(x, y))


def _columns_of(w: WeylElement, monos) -> dict:
    """w's walker columns on the monomials, keyed (column, row) as
    ``linalg.bracket_defect`` keys them."""
    cols = columns(w)
    return {(m, r): v for m in monos for r, v in cols[m].items()}


def _column_defects(brackets, degree: int) -> dict:
    """{id: [X, Y] - Z on the monomials of degree <= D}, each summed by
    ``linalg.bracket_defect`` on the walker columns, the route the checks
    took before they compared Weyl elements.  Each bracket's columns must
    be those of the symbolic commutator, and each defect's those of the
    symbolic defect."""
    monos = list(monomials_up_to(4, degree))
    out = {}
    for cid, x, y, z in brackets:
        cx, cy = columns(x), columns(y)
        bracket = commutator(x, y)
        assert linalg.bracket_defect(cx, cy, monos, columns(WeylElement.zero())) == \
            _columns_of(bracket, monos), cid
        out[cid] = linalg.bracket_defect(cx, cy, monos, columns(z))
        assert out[cid] == _columns_of(bracket - z, monos), cid
    return out


class TestRealization:
    def test_ccr_on_degree_six(self):
        # the symbolic check holds in every degree; the column route must
        # agree with it on all 28 pairs on the 210 monomials of degree <= 6
        rep = ccr_check()
        assert rep.ok and len(rep.records) == 28
        defects = _column_defects(_ccr_brackets(), 6)
        assert set(defects) == {r.check_id for r in rep.records}
        assert not any(defects.values())

    def test_annihilators_kill_vacuum(self):
        vac = vacuum()
        for alpha in (1, 2):
            assert _op((("a", alpha), False))(vac).is_zero()
            assert _op((("b", alpha), False))(vac).is_zero()

    def test_ccr_bracket_on_constant(self):
        a1 = _op((("a", 1), False))
        a1s = _op((("a", 1), True))
        p = vacuum()
        assert a1(a1s(p)) - a1s(a1(p)) == p

    def test_sqrt2_ring_relation(self):
        from minrep.scalars import QIS_SQRT2
        assert QIS_SQRT2 * QIS_SQRT2 == QIS(QI(2))


class TestVacuum:
    def test_all_vacuum_identities(self):
        assert vacuum_checks().ok

    def test_unit_norm(self):
        assert inner_product(vacuum(), vacuum()) == QI(1)

    def test_center_eigenvalue_two(self):
        gens = oscrep.su22_generators()
        center = gens.H[0] + gens.H[1].scale(2) + gens.H[2]
        got = _applied(realize(center), vacuum())
        assert got == vacuum().scale(QIS(QI(2)))

    def test_first_level_norms(self):
        # <0| a a* |0> = 1 for each creation operator
        vac = vacuum()
        for mode in (("a", 1), ("a", 2), ("b", 1), ("b", 2)):
            state = _op((mode, True))(vac)
            assert inner_product(state, state) == QI(1)

    def test_moment_rule_against_closed_form(self):
        # independent check of the pairing: |u1^k|^2 = k!
        for k in range(5):
            p = Poly({(k, 0, 0, 0): QI(1)})
            assert inner_product(p, p) == QI(factorial(k))

    def test_orthogonality_of_distinct_monomials(self):
        p = Poly({(1, 0, 0, 0): QI(1)})
        q = Poly({(0, 1, 0, 0): QI(1)})
        assert inner_product(p, q) == QI(0)

    def test_first_order_operators_pair_with_their_adjoints(self):
        # <p, x y q> = <y^+ x^+ p, q>, where the adjoint of c is c* and of
        # c* is c: the pairing and the realization agree in any coordinates
        monos = [Poly({m: QI(1)}) for m in monomials_up_to(4, 2)]
        ops = {key: _op(key) for key in massless._OPS}
        for (kx, x), (ky, y) in itertools.product(ops.items(), repeat=2):
            xd, yd = ops[(kx[0], not kx[1])], ops[(ky[0], not ky[1])]
            for p in monos:
                left = yd(xd(p))
                for q in monos:
                    assert inner_product(p, x(y(q))) == inner_product(left, q), \
                        (kx, ky, p, q)


class TestLightlike:
    def test_identity_and_conventions(self):
        assert lightlike_identity().ok

    def test_momentum_square_vanishes(self):
        p0, p1, p2, p3 = pauli_bilinears()
        assert (p0 * p0 - p1 * p1 - p2 * p2 - p3 * p3).is_zero()

    def test_energy_positive_on_sample_spinors(self):
        p0 = pauli_bilinears()[0]
        for z in ([QI(1), QI(0), QI(1), QI(0)],
                  [QI(2), QI(0, 1), QI(2), QI(0, -1)]):
            val = p0.evaluate(z)
            assert val.is_real() and val.real_fraction() > 0

    def test_a_flipped_sigma3_fails_the_p3_convention(self, monkeypatch):
        # p3 comes from the Pauli table and its record from the closed
        # form z1 zb1 - z2 zb2; p^2 = 0 does not see the sign
        pauli = list(massless._PAULI)
        pauli[3] = {ab: -s for ab, s in pauli[3].items()}
        monkeypatch.setattr(massless, "_PAULI", tuple(pauli))
        failing = [r.check_id for r in lightlike_identity().records if not r.passed]
        assert failing == ["lightlike/p3-convention"]


class TestFunctoriality:
    def test_realized_brackets_match_symbolic(self):
        # the column route agrees with it on all 28 pairs on degree <= 3
        rep = massless.realization_functoriality_check()
        assert rep.ok and len(rep.records) == 28
        defects = _column_defects(_functorial_brackets(), 3)
        assert set(defects) == {r.check_id for r in rep.records}
        assert not any(defects.values())

    def test_helicity_kills_vacuum(self):
        h = oscrep.su22_generators().extras["h"]
        assert _applied(realize(h), vacuum()).is_zero()


class TestColumnRealization:
    """Each realized element's walker columns, which both operator-identity
    checks read, against the element's monomials applied through the
    ``DiffOp`` oracles of its first-order operators, one by one."""

    @staticmethod
    def _oracle(key):
        (kind, alpha), creator = key
        return DIFFOPS[f"{kind}{alpha}" + ("*" if creator else "")]

    def _applied_in_turn(self, w, p: Poly) -> Poly:
        out = Poly()
        for mono, q in w.terms.items():
            img = p
            for m in reversed(mono.annihilators):
                img = self._oracle((m, False))(img)
            for m in reversed(mono.creators):
                img = self._oracle((m, True))(img)
            out = out + img.scale(q)
        return out

    def test_columns_are_the_operators_applied_in_turn(self):
        from minrep.weylalg import commutator

        gens = oscrep.su22_generators()
        generators = gens.E + gens.F + gens.H + list(gens.extras.values())
        brackets = [commutator(x, y) for x, y in itertools.combinations(gens.E + gens.F, 2)]
        # the 13 generators on all 330 monomials of degree <= 7, and each
        # bracket of two Chevalley generators on those of degree <= 3
        for elements, degree in ((generators, 7), (brackets, 3)):
            for w in elements:
                cols = columns(realize(w))
                for m in monomials_up_to(4, degree):
                    unit = Poly({m: QI(1)})
                    want = self._applied_in_turn(w, unit)
                    assert Poly(cols[m]) == want, (w, m)
                    assert _applied(realize(w), unit) == want, (w, m)

    def test_apply_is_linear_over_the_columns(self):
        w = oscrep.su22_generators().extras["E_theta"]
        p = Poly({(1, 0, 0, 0): QI(2, 1), (0, 1, 1, 0): QI(-1), (0, 0, 0, 2): QI(0, 3)})
        assert _applied(realize(w), p) == self._applied_in_turn(w, p)


# a1* = u1 - d/dub1 with the sign of its derivative flipped: [a1*, b1*] is
# then 2, not 0, while every pair of the other seven operators keeps its CCR
_A1_STAR = (("a", 1), True)
_A1_STAR_FLIPPED = WeylElement.creator(("u", 0)) + WeylElement.annihilator(("u", 2))


def _split(report, names_perturbed):
    named = [r for r in report.records if names_perturbed(r.check_id)]
    others = [r for r in report.records if not names_perturbed(r.check_id)]
    return named, others


class TestLargerInstances:
    """The column route agrees with the symbolic checks past the degrees of
    the tests above."""

    def test_ccr_on_degree_ten(self):
        assert len(list(monomials_up_to(4, 10))) == 1001
        assert not any(_column_defects(_ccr_brackets(), 10).values())

    def test_functoriality_on_degree_six(self):
        defects = _column_defects(_functorial_brackets(), 6)
        assert len(defects) == 28 and not any(defects.values())


class TestNegativeControls:
    """Each operator-identity check must fail exactly where an operator is wrong."""

    def test_ccr_fails_on_a_flipped_creator(self, monkeypatch):
        monkeypatch.setitem(massless._OPS, _A1_STAR, _A1_STAR_FLIPPED)
        named, others = _split(ccr_check(), lambda cid: "a1*" in cid)
        assert len(named) == 7 and len(others) == 21
        # [a1*, b1*] is the scalar 2
        failed = [(r.check_id, r.defect) for r in named if not r.passed]
        assert failed == [("ccr/[a1*,b1*]", "(2) 1")]
        assert all(r.defect == "" for r in named if r.passed)
        assert all(r.passed and r.defect == "" for r in others)
        # the column route: 2 on each of the 210 monomials of degree <= 6
        defects = _column_defects(_ccr_brackets(), 6)
        assert [cid for cid, d in defects.items() if d] == ["ccr/[a1*,b1*]"]
        assert defects["ccr/[a1*,b1*]"] == {(m, m): 2 for m in monomials_up_to(4, 6)}

    def test_functoriality_fails_on_a_flipped_creator(self, monkeypatch):
        uses = {n for n, w in _named_generators()
                if any(_A1_STAR[0] in mono.creators for mono in w.terms)}
        assert uses == {"E1", "E_theta", "H_theta"}
        monkeypatch.setitem(massless._OPS, _A1_STAR, _A1_STAR_FLIPPED)

        def names_perturbed(cid):
            return bool(uses & set(cid.split("[")[1].rstrip("]").split(",")))

        named, others = _split(massless.realization_functoriality_check(),
                               names_perturbed)
        assert named and others
        failed = {r.check_id: r.defect for r in named if not r.passed}
        assert failed == {
            "functorial/[E1,E2]": "(-2) u1 u3 + (2) u1* u1",
            "functorial/[E1,F3]": "(-2) u1 u3",
            "functorial/[E2,E_theta]": "(2) 1 + (-2) u1 u3 + (2) u1* u1 + (-2) u1* u3* "
                                       "+ ... (5 terms)",
            "functorial/[E2,H_theta]": "(2) u0 u3 + (-2) u1* u0",
            "functorial/[F3,E_theta]": "(2) 1 + (-2) u1 u3 + (2) u3* u3",
            "functorial/[F3,H_theta]": "(2) u0 u3",
        }
        assert all(r.defect == "" for r in named if r.passed)
        assert all(r.passed and r.defect == "" for r in others)
        # the column route fails the same records on degree <= 3
        defects = _column_defects(_functorial_brackets(), 3)
        assert {cid for cid, d in defects.items() if d} == set(failed)


class TestZPicture:
    """The u = sqrt(2) z realization against the z picture it replaces."""

    @staticmethod
    def _z_op(mode, creator):
        # sqrt(2) times a = d/dz / sqrt(2) and a* = (2 z - d/dzb) / sqrt(2),
        # and likewise for b with z and zb swapped: operators over Q(i)
        own = (0 if mode[0] == "a" else 2) + mode[1] - 1
        partner = (own + 2) % 4
        if creator:
            return lambda p: p.mul_var(own).scale(QI(2)) - p.diff(partner)
        return lambda p: p.diff(own)

    def _z_apply(self, w, p):
        out = Poly()
        for mono, q in w.terms.items():
            img = p
            for m in reversed(mono.annihilators):
                img = self._z_op(m, False)(img)
            for m in reversed(mono.creators):
                img = self._z_op(m, True)(img)
            k = len(mono.creators) + len(mono.annihilators)
            assert k % 2 == 0
            # each first-order operator above carries an extra sqrt(2)
            out = out + img.scale(q * Fraction(1, 2 ** (k // 2)))
        return out

    def test_generators_match_the_z_picture(self):
        # z^alpha is the state 2^(-|alpha|/2) u^alpha, so if w z^alpha is
        # sum d_beta z^beta then w u^alpha is
        # sum d_beta 2^((|alpha| - |beta|)/2) u^beta
        gens = oscrep.su22_generators()
        elements = gens.E + gens.F + gens.H + list(gens.extras.values())
        assert len(elements) == 13
        cases = 0
        for w in elements:
            for alpha in monomials_up_to(4, 5):
                p = Poly({alpha: QI(1)})
                want = {}
                for beta, d in self._z_apply(w, p).terms.items():
                    shift = sum(alpha) - sum(beta)
                    assert shift % 2 == 0
                    want[beta] = d * Fraction(2) ** (shift // 2)
                assert _applied(realize(w), p) == Poly(want), (w, alpha)
                cases += 1
        assert cases == 1638
