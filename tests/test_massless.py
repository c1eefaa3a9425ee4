import itertools
from fractions import Fraction
from math import factorial

from minrep import massless, oscrep
from minrep.massless import (ccr_check, inner_product, lightlike_identity,
                             pauli_bilinears, realize_schrodinger, vacuum,
                             vacuum_checks)
from minrep.poly import Poly, monomials_up_to
from minrep.scalars import QI, QIS


class TestRealization:
    def test_ccr_on_degree_six(self):
        assert ccr_check(6).ok

    def test_annihilators_kill_vacuum(self):
        real = realize_schrodinger()
        vac = vacuum()
        for alpha in (1, 2):
            assert real.ops[(("a", alpha), False)](vac).is_zero()
            assert real.ops[(("b", alpha), False)](vac).is_zero()

    def test_ccr_bracket_on_constant(self):
        real = realize_schrodinger()
        a1 = real.ops[(("a", 1), False)]
        a1s = real.ops[(("a", 1), True)]
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
        real = realize_schrodinger()
        gens = oscrep.su22_generators()
        center = gens.H[0] + gens.H[1].scale(2) + gens.H[2]
        got = real.apply(center, vacuum())
        assert got == vacuum().scale(QIS(QI(2)))

    def test_first_level_norms(self):
        # <0| a a* |0> = 1 for each creation operator
        real = realize_schrodinger()
        vac = vacuum()
        for mode in (("a", 1), ("a", 2), ("b", 1), ("b", 2)):
            state = real.ops[(mode, True)](vac)
            assert inner_product(state, state) == QI(1)

    def test_moment_rule_against_closed_form(self):
        # independent check of the pairing: |u1^k|^2 = k!
        for k in range(5):
            p = Poly(4, {(k, 0, 0, 0): QI(1)})
            assert inner_product(p, p) == QI(factorial(k))

    def test_orthogonality_of_distinct_monomials(self):
        p = Poly(4, {(1, 0, 0, 0): QIS(QI(1))})
        q = Poly(4, {(0, 1, 0, 0): QIS(QI(1))})
        assert inner_product(p, q) == QI(0)

    def test_first_order_operators_pair_with_their_adjoints(self):
        # <p, x y q> = <y^+ x^+ p, q>, where the adjoint of c is c* and of
        # c* is c: the pairing and the realization agree in any coordinates
        real = realize_schrodinger()
        vac = vacuum()
        monos = []
        for m in monomials_up_to(4, 2):
            p = vac
            for i, e in enumerate(m):
                p = p.mul_var(i, e)
            monos.append(p)
        for (kx, x), (ky, y) in itertools.product(real.ops.items(), repeat=2):
            xd, yd = real.ops[(kx[0], not kx[1])], real.ops[(ky[0], not ky[1])]
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


class TestFunctoriality:
    def test_realized_brackets_match_symbolic(self):
        assert massless.realization_functoriality_check(3).ok

    def test_helicity_kills_vacuum(self):
        real = realize_schrodinger()
        h = oscrep.su22_generators().extras["h"]
        assert real.apply(h, vacuum()).is_zero()


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
        out = Poly(4)
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
        real = realize_schrodinger()
        gens = oscrep.su22_generators()
        elements = gens.E + gens.F + gens.H + list(gens.extras.values())
        assert len(elements) == 13
        cases = 0
        for w in elements:
            for alpha in monomials_up_to(4, 5):
                p = Poly(4, {alpha: QI(1)})
                want = {}
                for beta, d in self._z_apply(w, p).terms.items():
                    shift = sum(alpha) - sum(beta)
                    assert shift % 2 == 0
                    want[beta] = d * Fraction(2) ** (shift // 2)
                assert real.apply(w, p) == Poly(4, want), (w, alpha)
                cases += 1
        assert cases == 1638
