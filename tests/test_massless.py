from fractions import Fraction
from math import factorial

from minrep import massless, oscrep
from minrep.massless import (ccr_check, inner_product, lightlike_identity,
                             pauli_bilinears, realize_schrodinger,
                             surd_cancellation_check, vacuum,
                             vacuum_checks)
from minrep.poly import Poly
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

    def test_surds_cancel_in_bilinears(self):
        assert surd_cancellation_check().ok

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
        # independent check of the pairing: |z1^k|^2 = k!/2^k
        for k in range(5):
            p = Poly(4, {(k, 0, 0, 0): QIS(QI(1))})
            want = QI(Fraction(factorial(k), 2 ** k))
            assert inner_product(p, p) == want

    def test_orthogonality_of_distinct_monomials(self):
        p = Poly(4, {(1, 0, 0, 0): QIS(QI(1))})
        q = Poly(4, {(0, 1, 0, 0): QIS(QI(1))})
        assert inner_product(p, q) == QI(0)


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
