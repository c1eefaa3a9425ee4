import itertools
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from minrep import fockspace, linalg, oscrep, reports
from minrep.scalars import QI
from minrep.weylalg import WeylElement, commutator, normal_product

A1, A2, B1, B2 = ("a", 1), ("a", 2), ("b", 1), ("b", 2)
mono = WeylElement.monomial


class TestSu22:
    def test_closed_forms(self):
        g = oscrep.su22_generators()
        assert g.H[0] == mono([A1], [A1]) - mono([A2], [A2])
        assert g.extras["E_theta"] == mono([A1, B2], [])
        assert g.extras["H_theta"] == mono([A1], [A1]) + mono([B2], [B2]) + WeylElement.one()

    def test_theta_sl2(self):
        g = oscrep.su22_generators()
        et, ht = g.extras["E_theta"], g.extras["H_theta"]
        assert commutator(ht, et) == et.scale(2)
        assert oscrep.check_theta_sl2(g).ok

    def test_chevalley_suite(self):
        g = oscrep.su22_generators()
        rep = oscrep.check_chevalley(g)
        assert rep.ok
        assert oscrep.derive_cartan_matrix(g) == oscrep.cartan_a_type(3)

    def test_raising_chain(self):
        g = oscrep.su22_generators()
        assert commutator(g.E[0], g.E[1]) == mono([A1, B1], [])
        assert commutator(g.E[1], g.E[2]) == mono([A2, B2], [])

    def test_su22_agrees_with_u22(self):
        # su(2,2) and u(2,2) share the A3 Chevalley set; the helicity h
        # is the u(2,2) charge Q
        s, u = oscrep.su22_generators(), oscrep.unn_generators(2)
        assert (s.E, s.F, s.H) == (u.E, u.F, u.H)
        assert s.cartan_matrix == u.cartan_matrix
        assert s.polarization == u.polarization
        for key in ("E_theta", "F_theta", "H_theta"):
            assert s.extras[key] == u.extras[key]
        assert s.extras["h"] == u.extras["Q"]

    def test_corrupted_generator_detected(self):
        g = oscrep.su22_generators()
        g.E[0] = g.E[0] + g.E[1]   # corrupt E1
        rep = oscrep.check_chevalley(g)
        assert not rep.ok
        failing = {r.check_id for r in rep.failures()}
        assert "su22/EFcross/1,2" in failing


class TestUnn:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_chevalley(self, n):
        g = oscrep.unn_generators(n)
        assert oscrep.check_chevalley(g).ok
        assert oscrep.derive_cartan_matrix(g) == oscrep.cartan_a_type(2 * n - 1)
        assert oscrep.check_theta_sl2(g).ok

    def test_n2_charge_is_helicity(self):
        q = oscrep.unn_generators(2).extras["Q"]
        h = oscrep.su22_generators().extras["h"]
        assert q == h

    def test_n1_degenerate(self):
        g = oscrep.unn_generators(1)
        assert g.extras["E_theta"] == mono([A1, B1], [])
        assert g.extras["H_theta"] == mono([A1], [A1]) + mono([B1], [B1]) + WeylElement.one()

    def test_charge_operator_is_central(self):
        # u(n,n) is the centralizer of the charge: Q commutes with every
        # generator, in particular with E_theta = a1* bn* whose net charge
        # is zero (one a-quantum up, one b-quantum up).
        g = oscrep.unn_generators(3)
        q = g.extras["Q"]
        for el in g.E + g.F + g.H + [g.extras["E_theta"], g.extras["F_theta"]]:
            assert commutator(q, el).is_zero()

    def test_theta_weight_under_h_theta(self):
        # the +2 eigenvalue belongs to ad(H_theta), not to ad(Q)
        g = oscrep.unn_generators(3)
        br = commutator(g.extras["H_theta"], g.extras["E_theta"])
        assert br == g.extras["E_theta"].scale(2)


class TestSoStar:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_chevalley(self, n):
        g = oscrep.so_star_generators(n)
        assert oscrep.check_chevalley(g).ok
        assert oscrep.derive_cartan_matrix(g) == oscrep.cartan_d_type(2 * n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_adjoint_pairing_on_chain(self, n):
        g = oscrep.so_star_generators(n)
        for e, f in zip(g.E[:-1], g.F[:-1]):
            assert e.adjoint() == f

    def test_n1_spin_node(self):
        g = oscrep.so_star_generators(1)
        assert g.E[1] == mono([A1, B2], []) - mono([A2, B1], [])

    def test_n2_last_cartan(self):
        g = oscrep.so_star_generators(2)
        a3, a4, b3, b4 = ("a", 3), ("a", 4), ("b", 3), ("b", 4)
        want = (mono([a3], [a3]) + mono([a4], [a4]) + mono([b3], [b3])
                + mono([b4], [b4]) + WeylElement.scalar(2))
        assert g.H[3] == want

    def test_sp2_triple_relation(self):
        for n in (1, 2):
            g = oscrep.so_star_generators(n)
            e, f, q = g.extras["sp2_E"], g.extras["sp2_F"], g.extras["sp2_Q"]
            assert commutator(e, f) == q
            assert commutator(q, e) == e.scale(2)
            assert commutator(q, f) == f.scale(-2)

    def test_broken_generator_invariant_raises(self, monkeypatch):
        # the invariants are checked by raising, so they also hold under -O
        monkeypatch.setattr(oscrep, "commutator", lambda x, y: WeylElement.zero())
        for build in (oscrep.su22_generators, lambda: oscrep.so_star_generators(1)):
            with pytest.raises(oscrep.AlgebraError, match="generator invariant"):
                build()


class TestDualPairs:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sp2_commutes_with_so_star(self, n):
        g = oscrep.so_star_generators(n)
        elems = oscrep.so_star_pair_elements(g)
        rep = oscrep.check_dual_pair(oscrep.sp2_triple(n), [w for _, w in elems])
        assert rep.ok

    def test_helicity_commutes_with_u22(self):
        h = oscrep.su22_generators().extras["h"]
        basis = oscrep.u22_weight_basis()
        assert len(basis) == 16
        rep = oscrep.check_dual_pair([h], [w for _, w in basis])
        assert rep.ok

    def test_negative_control(self):
        x = mono([A1], [A1])
        y = mono([A1], [A2])
        rep = oscrep.check_dual_pair([x], [y])
        assert not rep.ok


class TestGradingAndCentralizer:
    def test_theta_grading(self):
        assert oscrep.theta_grading_check().ok

    def test_sl2_centralizer_dimension(self):
        assert oscrep.sl2_centralizer_check().ok


class TestMembership:
    def test_zero_matrix(self):
        for fam, k in (("sp_real", 2), ("u_pq", 2), ("so_star", 1)):
            spec = oscrep.form_spec(fam, k)
            zero = [[QI(0)] * spec.size for _ in range(spec.size)]
            assert oscrep.matrix_membership(zero, spec)

    def test_size_mismatch(self):
        spec = oscrep.form_spec("u_pq", 2)
        with pytest.raises(oscrep.AlgebraError):
            oscrep.matrix_membership([[QI(0)]], spec)

    def test_so_star_basis_closure(self):
        spec = oscrep.form_spec("so_star", 1)
        basis = oscrep.so_star_matrix_basis(1)
        assert len(basis) == 6
        for x in basis:
            for y in basis:
                assert oscrep.matrix_membership(linalg.commutator(x, y), spec)

    def test_generator_image_membership(self):
        # The real form consists of the antihermitian operators.  On the
        # compact chain F = E*, so i(E+F) and E-F are members; on the spin
        # node F = -E*, so there E+F and i(E-F) are members instead.  The
        # hermitian partners land in i times the real form and must fail.
        from minrep.weylalg import matrix_from_quadratic, standard_polarization
        for n in (1, 2):
            g = oscrep.so_star_generators(n)
            pol = standard_polarization(2 * n)
            spec = oscrep.form_spec("so_star", n)
            i = QI(0, 1)
            for e, f in zip(g.E[:-1], g.F[:-1]):
                assert oscrep.matrix_membership(
                    matrix_from_quadratic((e + f).scale(i), pol), spec)
                assert oscrep.matrix_membership(
                    matrix_from_quadratic(e - f, pol), spec)
                assert not oscrep.matrix_membership(
                    matrix_from_quadratic(e + f, pol), spec)
            e, f = g.E[-1], g.F[-1]
            assert oscrep.matrix_membership(
                matrix_from_quadratic(e + f, pol), spec)
            assert oscrep.matrix_membership(
                matrix_from_quadratic((e - f).scale(i), pol), spec)
            for h in g.H:
                assert oscrep.matrix_membership(
                    matrix_from_quadratic(h.scale(i), pol), spec)

    def test_u22_block_failure_cases(self):
        spec = oscrep.form_spec("so_star", 1)
        # u block must be antihermitian: u = 1 fails
        x = [[QI(0)] * 4 for _ in range(4)]
        x[0][0] = QI(1)
        x[1][1] = QI(1)
        x[2][2] = QI(-1)
        x[3][3] = QI(-1)
        assert not oscrep.matrix_membership(x, spec)

    @staticmethod
    def _so_star_block_oracle(x, spec):
        """so*(4n) membership as the two form conditions plus the five
        block conditions they imply: u + u* = 0, v + v^T = 0, lower left
        v*, lower right -u^T and tr X = 0."""
        x = oscrep.qi_mat(x)
        beta = [list(r) for r in spec.beta]
        sigma = [list(r) for r in spec.sigma]
        if not oscrep.mat_is_zero(linalg.mat_add(linalg.mat_mul(oscrep.mat_star(x), beta),
                                                 linalg.mat_mul(beta, x))):
            return False
        if not oscrep.mat_is_zero(linalg.mat_add(linalg.mat_mul(linalg.transpose(x), sigma),
                                                 linalg.mat_mul(sigma, x))):
            return False
        m = spec.size // 2
        u = [row[:m] for row in x[:m]]
        v = [row[m:] for row in x[:m]]
        if not oscrep.mat_is_zero(linalg.mat_add(u, oscrep.mat_star(u))):
            return False
        if not oscrep.mat_is_zero(linalg.mat_add(v, linalg.transpose(v))):
            return False
        if [row[:m] for row in x[m:]] != oscrep.mat_star(v):
            return False
        if [row[m:] for row in x[m:]] != linalg.mat_scale(QI(-1), linalg.transpose(u)):
            return False
        return not linalg.trace(x)

    def test_so_star_agrees_with_the_block_oracle(self):
        # Real combinations of the so*(4n) basis, n = 1, 2, with up to two
        # entries perturbed by a Gaussian rational that may be zero.  The
        # profile is fixed and derandomized, so every run checks the same
        # examples.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        small = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 3]))
        bases = {n: oscrep.so_star_matrix_basis(n) for n in (1, 2)}
        verdicts = []

        @st.composite
        def cases(draw):
            n = draw(st.sampled_from(sorted(bases)))
            basis, size = bases[n], 4 * n
            coeffs = draw(st.lists(small, min_size=len(basis), max_size=len(basis)))
            x = [[QI(0)] * size for _ in range(size)]
            for c, b in zip(coeffs, basis):
                for i, j in itertools.product(range(size), repeat=2):
                    if b[i][j]:
                        x[i][j] = x[i][j] + b[i][j] * c
            for _ in range(draw(st.integers(0, 2))):
                i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
                x[i][j] = x[i][j] + draw(st.builds(QI, small, small))
            return n, x

        @hypothesis.settings(derandomize=True, database=None, deadline=None,
                             max_examples=300)
        @hypothesis.given(cases())
        def check(case):
            n, x = case
            spec = oscrep.form_spec("so_star", n)
            got = oscrep.matrix_membership(x, spec)
            assert got == self._so_star_block_oracle(x, spec)
            verdicts.append(got)

        check()
        assert True in verdicts and False in verdicts

    def test_sp_real_reality(self):
        spec = oscrep.form_spec("sp_real", 1)
        # i * number operator direction: A = i, conjugate block -i
        x = [[QI(0, 1), QI(0)], [QI(0), QI(0, -1)]]
        assert oscrep.matrix_membership(x, spec)
        # bare number operator direction is not in the real form
        y = [[QI(1), QI(0)], [QI(0), QI(1)]]
        assert not oscrep.matrix_membership(y, spec)


class TestUnitaryBasis:
    @pytest.mark.parametrize("traceless", [False, True])
    def test_every_sign_pattern(self, traceless):
        for k in range(1, 5):
            for signs in itertools.product((1, -1), repeat=k):
                basis = oscrep.unitary_basis(signs, traceless)
                d = oscrep.qi_diag(signs)
                assert len(basis) == k * k - traceless
                for x in basis:
                    form = linalg.mat_add(linalg.mat_mul(oscrep.mat_star(x), d),
                                          linalg.mat_mul(d, x))
                    assert oscrep.mat_is_zero(form)
                    assert not traceless or linalg.trace(x) == 0
                # independent over R: real and imaginary parts as coordinates
                coords = [[c for row in x for q in row for c in (q.re, q.im)]
                          for x in basis]
                assert linalg.rank(coords) == len(basis)


class TestGroupLevelGolden:
    def test_nilpotent_raising_exponential_preserves_sigma(self):
        # The raising images square to zero, so exp(X) = 1 + X exactly, and
        # the orthogonal group condition t(g) sigma g = sigma follows from
        # t(X) sigma = -sigma X.  (The beta condition is a real-form
        # statement and does not apply to these complexified directions.)
        from minrep.weylalg import matrix_from_quadratic, standard_polarization
        for n in (1, 2):
            gens = oscrep.so_star_generators(n)
            pol = standard_polarization(2 * n)
            spec = oscrep.form_spec("so_star", n)
            sigma = [list(r) for r in spec.sigma]
            for name in (f"E_{1}{2}", f"E_{1}{2 * n}"):
                x = matrix_from_quadratic(gens.extras[name], pol)
                assert oscrep.mat_is_zero(linalg.mat_mul(x, x))
                g = linalg.mat_add(linalg.identity(spec.size, QI(1)), x)
                left = linalg.mat_mul(linalg.transpose(g), linalg.mat_mul(sigma, g))
                assert left == sigma

    def test_cayley_transforms_of_real_basis_preserve_both_forms(self):
        # (1 + X/2)(1 - X/2)^-1 is an exact rational group element for any
        # real-form X, and it must satisfy both defining group conditions.
        spec = oscrep.form_spec("so_star", 1)
        beta = [list(r) for r in spec.beta]
        sigma = [list(r) for r in spec.sigma]
        one = linalg.identity(spec.size, QI(1))
        half = QI(Fraction(1, 2))
        for x in oscrep.so_star_matrix_basis(1):
            a = linalg.mat_scale(half, x)
            g = linalg.mat_mul(linalg.mat_add(one, a),
                               linalg.inverse(linalg.mat_sub(one, a)))
            assert linalg.mat_mul(oscrep.mat_star(g),
                                  linalg.mat_mul(beta, g)) == beta
            assert linalg.mat_mul(linalg.transpose(g),
                                  linalg.mat_mul(sigma, g)) == sigma

    def test_u22_weight_basis_closes_under_brackets(self):
        basis = [w for _, w in oscrep.u22_weight_basis()]
        for x in basis:
            for y in basis:
                assert oscrep._in_weyl_span(basis + [WeylElement.one()],
                                            commutator(x, y))


class TestCasimir:
    def test_n1_defect_vanishes(self):
        d, rep = oscrep.casimir_defect(1)
        assert rep.ok
        assert d.is_zero()

    def test_records_are_charged_with_the_casimir_elements(self, monkeypatch):
        # a clock that jumps 1000 ms while the elements are built must show
        # in the records' wall_ms: the report exists before that work
        skew = [0.0]
        monkeypatch.setattr(reports, "time",
                            SimpleNamespace(perf_counter=lambda: time.perf_counter() + skew[0]))
        build = oscrep.casimir_elements

        def slow(n):
            skew[0] += 1.0
            return build(n)

        monkeypatch.setattr(oscrep, "casimir_elements", slow)
        _, rep = oscrep.casimir_defect(1)
        assert rep.ok
        assert sum(r.wall_ms for r in rep.records) >= 1000

    def test_n1_scale_search_reports_unity(self):
        _, rep = oscrep.casimir_defect(1)
        scale = [r for r in rep.records if "scale-search" in r.check_id]
        assert scale and scale[0].passed
        assert "lambda = 1" in scale[0].detail

    def test_vacuum_eigenvalue(self):
        d, _ = oscrep.casimir_defect(1)
        modes = [A1, A2, B1, B2]
        fock = fockspace.enumerate_basis(modes, 2)
        m = fockspace.operator_matrix(d, fock)
        vac = fock.vacuum_index()
        col = {r: v for (r, c), v in m.entries.items() if c == vac}
        assert set(col) <= {vac}


class TestNilpotentCone:
    def test_symbolic_identity(self):
        rep = oscrep.nilpotent_cone_check()
        assert rep.ok
        assert oscrep.nilpotent_cone_defect().is_zero()

    def test_corrupted_identity_fails(self):
        ex = oscrep.so_star_generators(2).extras
        bad = (normal_product(ex["E_12"], ex["E_34"])
               + normal_product(ex["E_14"], ex["E_23"])
               - normal_product(ex["E_14"], ex["E_24"]))
        assert not bad.is_zero()

    def test_matrix_image_at_cutoff_four(self):
        ex = oscrep.so_star_generators(2).extras
        modes = [("a", i) for i in range(1, 5)] + [("b", i) for i in range(1, 5)]
        fock = fockspace.enumerate_basis(modes, 4)
        m = {k: fockspace.operator_matrix(ex[k], fock)
             for k in ("E_12", "E_34", "E_14", "E_23", "E_13", "E_24")}
        lhs = (m["E_12"] @ m["E_34"]) + (m["E_14"] @ m["E_23"])
        rhs = m["E_13"] @ m["E_24"]
        cols = fockspace.safe_columns(fock, 2, 2)
        assert lhs.equal_on_columns(rhs, cols)
        sym = fockspace.operator_matrix(oscrep.nilpotent_cone_defect(), fock)
        assert sym.is_zero()
