import itertools
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from minrep import fockspace, linalg, oscrep, reports
from minrep.scalars import QI
from minrep.weylalg import WeylElement, commutator, mode_action_matrix, normal_product

A1, A2, B1, B2 = ("a", 1), ("a", 2), ("b", 1), ("b", 2)
mono = WeylElement.monomial


def _matrix_bracket(a, b):
    """The dense commutator ab - ba, the oracle of the sparse brackets."""
    return [[x - y for x, y in zip(r, s)]
            for r, s in zip(linalg.mat_mul(a, b), linalg.mat_mul(b, a))]


def _star(m):
    """The dense conjugate transpose."""
    return [[m[j][i].conj() for j in range(len(m))] for i in range(len(m[0]))]


def _is_zero(m):
    return all(not x for row in m for x in row)


def _transpose(m):
    return [list(col) for col in zip(*m)]


def _identity(n):
    """The dense n x n identity over QI."""
    return [[QI(1) if i == j else QI(0) for j in range(n)] for i in range(n)]


def _scaled(c, m):
    return [[c * x for x in row] for row in m]


def mat_add(a, b):
    """The dense entrywise sum, the oracle of the sparse sums."""
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def trace_product(a, b):
    """tr(ab) of dense a and b, as the full sum of a[i][k] * b[k][i]."""
    return sum((x * b[k][i] for i, row in enumerate(a) for k, x in enumerate(row)), QI(0))


def _trace(m):
    return sum((row[i] for i, row in enumerate(m)), QI(0))


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
        u = oscrep.unn_generators(2)
        for s in (oscrep.su22_generators(), oscrep.su22_generators(u)):
            assert s.algebra_label == "su22"
            assert (s.E, s.F, s.H) == (u.E, u.F, u.H)
            assert s.cartan_matrix == u.cartan_matrix
            for key in ("E_theta", "F_theta", "H_theta"):
                assert s.extras[key] == u.extras[key]
            assert s.extras["h"] == u.extras["Q"]

    def test_corrupted_generator_detected(self):
        g = oscrep.su22_generators()
        g.E[0] = g.E[0] + g.E[1]   # corrupt E1
        rep = oscrep.check_chevalley(g)
        assert not rep.ok
        failing = {r.check_id for r in rep.records if not r.passed}
        assert "su22/EFcross/1,2" in failing

    def test_broken_set_renders_a_bounded_defect(self):
        # each failing record shows at most DEFECT_TERMS terms and the count
        g = oscrep.unn_generators(3)
        g.H[0] = g.H[0] + g.H[1] + g.H[2] + g.E[0] + g.F[2]
        failing = {r.check_id: r for r in oscrep.check_chevalley(g).records if not r.passed}
        assert failing
        for rec in failing.values():
            assert rec.defect.count(" + ") <= reports.DEFECT_TERMS
        defect = commutator(g.E[0], g.F[0]) - g.H[0]
        shown = WeylElement(dict(sorted(defect.terms.items())[:reports.DEFECT_TERMS]))
        assert len(defect.terms) > reports.DEFECT_TERMS
        assert failing["u(3,3)/EF/1"].defect == f"{shown} + ... ({len(defect.terms)} terms)"


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
            e, f, q = fockspace.dual_pair("so_star", n).gauge.span
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
        pair = fockspace.dual_pair("so_star", n)
        elems = oscrep.so_star_pair_elements(pair.chevalley)
        rep = oscrep.check_dual_pair(pair.gauge.span, [w for _, w in elems])
        assert rep.ok

    def test_helicity_commutes_with_u22(self):
        gens, pol = _su22()
        h = gens.extras["h"]
        basis = oscrep.u22_weight_basis(gens, pol)
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
        assert oscrep.theta_grading_check(*_su22()).ok

    def test_sl2_centralizer_dimension(self):
        assert oscrep.sl2_centralizer_check(*_su22()).ok


def _su22():
    """The su(2,2) set and the polarization of a1, a2, b1, b2, off one pair."""
    pair = fockspace.dual_pair("u_pq", 2)
    return oscrep.su22_generators(pair.chevalley), pair.polarization


def _so_star(n):
    """The so*(4n) set and its polarization, off one pair."""
    pair = fockspace.dual_pair("so_star", n)
    return pair.chevalley, pair.polarization


def _qi_mat(rows):
    return [[QI.of(x) for x in row] for row in rows]


def _sparse(x):
    """Dense rows as {(row, col): entry} of their nonzero entries, as QI."""
    return {(i, j): QI.of(v) for i, row in enumerate(x) for j, v in enumerate(row) if v}


def _dense(x, n):
    """A {(row, col): entry} matrix as n dense rows of QI."""
    return [[QI.of(x.get((i, j), 0)) for j in range(n)] for i in range(n)]


def _dense_membership_oracle(x, spec):
    """Membership from the form conditions as dense matrix products:
    X*beta + beta X = 0, t(X) sigma + sigma X = 0, X J + J t(X) = 0, and
    for sp_real the reality of the blocks [[a, conj b], [b, conj a]]."""
    x = _qi_mat(x)
    forms = [(_star(x), spec.beta, x), (_transpose(x), spec.sigma, x),
             (x, spec.sympl, _transpose(x))]
    for left, form, right in forms:
        if form is not None:
            f = _dense(form, spec.size)
            if not _is_zero(mat_add(linalg.mat_mul(left, f), linalg.mat_mul(f, right))):
                return False
    if spec.family != "sp_real":
        return True
    k = spec.size // 2
    a = [row[:k] for row in x[:k]]
    b = [row[:k] for row in x[k:]]
    return ([row[k:] for row in x[k:]] == [[v.conj() for v in row] for row in a]
            and [row[k:] for row in x[:k]] == [[v.conj() for v in row] for row in b])


def _verdicts_against_oracle(family, bases, oracle):
    """matrix_membership's verdicts on `family` matrices, each checked
    against `oracle`.

    The matrices are real combinations of the bases ({k: basis}), with up
    to two entries perturbed by a Gaussian rational that may be zero.  The
    profile is fixed and derandomized, so every run checks the same
    examples.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    small = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 3]))
    verdicts = []

    @st.composite
    def cases(draw):
        k = draw(st.sampled_from(sorted(bases)))
        size = oscrep.form_spec(family, k).size
        basis = [_dense(b, size) for b in bases[k]]
        coeffs = draw(st.lists(small, min_size=len(basis), max_size=len(basis)))
        x = [[QI(0)] * size for _ in range(size)]
        for c, b in zip(coeffs, basis):
            for i, j in itertools.product(range(size), repeat=2):
                if b[i][j]:
                    x[i][j] = x[i][j] + b[i][j] * c
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
            x[i][j] = x[i][j] + draw(st.builds(QI, small, small))
        return k, x

    @hypothesis.settings(derandomize=True, database=None, deadline=None,
                         max_examples=300)
    @hypothesis.given(cases())
    def check(case):
        k, x = case
        spec = oscrep.form_spec(family, k)
        got = oscrep.matrix_membership(_sparse(x), spec)
        assert got == oracle(x, spec)
        verdicts.append(got)

    check()
    return verdicts


class TestMembership:
    def test_zero_matrix(self):
        for fam, k in (("sp_real", 2), ("u_pq", 2), ("so_star", 1)):
            spec = oscrep.form_spec(fam, k)
            zero = [[QI(0)] * spec.size for _ in range(spec.size)]
            assert oscrep.matrix_membership(_sparse(zero), spec)

    def test_size_mismatch(self):
        # an entry whose index falls outside the 4 x 4 form is refused
        spec = oscrep.form_spec("u_pq", 2)
        for entry in ((4, 0), (0, 4), (-1, 2)):
            with pytest.raises(oscrep.AlgebraError, match="does not match the u_pq form"):
                oscrep.matrix_membership({entry: QI(1)}, spec)

    def test_so_star_basis_closure(self):
        spec = oscrep.form_spec("so_star", 1)
        basis = oscrep.so_star_matrix_basis(1)
        assert len(basis) == 6
        for x in basis:
            for y in basis:
                assert oscrep.matrix_membership(_sparse(_matrix_bracket(x, y)), spec)

    def test_negating_one_entry_of_a_basis_element_breaks_membership(self):
        # negative control: every so*(8) basis element with any one entry
        # negated leaves the algebra
        spec = oscrep.form_spec("so_star", 2)
        basis = oscrep.so_star_basis(2)
        assert all(oscrep.matrix_membership(x, spec) for x in basis)
        for x in basis:
            for key, v in x.items():
                assert not oscrep.matrix_membership({**x, key: -v}, spec)

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
        assert not oscrep.matrix_membership(_sparse(x), spec)

    @staticmethod
    def _so_star_block_oracle(x, spec):
        """so*(4n) membership as the two form conditions plus the five
        block conditions they imply: u + u* = 0, v + v^T = 0, lower left
        v*, lower right -u^T and tr X = 0."""
        x = _qi_mat(x)
        if not _dense_membership_oracle(x, spec):
            return False
        m = spec.size // 2
        u = [row[:m] for row in x[:m]]
        v = [row[m:] for row in x[:m]]
        if not _is_zero(mat_add(u, _star(u))):
            return False
        if not _is_zero(mat_add(v, _transpose(v))):
            return False
        if [row[:m] for row in x[m:]] != _star(v):
            return False
        if [row[m:] for row in x[m:]] != _scaled(QI(-1), _transpose(u)):
            return False
        return not _trace(x)

    def test_so_star_agrees_with_the_block_oracle(self):
        bases = {n: oscrep.so_star_basis(n) for n in (1, 2)}
        verdicts = _verdicts_against_oracle("so_star", bases, self._so_star_block_oracle)
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("family", ["u_pq", "sp_real"])
    def test_agrees_with_the_dense_oracle(self, family):
        if family == "u_pq":
            bases = {k: oscrep.unitary_basis([1] * k + [-1] * k) for k in (1, 2)}
        else:
            bases = {}
            for k in (1, 2):
                pair = fockspace.dual_pair("sp_real", k)
                bases[k] = [mode_action_matrix(e, pair.modes) for e in pair.a_span]
        verdicts = _verdicts_against_oracle(family, bases, _dense_membership_oracle)
        assert True in verdicts and False in verdicts

    def test_sp_real_reality(self):
        spec = oscrep.form_spec("sp_real", 1)
        # i * number operator direction: A = i, conjugate block -i
        x = [[QI(0, 1), QI(0)], [QI(0), QI(0, -1)]]
        assert oscrep.matrix_membership(_sparse(x), spec)
        # bare number operator direction is not in the real form
        y = [[QI(1), QI(0)], [QI(0), QI(1)]]
        assert not oscrep.matrix_membership(_sparse(y), spec)


class TestUnitaryBasis:
    @pytest.mark.parametrize("traceless", [False, True])
    def test_every_sign_pattern(self, traceless):
        for k in range(1, 5):
            for signs in itertools.product((1, -1), repeat=k):
                basis = [_dense(x, k) for x in oscrep.unitary_basis(signs, traceless)]
                d = _dense({(a, a): QI(s) for a, s in enumerate(signs)}, k)
                assert len(basis) == k * k - traceless
                for x in basis:
                    form = mat_add(linalg.mat_mul(_star(x), d), linalg.mat_mul(d, x))
                    assert _is_zero(form)
                    assert not traceless or _trace(x) == 0
                # independent over R: real and imaginary parts as coordinates
                coords = [{j: c for j, c in enumerate(
                    c for row in x for q in row for c in (q.re, q.im)) if c} for x in basis]
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
            sigma = _dense(spec.sigma, spec.size)
            for name in (f"E_{1}{2}", f"E_{1}{2 * n}"):
                x = _dense(matrix_from_quadratic(gens.extras[name], pol), spec.size)
                assert _is_zero(linalg.mat_mul(x, x))
                g = mat_add(_identity(spec.size), x)
                left = linalg.mat_mul(_transpose(g), linalg.mat_mul(sigma, g))
                assert left == sigma

    def test_cayley_transforms_of_real_basis_preserve_both_forms(self):
        # (1 + X/2)(1 - X/2)^-1 is an exact rational group element for any
        # real-form X, and it must satisfy both defining group conditions.
        spec = oscrep.form_spec("so_star", 1)
        beta = _dense(spec.beta, spec.size)
        sigma = _dense(spec.sigma, spec.size)
        one = _identity(spec.size)
        half = QI(Fraction(1, 2))
        for x in oscrep.so_star_matrix_basis(1):
            a = _scaled(half, x)
            rows = [{j: x for j, x in enumerate(row) if x}
                    for row in mat_add(one, _scaled(QI(-1), a))]
            inv = [[row.get(j, QI(0)) for j in range(spec.size)]
                   for row in linalg.inverse(rows)]
            g = linalg.mat_mul(mat_add(one, a), inv)
            assert linalg.mat_mul(_star(g),
                                  linalg.mat_mul(beta, g)) == beta
            assert linalg.mat_mul(_transpose(g),
                                  linalg.mat_mul(sigma, g)) == sigma

    def test_u22_weight_basis_closes_under_brackets(self):
        basis = [w for _, w in oscrep.u22_weight_basis(*_su22())]
        for x in basis:
            for y in basis:
                assert linalg.in_span([w.terms for w in basis + [WeylElement.one()]],
                                      [commutator(x, y).terms]) == [True]


def _unitary_basis_oracle(signs, traceless=False):
    """The dense u(p,q) (su(p,q) if traceless) basis, element for element
    in the order of oscrep.unitary_basis."""
    k = len(signs)
    i = QI(0, 1)

    def unit(entries):
        m = [[QI(0)] * k for _ in range(k)]
        for (a, b), c in entries.items():
            m[a][b] = c
        return m

    if traceless:
        out = [unit({(a, a): i, (a + 1, a + 1): -i}) for a in range(k - 1)]
    else:
        out = [unit({(a, a): i}) for a in range(k)]
    for a in range(k):
        for b in range(a + 1, k):
            s = signs[a] * signs[b]
            out.append(unit({(a, b): QI(1), (b, a): QI(-s)}))
            out.append(unit({(a, b): i, (b, a): QI(0, s)}))
    return out


def _so_star_block_oracle(u, v):
    """The dense so*(4n) block matrix [[u, v], [v*, -t(u)]]."""
    mtu = [[-x for x in row] for row in _transpose(u)]
    return [r + s for r, s in zip(u, v)] + [r + s for r, s in zip(_star(v), mtu)]


def _so_star_basis_oracle(n):
    """The dense so*(4n) basis: u(2n) in the compact blocks, then for each
    a < b the antisymmetric v = c (e_ab - e_ba) with c = 1 and c = i."""
    k = 2 * n
    zero = [[QI(0)] * k for _ in range(k)]
    out = [_so_star_block_oracle(u, zero) for u in _unitary_basis_oracle([1] * k)]
    for a in range(k):
        for b in range(a + 1, k):
            for c in (QI(1), QI(0, 1)):
                v = [[QI(0)] * k for _ in range(k)]
                v[a][b], v[b][a] = c, -c
                out.append(_so_star_block_oracle(zero, v))
    return out


def _dual_basis_oracle(basis):
    """The dual basis under tr(xy), from the dense Gram matrix and its inverse."""
    gram = [{b: c for b, y in enumerate(basis) if (c := trace_product(x, y))}
            for x in basis]
    n = len(basis[0])
    out = []
    for row in linalg.inverse(gram):
        d = [[QI(0)] * n for _ in range(n)]
        for b, c in row.items():
            d = mat_add(d, _scaled(c, basis[b]))
        out.append(d)
    return out


def _casimir_oracle(gens, pol):
    """casimir_elements as running sums of normal products over the dense
    bases, each quadratic summed from the products phi~_a phi^b."""
    k = pol.size // 2

    def quad(x):
        out = WeylElement.zero()
        for a, row in enumerate(x):
            for b, c in enumerate(row):
                if c:
                    out = out + normal_product(pol.phi_tilde[a], pol.phi[b]).scale(c)
        return out

    def casimir(basis):
        out = WeylElement.zero()
        for x, xd in zip(basis, _dual_basis_oracle(basis)):
            out = out + normal_product(quad(x), quad(xd))
        return out

    zero = [[QI(0)] * k for _ in range(k)]
    su = [_so_star_block_oracle(u, zero) for u in _unitary_basis_oracle([1] * k, True)]
    h = gens.extras["H"]
    c_u = casimir(su) + normal_product(h, h).scale(Fraction(1, 2 * k))
    ee = WeylElement.zero()
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            e = gens.extras[f"E_{i}{j}"]
            f = e.adjoint()
            ee = ee + (normal_product(e, f) + normal_product(f, e)).scale(Fraction(1, 2))
    return casimir(_so_star_basis_oracle(k // 2)), c_u, ee


class TestSparseBases:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_so_star_dense_view_matches_the_dense_builder(self, n):
        assert oscrep.so_star_matrix_basis(n) == _so_star_basis_oracle(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_so_star_matches_the_dense_builder(self, n):
        got = oscrep.so_star_basis(n)
        assert all(v for x in got for v in x.values())
        assert [_dense(x, 4 * n) for x in got] == _so_star_basis_oracle(n)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_u_kk_matches_the_dense_builder(self, k):
        signs = [1] * k + [-1] * k
        got = oscrep.unitary_basis(signs)
        assert [_dense(x, 2 * k) for x in got] == _unitary_basis_oracle(signs)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_traceless_u_2n_matches_the_dense_builder(self, n):
        got = oscrep.unitary_basis([1] * (2 * n), traceless=True)
        assert [_dense(x, 2 * n) for x in got] == _unitary_basis_oracle([1] * (2 * n), True)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_casimir_elements_match_the_running_sums(self, n):
        gens, pol = _so_star(n)
        assert oscrep.casimir_elements(gens, pol) == _casimir_oracle(gens, pol)


class TestCasimir:
    def test_n1_defect_vanishes(self):
        d, rep = oscrep.casimir_defect(*_so_star(1))
        assert rep.ok
        assert d.is_zero()

    def test_records_are_charged_with_the_casimir_elements(self, monkeypatch):
        # a clock that jumps 1000 ms while the elements are built must show
        # in the records' wall_ms: the report exists before that work
        skew = [0.0]
        monkeypatch.setattr(reports, "time",
                            SimpleNamespace(perf_counter=lambda: time.perf_counter() + skew[0]))
        build = oscrep.casimir_elements

        def slow(*args):
            skew[0] += 1.0
            return build(*args)

        monkeypatch.setattr(oscrep, "casimir_elements", slow)
        _, rep = oscrep.casimir_defect(*_so_star(1))
        assert rep.ok
        assert sum(r.wall_ms for r in rep.records) >= 1000

    def test_n1_scale_search_reports_unity(self):
        _, rep = oscrep.casimir_defect(*_so_star(1))
        scale = [r for r in rep.records if "scale-search" in r.check_id]
        assert scale and scale[0].passed
        assert "lambda = 1" in scale[0].detail

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dual_basis_is_dual_under_the_trace_form(self, n):
        basis = oscrep.so_star_basis(n)
        dual = oscrep._dual_basis(basis)
        assert all(v for x in dual for v in x.values())
        basis, dual = ([_dense(x, 4 * n) for x in xs] for xs in (basis, dual))
        for a, x in enumerate(basis):
            for b, y in enumerate(dual):
                assert trace_product(x, y) == int(a == b)

    def test_dual_basis_refuses_a_trace_form_that_is_not_real(self):
        with pytest.raises(oscrep.AlgebraError):
            oscrep._dual_basis([{(0, 0): QI(1)}, {(0, 0): QI(0, 1)}])

    def test_vacuum_eigenvalue(self):
        d, _ = oscrep.casimir_defect(*_so_star(1))
        modes = [A1, A2, B1, B2]
        fock = fockspace.enumerate_basis(modes, 2)
        m = fockspace.operator_matrix(d, fock)
        vac = fock.index[(0,) * len(fock.modes)]
        assert set(m.apply({vac: QI(1)})) <= {vac}


def _cone_sides(m, c):
    """Column c of E_12 E_34 + E_14 E_23 and of E_13 E_24, read through apply."""
    e = {c: QI(1)}
    lhs = {}
    for a, b in (("E_12", "E_34"), ("E_14", "E_23")):
        for r, x in m[a].apply(m[b].apply(e)).items():
            lhs[r] = lhs.get(r, QI(0)) + x
    return {r: x for r, x in lhs.items() if x}, m["E_13"].apply(m["E_24"].apply(e))


class TestNilpotentCone:
    def test_symbolic_identity(self):
        gens = oscrep.so_star_generators(2)
        rep = oscrep.nilpotent_cone_check(gens)
        assert rep.ok
        assert oscrep.nilpotent_cone_defect(gens).is_zero()

    def test_corrupted_identity_fails(self):
        ex = oscrep.so_star_generators(2).extras
        bad = (normal_product(ex["E_12"], ex["E_34"])
               + normal_product(ex["E_14"], ex["E_23"])
               - normal_product(ex["E_14"], ex["E_24"]))
        assert not bad.is_zero()

    def test_matrix_image_at_cutoff_four(self):
        gens = oscrep.so_star_generators(2)
        ex = gens.extras
        modes = [("a", i) for i in range(1, 5)] + [("b", i) for i in range(1, 5)]
        fock = fockspace.enumerate_basis(modes, 4)
        m = {k: fockspace.operator_matrix(ex[k], fock)
             for k in ("E_12", "E_34", "E_14", "E_23", "E_13", "E_24")}
        for c in fockspace.safe_columns(fock, 2, 2):
            lhs, rhs = _cone_sides(m, c)
            assert lhs == rhs
        sym = fockspace.operator_matrix(oscrep.nilpotent_cone_defect(gens), fock)
        assert not any(sym.entries[c] for c in range(fock.dim))
