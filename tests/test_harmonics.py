import json
import random
from fractions import Fraction

import pytest

from minrep import cli, harmonics, linalg
from minrep.harmonics import HarmonicError, build_harmonic, verify_mode
from minrep.poly import Poly, apply, columns, operator_terms
from minrep.scalars import QI
from minrep.weylalg import WeylElement, WeylMonomial, commutator
from monomials import monomials_of_degree, monomials_up_to


def _applied(op: WeylElement, p: Poly) -> Poly:
    return apply(operator_terms(op), p)


def lowering(p: Poly) -> Poly:
    return _applied(harmonics._LOWERING, p)


def l_squared(p: Poly) -> Poly:
    return _applied(harmonics._L_SQUARED, p)


class TestConstruction:
    def test_ground_mode_is_constant(self):
        mode = build_harmonic(1, 0, 0)
        assert mode.poly == Poly.constant(4, QI(1))

    def test_first_vector_mode(self):
        # degree 1, L3 eigenvalue 1: proportional to z1 + i z2
        mode = build_harmonic(2, 1, 1)
        p = mode.poly
        z1 = (1, 0, 0, 0)
        z2 = (0, 1, 0, 0)
        c1, c2 = p.terms[z1], p.terms[z2]
        assert set(p.terms) == {z1, z2}
        assert c2 / c1 == QI(0, 1)

    def test_rotation_invariant_degree_two(self):
        mode = build_harmonic(3, 0, 0)
        p = mode.poly
        for j in (1, 2, 3):
            assert _applied(harmonics._L[j], p).is_zero()
        # uniqueness up to scale: the radial factor is pinned by the
        # eigen-checks plus homogeneity
        assert verify_mode(p, 3, 0, 0, harmonics.operator_columns()).ok

    def test_invalid_labels(self):
        for bad in [(0, 0, 0), (2, 2, 0), (3, 1, 2), (3, -1, 0)]:
            with pytest.raises(HarmonicError):
                build_harmonic(*bad)

    def test_lowering_chain_consistency(self):
        top = build_harmonic(4, 2, 2).poly
        lowered = lowering(top)
        built = build_harmonic(4, 2, 1).poly
        # same ray: cross-normalize by the leading coefficients
        lead = lowered.terms[lowered.leading_monomial()]
        assert lowered.scale(QI(1) / lead) == built

    def test_raising_kills_top(self):
        for n, l in [(2, 1), (4, 3), (5, 2)]:
            assert _applied(harmonics._RAISING, build_harmonic(n, l, l).poly).is_zero()


def _kernel_seed(n, l):
    """The top state h_{n,l,l}, up to scale, as the one relation among the
    candidates (z1 + i z2)^l z4^(d-2b) rho^(2b), d = n-1-l, whose
    Laplacians ``linalg.kernel`` finds."""
    d = n - 1 - l
    z = [Poly.variable(4, i) for i in range(4)]
    u = z[0] + z[1].scale(QI(0, 1))
    ul = Poly.constant(4, QI(1))
    for _ in range(l):
        ul = ul * u
    rho2 = z[0] * z[0] + z[1] * z[1] + z[2] * z[2]
    cands = []
    for b in range(d // 2 + 1):
        f = Poly.constant(4, QI(1))
        for _ in range(b):
            f = f * rho2
        for _ in range(d - 2 * b):
            f = f.mul_var(3)
        cands.append(ul * f)
    kern = linalg.kernel([_applied(harmonics._LAPLACIAN, cand).terms for cand in cands])
    assert len(kern) == 1
    out = Poly()
    for ci, c in kern[0].items():
        out = out + cands[ci].scale(c)
    return out


def _per_mode_oracle(n, l, m):
    """h_{n,l,m} from its own kernel-solved top seed, lowered l - m times
    and scaled so its lexicographically first monomial has coefficient 1."""
    p = _kernel_seed(n, l)
    for _ in range(l - m):
        p = lowering(p)
    return p.scale(QI(1) / p.terms[p.leading_monomial()])


@pytest.mark.parametrize("n", range(1, 7))
def test_modes_match_per_mode_oracle(n):
    for l in range(n):
        for m in range(-l, l + 1):
            mode = build_harmonic(n, l, m)
            assert (mode.n, mode.l, mode.m) == (n, l, m)
            assert mode.poly == _per_mode_oracle(n, l, m)


def test_each_ladder_is_built_once(monkeypatch, capsys):
    # nmax 7 has one solid-harmonic chain per l < 7, and 28 (n, l) ladders,
    # each with one radial factor, for 140 modes
    chains, factors = [], []
    solid, radial = harmonics._solid_harmonics, harmonics._radial_factor

    def counted_solid(l):
        chains.append(l)
        return solid(l)

    def counted_radial(n, l):
        factors.append((n, l))
        return radial(n, l)

    monkeypatch.setattr(harmonics, "_solid_harmonics", counted_solid)
    monkeypatch.setattr(harmonics, "_radial_factor", counted_radial)
    assert cli.main(["harmonics", "--nmax", "7", "--format", "json"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["ok"]
    assert sorted(chains) == list(range(7))
    assert sorted(factors) == [(n, l) for n in range(1, 8) for l in range(n)]


def test_a_flipped_recurrence_sign_fails_the_laplacian(monkeypatch, capsys):
    # c_1 with the wrong sign leaves every ladder with d = n-1-l >= 2
    # non-harmonic, while H, L^2 and L3 still hold on every mode
    radial = harmonics._radial_factor

    def flipped(n, l):
        d = n - 1 - l
        return Poly({e: -c if e[3] == d - 2 else c for e, c in radial(n, l).terms.items()})

    monkeypatch.setattr(harmonics, "_radial_factor", flipped)
    assert cli.main(["harmonics", "--nmax", "5", "--format", "json"]) == cli.EXIT_CHECK_FAILED
    failed = {r["check_id"] for r in json.loads(capsys.readouterr().out)["records"]
              if not r["passed"]}
    assert failed == {f"mode/{n},{l},{m}/laplacian" for n in range(1, 6) for l in range(n - 2)
                      for m in range(-l, l + 1)}


def test_ladder_runs_from_top_to_bottom():
    ladder = harmonics.harmonic_ladder(4, 2, harmonics._solid_harmonics(2))
    assert [mode.m for mode in ladder] == [2, 1, 0, -1, -2]
    assert all((mode.n, mode.l) == (4, 2) for mode in ladder)
    for bad in [(0, 0), (2, 2), (3, -1)]:
        with pytest.raises(HarmonicError):
            harmonics.harmonic_ladder(*bad, [])


def test_level_count_fails_on_a_missing_mode():
    modes = harmonics.harmonic_modes(3)
    assert harmonics.level_count_check(modes).ok
    rep = harmonics.level_count_check(modes[:-1])
    assert [r.check_id for r in rep.records if not r.passed] == ["harmonics/level3/count"]
    assert not harmonics.level_count_check([]).ok


class TestVerification:
    @pytest.mark.parametrize("n,l,m", [(2, 1, 0), (3, 2, -1), (4, 1, 1), (5, 3, 0)])
    def test_modes_pass_all_checks(self, n, l, m):
        mode = build_harmonic(n, l, m)
        assert verify_mode(mode.poly, n, l, m, harmonics.operator_columns()).ok

    def test_negative_control_non_harmonic(self):
        p = Poly({(2, 0, 0, 0): QI(1)})   # z1^2
        rep = verify_mode(p, 3, 0, 0, harmonics.operator_columns())
        assert not rep.ok
        failed = {r.check_id for r in rep.records if not r.passed}
        assert any("laplacian" in f for f in failed)

    def test_a_failing_eigen_check_renders_its_defect(self):
        # the Laplacian of z1^2 is the constant 2; a passing record keeps ""
        p = Poly({(2, 0, 0, 0): QI(1)})
        records = {r.check_id.rsplit("/", 1)[1]: r
                   for r in verify_mode(p, 3, 0, 0, harmonics.operator_columns()).records}
        assert not records["laplacian"].passed and records["laplacian"].defect == "(2)"
        assert records["conformal-hamiltonian"].passed
        assert records["conformal-hamiltonian"].defect == ""
        assert all(records[k].defect for k in ("L2", "L3"))

    def test_hamiltonian_without_its_one_fails_the_conformal_hamiltonian(self, monkeypatch):
        # the Euler operator alone has eigenvalue n - 1 on h_{n,l,m}, not n
        modes = [build_harmonic(n, l, m) for n, l, m in [(1, 0, 0), (3, 1, -1), (4, 2, 1)]]
        monkeypatch.setattr(harmonics, "_HAMILTONIAN", harmonics._EULER)
        cols = harmonics.operator_columns()
        for mode in modes:
            rep = verify_mode(mode.poly, mode.n, mode.l, mode.m, cols)
            assert [r.check_id.rsplit("/", 1)[1] for r in rep.records if not r.passed] \
                == ["conformal-hamiltonian"]

    def test_a_laplacian_with_one_coefficient_changed_fails(self, monkeypatch):
        # 2 d0^2 + d1^2 + d2^2 + d3^2 leaves 2 d0^2 h on a harmonic h, which
        # is not zero when h holds z0^2
        h = build_harmonic(3, 0, 0).poly
        assert _applied(harmonics._LAPLACIAN, h).is_zero()
        z0 = ("z", 0)
        terms = dict(harmonics._LAPLACIAN.terms)
        terms[WeylMonomial.make([], [z0, z0])] = QI(2)
        monkeypatch.setattr(harmonics, "_LAPLACIAN", WeylElement(terms))
        rep = verify_mode(h, 3, 0, 0, harmonics.operator_columns())
        assert [r.check_id for r in rep.records if not r.passed] == ["mode/3,0,0/laplacian"]

    @pytest.mark.parametrize("n,l,m", [(1, 0, 0), (3, 1, -1), (4, 2, 1), (5, 3, 0)])
    def test_one_wrong_label_fails_exactly_its_own_eigen_record(self, n, l, m):
        h = build_harmonic(n, l, m).poly
        cols = harmonics.operator_columns()
        for labels, record in (((n + 1, l, m), "conformal-hamiltonian"),
                               ((n, l + 1, m), "L2"), ((n, l, m + 1), "L3")):
            rep = verify_mode(h, *labels, cols)
            assert [r.check_id.rsplit("/", 1)[1] for r in rep.records if not r.passed] == [record]

    def test_counts_are_squares(self):
        assert harmonics.level_count_check(harmonics.harmonic_modes(6)).ok

    def test_independence_within_level(self):
        n = 4
        modes = [build_harmonic(n, l, m) for l in range(n) for m in range(-l, l + 1)]
        monos = sorted(set(monomials_of_degree(4, n - 1)))
        rows = [{j: x for j, mm in enumerate(monos) if (x := mode.poly.terms.get(mm))}
                for mode in modes]
        assert linalg.rank(rows) == n * n


class TestOperatorAlgebra:
    def test_angular_momentum_commutators(self):
        rep = harmonics.angular_algebra_check()
        assert len(rep.records) == 5 and rep.ok

    def test_angular_algebra_on_degree_five(self):
        # the column route, on all 126 monomials of degree <= 5: each
        # bracket's columns are the symbolic commutator's, and each
        # identity's defect is empty
        monos = list(monomials_up_to(4, 5))
        L, i = harmonics._L, QI(0, 1)
        for x, y, z in [(L[1], L[2], L[3].scale(i)), (L[2], L[3], L[1].scale(i)),
                        (L[3], L[1], L[2].scale(i)), (harmonics._HAMILTONIAN, L[3], None),
                        (harmonics._HAMILTONIAN, harmonics._L_SQUARED, None)]:
            cx, cy, bracket = columns(x), columns(y), columns(commutator(x, y))
            assert linalg.bracket_defect(cx, cy, monos, columns(WeylElement.zero())) == {
                (m, r): v for m in monos for r, v in bracket[m].items()}
            assert not linalg.bracket_defect(cx, cy, monos,
                                             columns(WeylElement.zero() if z is None else z))

    def test_hamiltonian_eigenvalue_is_degree_plus_one(self):
        rng = random.Random(4)
        for d in range(4):
            mono = tuple(rng.randint(0, d) for _ in range(4))
            p = Poly({mono: QI(1)})
            assert _applied(harmonics._HAMILTONIAN, p) == p.scale(QI(sum(mono) + 1))

    def test_l2_from_the_ladder_agrees_with_the_sum_of_squares(self):
        # the oracle L^2 = L1^2 + L2^2 + L3^2, on every monomial of degree <= 6
        for mono in monomials_up_to(4, 6):
            p = Poly({mono: QI(1)})
            want = Poly()
            for j in (1, 2, 3):
                want = want + _applied(harmonics._L[j], _applied(harmonics._L[j], p))
            assert l_squared(p) == want

    def test_l2_is_one_element_of_twelve_terms(self):
        # L- L+ + (L3 + 1) L3, normal ordered: z_a^2 d_b^2 for a != b,
        # z_a z_b d_a d_b for a < b and z_a d_a, on the first three variables
        assert len(harmonics._L_SQUARED.terms) == 12
        assert all(type(c) is int for _, c, _, _ in operator_terms(harmonics._L_SQUARED))

    def test_l2_commutes_with_lowering(self):
        p = build_harmonic(4, 2, 2).poly
        assert l_squared(lowering(p)) == lowering(l_squared(p))

    def test_angular_algebra_fails_on_a_scaled_l1(self, monkeypatch):
        # with L1 doubled each bracket that holds L1 is off by a factor 2,
        # while H still commutes with L^2 and L3
        monkeypatch.setitem(harmonics._L, 1, harmonics._L[1].scale(QI(2)))
        rep = harmonics.angular_algebra_check()
        named = [r for r in rep.records if "L1" in r.check_id]
        others = [r for r in rep.records if "L1" not in r.check_id]
        assert len(named) == 3 and len(others) == 2
        # [2 L1, L2] - i L3 = i L3, and [L2, L3] - 2i L1 and
        # [L3, 2 L1] - i L2 are -i L1 and i L2
        assert {r.check_id: r.defect for r in named if not r.passed} == {
            "angular/[L1,L2]=iL3": "(1) z0* z1 + (-1) z1* z0",
            "angular/[L2,L3]=iL1": "(-1) z1* z2 + (1) z2* z1",
            "angular/[L3,L1]=iL2": "(-1) z0* z2 + (1) z2* z0",
        }
        assert all(r.passed and r.defect == "" for r in others)


def compactify(x) -> tuple:
    """z(x) = N/D at a rational point x, and w = D/2: the map's own
    polynomials evaluated with ``Poly.evaluate``."""
    num, den = harmonics.compactification()
    point = [QI(c) for c in x]
    d = den.evaluate(point)
    return tuple(p.evaluate(point) / d for p in num), d / 2


def square_sum(z) -> QI:
    total = QI(0)
    for c in z:
        total = total + c * c
    return total


def minkowski_square() -> tuple:
    """x0..x3 and x^2 = x1^2 + x2^2 + x3^2 - x0^2, written out afresh."""
    x = [Poly.variable(4, i) for i in range(4)]
    return x, x[1] * x[1] + x[2] * x[2] + x[3] * x[3] - x[0] * x[0]


class TestCompactification:
    def test_origin(self):
        z, _ = compactify((0, 0, 0, 0))
        assert z == (QI(0), QI(0), QI(0), QI(1))

    def test_sphere_identity_on_random_rational_points(self):
        # the test oracle: sum z^2 = conj(w)/w at 20 seeded points, each
        # evaluated from the polynomials that the record checks as one identity
        rng = random.Random(23)
        for _ in range(20):
            z, w = compactify(tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                                    for _ in range(4)))
            assert square_sum(z) == w.conj() / w

    def test_time_zero_points_land_on_the_sphere(self):
        rng = random.Random(8)
        for _ in range(10):
            z, _ = compactify((0,) + tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                           for _ in range(3)))
            assert all(c.is_real() for c in z)
            assert square_sum(z) == QI(1)

    def test_polynomial_identity(self):
        num, den = harmonics.compactification()
        assert harmonics.sphere_defect(num, den).is_zero()
        rep = harmonics.compactification_check()
        assert rep.ok and [r.check_id for r in rep.records] == [
            "harmonics/compactification/polynomial-identity",
            "harmonics/negative-control/compactification-z4"]

    def test_no_real_point_is_at_infinity(self):
        # D conj(D) = (1 + x^2)^2 + (2 x0)^2, zero only where x0 = 0 and
        # |x|^2 = -1, which no real point meets
        _, den = harmonics.compactification()
        x, xsq = minkowski_square()
        one_plus = Poly.constant(4, QI(1)) + xsq
        conj = Poly({m: c.conj() for m, c in den.terms.items()})
        assert den * conj == one_plus * one_plus + (x[0] * x[0]).scale(QI(4))

    def test_negative_control_defect_is_four_x_squared(self):
        num, den = harmonics.compactification()
        wrong = num[:3] + [Poly.constant(4, QI(2)) - num[3]]
        _, xsq = minkowski_square()
        assert harmonics.sphere_defect(wrong, den) == xsq.scale(QI(4))

    def test_half_unit_time_point(self):
        # x = (1, 0, 0, 0): 2w = 1 - 1 - 2i = -2i, z4 = (1+1)/(-2i) = i
        z, _ = compactify((1, 0, 0, 0))
        assert z == (QI(0), QI(0), QI(0), QI(0, 1))
