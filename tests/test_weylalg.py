import random
from fractions import Fraction
from itertools import product as iproduct
from math import comb, factorial, prod

import pytest

import contraction_oracle
from minrep import fockspace, linalg, weylalg
from minrep.lincomb import combine
from minrep.scalars import QI
from minrep.weylalg import (Polarization, SpanError, WeylElement, WeylMonomial, commutator,
                            matrix_from_quadratic, mode_action_matrix, normal_product,
                            quadratic_blocks, quadratic_from_matrix,
                            standard_polarization, sum_of_products)

A1, A2, B1, B2 = ("a", 1), ("a", 2), ("b", 1), ("b", 2)


def _matrix_bracket(a, b):
    """The dense commutator ab - ba, the oracle of the sparse brackets."""
    return [[x - y for x, y in zip(r, s)]
            for r, s in zip(linalg.mat_mul(a, b), linalg.mat_mul(b, a))]


def _sparse(x):
    """Dense rows as {(row, col): entry} of their nonzero entries, as QI."""
    return {(i, j): QI.of(v) for i, row in enumerate(x) for j, v in enumerate(row) if v}


def _dense(x, n):
    """A {(row, col): entry} matrix as n dense rows of QI."""
    return [[QI.of(x.get((i, j), 0)) for j in range(n)] for i in range(n)]


def test_ccr_single_mode():
    c = WeylElement.annihilator(("c", 1))
    cs = WeylElement.creator(("c", 1))
    assert normal_product(c, cs) == WeylElement.monomial([("c", 1)], [("c", 1)]) + WeylElement.one()
    assert commutator(c, cs) == WeylElement.one()


def test_distinct_modes_commute():
    c1 = WeylElement.annihilator(("c", 1))
    c2s = WeylElement.creator(("c", 2))
    assert normal_product(c1, c2s) == WeylElement.monomial([("c", 2)], [("c", 1)])
    assert commutator(c1, c2s).is_zero()


def test_number_operator_square():
    n = WeylElement.monomial([("c", 1)], [("c", 1)])
    expect = WeylElement.monomial([("c", 1)] * 2, [("c", 1)] * 2) + n
    assert normal_product(n, n) == expect


def test_antisymmetry_and_self_commutator():
    x = WeylElement.monomial([A1], [A2]) + WeylElement.monomial([B1, B2], [], QI(0, 1))
    assert commutator(x, x).is_zero()


def _random_quadratic(rng, modes, terms=3):
    w = WeylElement.zero()
    for _ in range(terms):
        kind = rng.randrange(3)
        m1, m2 = rng.choice(modes), rng.choice(modes)
        c = QI(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2)))
        if kind == 0:
            w = w + WeylElement.monomial([m1], [m2], c)
        elif kind == 1:
            w = w + WeylElement.monomial([m1, m2], [], c)
        else:
            w = w + WeylElement.monomial([], [m1, m2], c)
    return w


def test_jacobi_identity_random_quadratics():
    rng = random.Random(2024)
    modes = [("c", i) for i in range(1, 5)]
    for _ in range(12):
        x = _random_quadratic(rng, modes)
        y = _random_quadratic(rng, modes)
        z = _random_quadratic(rng, modes)
        jac = commutator(x, commutator(y, z)) + commutator(y, commutator(z, x)) \
            + commutator(z, commutator(x, y))
        assert jac.is_zero()


def test_associativity_random():
    rng = random.Random(77)
    modes = [("c", 1), ("c", 2)]
    for _ in range(8):
        x = _random_quadratic(rng, modes, 2)
        y = _random_quadratic(rng, modes, 2)
        z = _random_quadratic(rng, modes, 2)
        assert normal_product(normal_product(x, y), z) == normal_product(x, normal_product(y, z))


def _record_monomials(monkeypatch) -> list:
    """Record every monomial built through WeylMonomial.make from now on."""
    made, make = [], WeylMonomial.make

    def recording(creators, annihilators):
        made.append(make(creators, annihilators))
        return made[-1]

    monkeypatch.setattr(WeylMonomial, "make", staticmethod(recording))
    return made


def _no_normal_products(monkeypatch):
    def refuse(x, y):
        raise AssertionError("normal_product called")

    monkeypatch.setattr(weylalg, "normal_product", refuse)


def test_flavor_sum_bracket_does_n_times_the_one_flavor_work(monkeypatch):
    # terms of different flavors share no mode, so the bracket of two sums
    # over N flavors is N copies of the one-flavor bracket, and should cost
    # N times its work, not N^2 times
    elems = fockspace.dual_pair("so_star", 1).a_span
    flavored = {n: [fockspace.flavor_sum(e, n) for e in elems[:6]] for n in (1, 3)}
    made = _record_monomials(monkeypatch)
    counts = {}
    for n, ws in flavored.items():
        made.clear()
        for x in ws:
            for y in ws:
                commutator(x, y)
        counts[n] = len(made)
    assert counts[1] and counts[3] == 3 * counts[1]


def test_a_product_with_no_contracting_pair_builds_only_the_uncontracted_terms(monkeypatch):
    # every annihilator of x is in a mode that no creator of y carries
    x = (WeylElement.monomial([B1], [A1], 2) + WeylElement.monomial([A1, A2], [A2])
         + WeylElement.monomial([], [A1, A1]))
    y = (WeylElement.monomial([B1, B2], [A1]) + WeylElement.monomial([B2], [], 3)
         + WeylElement.monomial([], [B2, A2]) + WeylElement.monomial([B1], [B1]))
    made = _record_monomials(monkeypatch)
    normal_product(x, y)
    assert len(made) == len(x.terms) * len(y.terms) == 12


@pytest.mark.parametrize("x,y", [
    (WeylElement.monomial([A1, A1], [A1, A1], QI(Fraction(1, 2), 1)),
     WeylElement.monomial([A1, A1], [A1, A2], QI(-1, Fraction(1, 3)))),
    (WeylElement.monomial([A1], [A2]), WeylElement.monomial([A2, B1], [A1, B1])),
    (WeylElement.monomial([B1, B1], []), WeylElement.monomial([], [B1, B1])),
    (WeylElement.annihilator(A1), WeylElement.creator(A1)),
], ids=["repeated-modes", "both-orders", "pair-creation", "ccr"])
def test_commutator_forms_only_contracted_terms(monkeypatch, x, y):
    # the uncontracted term of x.y and y.x is the same monomial, of the full
    # degree, and cancels; every term formed has at least one contraction
    want = normal_product(x, y) - normal_product(y, x)
    _no_normal_products(monkeypatch)
    made = _record_monomials(monkeypatch)
    assert commutator(x, y) == want
    def degree(m):
        return len(m.creators) + len(m.annihilators)

    top = max(map(degree, x.terms)) + max(map(degree, y.terms))
    assert made and all(degree(m) <= top - 2 for m in made)


def test_quadratic_from_matrix_makes_no_normal_product(monkeypatch):
    pol = standard_polarization(2)
    x = [[QI(i - j, i * j) for j in range(4)] for i in range(4)]
    want = _quadratic_by_normal_products(x, pol)
    _no_normal_products(monkeypatch)
    assert quadratic_from_matrix(_sparse(x), pol) == want


def test_renormalization_idempotent():
    # products of already normal-ordered elements only contain normal monomials
    x = WeylElement.monomial([A1, A1], [A1])
    y = WeylElement.monomial([A1], [A1, A1])
    p = normal_product(x, y)
    for mono in p.terms:
        assert list(mono.creators) == sorted(mono.creators)
        assert list(mono.annihilators) == sorted(mono.annihilators)


def test_adjoint_involutive_antimultiplicative():
    rng = random.Random(5)
    modes = [("c", 1), ("c", 2), ("c", 3)]
    for _ in range(8):
        x = _random_quadratic(rng, modes, 2)
        y = _random_quadratic(rng, modes, 2)
        assert x.adjoint().adjoint() == x
        assert normal_product(x, y).adjoint() == normal_product(y.adjoint(), x.adjoint())


def test_adjoint_examples():
    assert WeylElement.monomial([A1, B2], []).adjoint() == WeylElement.monomial([], [A1, B2])
    assert WeylElement.monomial([A1], [A1], QI(0, 1)).adjoint() == \
        WeylElement.monomial([A1], [A1], QI(0, -1))


# --- matrix-representation oracle -----------------------------------------


def _matrices_agree(w1, w2, fock):
    m1 = fockspace.operator_matrix(w1, fock)
    m2 = fockspace.operator_matrix(w2, fock)
    cols = fockspace.safe_columns(fock, m1.level_raise + m2.level_raise)
    return all(m1.apply({c: QI(1)}) == m2.apply({c: QI(1)}) for c in cols)


def _bracket_agrees(sym, mx, my, cols):
    """Each listed column of sym equals that of mx my - my mx, read through apply."""
    for c in cols:
        e = {c: QI(1)}
        bracket = {}
        for sign, vec in ((1, mx.apply(my.apply(e))), (-1, my.apply(mx.apply(e)))):
            for r, x in vec.items():
                bracket[r] = bracket.get(r, QI(0)) + x * sign
        if sym.apply(e) != {r: x for r, x in bracket.items() if x}:
            return False
    return True


def test_matrix_oracle_for_product_example():
    fock = fockspace.enumerate_basis([("c", 1)], 3)
    n = WeylElement.monomial([("c", 1)], [("c", 1)])
    sym = normal_product(n, n)
    m_n = fockspace.operator_matrix(n, fock)
    m_sym = fockspace.operator_matrix(sym, fock)
    for c in range(fock.dim):
        assert m_sym.apply({c: QI(1)}) == m_n.apply(m_n.apply({c: QI(1)}))


def test_matrix_oracle_commutator_example():
    fock = fockspace.enumerate_basis([A1, A2], 4)
    x = WeylElement.monomial([A1], [A2])
    y = WeylElement.monomial([A2], [A1])
    lhs = fockspace.operator_matrix(commutator(x, y), fock)
    mx, my = fockspace.operator_matrix(x, fock), fockspace.operator_matrix(y, fock)
    assert _bracket_agrees(lhs, mx, my, range(fock.dim))
    want = WeylElement.monomial([A1], [A1]) - WeylElement.monomial([A2], [A2])
    assert commutator(x, y) == want


def test_matrix_oracle_random_quadratics():
    rng = random.Random(31)
    modes = [("c", 1), ("c", 2), ("c", 3)]
    fock = fockspace.enumerate_basis(modes, 4)
    for _ in range(20):
        x = _random_quadratic(rng, modes, 2)
        y = _random_quadratic(rng, modes, 2)
        sym = fockspace.operator_matrix(commutator(x, y), fock)
        mx, my = fockspace.operator_matrix(x, fock), fockspace.operator_matrix(y, fock)
        cols = fockspace.safe_columns(fock, mx.level_raise, my.level_raise)
        assert _bracket_agrees(sym, mx, my, cols)


# --- quadratics from matrices ----------------------------------------------


def test_quadratic_single_entry():
    pol = standard_polarization(2)
    x = [[QI(0)] * 4 for _ in range(4)]
    x[0][0] = QI(1)
    assert quadratic_from_matrix(_sparse(x), pol) == WeylElement.monomial([A1], [A1])


def _quadratic_by_normal_products(x_matrix, pol):
    """sum_ab phi~_a X_ab phi^b as the sum of the normal products that define it."""
    out = WeylElement.zero()
    for a, row in enumerate(x_matrix):
        for b, c in enumerate(row):
            out = out + normal_product(pol.phi_tilde[a], pol.phi[b]).scale(c)
    return out


@pytest.mark.parametrize("k", [1, 2, 3])
def test_quadratic_from_matrix_matches_the_normal_product_oracle(k):
    rng = random.Random(300 + k)
    pol = standard_polarization(k)

    def entry():
        if rng.random() < 0.3:
            return rng.choice([0, 1, -2])
        return QI(Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])),
                  Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])))

    for _ in range(12):
        x = [[entry() for _ in range(2 * k)] for _ in range(2 * k)]
        assert quadratic_from_matrix(_sparse(x), pol) == _quadratic_by_normal_products(x, pol)


def test_quadratic_identity_vs_helicity():
    # the center direction: the identity matrix maps to the helicity up to
    # the reordering constant, h = (phi~ phi + phi phi~)/2 exactly
    pol = standard_polarization(2)
    x = [[QI(1) if i == j else QI(0) for j in range(4)] for i in range(4)]
    got = quadratic_from_matrix(_sparse(x), pol)
    h = (WeylElement.monomial([A1], [A1]) + WeylElement.monomial([A2], [A2])
         - WeylElement.monomial([B1], [B1]) - WeylElement.monomial([B2], [B2]))
    diff = got - h
    assert diff == WeylElement.scalar(-2)
    # symmetrized form: (phi~ phi + phi phi~)/2 with no leftover constant
    phi_phit = WeylElement.zero()
    for a in range(4):
        phi_phit = phi_phit + normal_product(pol.phi[a], pol.phi_tilde[a])
    assert (got + phi_phit).scale(Fraction(1, 2)) == h


def test_quadratic_map_is_lie_homomorphism():
    rng = random.Random(1234)
    pol = standard_polarization(2)

    def rnd_mat():
        return [[QI(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2)))
                 for _ in range(4)] for _ in range(4)]

    for _ in range(20):
        x, y = rnd_mat(), rnd_mat()
        lhs = commutator(quadratic_from_matrix(_sparse(x), pol),
                         quadratic_from_matrix(_sparse(y), pol))
        rhs = quadratic_from_matrix(_sparse(_matrix_bracket(x, y)), pol)
        diff = lhs - rhs
        assert diff.is_zero()


def test_matrix_from_quadratic_roundtrip():
    rng = random.Random(8)
    pol = standard_polarization(2)
    for _ in range(10):
        x = [[QI(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2)))
              for _ in range(4)] for _ in range(4)]
        w = quadratic_from_matrix(_sparse(x), pol)
        assert matrix_from_quadratic(w, pol) == _sparse(x)


def test_matrix_from_quadratic_rejects_nonpolarized():
    pol = standard_polarization(1)
    w = WeylElement.monomial([A1, A1], [])  # a*a* does not preserve phi-span
    with pytest.raises(SpanError, match="leaves the mode span"):
        matrix_from_quadratic(w, pol)


@pytest.mark.parametrize("creators,annihilators", [([], [A1, A2]), ([B1, B2], [])],
                         ids=["a1a2", "b1*b2*"])
def test_matrix_from_quadratic_rejects_monomials_outside_the_products(creators, annihilators):
    # a1 a2 and b1* b2* commute with every phi^b, so an adjoint-action
    # readback maps them to the zero matrix; no phi~_a phi^b gives either
    pol = standard_polarization(2)
    with pytest.raises(SpanError, match="leaves the mode span"):
        matrix_from_quadratic(WeylElement.monomial(creators, annihilators), pol)


def test_polarization_needs_the_pairing_and_one_monomial_per_product():
    a1, a2 = WeylElement.annihilator(A1), WeylElement.annihilator(A2)
    c1, c2 = WeylElement.creator(A1), WeylElement.creator(A2)
    with pytest.raises(ValueError, match="CCR pairing"):
        Polarization((a1, a2), (c2, c1))
    # a rotated frame keeps the pairing, but its products mix monomials
    half = QI(Fraction(1, 2))
    with pytest.raises(ValueError, match="distinct monomials"):
        Polarization((a1 + a2, a1 - a2), ((c1 + c2).scale(half), (c1 - c2).scale(half)))


def test_quadratic_blocks_rejects_higher_degree():
    with pytest.raises(SpanError, match="not quadratic"):
        quadratic_blocks(WeylElement.monomial([A1, A1], [A2]), [A1, A2])


def test_mode_action_matrix_is_homomorphism():
    rng = random.Random(42)
    modes = [("c", 1), ("c", 2)]
    for _ in range(10):
        x = _random_quadratic(rng, modes, 2).without_scalar()
        y = _random_quadratic(rng, modes, 2).without_scalar()
        mx = _dense(mode_action_matrix(x, modes), 4)
        my = _dense(mode_action_matrix(y, modes), 4)
        mxy = _dense(mode_action_matrix(commutator(x, y).without_scalar(), modes), 4)
        assert mxy == _matrix_bracket(mx, my)


def _commutator_action_matrix(w, modes):
    """Oracle: [w, xi_r] = sum_b A_rb xi_b read off 2n brackets on the
    frame xi = (c_1..c_n, c*_1..c*_n), returned transposed."""
    xi = [WeylElement.annihilator(m) for m in modes] + [WeylElement.creator(m) for m in modes]
    basis = {next(iter(el.terms)): b for b, el in enumerate(xi)}
    n = len(xi)
    a = [[QI(0)] * n for _ in range(n)]
    for r in range(n):
        for mono, q in commutator(w, xi[r]).terms.items():
            a[r][basis[mono]] = q
    return [[a[r][c] for r in range(n)] for c in range(n)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_mode_action_matrix_matches_the_commutator_oracle(k):
    rng = random.Random(100 + k)
    modes = [("c", i) for i in range(1, k + 1)]
    for _ in range(30):
        w = _random_quadratic(rng, modes, 2 * k) + WeylElement.scalar(rng.randint(-2, 2))
        got = mode_action_matrix(w, modes)
        assert _dense(got, 2 * k) == _commutator_action_matrix(w, modes)
        assert all(got.values())


@pytest.mark.parametrize("w,message", [
    (WeylElement.monomial([A1, A1], [A2]), "not quadratic"),
    (WeylElement.monomial([B1], [A1]), "leaves the mode span"),
], ids=["cubic", "mode-outside"])
def test_mode_action_matrix_rejects_what_is_not_quadratic_in_the_modes(w, message):
    with pytest.raises(SpanError, match=message):
        mode_action_matrix(w, [A1, A2])


def test_quadratic_blocks_split():
    modes = [("c", 1), ("c", 2)]
    w = (WeylElement.monomial([("c", 1)], [("c", 2)], QI(3))
         + WeylElement.monomial([("c", 1), ("c", 2)], [], QI(2))
         + WeylElement.monomial([], [("c", 1), ("c", 1)], QI(5)))
    alpha, beta, gamma = quadratic_blocks(w, modes)
    assert alpha == {(0, 1): QI(3)}
    assert beta == {(0, 1): QI(1), (1, 0): QI(1)}
    assert gamma == {(0, 0): QI(5)}


def test_dimension_mismatch_rejected():
    pol = standard_polarization(2)
    for entry in ((4, 0), (0, 4), (-1, 0)):
        with pytest.raises(ValueError, match="4x4"):
            quadratic_from_matrix({entry: QI(1)}, pol)


def test_serialization_golden():
    # frozen rendering: deterministic term order, coefficient formatting
    w = (WeylElement.monomial([A1, B2], [], QI(Fraction(3, 2), Fraction(1, 2)))
         + WeylElement.monomial([A2], [A1], QI(0, -1))
         + WeylElement.scalar(QI(-2)))
    assert str(w) == "(-2) 1 + (3/2+1/2i) a1* b2* + (-i) a2* a1"
    assert str(WeylElement.zero()) == "0"
    assert str(WeylElement.one()) == "(1) 1"


def test_serialization_deterministic_across_builds():
    w1 = WeylElement.monomial([A1], [A2]) + WeylElement.monomial([B1], [B2])
    w2 = WeylElement.monomial([B1], [B2]) + WeylElement.monomial([A1], [A2])
    assert str(w1) == str(w2)


# --- the products against their per-pair oracles ---------------------------


def _normal_product_oracle(x, y):
    """x.y summed pair of terms by pair of terms, each product a QI."""
    acc = {}
    for mx, qx in x.terms.items():
        for my, qy in y.terms.items():
            q = qx * qy
            combine(((mono, q * w) for w, mono in contraction_oracle._mono_product(mx, my)),
                    acc)
    return WeylElement(acc)


def _contractions_oracle(x, y, sign, acc):
    for mx, qx in x.terms.items():
        for my, qy in y.terms.items():
            q = qx * qy
            combine(((mono, q * (sign * w))
                     for w, mono in contraction_oracle._contractions(mx, my)), acc)
    return acc


def _commutator_oracle(x, y):
    """[x, y] from the contracted terms of every pair of terms, both orders."""
    return WeylElement(_contractions_oracle(y, x, -1, _contractions_oracle(x, y, 1, {})))


def _weyl_elements(st):
    """Weyl elements of up to four terms over three modes, with repeated
    modes, scalar terms and Gaussian rational coefficients."""
    modes = st.sampled_from([("c", 1), ("c", 2), ("d", 1)])
    side = st.lists(modes, max_size=3)
    small = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
    coeff = st.builds(QI, small, small)
    term = st.tuples(side, side, coeff)
    return st.lists(term, max_size=4).map(lambda ts: sum(
        (WeylElement.monomial(c, a, q) for c, a, q in ts), WeylElement.zero()))


def _contraction_kinds(x, y):
    """How the pairs of terms of x.y contract: "once" (one mode, once on
    each side), "twice" (a mode with at least two annihilators in x and
    two creators in y) and "two-modes"."""
    kinds = set()
    for mx in x.terms:
        for my in y.terms:
            shared = [(mx.annihilators.count(m), my.creators.count(m))
                      for m in set(mx.annihilators) & set(my.creators)]
            if shared == [(1, 1)]:
                kinds.add("once")
            if any(p >= 2 and q >= 2 for p, q in shared):
                kinds.add("twice")
            if len(shared) >= 2:
                kinds.add("two-modes")
    return kinds


@pytest.mark.parametrize("product,oracle", [(normal_product, _normal_product_oracle),
                                            (commutator, _commutator_oracle)],
                         ids=["normal_product", "commutator"])
def test_products_match_their_per_pair_oracles(product, oracle):
    hypothesis = pytest.importorskip("hypothesis")
    elems = _weyl_elements(hypothesis.strategies)
    seen = set()

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @hypothesis.given(elems, elems)
    def check(x, y):
        got = product(x, y)
        assert got == oracle(x, y)
        assert all(got.terms.values())
        seen.update(_contraction_kinds(x, y))

    check()
    # the examples reach the single-contraction case and the general one
    assert seen == {"once", "twice", "two-modes"}


def _one_mode_terms(p, q):
    """(weight, creators left, annihilators left) of each term of a^p a*^q:
    k contractions weigh k! C(p,k) C(q,k) and leave a*^(q-k) a^(p-k)."""
    return [(factorial(k) * comb(p, k) * comb(q, k), q - k, p - k)
            for k in range(min(p, q) + 1)]


def _closed_form(factors, contracted_only=False):
    """The normal-ordered product of the annihilators m^p of each (m, p, q)
    in factors with their creators m*^q, each factor in its own mode, read
    off the one-mode closed form; with contracted_only, the terms with at
    least one contraction, which make up the commutator."""
    out = WeylElement.zero()
    for choice in iproduct(*[_one_mode_terms(p, q) for _, p, q in factors]):
        if contracted_only and all(c == q for (_, _, q), (_, c, _) in zip(factors, choice)):
            continue
        creators = [m for (m, _, _), (_, c, _) in zip(factors, choice) for _ in range(c)]
        annihilators = [m for (m, _, _), (_, _, a) in zip(factors, choice) for _ in range(a)]
        out = out + WeylElement.monomial(creators, annihilators, prod(w for w, _, _ in choice))
    return out


# one mode at every 0 <= p, q <= 4, and two modes contracting at once
_CLOSED_FORM_CASES = ([((A1, p, q),) for p in range(5) for q in range(5)]
                      + [((A1, p, q), (B1, r, s)) for p, q, r, s in iproduct((1, 2), repeat=4)])


def _closed_form_operands(factors):
    return (WeylElement.monomial([], [m for m, p, _ in factors for _ in range(p)]),
            WeylElement.monomial([m for m, _, q in factors for _ in range(q)], []))


@pytest.mark.parametrize("route", ["normal_product", "sum_of_products", "commutator"])
def test_contraction_weights_match_the_closed_form(route):
    # a^p a*^q = sum_k k! C(p,k) C(q,k) a*^(q-k) a^(p-k), and distinct modes
    # commute, so a product over two modes is the product of the two sums
    pairs = [_closed_form_operands(f) for f in _CLOSED_FORM_CASES]
    if route == "commutator":
        for f, (x, y) in zip(_CLOSED_FORM_CASES, pairs):
            assert commutator(x, y) == _closed_form(f, contracted_only=True), f
        return
    for f, (x, y) in zip(_CLOSED_FORM_CASES, pairs):
        got = normal_product(x, y) if route == "normal_product" else sum_of_products([(x, y)])
        assert got == _closed_form(f), f
    if route == "sum_of_products":
        assert sum_of_products(pairs) == sum(map(_closed_form, _CLOSED_FORM_CASES),
                                             WeylElement.zero())


def _dense_blocks_oracle(w, modes):
    """(alpha, beta, gamma) as dense n x n matrices, beta and gamma symmetric."""
    idx = {m: i for i, m in enumerate(modes)}
    n = len(modes)
    blocks = {key: [[QI(0)] * n for _ in range(n)] for key in ((1, 1), (2, 0), (0, 2))}
    for mono, q in w.terms.items():
        shape = (len(mono.creators), len(mono.annihilators))
        if shape == (0, 0):
            continue
        i, j = (idx[m] for m in mono.creators + mono.annihilators)
        block = blocks[shape]
        if shape == (1, 1) or i == j:
            block[i][j] += q
        else:
            block[i][j] += q * QI(Fraction(1, 2))
            block[j][i] += q * QI(Fraction(1, 2))
    return blocks[1, 1], blocks[2, 0], blocks[0, 2]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_quadratic_blocks_match_the_dense_blocks(k):
    rng = random.Random(700 + k)
    modes = [("c", i) for i in range(1, k + 1)]
    for _ in range(30):
        w = _random_quadratic(rng, modes, 2 * k) + WeylElement.scalar(rng.randint(-2, 2))
        got = quadratic_blocks(w, modes)
        assert [_dense(b, k) for b in got] == list(_dense_blocks_oracle(w, modes))
