"""Each batched routine against its per-item oracle in ``batch_oracle``:
the closure's pairings and memberships, the polarization's table, the
Casimir's dual bases, the quadratics and the brackets, on so*(4n) for
n = 1..4, u(k,k) and sp(2k,R)."""

import random
from itertools import islice

import pytest

import batch_oracle
from minrep import fockspace, oscrep, weylalg
from minrep.scalars import QI
from minrep.weylalg import Polarization, WeylElement, mode_action_matrix, standard_polarization

FAMILIES = ([("so_star", n) for n in (1, 2, 3, 4)] + [("u_pq", k) for k in (1, 2, 3)]
            + [("sp_real", k) for k in (1, 2, 3)])


def _basis(family: str, k: int) -> list[dict]:
    """A basis of the family's algebra as {(row, col): entry} matrices."""
    if family == "so_star":
        return oscrep.so_star_basis(k)
    if family == "u_pq":
        return oscrep.unitary_basis([1] * k + [-1] * k)
    pair = fockspace.dual_pair("sp_real", k)
    return [mode_action_matrix(e, pair.modes) for e in pair.a_span]


def _flipped(x: dict) -> dict:
    """x with its first entry negated."""
    key = next(iter(x))
    return {**x, key: -x[key]}


@pytest.mark.parametrize("family,k", FAMILIES)
def test_central_pairing_matches_the_per_pair_oracle(family, k):
    pair = fockspace.dual_pair(family, k)
    blocks = [fockspace.quadratic_blocks(e, pair.modes)[1:] for e in pair.a_span]
    want = {}
    for s in range(len(blocks)):
        for t in range(s, len(blocks)):
            if omega := batch_oracle.central_pairing(blocks[s], blocks[t]):
                want[s, t] = omega
    got = fockspace.central_pairing(blocks)
    assert got == want and want


@pytest.mark.parametrize("family,k", FAMILIES)
def test_membership_matches_the_per_matrix_oracle(family, k):
    # the basis, each matrix with its first entry negated, and i times each
    spec = oscrep.form_spec(family, k)
    basis = _basis(family, k)
    mats = basis + [_flipped(x) for x in basis] + [{ij: v * QI(0, 1) for ij, v in x.items()}
                                                    for x in basis]
    want = [batch_oracle.matrix_membership(x, spec) for x in mats]
    assert oscrep.matrix_membership(mats, spec) == want
    assert True in want and False in want


@pytest.mark.parametrize("family,k", [("so_star", 1), ("so_star", 2), ("u_pq", 2),
                                      ("sp_real", 2)])
def test_a_flipped_entry_fails_its_matrix_alone(family, k):
    spec = oscrep.form_spec(family, k)
    basis = _basis(family, k)
    assert oscrep.matrix_membership(basis, spec) == [True] * len(basis)
    flips = [j for j, x in enumerate(basis) if len(x) > 1]
    assert flips
    for j in flips:
        mats = basis[:j] + [_flipped(basis[j])] + basis[j + 1:]
        assert oscrep.matrix_membership(mats, spec) == [i != j for i in range(len(basis))]


def test_each_condition_is_summed_apart():
    # X = -e_00 + e_22 + e_02 + e_20 has X* beta + beta X = -(t(X) sigma +
    # sigma X), both nonzero: summed under one key, the two so*(4)
    # conditions would cancel and X would pass
    spec = oscrep.form_spec("so_star", 1)
    x = {(0, 0): QI(-1), (2, 2): QI(1), (0, 2): QI(1), (2, 0): QI(1)}
    assert not batch_oracle.matrix_membership(x, spec)
    assert oscrep.matrix_membership([x, oscrep.so_star_basis(1)[0]], spec) == [False, True]


def test_membership_of_no_matrix_is_no_verdict():
    assert oscrep.matrix_membership([], oscrep.form_spec("so_star", 1)) == []


def test_membership_refuses_a_batch_with_one_oversized_matrix():
    spec = oscrep.form_spec("u_pq", 1)
    with pytest.raises(oscrep.AlgebraError, match="does not match the u_pq form"):
        oscrep.matrix_membership(_basis("u_pq", 1) + [{(2, 0): QI(1)}], spec)


def _polarizations():
    """The standard splits and three others: rescaled, reordered and
    mixed a/b pairs."""
    a, b = (lambda i: WeylElement.annihilator(("a", i)),
            lambda i: WeylElement.annihilator(("b", i)))
    ac, bc = (lambda i: WeylElement.creator(("a", i)),
              lambda i: WeylElement.creator(("b", i)))
    out = [(p.phi, p.phi_tilde) for p in map(standard_polarization, range(1, 7))]
    out.append(((a(1).scale(2), bc(1)), (ac(1).scale(QI(1, 0) / 2), -b(1))))
    out.append(((bc(1), a(1), a(2)), (-b(1), ac(1), ac(2))))
    out.append(((a(1), bc(2), a(3)), (ac(1), -b(2), ac(3))))
    return out


@pytest.mark.parametrize("phi,phi_tilde", _polarizations())
def test_polarization_matches_the_per_pair_oracle(phi, phi_tilde):
    pol = Polarization(phi, phi_tilde)
    products, table = batch_oracle.polarization_tables(phi, phi_tilde)
    assert pol.table == table
    assert list(pol.products.items()) == list(products.items())


@pytest.mark.parametrize("phi,phi_tilde,message", [
    # a CCR pair out of order: [a1, a2*] = 0 on the diagonal
    (("a1", "a2"), ("a2*", "a1*"), "CCR pairing"),
    # the CCR holds, but (a1* - a2*)(a1 + a2) has four monomials
    (("a1", "a1+a2"), ("a1*-a2*", "a2*"), "distinct monomials"),
])
def test_polarization_refusals_match_the_oracle(phi, phi_tilde, message):
    el = {"a1": WeylElement.annihilator(("a", 1)), "a2": WeylElement.annihilator(("a", 2)),
          "a1*": WeylElement.creator(("a", 1)), "a2*": WeylElement.creator(("a", 2))}
    el["a1+a2"] = el["a1"] + el["a2"]
    el["a1*-a2*"] = el["a1*"] - el["a2*"]
    phi, phi_tilde = tuple(el[x] for x in phi), tuple(el[x] for x in phi_tilde)
    with pytest.raises(ValueError, match=message):
        batch_oracle.polarization_tables(phi, phi_tilde)
    with pytest.raises(ValueError, match=message):
        Polarization(phi, phi_tilde)


def _dual_bases():
    for n in (1, 2, 3, 4):
        yield oscrep.so_star_basis(n)
        k = 2 * n
        yield [oscrep._compact_block(u, k)
               for u in oscrep.unitary_basis([1] * k, traceless=True)]
    for k in (1, 2, 3):
        yield oscrep.unitary_basis([1] * k + [-1] * k)
        yield _basis("sp_real", k)


@pytest.mark.parametrize("basis", _dual_bases())
def test_dual_basis_matches_the_per_matrix_oracle(basis):
    got = oscrep._dual_basis(basis)
    want = batch_oracle._dual_basis(basis)
    # the same entries, each dual matrix's keys in the same order
    assert [list(x.items()) for x in got] == [list(x.items()) for x in want]


def test_dual_basis_refuses_what_the_oracle_refuses():
    # tr(x_a x_b) is i for x = e_00, y = i e_00: not real
    basis = [{(0, 0): QI(1)}, {(0, 0): QI(0, 1)}]
    with pytest.raises(oscrep.AlgebraError, match="not real"):
        batch_oracle._dual_basis(basis)
    with pytest.raises(oscrep.AlgebraError, match="not real"):
        oscrep._dual_basis(basis)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quadratics_match_the_per_matrix_oracle(n):
    pol = standard_polarization(2 * n)
    mats = oscrep.so_star_basis(n)
    mats += oscrep._dual_basis(mats)
    got = weylalg.quadratics_from_matrices(mats, pol)
    assert got == [batch_oracle.quadratic_from_matrix(x, pol) for x in mats]
    assert weylalg.quadratics_from_matrices([], pol) == []


@pytest.mark.parametrize("family,k", [("so_star", 2), ("u_pq", 2), ("sp_real", 2)])
def test_commutators_match_the_per_pair_brackets(family, k):
    elems = [fockspace.flavor_sum(e, 2) for e in fockspace.dual_pair(family, k).a_span]
    rng = random.Random(k)
    pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(60)]
    pairs += [(x, x) for x in islice(elems, 3)]
    got = weylalg.commutators(pairs)
    assert got == [weylalg.commutator(x, y) for x, y in pairs]
    assert any(got) and not all(got)
