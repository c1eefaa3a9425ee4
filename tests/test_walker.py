"""``weylalg.column``, the one walker, against the walk-then-sum route it
replaced (``walk_oracle``): on Fock states and on monomials its columns
hold the same entries, in the same order and of the same types; the
stacked harmonic eigen-checks give the per-operator records; ``poly.apply``
gives the oracle's images; and each state or monomial is walked once."""

import json
from collections import Counter

import pytest

import walk_oracle
from minrep import cli, fockspace, harmonics, massless
from minrep.poly import Poly, apply, operator_terms
from minrep.scalars import QI
from minrep.weylalg import WeylElement, WeylMonomial, column
from monomials import monomials_up_to


def _oracle_column(terms, state) -> dict:
    """The oracle's column of one state, keyed (tag, image) as ``column`` keys it."""
    return walk_oracle.column_sum(((tag, image), q * w) for tag, image, _, q, w in
                                  walk_oracle.walk(terms, ((state, 1),)))


def _same(got: dict, want: dict) -> bool:
    """Equal entries, in the same key order, each of the same type."""
    return [(k, v, type(v)) for k, v in got.items()] == [(k, v, type(v)) for k, v in want.items()]


_SO_STAR_8 = fockspace.dual_pair("so_star", 2)


@pytest.mark.parametrize("elements", [_SO_STAR_8.chevalley.F, _SO_STAR_8.a_span],
                         ids=["lowering", "a-span"])
def test_column_equals_the_oracle_walk_on_every_so_star_8_state_to_level_5(elements):
    # the stacked lowering terms hold ints and annihilate 21 states; the
    # a-span's quadratics hold i-coefficient terms
    fock = fockspace.enumerate_basis(_SO_STAR_8.modes, 5)
    stacked = fockspace._terms(elements, fock)
    annihilated = 0
    for col, state in enumerate(fock.states):
        for terms in stacked:
            assert _same(column(terms, state), _oracle_column(terms, state)), state
        annihilated += not column(stacked[-1], state)
        assert fockspace._column(stacked, fock, col) == {
            offset + fock.index[image]: v for (offset, image), v in
            _oracle_column(stacked[min(fock.cutoff - sum(state), len(stacked) - 1)],
                           state).items()}
    assert annihilated == (21 if elements is _SO_STAR_8.chevalley.F else 0)
    assert any(type(q) is QI for terms in stacked for _, q, _, _ in terms) \
        == (elements is _SO_STAR_8.a_span)


def test_column_equals_the_oracle_walk_under_the_four_harmonic_operators():
    # every monomial of degree <= 6: the stacked column is the oracle's
    # per-operator columns side by side, L3's i-coefficient terms included
    stacked = harmonics.operator_columns()
    per_operator = walk_oracle.operator_columns()
    names = ("laplacian", "H", "L^2", "L3")
    monos = list(monomials_up_to(4, 6))
    assert len(monos) == 210
    for m in monos:
        want = {(tag, r): v for tag, name in enumerate(names)
                for r, v in per_operator[name][m].items()}
        assert _same(stacked[m], want), m
    assert stacked[(0, 0, 0, 0)] == {(1, (0, 0, 0, 0)): 1}


def test_an_annihilated_state_and_a_cancelled_image_leave_no_entry():
    z0 = ("z", 0)
    laplacian = operator_terms(harmonics._LAPLACIAN)
    assert column(laplacian, (1, 0, 0, 0)) == _oracle_column(laplacian, (1, 0, 0, 0)) == {}
    # z0* z0 - 1 maps z0 to z0 - z0: two images, one zero total
    euler_less_one = operator_terms(WeylElement({WeylMonomial.make([z0], [z0]): QI(1),
                                                 WeylMonomial.make([], []): QI(-1)}))
    assert len(list(walk_oracle.walk(euler_less_one, (((1, 0, 0, 0), 1),)))) == 2
    assert column(euler_less_one, (1, 0, 0, 0)) == {}
    assert column(euler_less_one, (2, 0, 0, 0)) == {(0, (2, 0, 0, 0)): 1}


def _records(rep) -> list:
    return [(r.check_id, r.passed, r.defect) for r in rep.records]


def _mode_cases():
    """(h, n, l, m) of every mode to nmax 7, z1^2 as the (3, 0, 0) mode, and
    each mode of a few with one label off by one."""
    cases = [(mode.poly, mode.n, mode.l, mode.m) for mode in harmonics.harmonic_modes(7)]
    cases.append((Poly({(2, 0, 0, 0): QI(1)}), 3, 0, 0))
    for n, l, m in [(1, 0, 0), (3, 1, -1), (4, 2, 1), (5, 3, 0)]:
        h = harmonics.build_harmonic(n, l, m).poly
        cases += [(h, n + 1, l, m), (h, n, l + 1, m), (h, n, l, m + 1)]
    return cases


def test_verify_mode_gives_the_per_operator_records():
    stacked, per_operator = harmonics.operator_columns(), walk_oracle.operator_columns()
    cases = _mode_cases()
    failed = 0
    for h, n, l, m in cases:
        want = _records(walk_oracle.verify_mode(h, n, l, m, per_operator))
        assert _records(harmonics.verify_mode(h, n, l, m, stacked)) == want, (n, l, m)
        failed += not all(passed for _, passed, _ in want)
    assert len(cases) == 140 + 1 + 12 and failed == 13


def test_apply_gives_the_oracle_image_on_the_massless_inputs(monkeypatch, capsys):
    seen = []

    def recorded(terms, p):
        seen.append((terms, p))
        return apply(terms, p)

    monkeypatch.setattr(massless, "apply", recorded)
    assert cli.main(["massless", "--stable", "--format", "json"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["ok"]
    assert len(seen) > 20
    for terms, p in seen:
        got, want = apply(terms, p), walk_oracle.apply(terms, p)
        assert got == want and list(got.terms) == list(want.terms)


def test_harmonics_walks_each_distinct_monomial_once(monkeypatch, capsys):
    # the 140 modes to nmax 7 and the z1^2 control span the 210 monomials
    # of degree <= 6; the four operators are one stacked column of each
    walked = []
    monkeypatch.setattr(harmonics, "column",
                        lambda terms, state: walked.append(state) or column(terms, state))
    assert cli.main(["harmonics", "--nmax", "7", "--format", "json"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["ok"]
    assert len(walked) == len(set(walked)) == 210
    assert set(walked) == set(monomials_up_to(4, 6))


def test_lowest_weight_vectors_walks_each_state_once(monkeypatch):
    fock = fockspace.enumerate_basis(_SO_STAR_8.modes, 4)
    walked = []
    monkeypatch.setattr(fockspace, "column",
                        lambda terms, state: walked.append(state) or column(terms, state))
    fockspace.lowest_weight_vectors(_SO_STAR_8.chevalley, fock)
    assert Counter(walked) == Counter(fock.states)
