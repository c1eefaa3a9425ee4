import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import comb, factorial, prod
from unittest import mock

import pytest

from minrep import fockspace, linalg, oscrep
from minrep.scalars import QI, sum_products
from minrep.weylalg import WeylElement, commutator, normal_product, standard_polarization

mono = WeylElement.monomial


class TestBasis:
    def test_single_mode(self):
        fock = fockspace.enumerate_basis([("c", 1)], 3)
        assert fock.states == ((0,), (1,), (2,), (3,))

    def test_two_modes_level_two(self):
        fock = fockspace.enumerate_basis([("c", 1), ("c", 2)], 2)
        assert fock.dim == 6

    def test_eight_modes_level_three(self):
        # sum_{j<=3} C(7+j, j) = 1 + 8 + 36 + 120
        fock = fockspace.enumerate_basis([("c", i) for i in range(8)], 3)
        assert fock.dim == 165
        assert fock.dim == sum(comb(7 + j, j) for j in range(4))

    def test_graded_lex_order_deterministic(self):
        fock = fockspace.enumerate_basis([("c", 1), ("c", 2)], 2)
        levels = [sum(s) for s in fock.states]
        assert levels == sorted(levels)
        f2 = fockspace.enumerate_basis([("c", 1), ("c", 2)], 2)
        assert fock.states == f2.states

    def test_state_cap(self):
        with pytest.raises(fockspace.FockError):
            fockspace.enumerate_basis([("c", i) for i in range(8)], 3, max_states=100)

    def test_basis_size_closed_form_equals_the_level_sum(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(derandomize=True, database=None, deadline=None,
                             max_examples=200)
        @hypothesis.given(st.integers(1, 40), st.integers(0, 60))
        def check(num_modes, cutoff):
            want = sum(comb(num_modes + j - 1, j) for j in range(cutoff + 1))
            assert fockspace.basis_size(num_modes, cutoff) == want

        check()

    def test_basis_size_matches_the_enumeration(self):
        for k, cutoff in ((1, 5), (3, 4), (8, 3)):
            modes = [("c", i) for i in range(k)]
            assert fockspace.basis_size(k, cutoff) == fockspace.enumerate_basis(modes, cutoff).dim

    def test_basis_size_of_a_huge_cutoff_is_immediate(self):
        # the level sum would take about 10^20 steps
        assert fockspace.basis_size(8, 10 ** 20) == comb(10 ** 20 + 8, 8)


class TestOperatorMatrix:
    def test_number_operator(self):
        fock = fockspace.enumerate_basis([("c", 1)], 2)
        m = fockspace.operator_matrix(mono([("c", 1)], [("c", 1)]), fock)
        assert [m.entries[c] for c in range(fock.dim)] == [{}, {1: QI(1)}, {2: QI(2)}]
        assert [m.apply({c: QI(1)}) for c in range(3)] == [{}, {1: QI(1)}, {2: QI(2)}]

    def test_h_theta_on_vacuum(self):
        gens = oscrep.su22_generators()
        modes = [("a", 1), ("a", 2), ("b", 1), ("b", 2)]
        fock = fockspace.enumerate_basis(modes, 1)
        m = fockspace.operator_matrix(gens.extras["H_theta"], fock)
        vac = fock.index[(0,) * len(fock.modes)]
        assert m.apply({vac: QI(1)}) == {vac: QI(1)}

    def test_mode_mismatch(self):
        fock = fockspace.enumerate_basis([("c", 1)], 2)
        with pytest.raises(fockspace.FockError):
            fockspace.operator_matrix(mono([("d", 1)], []), fock)

    def test_overflow_flagged(self):
        fock = fockspace.enumerate_basis([("c", 1)], 1)
        m = fockspace.operator_matrix(mono([("c", 1)], []), fock)
        assert fockspace.safe_columns(fock, m.level_raise) == [0]
        # c*|1> lies past the cutoff, so column 1 is empty
        assert m.entries[1] == {} and m.apply({1: QI(1)}) == {}
        assert m.apply({0: QI(1)}) == {1: QI(1)}

    def test_scalar_entries_are_exact(self):
        rng = random.Random(6)
        modes = [("c", 1), ("c", 2)]
        fock = fockspace.enumerate_basis(modes, 3)
        w = mono([("c", 1)], [("c", 1)], QI(Fraction(2, 3), Fraction(-1, 7)))
        m = fockspace.operator_matrix(w, fock)
        for c in range(fock.dim):
            for v in m.apply({c: QI(1)}).values():
                assert isinstance(v, QI)

    @pytest.mark.parametrize("seed", range(6))
    def test_columns_are_the_normal_products_with_each_state(self, seed):
        # column n of w's matrix is w a*^n |0>: normal-order w a*^n, drop
        # the terms that keep an annihilator (they kill |0>) and the states
        # past the cutoff
        rng = random.Random(seed)
        modes = [("a", 1), ("a", 2), ("b", 1)]
        fock = fockspace.enumerate_basis(modes, 4)
        w = WeylElement.scalar(QI(Fraction(rng.randint(-2, 2), 3)))
        for _ in range(4):
            w = w + mono([rng.choice(modes) for _ in range(rng.randrange(3))],
                         [rng.choice(modes) for _ in range(rng.randrange(3))],
                         QI(Fraction(rng.randint(-3, 3), rng.randint(1, 4)), rng.randint(-1, 1)))
        m = fockspace.operator_matrix(w, fock)
        for col, state in enumerate(fock.states):
            creators = [mode for mode, n in zip(modes, state) for _ in range(n)]
            oracle = {}
            for term, q in normal_product(w, mono(creators, [])).terms.items():
                occ = tuple(term.creators.count(mode) for mode in modes)
                if not term.annihilators and sum(occ) <= fock.cutoff:
                    oracle[fock.index[occ]] = q
            assert m.entries[col] == oracle
            assert m.apply({col: QI(1)}) == oracle
        assert all(v for col in range(fock.dim) for v in m.entries[col].values())


def _sum_products_column(w, fock, col) -> dict:
    """Oracle: column col of w's matrix as it was formed before the walker,
    each term's image of the state at the image's index, all summed in one
    sum_products call, so every entry is a QI."""
    pos = {m: i for i, m in enumerate(fock.modes)}
    state = fock.states[col]
    items = []
    for mono_, q in w.terms.items():
        if len(mono_.creators) - len(mono_.annihilators) > fock.cutoff - sum(state):
            continue
        occ, coeff = list(state), 1
        for m in mono_.annihilators:
            coeff *= occ[pos[m]]
            occ[pos[m]] = max(0, occ[pos[m]] - 1)
        if coeff:
            for m in mono_.creators:
                occ[pos[m]] += 1
            items.append((fock.index[tuple(occ)], q, coeff, 1))
    return sum_products(items)


def _walker_cases():
    so8 = fockspace.dual_pair("so_star", 2)
    gens = so8.chevalley
    sp4 = fockspace.dual_pair("sp_real", 2, 2)
    return [pytest.param(list(gens.E + gens.F + gens.H) + list(so8.a_span), so8.modes, 5,
                         id="so*(8)-level5"),
            pytest.param([fockspace.flavor_sum(e, 2) for e in sp4.a_span] + list(sp4.gauge.span),
                         sorted({m for e in sp4.a_span for m in fockspace.flavor_sum(e, 2).modes()}),
                         4, id="sp(4,R)-N2-level4")]


class TestWalkerColumns:
    @pytest.mark.parametrize("elements,modes,level", _walker_cases())
    def test_walker_columns_equal_the_sum_products_columns(self, elements, modes, level):
        fock = fockspace.enumerate_basis(modes, level)
        for w in elements:
            m = fockspace.operator_matrix(w, fock)
            for col in range(fock.dim):
                assert {r: QI.of(v) for r, v in m.entries[col].items()} \
                    == _sum_products_column(w, fock, col), (w, col)

    def test_so_star_8_lowering_columns_hold_only_ints(self):
        pair, fock = _so_star_setup(2, 5)
        stacked = fockspace._terms(pair.chevalley.F, fock)
        matrices = [fockspace.operator_matrix(f, fock) for f in pair.chevalley.F]
        for col in range(fock.dim):
            column = fockspace._column(stacked, fock, col)
            assert all(type(v) is int for v in column.values())
            assert column == {k * fock.dim + r: v for k, m in enumerate(matrices)
                              for r, v in m.entries[col].items()}
            assert all(type(v) is int for m in matrices for v in m.entries[col].values())


class TestHelicity:
    def test_levels(self):
        modes = [("a", 1), ("a", 2), ("b", 1), ("b", 2)]
        fock = fockspace.enumerate_basis(modes, 2)
        assert fockspace.helicity_spectrum(fock, 0) == {0: 1}
        assert fockspace.helicity_spectrum(fock, 1) == {-1: 2, 1: 2}
        assert fockspace.helicity_spectrum(fock, 2) == {-2: 3, 0: 4, 2: 3}

    def test_whole_truncation(self):
        modes = [("a", 1), ("a", 2), ("b", 1), ("b", 2)]
        fock = fockspace.enumerate_basis(modes, 1)
        # the level histograms together count every state of the truncation
        total = Counter(fockspace.helicity_spectrum(fock, 0))
        total.update(fockspace.helicity_spectrum(fock, 1))
        assert total == {-1: 2, 0: 1, 1: 2} and total.total() == fock.dim

    def test_wrong_modes_rejected(self):
        fock = fockspace.enumerate_basis([("c", 1)], 1)
        with pytest.raises(fockspace.FockError):
            fockspace.helicity_spectrum(fock, 1)


def _diagonal_generators():
    """(element, modes) for every diagonal generator the suites use."""
    out = []
    for label, pair in (("so*(4)", fockspace.dual_pair("so_star", 1)),
                        ("so*(8)", fockspace.dual_pair("so_star", 2)),
                        ("u(2,2)", fockspace.dual_pair("u_pq", 2)),
                        ("u(3,3)", fockspace.dual_pair("u_pq", 3))):
        gens = pair.chevalley
        named = [(f"H{i}", h) for i, h in enumerate(gens.H, start=1)]
        named.append(("Q", gens.extras["Q"]))
        if pair.family == "so_star":
            named.append(("sp2_Q", pair.gauge.cartan[0]))
        out += [pytest.param(w, pair.modes, id=f"{label}/{name}") for name, w in named]
    return out


class TestDiagonalWeights:
    @pytest.mark.parametrize("w,modes", _diagonal_generators())
    def test_agrees_with_the_operator_matrix_diagonal(self, w, modes):
        fock = fockspace.enumerate_basis(modes, 3)
        m = fockspace.operator_matrix(w, fock)
        columns = [m.apply({i: QI(1)}) for i in range(fock.dim)]
        assert all(set(col) <= {i} for i, col in enumerate(columns))
        oracle = [col.get(i, QI(0)).real_fraction() for i, col in enumerate(columns)]
        weights = fockspace.diagonal_weights(w, fock)
        assert all(type(x) is int for x in weights)
        assert weights == oracle

    @pytest.mark.parametrize("w,message", [
        (oscrep.so_star_generators(2).E[0], "not diagonal in the occupation basis"),
        (mono([("a", 1)], [("a", 1)], Fraction(1, 2)), "not a real integer"),
        (mono([("a", 1)], [("a", 1)], QI(0, 1)), "not a real integer"),
        (mono([("c", 1)], [("c", 1)]), "not part of this Fock module"),
    ], ids=["E1", "half-number", "imaginary-number", "mode-outside"])
    def test_rejects_what_is_not_an_integer_number_sum(self, w, message):
        modes = [("a", i) for i in range(1, 5)] + [("b", i) for i in range(1, 5)]
        fock = fockspace.enumerate_basis(modes, 1)
        with pytest.raises(fockspace.FockError, match=message):
            fockspace.diagonal_weights(w, fock)

    def test_decomposition_builds_only_the_off_diagonal_matrices(self):
        # four lowering operators and the gauge raising operator of so*(8)
        pair, fock = _so_star_setup(2, 2)
        calls = []
        original = fockspace.operator_matrix
        with mock.patch.object(fockspace, "operator_matrix",
                               lambda w, f: calls.append(w) or original(w, f)):
            fockspace.joint_weight_decomposition(pair, fock)
        assert calls == [pair.gauge.raising[0]]


def _so_star_setup(n, level):
    pair = fockspace.dual_pair("so_star", n)
    return pair, fockspace.enumerate_basis(pair.modes, level)


def _per_operator_lowest_weight_vectors(alg, fock):
    """Oracle: each lowering operator's operator_matrix columns re-stacked,
    the k-th operator's row r at k * dim + r, in blocks keyed by (level,
    diagonal_weights)."""
    stacked = [(k * fock.dim, fockspace.operator_matrix(f, fock).entries)
               for k, f in enumerate(alg.F)]
    h_diags = [fockspace.diagonal_weights(h, fock) for h in alg.H]
    blocks = {}
    for i in range(fock.dim):
        blocks.setdefault((fock.level(i), tuple(d[i] for d in h_diags)), []).append(i)
    out = {}
    for key, cols in sorted(blocks.items()):
        kern = linalg.kernel([{k + r: v for k, cm in stacked for r, v in cm[c].items()}
                              for c in cols])
        if kern:
            out[key] = [{cols[j]: x for j, x in v.items()} for v in kern]
    return out


def _lowest_weight_cases():
    out = []
    for label, family, k, levels in (("so*(8)", "so_star", 2, range(6)),
                                     ("so*(12)", "so_star", 3, range(4)),
                                     ("u(2,2)", "u_pq", 2, range(5))):
        pair = fockspace.dual_pair(family, k)
        out += [pytest.param(pair, level, id=f"{label}-level{level}") for level in levels]
    return out


class TestLowestWeightVectors:
    @pytest.mark.parametrize("pair,level", _lowest_weight_cases())
    def test_equals_the_per_operator_route(self, pair, level):
        fock = fockspace.enumerate_basis(pair.modes, level)
        got = fockspace.lowest_weight_vectors(pair.chevalley, fock)
        assert got == _per_operator_lowest_weight_vectors(pair.chevalley, fock)

    @pytest.mark.parametrize("family,k,level", [("so_star", 2, 4), ("u_pq", 2, 3)])
    def test_each_state_is_keyed_by_its_level_and_diagonal_weights(self, family, k, level):
        # the blocks reach linalg.kernel one by one, in key order, each as
        # its states' _column calls; every block must be one (level,
        # diagonal_weights) class, and together they cover every state once
        pair = fockspace.dual_pair(family, k)
        gens = pair.chevalley
        fock = fockspace.enumerate_basis(pair.modes, level)
        h_diags = [fockspace.diagonal_weights(h, fock) for h in gens.H]

        def key(i):
            return fock.level(i), tuple(d[i] for d in h_diags)

        cols, blocks = [], []
        column, kernel = fockspace._column, linalg.kernel
        with mock.patch.object(fockspace, "_column",
                               lambda t, f, c: cols.append(c) or column(t, f, c)), \
                mock.patch.object(linalg, "kernel",
                                  lambda vs: blocks.append(cols[-len(vs):]) or kernel(vs)):
            lw = fockspace.lowest_weight_vectors(gens, fock)
        assert sorted(c for block in blocks for c in block) == list(range(fock.dim))
        keys = []
        for block in blocks:
            (block_key,) = {key(i) for i in block}
            keys.append(block_key)
        assert keys == sorted(set(keys))
        for block_key, vecs in lw.items():
            assert all(key(i) == block_key for v in vecs for i in v)

    def test_builds_no_per_operator_column_map(self):
        pair, fock = _so_star_setup(2, 3)
        made = []
        original = linalg.ColumnMap
        with mock.patch.object(linalg, "ColumnMap", lambda op: made.append(op) or original(op)):
            fockspace.lowest_weight_vectors(pair.chevalley, fock)
        assert made == []

    @pytest.mark.parametrize("part,w,message", [
        ("H", oscrep.so_star_generators(2).E[0], "not diagonal in the occupation basis"),
        ("H", mono([("a", 1)], [("a", 1)], Fraction(1, 2)), "not a real integer"),
        ("F", mono([], [("c", 1)]), "mode .* is not part of this Fock module"),
    ], ids=["non-diagonal-cartan", "half-integer-cartan", "lowering-mode-outside"])
    def test_refuses_what_the_weight_blocks_cannot_read(self, part, w, message):
        pair, fock = _so_star_setup(2, 1)
        gens = pair.chevalley
        bad = replace(gens, **{part: [*getattr(gens, part)[:-1], w]})
        with pytest.raises(fockspace.FockError, match=message):
            fockspace.lowest_weight_vectors(bad, fock)


class TestDecomposition:
    def test_vacuum_weight(self):
        pair, fock = _so_star_setup(2, 0)
        table = fockspace.joint_weight_decomposition(pair, fock)
        rows = table.rows_at(0)
        assert len(rows) == 1
        assert rows[0].weight == (0, 0, 0, 2)
        assert rows[0].isospin_double == 0 and rows[0].multiplicity == 1

    def test_level_one_doublet_and_ladder(self):
        pair, fock = _so_star_setup(2, 1)
        table = fockspace.joint_weight_decomposition(pair, fock)
        rows = table.rows_at(1)
        assert len(rows) == 1 and rows[0].isospin_double == 1
        # the gauge raising maps b_j*|0> to a_j*|0> for every j
        vac = fock.index[(0,) * len(fock.modes)]
        e_mat = fockspace.operator_matrix(pair.gauge.raising[0], fock)
        k = 4
        for j in range(1, k + 1):
            b_state = fockspace.operator_matrix(mono([("b", j)], []), fock).apply({vac: QI(1)})
            a_state = fockspace.operator_matrix(mono([("a", j)], []), fock).apply({vac: QI(1)})
            assert e_mat.apply(b_state) == a_state

    def test_level_two_isotriplet(self):
        pair, fock = _so_star_setup(2, 2)
        table = fockspace.joint_weight_decomposition(pair, fock)
        rows = table.rows_at(2)
        assert [r.isospin_double for r in rows] == [2]
        lw = fockspace.lowest_weight_vectors(pair.chevalley, fock)
        level2 = {key: vs for key, vs in lw.items() if key[0] == 2}
        (key, vecs), = level2.items()
        # the triplet is spanned by a4*^2, a4*b4*, b4*^2 on the vacuum
        spans = set()
        for v in vecs:
            support = {fock.states[c] for c, x in v.items() if x}
            assert len(support) == 1
            spans.add(next(iter(support)))
        a4 = tuple(1 if m == ("a", 4) else 0 for m in fock.modes)
        b4 = tuple(1 if m == ("b", 4) else 0 for m in fock.modes)
        mixed = tuple(x + y for x, y in zip(a4, b4))
        expect = {tuple(2 * x for x in a4), tuple(2 * x for x in b4), mixed}
        assert spans == expect

    def test_weight_blocks_reach_rref_as_sparse_rows(self):
        # perfbench/layerkernels.py captures the matrices lowest_weight_vectors
        # hands to linalg.rref by patching that module attribute, and sizes
        # them by len(m) * len(m[0])
        pair, fock = _so_star_setup(2, 3)
        gens = pair.chevalley
        captured = []
        original = linalg.rref
        with mock.patch.object(linalg, "rref",
                               lambda m: captured.append(m) or original(m)):
            lw = fockspace.lowest_weight_vectors(gens, fock)
        assert captured
        for rows in captured:
            assert rows and all(row and all(row.values()) for row in rows)
        assert max(len(m) * len(m[0]) for m in captured) > 0
        assert lw == fockspace.lowest_weight_vectors(gens, fock)
        for vecs in lw.values():
            assert all(v and all(v.values()) for v in vecs)

    def test_raising_out_of_the_lowest_weight_space_is_refused(self):
        # a1* b4 raises the gauge charge by 2 like B's E, but does not
        # commute with so*(8), so it maps lowest-weight vectors out of the space
        pair, fock = _so_star_setup(2, 3)
        pair.__dict__["gauge"] = pair.gauge._replace(raising=(mono([("a", 1)], [("b", 4)]),))
        with pytest.raises(fockspace.FockError, match="leaves the lowest-weight space"):
            fockspace.joint_weight_decomposition(pair, fock)

    def test_gauge_of_higher_rank_is_refused(self):
        pair = fockspace.dual_pair("u_pq", 2, flavors=2)
        fock = fockspace.enumerate_basis(pair.modes, 1)
        with pytest.raises(fockspace.FockError, match="needs B of rank one"):
            fockspace.joint_weight_decomposition(pair, fock)

    def test_bookkeeping_identity_up_to_level_three(self):
        pair, fock = _so_star_setup(2, 3)
        table = fockspace.joint_weight_decomposition(pair, fock)
        lw = fockspace.lowest_weight_vectors(pair.chevalley, fock)
        assert table.lowest_weight == lw   # the table carries the vectors it used
        for level in range(4):
            total = sum(len(vs) for (lvl, _), vs in lw.items() if lvl == level)
            assert total == table.lw_dimension(level)
            assert all(r.multiplicity == 1 for r in table.rows_at(level))


class TestClosure:
    @pytest.mark.parametrize("family,k,flavors", [
        ("sp_real", 2, 1), ("sp_real", 2, 2),
        ("u_pq", 1, 1), ("u_pq", 1, 2),
        ("so_star", 1, 1), ("so_star", 1, 2),
    ])
    def test_families(self, family, k, flavors):
        rep = fockspace.truncated_closure_check(family, k, flavors, 0, None, None)
        assert rep.ok

    def test_u22_with_matrix_cross_check(self):
        rep = fockspace.truncated_closure_check("u_pq", 2, 2, 2, 40, None)
        assert rep.ok

    def test_a_corrupted_commutator_fails_the_matrix_cross_check(self, monkeypatch):
        # the symbolic side gains the identity, which is nonzero on every
        # safe column, so each matrix/pair record must fail
        def matrix_records(rep):
            return [r for r in rep.records if "/matrix/" in r.check_id]

        rep = fockspace.truncated_closure_check("so_star", 1, 1, 4, None, None)
        assert len(matrix_records(rep)) == 6 and rep.ok
        real = fockspace.commutator
        monkeypatch.setattr(fockspace, "commutator",
                            lambda x, y: real(x, y) + WeylElement.scalar(1))
        rep = fockspace.truncated_closure_check("so_star", 1, 1, 4, None, None)
        records = matrix_records(rep)
        assert len(records) == 6 and not any(r.passed for r in records)
        # each defect is the identity taken off: -1 on the diagonal of every
        # safe column, starting at the vacuum
        assert all(r.defect.startswith("(-1) (0, 0)") for r in records)

    @pytest.mark.parametrize("family,k,flavors", [
        ("sp_real", 1, 3), ("sp_real", 2, 2), ("u_pq", 2, 2), ("so_star", 1, 2),
    ])
    def test_cross_check_basis_size(self, family, k, flavors):
        elems = fockspace.dual_pair(family, k).a_span
        modes = {m for e in elems for m in fockspace.flavor_sum(e, flavors).modes()}
        want = fockspace.enumerate_basis(sorted(modes), 2).dim
        assert fockspace.cross_check_basis_size(family, k, flavors, 2) == want

    def test_self_commutator_trivial(self):
        v = fockspace.flavor_sum(fockspace.dual_pair("sp_real", 2).a_span[0], 1)
        br = commutator(v, v)
        assert br.is_zero()

    def test_central_charge_equals_flavor_count(self):
        for flavors in (1, 2):
            pair = fockspace.dual_pair("sp_real", 1)
            elems = pair.a_span
            flav = [fockspace.flavor_sum(e, flavors) for e in elems]
            blocks = [fockspace.quadratic_blocks(e, pair.modes)[1:] for e in elems]
            found = []
            for s in range(len(elems)):
                for t in range(len(elems)):
                    omega = fockspace.central_pairing(blocks[s], blocks[t])
                    if omega:
                        scalar = commutator(flav[s], flav[t]).scalar_part()
                        found.append(scalar / omega)
            assert found and all(c == flavors for c in found)

    def test_blocks_and_pairings_are_computed_once(self, monkeypatch):
        # one so*(4) check builds each bilinear's blocks once and pairs
        # each pair once, for both the keep set and the central record
        calls = {"blocks": 0, "pairing": 0}
        blocks, pairing = fockspace.quadratic_blocks, fockspace.central_pairing

        def counted_blocks(*args):
            calls["blocks"] += 1
            return blocks(*args)

        def counted_pairing(*args):
            calls["pairing"] += 1
            return pairing(*args)

        monkeypatch.setattr(fockspace, "quadratic_blocks", counted_blocks)
        monkeypatch.setattr(fockspace, "central_pairing", counted_pairing)
        n = len(fockspace.dual_pair("so_star", 1).a_span)
        rep = fockspace.truncated_closure_check("so_star", 1, 1, 0, 10, None)
        assert rep.ok
        assert calls == {"blocks": n, "pairing": n * (n + 1) // 2}

    def test_structure_fails_span_errors_and_raises_breaches(self):
        modes, pol = [("a", 1), ("a", 2)], standard_polarization(2)
        spec = oscrep.form_spec("u_pq", 1)
        # a cross-flavor quadratic leaves the flavor-diagonal span: a failed check
        cross = WeylElement.monomial([("a", 1, 1)], [("a", 2, 1)])
        assert fockspace._closure_structure(cross, "u_pq", 2, modes, pol, spec) == (False, False)
        # a matrix entry outside the u(1,1) form's 2 x 2 is an internal
        # breach, which matrix_membership raises
        quad = WeylElement.monomial([("a", 1, 1), ("b", 1, 1)], [])
        with pytest.raises(oscrep.AlgebraError, match="does not match the u_pq form"):
            fockspace._closure_structure(quad, "u_pq", 1, modes, pol, spec)

    @pytest.mark.parametrize("family,k", [("so_star", 1), ("u_pq", 2)])
    @pytest.mark.parametrize("creators,annihilators", [
        ([], [("a", 1, 1), ("a", 1, 2)]), ([("b", 1, 1), ("b", 1, 2)], []),
    ], ids=["a1a2", "b1*b2*"])
    def test_stray_quadratic_is_not_inside_the_algebra(self, family, k, creators,
                                                       annihilators):
        # a1 a2 and b1* b2* of flavor 1 are no phi~ X phi, so a commutator
        # carrying one must not pass as a member of the algebra
        pair = fockspace.dual_pair(family, k)
        stray = mono(creators, annihilators)
        got = fockspace._closure_structure(stray, family, 1, pair.modes, pair.polarization,
                                           pair.spec)
        assert got != (True, True)


def _gauge_generators_oracle(family: str, k: int, flavors: int) -> list:
    """The flavor gauge generators as written before the dual-pair
    constructor, always in flavored modes: i E_ff and the real and
    imaginary parts of E_fg for u(N), and the doubled diagonal S_ff for
    sp(2N).  They span the same complex space as the pair's B."""
    flavored = fockspace._flavored
    out = []
    if family == "sp_real":
        modes = [("c", i) for i in range(1, k + 1)]
        for f in range(1, flavors + 1):
            for g in range(f + 1, flavors + 1):
                el = WeylElement.zero()
                for m in modes:
                    el = el + mono([flavored(m, f)], [flavored(m, g)]) \
                        - mono([flavored(m, g)], [flavored(m, f)])
                out.append(el)
        return out
    if family == "u_pq":
        a_modes = [("a", i) for i in range(1, k + 1)]
        b_modes = [("b", i) for i in range(1, k + 1)]

        def add_gen(f, g, c):
            el = WeylElement.zero()
            for m in a_modes:
                el = el + mono([flavored(m, f)], [flavored(m, g)], c)
                if f != g:
                    el = el - mono([flavored(m, g)], [flavored(m, f)], c.conj())
            for m in b_modes:
                el = el + mono([flavored(m, f)], [flavored(m, g)], c.conj())
                if f != g:
                    el = el - mono([flavored(m, g)], [flavored(m, f)], c)
            out.append(el)

        for f in range(1, flavors + 1):
            add_gen(f, f, QI(0, 1))
        for f in range(1, flavors + 1):
            for g in range(f + 1, flavors + 1):
                add_gen(f, g, QI(1))
                add_gen(f, g, QI(0, 1))
        return out
    a_modes = [("a", i) for i in range(1, 2 * k + 1)]
    b_modes = [("b", i) for i in range(1, 2 * k + 1)]
    for f in range(1, flavors + 1):
        for g in range(1, flavors + 1):
            el = WeylElement.zero()
            for am, bm in zip(a_modes, b_modes):
                el = el + mono([flavored(am, f)], [flavored(am, g)]) \
                    - mono([flavored(bm, g)], [flavored(bm, f)])
            out.append(el)
    for f in range(1, flavors + 1):
        for g in range(f, flavors + 1):
            e_el = WeylElement.zero()
            f_el = WeylElement.zero()
            for am, bm in zip(a_modes, b_modes):
                e_el = e_el + mono([flavored(am, f)], [flavored(bm, g)]) \
                    + mono([flavored(am, g)], [flavored(bm, f)])
                f_el = f_el + mono([flavored(bm, f)], [flavored(am, g)]) \
                    + mono([flavored(bm, g)], [flavored(am, f)])
            out.append(e_el)
            out.append(f_el)
    return out


def _weyl_rank(elements) -> int:
    """Rank of the elements over Q(i), with their Weyl terms as coordinates."""
    return linalg.rank([w.terms for w in elements])


def _acting_span(pair) -> list:
    """A's span as it acts on the pair's flavors, in the modes B is written
    in: the span itself for one flavor, its flavor sums otherwise."""
    if pair.flavors == 1:
        return pair.a_span
    return [fockspace.flavor_sum(e, pair.flavors) for e in pair.a_span]


_GAUGE_DIMENSION = {"sp_real": lambda n: n * (n - 1) // 2,    # o(N)
                    "u_pq": lambda n: n * n,                  # u(N)
                    "so_star": lambda n: 2 * n * n + n}       # sp(2N)

_FAMILIES_K_FLAVORS = [(family, k, flavors) for family in ("sp_real", "u_pq", "so_star")
                       for k in (1, 2) for flavors in (1, 2, 3)]


class TestGaugeAction:
    @pytest.mark.parametrize("family,k,flavors,count", [
        ("sp_real", 2, 2, 1),      # o(2)
        ("u_pq", 1, 2, 4),         # u(2)
        ("u_pq", 2, 2, 4),
        ("so_star", 1, 2, 10),     # sp(4) compact
    ])
    def test_gauge_commutes_with_bilinears(self, family, k, flavors, count):
        pair = fockspace.dual_pair(family, k, flavors)
        flav = [fockspace.flavor_sum(e, flavors) for e in pair.a_span]
        gauge = pair.gauge.span
        assert len(gauge) == count
        for g in gauge:
            for v in flav:
                assert commutator(g, v).is_zero()

    def test_gauge_matrix_action_at_low_level(self):
        pair = fockspace.dual_pair("u_pq", 1, 2)
        flav = [fockspace.flavor_sum(e, 2) for e in pair.a_span]
        gauge = list(pair.gauge.span)
        all_modes = sorted({m for w in flav + gauge for m in w.modes()})
        fock = fockspace.enumerate_basis(all_modes, 3)
        for g in gauge[:2]:
            mg = fockspace.operator_matrix(g, fock)
            for v in flav[:3]:
                mv = fockspace.operator_matrix(v, fock)
                for c in fockspace.safe_columns(fock, mg.level_raise, mv.level_raise):
                    e = {c: QI(1)}
                    assert mg.apply(mv.apply(e)) == mv.apply(mg.apply(e))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_one_flavor_sp2_is_the_triple(self, k):
        # E = sum_i a_i* b_i, F = E*, Q = [E, F], the so*(4k) set's charge
        modes = range(1, 2 * k + 1)
        e = sum((mono([("a", i)], [("b", i)]) for i in modes), WeylElement.zero())
        f = sum((mono([("b", i)], [("a", i)]) for i in modes), WeylElement.zero())
        q = commutator(e, f)
        gauge = fockspace.dual_pair("so_star", k).gauge
        assert gauge.span == (e, f, q)
        assert gauge.cartan == (q,) and gauge.raising == (e,)
        assert q == oscrep.so_star_generators(k).extras["Q"]
        assert commutator(q, e) == e.scale(2) and commutator(q, f) == f.scale(-2)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_one_flavor_u1_is_the_charge(self, k):
        gauge = fockspace.dual_pair("u_pq", k).gauge
        assert gauge.span == gauge.cartan == (oscrep.unn_generators(k).extras["Q"],)
        assert gauge.raising == ()
        if k == 2:
            assert gauge.span == (oscrep.su22_generators().extras["h"],)

    @pytest.mark.parametrize("family,k,flavors", _FAMILIES_K_FLAVORS)
    def test_gauge_dimension_and_commutant(self, family, k, flavors):
        pair = fockspace.dual_pair(family, k, flavors)
        gauge = pair.gauge.span
        assert len(gauge) == _weyl_rank(gauge) == _GAUGE_DIMENSION[family](flavors)
        for g in gauge:
            for v in _acting_span(pair):
                assert commutator(g, v).is_zero()

    @pytest.mark.parametrize("family,k,flavors", _FAMILIES_K_FLAVORS)
    def test_gauge_spans_the_oracle_space(self, family, k, flavors):
        gauge = list(fockspace.dual_pair(family, k, flavors).gauge.span)
        oracle = _gauge_generators_oracle(family, k, flavors)
        if flavors == 1:   # the pair writes one flavor's B without the flavor index
            oracle = [fockspace._flavor_parts(w, 1)[0] for w in oracle]
        assert _weyl_rank(gauge) == _weyl_rank(oracle) == _weyl_rank(gauge + oracle)

    @pytest.mark.parametrize("family,k,flavors", [
        ("u_pq", 1, 2), ("u_pq", 2, 3), ("so_star", 1, 2), ("so_star", 2, 3),
    ])
    def test_negative_control_one_mode_number_operator(self, family, k, flavors):
        gauge = fockspace.dual_pair(family, k, flavors).gauge
        bad = mono([("a", 1, 1)], [("a", 1, 1)])
        assert any(not commutator(bad, g).is_zero() for g in gauge.span)

    @pytest.mark.parametrize("family", ["u_pq", "so_star"])
    def test_raising_operators_are_positive_root_vectors(self, family):
        # each raising operator lies in the span and is a joint eigenvector of
        # the commuting Cartan operators whose first nonzero weight is positive
        gauge = fockspace.dual_pair(family, 1, 3).gauge
        assert _weyl_rank(gauge.span + gauge.cartan + gauge.raising) == len(gauge.span)
        assert all(commutator(h, g).is_zero() for h in gauge.cartan for g in gauge.cartan)
        for e in gauge.raising:
            weight = [oscrep.scalar_ratio(commutator(h, e), e) for h in gauge.cartan]
            assert None not in weight
            assert next(x for x in weight if x).real_fraction() > 0

    def test_sp2n_invariant_raises(self, monkeypatch):
        # [S_ff, S_ff*] = E_ff is checked by raising, so it also holds under -O
        monkeypatch.setattr(fockspace, "commutator", lambda x, y: WeylElement.zero())
        with pytest.raises(oscrep.AlgebraError, match="generator invariant"):
            fockspace.dual_pair("so_star", 1).gauge

    def test_unknown_family_is_refused(self):
        with pytest.raises(fockspace.FockError, match="unknown dual-pair family"):
            fockspace.dual_pair("so_odd", 1)


def conj_transpose_weighted(m: fockspace.SparseOperator) -> fockspace.SparseOperator:
    """W^-1 t(conj M) W with W the diagonal of norm weights prod n_i!."""
    f = m.fock
    weight = [prod(map(factorial, s)) for s in f.states]
    out = {c: {} for c in range(f.dim)}
    for c in range(f.dim):
        for r, v in m.entries[c].items():
            out[r][c] = QI.of(v).conj() * QI(Fraction(weight[r], weight[c]))
    return fockspace.SparseOperator(out, -m.level_raise, f)


class TestAdjointness:
    def test_weighted_transpose_oracle(self):
        rng = random.Random(13)
        modes = [("a", 1), ("a", 2), ("b", 1)]
        fock = fockspace.enumerate_basis(modes, 3)
        for _ in range(10):
            cre = [modes[rng.randrange(3)] for _ in range(rng.randrange(3))]
            ann = [modes[rng.randrange(3)] for _ in range(rng.randrange(3))]
            w = WeylElement.monomial(cre, ann,
                                     QI(Fraction(rng.randint(1, 3)), Fraction(rng.randint(-2, 2))))
            m = fockspace.operator_matrix(w, fock)
            ma = fockspace.operator_matrix(w.adjoint(), fock)
            oracle = conj_transpose_weighted(m)
            for c in fockspace.safe_columns(fock, len(cre) + len(ann)):
                assert ma.apply({c: QI(1)}) == oracle.apply({c: QI(1)})


def _dense(m: fockspace.SparseOperator) -> list:
    n = m.fock.dim
    out = [[QI(0)] * n for _ in range(n)]
    for c in range(n):
        for r, v in m.entries[c].items():
            out[r][c] = v
    return out


def _matrix_bracket(a, b):
    """The dense commutator ab - ba, the oracle of the column bracket."""
    return [[x - y for x, y in zip(r, s)]
            for r, s in zip(linalg.mat_mul(a, b), linalg.mat_mul(b, a))]


class TestBracketDefect:
    """linalg.bracket_defect on Fock columns against dense matrix products."""

    def test_bracket_defect_equals_the_matrix_products(self):
        rng = random.Random(31)
        modes = [("a", 1), ("a", 2), ("b", 1)]
        fock = fockspace.enumerate_basis(modes, 4)

        def element():
            w = WeylElement.zero()
            for _ in range(2):
                cre = [modes[rng.randrange(3)] for _ in range(rng.randrange(3))]
                ann = [modes[rng.randrange(3)] for _ in range(rng.randrange(3))]
                w = w + WeylElement.monomial(
                    cre, ann, QI(Fraction(rng.randint(1, 3)), Fraction(rng.randint(-2, 2))))
            return w

        compared = 0
        for _ in range(8):
            x, y = element(), element()
            mx, my = fockspace.operator_matrix(x, fock), fockspace.operator_matrix(y, fock)
            mz = fockspace.operator_matrix(commutator(x, y), fock)
            xs, ys, zs = mx.entries, my.entries, mz.entries
            br = _matrix_bracket(_dense(mx), _dense(my))
            every = range(fock.dim)
            want = {(c, r): br[r][c] for c in every for r in every if br[r][c]}
            zero = fockspace.operator_matrix(WeylElement.zero(), fock).entries
            assert linalg.bracket_defect(xs, ys, every, zero) == want
            cols = fockspace.safe_columns(fock, mx.level_raise, my.level_raise)
            # on the safe columns the truncated product is the operator product
            assert not linalg.bracket_defect(xs, ys, cols, zs)
            safe = set(cols)
            on_cols = {(c, r): v for (c, r), v in want.items() if c in safe}
            twice = fockspace.operator_matrix(commutator(x, y).scale(2), fock).entries
            assert linalg.bracket_defect(xs, ys, cols, twice) == \
                {key: -v for key, v in on_cols.items()}
            compared += bool(on_cols)
        assert compared >= 4

    def test_entries_form_a_column_on_its_first_read(self):
        fock = fockspace.enumerate_basis([("a", 1)], 2)
        m = fockspace.operator_matrix(WeylElement.monomial([], [("a", 1)]), fock)
        assert isinstance(m.entries, linalg.ColumnMap) and len(m.entries) == 0
        assert m.entries[0] == {} and list(m.entries) == [0]
        assert m.apply({2: QI(1)}) == {1: QI(2)} and list(m.entries) == [0, 2]
        # only the columns read so far are held, so the map has no truth value
        with pytest.raises(TypeError, match="read each column"):
            bool(m.entries)

    def test_symbolic_commutators_form_only_the_compared_columns(self, monkeypatch):
        # so*(8) at level 4 has 495 states; a sampled bilinear raises the
        # level by 0 or 2, so a pair keeps 495, 45 or 1 safe columns, and
        # each symbolic commutator forms those columns and no other
        seen = []
        bracket = linalg.bracket_defect

        def recorded(x, y, cols, z):
            out = bracket(x, y, cols, z)
            seen.append((list(cols), list(z)))
            return out

        monkeypatch.setattr(linalg, "bracket_defect", recorded)
        assert fockspace.truncated_closure_check("so_star", 2, 1, 4, None, None).ok
        assert all(formed == cols for cols, formed in seen)
        assert [len(cols) for cols, _ in seen] == [495, 45, 45, 45, 45, 1]
