import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from minrep import bilocal, linalg, reports
from minrep.bilocal import (TAlgebra, WickElement, bilocal_field, canonical_form_check,
                            commutant_type, frobenius, frobenius_property_check,
                            verify_commutator_formula, wick_commutator, wick_product)
from minrep.lincomb import combine
from minrep.scalars import QI


def field(m, p, q):
    """V_M(x_p, x_q) of a {(i, j): entry} label M."""
    return bilocal._field(m.items(), p, q)


def entries(rows):
    """A dense label, given as a list of rows, as {(i, j): entry} of its
    nonzero entries."""
    return {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row) if x}


def dense(m, size):
    """The size x size list of rows of a {(i, j): entry} label."""
    return [[m.get((i, j), QI(0)) for j in range(size)] for i in range(size)]


def transpose(m):
    return linalg.dict_transpose(m)


# ---------------------------------------------------------------------------
# Independent oracle: a one-at-a-time reordering engine.  Each field
# phi_f(x_k) is split into an annihilation half A_(k,f) and a creation half
# C_(k,f) with [A_(k,f), C_(l,g)] = delta_fg D+_{kl}; elements are kept as
# {(creation tuple, annihilation tuple, D-monomial): scalar}, the D-monomial
# a sorted tuple of (k, l) pairs, and products are normalized by bubbling
# annihilators to the right one swap at a time.
# The algorithm shares nothing with the matching enumeration in the engine.


class OracleElement:
    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    def __add__(self, other):
        t = dict(self.terms)
        for k, v in other.terms.items():
            s = t[k] + v if k in t else v
            if s:
                t[k] = s
            else:
                t.pop(k, None)
        return OracleElement(t)

    def __sub__(self, other):
        return self + OracleElement({k: -v for k, v in other.terms.items()})

    def __eq__(self, other):
        return self.terms == other.terms

    def is_zero(self):
        return not self.terms


def oracle_word(word, mono=(), coeff=1):
    """Normalize coeff D+_mono times a word of halves into an OracleElement
    by adjacent swaps."""
    # find an annihilator directly left of a creator
    for i in range(len(word) - 1):
        kind1, p1, f1 = word[i]
        kind2, p2, f2 = word[i + 1]
        if kind1 == "A" and kind2 == "C":
            swapped = list(word)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            out = oracle_word(swapped, mono, coeff)
            if f1 == f2:
                contracted = list(word[:i]) + list(word[i + 2:])
                out = out + oracle_word(contracted, tuple(sorted(mono + ((p1, p2),))),
                                        coeff)
            return out
    cre = tuple(sorted((p, f) for k, p, f in word if k == "C"))
    ann = tuple(sorted((p, f) for k, p, f in word if k == "A"))
    return OracleElement({(cre, ann, mono): coeff})


def oracle_from_wick(w: WickElement) -> OracleElement:
    """Expand each normal product :phi...: into (C+A) halves, normal ordered."""
    out = OracleElement()
    for (fields, mono), coeff in w.terms.items():
        expansion = [[]]
        for (p, f) in fields:
            expansion = [word + [(kind, p, f)] for word in expansion
                         for kind in ("C", "A")]
        for word in expansion:
            # creators first: inside one normal product nothing contracts
            ordered = [t for t in word if t[0] == "C"] + [t for t in word if t[0] == "A"]
            out = out + oracle_word(ordered, mono, coeff)
    return out


def oracle_product(u: WickElement, v: WickElement) -> OracleElement:
    out = OracleElement()
    for (fa, ma), ca in u.terms.items():
        for (fb, mb), cb in v.terms.items():
            words_a = [[]]
            for (p, f) in fa:
                words_a = [w + [(k, p, f)] for w in words_a for k in ("C", "A")]
            words_b = [[]]
            for (p, f) in fb:
                words_b = [w + [(k, p, f)] for w in words_b for k in ("C", "A")]
            for wa in words_a:
                wa_sorted = [t for t in wa if t[0] == "C"] + [t for t in wa if t[0] == "A"]
                for wb in words_b:
                    wb_sorted = [t for t in wb if t[0] == "C"] + [t for t in wb if t[0] == "A"]
                    out = out + oracle_word(wa_sorted + wb_sorted,
                                            tuple(sorted(ma + mb)), ca * cb)
    return out


def wick(fields, mono=(), c=1) -> WickElement:
    """The one-term element c D+_mono :fields:."""
    return WickElement({(tuple(sorted(fields)), tuple(sorted(mono))): QI.of(c)})


class TestEngineAgainstOracle:
    def test_single_fields(self):
        got = wick_commutator(wick([(1, 1)]), wick([(2, 1)]))
        assert got == WickElement({((), ((1, 2),)): QI(1), ((), ((2, 1),)): QI(-1)})

    def test_distinct_flavors_commute(self):
        assert wick_commutator(wick([(1, 1)]), wick([(2, 2)])).is_zero()

    def test_disjoint_flavor_bilinears_form_no_coefficient_product(self, monkeypatch):
        # no term of u shares a flavor with a term of v, so no pair of terms
        # is visited and none of their coefficients is multiplied; the
        # coefficient products are summed in ints by sum_products, never built
        # as QI products
        m = {(0, 0): QI(1), (0, 1): QI(2, 1)}             # flavor 1 with 1, 2
        mp = {(2, 2): QI(-3)}                               # flavor 3 with 3
        u, v = field(m, 1, 2), field(mp, 3, 4)
        w = field(transpose(m), 3, 4)
        visited, products, qi_products = [], [], []
        kernel, original = bilocal.sum_products, QI.__mul__
        contractions = bilocal._contractions

        def counting_kernel(items):
            items = list(items)
            products.extend(items)
            return kernel(items)
        monkeypatch.setattr(bilocal, "sum_products", counting_kernel)
        monkeypatch.setattr(bilocal, "_contractions",
                            lambda a, b: visited.append(1) or contractions(a, b))
        monkeypatch.setattr(QI, "__mul__", lambda a, b: qi_products.append(1) or original(a, b))
        assert wick_commutator(u, v).is_zero()
        assert visited == [] and products == []
        assert not wick_commutator(u, w).is_zero()
        assert visited and products
        assert qi_products == []

    def test_contraction_cache_is_bounded_and_changes_no_result(self):
        rng = random.Random(3)
        m, mp = (entries([[QI(rng.randint(-5, 5), rng.randint(-2, 2)) for _ in range(3)]
                          for _ in range(3)]) for _ in range(2))
        u, v = field(m, 1, 2), field(mp, 1, 3)
        bilocal._contractions.cache_clear()
        cold = wick_commutator(u, v), wick_product(u, v), wick_product(v, u)
        assert bilocal._contractions.cache_info().currsize > 0
        warm = wick_commutator(u, v), wick_product(u, v), wick_product(v, u)
        assert bilocal._contractions.cache_info().hits > 0
        assert cold == warm
        assert cold[0] == cold[1] - cold[2] and not cold[0].is_zero()
        assert bilocal._contractions.cache_info().maxsize == bilocal._CONTRACTION_CACHE_SIZE
        assert isinstance(bilocal._CONTRACTION_CACHE_SIZE, int)

    def test_the_transpose_leaves_the_coefficient_monomial_alone(self):
        # [D+_31 phi_1(x_1), phi_1(x_3)] = D+_31 D+_13 - D+_31 D+_31; a transpose
        # of the whole monomial D+_31 D+_13 would give 0
        u, v = wick([(1, 1)], [(3, 1)]), wick([(3, 1)])
        want = WickElement({((), ((1, 3), (3, 1))): QI(1), ((), ((3, 1), (3, 1))): QI(-1)})
        assert wick_commutator(u, v) == want == wick_product(u, v) - wick_product(v, u)

    def test_transpose_cache_is_bounded_and_changes_no_result(self):
        rng = random.Random(3)
        m, mp = (entries([[QI(rng.randint(-5, 5), rng.randint(-2, 2)) for _ in range(3)]
                          for _ in range(3)]) for _ in range(2))
        u, v = field(m, 1, 2), field(mp, 1, 3)
        bilocal._transposed.cache_clear()
        cold = wick_commutator(u, v)
        assert bilocal._transposed.cache_info().currsize > 0
        warm = wick_commutator(u, v)
        assert bilocal._transposed.cache_info().hits > 0
        assert cold == warm == wick_product(u, v) - wick_product(v, u)
        assert not cold.is_zero()
        assert bilocal._transposed.cache_info().maxsize == bilocal._TRANSPOSE_CACHE_SIZE
        assert isinstance(bilocal._TRANSPOSE_CACHE_SIZE, int)

    def test_products_match_oracle_on_pairs(self):
        u, v = wick([(1, 1), (2, 1)]), wick([(3, 1), (4, 1)])
        assert oracle_product(u, v) == oracle_from_wick(wick_product(u, v))

    def test_commutator_matches_oracle_single_flavor(self):
        u, v = wick([(1, 1), (2, 1)]), wick([(3, 1), (4, 1)])
        lhs = oracle_product(u, v) - oracle_product(v, u)
        rhs = oracle_from_wick(wick_commutator(u, v))
        assert lhs == rhs

    def test_commutator_matches_oracle_random(self):
        rng = random.Random(99)
        for _ in range(6):
            fa = [(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(2)]
            fb = [(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(2)]
            u, v = wick(fa), wick(fb)
            assert oracle_product(u, v) == oracle_from_wick(wick_product(u, v))

    def test_explicit_four_point_structure(self):
        u, v = wick([(1, 1), (2, 1)]), wick([(3, 1), (4, 1)])
        got = wick_commutator(u, v)
        # D_kl = D+_kl - D+_lk on each single contraction, and the double
        # contractions DD_{12,34} + DD_{12,43} on the empty normal product
        want = WickElement({
            (((2, 1), (4, 1)), ((1, 3),)): QI(1), (((2, 1), (4, 1)), ((3, 1),)): QI(-1),
            (((1, 1), (3, 1)), ((2, 4),)): QI(1), (((1, 1), (3, 1)), ((4, 2),)): QI(-1),
            (((1, 1), (4, 1)), ((2, 3),)): QI(1), (((1, 1), (4, 1)), ((3, 2),)): QI(-1),
            (((2, 1), (3, 1)), ((1, 4),)): QI(1), (((2, 1), (3, 1)), ((4, 1),)): QI(-1),
            ((), ((1, 3), (2, 4))): QI(1), ((), ((3, 1), (4, 2))): QI(-1),
            ((), ((1, 4), (2, 3))): QI(1), ((), ((3, 2), (4, 1))): QI(-1),
        })
        assert got == want


    def test_real_coefficients_print_and_hash_as_fractions(self):
        terms = {(((1, 1), (3, 1)), ((2, 4),)): Fraction(-3, 4)}
        w = WickElement(terms)
        assert str(w) == "(-3/4)*D24 :phi1(x1)phi1(x3):"
        assert hash(w) == hash(frozenset(terms.items()))
        assert w == WickElement(dict(terms))


# ---------------------------------------------------------------------------
# Property tests of the engine on random multi-term elements: up to six
# terms, each a non-integer coefficient times a monomial of up to two
# contractions times a normal product of 1-3 fields at points 1-4 with
# flavors 1-2.  The profile is fixed and derandomized, so every run checks
# the same examples.


def _engine_profile(max_examples):
    hypothesis = pytest.importorskip("hypothesis")
    return hypothesis, hypothesis.settings(
        derandomize=True, database=None, deadline=None, max_examples=max_examples,
        suppress_health_check=[hypothesis.HealthCheck.too_slow])


def _wick_elements(st, max_terms, max_fields, flavors=2, scalars=None):
    points = st.integers(1, 4)
    field = st.tuples(points, st.integers(1, flavors))
    fields = st.lists(field, min_size=1, max_size=max_fields).map(lambda fs: tuple(sorted(fs)))
    mono = st.lists(st.tuples(points, points), max_size=2).map(lambda ps: tuple(sorted(ps)))
    halves = st.builds(Fraction, st.sampled_from([-5, -3, -1, 1, 3, 5]),
                       st.sampled_from([2, 4]))
    return st.dictionaries(st.tuples(fields, mono), halves if scalars is None else scalars,
                           min_size=1, max_size=max_terms).map(WickElement)


def test_wick_product_matches_oracle_on_random_elements():
    hypothesis, profile = _engine_profile(60)
    elems = _wick_elements(hypothesis.strategies, max_terms=6, max_fields=3)

    @profile
    @hypothesis.given(elems, elems)
    def check(u, v):
        assert oracle_from_wick(wick_product(u, v)) == oracle_product(u, v)

    check()


def test_wick_product_is_associative():
    hypothesis, profile = _engine_profile(60)
    elems = _wick_elements(hypothesis.strategies, max_terms=4, max_fields=2)

    @profile
    @hypothesis.given(elems, elems, elems)
    def check(u, v, w):
        assert wick_product(wick_product(u, v), w) == wick_product(u, wick_product(v, w))

    check()


def test_wick_commutator_is_the_difference_of_the_products():
    # Both sides draw points 1-4 with 1-3 flavors, so fields repeat within a
    # normal product and u and v share points, which makes D+_{kk} appear;
    # coefficients are QI with a non-integer real and imaginary part.
    hypothesis, profile = _engine_profile(80)
    st = hypothesis.strategies
    odd = st.sampled_from([-5, -3, -1, 1, 3, 5])
    gaussian = st.builds(lambda a, b: QI(Fraction(a, 2), Fraction(b, 3)), odd, odd)

    def pair(flavors):
        elems = _wick_elements(st, max_terms=6, max_fields=3, flavors=flavors,
                               scalars=gaussian)
        return st.tuples(elems, elems)

    @profile
    @hypothesis.given(st.integers(1, 3).flatmap(pair))
    def check(uv):
        u, v = uv
        assert wick_commutator(u, v) == wick_product(u, v) - wick_product(v, u)

    check()


class TestBilocalFields:
    def test_identity_matrix_gives_flavor_sum(self):
        v = field(bilocal.unit_matrix(3), 1, 2)
        assert set(v.terms) == {(((1, i), (2, i)), ()) for i in range(1, 4)}

    def test_zero_matrix(self):
        assert field({(i, j): Fraction(0) for i in range(2) for j in range(2)}, 1, 2).is_zero()
        assert bilocal_field([[Fraction(0)] * 2 for _ in range(2)], 1, 2).is_zero()

    def test_entries_are_read_through_qi_of(self):
        # Fraction, int and QI labels of equal value give one field and one
        # commutator, and so does the dense label that the benchmark builds
        rng = random.Random(13)
        ints = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        labels = [{(i, j): kind(c) for i, row in enumerate(ints) for j, c in enumerate(row)}
                  for kind in (Fraction, int, QI)]
        fields = [field(m, 1, 2) for m in labels]
        brackets = [wick_commutator(f, field(m, 3, 4)) for f, m in zip(fields, labels)]
        assert fields[0] == fields[1] == fields[2] == bilocal_field(ints, 1, 2)
        assert brackets[0] == brackets[1] == brackets[2] and not brackets[0].is_zero()
        assert all(type(c) is QI for f in fields for c in f.terms.values())

    def test_transpose_point_swap_symmetry(self):
        rng = random.Random(21)
        for _ in range(8):
            m = {(i, j): Fraction(rng.randint(-5, 5)) for i in range(3) for j in range(3)}
            assert field(transpose(m), 2, 1) == field(m, 1, 2)

    def test_refuses_one_point_twice(self):
        # each entry of a label is its own term only at two distinct points
        with pytest.raises(ValueError, match="two distinct points"):
            field(bilocal.unit_matrix(2), 1, 1)
        with pytest.raises(ValueError, match="two distinct points"):
            bilocal_field([[QI(1)]], 3, 3)


class TestCommutatorFormula:
    def test_identity_labels(self):
        for size in (1, 2, 3, 4):
            m = bilocal.unit_matrix(size)
            assert verify_commutator_formula(m, m, size).ok

    def test_zero_label(self):
        m = bilocal.unit_matrix(2)
        z = {(i, j): Fraction(0) for i in range(2) for j in range(2)}
        lhs = wick_commutator(field(m, 1, 2), field(z, 3, 4))
        assert lhs.is_zero()
        assert verify_commutator_formula(m, z, 2).ok
        assert verify_commutator_formula(m, {}, 2).ok

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_seeded_random_labels(self, size):
        rng = random.Random(1000 + size)
        for _ in range(50):
            m = {(i, j): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                 for i in range(size) for j in range(size)}
            mp = {(i, j): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for i in range(size) for j in range(size)}
            assert verify_commutator_formula(m, mp, size).ok


    def test_transposed_rhs_detects_exactly_the_asymmetry(self):
        # the check-bilocal negative control: the closed form at tM' equals
        # the Wick commutator for symmetric M' and misses it otherwise
        rng = random.Random(5)
        m = {(i, j): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             for i in range(3) for j in range(3)}
        mp = {(i, j): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
              for i in range(3) for j in range(3)}
        sym = bilocal._sum((1, mp), (1, transpose(mp)))
        for label, fires in ((sym, False), (mp, True)):
            assert bilocal.misses_transposed_rhs(m, label, 3) is fires

    def test_transposed_rhs_fires_on_e12_and_not_on_e22(self):
        # the control's pair (E_11, E_12) fires at every size; the symmetric
        # pair (E_11, E_22) does not
        e11, e12, e22 = ({(a, b): QI(1)} for a, b in ((0, 0), (0, 1), (1, 1)))
        for size in range(2, 9):
            assert bilocal.misses_transposed_rhs(e11, e12, size)
            assert not bilocal.misses_transposed_rhs(e11, e22, size)

    def test_failing_record_renders_a_bounded_defect(self, monkeypatch):
        # the closed form taken at tM' misses the commutator of a non-symmetric
        # M'; the record shows the first terms of lhs - rhs and their count,
        # and a symmetric M' still passes with defect "0"
        items = bilocal._closed_form_items
        monkeypatch.setattr(bilocal, "_closed_form_items",
                            lambda a, b, size, w: items(a, transpose(b), size, w))
        rng = random.Random(8)
        for size in (2, 4, 8):
            m, mp = ({(i, j): QI(rng.randint(-9, 9)) / rng.randint(1, 4)
                      for i in range(size) for j in range(size)} for _ in range(2))
            mp[0, 1] = mp[1, 0] + 1
            rec, = verify_commutator_formula(m, mp, size).records
            lhs = wick_commutator(field(m, 1, 2), field(mp, 3, 4))
            defect = lhs - commutator_rhs_oracle(m, transpose(mp), size)
            shown = WickElement(dict(sorted(defect.terms.items())[:reports.DEFECT_TERMS]))
            assert not rec.passed
            assert len(defect.terms) > reports.DEFECT_TERMS
            assert rec.defect == f"{shown} + ... ({len(defect.terms)} terms)"
            assert len(rec.defect) < 400 < len(str(defect))
            sym, = verify_commutator_formula(m, bilocal._sum((1, mp), (1, transpose(mp))),
                                             size).records
            assert sym.passed and sym.defect == "0"
        # the transposed-rhs pair M = E_11, M' = E_12 at L = 2, term by term:
        # the closed form taken at tM' = E_21 contracts x_4 where the
        # commutator contracts x_3
        rec, = verify_commutator_formula(_elementary(0, 0), _elementary(0, 1), 2).records
        assert rec.defect == ("(-1)*D24 :phi1(x1)phi2(x3): + (1)*D42 :phi1(x1)phi2(x3): + "
                              "(1)*D23 :phi1(x1)phi2(x4): + (-1)*D32 :phi1(x1)phi2(x4): + "
                              "... (8 terms)")


# ---------------------------------------------------------------------------
# The closed form by dense matrix products, the route the index sums replaced


def dense_transpose(a):
    return [list(col) for col in zip(*a)]


def trace_product(a, b):
    """tr(ab) of dense a and b, as the full sum of a[i][k] * b[k][i]."""
    return sum((x * b[k][i] for i, row in enumerate(a) for k, x in enumerate(row)), QI(0))


def commutator_rhs_oracle(m, mp, size) -> WickElement:
    """The closed form of two size x size {(i, j): entry} labels, by dense
    matrix products."""
    m, mp = dense(m, size), dense(mp, size)
    tm = dense_transpose(m)
    tmp = dense_transpose(mp)
    out: dict = {}
    for label, p, q, (k, l) in ((linalg.mat_mul(tm, mp), 2, 4, (1, 3)),
                                (linalg.mat_mul(m, tmp), 1, 3, (2, 4)),
                                (linalg.mat_mul(m, mp), 1, 4, (2, 3)),
                                (linalg.mat_mul(mp, m), 3, 2, (1, 4))):
        for i, row in enumerate(label, start=1):
            for j, c in enumerate(row, start=1):
                if c:
                    c, fields = QI.of(c), tuple(sorted(((p, i), (q, j))))
                    combine((((fields, ((k, l),)), c), ((fields, ((l, k),)), -c)), out)
    # DD_{12,ij} = D+_1i D+_2j - D+_i1 D+_j2
    for (i, j), c in (((3, 4), trace_product(tm, mp)),
                      ((4, 3), trace_product(m, mp))):
        c = QI.of(c)
        combine(((((), ((1, i), (2, j))), c), (((), tuple(sorted(((i, 1), (j, 2))))), -c)),
                out)
    return WickElement(out)


def _random_label(rng, size, kind):
    """A size x size {(i, j): entry} label with about a third of its
    entries zero, which it leaves out."""
    def entry():
        if rng.random() < 0.3:
            return QI(0) if kind == "QI" else Fraction(0)
        if kind == "QI":
            return QI(Fraction(rng.randint(-9, 9), rng.randint(1, 4)), rng.randint(-3, 3))
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return entries([[entry() for _ in range(size)] for _ in range(size)])


def _elementary(a, b):
    return {(a, b): QI(1)}


def dense_closed_form_items(m, mp, w: int):
    """The closed form's sum_products items read off dense labels, each a
    list of rows: the index sums over the nonzero entries before the labels
    became dicts, the oracle of _closed_form_items."""
    size = len(m)
    rows = [[[(x, c) for x, c in enumerate(row) if c] for row in label] for label in (m, mp)]
    cols = [[[(x, row[s]) for x, row in enumerate(label) if row[s]] for s in range(size)]
            for label in (m, mp)]
    for (m_cols, mp_cols, *_), table in zip(bilocal._SINGLES, bilocal._single_keys(size)):
        for a_s, b_s in zip((cols if m_cols else rows)[0], (cols if mp_cols else rows)[1]):
            for x, a in a_s:
                for y, b in b_s:
                    yield table[x][y], a, b, w
    for x, row in enumerate(rows[0]):
        for y, a in row:
            for key, b in zip(bilocal._CENTRALS, (mp[x][y], mp[y][x])):
                if b:
                    yield key, a, b, w


# the D-monomials by which each of the six closed-form terms is told apart
_CLOSED_FORM_TERMS = {
    "D13": {((1, 3),), ((3, 1),)}, "D24": {((2, 4),), ((4, 2),)},
    "D23": {((2, 3),), ((3, 2),)}, "D14": {((1, 4),), ((4, 1),)},
    "DD34": {((1, 3), (2, 4)), ((3, 1), (4, 2))},
    "DD43": {((1, 4), (2, 3)), ((3, 2), (4, 1))},
}


class TestClosedForm:
    @pytest.mark.parametrize("kind", ["QI", "Fraction"])
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_matches_the_matrix_product_oracle(self, kind, size):
        rng = random.Random(size * 31 + len(kind))
        for _ in range(12):
            m, mp = _random_label(rng, size, kind), _random_label(rng, size, kind)
            assert bilocal.commutator_rhs(m, mp, size) == commutator_rhs_oracle(m, mp, size)
            if size > 1:
                mp[0, 1] = mp.get((1, 0), QI(0)) + 1
            tmp = transpose(mp)
            assert bilocal.commutator_rhs(m, tmp, size) == commutator_rhs_oracle(m, tmp, size)
        zero = {(i, j): Fraction(0) for i in range(size) for j in range(size)}
        assert bilocal.commutator_rhs(zero, zero, size).is_zero()
        assert bilocal.commutator_rhs(m, zero, size) == commutator_rhs_oracle(m, zero, size)

    @pytest.mark.parametrize("m,mp", [
        ({(0, 0): QI(1), (1, 2): QI(2)}, bilocal.unit_matrix(2)),      # column 2 in M
        (bilocal.unit_matrix(2), {(2, 0): QI(1)}),                     # row 2 in M'
        ({(-1, 0): QI(1)}, {(0, -1): QI(1)}),                          # negative indices
        (bilocal.unit_matrix(2), bilocal.unit_matrix(3)),              # M' is 3 x 3
    ])
    def test_refuses_a_label_pair_that_is_not_square_of_one_size(self, m, mp):
        # the labels are read at size 2, and the refusal comes before the
        # closed form's first item
        with pytest.raises(ValueError, match="outside 2 x 2"):
            next(bilocal._closed_form_items(m, mp, 2, 1))
        with pytest.raises(ValueError, match="outside 2 x 2"):
            bilocal.commutator_rhs(m, mp, 2)
        with pytest.raises(ValueError, match="outside 2 x 2"):
            verify_commutator_formula(m, mp, 2)

    @pytest.mark.parametrize("kind", ["QI", "Fraction"])
    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_items_match_the_dense_index_sums(self, kind, size):
        # the same products under the same keys as the index sums over dense
        # labels, also when M' is transposed or zero
        rng = random.Random(size * 37 + len(kind))
        for _ in range(12):
            m, mp = _random_label(rng, size, kind), _random_label(rng, size, kind)
            for right in (mp, transpose(mp), {}):
                for w in (1, -1):
                    got = Counter(bilocal._closed_form_items(m, right, size, w))
                    want = Counter(dense_closed_form_items(dense(m, size), dense(right, size), w))
                    assert got == want

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_items_match_the_dense_index_sums_on_elementary_pairs(self, size):
        units = [_elementary(a, b) for a in range(size) for b in range(size)]
        for e in units:
            for f in units:
                got = Counter(bilocal._closed_form_items(e, f, size, 1))
                assert got == Counter(dense_closed_form_items(dense(e, size), dense(f, size), 1))

    def test_one_kernel_call_and_no_linalg(self, monkeypatch):
        rng = random.Random(4)
        m, mp = _random_label(rng, 3, "QI"), _random_label(rng, 3, "QI")
        calls, kernel = [], bilocal.sum_products
        monkeypatch.setattr(bilocal, "sum_products",
                            lambda items: calls.append(1) or kernel(items))
        for name, f in vars(linalg).copy().items():
            if callable(f) and getattr(f, "__module__", None) == linalg.__name__:
                monkeypatch.setattr(linalg, name, _no_linalg(name))
        assert verify_commutator_formula(m, mp, 3).ok and calls == [1]
        assert not bilocal.commutator_rhs(m, mp, 3).is_zero() and calls == [1, 1]

    def test_the_wick_items_alone_do_not_cancel(self):
        rng = random.Random(6)
        m, mp = _random_label(rng, 3, "QI"), _random_label(rng, 3, "QI")
        pairs = bilocal._flavor_sharing_pairs(field(m, 1, 2), field(mp, 3, 4))
        assert bilocal.sum_products(bilocal._wick_items(pairs, True))
        assert verify_commutator_formula(m, mp, 3).ok

    def test_the_kernel_gets_one_item_per_contraction_set_and_product(self, monkeypatch):
        rng = random.Random(9)
        m, mp = _random_label(rng, 4, "QI"), _random_label(rng, 4, "QI")
        items, kernel = [], bilocal.sum_products
        monkeypatch.setattr(bilocal, "sum_products",
                            lambda it: items.extend(it) or kernel(items))
        assert verify_commutator_formula(m, mp, 4).ok
        # per pair of nonzero entries M_ab, M'_cd, the terms :phi_a phi_b: and
        # :phi_c phi_d: have one contraction set per flavor match, and the
        # closed form one product per matching index of its six terms
        want = Counter()
        for a, b, c, d in product(range(4), repeat=4):
            if (a, b) in m and (c, d) in mp:
                want.update(s for s, hit in (
                    (((1, 3),), a == c), (((2, 4),), b == d), (((2, 3),), b == c),
                    (((1, 4),), a == d), (((1, 3), (2, 4)), (a, b) == (c, d)),
                    (((1, 4), (2, 3)), (a, b) == (d, c))) if hit)
        # each item is keyed by the one pair's tag and its Wick key
        assert len({tag for (tag, _), *_ in items}) == 1
        for w in (1, -1):
            side = [key for (_, key), _, _, weight in items if weight == w]
            assert Counter(pairs for _, _, pairs in side) == want
            assert all(mono == () for _, mono, _ in side)
        assert sum(want.values()) * 2 == len(items)
        assert all(k in (1, 2) and l in (3, 4)
                   for (_, (_, _, pairs)), *_ in items for k, l in pairs)

    @pytest.mark.parametrize("control", ["transposed", *sorted(_CLOSED_FORM_TERMS)])
    def test_a_failing_defect_is_the_commutator_less_the_oracle(self, monkeypatch, control):
        rng = random.Random(6)
        m, mp = _random_label(rng, 3, "QI"), _random_label(rng, 3, "QI")
        u, v = field(m, 1, 2), field(mp, 3, 4)
        items = bilocal._closed_form_items
        if control == "transposed":
            rhs = commutator_rhs_oracle(m, transpose(mp), 3)
            monkeypatch.setattr(bilocal, "_closed_form_items",
                                lambda a, b, size, w: items(a, transpose(b), size, w))
        else:
            monos = _CLOSED_FORM_TERMS[control]
            rhs = WickElement({key: c for key, c in commutator_rhs_oracle(m, mp, 3).terms.items()
                               if key[1] not in monos})
            monkeypatch.setattr(bilocal, "_closed_form_items", lambda a, b, size, w: (
                item for item in items(a, b, size, w) if item[0][2] not in monos))
        want = wick_product(u, v) - wick_product(v, u) - rhs
        seen, grouped = [], bilocal._grouped
        monkeypatch.setattr(bilocal, "_grouped",
                            lambda totals, c: seen.append(grouped(totals, c)) or seen[-1])
        rec, = verify_commutator_formula(m, mp, 3).records
        assert seen == [want] and not want.is_zero()
        assert not rec.passed and rec.defect == want.render(reports.DEFECT_TERMS)

    @pytest.mark.parametrize("dropped", sorted(_CLOSED_FORM_TERMS))
    def test_dropping_any_closed_form_term_fails(self, monkeypatch, dropped):
        rng = random.Random(6)
        m, mp = _random_label(rng, 3, "QI"), _random_label(rng, 3, "QI")
        items, monos = bilocal._closed_form_items, _CLOSED_FORM_TERMS[dropped]
        monkeypatch.setattr(bilocal, "_closed_form_items", lambda a, b, size, w: (
            item for item in items(a, b, size, w) if item[0][2] not in monos))
        rec, = verify_commutator_formula(m, mp, 3).records
        assert not rec.passed and rec.defect != "0"

    def test_adding_the_closed_form_fails(self, monkeypatch):
        rng = random.Random(6)
        m, mp = _random_label(rng, 3, "QI"), _random_label(rng, 3, "QI")
        items = bilocal._closed_form_items
        monkeypatch.setattr(bilocal, "_closed_form_items",
                            lambda a, b, size, w: items(a, b, size, -w))
        rec, = verify_commutator_formula(m, mp, 3).records
        assert not rec.passed and rec.defect != "0"

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_formula_holds_on_every_pair_of_elementary_matrices(self, size):
        # both sides are bilinear in (M, M'), so passing on the E_ab x E_cd
        # basis proves the formula for every complex label pair of this size
        units = [_elementary(a, b) for a in range(size) for b in range(size)]
        checked = 0
        for e in units:
            for f in units:
                assert verify_commutator_formula(e, f, size).ok
                checked += 1
        assert checked == size ** 4


def _no_linalg(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"linalg.{name} called")
    return refuse


def dense_frobenius(m1, m2):
    """<M1, M2> of dense labels of one shape, as the full sum of M1_ij M2_ij."""
    return sum((x * y for r1, r2 in zip(m1, m2) for x, y in zip(r1, r2)), QI(0))


def dense_frobenius_property_check(m1, m2, m3) -> reports.Report:
    """frobenius_property_check on dense labels by linalg.mat_mul, the route
    before the labels became dicts."""
    rep = reports.Report("bilocal/frobenius")
    lhs = dense_frobenius(linalg.mat_mul(m1, m2), m3)
    rhs = dense_frobenius(m1, linalg.mat_mul(m3, dense_transpose(m2)))
    rep.add("frobenius/product-compatibility", lhs == rhs, detail=f"{lhs} vs {rhs}")
    rep.add("frobenius/symmetry", dense_frobenius(m1, m2) == dense_frobenius(m2, m1))
    sq = dense_frobenius(m1, m1)
    nonzero = any(c for row in m1 for c in row)
    rep.add("frobenius/positivity", sq.real_fraction() > 0 if nonzero else sq == 0,
            detail=f"<M,M> = {sq}")
    return rep


def _records(rep):
    return [(r.check_id, r.passed, r.detail, r.defect) for r in rep.records]


class TestFrobenius:
    def test_identity_pairing(self):
        assert frobenius(bilocal.unit_matrix(5), bilocal.unit_matrix(5)) == 5

    def test_matrix_unit(self):
        e12 = {(0, 1): Fraction(1), (1, 0): Fraction(0)}
        assert frobenius(e12, e12) == 1
        assert frobenius(e12, transpose(e12)) == 0

    def test_property_random_triples(self):
        rng = random.Random(17)
        for _ in range(50):
            ms = [{(i, j): QI(rng.randint(-6, 6)) / rng.randint(1, 3)
                   for i in range(3) for j in range(3)} for _ in range(3)]
            assert frobenius_property_check(*ms).ok

    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_matches_the_dense_mat_mul_route(self, size):
        # pairings equal those of dense labels, and the records of real
        # labels those of dense ones multiplied by mat_mul, on labels with
        # zero entries left out; positivity reads real labels only
        rng = random.Random(40 + size)
        for kind in ("QI", "Fraction"):
            for _ in range(10):
                ms = [_random_label(rng, size, kind) for _ in range(3)]
                ds = [dense(m, size) for m in ms]
                assert frobenius(ms[0], ms[1]) == dense_frobenius(ds[0], ds[1])
                assert frobenius(ms[1], ms[1]) == dense_frobenius(ds[1], ds[1])
                if kind == "Fraction":
                    assert _records(frobenius_property_check(*ms)) == \
                        _records(dense_frobenius_property_check(*ds))

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_matches_the_dense_mat_mul_route_on_elementary_labels(self, size):
        units = [_elementary(a, b) for a in range(size) for b in range(size)]
        for e in units:
            for f in units:
                want = dense_frobenius(dense(e, size), dense(f, size))
                assert frobenius(e, f) == want == (1 if e == f else 0)
                for g in (e, f, {}):
                    got = frobenius_property_check(e, f, g)
                    assert got.ok
                    assert _records(got) == _records(dense_frobenius_property_check(
                        dense(e, size), dense(f, size), dense(g, size)))


def _unit(size):
    return {(i, i): QI(1) for i in range(size)}


def _size(kind, n):
    return {"R": 1, "C": 2, "H": 4}[kind] * n


class TestCommutantClassification:
    def test_full_matrix_algebra_is_real_type(self):
        basis = []
        for a in range(2):
            for b in range(2):
                m = {(a, b): Fraction(1)}
                basis.append(m)
        kind, comm = commutant_type(TAlgebra(basis, 2))
        assert kind == "R" and len(comm) == 1

    def test_complex_scalars(self):
        kind, comm = commutant_type(TAlgebra(bilocal.canonical_m_span("C", 1), 2))
        assert kind == "C" and len(comm) == 2

    def test_quaternion_left_multiplications(self):
        basis = bilocal.quaternion_left_algebra(1)
        kind, comm = commutant_type(TAlgebra(basis, 4))
        assert kind == "H" and len(comm) == 4
        # the commutant of left multiplications contains the rights
        for q in bilocal._UNITS:
            assert linalg.in_span(comm, [bilocal.quaternion_matrix(q, "right")]) == [True]

    def test_reducible_split_field_detected(self):
        # Q(sqrt 2) embedded by a symmetric matrix: a t-algebra, a division
        # algebra over Q, but split over R; must be rejected as reducible.
        s = {(0, 0): Fraction(1), (0, 1): Fraction(1), (1, 0): Fraction(1),
             (1, 1): Fraction(-1)}
        basis = [_unit(2), s]
        with pytest.raises(bilocal.ReducibleAlgebraError):
            commutant_type(TAlgebra(basis, 2))

    def test_reducible_diagonal_detected(self):
        d = {(0, 0): Fraction(1), (1, 1): Fraction(2)}
        with pytest.raises(bilocal.ReducibleAlgebraError):
            commutant_type(TAlgebra([_unit(2), d], 2))

    def test_t_algebra_validation(self):
        e12 = {(0, 1): Fraction(1)}
        with pytest.raises(ValueError):
            TAlgebra([_unit(2), e12], 2)  # not transpose closed


class TestEntriesOutsideTheSize:
    """An entry outside size x size is refused, not dropped."""

    def test_commutant_basis_refuses_an_entry_outside_the_size(self):
        e = {(0, 1): QI(1), (1, 0): QI(1)}
        assert len(bilocal.commutant_basis([e], 2)) == 2
        with pytest.raises(ValueError, match="outside 2 x 2"):
            bilocal.commutant_basis([{**e, (0, 2): QI(7)}], 2)

    def test_invariance_algebra_refuses_an_entry_outside_the_size(self):
        one = _unit(2)
        assert len(bilocal.invariance_algebra([one], 2)) == 1
        with pytest.raises(ValueError, match="outside 2 x 2"):
            bilocal.invariance_algebra([{**one, (2, 0): QI(5), (2, 1): QI(5)}], 2)

    @pytest.mark.parametrize("entry", [(0, 2), (2, 0), (-1, 0), (0, -1)])
    def test_t_algebra_refuses_an_entry_outside_the_size(self, entry):
        basis = bilocal.canonical_m_span("C", 1)
        TAlgebra(basis, 2)
        with pytest.raises(ValueError, match="outside 2 x 2"):
            TAlgebra([basis[0], {**basis[1], entry: QI(3)}], 2)


class TestCanonicalForms:
    @pytest.mark.parametrize("kind,n", [("R", 1), ("R", 2), ("C", 1), ("C", 2),
                                        ("H", 1), ("H", 2), ("R", 3), ("R", 4),
                                        ("C", 3), ("C", 4), ("H", 3), ("H", 4)])
    def test_closure_and_gauge_invariance(self, kind, n):
        assert canonical_form_check(kind, n).ok

    def test_complex_span_structure(self):
        one, j = bilocal.canonical_m_span("C", 1)
        assert linalg.product(j, j) == {ij: -x for ij, x in one.items()}

    def test_quaternion_span_closed(self):
        span = bilocal.canonical_m_span("H", 1)
        for a in span:
            for b in span:
                assert linalg.in_span(span, [linalg.product(a, b)]) == [True]

    def test_gauge_dimensions(self):
        assert len(gauge_oracle("R", 3)) == 3       # o(3)
        assert len(gauge_oracle("C", 2)) == 4       # u(2)
        assert len(gauge_oracle("H", 2)) == 10      # sp(4)

    @pytest.mark.parametrize("kind", ["R", "C", "H"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_invariance_algebra_is_the_oracle_gauge_algebra(self, kind, n):
        span = bilocal.canonical_m_span(kind, n)
        kernel = bilocal.invariance_algebra(span, _size(kind, n))
        oracle = gauge_oracle(kind, n)
        assert len(kernel) == len(oracle) == bilocal.gauge_dimension(kind, n)
        assert same_span(kernel, oracle)
        # a list missing one generator spans less than the kernel
        if oracle:
            assert not same_span(kernel, oracle[1:])

    def test_complex_span_without_j_has_a_larger_invariance_algebra(self):
        one, _ = bilocal.canonical_m_span("C", 2)
        assert len(bilocal.invariance_algebra([one], 4)) == 6      # o(4), not u(2)

    @pytest.mark.parametrize("seed", range(4))
    def test_field_variation_is_the_bilocal_of_the_varied_label(self, seed):
        # phi_i -> sum_k A_ik phi_k at both points turns V_M(1, 2) into
        # V_{tA M + M A}(1, 2), for any A and M
        rng = random.Random(seed)

        def label():
            return {(i, j): QI(rng.randint(-2, 2), rng.randint(-1, 1))
                    for i in range(3) for j in range(3) if rng.random() < 0.6}

        a, m = label(), label()
        var = bilocal._sum((1, linalg.product(linalg.dict_transpose(a), m)),
                           (1, linalg.product(m, a)))
        got = WickElement(bilocal._field_variation(bilocal._field(m.items(), 1, 2), a))
        assert got == bilocal._field(var.items(), 1, 2)

    def test_gauge_wick_fails_on_a_generator_outside_the_gauge_algebra(self, monkeypatch):
        # E_02 - E_20 is antisymmetric but does not commute with J + J, so it
        # is outside u(2); with every matrix product read as zero the matrix
        # record cannot see it, and the Wick variation must
        outside = {(0, 2): QI(1), (2, 0): QI(-1)}
        kernel = bilocal.invariance_algebra(bilocal.canonical_m_span("C", 2), 4)
        monkeypatch.setattr(bilocal, "invariance_algebra", lambda s, n: kernel + [outside])
        monkeypatch.setattr(linalg, "product", lambda a, b: {})
        records = {r.check_id: r for r in canonical_form_check("C", 2).records}
        assert records["canonical/C/N2/gauge-matrix"].passed
        assert not records["canonical/C/N2/gauge-wick"].passed

    def test_full_invariance_record_fails_on_a_short_kernel(self, monkeypatch):
        kernel = bilocal.invariance_algebra
        monkeypatch.setattr(bilocal, "invariance_algebra", lambda s, n: kernel(s, n)[1:])
        records = {r.check_id: r for r in canonical_form_check("C", 2).records}
        rec = records["canonical/C/N2/full-invariance"]
        assert not rec.passed and rec.detail == "dim 3, expected 4"


# ---------------------------------------------------------------------------
# The gauge algebras o(N), u(N) and sp(2N) built by hand, block by block on
# flavor space, as the oracle for the invariance algebra read off the kernel.


def gauge_oracle(kind: str, n: int):
    """Antisymmetric generators of O(N), U(N) or Sp(2N) on flavor space."""
    if kind == "R":
        return _flavor_blocks(n, 1, diag_blocks=[], sym_off=[],
                              antisym_off=[_unit(1)])
    if kind == "C":
        return _flavor_blocks(n, 2, diag_blocks=[bilocal._J],
                              sym_off=[bilocal._J], antisym_off=[_unit(2)])
    imag = [bilocal.quaternion_matrix(q, "left") for q in "ijk"]
    return _flavor_blocks(n, 4, diag_blocks=imag, sym_off=imag,
                          antisym_off=[bilocal.quaternion_matrix("1", "left")])


def _flavor_blocks(n, b, diag_blocks, sym_off, antisym_off):
    def placed(*blocks):
        return {(f * b + i, g * b + j): x for f, g, blk in blocks for (i, j), x in blk.items()}

    out = [placed((f, f, blk)) for f in range(n) for blk in diag_blocks]
    for f in range(n):
        for g in range(f + 1, n):
            out += [placed((f, g, blk), (g, f, {ij: -x for ij, x in blk.items()}))
                    for blk in antisym_off]
            out += [placed((f, g, blk), (g, f, blk)) for blk in sym_off]
    return out


def same_span(mats, others):
    return (linalg.rank(mats) == linalg.rank(mats + others) == linalg.rank(others))


# ---------------------------------------------------------------------------
# Sylvester's criterion against the leading-minor cofactor test it replaced


def _cofactor_det(m):
    if not m:
        return Fraction(1)
    return sum(((-1) ** j * m[0][j] * _cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
                for j in range(len(m))), Fraction(0))


def _leading_minors_positive(g):
    return all(_cofactor_det([row[:k] for row in g[:k]]) > 0 for k in range(1, len(g) + 1))


def test_positive_definite_matches_leading_minor_oracle():
    rng = random.Random(17)

    def rand(rows, cols):
        return [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
                for _ in range(rows)]

    def gram(a, n):
        # a^T a: positive definite when a has rank n, singular when it has fewer rows
        return [[sum((r[i] * r[j] for r in a), Fraction(0)) for j in range(n)]
                for i in range(n)]

    seen = set()
    for n in range(1, 5):
        for _ in range(40):
            a = rand(n, n)
            cases = {"indefinite": [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)],
                     "gram": gram(a, n),
                     "singular": gram(rand(n - 1, n), n)}
            for kind, g in cases.items():
                want = _leading_minors_positive(g)
                qi_g = [[QI.of(x) for x in row] for row in g]
                assert bilocal._positive_definite(qi_g) is want, (kind, g)
                seen.add((kind, want))
    assert {("gram", True), ("singular", False), ("indefinite", False)} <= seen
