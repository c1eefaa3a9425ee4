import random
from fractions import Fraction
from unittest import mock

import pytest

from minrep import cli, linalg
from minrep.scalars import QI, sum_products


def frac_mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def sparse(m):
    """The rows of a dense matrix as {column: entry} dicts of their nonzeros."""
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def _transpose(m):
    return [list(col) for col in zip(*m)]


def columns(m):
    """The columns of a dense matrix as {row: entry} dicts of their nonzeros."""
    return sparse(_transpose(m))


def _identity(n):
    """The dense n x n identity over QI."""
    return [[QI(1) if i == j else QI(0) for j in range(n)] for i in range(n)]


def _only_qi(x):
    """Whether every entry of every dict in x, a result of rref, kernel or
    inverse or a tuple or list of them, is a QI; a pivot or a rank is no
    entry."""
    if isinstance(x, dict):
        return all(type(v) is QI for v in x.values())
    return all(_only_qi(y) for y in x) if isinstance(x, (list, tuple)) else True


def dense(v, n, zero):
    """A sparse vector as a list of length n, zero where it holds no entry."""
    return [v.get(j, zero) for j in range(n)]


def test_rref_and_rank():
    m = frac_mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert linalg.rank(sparse(m)) == 2
    red, pivots = linalg.rref(sparse(m))
    assert pivots == [0, 1]


def test_kernel_annihilates():
    rng = random.Random(5)
    for _ in range(10):
        m = [[Fraction(rng.randint(-4, 4)) for _ in range(5)] for _ in range(3)]
        for v in linalg.kernel(columns(m)):
            img = [sum(r[i] * v.get(i, 0) for i in range(5)) for r in m]
            assert all(x == 0 for x in img)


def test_inverse_roundtrip():
    rng = random.Random(9)
    while True:
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
        if linalg.rank(sparse(m)) == 4:
            break
    inv = [dense(row, 4, Fraction(0)) for row in linalg.inverse(sparse(m))]
    assert linalg.mat_mul(m, inv) == _identity(4)


def test_inverse_of_empty_matrix_is_empty():
    assert linalg.inverse([]) == []


def test_inverse_rejects_singular_and_wide_matrices():
    one = Fraction(1)
    with pytest.raises(ValueError):
        linalg.inverse([{0: one}, {}])                   # a zero row
    with pytest.raises(ValueError):
        linalg.inverse([{0: one, 1: one}, {0: one, 1: one}])
    with pytest.raises(ValueError):
        linalg.inverse([{0: one}, {2: one}])             # a column past n


def _check_results_are_qi(one, c):
    """kernel and inverse take no ring argument: on matrices over the
    ring of `one` every entry of each result is a QI.

    `c` is a nonzero ring element with c^2 != 2, so [[1, c], [1/c, 1]] is
    singular and [[1, c], [c, 2]] is not.
    """
    zero = one - one

    def in_ring(vals):
        return all(type(x) is QI for x in vals)

    def apply(m, v):
        return [sum((x * y for x, y in zip(row, v)), zero) for row in m]

    singular = [[one, c], [one / c, one]]
    assert linalg.rank(sparse(singular)) == 1
    for m in (singular, [[zero, one, zero]]):
        kern = linalg.kernel(columns(m))
        assert len(kern) == len(m[0]) - linalg.rank(sparse(m))
        for v in kern:
            assert in_ring(v.values()) and all(v.values()) and v
            assert apply(m, dense(v, len(m[0]), zero)) == [zero] * len(m)
    # a zero matrix has no entry to read a ring from, so its kernel is over QI
    kern = linalg.kernel(columns([[zero, zero]]))
    assert kern == [{0: one}, {1: one}]
    assert all(type(x) is QI for v in kern for x in v.values())

    m = [[one, c], [c, one + one]]
    inv = linalg.inverse(sparse(m))
    assert all(in_ring(row.values()) for row in inv)
    assert linalg.mat_mul(m, [dense(row, 2, zero) for row in inv]) == _identity(2)


def test_qi_entries_work_throughout():
    _check_results_are_qi(QI(1), QI(0, 1))


def test_fraction_entries_are_eliminated_into_qi():
    _check_results_are_qi(Fraction(1), Fraction(3))


def _row_kernel(rows, ncols):
    """The right null space of sparse rows over columns 0 .. ncols-1, by the
    row route kernel once took: the oracle of the kernel of column vectors."""
    red, pivots = linalg.rref(rows) if rows else ([], [])
    one = red[0][pivots[0]] if red else QI(1)
    basis = {fc: {fc: one} for fc in range(ncols) if fc not in set(pivots)}
    for row, pc in zip(red, pivots):
        for j, x in row.items():
            if j != pc:
                basis[j][pc] = -x
    return list(basis.values())


def test_kernel_of_vectors_matches_the_row_route():
    # random sparse QI vectors over tuple keys, with empty vectors, zero
    # entries and repeated vectors; the rows are built by hand, one per
    # key in a shuffled order
    rng = random.Random(17)
    keys = [(f, r) for f in range(3) for r in range(4)]
    for _ in range(200):
        vectors = []
        for _ in range(rng.randint(0, 7)):
            if vectors and rng.random() < 0.15:
                vectors.append(dict(rng.choice(vectors)))
                continue
            v = {}
            for k in rng.sample(keys, rng.randint(0, 4)):
                v[k] = QI(rng.randint(-2, 2), rng.randint(-1, 1))
            vectors.append(v)
        rows = {}
        for j, v in enumerate(vectors):
            for k, x in v.items():
                rows.setdefault(k, {})[j] = x
        order = list(rows)
        rng.shuffle(order)
        got, want = linalg.kernel(vectors), _row_kernel([rows[k] for k in order], len(vectors))
        assert got == want and _only_qi(got)
        for rel in got:
            total = {}
            for j, c in rel.items():
                for k, x in vectors[j].items():
                    total[k] = total.get(k, QI(0)) + c * x
            assert not any(total.values())
    assert linalg.kernel([]) == []
    assert linalg.kernel([{}, {(0, 1): QI(0)}]) == [{0: QI(1)}, {1: QI(1)}]


def test_in_span():
    vs = [{0: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}]
    assert linalg.in_span(vs, [{0: Fraction(5), 1: Fraction(3)}]) == [True]
    assert linalg.in_span([vs[0]], [{1: Fraction(1)}, {0: Fraction(2)}]) == [False, True]
    assert linalg.in_span([], [{}, {0: Fraction(1)}]) == [True, False]
    assert linalg.in_span(vs, []) == []


# ---------------------------------------------------------------------------
# Sparse products against the dense dot-product formula they replaced


def _dense_mat_mul(a, b):
    """Every entry the full sum of x * y over a row of a and a column of b."""
    def dot(u, v):
        it = iter(x * y for x, y in zip(u, v))
        s = next(it)
        for t in it:
            s = s + t
        return s
    return [[dot(arow, bcol) for bcol in zip(*b)] for arow in a]


def _types(m):
    return [[type(x) for x in row] for row in m]


def _all_qi(m):
    return all(type(x) is QI for row in m for x in row)


def _entries(m):
    """A dense matrix as {(row, col): entry} of its nonzero entries."""
    return {(i, j): x for i, row in enumerate(m) for j, x in enumerate(row) if x}


def _trace(m):
    return sum((row[i] for i, row in enumerate(m)), Fraction(0))


def _trace_of_items(a, b):
    """tr(ab) of dense a and b, summed from linalg.trace_items of their
    entries, with b the one matrix of a position index."""
    at = {}
    linalg.index_positions(at, "b", _entries(b))
    return sum_products(linalg.trace_items(_entries(a), at, 1, "a")).get(("a", "b"), QI(0))


def _check_on_random_products(check, square_product=False):
    """Run check(a, b) on random sparse Fraction or QI matrix pairs.

    Shapes are n x m and m x p, with p = n when `square_product`.  Half the
    drawn entries are zero and the rest are small, so zero rows and
    columns and products that cancel to zero are common.  The profile is
    fixed and derandomized, so every run checks the same examples.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    small = st.builds(Fraction, st.integers(-1, 1), st.sampled_from([1, 2]))
    rings = [(Fraction(0), small), (QI(0), st.builds(QI, small, small))]

    @st.composite
    def pairs(draw):
        n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        p = n if square_product else draw(st.integers(1, 5))
        zero, values = draw(st.sampled_from(rings))
        entry = st.one_of(st.just(zero), values)

        def matrix(rows, cols):
            return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                 min_size=rows, max_size=rows))
        return matrix(n, m), matrix(m, p)

    profile = hypothesis.settings(derandomize=True, database=None, deadline=None,
                                  max_examples=100)
    profile(hypothesis.given(pairs())(lambda ab: check(*ab)))()


def test_mat_mul_matches_dense_oracle():
    def check(a, b):
        got, want = linalg.mat_mul(a, b), _dense_mat_mul(a, b)
        assert got == want
        assert _all_qi(got)
    _check_on_random_products(check)


def test_product_and_dict_transpose_match_dense_oracle():
    # rectangular n x m times m x p operands over Fraction and over QI with
    # imaginary parts, zero rows, zero columns and all-zero (empty) matrices
    def check(a, b):
        got = linalg.product(_entries(a), _entries(b))
        assert got == _entries(_dense_mat_mul(a, b))
        assert all(type(x) is QI for x in got.values())
        assert linalg.dict_transpose(_entries(a)) == _entries(_transpose(a))
        assert linalg.dict_transpose(linalg.dict_transpose(_entries(b))) == _entries(b)
    _check_on_random_products(check)
    one, i = QI(1), QI(0, 1)
    assert linalg.product({}, {}) == {}
    assert linalg.product({}, {(0, 0): one}) == {} == linalg.product({(0, 0): one}, {})
    assert linalg.product({(0, 1): one}, {(0, 0): one}) == {}          # inner indices miss
    assert linalg.dict_transpose({}) == {}
    # (1 x 3)(3 x 2), with i * i = -1 cancelling the real products
    assert linalg.product({(0, 0): i, (0, 2): one},
                          {(0, 1): i, (2, 1): one, (2, 0): i}) == {(0, 0): i}
    assert linalg.dict_transpose({(0, 2): i, (1, 0): one}) == {(2, 0): i, (0, 1): one}


def test_trace_product_is_trace_of_product():
    def check(a, b):
        t = _trace_of_items(a, b)
        want = _trace(_dense_mat_mul(a, b))
        assert t == want == _trace(linalg.mat_mul(a, b))
        assert type(t) is QI
    _check_on_random_products(check, square_product=True)


@pytest.mark.parametrize("zero, one", [(Fraction(0), Fraction(1)), (QI(0), QI(1))])
def test_sparse_product_zeros_keep_the_ring(zero, one):
    # a zero row of a, a zero column of b, and an entry that cancels; the
    # sparse products are over QI whatever the operands' ring
    a = [[one, one, zero], [zero, zero, zero]]           # 2 x 3
    b = [[one, zero], [-one, zero], [one, zero]]         # 3 x 2
    for prod in (linalg.mat_mul(a, b), _dense_mat_mul(a, b)):
        assert prod == [[zero, zero], [zero, zero]]
    assert _all_qi(linalg.mat_mul(a, b))
    assert linalg.product(_entries(a), _entries(b)) == {}
    t = _trace_of_items(a, b)
    assert t == zero and type(t) is QI
    assert _trace_of_items([[one, one]], [[one], [-one]]) == zero


@pytest.mark.parametrize("a, b", [
    (_identity(2), _identity(3)),                         # inner 2 vs 3
    (_identity(3), _identity(2)),                         # inner 3 vs 2
    ([[QI(1), QI(2)], [QI(3)]], _identity(2)),             # ragged a
    (_identity(2), [[QI(1), QI(2)], [QI(3)]]),             # ragged b
    ([[QI(1)]], []),                                      # 1 x 1 times no rows
])
def test_products_refuse_shapes_that_do_not_chain(a, b):
    with pytest.raises(ValueError, match="shape mismatch in mat_mul"):
        linalg.mat_mul(a, b)


# ---------------------------------------------------------------------------
# Elimination against the dense Gauss-Jordan it replaced


def _dense_rref(m):
    """Reduced row echelon form by whole-row operations on the dense matrix."""
    a = [row[:] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def _outcome(f, *args):
    """f's result, or the type of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc)


def _oracle_rref(rows):
    """The dense Gauss-Jordan behind rref's sparse interface: the rows are
    filled out to every column up to the last one they hold, and the zero
    rows of the dense result are dropped."""
    cols = 1 + max((j for row in rows for j in row), default=-1)
    zero = next((0 * x for row in rows for x in row.values()), QI(0))
    red, pivots = _dense_rref([dense(row, cols, zero) for row in rows])
    return sparse(red[:len(pivots)]), pivots


def _check_against_oracle(case):
    """rref and everything built on it agree with the dense Gauss-Jordan.

    rref's rows must be the dense reduced form's nonzero rows, the rows it
    drops must be zero, and its input must come back unchanged.  kernel,
    inverse and rank run once on rref and once with the oracle in
    its place.  in_span must say whether appending the vector to the rows
    leaves the dense rank unchanged, for x and for the rows' combination
    with coefficients b.
    """
    m, x, b = case
    rows = sparse(m)
    got = linalg.rref(rows)
    want, pivots = _dense_rref(m)
    assert rows == sparse(m)
    assert not any(any(row) for row in want[len(pivots):])
    want = sparse(want[:len(pivots)]), pivots
    assert got == want and _only_qi(got)

    def derived():
        return (linalg.rank(rows), linalg.kernel(columns(m)),
                _outcome(linalg.inverse, rows))

    combination = [sum((c * row[j] for c, row in zip(b, m)), 0 * m[0][0])
                   for j in range(len(m[0]))]
    want = [len(_dense_rref(m + [t])[1]) == len(_dense_rref(m)[1]) for t in (x, combination)]
    assert linalg.in_span(rows, sparse([x, combination])) == want

    with mock.patch.object(linalg, "rref", _oracle_rref):
        want = derived()
    got = derived()
    assert got == want and _only_qi(got)


def test_rref_matches_dense_oracle():
    """Fraction and QI matrices of 1-6 rows and columns, so tall, wide and
    square, with half their entries zero, so zero rows and columns and
    all-zero matrices are common; up to two rows are added as combinations
    of drawn rows, so many are rank-deficient.  The profile is fixed and
    derandomized, so every run checks the same examples.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    small = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 3]))
    rings = [(Fraction(0), small), (QI(0), st.builds(QI, small, small))]

    @st.composite
    def cases(draw):
        zero, values = draw(st.sampled_from(rings))
        rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        entry = st.one_of(st.just(zero), values)
        m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.integers(0, len(m) - 1)), draw(st.integers(0, len(m) - 1))
            c = draw(values)
            m.append([c * x + y for x, y in zip(m[i], m[j])])
        x = draw(st.lists(entry, min_size=cols, max_size=cols))
        b = draw(st.lists(entry, min_size=len(m), max_size=len(m)))
        return m, x, b

    profile = hypothesis.settings(derandomize=True, database=None, deadline=None,
                                  max_examples=200)
    zeros, qi_zeros = [[Fraction(0)] * 3] * 2, [[QI(0)] * 2] * 4

    @profile
    @hypothesis.given(cases())
    @hypothesis.example((zeros, zeros[0], zeros[0][:2]))
    @hypothesis.example((qi_zeros, qi_zeros[0], [QI(0)] * 4))
    def check(case):
        _check_against_oracle(case)

    check()


def test_rref_matches_dense_oracle_on_tall_sparse_blocks():
    """The shape of the decompose weight blocks: 8-24 rows over 2-8
    columns, with about one entry in six nonzero, QI entries built from
    small integers as the lowering operators' are, and rows repeated up to
    a scale, so the rank is well below the row count.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    values = st.builds(QI, st.integers(-3, 3).filter(bool), st.integers(-1, 1))
    zero = QI(0)

    @st.composite
    def cases(draw):
        rows, cols = draw(st.integers(8, 24)), draw(st.integers(2, 8))
        entry = st.one_of(*[st.just(zero)] * 5, values)
        m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))
        for _ in range(draw(st.integers(0, 4))):
            i, c = draw(st.integers(0, rows - 1)), draw(values)
            m.append([c * y for y in m[i]])
        x = draw(st.lists(entry, min_size=cols, max_size=cols))
        b = draw(st.lists(entry, min_size=len(m), max_size=len(m)))
        return m, x, b

    profile = hypothesis.settings(derandomize=True, database=None, deadline=None,
                                  max_examples=100)
    profile(hypothesis.given(cases())(_check_against_oracle))()


def _rational(x):
    """An int, Fraction or real QI entry as a Fraction."""
    return x.real_fraction() if type(x) is QI else Fraction(x)


def test_elimination_gives_qi_entries_whatever_the_input_ring():
    """rref, kernel, in_span and inverse on int, Fraction and real QI
    entries, one ring or a mix of them in one matrix, equal the dense
    Gauss-Jordan over Fraction, and every entry they return is a QI.
    Matrices have 1-5 rows and columns, with a third of their entries zero
    and up to two rows combinations of others, so both the certified and
    the exact path run.  The profile is fixed and derandomized, so every
    run checks the same examples.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    kinds = {"int": lambda n, d: n, "Fraction": Fraction, "QI": lambda n, d: QI(Fraction(n, d))}

    @st.composite
    def cases(draw):
        mix = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=3,
                            unique=True))

        def entry():
            n = draw(st.sampled_from([0, 0, -3, -2, -1, 1, 2, 3]))
            return kinds[draw(st.sampled_from(mix))](n, draw(st.sampled_from([1, 2, 3])))

        rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        m = [[entry() for _ in range(cols)] for _ in range(rows)]
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.integers(0, len(m) - 1)), draw(st.integers(0, len(m) - 1))
            m.append([entry() * x + y for x, y in zip(m[i], m[j])])
        return m, [entry() for _ in range(cols)]

    def check(case):
        m, x = case
        f = [[_rational(y) for y in row] for row in m]
        red, pivots = _dense_rref(f)
        want = sparse(red[:len(pivots)]), pivots
        got = linalg.rref(sparse(m))
        assert got == want and _only_qi(got)

        ncols = len(f[0])
        kern = {fc: {fc: Fraction(1)} for fc in range(ncols) if fc not in pivots}
        for row, pc in zip(red, pivots):
            for fc in kern:
                if row[fc]:
                    kern[fc][pc] = -row[fc]
        got = linalg.kernel(columns(m))
        assert got == list(kern.values()) and _only_qi(got)

        rank = len(pivots)
        comb = [sum((y * row[j] for y, row in zip(x, m)), 0) for j in range(ncols)]
        want = [len(_dense_rref(f + [[_rational(y) for y in t]])[1]) == rank
                for t in (x, comb)]
        assert linalg.in_span(sparse(m), sparse([x, comb])) == want

        k = min(len(f), ncols)
        square = [row[:k] for row in m[:k]]
        red, pivots = _dense_rref([[_rational(y) for y in row] + [Fraction(int(i == j))
                                                                  for j in range(k)]
                                   for i, row in enumerate(square)])
        if pivots[:k] == list(range(k)):
            got = linalg.inverse(sparse(square))
            assert got == sparse([row[k:] for row in red]) and _only_qi(got)
        else:
            with pytest.raises(ValueError):
                linalg.inverse(sparse(square))

    profile = hypothesis.settings(derandomize=True, database=None, deadline=None,
                                  max_examples=200)
    profile(hypothesis.given(cases())(check))()


def test_mixed_qi_fraction_products_keep_their_types():
    # TAlgebra([identity(2), d]) multiplies a QI matrix by a Fraction one, in
    # both orders; every sparse product is over QI, Fraction-only ones too,
    # and equals the dense oracle's entrywise products
    rng = random.Random(11)
    for _ in range(20):
        q = [[QI(Fraction(rng.randint(-3, 3), rng.randint(1, 4)), rng.randint(-1, 1))
              for _ in range(3)] for _ in range(3)]
        f = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(3)]
             for _ in range(3)]
        for a, b in ((q, f), (f, q), (f, f), (q, q), (_identity(3), f)):
            got, want = linalg.mat_mul(a, b), _dense_mat_mul(a, b)
            assert got == want and _all_qi(got)
            got = linalg.product(_entries(a), _entries(b))
            assert got == _entries(want) and all(type(x) is QI for x in got.values())
            t = _trace_of_items(a, b)
            assert t == _trace(want) and type(t) is QI
    d = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]]
    for a, b in ((_identity(2), d), (d, _identity(2))):
        assert linalg.mat_mul(a, b) == [[QI(1), QI(0)], [QI(0), QI(2)]]
        assert _types(linalg.mat_mul(a, b)) == [[QI, QI], [QI, QI]]
    assert _types(linalg.mat_mul(d, d)) == [[QI, QI], [QI, QI]]


# ---------------------------------------------------------------------------
# The rank certificate mod P, and the exact path it falls back to


def test_the_certificate_prime_is_one_mod_four_with_a_root_of_minus_one():
    p = linalg.P
    assert p < 2 ** 31 and p % 4 == 1 and linalg.I * linalg.I % p == p - 1
    assert all(p % d for d in range(3, int(p ** 0.5) + 1, 2)) and p % 2


def _exact(f, *args):
    """f with the certificate switched off, so every call runs the exact
    elimination: the oracle of the certified rank, rref and kernel."""
    with mock.patch.object(linalg, "_full_rank_mod_p", lambda rows, target: False):
        return f(*args)


def _spy_exact():
    return mock.patch.object(linalg, "_eliminate", wraps=linalg._eliminate)


def test_int_entries_are_eliminated_exactly():
    # ints once divided by / into floats, which lost these differences of 1
    big = 10 ** 17 + 1
    with _spy_exact() as spy:
        assert linalg.in_span([{0: 10 ** 17 + 1, 1: 10 ** 17 + 2}],
                              [{0: 10 ** 17, 1: 10 ** 17 + 1}]) == [False]
        kern = linalg.kernel([{0: big, 1: big - 1}, {0: big + 1, 1: big}, {0: 1}])
        inv = linalg.inverse([{0: big, 1: big - 1}, {0: big + 1, 1: big}])
    assert spy.call_count == 3
    assert kern == [{0: -big, 1: big - 1, 2: 1}]
    assert inv == [{0: big, 1: 1 - big}, {0: -1 - big, 1: big}]
    assert _only_qi(kern) and _only_qi(inv)


def test_kernel_witness_refutes_a_corrupted_elimination():
    original = linalg._eliminate

    def corrupted(rows):
        # each non-pivot entry of the first reduced row is off by one
        red, pivots = original(rows)
        red[0] = {j: x if j == pivots[0] else x + 1 for j, x in red[0].items()}
        return red, pivots

    deficient = [{0: QI(1), 1: QI(2)}, {0: QI(2), 1: QI(4)}]
    full = [{0: QI(1), 1: QI(2)}, {0: QI(3), 1: QI(4)}, {0: QI(5)}]
    assert linalg.kernel(deficient) == [{1: QI(1), 0: QI(-2)}]
    with mock.patch.object(linalg, "_eliminate", corrupted):
        with pytest.raises(linalg.EliminationError):
            linalg.kernel(deficient)
        # the certificate decides these without the exact elimination
        assert linalg.rank(full) == 2 and linalg.rank(full[:2]) == 2
        assert linalg.kernel(full[:2]) == []
        assert linalg.rref(full) == ([{0: QI(1)}, {1: QI(1)}], [0, 1])
        # a failed witness is an internal error of the command, exit 3
        assert cli.main(["check-bilocal", "--L", "2", "--trials", "1",
                         "--format", "json"]) == cli.EXIT_INTERNAL


def _random_rows(rng, ring):
    """Sparse rows over columns 0..5 of one ring, some rows combinations of
    others, and some entries with no residue mod P or a zero residue."""
    p, root = linalg.P, linalg.I
    pool = {"int": lambda: rng.randint(-3, 3),
            "Fraction": lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            "QI": lambda: QI(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))}
    special = {"int": [p, 2 * p], "Fraction": [Fraction(1, p), Fraction(p, 2)],
               "QI": [QI(Fraction(1, p), 1), QI(-root, 1), QI(p)]}[ring]
    rows = []
    for _ in range(rng.randint(0, 8)):
        if rows and rng.random() < 0.2:
            a, b = rng.choice(rows), rng.choice(rows)
            c = pool[ring]()
            rows.append({j: x for j in set(a) | set(b) if (x := c * a.get(j, 0) + b.get(j, 0))})
            continue
        row = {}
        for j in rng.sample(range(6), rng.randint(0, 4)):
            row[j] = rng.choice(special) if rng.random() < 0.05 else pool[ring]()
        rows.append(row)
    return rows


@pytest.mark.parametrize("ring", ["int", "Fraction", "QI"])
def test_certificate_agrees_with_exact_elimination(ring):
    rng = random.Random(23)
    certified = fallback = 0
    for _ in range(300):
        rows = _random_rows(rng, ring)
        for f in (linalg.rank, linalg.rref, linalg.kernel):
            got, want = f(rows), _exact(f, rows)
            assert got == want and _only_qi(got) and _only_qi(want)
        assert not any(type(x) is float for x in _flat(linalg.rref(rows)))
        cols = set().union(*rows)
        certified += len(rows) >= len(cols) and linalg._full_rank_mod_p(rows, len(cols))
        # no residue, or a rank that falls mod P: the exact path decides
        fallback += not linalg._full_rank_mod_p(rows, _exact(linalg.rank, rows))
    assert certified > 30 and fallback > 5


def _flat(x):
    if isinstance(x, dict):
        return [y for v in x.values() for y in _flat(v)]
    return [y for v in x for y in _flat(v)] if isinstance(x, (list, tuple)) else [x]
