import random
from fractions import Fraction
from unittest import mock

import pytest

from minrep import linalg
from minrep.scalars import QI


def frac_mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rref_and_rank():
    m = frac_mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert linalg.rank(m) == 2
    red, pivots = linalg.rref(m)
    assert pivots == [0, 1]


def test_kernel_annihilates():
    rng = random.Random(5)
    for _ in range(10):
        m = [[Fraction(rng.randint(-4, 4)) for _ in range(5)] for _ in range(3)]
        for v in linalg.kernel(m):
            img = [sum(r[i] * v[i] for i in range(5)) for r in m]
            assert all(x == 0 for x in img)


def test_solve_consistent_and_inconsistent():
    a = frac_mat([[1, 1], [1, -1]])
    x = linalg.solve(a, [Fraction(3), Fraction(1)])
    assert x == [Fraction(2), Fraction(1)]
    bad = frac_mat([[1, 1], [2, 2]])
    assert linalg.solve(bad, [Fraction(1), Fraction(3)]) is None


def test_inverse_roundtrip():
    rng = random.Random(9)
    while True:
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
        if linalg.rank(m) == 4:
            break
    inv = linalg.inverse(m)
    assert linalg.mat_mul(m, inv) == linalg.identity(4)


def test_inverse_of_empty_matrix_is_empty():
    assert linalg.inverse([]) == []


def _check_results_stay_in_ring(one, c):
    """kernel, solve and inverse take no ring argument: on matrices over the
    ring of `one` every entry of each result has the type of `one`.

    `c` is a nonzero ring element with c^2 != 2, so [[1, c], [1/c, 1]] is
    singular and [[1, c], [c, 2]] is not.
    """
    zero = one - one
    ring = type(one)

    def in_ring(vals):
        return all(type(x) is ring for x in vals)

    def apply(m, v):
        return [sum((x * y for x, y in zip(row, v)), zero) for row in m]

    singular = [[one, c], [one / c, one]]
    assert linalg.rank(singular) == 1
    for m in (singular, [[zero, zero]], [[zero, one, zero]]):
        kern = linalg.kernel(m)
        assert len(kern) == len(m[0]) - linalg.rank(m)
        for v in kern:
            assert in_ring(v) and any(v)
            assert apply(m, v) == [zero] * len(m)

    # consistent but singular, so the free unknown holds the ring's zero
    x = linalg.solve(singular, [one, one / c])
    assert in_ring(x) and x[1] == zero
    assert apply(singular, x) == [one, one / c]
    assert linalg.solve([[one, c], [one, c]], [one, zero]) is None

    m = [[one, c], [c, one + one]]
    inv = linalg.inverse(m)
    assert all(in_ring(row) for row in inv)
    assert linalg.mat_mul(m, inv) == linalg.identity(2, one)
    assert all(in_ring(row) for row in linalg.identity(3, one))


def test_qi_entries_work_throughout():
    _check_results_stay_in_ring(QI(1), QI(0, 1))


def test_fraction_entries_stay_fraction():
    _check_results_stay_in_ring(Fraction(1), Fraction(3))


def test_in_span():
    vs = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
    assert linalg.in_span(vs, [Fraction(5), Fraction(3)])
    assert not linalg.in_span([vs[0]], [Fraction(0), Fraction(1)])


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
        assert _types(got) == _types(want)
    _check_on_random_products(check)


def test_trace_product_is_trace_of_product():
    def check(a, b):
        t = linalg.trace_product(a, b)
        want = linalg.trace(_dense_mat_mul(a, b))
        assert t == want == linalg.trace(linalg.mat_mul(a, b))
        assert type(t) is type(want)
    _check_on_random_products(check, square_product=True)


@pytest.mark.parametrize("zero, one", [(Fraction(0), Fraction(1)), (QI(0), QI(1))])
def test_sparse_product_zeros_keep_the_ring(zero, one):
    # a zero row of a, a zero column of b, and an entry that cancels
    a = [[one, one, zero], [zero, zero, zero]]           # 2 x 3
    b = [[one, zero], [-one, zero], [one, zero]]         # 3 x 2
    for prod in (linalg.mat_mul(a, b), _dense_mat_mul(a, b)):
        assert prod == [[zero, zero], [zero, zero]]
        assert all(type(x) is type(zero) for row in prod for x in row)
    t = linalg.trace_product(a, b)
    assert t == zero and type(t) is type(zero)
    assert linalg.trace_product([[one, one]], [[one], [-one]]) == zero


# ---------------------------------------------------------------------------
# Elimination against the dense Gauss-Jordan it replaced


def _dense_rref(m):
    """Reduced row echelon form by whole-row operations on the dense matrix."""
    a = linalg.mat_copy(m)
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


def _types_deep(x):
    return [_types_deep(y) for y in x] if isinstance(x, (list, tuple)) else type(x)


def test_rref_matches_dense_oracle():
    """rref and everything built on it agree with the dense Gauss-Jordan.

    Fraction and QI matrices of 1-6 rows and columns, so tall, wide and
    square, with half their entries zero, so zero rows and columns and
    all-zero matrices are common; up to two rows are added as combinations
    of drawn rows, so many are rank-deficient.  kernel, solve, inverse and
    rank run once on rref and once with the oracle in its place.  The
    profile is fixed and derandomized, so every run checks the same examples.
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

    def derived(m, x, b):
        consistent = [sum((p * q for p, q in zip(row, x)), 0 * row[0]) for row in m]
        return (linalg.rank(m), linalg.kernel(m), linalg.solve(m, consistent),
                linalg.solve(m, b), _outcome(linalg.inverse, m))

    profile = hypothesis.settings(derandomize=True, database=None, deadline=None,
                                  max_examples=200)
    zeros, qi_zeros = [[Fraction(0)] * 3] * 2, [[QI(0)] * 2] * 4

    @profile
    @hypothesis.given(cases())
    @hypothesis.example((zeros, zeros[0], zeros[0][:2]))
    @hypothesis.example((qi_zeros, qi_zeros[0], [QI(0)] * 4))
    def check(case):
        m, x, b = case
        got, want = linalg.rref(m), _dense_rref(m)
        assert got == want
        assert _types_deep(got) == _types_deep(want)
        with mock.patch.object(linalg, "rref", _dense_rref):
            want = derived(m, x, b)
        got = derived(m, x, b)
        assert got == want
        assert _types_deep(got) == _types_deep(want)

    check()
