"""Exact linear algebra over QI entries.

Matrices are lists of lists.  Products and trace products skip zero
entries, since the matrices the suites multiply and reduce are mostly
zeros.  Elimination is Gauss-Jordan on sparse rows, with exact field
arithmetic, so there are no pivoting tolerances: a pivot is any nonzero
entry, and the reduced form is unique whatever the order.  The helpers
need only +, -, *, / and truthiness of their entries, and their results
stay in the operands' ring: the zero of a result is ``0 * entry``.  Only
``identity(n, one)`` takes a ring argument, since it has no operand to
read it from; it defaults to ``QI``, the ring every suite computes in.
"""

from __future__ import annotations

from .lincomb import combine
from .scalars import QI


def mat_copy(m):
    return [row[:] for row in m]


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, m):
    return [[c * x for x in row] for row in m]


def mat_mul(a, b):
    """The product ab, multiplying only nonzero entries of a by those of b.

    Each row of the result sums x * b[k][j] over the nonzero x = a[i][k]
    and the nonzero entries of row k of b.  An entry that no such product
    reaches holds the zero of the operands' entry ring.
    """
    p = len(b[0]) if b else 0
    if not a or not p:
        return [[] for _ in a]
    zero = 0 * (a[0][0] * b[0][0])
    brows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for arow in a:
        row = [zero] * p
        acc = combine(((j, x * y) for x, brow in zip(arow, brows) if x for j, y in brow), {})
        for j, s in acc.items():
            row[j] = s
        out.append(row)
    return out


def trace_product(a, b):
    """tr(ab) for a n x m and b m x n, from the nonzero entries, never forming ab."""
    zero = 0 * (a[0][0] * b[0][0])
    return sum((x * y for i, arow in enumerate(a) for k, x in enumerate(arow)
                if x and (y := b[k][i])), zero)


def trace(m):
    s = m[0][0]
    for i in range(1, len(m)):
        s = s + m[i][i]
    return s


def identity(n, one=QI(1)):
    zero = one - one
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def rref(m):
    """Reduced row echelon form.  Returns (rref_matrix, pivot_columns).

    Gauss-Jordan on rows held as {column: entry} dicts of their nonzero
    entries, so a row update touches only the pivot row's nonzero entries.
    The zeros of the dense result are the zero of the entry ring.
    """
    if not m or not m[0]:
        return mat_copy(m), []
    cols, zero = len(m[0]), 0 * m[0][0]
    rows = [{j: x for j, x in enumerate(row) if x} for row in m]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c]
        pivot_row = rows[r] = {j: x / inv for j, x in rows[r].items()}
        for row in rows:
            f = row.get(c)
            if f and row is not pivot_row:
                combine(((j, -f * y) for j, y in pivot_row.items()), row)
                for j in [j for j in pivot_row if not row[j]]:
                    del row[j]
        pivots.append(c)
        if r + 1 == len(rows):
            break
    return [[row.get(j, zero) for j in range(cols)] for row in rows], pivots


def rank(m):
    if not m:
        return 0
    return len(rref(m)[1])


def kernel(m):
    """Basis of the right null space of m (vectors of length ncols)."""
    if not m:
        return []
    cols = len(m[0])
    red, pivots = rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0 * m[0][0]] * cols
        v[fc] += 1
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(a, b):
    """Solve a x = b for a single consistent right-hand side; None if none."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [list(a[i]) + [b[i]] for i in range(rows)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [0 * a[0][0]] * cols if cols else []
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def inverse(m):
    n = len(m)
    if n == 0:
        return []   # the empty matrix is its own inverse
    aug = [list(row) + e for row, e in zip(m, identity(n, 0 * m[0][0] + 1))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def in_span(vectors, target):
    """Whether target is a linear combination of the given vectors."""
    if not vectors:
        return not any(target)
    m = transpose(vectors)
    return solve(m, list(target)) is not None

