"""Exact linear algebra over QI entries.

A linear map is given by its column vectors, each a sparse
``{row: entry}`` dict with no zero entry.  ``ColumnMap`` holds a map's
columns and forms each one the first time it is read, so the Fock
operators and the differential operators form only the columns a check
reads.  ``bracket_defect`` is the one routine that brackets two such
maps.  ``rank``, ``kernel`` and ``in_span`` take a list of vectors:
``kernel`` returns the relations among them, ``in_span`` whether each of
a list of targets is a combination of them, reducing the vectors once.
``rref`` and ``inverse`` take sparse rows ``{column: entry}`` and return
rows the same way.  Gauss-Jordan runs in exact field arithmetic, so there
are no pivoting tolerances: a pivot is any nonzero entry, and the reduced
form is unique whatever the order.

Entries may be ints, rationals or ``QI``s, in any mix.  Each pivot
is read through ``QI.of``, so every entry that ``rref``, ``kernel`` and
``inverse`` return is a ``QI``, whatever ring their input was in, and no
float is ever formed.

Full ranks are certified mod the prime P, which is 1 mod 4 and below
2**31: an entry (a + b*i)/d goes to (a + b*I)/d mod P, with I a square
root of -1 mod P checked at import.  A rank can only fall mod P, so a
rank mod P that reaches the number of rows or of columns is the rank.
``rank`` returns it then, and ``rref`` with at least as many rows as
columns returns one unit row per column, both with no exact elimination;
an entry whose denominator P divides sends the call to the exact path.
Every relation the exact ``kernel`` returns is checked by one
``sum_products`` call over its combination of the vectors, and a nonzero
total raises ``EliminationError``.

Every algebra matrix is a ``{(row, col): entry}`` dict of its nonzero
entries, which is also a sparse vector that ``rank``, ``kernel`` and
``in_span`` read.  ``product`` sums its products in ints through
``scalars.sum_products``, so its entries are ``QI``; ``dict_transpose``
swaps the indices and ``trace_items`` hands the products of tr(ab) to
``sum_products``.
"""

from __future__ import annotations

from .lincomb import combine
from .scalars import QI, QI_ONE, QI_ZERO, residues, sum_products

# The prime of the rank certificate, 2**31 - 19, which is 1 mod 4, so
# that -1 has the square root I mod P and an entry of Q(i) whose
# denominator P does not divide has a residue mod P.
P = 2147483629
I = 629208553
if I * I % P != P - 1:
    raise ImportError("I is not a square root of -1 mod P")


class EliminationError(ArithmeticError):
    """An exact elimination gave a relation that its witness check refutes."""


def mat_mul(a, b):
    """The product ab, multiplying only nonzero entries of a by those of b.

    Each row of the result sums x * b[k][j] over the nonzero x = a[i][k]
    and the nonzero entries of row k of b, in one ``sum_products`` call
    per row, so every entry is a ``QI``.  Operands whose shapes do not
    chain raise ValueError.  No command multiplies dense matrices; the
    layer benchmark in perfbench/ times this product.
    """
    p = len(b[0]) if b else 0
    if any(len(row) != len(b) for row in a) or any(len(row) != p for row in b):
        raise ValueError("shape mismatch in mat_mul")
    if not a or not p:
        return [[] for _ in a]
    brows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for arow in a:
        row = [QI_ZERO] * p
        for j, s in sum_products((j, x, y, 1) for x, brow in zip(arow, brows) if x
                                 for j, y in brow).items():
            row[j] = s
        out.append(row)
    return out


def product(a: dict, b: dict) -> dict:
    """The nonzero {(row, col): entry} of ab, for a and b given as
    {(row, col): entry}, each product of nonzero entries summed by
    ``sum_products``."""
    rows: dict = {}
    for (k, j), y in b.items():
        rows.setdefault(k, []).append((j, y))
    return sum_products(((i, j), x, y, 1) for (i, k), x in a.items() for j, y in rows.get(k, ()))


def dict_transpose(m: dict) -> dict:
    """The transpose of m, given as {(row, col): entry}."""
    return {(j, i): x for (i, j), x in m.items()}


def trace_items(a: dict, b: dict, w: int):
    """(0, a_ik, b_ki, w) for each product in tr(ab), for sum_products, with
    a and b given as {(row, col): entry} of their nonzero entries."""
    return ((0, x, y, w) for (i, k), x in a.items() if (y := b.get((k, i))))


class ColumnMap(dict):
    """The column images {key: {row: entry}} of a linear map, each formed
    by `op(key)` on its first read and then kept.

    Reading a column that is not yet held forms it, so a map passed to
    ``bracket_defect`` or read by an operator's ``apply`` forms only the
    columns that are read.  Only the formed columns are held, so the map
    has no truth value: a test of the whole map raises TypeError rather
    than pass on the columns that happen to be formed."""

    __slots__ = ("op",)

    def __init__(self, op):
        dict.__init__(self)
        self.op = op

    def __missing__(self, key) -> dict:
        col = self[key] = self.op(key)
        return col

    def __bool__(self):
        raise TypeError("a ColumnMap holds only the columns read so far; read each column")


def bracket_defect(x, y, cols, z=None, c=1) -> dict:
    """The nonzero {(col, row): entry} of [X, Y] - cZ on the given columns.

    x, y and z map a column key to that column's sparse {row: entry}
    image, and each must answer every key it is asked for, as a
    ``ColumnMap`` does by forming the column on its first read.
    Column k of XY sums v * x[s] over the entries v = y[k][s], so the
    bracket reads columns and forms no product of operators.  Every
    product goes to one ``scalars.sum_products`` call, which leaves out
    the zero totals: the identity [X, Y] = cZ holds on cols exactly when
    the result is empty.
    """
    return sum_products(_bracket_items(x, y, cols, z, c))


def _bracket_items(x, y, cols, z, c):
    """The sum_products items of bracket_defect, column by column."""
    for k in cols:
        for s, v in y[k].items():
            for r, u in x[s].items():
                yield (k, r), u, v, 1
        for s, v in x[k].items():
            for r, u in y[s].items():
                yield (k, r), u, v, -1
        if z is not None:
            for r, u in z[k].items():
                yield (k, r), u, c, -1


def rref(rows):
    """Reduced row echelon form of sparse rows.  Returns (rows, pivot_columns).

    Each row is a {column: entry} dict; the input rows are copied, without
    any zero entry, and left as they are.  The result holds one row per
    pivot column, in column order, each with entry 1 at its pivot; the
    zero rows of the reduced form are dropped, so the result is the
    canonical reduced form.  With at least as many rows as columns, a rank
    mod P equal to the column count certifies full column rank, and the
    result is then one unit row per column, formed with no exact
    elimination.  Every other case runs the exact elimination.
    """
    cols = sorted({j for row in rows for j, x in row.items() if x})
    if len(rows) >= len(cols) and _full_rank_mod_p(rows, len(cols)):
        return [{c: QI_ONE} for c in cols], cols
    return _eliminate(_copy(rows))


def _copy(rows):
    """The rows as new dicts without their zero entries."""
    return [{j: x for j, x in row.items() if x} for row in rows]


def _full_rank_mod_p(rows, target: int) -> bool:
    """Whether the rows reach rank target mod P.  A rank can only fall mod
    P, so when target is the most the rows can have, True proves that their
    exact rank is target.  False when P divides the denominator of an entry
    it reads.

    Each row is reduced mod P by the pivot rows found so far, the lowest
    column first, and a row that keeps an entry adds a pivot row; the rows
    after the target-th pivot row are not read."""
    pivot_rows: dict = {}
    for row in rows:
        if len(pivot_rows) == target:
            break
        r = residues(row, P, I)
        if r is None:
            return False
        while r:
            c = min(r)
            pivot = pivot_rows.get(c)
            if pivot is None:
                inv = pow(r[c], -1, P)
                pivot_rows[c] = {j: x * inv % P for j, x in r.items()}
                break
            f = r.pop(c)
            for j, y in pivot.items():
                if j != c:
                    if x := (r.get(j, 0) - f * y) % P:
                        r[j] = x
                    else:
                        r.pop(j, None)
    return len(pivot_rows) == target


def _eliminate(rows):
    """The exact Gauss-Jordan behind rref, on copied rows without zero
    entries, which it reduces in place.

    The columns are taken in increasing order.  A column -> rows index lets
    each pivot step touch only the rows that hold its column, and the pivot
    row is the shortest of those not yet used, which keeps the fill-in low.
    The pivot row is divided by its pivot read through ``QI.of``, so every
    reduced row holds only ``QI`` entries.
    """
    holders: dict = {}
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    unused = set(range(len(rows)))
    reduced, pivots = [], []
    for c in sorted(holders):
        candidates = holders[c] & unused
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (len(rows[i]), i))
        unused.remove(p)
        inv = QI.of(rows[p][c])
        pivot_row = rows[p] = {j: x / inv for j, x in rows[p].items()}
        for i in holders[c] - {p}:
            row = rows[i]
            f = row[c]
            for j, y in pivot_row.items():
                x = row.get(j)
                if x is None:
                    row[j] = -f * y
                    holders[j].add(i)
                elif x := x - f * y:
                    row[j] = x
                else:
                    del row[j]
                    holders[j].discard(i)
        reduced.append(pivot_row)
        pivots.append(c)
        if not unused:
            break
    return reduced, pivots


def rank(rows):
    """The rank of sparse rows.  A rank mod P that reaches the number of
    nonzero rows or of columns is the rank, with no exact elimination;
    otherwise the exact elimination gives it."""
    rows = _copy(rows)
    bound = min(sum(1 for row in rows if row), len(set().union(*rows)))
    if _full_rank_mod_p(rows, bound):
        return bound
    return len(_eliminate(rows)[1])


def kernel(vectors):
    """A basis of the relations {j: c_j} with sum_j c_j * vectors[j] = 0.

    The vectors are sparse {key: entry} dicts whose keys need only be
    sortable.  They are transposed once into one row per key, over the
    columns j; each free column fc then gives one relation: 1 at fc and
    minus each reduced row's fc entry at that row's pivot column.  Each
    relation is then checked: the sums c_j * vectors[j] of all of them go
    to one ``sum_products`` call, and a total left raises EliminationError.
    """
    by_key: dict = {}
    for j, v in enumerate(vectors):
        for k, x in v.items():
            by_key.setdefault(k, {})[j] = x
    # perfbench/layerkernels.py sizes each row list rref is handed by its
    # first row, so an empty list never goes there
    red, pivots = rref([by_key[k] for k in sorted(by_key)]) if by_key else ([], [])
    pivot_cols = set(pivots)
    basis = {fc: {fc: QI_ONE} for fc in range(len(vectors)) if fc not in pivot_cols}
    for row, pc in zip(red, pivots):
        for j, x in row.items():
            if j != pc:
                basis[j][pc] = -x
    relations = list(basis.values())
    defect = sum_products(((r, k), c, x, 1) for r, rel in enumerate(relations)
                          for j, c in rel.items() for k, x in vectors[j].items())
    if defect:
        raise EliminationError(f"kernel relation {min(defect)[0]} leaves "
                               f"{len(defect)} nonzero entries")
    return relations


def inverse(rows):
    """The inverse of the n x n matrix given by its n sparse rows, as sparse rows."""
    n = len(rows)
    if any(j >= n for row in rows for j in row):
        raise ValueError("matrix is not square")
    if not all(rows):
        raise ValueError("matrix is singular")
    red, pivots = rref([{**row, n + i: 1} for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [{j - n: x for j, x in row.items() if j >= n} for row in red]


def in_span(vectors, targets) -> list:
    """Whether each sparse vector of targets is a linear combination of the
    vectors, one verdict per target, in order.

    The vectors are reduced once.  A target less its entry at each pivot
    times that pivot's row is zero exactly when it lies in their span.
    """
    red, pivots = rref(vectors)
    verdicts = []
    for target in targets:
        residual = combine(((j, -target[pc] * y) for row, pc in zip(red, pivots)
                            if pc in target for j, y in row.items()), dict(target))
        verdicts.append(not any(residual.values()))
    return verdicts
