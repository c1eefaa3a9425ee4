"""The per-item routines that the batched ones replaced, the oracles of
each batch: one kernel call per pairing of two bilinears
(``central_pairing``, through the two-matrix ``trace_items``), per
membership verdict (``matrix_membership``), per pair of the polarization
table (``polarization_tables``, the body of ``Polarization``'s
construction), per Gram and dual row (``_dual_basis``) and per quadratic
(``quadratic_from_matrix``)."""

from itertools import chain
from types import MappingProxyType

from minrep import linalg
from minrep.oscrep import AlgebraError, FormSpec
from minrep.scalars import QI, QI_ZERO, sum_products
from minrep.weylalg import (_IDENTITY, _ONE_MONO, _ZERO, Polarization, WeylElement, commutator,
                            normal_product)


def trace_items(a: dict, b: dict, w: int):
    """(0, a_ik, b_ki, w) for each product in tr(ab), for sum_products, with
    a and b given as {(row, col): entry} of their nonzero entries."""
    return ((0, x, y, w) for (i, k), x in a.items() if (y := b.get((k, i))))


def central_pairing(x_blocks, y_blocks) -> QI:
    """Closed-form central term 2 tr(gamma_x beta_y) - 2 tr(beta_x gamma_y).

    Each argument is a bilinear's (beta, gamma) blocks from
    ``quadratic_blocks``, each as {(i, j): entry}, built once per bilinear
    by the caller, so both traces are summed over nonzero entries only, in
    one kernel call.  This is the trace-form cocycle produced by the double
    contractions and serves as the matrix-side cross-check of the symbolic
    scalar part.
    """
    bx, gx = x_blocks
    by, gy = y_blocks
    return sum_products(chain(trace_items(gx, by, 2),
                              trace_items(bx, gy, -2))).get(0, QI_ZERO)


def matrix_membership(x: dict, spec: FormSpec) -> bool:
    """Whether X, given as {(row, col): entry} of its nonzero QI entries,
    lies in the family's algebra: X*beta + beta X = 0 and t(X) sigma +
    sigma X = 0 for the forms the spec has, or, for sp_real, X J + J t(X)
    = 0 with X of the real shape [[a, conj b], [b, conj a]].

    Each condition is summed over X's nonzero entries (and the form's), so
    no dense product is formed.  An entry outside the form's size raises.
    """
    n = spec.size
    if not all(0 <= i < n and 0 <= k < n for i, k in x):
        raise AlgebraError(f"matrix size does not match the {spec.family} form ({n})")
    nonzero = [(i, k, v) for (i, k), v in x.items()]
    trans = [(k, i, v) for i, k, v in nonzero]
    if spec.family == "sp_real":
        # the real shape: moving an entry by half the size in both indices conjugates it
        h = n // 2
        return (_form_vanishes(nonzero, spec.index["sympl"], trans)
                and {((i + h) % n, (k + h) % n): v.conj() for i, k, v in nonzero} == x)
    star = [(k, i, v.conj()) for i, k, v in nonzero]
    if spec.family == "u_pq":
        return _form_vanishes(star, spec.index["beta"], nonzero)
    if spec.family == "so_star":
        # the two forms fix the block shape [[u, v], [v*, -u^T]] with u
        # antihermitian and v antisymmetric, so X is traceless
        return (_form_vanishes(star, spec.index["beta"], nonzero)
                and _form_vanishes(trans, spec.index["sigma"], nonzero))
    raise AlgebraError(f"unknown form family {spec.family!r}")


def _form_vanishes(left, form, right) -> bool:
    """Whether L F + F R = 0, for L and R given as (row, col, value) lists
    of their nonzero entries and F as its nonzero entries by row and by
    column."""
    rows, cols = form
    return not sum_products(chain(
        (((i, j), v, f, 1) for i, k, v in left for j, f in rows.get(k, ())),
        (((i, j), f, v, 1) for k, j, v in right for i, f in cols.get(k, ()))))


def _dual_basis(basis: list[dict]) -> list[dict]:
    """The basis dual to `basis` under the trace form tr(xy), each matrix
    as {(row, col): entry}.

    The Gram entry tr(x_a x_b) sums v * w over the entries v = x_a[i][k]
    and w = x_b[k][i], so an index from each position to the basis
    matrices nonzero there reaches only the pairs that share one.
    """
    at: dict = {}
    for b, x in enumerate(basis):
        for ik, v in x.items():
            at.setdefault(ik, []).append((b, v))
    gram = [sum_products((b, v, w, 1) for (i, k), v in x.items() for b, w in at.get((k, i), ()))
            for x in basis]
    if not all(c.is_real() for row in gram for c in row.values()):
        raise AlgebraError("the trace form is not real on the basis")
    # dual a = sum_b inv[a][b] basis[b], over the nonzeros of both
    return [sum_products((ik, c, v, 1) for b, c in inv_row.items() for ik, v in basis[b].items())
            for inv_row in linalg.inverse(gram)]


def polarization_tables(phi, phi_tilde):
    """(products, table) of the polarization (phi, phi_tilde), one
    commutator and one normal product per pair (a, b)."""
    products = {}
    table = []
    for a, ft in enumerate(phi_tilde):
        row = []
        for b, f in enumerate(phi):
            if commutator(f, ft) != (_IDENTITY if a == b else _ZERO):
                raise ValueError("polarization does not satisfy the CCR pairing")
            prod = normal_product(ft, f)
            terms = prod.without_scalar().terms
            if len(terms) != 1 or next(iter(terms)) in products:
                raise ValueError("phi~_a phi^b do not normal-order to distinct monomials")
            (mono, c), = terms.items()
            products[mono] = (a, b, c)
            row.append((mono, c, prod.scalar_part()))
        table.append(tuple(row))
    return MappingProxyType(products), tuple(table)


def quadratic_from_matrix(x, pol: Polarization) -> WeylElement:
    """The literal bilinear sum_{ab} phi~_a X_ab phi^b, not normal subtracted,
    for X given as {(a, b): X_ab}.

    Reordering constants (e.g. b b* = b*b + 1) are kept, so the map is an
    exact Lie algebra homomorphism on matrices; any scalar offset against
    other conventions is visible in the output rather than absorbed.  Each
    entry X_ab adds X_ab c_ab on its own monomial and X_ab times the scalar
    of phi~_a phi^b, both from pol.table.
    """
    n = pol.size
    items = []
    for (a, b), v in x.items():
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"matrix must be {n}x{n} to match the polarization")
        mono, c, scalar = pol.table[a][b]
        items.append((mono, v, c, 1))
        if scalar:
            items.append((_ONE_MONO, v, scalar, 1))
    return WeylElement._nonzero(sum_products(items))
