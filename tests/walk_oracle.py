"""The walk-then-sum column route that ``weylalg.column`` replaced, kept
verbatim as the oracle of the one fused walker: ``walk`` yields each
term's image of each state, ``column_sum`` sums one column's images,
``columns`` holds an operator's columns in a ``linalg.ColumnMap``, and
``apply`` maps a polynomial through the images of all its terms.  The
harmonic eigen-checks are kept in their per-operator form: one column map
per operator (``operator_columns``) and one ``sum_products`` call per
eigen-defect (``_eigen_defect``, read by ``verify_mode``)."""

from functools import partial
from itertools import chain

from minrep import harmonics
from minrep.linalg import ColumnMap
from minrep.lincomb import combine
from minrep.poly import Poly, operator_terms
from minrep.reports import Report, render_defect
from minrep.scalars import sum_products
from minrep.weylalg import WeylElement


def walk(terms, states):
    """(tag, image, c, q, weight) for each (state, c) of states and each of
    the walker terms that does not annihilate the state: the term q c*..c
    maps c times the state to c * q * weight times the image.

    A state is an occupation or exponent tuple n, standing for a*^n|0> or
    for z^n.  Each annihilator takes one from its entry k and brings down
    the int k, each creator adds one, and weight is the product of those
    ints.  The tags are the caller's: a Fock module tags each term with
    the row offset of its operator.
    """
    for state, c in states:
        for tag, q, ann, cre in terms:
            occ = list(state)
            weight = 1
            for i in ann:
                k = occ[i]
                if not k:
                    break
                weight *= k
                occ[i] = k - 1
            else:
                for i in cre:
                    occ[i] += 1
                yield tag, tuple(occ), c, q, weight


def column_sum(items) -> dict:
    """The {key: total} of (key, value) items with no zero total: one column
    of a linear map.  Int values are summed as ints, so an int column stays
    in ints."""
    return {k: v for k, v in combine(items, {}).items() if v}


def columns(w: WeylElement) -> ColumnMap:
    """w as a map of its columns, each the image of a unit monomial,
    formed by one walk on its first read."""
    return ColumnMap(partial(_column, operator_terms(w)))


def _column(terms, m: tuple) -> dict:
    return column_sum((image, q * w) for _, image, _, q, w in walk(terms, ((m, 1),)))


def apply(terms, p: Poly) -> Poly:
    """The operator of the walker terms applied to p: the images of its
    terms on p's terms, summed in one ``sum_products`` call, which leaves
    the zero totals out."""
    return Poly._nonzero(sum_products(
        (image, c, q, w) for _, image, c, q, w in walk(terms, p.terms.items())))


def operator_columns() -> dict:
    """A new ``columns`` map of each operator the eigen-checks read,
    keyed "laplacian", "H", "L^2" and "L3": each column, the image of a
    unit monomial, is walked on its first read and then kept, so one
    command that shares these maps forms each column once."""
    return {"laplacian": columns(harmonics._LAPLACIAN), "H": columns(harmonics._HAMILTONIAN),
            "L^2": columns(harmonics._L_SQUARED), "L3": columns(harmonics._L[3])}


def verify_mode(h: Poly, n: int, l: int, m: int, cols: dict) -> Report:
    """Exact eigen-checks: harmonicity, H, L^2 and L3, read off the column
    maps `cols` of ``operator_columns``.  Each defect (X - c) h is one
    ``sum_products`` call over the terms of h, each term's column of X
    and -c times the term, so no operator is applied to h.  A failing
    record renders its defect as a bounded ``Poly``."""
    rep = Report(f"harmonic/{n},{l},{m}")
    for record, op, eigen in (("laplacian", "laplacian", 0), ("conformal-hamiltonian", "H", n),
                              ("L2", "L^2", l * (l + 1)), ("L3", "L3", m)):
        defect = Poly._nonzero(_eigen_defect(cols[op], h.terms, eigen))
        rep.add(f"mode/{n},{l},{m}/{record}", defect.is_zero(), defect=render_defect(defect))
    rep.add(f"mode/{n},{l},{m}/nonzero", not h.is_zero())
    return rep


def _eigen_defect(op: ColumnMap, terms: dict, eigen: int) -> dict:
    """The nonzero {monomial: total} of (X - eigen) h, for X's column map
    and h's terms, summed in one ``sum_products`` call."""
    return sum_products(chain(((r, c, u, 1) for mono, c in terms.items() for r, u in op[mono].items()),
                              ((mono, c, -eigen, 1) for mono, c in terms.items() if eigen)))
