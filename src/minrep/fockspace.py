"""Level-truncated Fock modules with exact sparse matrices.

States are unnormalized occupation monomials a*^n |0> so that every matrix
entry stays Gaussian rational; the squared norms are the factorial weights
prod n_i!.  An operator is held as its columns in a ``linalg.ColumnMap``,
each a sparse {row: entry} vector formed the first time it is read, so a
check forms only the columns it reads.  Its images past the cutoff are
dropped, so a product of matrices matches the operator product only on
the columns that ``safe_columns`` derives from the level raises.  That
level budget is the one overflow mechanism: every identity consumed from
matrices is restricted to those columns.

A column is one ``weylalg.column`` walk of the state over the
operator's terms, each tagged with a row offset, which sums the images
as it walks: a real-integer operator's columns stay in ints, and one walk
forms a state's column of one operator or, stacked, of several.  The
lowest-weight decomposition forms each state's stacked lowering column
in one walk.  Weights are read in ints off one table of the diagonal
operators' terms, which keys every state's (level, weight) block in one
pass.

A dual pair (A, B), with B the flavor gauge algebra, is built once by
``dual_pair``; the decomposition, the closure and the helicity read it.
The closure sums each of its batches in one kernel call: the central
terms of all pairs of bilinears, from their pairing blocks indexed by
position, with no dense matrix; and, a fixed-size chunk of sampled pairs
at a time, their brackets and their matrices' membership.  Its Fock cross-check compares
each sampled commutator's columns with the bracket of its two operators'
columns in one ``linalg.bracket_defect`` call.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import combinations, combinations_with_replacement
from math import comb
from operator import mul
from typing import NamedTuple

from . import linalg, oscrep
from .lincomb import LinComb
from .reports import Report, render_defect
from .scalars import QI_I, QI_ONE, QI_ZERO, int_if_integer, sum_products
from .weylalg import (Mode, Polarization, SpanError, WeylElement, WeylMonomial, column,
                      column_terms, commutator, commutators, matrix_from_quadratic,
                      mode_action_matrix, quadratic_blocks, quadratics_from_matrices,
                      standard_polarization)


class FockError(ValueError):
    pass


def basis_size(num_modes: int, cutoff: int) -> int:
    """States of total occupation <= cutoff over num_modes modes: the sum over
    j of comb(num_modes + j - 1, j), which is comb(num_modes + cutoff, cutoff)
    (hockey-stick identity), so a huge cutoff costs no loop."""
    return comb(num_modes + cutoff, cutoff)


@dataclass(frozen=True)
class TruncatedFock:
    modes: tuple[Mode, ...]
    cutoff: int
    states: tuple[tuple[int, ...], ...]
    index: dict

    @property
    def dim(self) -> int:
        return len(self.states)

    def level(self, i: int) -> int:
        return sum(self.states[i])


def enumerate_basis(modes, cutoff: int, max_states: int | None = None) -> TruncatedFock:
    """Occupation vectors with total level <= cutoff, graded then lex order."""
    if cutoff < 0:
        raise FockError("cutoff must be nonnegative")
    modes = tuple(modes)
    k = len(modes)
    total = basis_size(k, cutoff)
    if max_states is not None and total > max_states:
        raise FockError(f"basis would need {total} states, over the cap {max_states}")
    states = []
    for level in range(cutoff + 1):
        # each multiset of modes comes once, so no state repeats
        level_states = []
        for combo in combinations_with_replacement(range(k), level):
            occ = [0] * k
            for m in combo:
                occ[m] += 1
            level_states.append(tuple(occ))
        states.extend(sorted(level_states))
    fock = TruncatedFock(modes=modes, cutoff=cutoff, states=tuple(states),
                         index={s: i for i, s in enumerate(states)})
    if fock.dim != total:
        raise FockError("basis enumeration does not match the closed-form count")
    return fock


@dataclass(frozen=True)
class SparseOperator:
    """An operator on a truncated Fock basis, held as its columns: entries
    is a ``linalg.ColumnMap`` {col: {row: QI}} with no zero entry, which
    forms each column the first time it is read."""

    entries: dict
    level_raise: int
    fock: TruncatedFock

    def apply(self, vec: dict) -> dict:
        """Image of a {state: entry} vector, reaching only the vector's columns."""
        return sum_products((r, v, x, 1) for c, x in vec.items()
                            for r, v in self.entries[c].items())


def safe_columns(fock: TruncatedFock, *raises: int) -> list[int]:
    """The columns whose level survives applying operators with the given raises."""
    budget = fock.cutoff - sum(max(0, r) for r in raises)
    return [i for i in range(fock.dim) if fock.level(i) <= budget]


def operator_matrix(w: WeylElement, fock: TruncatedFock) -> SparseOperator:
    """Exact matrix of a Weyl element on the truncated occupation basis,
    each column walked the first time it is read."""
    return SparseOperator(linalg.ColumnMap(partial(_column, _terms([w], fock), fock)),
                          max(0, w.max_level_raise()), fock)


def _terms(ws, fock: TruncatedFock) -> list:
    """The walker terms of the elements ws, the k-th one's tagged with the
    row offset k * dim, grouped by how far they raise the level: entry r
    holds the terms that raise it by at most r, up to the largest raise.
    Raises FockError on a mode outside the module."""
    pos = {m: i for i, m in enumerate(fock.modes)}
    terms = []
    for k, w in enumerate(ws):
        for m in w.modes():
            if m not in pos:
                raise FockError(f"mode {m} is not part of this Fock module")
        terms += column_terms(w, pos, k * fock.dim)
    top = max([len(cre) - len(ann) for _, _, ann, cre in terms] + [0])
    return [[t for t in terms if len(t[3]) - len(t[2]) <= r] for r in range(top + 1)]


def _column(terms, fock: TruncatedFock, col: int) -> dict:
    """Column col: the walk of basis state col over the terms of ``_terms``
    that the cutoff leaves room for, each image at its term's row offset
    plus the image's index.

    Images past the cutoff are dropped; safe_columns keeps every identity
    off the columns where that happens.
    """
    state = fock.states[col]
    index = fock.index
    return {offset + index[image]: v for (offset, image), v in
            column(terms[min(fock.cutoff - sum(state), len(terms) - 1)], state).items()}


def _weight_table(ws, fock: TruncatedFock) -> list:
    """Each diagonal operator's (constant, per-mode coefficients), read off
    its terms once in ints, so that its eigenvalue on a state s is
    const + sum_m c_m s_m.

    Each operator must be a scalar plus number operators m* m with real
    integer coefficients.
    """
    pos = {m: i for i, m in enumerate(fock.modes)}
    table = []
    for w in ws:
        const, coeffs = 0, [0] * len(pos)
        for mono, q in w.terms.items():
            if mono.creators != mono.annihilators or len(mono.creators) > 1:
                raise FockError("operator is not diagonal in the occupation basis")
            c = int_if_integer(q)
            if type(c) is not int:
                raise FockError(f"coefficient {q} of {mono} is not a real integer")
            if not mono.creators:
                const = c
            elif mono.creators[0] not in pos:
                raise FockError(f"mode {mono.creators[0]} is not part of this Fock module")
            else:
                coeffs[pos[mono.creators[0]]] = c
        table.append((const, coeffs))
    return table


def _weights(table: list, state: tuple) -> tuple:
    """The eigenvalues on one occupation state of a _weight_table's operators."""
    return tuple([const + sum(map(mul, coeffs, state)) for const, coeffs in table])


def diagonal_weights(w: WeylElement, fock: TruncatedFock) -> list[int]:
    """Eigenvalue of w on each basis state, read off its _weight_table."""
    table = _weight_table([w], fock)
    return [_weights(table, s)[0] for s in fock.states]


def helicity_spectrum(fock: TruncatedFock, level: int) -> dict:
    """Histogram of the helicity, B's Cartan in the (u(2,2), u(1)) pair, on one level."""
    weights = diagonal_weights(dual_pair("u_pq", 2).gauge.cartan[0], fock)
    return dict(sorted(Counter(h for h, s in zip(weights, fock.states)
                               if sum(s) == level).items()))


# ---------------------------------------------------------------------------
# Lowest-weight decomposition


@dataclass(frozen=True)
class MultiplicityRow:
    level: int
    weight: tuple          # Cartan eigenvalues of the algebra
    isospin_double: int    # 2j of the gauge irrep
    multiplicity: int


@dataclass
class MultiplicityTable:
    rows: list
    lowest_weight: dict    # the lowest_weight_vectors the rows were built from

    def as_dicts(self):
        return [{"level": r.level, "weight": list(r.weight),
                 "isospin_2j": r.isospin_double, "multiplicity": r.multiplicity}
                for r in sorted(self.rows,
                                key=lambda r: (r.level, r.weight, r.isospin_double))]

    def lw_dimension(self, level: int) -> int:
        return sum(r.multiplicity * (r.isospin_double + 1)
                   for r in self.rows if r.level == level)

    def rows_at(self, level: int) -> list:
        return sorted((r for r in self.rows if r.level == level),
                      key=lambda r: (r.weight, r.isospin_double))


def lowest_weight_vectors(alg, fock: TruncatedFock):
    """Joint kernel of the lowering operators, block by (level, weight).

    Returns {(level, weight): [vector]} with each vector a {state index: QI}
    dict of its nonzero entries, all on the block's basis states.  The
    Cartan operators must be diagonal in the occupation basis, which holds
    for every generator set here, so the weight blocks are coordinate
    subspaces and the kernel can be taken block by block.  Every state's
    key is read in one pass, off the Cartan operators' _weight_table.  A
    block state's vector stacks its columns of all the lowering
    operators, the k-th operator's row r at k * dim + r, formed by one
    walk over all of their terms.
    """
    terms = _terms(alg.F, fock)
    table = _weight_table(alg.H, fock)
    blocks: dict[tuple, list[int]] = {}
    for i, s in enumerate(fock.states):
        blocks.setdefault((sum(s), _weights(table, s)), []).append(i)
    out = {}
    for key, cols in sorted(blocks.items()):
        kern = linalg.kernel([_column(terms, fock, c) for c in cols])
        if kern:
            out[key] = [{cols[j]: x for j, x in v.items()} for v in kern]
    return out


def joint_weight_decomposition(pair: "DualPair", fock: TruncatedFock) -> MultiplicityTable:
    """Organize lowest-weight vectors of the pair's A (its Chevalley set)
    into irreps of its B, which must have rank one.

    B's Cartan operator is diagonal, so each (level, weight) block's
    lowest-weight vectors split by B-charge q into spaces L_q.  B's raising
    operator E must map L_q into L_{q+2}, otherwise an error is raised; the
    irrep of highest weight q >= 0 then occurs dim ker(E on L_q) times.
    """
    gauge = pair.gauge
    if len(gauge.cartan) != 1 or len(gauge.raising) != 1:
        raise FockError(f"the gauge ladder needs B of rank one, not {gauge.label}")
    lw = lowest_weight_vectors(pair.chevalley, fock)
    charge = _weight_table(gauge.cartan, fock)
    e = operator_matrix(gauge.raising[0], fock)
    rows = []
    for (level, weight), vecs in sorted(lw.items()):
        buckets: dict[int, list] = {}
        for v in vecs:
            qs = {_weights(charge, fock.states[c])[0] for c in v}
            if len(qs) != 1:
                raise FockError("lowest-weight vector mixes gauge charges")
            buckets.setdefault(qs.pop(), []).append(v)
        for q, vs in sorted(buckets.items()):
            target = buckets.get(q + 2)
            images = [e.apply(v) for v in vs]
            raised = [image for image in images if image]
            if raised and not (target and all(linalg.in_span(target, raised))):
                raise FockError("gauge raising leaves the lowest-weight space")
            m = len(linalg.kernel(images)) if q >= 0 else 0
            if m:
                rows.append(MultiplicityRow(level, weight, q, m))
    return MultiplicityTable(rows=rows, lowest_weight=lw)


# ---------------------------------------------------------------------------
# Flavored bilinears and the finite-cutoff closure of the commutator algebra


def _flavored(mode: Mode, flavor: int) -> Mode:
    return (mode[0], flavor) + mode[1:]


def flavor_sum(w: WeylElement, flavors: int) -> WeylElement:
    """The sum of w's copies in flavors 1..flavors, summed in one kernel call."""
    return WeylElement._nonzero(sum_products(
        (WeylMonomial.make([_flavored(m, f) for m in mono.creators],
                           [_flavored(m, f) for m in mono.annihilators]), q, 1, 1)
        for f in range(1, flavors + 1) for mono, q in w.terms.items()))


class GaugeAlgebra(NamedTuple):
    """The B side of a dual pair: o(N), u(N) or sp(2N) acting on flavors."""

    label: str
    span: tuple      # spanning quadratics
    cartan: tuple    # commuting diagonal operators
    raising: tuple   # a raising operator for each positive root


# Mode kinds of one flavor and, per unit of k, the modes of each kind:
# sp_real uses c_1..c_k, u_pq a_1..a_k and b_1..b_k, so_star a_1..a_2k
# and b_1..b_2k.
_MODE_SHAPES = {"sp_real": (("c",), 1), "u_pq": (("a", "b"), 1), "so_star": (("a", "b"), 2)}


@dataclass(frozen=True)
class DualPair:
    """A reductive dual pair (A, B) in sp(W) over `flavors` copies of one
    flavor's modes (Howe, Trans. AMS 313, 1989).

    A is sp(2k,R), u(k,k) or so*(4k), spanned by quadratics in one
    flavor's modes and acting on N flavors through flavor sums.  B is the
    flavor gauge algebra o(N), u(N) or sp(2N), which commutes with those
    sums.  With one flavor B is written in one flavor's modes, those of
    A's Chevalley set.  Each part is built on first use, so a command
    builds only what it reads.
    """

    family: str
    k: int
    flavors: int = 1

    @property
    def _size(self) -> int:
        return _MODE_SHAPES[self.family][1] * self.k

    @cached_property
    def modes(self) -> tuple:
        """One flavor's modes."""
        return tuple((kind, i) for kind in _MODE_SHAPES[self.family][0]
                     for i in range(1, self._size + 1))

    @cached_property
    def polarization(self) -> Polarization | None:
        """The standard polarization of the a and b modes, the one A's
        Chevalley set is read through; none for sp_real."""
        return None if self.family == "sp_real" else standard_polarization(self._size)

    @cached_property
    def spec(self) -> oscrep.FormSpec:
        return oscrep.form_spec(self.family, self.k)

    @cached_property
    def a_span(self) -> tuple:
        """A's spanning quadratics in one flavor's modes.

        sp_real: the anti-hermitian quadratics over c_1..c_k, a real basis
                 of sp(2k,R) whose brackets stay in the real span.
        u_pq:    phi~ X phi for a real basis of u(k,k), scalar part dropped.
        so_star: likewise for so*(4k).
        """
        if self.family == "sp_real":
            mono = WeylElement.monomial
            out = [mono([c], [c], QI_I) for c in self.modes]
            for x, y in combinations(self.modes, 2):
                out += [mono([x], [y]) - mono([y], [x]),
                        mono([x], [y], QI_I) + mono([y], [x], QI_I)]
            for x, y in combinations_with_replacement(self.modes, 2):
                out += [mono([x, y], []) - mono([], [x, y]),
                        mono([x, y], [], QI_I) + mono([], [x, y], QI_I)]
            return tuple(out)
        if self.family == "u_pq":
            mats = oscrep.unitary_basis([1] * self.k + [-1] * self.k)
            if not all(oscrep.matrix_membership(mats, self.spec)):
                raise FockError("u(p,q) basis element fails membership")
            if len(mats) != (2 * self.k) ** 2:
                raise FockError("u(p,q) basis has the wrong dimension")
        else:
            mats = oscrep.so_star_basis(self.k)
        return tuple(q.without_scalar() for q in quadratics_from_matrices(mats, self.polarization))

    @cached_property
    def chevalley(self) -> oscrep.GeneratorSet | None:
        """A's Chevalley set; none for sp_real.  The builder is looked up on
        `oscrep` when this is first read, so a tracer or a test that wraps
        it there sees the call."""
        if self.family == "u_pq":
            return oscrep.unn_generators(self.k)
        if self.family == "so_star":
            return oscrep.so_star_generators(self.k)
        return None

    @cached_property
    def gauge(self) -> GaugeAlgebra:
        """B, from the hops sum_i x*_{f i} y_{g i} between flavors f and g:

        o(N):   L_fg = hop(c, f; c, g) - hop(c, g; c, f) for f < g;
        u(N):   E_fg = hop(a, f; a, g) - hop(b, g; b, f), Cartan E_ff;
        sp(2N): u(N) plus S_fg = hop(a, f; b, g) + hop(a, g; b, f) for
                f <= g, the diagonal term written once, and each S_fg*.
        """
        n = self.flavors
        mode = _flavored if n > 1 else (lambda m, f: m)
        fl = range(1, n + 1)

        def hop(x, f, y, g):
            return WeylElement({WeylMonomial.make([mode((x, i), f)], [mode((y, i), g)]): QI_ONE
                                for i in range(1, self._size + 1)})

        if self.family == "sp_real":
            span = tuple(hop("c", f, "c", g) - hop("c", g, "c", f)
                         for f in fl for g in fl if f < g)
            return GaugeAlgebra(f"o({n})", span, (), ())
        u = {(f, g): hop("a", f, "a", g) - hop("b", g, "b", f) for f in fl for g in fl}
        cartan = tuple(u[f, f] for f in fl)
        upper = tuple(u[f, g] for f in fl for g in fl if f < g)
        if self.family == "u_pq":
            return GaugeAlgebra(f"u({n})", tuple(u.values()), cartan, upper)
        s = {(f, g): hop("a", f, "b", g) + hop("a", g, "b", f) if f < g else hop("a", f, "b", f)
             for f in fl for g in fl if f <= g}
        for f in fl:
            if commutator(s[f, f], s[f, f].adjoint()) != u[f, f]:
                raise oscrep.AlgebraError(
                    f"generator invariant fails: sp({2 * n}): [S_{f}{f}, S_{f}{f}*] != E_{f}{f}")
        raising = tuple(s.values())
        return GaugeAlgebra(f"sp({2 * n})",
                            raising + tuple(x.adjoint() for x in raising) + tuple(u.values()),
                            cartan, raising + upper)


def dual_pair(family: str, k: int, flavors: int = 1) -> DualPair:
    """The dual pair of sp_real, u_pq or so_star at rank k over N flavors."""
    if family not in _MODE_SHAPES:
        raise FockError(f"unknown dual-pair family {family!r}")
    return DualPair(family, k, flavors)


def central_pairing(blocks) -> dict:
    """{(s, t): omega} of each pair s <= t of bilinears whose closed-form
    central term omega = 2 tr(gamma_s beta_t) - 2 tr(beta_s gamma_t) is not
    zero.

    blocks[s] is bilinear s's (beta, gamma) blocks from ``quadratic_blocks``,
    each as {(i, j): entry}, built once per bilinear by the caller.  Every
    pair's traces are summed in one kernel call keyed by (s, t), and each
    entry meets only the entries at its transposed position, so only
    products of nonzero entries are formed.  This is the trace-form
    cocycle produced by the double contractions and serves as the
    matrix-side cross-check of the symbolic scalar part.
    """
    return sum_products(_pairing_items(blocks))


def _pairing_items(blocks):
    """The trace items of each pair s <= t, s from the last bilinear down:
    bilinear s joins the position indexes just before its own items are
    formed, so the indexes then hold exactly the bilinears t >= s."""
    beta_at: dict = {}
    gamma_at: dict = {}
    for s in reversed(range(len(blocks))):
        beta, gamma = blocks[s]
        linalg.index_positions(beta_at, s, beta)
        linalg.index_positions(gamma_at, s, gamma)
        yield from linalg.trace_items(gamma, beta_at, 2, s)
        yield from linalg.trace_items(beta, gamma_at, -2, s)


def cross_check_basis_size(family: str, k: int, flavors: int, level: int) -> int:
    """States in the Fock basis of the closure check's matrix cross-check."""
    return basis_size(len(dual_pair(family, k).modes) * flavors, level)


# Pairs bracketed and tested per kernel call by the closure check, which
# holds one chunk's brackets and matrices at a time, so its memory is bounded.
_CLOSURE_CHUNK = 256


def truncated_closure_check(family: str, k: int, flavors: int, level: int,
                            pair_limit: int | None, max_states: int | None) -> Report:
    """Commutators of flavored bilinears close with central charge = flavors.

    Every pairwise commutator must decompose as (flavor-diagonal quadratic,
    identical across flavors, whose matrix lies in the family algebra) plus
    a scalar equal to flavors * (trace-form pairing of the two bilinears).
    Each chunk of ``_CLOSURE_CHUNK`` pairs is bracketed in one call and its
    matrices tested in one more; the records keep the order of the pairs.
    With level > 0 a sparse-matrix cross-check of a sample of commutators
    runs on a Fock truncation at that level, of at most `max_states` states.
    """
    rep = Report(f"closure/{family}/k{k}/N{flavors}")
    pair = dual_pair(family, k, flavors)
    elems, modes, pol, spec = pair.a_span, pair.modes, pair.polarization, pair.spec
    flavored = [flavor_sum(e, flavors) for e in elems]

    charges = []
    pairs = [(s, t) for s in range(len(elems)) for t in range(s, len(elems))]
    omegas = central_pairing([quadratic_blocks(e, modes)[1:] for e in elems])
    if pair_limit is not None and pair_limit < len(pairs):
        # keep every pair with a nonzero trace-form pairing (the central
        # charge is read off there), fill up with an even subsample
        keep = set(omegas)
        step = max(1, len(pairs) // pair_limit)
        sampled = [p for p in pairs[::step] if p not in keep]
        pairs = sorted(keep.union(sampled[:max(0, pair_limit - len(keep))]))
    for start in range(0, len(pairs), _CLOSURE_CHUNK):
        chunk = pairs[start:start + _CLOSURE_CHUNK]
        brackets = commutators([(flavored[s], flavored[t]) for s, t in chunk])
        structure = _closure_structure((br.without_scalar() for br in brackets), family,
                                       flavors, modes, pol, spec)
        for (s, t), br, (same, member) in zip(chunk, brackets, structure):
            scalar = br.scalar_part()
            rep.add(f"{family}/k{k}N{flavors}/pair{s:03d},{t:03d}/closure", same and member,
                    detail="flavor-uniform quadratic inside the algebra")
            omega = omegas.get((s, t), QI_ZERO)
            want = omega * flavors
            rep.add(f"{family}/k{k}N{flavors}/pair{s:03d},{t:03d}/central", scalar == want,
                    detail=f"scalar {scalar}, trace form {omega}",
                    defect=str(scalar - want))
            if omega:
                charges.append(scalar / omega)
    rep.add(f"{family}/k{k}N{flavors}/central-charge",
            bool(charges) and all(c == flavors for c in charges),
            detail=f"{len(charges)} nonzero pairings, all at charge {flavors}")
    if level > 0:
        _matrix_cross_check(rep, family, k, flavors, level, elems, flavored, max_states)
    return rep


def _closure_structure(quads, family, flavors, modes, pol, spec) -> list:
    """(same, member) of each commutator of quads: whether its flavor parts
    have one matrix, and whether that matrix lies in the algebra, every
    matrix tested in one membership call.  A commutator that is no flavor
    sum of quadratics in the modes is (False, False)."""
    split = []
    for quad in quads:
        try:
            parts = _flavor_parts(quad, flavors)
            if family == "sp_real":
                mats = [mode_action_matrix(p, modes) for p in parts]
            else:
                mats = [matrix_from_quadratic(p, pol) for p in parts]
        except SpanError:
            split.append(None)
        else:
            split.append((all(m == mats[0] for m in mats[1:]), mats[0]))
    # sign and transpose are irrelevant for sp_real: the family is stable under both
    members = iter(oscrep.matrix_membership([x[1] for x in split if x is not None], spec))
    return [(False, False) if x is None else (x[0], next(members)) for x in split]


def _flavor_parts(w: WeylElement, flavors: int) -> list:
    """w's part in each flavor 1..flavors, written in one flavor's modes.

    Raises SpanError on a monomial that is not in exactly one of them.
    """
    parts = [{} for _ in range(flavors)]
    for mono, q in w.terms.items():
        fs = {m[1] for m in mono.creators + mono.annihilators}
        if len(fs) != 1 or not 1 <= (f := fs.pop()) <= flavors:
            raise SpanError(f"monomial {mono} is not in one flavor of 1..{flavors}")
        parts[f - 1][WeylMonomial.make([_unflavored(m) for m in mono.creators],
                                       [_unflavored(m) for m in mono.annihilators])] = q
    return [WeylElement(p) for p in parts]


def _unflavored(mode: Mode) -> Mode:
    return mode[:1] + mode[2:]


def _matrix_cross_check(rep, family, k, flavors, level, elems, flavored, max_states):
    """Compare [x, y]'s matrix with mx my - my mx on the safe columns of a
    sample of pairs, through ``linalg.bracket_defect`` on the operators'
    columns, each sampled element's matrix built once and each column
    formed only when the bracket reads it; a pair with no safe column
    compares nothing and fails, and its detail names the --level that
    would compare it."""
    all_modes = sorted({m for w in flavored for m in w.modes()})
    fock = enumerate_basis(all_modes, level, max_states)
    n = len(elems)
    sample = sorted({0, n // 3, (2 * n) // 3, n - 1})
    mats = {s: operator_matrix(flavored[s], fock) for s in sample}
    for s in sample:
        for t in sample:
            if s >= t:
                continue
            sym = operator_matrix(commutator(flavored[s], flavored[t]), fock).entries
            cols = safe_columns(fock, mats[s].level_raise, mats[t].level_raise)
            defect = linalg.bracket_defect(mats[s].entries, mats[t].entries, cols, sym)
            detail = f"Fock cross-check at level {level}"
            if not cols:
                # the vacuum column survives once the level covers both raises
                raises = mats[s].level_raise + mats[t].level_raise
                detail += (f" compared no column: the two operators raise the level by "
                           f"{raises}, so --level {raises} compares the pair")
            rep.add(f"{family}/k{k}N{flavors}/matrix/pair{s:03d},{t:03d}",
                    bool(cols) and not defect, detail=detail,
                    defect=render_defect(LinComb._nonzero(defect)))
