from fractions import Fraction
from functools import partial

import pytest

import rootsys_oracle
from minrep import cli, rootsys
from minrep.rootsys import build_root_system, grade_by_highest_root, minimal_orbit_report


def test_counts_match_closed_forms():
    # (family, rank, expected algebra dimension)
    cases = [("A", 3, 15), ("A", 1, 3), ("B", 2, 10), ("C", 3, 21),
             ("D", 4, 28), ("G2", 2, 14), ("F4", 4, 52),
             ("E6", 6, 78), ("E7", 7, 133), ("E8", 8, 248)]
    for fam, rank, dim in cases:
        rs = build_root_system(fam, rank)
        assert rs.dim == dim
        assert len(rs.roots) == dim - rank
        assert len(rs.positive_roots) * 2 == len(rs.roots)


def test_invalid_families_rejected():
    with pytest.raises(rootsys.RootSystemError):
        build_root_system("B", 1)
    with pytest.raises(rootsys.RootSystemError):
        build_root_system("D", 2)
    with pytest.raises(rootsys.RootSystemError):
        build_root_system("E6", 7)
    with pytest.raises(rootsys.RootSystemError):
        build_root_system("Z", 4)


def test_cartan_matrix_properties():
    for fam, rank in [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("G2", 2), ("F4", 4)]:
        rs = build_root_system(fam, rank)
        c = rs.cartan_matrix
        for i in range(rank):
            assert c[i][i] == 2
            for j in range(rank):
                if i != j:
                    assert c[i][j] <= 0


def test_highest_root_is_maximal():
    for fam, rank in [("A", 3), ("C", 3), ("E6", 6)]:
        rs = build_root_system(fam, rank)
        roots = set(rs.roots)
        assert rs.highest_root in set(rs.positive_roots)
        for alpha in rs.simple_roots:
            shifted = tuple(t + a for t, a in zip(rs.highest_root, alpha))
            assert shifted not in roots


def _independent_a3_grading():
    """Oracle: enumerate the 12 roots e_i - e_j of sl4 directly and bin them
    by 2(r|theta)/(theta|theta) with theta = e_1 - e_4."""
    def unit(i):
        v = [Fraction(0)] * 4
        v[i] = Fraction(1)
        return v

    roots = []
    for i in range(4):
        for j in range(4):
            if i != j:
                roots.append([a - b for a, b in zip(unit(i), unit(j))])
    theta = [a - b for a, b in zip(unit(0), unit(3))]
    tt = sum(t * t for t in theta)
    dims = {-2: 0, -1: 0, 0: 3, 1: 0, 2: 0}
    for r in roots:
        e = 2 * sum(a * b for a, b in zip(r, theta)) / tt
        dims[int(e)] += 1
    return dims


def test_a3_grading_against_enumeration_oracle():
    expected = _independent_a3_grading()
    assert expected == {-2: 1, -1: 4, 0: 5, 1: 4, 2: 1}
    rs = build_root_system("A", 3)
    assert grade_by_highest_root(rs).dims == expected


def test_grading_shape_for_every_family():
    for fam, rank in [("A", 5), ("B", 4), ("C", 4), ("D", 5),
                      ("G2", 2), ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8)]:
        rs = build_root_system(fam, rank)
        g = grade_by_highest_root(rs)
        assert g.dims[2] == g.dims[-2] == 1
        assert g.dims[1] == g.dims[-1]
        assert sum(g.dims.values()) == rs.dim


def test_e8_g1_dimension():
    g = grade_by_highest_root(build_root_system("E8", 8))
    assert g.dims[1] == 56


def test_a1_grading_degenerate():
    g = grade_by_highest_root(build_root_system("A", 1))
    assert g.dims == {-2: 1, -1: 0, 0: 1, 1: 0, 2: 1}


def test_a1_principal_orbit_coincides_with_minimal():
    rs = build_root_system("A", 1)
    rep = minimal_orbit_report(rs)
    principal = rs.dim - rs.rank
    assert principal == 2
    assert rep.min_orbit_dim == principal


def test_report_examples():
    rep = minimal_orbit_report(build_root_system("E8", 8))
    assert (rep.dim_g, rep.centralizer_label, rep.dim_g1, rep.gk_dim) == (248, "E7", 56, 29)
    rep = minimal_orbit_report(build_root_system("A", 4))   # sl5
    assert rep.dim_g1 == 6 and rep.gk_dim == 4
    assert rep.centralizer_label == rootsys.canonical_label(["A2"], 1) == "A2+u(1)"
    rep = minimal_orbit_report(build_root_system("C", 3))
    assert rep.dim_g1 == 4 and rep.gk_dim == 3
    assert rep.centralizer_label == rootsys.canonical_label(["C2"], 0) == "B2"
    rep = minimal_orbit_report(build_root_system("D", 4))
    assert rep.dim_g1 == 8 and rep.gk_dim == 5
    assert rep.centralizer_label == rootsys.canonical_label(["A1", "A1", "A1"], 0)
    rep = minimal_orbit_report(build_root_system("B", 2))
    assert rep.dim_g1 == 2 and rep.gk_dim == 2


def test_table_rows_satisfy_identities_and_closed_forms():
    for rep in rootsys.table1_report():
        assert rep.identities_hold()
        fam = rep.algebra_label if rep.algebra_label[0] not in "ABCD" else rep.algebra_label[0]
        rank = 0 if fam == rep.algebra_label else int(rep.algebra_label[1:])
        g1, gk = rootsys.expected_dims(fam, rank)
        assert (rep.dim_g1, rep.gk_dim) == (g1, gk)
        assert rep.centralizer_label == rootsys.expected_centralizer(fam, rank)


def test_gk_dim_formulas_for_classical_ranges():
    for rank in range(2, 8):
        assert minimal_orbit_report(build_root_system("A", rank)).gk_dim == rank
    for rank in range(2, 7):
        assert minimal_orbit_report(build_root_system("C", rank)).gk_dim == rank


def _form(rs, a, b):
    """2(a|b), from the doubled Gram matrix."""
    return sum(x * g * y for x, row in zip(a, rs.gram) for g, y in zip(row, b))


def _searched_centralizer_base(rs):
    """The positive roots orthogonal to theta that are no sum of two of them."""
    theta = rs.highest_root
    pos = [r for r in rs.positive_roots if _form(rs, r, theta) == 0]
    pos_set = set(pos)
    return {r for r in pos
            if not any(tuple(x - y for x, y in zip(r, s)) in pos_set for s in pos if s != r)}


_CENTRALIZER_CASES = ([("A", r) for r in range(1, 13)] + [("B", r) for r in range(2, 13)]
                      + [("C", r) for r in range(2, 13)] + [("D", r) for r in range(3, 13)]
                      + [(fam, None) for fam in rootsys.EXCEPTIONAL_RANK])


@pytest.mark.parametrize("family,rank", _CENTRALIZER_CASES)
def test_centralizer_base_matches_the_pair_search(monkeypatch, family, rank):
    rs = build_root_system(family, rank)
    bases = []
    original = rootsys._connected_components
    monkeypatch.setattr(rootsys, "_connected_components",
                        lambda nodes, cartan: bases.append(nodes) or original(nodes, cartan))
    minimal_orbit_report(rs)
    (base,) = bases
    assert len(base) == len(set(base))
    assert {rs.simple_roots[i] for i in base} == _searched_centralizer_base(rs)


# ---------------------------------------------------------------------------
# Oracle: the Dynkin graph walk that classified each centralizer component
# before the determinant classifier, kept as its reference.


def _graph_components(simples, form):
    unvisited = list(simples)
    comps = []
    while unvisited:
        comp = [unvisited.pop()]
        grew = True
        while grew:
            grew = False
            for v in unvisited[:]:
                if any(form(v, w) != 0 for w in comp):
                    comp.append(v)
                    unvisited.remove(v)
                    grew = True
        comps.append(comp)
    return comps


def _graph_walk_type(simples, form):
    r = len(simples)
    if r == 1:
        return "A1"
    norms = [form(a, a) for a in simples]
    mult = {}
    edges = {i: [] for i in range(r)}
    for i in range(r):
        for j in range(i + 1, r):
            m = 4 * form(simples[i], simples[j]) ** 2 // (norms[i] * norms[j])
            if m:
                mult[(i, j)] = m
                edges[i].append(j)
                edges[j].append(i)
    degs = sorted(len(v) for v in edges.values())
    is_chain = degs == [1, 1] + [2] * (r - 2)
    ms = sorted(mult.values())
    if 3 in ms:
        assert r == 2
        return "G2"
    if 2 in ms:
        assert ms.count(2) == 1 and is_chain
        (i, j), = [e for e, m in mult.items() if m == 2]
        if r == 2:
            return "B2"
        if r == 4 and len(edges[i]) == 2 and len(edges[j]) == 2:
            return "F4"
        end, inner = (i, j) if len(edges[i]) == 1 else (j, i)
        assert len(edges[end]) == 1
        return f"B{r}" if norms[end] < norms[inner] else f"C{r}"
    forks = [i for i in range(r) if len(edges[i]) == 3]
    if not forks:
        assert is_chain
        return f"A{r}"
    (fork,) = forks
    arms = []
    for start in edges[fork]:
        prev, cur, n = fork, start, 1
        while len(nxt := [k for k in edges[cur] if k != prev]) == 1:
            prev, cur, n = cur, nxt[0], n + 1
        assert not nxt
        arms.append(n)
    arms.sort()
    if arms[:2] == [1, 1]:
        return f"D{r}"
    return {(1, 2, 2): "E6", (1, 2, 3): "E7", (1, 2, 4): "E8"}[tuple(arms)]


def _graph_walk_label(rs):
    theta = rs.highest_root
    form = partial(_form, rs)
    simples = [s for s in rs.simple_roots if form(s, theta) == 0]
    labels = [_graph_walk_type(c, form) for c in _graph_components(simples, form)]
    return rootsys.canonical_label(labels, rs.rank - 1 - len(simples))


_LABEL_CASES = ([("A", r) for r in range(1, 31)] + [("B", r) for r in range(2, 25)]
                + [("C", r) for r in range(2, 25)] + [("D", r) for r in range(3, 25)]
                + [(fam, None) for fam in rootsys.EXCEPTIONAL_RANK])


def test_centralizer_label_matches_the_graph_walk():
    assert len(_LABEL_CASES) == 103
    for family, rank in _LABEL_CASES:
        rs = build_root_system(family, rank)
        assert minimal_orbit_report(rs).centralizer_label == _graph_walk_label(rs), rs.label


@pytest.mark.parametrize("family,rank", [("A", r) for r in range(1, 9)]
                         + [("B", r) for r in range(2, 9)] + [("C", r) for r in range(3, 9)]
                         + [("D", r) for r in range(4, 9)]
                         + [(fam, None) for fam in rootsys.EXCEPTIONAL_RANK])
def test_component_type_names_every_dynkin_entry(family, rank):
    # the centralizers reach no E6, E8, F4 or G2 component, so each
    # connected Dynkin diagram is also classified on its own
    rs = build_root_system(family, rank)
    lengths = [rs.gram[i][i] for i in range(rs.rank)]
    assert rootsys._component_type(rs.cartan_matrix, lengths) == rs.label


@pytest.mark.parametrize("cartan,lengths,message", [
    # affine A1: the 2x2 minor is 0
    ([[2, -2], [-2, 2]], [1, 1], "not of finite type"),
    # affine A2, the 3-cycle: the 3x3 minor is 0
    ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], [1, 1, 1], "not of finite type"),
    # the A2 matrix has determinant 3, which no non-simply-laced type has
    ([[2, -1], [-1, 2]], [1, 2], "no finite type of rank 2 has determinant 3"),
])
def test_component_type_rejects_what_is_not_a_finite_type(cartan, lengths, message):
    with pytest.raises(rootsys.RootSystemError, match=message):
        rootsys._component_type(cartan, lengths)


def test_label_aliases():
    label = rootsys.canonical_label
    assert label(["B2"], 0) == label(["C2"], 0) == "B2"
    assert label(["A3", "A1"], 0) == label(["D3", "A1"], 0) == label(["A1", "D3"], 0) == "A3+A1"
    assert label(["A1", "A1"], 0) == label(["D2"], 0) == "A1+A1"
    assert label(["B3"], 0) != label(["C3"], 0)
    assert label(["A2"], 1) == "A2+u(1)" and label(["A1"], 2) == "A1+u(1)^2"
    assert label([], 0) == "0" and label([], 1) == "u(1)"


# ---------------------------------------------------------------------------
# Oracle: the orthonormal realizations of the simple roots (Bourbaki
# numbering), kept here as an independent reference for the Dynkin table.


def _oracle_simple_roots(family, rank):
    def v(*xs):
        return tuple(Fraction(x) for x in xs)

    def unit(n, i, c=1):
        return tuple(Fraction(c) if k == i else Fraction(0) for k in range(n))

    def diff(n, i):
        return tuple(a - b for a, b in zip(unit(n, i), unit(n, i + 1)))

    h = Fraction(1, 2)
    if family == "A":
        return [diff(rank + 1, i) for i in range(rank)]
    if family == "B":
        return [diff(rank, i) for i in range(rank - 1)] + [unit(rank, rank - 1)]
    if family == "C":
        return [diff(rank, i) for i in range(rank - 1)] + [unit(rank, rank - 1, 2)]
    if family == "D":
        last = tuple(a + b for a, b in zip(unit(rank, rank - 2), unit(rank, rank - 1)))
        return [diff(rank, i) for i in range(rank - 1)] + [last]
    if family == "G2":
        return [v(1, -1, 0), v(-2, 1, 1)]
    if family == "F4":
        return [v(0, 1, -1, 0), v(0, 0, 1, -1), v(0, 0, 0, 1), (h, -h, -h, -h)]
    e8 = [(h, -h, -h, -h, -h, -h, -h, h), v(1, 1, 0, 0, 0, 0, 0, 0)]
    e8 += [tuple(-x for x in diff(8, i)) for i in range(6)]
    return e8[:rank]


def _dot(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _coords(basis, vec):
    """Coefficients of vec in the given basis (Gauss-Jordan on the Gram system)."""
    n = len(basis)
    rows = [[_dot(a, b) for b in basis] + [_dot(a, vec)] for a in basis]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        rows[col] = [x / p for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n] for row in rows]


def _oracle_data(family, rank):
    simples = _oracle_simple_roots(family, rank)
    cartan = [[2 * _dot(a, b) / _dot(b, b) for b in simples] for a in simples]
    roots, frontier = set(simples), list(simples)
    while frontier:
        new = []
        for beta in frontier:
            for a in simples:
                c = 2 * _dot(beta, a) / _dot(a, a)
                r = tuple(x - c * y for x, y in zip(beta, a))
                if r not in roots:
                    roots.add(r)
                    new.append(r)
        frontier = new
    height, theta = max((sum(_coords(simples, r)), r) for r in roots)
    dims = {-2: 0, -1: 0, 0: rank, 1: 0, 2: 0}
    for r in roots:
        dims[int(2 * _dot(r, theta) / _dot(theta, theta))] += 1
    return cartan, len(roots), height, dims


_ORACLE_CASES = ([("A", 1)]
                 + [(fam, r) for fam, ranks in rootsys.DEFAULT_TABLE_RANKS.items()
                    for r in ranks]
                 + [("G2", 2), ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8)])


@pytest.mark.parametrize("family,rank", _ORACLE_CASES)
def test_root_system_agrees_with_orthonormal_oracle(family, rank):
    cartan, count, height, dims = _oracle_data(family, rank)
    rs = build_root_system(family, rank)
    assert [list(row) for row in rs.cartan_matrix] == cartan
    assert len(rs.roots) == count
    assert sum(_coords(rs.simple_roots, rs.highest_root)) == height
    assert grade_by_highest_root(rs).dims == dims


@pytest.mark.parametrize("entry,message", [
    # the affine A1 matrix: the closure never ends without its bound
    (([[2, -2], [-2, 2]], [1, 1]), "closure passed 12 roots"),
    # equal lengths cannot symmetrize the G2 matrix
    (([[2, -1], [-3, 2]], [1, 1]), "do not symmetrize"),
    # a finite type, but not the one whose size DIM_FORMULA expects
    (([[2, -1], [-1, 2]], [1, 1]), "generated 6 roots, expected 12"),
])
def test_bad_dynkin_entry_raises(monkeypatch, entry, message):
    monkeypatch.setitem(rootsys.DYNKIN, "G2", lambda r: entry)
    with pytest.raises(rootsys.RootSystemError, match=message):
        build_root_system("G2")


def _closure_oracle(cartan) -> set:
    """The reflection closure that pairs every root with every simple root
    afresh, s_i beta = beta - (sum_b beta_b A_bi) alpha_i."""
    rank = len(cartan)
    roots = {tuple(int(i == j) for j in range(rank)) for i in range(rank)}
    frontier = list(roots)
    while frontier:
        new = []
        for beta in frontier:
            for i in range(rank):
                c = sum(b * row[i] for b, row in zip(beta, cartan))
                refl = beta[:i] + (beta[i] - c,) + beta[i + 1:]
                if refl not in roots:
                    roots.add(refl)
                    new.append(refl)
        frontier = new
    return roots


@pytest.mark.parametrize("family,rank", [
    (fam, r) for fam, ranks in rootsys.DEFAULT_TABLE_RANKS.items() for r in ranks
] + [("A", 30), ("E8", 8)])
def test_closure_carrying_pairings_gives_the_oracle_roots(family, rank):
    cartan, _ = rootsys.DYNKIN[family](rank)
    assert set(build_root_system(family, rank).roots) == _closure_oracle(cartan)


# every rank the table1 command accepts, and each exceptional type
_CLI_RANKS = ([(fam, r) for fam, least in rootsys._MIN_RANK.items()
               for r in range(least, cli.TABLE1_MAX_RANK + 1)]
              + [(fam, None) for fam in rootsys.EXCEPTIONAL_RANK])


def test_positive_closure_matches_the_full_reflection_closure():
    assert len(_CLI_RANKS) == 30 + 29 + 29 + 28 + 5
    for family, rank in _CLI_RANKS:
        got = build_root_system(family, rank)
        want = rootsys_oracle.build_root_system(family, rank)
        assert got.roots == want.roots, got.label
        assert got.positive_roots == want.positive_roots, got.label
        assert got.highest_root == want.highest_root, got.label


def test_positive_grading_matches_the_grading_of_every_root():
    for family, rank in _CLI_RANKS:
        rs = build_root_system(family, rank)
        got = grade_by_highest_root(rs).dims
        assert got == rootsys_oracle.grade_by_highest_root(rs).dims, rs.label


def test_an_affine_matrix_raises_through_the_overflow_guard(monkeypatch):
    # affine A2, the 3-cycle, has infinitely many positive real roots, so
    # the raising closure never ends without its bound: A3's 12 roots
    monkeypatch.setitem(rootsys.DYNKIN, "A", lambda r: (
        [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], [1, 1, 1]))
    with pytest.raises(rootsys.RootSystemError, match="A3: the reflection closure passed 12 roots"):
        build_root_system("A", 3)
