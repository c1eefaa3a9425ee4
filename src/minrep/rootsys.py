"""Root systems of the simple Lie algebras and their highest-root grading.

Each family is one entry of an integer Dynkin table: its Cartan matrix and
the squared lengths of its simple roots (Bourbaki numbering, short simple
roots of length 1).  Roots are integer tuples in simple-root coordinates:
the positive roots are generated from the simple roots by the raising
simple reflections s_i(b) = b - <b, a_i^v> a_i, those with <b, a_i^v> < 0,
and the negative roots are their negations.  Every inner product comes
from the doubled Gram matrix G_ij = A_ij |a_j|^2 = 2(a_i|a_j), which is
integral, so all derived data (grading, centralizer type, orbit
dimensions) is integer arithmetic with no tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

Root = tuple[int, ...]

EXCEPTIONAL_RANK = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2}


class RootSystemError(ValueError):
    pass


def cartan_a_type(r):
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(r)] for i in range(r)]


def cartan_d_type(r):
    """D_r Cartan matrix: chain 1..r-1 with node r attached to node r-2."""
    c = [[0] * r for _ in range(r)]
    for i in range(r):
        c[i][i] = 2
    for i in range(r - 2):
        c[i][i + 1] = c[i + 1][i] = -1
    if r >= 3:
        c[r - 3][r - 1] = c[r - 1][r - 3] = -1
    return c


def _bc_type(r, long_last):
    """B_r (node r short) or C_r (node r long): a chain whose last bond is
    double, with A_ij = -2 where a_j is the short root of the bond."""
    c = cartan_a_type(r)
    i, j = (r - 1, r - 2) if long_last else (r - 2, r - 1)
    c[i][j] = -2
    return c


def _e_type(r):
    """E_r in Bourbaki numbering: chain 1-3-4-...-r with node 2 on node 4."""
    order = [0] + list(range(2, r))
    c = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
    for i, j in zip(order, order[1:]):
        c[i][j] = c[j][i] = -1
    c[1][3] = c[3][1] = -1
    return c


# family -> rank -> (Cartan matrix, squared simple-root lengths)
DYNKIN = {
    "A": lambda r: (cartan_a_type(r), [1] * r),
    "B": lambda r: (_bc_type(r, False), [2] * (r - 1) + [1]),
    "C": lambda r: (_bc_type(r, True), [1] * (r - 1) + [2]),
    "D": lambda r: (cartan_d_type(r), [1] * r),
    "E6": lambda r: (_e_type(r), [1] * r),
    "E7": lambda r: (_e_type(r), [1] * r),
    "E8": lambda r: (_e_type(r), [1] * r),
    "F4": lambda r: ([[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
                     [2, 2, 1, 1]),
    "G2": lambda r: ([[2, -1], [-3, 2]], [1, 3]),
}

DIM_FORMULA = {
    "A": lambda r: (r + 1) ** 2 - 1,
    "B": lambda r: r * (2 * r + 1),
    "C": lambda r: r * (2 * r + 1),
    "D": lambda r: r * (2 * r - 1),
    "E6": lambda r: 78,
    "E7": lambda r: 133,
    "E8": lambda r: 248,
    "F4": lambda r: 52,
    "G2": lambda r: 14,
}

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}


@dataclass(frozen=True)
class RootSystem:
    family: str
    rank: int
    simple_roots: tuple[Root, ...]
    roots: tuple[Root, ...]
    positive_roots: tuple[Root, ...]
    cartan_matrix: tuple[tuple[int, ...], ...]
    # doubled Gram matrix 2(a_i|a_j) of the simple roots
    gram: tuple[tuple[int, ...], ...]
    highest_root: Root

    @property
    def label(self) -> str:
        return f"{self.family}{self.rank}" if self.family in "ABCD" else self.family

    @property
    def dim(self) -> int:
        return len(self.roots) + self.rank


def build_root_system(family: str, rank: int | None = None) -> RootSystem:
    """Generate the positive roots by closing the base under the raising
    simple reflections, and take the negative roots as their negations;
    the root count must be DIM_FORMULA's, and the closure stops once it
    passes it, so a Cartan matrix of no finite type cannot loop."""
    family = family.upper()
    if family in EXCEPTIONAL_RANK:
        expected = EXCEPTIONAL_RANK[family]
        if rank is not None and rank != expected:
            raise RootSystemError(f"{family} has fixed rank {expected}, got {rank}")
        rank = expected
    else:
        if family not in _MIN_RANK:
            raise RootSystemError(f"unknown family {family!r}")
        if rank is None or rank < _MIN_RANK[family]:
            raise RootSystemError(f"type {family} requires rank >= {_MIN_RANK[family]}, got {rank}")

    cartan, lengths = DYNKIN[family](rank)
    gram = [[cartan[i][j] * lengths[j] for j in range(rank)] for i in range(rank)]
    if any(gram[i][j] != gram[j][i] for i in range(rank) for j in range(i)):
        raise RootSystemError(f"{family}{rank}: lengths {lengths} do not symmetrize "
                              f"the Cartan matrix {cartan}")

    expected_count = DIM_FORMULA[family](rank) - rank
    simples = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    reached = set(simples)
    # each frontier root beta carries the ints p with s_i beta = beta - p_i alpha_i,
    # which are row j of the Cartan matrix for alpha_j; s_i beta carries
    # p - p_i (row i).  Only the raising ones, p_i < 0, are taken: a positive
    # root that is not simple has some p_i > 0 and is raised back from the
    # positive root s_i beta, so by height every positive root is reached
    frontier = list(zip(simples, cartan))
    while frontier:
        new = []
        for beta, p in frontier:
            for i, c in enumerate(p):
                if c >= 0:
                    continue
                refl = beta[:i] + (beta[i] - c,) + beta[i + 1:]
                if refl not in reached:
                    reached.add(refl)
                    new.append((refl, [x - c * y for x, y in zip(p, cartan[i])]))
        if 2 * len(reached) > expected_count:
            raise RootSystemError(f"{family}{rank}: the reflection closure passed "
                                  f"{expected_count} roots")
        frontier = new
    if 2 * len(reached) != expected_count:
        raise RootSystemError(
            f"{family}{rank}: generated {2 * len(reached)} roots, expected {expected_count}")
    positives = sorted(reached)
    # negation reverses the order of integer tuples, and every negative root
    # sorts before every positive one, so this is the sorted list of all roots;
    # each negation goes through a list, since a tuple built from an iterator
    # is resized, which raised the peak RSS of repeated table1 runs
    all_roots = [tuple([-k for k in r]) for r in reversed(positives)] + positives

    max_height = max(sum(r) for r in positives)
    tops = [r for r in positives if sum(r) == max_height]
    if len(tops) != 1:
        raise RootSystemError("highest root is not unique")
    theta = tops[0]

    return RootSystem(
        family=family,
        rank=rank,
        simple_roots=tuple(simples),
        roots=tuple(all_roots),
        positive_roots=tuple(positives),
        cartan_matrix=tuple(tuple(row) for row in cartan),
        gram=tuple(tuple(row) for row in gram),
        highest_root=theta,
    )


@dataclass(frozen=True)
class FiveGrading:
    """Dimensions of the eigenspaces of ad(H_theta), eigenvalues -2..2."""

    dims: dict


def _theta_pairings(rs: RootSystem) -> list[int]:
    """2(a_i|theta) for each simple root a_i: the vector G theta."""
    return [sum(g * t for g, t in zip(row, rs.highest_root)) for row in rs.gram]


def grade_by_highest_root(rs: RootSystem) -> FiveGrading:
    g_theta = _theta_pairings(rs)
    tt = sum(t * p for t, p in zip(rs.highest_root, g_theta))
    dims = {-2: 0, -1: 0, 0: rs.rank, 1: 0, 2: 0}
    for r in rs.roots:
        e, rem = divmod(2 * sum(b * p for b, p in zip(r, g_theta)), tt)
        if rem or not -2 <= e <= 2:
            raise RootSystemError(f"grading eigenvalue of {r} is not an integer in -2..2")
        dims[e] += 1
    if dims[2] != 1 or dims[-2] != 1 or dims[1] != dims[-1]:
        raise RootSystemError(f"grading shape violated: {dims}")
    if sum(dims.values()) != rs.dim:
        raise RootSystemError("grading does not sum to the algebra dimension")
    return FiveGrading(dims=dims)


# ---------------------------------------------------------------------------
# Centralizer classification


def _connected_components(nodes: list[int], cartan) -> list[list[int]]:
    """Group simple-root indices, joining i and j when A_ij != 0."""
    unvisited = set(nodes)
    comps = []
    for start in nodes:
        if start not in unvisited:
            continue
        unvisited.remove(start)
        comp, stack = [], [start]
        while stack:
            i = stack.pop()
            comp.append(i)
            linked = [j for j in unvisited if cartan[i][j]]
            unvisited.difference_update(linked)
            stack.extend(linked)
        comps.append(sorted(comp))
    return comps


def _component_type(cartan: list[list[int]], lengths: list[int]) -> str:
    """Type of one connected component from its Cartan matrix and root lengths.

    Bareiss elimination without row swaps makes the k-th pivot the k-th
    leading principal minor; the matrix is of finite type exactly when all
    of them are positive (Kac, ch. 4).  Rank, determinant (A_r: r+1, B_r and
    C_r: 2, D_r: 4, E_r: 9-r, F4 and G2: 1) and whether the roots have one
    length then fix the type.  Rank 3 with determinant 4 reads A3 (= D3),
    and rank 2 with one short root B2 (= C2).
    """
    r = len(cartan)
    m = [list(row) for row in cartan]
    det = 1
    for k in range(r):
        pivot = m[k][k]
        if pivot <= 0:
            raise RootSystemError(f"Cartan matrix {cartan} is not of finite type")
        for i in range(k + 1, r):
            for j in range(k + 1, r):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // det
        det = pivot
    if len(set(lengths)) == 1:
        if det == r + 1:
            return f"A{r}"
        if det == 4:
            return f"D{r}"
        if det == 9 - r and r in (6, 7, 8):
            return f"E{r}"
    elif det == 1 and r in (2, 4):
        return "G2" if r == 2 else "F4"
    elif det == 2:
        return f"B{r}" if lengths.count(min(lengths)) == 1 else f"C{r}"
    raise RootSystemError(f"no finite type of rank {r} has determinant {det} "
                          f"and root lengths {lengths}")


_ALIASES = {"C2": "B2", "D3": "A3", "B1": "A1", "C1": "A1", "D2": "A1+A1"}


def component_dim(label: str) -> int:
    fam, r = label[0], int(label[1:])
    return DIM_FORMULA[fam if fam in "ABCD" else label](r)


def canonical_label(parts: list[str], center_dim: int) -> str:
    """The one spelling of a reductive label: each simple part's low-rank
    alias resolved (C2 = B2, D3 = A3, D2 = A1+A1, ...), the parts sorted by
    rank, then the center u(1)^center_dim.  Two labels built here name one
    algebra exactly when they are equal strings."""
    expanded: list[str] = []
    for p in parts:
        expanded.extend(_ALIASES.get(p, p).split("+"))
    expanded.sort(key=lambda s: (-int(s[1:]), s[0]))
    if center_dim == 1:
        expanded.append("u(1)")
    elif center_dim > 1:
        expanded.append(f"u(1)^{center_dim}")
    return "+".join(expanded) if expanded else "0"


@dataclass(frozen=True)
class MinOrbitReport:
    algebra_label: str
    dim_g: int
    dim_g1: int
    min_orbit_dim: int
    gk_dim: int
    centralizer_label: str
    dim_h: int

    def identities_hold(self) -> bool:
        return (self.min_orbit_dim == self.dim_g1 + 2
                and 2 * self.gk_dim == self.min_orbit_dim
                and self.dim_g == self.dim_h + 2 * self.dim_g1 + 3)


def minimal_orbit_report(rs: RootSystem) -> MinOrbitReport:
    """Orbit dimensions and the type of the centralizer of the top sl2."""
    grading = grade_by_highest_root(rs)
    # theta is dominant, so a positive root is orthogonal to it exactly when its
    # support is: the simple roots orthogonal to theta are the centralizer's base
    base = [i for i, p in enumerate(_theta_pairings(rs)) if p == 0]
    a, g = rs.cartan_matrix, rs.gram
    labels = [_component_type([[a[i][j] for j in comp] for i in comp], [g[i][i] for i in comp])
              for comp in _connected_components(base, a)]
    sub_rank = len(base)
    center_dim = rs.rank - 1 - sub_rank
    if center_dim < 0:
        raise RootSystemError("centralizer rank exceeds rank - 1")
    label = canonical_label(labels, center_dim)

    dim_h = grading.dims[0] - 1
    semisimple_dim = sum(component_dim(l) for l in labels)
    if dim_h != semisimple_dim + center_dim:
        raise RootSystemError(
            f"{rs.label}: centralizer dim mismatch {dim_h} != {semisimple_dim}+{center_dim}")

    dim_g1 = grading.dims[1]
    rep = MinOrbitReport(
        algebra_label=rs.label,
        dim_g=rs.dim,
        dim_g1=dim_g1,
        min_orbit_dim=dim_g1 + 2,
        gk_dim=(dim_g1 + 2) // 2,
        centralizer_label=label,
        dim_h=dim_h,
    )
    if dim_g1 % 2 or not rep.identities_hold():
        raise RootSystemError(f"{rs.label}: orbit dimension identities violated")
    return rep


DEFAULT_TABLE_RANKS = {
    "A": tuple(range(2, 8)),   # sl(n) for n = 3..8
    "B": tuple(range(2, 7)),
    "C": tuple(range(2, 7)),
    "D": tuple(range(3, 7)),
}


def expected_centralizer(family: str, rank: int) -> str:
    """Closed-form Table row for the centralizer, canonicalized."""
    if family == "A":
        return canonical_label([f"A{rank - 2}"] if rank >= 3 else [], 1) if rank >= 2 \
            else canonical_label([], 0)
    if family == "B":
        parts = ["A1"] + ([f"B{rank - 2}"] if rank >= 3 else [])
        return canonical_label(parts, 0)
    if family == "C":
        return canonical_label([f"C{rank - 1}"], 0)
    if family == "D":
        if rank == 3:
            return canonical_label(["A1"], 1)
        parts = ["A1", f"D{rank - 2}"]
        return canonical_label(parts, 0)
    return canonical_label({"E6": ["A5"], "E7": ["D6"], "E8": ["E7"],
                            "F4": ["C3"], "G2": ["A1"]}[family], 0)


def expected_dims(family: str, rank: int) -> tuple[int, int]:
    """(dim g1, GK dimension) closed forms per family."""
    if family == "A":
        n = rank + 1
        return 2 * (n - 2), n - 1
    if family == "B":
        return 2 * (2 * rank - 3), 2 * rank - 2
    if family == "C":
        return 2 * (rank - 1), rank
    if family == "D":
        return 4 * (rank - 2), 2 * rank - 3
    return {"E6": (20, 11), "E7": (32, 17), "E8": (56, 29),
            "F4": (14, 8), "G2": (4, 3)}[family]


def table1_report(ranks: dict | None = None) -> list[MinOrbitReport]:
    """One report row per family at the configured classical ranks."""
    ranks = dict(DEFAULT_TABLE_RANKS, **(ranks or {}))
    rows = []
    for fam in ("A", "B", "C", "D"):
        for r in ranks[fam]:
            rows.append(minimal_orbit_report(build_root_system(fam, r)))
    for fam in ("E6", "E7", "E8", "F4", "G2"):
        rows.append(minimal_orbit_report(build_root_system(fam)))
    return rows
