"""Root systems of the simple Lie algebras and their highest-root grading.

Roots are kept as exact rational vectors in the standard orthonormal-basis
realizations (type A in the sum-zero hyperplane of n coordinates, F4 with
half-integer roots, E-types in the even coordinate lattice of R^8).  All
derived data (Cartan matrix, grading, centralizer type, orbit dimensions)
is integer arithmetic with no tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg

Vector = tuple[Fraction, ...]

EXCEPTIONAL_RANK = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2}


class RootSystemError(ValueError):
    pass


def _v(*xs) -> Vector:
    return tuple(Fraction(x) for x in xs)


def dot(a: Vector, b: Vector) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _unit(n, i, c=1) -> list[Fraction]:
    v = [Fraction(0)] * n
    v[i] = Fraction(c)
    return v


def _simple_roots(family: str, rank: int) -> list[Vector]:
    if family == "A":
        n = rank + 1
        return [tuple(a - b for a, b in zip(_unit(n, i), _unit(n, i + 1))) for i in range(rank)]
    if family == "B":
        out = [tuple(a - b for a, b in zip(_unit(rank, i), _unit(rank, i + 1))) for i in range(rank - 1)]
        out.append(tuple(_unit(rank, rank - 1)))
        return out
    if family == "C":
        out = [tuple(a - b for a, b in zip(_unit(rank, i), _unit(rank, i + 1))) for i in range(rank - 1)]
        out.append(tuple(_unit(rank, rank - 1, 2)))
        return out
    if family == "D":
        out = [tuple(a - b for a, b in zip(_unit(rank, i), _unit(rank, i + 1))) for i in range(rank - 1)]
        out.append(tuple(a + b for a, b in zip(_unit(rank, rank - 2), _unit(rank, rank - 1))))
        return out
    if family == "G2":
        return [_v(1, -1, 0), _v(-2, 1, 1)]
    if family == "F4":
        h = Fraction(1, 2)
        return [
            _v(0, 1, -1, 0),
            _v(0, 0, 1, -1),
            _v(0, 0, 0, 1),
            (h, -h, -h, -h),
        ]
    if family in ("E6", "E7", "E8"):
        h = Fraction(1, 2)
        alpha = [
            (h, -h, -h, -h, -h, -h, -h, h),
            _v(1, 1, 0, 0, 0, 0, 0, 0),
            _v(-1, 1, 0, 0, 0, 0, 0, 0),
            _v(0, -1, 1, 0, 0, 0, 0, 0),
            _v(0, 0, -1, 1, 0, 0, 0, 0),
            _v(0, 0, 0, -1, 1, 0, 0, 0),
            _v(0, 0, 0, 0, -1, 1, 0, 0),
            _v(0, 0, 0, 0, 0, -1, 1, 0),
        ]
        return alpha[: EXCEPTIONAL_RANK[family]]
    raise RootSystemError(f"unknown family {family!r}")


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
    simple_roots: tuple[Vector, ...]
    roots: tuple[Vector, ...]
    positive_roots: tuple[Vector, ...]
    cartan_matrix: tuple[tuple[int, ...], ...]
    highest_root: Vector
    # expansion of each root in the simple-root basis, parallel to `roots`
    coefficients: tuple[tuple[int, ...], ...]

    @property
    def label(self) -> str:
        return f"{self.family}{self.rank}" if self.family in "ABCD" else self.family

    @property
    def dim(self) -> int:
        return len(self.roots) + self.rank


def build_root_system(family: str, rank: int | None = None) -> RootSystem:
    """Generate the full root system by reflection closure of the base."""
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

    simples = _simple_roots(family, rank)
    norms = [dot(a, a) for a in simples]

    roots = set(simples)
    frontier = list(simples)
    while frontier:
        new = []
        for beta in frontier:
            for alpha, n2 in zip(simples, norms):
                c = 2 * dot(beta, alpha) / n2
                refl = tuple(b - c * a for b, a in zip(beta, alpha))
                if refl not in roots:
                    roots.add(refl)
                    new.append(refl)
        frontier = new
    all_roots = sorted(roots)

    expected_count = DIM_FORMULA[family](rank) - rank
    if len(all_roots) != expected_count:
        raise RootSystemError(
            f"{family}{rank}: generated {len(all_roots)} roots, expected {expected_count}")

    # Expansion in the simple basis via the Gram matrix (exact solve).
    gram = [[dot(a, b) for b in simples] for a in simples]
    gram_inv = linalg.inverse(gram)
    coeffs = []
    for r in all_roots:
        v = [dot(a, r) for a in simples]
        x = [sum(gram_inv[i][j] * v[j] for j in range(rank)) for i in range(rank)]
        ints = []
        for c in x:
            if c.denominator != 1:
                raise RootSystemError(f"non-integer simple-root coefficient {c} for {r}")
            ints.append(int(c))
        coeffs.append(tuple(ints))

    positives = [(r, c) for r, c in zip(all_roots, coeffs) if all(k >= 0 for k in c)]
    if 2 * len(positives) != len(all_roots):
        raise RootSystemError("positive roots are not half of all roots")

    max_height = max(sum(c) for _, c in positives)
    tops = [(r, c) for r, c in positives if sum(c) == max_height]
    if len(tops) != 1:
        raise RootSystemError("highest root is not unique")
    theta = tops[0][0]
    root_set = set(all_roots)
    for alpha in simples:
        if tuple(t + a for t, a in zip(theta, alpha)) in root_set:
            raise RootSystemError("theta + simple root is still a root")

    cartan = []
    for i, a in enumerate(simples):
        row = []
        for j, b in enumerate(simples):
            c = 2 * dot(a, b) / norms[j]
            if c.denominator != 1:
                raise RootSystemError("non-integer Cartan entry")
            c = int(c)
            if i == j and c != 2:
                raise RootSystemError("Cartan diagonal is not 2")
            if i != j and c > 0:
                raise RootSystemError("positive off-diagonal Cartan entry")
            row.append(c)
        cartan.append(tuple(row))

    return RootSystem(
        family=family,
        rank=rank,
        simple_roots=tuple(simples),
        roots=tuple(all_roots),
        positive_roots=tuple(r for r, _ in positives),
        cartan_matrix=tuple(cartan),
        highest_root=theta,
        coefficients=tuple(coeffs),
    )


@dataclass(frozen=True)
class FiveGrading:
    """Dimensions of the eigenspaces of ad(H_theta), eigenvalues -2..2."""

    dims: dict

    def total(self) -> int:
        return sum(self.dims.values())


def grade_by_highest_root(rs: RootSystem) -> FiveGrading:
    theta = rs.highest_root
    tt = dot(theta, theta)
    dims = {-2: 0, -1: 0, 0: rs.rank, 1: 0, 2: 0}
    for r in rs.roots:
        e = 2 * dot(r, theta) / tt
        if e.denominator != 1 or not -2 <= e <= 2:
            raise RootSystemError(f"grading eigenvalue {e} out of range")
        dims[int(e)] += 1
    if dims[2] != 1 or dims[-2] != 1 or dims[1] != dims[-1]:
        raise RootSystemError(f"grading shape violated: {dims}")
    if sum(dims.values()) != rs.dim:
        raise RootSystemError("grading does not sum to the algebra dimension")
    return FiveGrading(dims=dims)


# ---------------------------------------------------------------------------
# Centralizer classification


def _classify_component(simples: list[Vector]) -> str:
    """Type of one connected simple system, canonicalized up to isomorphism.

    Canonical aliases: rank-2 double edge is 'B2' (= C2), and the
    simply-laced degenerates D3 = A3, D2 = A1+A1 never arise here because
    components are connected and produced by rank.
    """
    r = len(simples)
    if r == 1:
        return "A1"
    norms = [dot(a, a) for a in simples]
    mult = {}
    edges = {i: [] for i in range(r)}
    for i in range(r):
        for j in range(i + 1, r):
            cij = 2 * dot(simples[i], simples[j]) / norms[j]
            cji = 2 * dot(simples[j], simples[i]) / norms[i]
            m = int(cij * cji)
            if m:
                mult[(i, j)] = m
                edges[i].append(j)
                edges[j].append(i)
    degs = sorted(len(v) for v in edges.values())
    is_chain = degs == [1, 1] + [2] * (r - 2) if r >= 2 else True
    ms = sorted(mult.values())
    if 3 in ms:
        if r == 2:
            return "G2"
        raise RootSystemError("triple edge in a component of rank > 2")
    if 2 in ms:
        if ms.count(2) != 1 or not is_chain:
            raise RootSystemError("unclassifiable multiply-laced component")
        (i, j), = [e for e, m in mult.items() if m == 2]
        if r == 2:
            return "B2"
        if r == 4 and len(edges[i]) == 2 and len(edges[j]) == 2:
            return "F4"
        # the double edge must involve a chain end
        if len(edges[i]) == 1:
            end, inner = i, j
        elif len(edges[j]) == 1:
            end, inner = j, i
        else:
            raise RootSystemError("interior double edge outside F4")
        return (f"B{r}" if norms[end] < norms[inner] else f"C{r}")
    # simply laced
    forks = [i for i in range(r) if len(edges[i]) == 3]
    if not forks:
        if not is_chain:
            raise RootSystemError("disconnected or cyclic component")
        return f"A{r}"
    if len(forks) != 1:
        raise RootSystemError("multiple fork vertices")
    arms = sorted(_arm_lengths(edges, forks[0]))
    if arms[:2] == [1, 1]:
        return f"D{r}"
    if arms == [1, 2, 2]:
        return "E6"
    if arms == [1, 2, 3]:
        return "E7"
    if arms == [1, 2, 4]:
        return "E8"
    raise RootSystemError(f"unclassifiable fork arms {arms}")


def _arm_lengths(edges, fork):
    lengths = []
    for start in edges[fork]:
        prev, cur, n = fork, start, 1
        while True:
            nxt = [k for k in edges[cur] if k != prev]
            if not nxt:
                break
            if len(nxt) > 1:
                raise RootSystemError("nested fork")
            prev, cur, n = cur, nxt[0], n + 1
        lengths.append(n)
    return lengths


_ALIASES = {"C2": "B2", "D3": "A3", "B1": "A1", "C1": "A1", "D2": "A1+A1"}


def component_dim(label: str) -> int:
    fam, r = label[0], int(label[1:])
    return DIM_FORMULA[fam if fam in "ABCD" else label](r)


def canonical_label(parts: list[str], center_dim: int) -> str:
    expanded: list[str] = []
    for p in parts:
        expanded.extend(_ALIASES.get(p, p).split("+"))
    expanded.sort(key=lambda s: (-int(s[1:]), s[0]))
    if center_dim == 1:
        expanded.append("u(1)")
    elif center_dim > 1:
        expanded.append(f"u(1)^{center_dim}")
    return "+".join(expanded) if expanded else "0"


def same_algebra_label(a: str, b: str) -> bool:
    """Label comparison up to the low-rank coincidences (B2=C2, D3=A3, ...)."""

    def norm(lbl: str) -> tuple:
        simple, center = [], 0
        for p in lbl.split("+"):
            p = p.strip()
            if not p or p == "0":
                continue
            if p.startswith("u(1)"):
                center += int(p[5:] or 1) if "^" in p else 1
            else:
                simple.extend(_ALIASES.get(p, p).split("+"))
        return (tuple(sorted(simple)), center)

    return norm(a) == norm(b)


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
    theta = rs.highest_root
    ortho = [r for r in rs.roots if dot(r, theta) == 0]
    coeff = {r: c for r, c in zip(rs.roots, rs.coefficients)}
    pos = [r for r in ortho if all(k >= 0 for k in coeff[r])]
    pos_set = set(pos)
    simples = [r for r in pos
               if not any(tuple(x - y for x, y in zip(r, s)) in pos_set for s in pos if s != r)]
    components = _connected_components(simples)
    labels = [_classify_component(comp) for comp in components]
    sub_rank = len(simples)
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


def _connected_components(simples: list[Vector]) -> list[list[Vector]]:
    unvisited = list(simples)
    comps = []
    while unvisited:
        comp = [unvisited.pop()]
        grew = True
        while grew:
            grew = False
            for v in unvisited[:]:
                if any(dot(v, w) != 0 for w in comp):
                    comp.append(v)
                    unvisited.remove(v)
                    grew = True
        comps.append(comp)
    return comps


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
