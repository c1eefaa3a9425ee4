"""The full reflection closure of a root system, the oracle of
``rootsys.build_root_system``: the simple roots are closed under every
simple reflection, negatives included, and the positive roots are read
off as the roots with no negative coordinate.  ``grade_by_highest_root``
is the oracle of the grading: every root, negatives included, is paired
with G theta."""

from minrep.rootsys import (DIM_FORMULA, DYNKIN, EXCEPTIONAL_RANK, _MIN_RANK, FiveGrading,
                            RootSystem, RootSystemError, _theta_pairings)


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

    cartan, lengths = DYNKIN[family](rank)
    gram = [[cartan[i][j] * lengths[j] for j in range(rank)] for i in range(rank)]
    if any(gram[i][j] != gram[j][i] for i in range(rank) for j in range(i)):
        raise RootSystemError(f"{family}{rank}: lengths {lengths} do not symmetrize "
                              f"the Cartan matrix {cartan}")

    expected_count = DIM_FORMULA[family](rank) - rank
    simples = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    roots = set(simples)
    # each frontier root beta carries the ints p with s_i beta = beta - p_i alpha_i,
    # which are row j of the Cartan matrix for alpha_j; s_i beta carries
    # p - p_i (row i), and s_i fixes beta when p_i = 0
    frontier = list(zip(simples, cartan))
    while frontier:
        new = []
        for beta, p in frontier:
            for i, c in enumerate(p):
                if not c:
                    continue
                refl = beta[:i] + (beta[i] - c,) + beta[i + 1:]
                if refl not in roots:
                    roots.add(refl)
                    new.append((refl, [x - c * y for x, y in zip(p, cartan[i])]))
        if len(roots) > expected_count:
            raise RootSystemError(f"{family}{rank}: the reflection closure passed "
                                  f"{expected_count} roots")
        frontier = new
    all_roots = sorted(roots)
    if len(all_roots) != expected_count:
        raise RootSystemError(
            f"{family}{rank}: generated {len(all_roots)} roots, expected {expected_count}")

    positives = [r for r in all_roots if all(k >= 0 for k in r)]
    if 2 * len(positives) != len(all_roots):
        raise RootSystemError("positive roots are not half of all roots")

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
