"""The full reflection closure of a root system, the oracle of
``rootsys.build_root_system``: the simple roots are closed under every
simple reflection, negatives included, and the positive roots are read
off as the roots with no negative coordinate."""

from minrep.rootsys import (DIM_FORMULA, DYNKIN, EXCEPTIONAL_RANK, _MIN_RANK, RootSystem,
                            RootSystemError)


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

