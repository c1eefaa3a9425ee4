"""Microbenchmarks of the layer kernels on fixed inputs taken from the workloads.

Each kernel is timed in batches sized to take at least 10 ms; the metric
is the median per-call time over the batches, in microseconds.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

from minrep import bilocal, fockspace, linalg, oscrep
from minrep.harmonics import build_harmonic
from minrep.weylalg import normal_product

BATCH_S = 0.01
BUDGET_S = 0.25


def _per_call_us(fn) -> float:
    n = 1
    while True:
        t = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t >= BATCH_S:
            break
        n *= 2
    samples = []
    end = time.perf_counter() + BUDGET_S
    while len(samples) < 5 or time.perf_counter() < end:
        t = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t) / n)
    return statistics.median(samples) * 1e6


def _decompose_weight_matrix(gens, fock):
    """The largest matrix that `decompose` row-reduces at this level."""
    captured = []
    original = linalg.rref
    linalg.rref = lambda m: captured.append(m) or original(m)
    try:
        fockspace.lowest_weight_vectors(gens, fock)
    finally:
        linalg.rref = original
    return max(captured, key=lambda m: (len(m) * len(m[0]), len(m)))


def kernels() -> dict:
    """name -> callable, each bound to its fixed inputs."""
    so8 = oscrep.so_star_matrix_basis(2)                 # so*(8): 28 matrices, 8 x 8
    gens = oscrep.so_star_generators(2)
    modes = [("a", i) for i in range(1, 5)] + [("b", i) for i in range(1, 5)]
    fock3 = fockspace.enumerate_basis(modes, 3)          # the decompose default level
    weight_matrix = _decompose_weight_matrix(gens, fock3)
    entries = sorted({x for m in so8 for row in m for x in row if x}, key=str)
    qa, qb = entries[0], entries[-1]
    rng = random.Random(7)                               # check-bilocal's default seed

    def rnd(size):
        return [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(size)]
                for _ in range(size)]

    u, v = bilocal.bilocal_field(rnd(3), 1, 2), bilocal.bilocal_field(rnd(3), 3, 4)
    h1, h2 = build_harmonic(6, 2, 1).poly, build_harmonic(5, 3, 0).poly
    e1, f1 = gens.E[0], gens.F[0]
    x, y = so8[0], so8[-1]
    return {
        "scalars.qi_mul.kernel_us": lambda: qa * qb,
        "scalars.qi_add.kernel_us": lambda: qa + qb,
        "linalg.mat_mul.kernel_us": lambda: linalg.mat_mul(x, y),
        "linalg.rref.kernel_us": lambda: linalg.rref(weight_matrix),
        "weylalg.normal_product.kernel_us": lambda: normal_product(e1, f1),
        "fockspace.operator_matrix.kernel_us": lambda: fockspace.operator_matrix(e1, fock3),
        "bilocal.wick_product.kernel_us": lambda: bilocal.wick_product(u, v),
        "poly.Poly.mul.kernel_us": lambda: h1 * h2,
    }


def kernel_metrics() -> dict:
    return {name: _per_call_us(fn) for name, fn in kernels().items()}

