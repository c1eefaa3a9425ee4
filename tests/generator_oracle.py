"""The u(n,n) and so*(4n) Chevalley sets written out as signed Weyl
monomials, the oracle of ``oscrep``'s builders: each generator and extra
is spelled in the a/b modes by hand, with the sign of b b* = b*b + 1 and
of phi~ = (a*, -b) carried in the monomials, not read off a matrix."""

from minrep.oscrep import AlgebraError, GeneratorSet
from minrep.rootsys import cartan_a_type, cartan_d_type
from minrep.weylalg import WeylElement


def _a(i):
    return ("a", i)


def _b(i):
    return ("b", i)


def _number(m) -> WeylElement:
    """The number operator m* m of one mode."""
    return WeylElement.monomial([m], [m])


def unn_generators(n: int) -> GeneratorSet:
    """u(n,n) Chevalley set over modes a1..an, b1..bn (A_{2n-1} diagram).

    The noncompact node is E_n = a_n* b_1*; the b-side chain mirrors the
    a-side one, and the charge operator Q spans the center.  Each H is
    written in number operators, not as the bracket [E, F], so the
    Chevalley suite's EF and theta/EF records compare two routes.
    """
    if n < 1:
        raise AlgebraError("u(n,n) requires n >= 1")
    mono = WeylElement.monomial
    es, fs = [], []
    for i in range(1, n):
        es.append(mono([_a(i)], [_a(i + 1)]))
        fs.append(mono([_a(i + 1)], [_a(i)]))
    es.append(mono([_a(n), _b(1)], []))
    fs.append(mono([], [_b(1), _a(n)], -1))
    for j in range(1, n):
        es.append(mono([_b(j + 1)], [_b(j)], -1))   # -b_j b_{j+1}*
        fs.append(mono([_b(j)], [_b(j + 1)], -1))
    one = WeylElement.one()
    hs = ([_number(_a(i)) - _number(_a(i + 1)) for i in range(1, n)]
          + [_number(_a(n)) + _number(_b(1)) + one]     # a_n* a_n + b_1 b_1*
          + [_number(_b(j + 1)) - _number(_b(j)) for j in range(1, n)])

    q = WeylElement.zero()
    for i in range(1, n + 1):
        q = q + _number(_a(i)) - _number(_b(i))
    e_theta = mono([_a(1), _b(n)], [])
    f_theta = mono([], [_b(n), _a(1)], -1)
    h_theta = _number(_a(1)) + _number(_b(n)) + one

    return GeneratorSet(
        algebra_label=f"u({n},{n})",
        cartan_matrix=cartan_a_type(2 * n - 1),
        E=es, F=fs, H=hs,
        extras={"Q": q, "E_theta": e_theta, "F_theta": f_theta, "H_theta": h_theta},
    )


def so_star_generators(n: int) -> GeneratorSet:
    """so*(4n) Chevalley set over a1..a_{2n}, b1..b_{2n} (D_{2n} diagram).

    E_i = a_i* a_{i+1} + b_{i+1} b_i* with F_i = E_i* for the compact chain;
    the spin node is E_{2n} = a_{2n-1}* b_{2n}* - a_{2n}* b_{2n-1}*.  Extras
    carry all noncompact raising operators E_ij and the u(1) generators Q
    and H.  Each H is written in number operators, not as the bracket
    [E, F], as in ``unn_generators``.
    """
    if n < 1:
        raise AlgebraError("so*(4n) requires n >= 1")
    k = 2 * n
    mono = WeylElement.monomial
    es, fs = [], []
    for i in range(1, k):
        e = mono([_a(i)], [_a(i + 1)]) + mono([_b(i)], [_b(i + 1)])
        es.append(e)
        fs.append(e.adjoint())
    e_spin = mono([_a(k - 1), _b(k)], []) - mono([_a(k), _b(k - 1)], [])
    f_spin = mono([], [_a(k), _b(k - 1)]) - mono([], [_a(k - 1), _b(k)])
    es.append(e_spin)
    fs.append(f_spin)
    two = WeylElement.scalar(2)
    hs = [_number(_a(i)) - _number(_a(i + 1)) + _number(_b(i)) - _number(_b(i + 1))
          for i in range(1, k)]
    hs.append(_number(_a(k - 1)) + _number(_a(k)) + _number(_b(k - 1)) + _number(_b(k)) + two)

    extras = {}
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            extras[f"E_{i}{j}"] = mono([_a(i), _b(j)], []) - mono([_a(j), _b(i)], [])
    extras["E_theta"] = extras["E_12"]
    extras["F_theta"] = -extras["E_12"].adjoint()
    extras["H_theta"] = _number(_a(1)) + _number(_a(2)) + _number(_b(1)) + _number(_b(2)) + two

    q = WeylElement.zero()
    h_center = WeylElement.zero()
    for i in range(1, k + 1):
        q = q + _number(_a(i)) - _number(_b(i))
        h_center = h_center + _number(_a(i)) + _number(_b(i)) + WeylElement.one()  # a*a + b b*
    extras.update({"Q": q, "H": h_center})

    return GeneratorSet(
        algebra_label=f"so*({4 * n})",
        cartan_matrix=cartan_d_type(k),
        E=es, F=fs, H=hs,
        extras=extras,
    )
