"""The monomials of a polynomial ring as exponent tuples, for the tests
that compare operators column by column."""


def monomials_of_degree(nvars: int, degree: int):
    """All exponent tuples of the given total degree, lexicographic."""
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            yield (first,) + rest


def monomials_up_to(nvars: int, degree: int):
    for d in range(degree + 1):
        yield from monomials_of_degree(nvars, d)
