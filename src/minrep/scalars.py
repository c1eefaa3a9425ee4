"""Exact scalar rings: Gaussian rationals and their sqrt(2) extension.

All coefficient arithmetic in the package is exact.  ``QI`` is the field
Q(i).  A ``QI`` holds three ints ``(a, b, d)``, the value (a + b*i)/d,
kept reduced: d > 0 and gcd(a, b, d) = 1, with zero stored as (0, 0, 1).
Equal values therefore have equal fields, and arithmetic runs on ints;
``.re`` and ``.im`` give the components as ``fractions.Fraction``.
``sum_products`` sums many weighted products w*x*y per key in ints, w an
int, and reduces each total once, giving the QI that ``+`` and ``*`` give
without building one per operation; an int operand is read as it is,
without building a QI.  Outside QI's own methods it is the one reader of
the fields, and the Wick kernel, the matrix products and the polynomial
operators all sum through it.  ``residues`` is the other reader: it
maps a vector's entries to a prime field in which i has a square root,
for ``linalg``'s rank certificate.  ``int_if_integer`` reads a real-integer
``QI`` as an ``int``, for the checks that need an integer eigenvalue or
weight.
``QIS`` is the ring Q(i)[s]/(s^2 - 2).  No suite computes in it:
the massless model runs over ``QI`` in u = sqrt(2) z coordinates.  The
class stays only because the benchmark's layer tracer counts
``QIS.__mul__`` by name; it goes when that counter is retired.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_new = object.__new__


def _parts(x) -> tuple[int, int]:
    """(numerator, denominator) of an int or a Fraction."""
    if type(x) is int:
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, int):
        return int(x), 1
    raise TypeError(f"cannot build an exact scalar from {type(x).__name__}")


class QI:
    """Gaussian rational (a + b*i)/d, stored reduced as three ints."""

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re=0, im=0):
        p, q = _parts(re)
        r, s = _parts(im)
        # p/q and r/s are in lowest terms, so over lcm(q, s) the triple
        # is already reduced.
        d = lcm(q, s)
        return _triple(p * (d // q), r * (d // s), d)

    def __setattr__(self, name, value):
        raise AttributeError("QI is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def of(x) -> "QI":
        if isinstance(x, QI):
            return x
        p, q = _parts(x)
        return _triple(p, 0, q)

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __eq__(self, other):
        if isinstance(other, QI):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return self._b == 0 and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (self._b == 0 and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        # that of the Fraction when real, of the (re, im) pair otherwise
        if self._b == 0:
            return hash(self._a) if self._d == 1 else hash(Fraction(self._a, self._d))
        return hash((self.re, self.im))

    def __add__(self, other):
        a, b, d = self._a, self._b, self._d
        if type(other) is not QI:
            if type(other) is int:
                # a + k*d keeps gcd(., b, d) = 1: no reduction
                return _triple(a + other * d, b, d)
            other = QI.of(other)
        e = other._d
        if d == e:
            return _reduced(a + other._a, b + other._b, d)
        return _reduced(a * e + other._a * d, b * e + other._b * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _triple(-self._a, -self._b, self._d)

    def __sub__(self, other):
        a, b, d = self._a, self._b, self._d
        if type(other) is not QI:
            if type(other) is int:
                return _triple(a - other * d, b, d)
            other = QI.of(other)
        e = other._d
        if d == e:
            return _reduced(a - other._a, b - other._b, d)
        return _reduced(a * e - other._a * d, b * e - other._b * d, d * e)

    def __rsub__(self, other):
        return QI.of(other) - self

    def __mul__(self, other):
        a, b, d = self._a, self._b, self._d
        if type(other) is not QI:
            if type(other) is int:
                return _reduced(a * other, b * other, d)
            other = QI.of(other)
        c, e = other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = QI.of(other)
        c, e = o._a, o._b
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero in QI")
        # (a + b i)/d / ((c + e i)/f) = (a + b i)(c - e i) f / (d (c^2 + e^2))
        a, b, f = self._a, self._b, o._d
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self._d * n)

    def __rtruediv__(self, other):
        return QI.of(other) / self

    def conj(self) -> "QI":
        return _triple(self._a, -self._b, self._d)

    def is_real(self) -> bool:
        return self._b == 0

    def real_fraction(self) -> Fraction:
        if self._b != 0:
            raise ValueError(f"{self} is not real")
        return Fraction(self._a, self._d)

    def __repr__(self):
        return f"QI({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return _imag_str(im)
        return f"{re}{'+' if im > 0 else '-'}{_imag_str(abs(im))}"


_set_a, _set_b, _set_d = QI._a.__set__, QI._b.__set__, QI._d.__set__


def _triple(a: int, b: int, d: int) -> QI:
    """The QI (a + b*i)/d for a triple that is already reduced."""
    q = _new(QI)
    _set_a(q, a)
    _set_b(q, b)
    _set_d(q, d)
    return q


def _reduced(a: int, b: int, d: int) -> QI:
    """The QI (a + b*i)/d for any d > 0."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    q = _new(QI)
    _set_a(q, a)
    _set_b(q, b)
    _set_d(q, d)
    return q


def sum_products(items) -> dict:
    """{key: sum of w * x * y} over (key, x, y, w) items, w an int weight.

    x and y are QI, int or Fraction, read as QI.of reads them; an int is
    read as its own numerator, without building a QI.  Each key's sum is
    kept as two int numerators over a running denominator: a product adds
    its numerators when their denominators agree, and otherwise both sides
    are brought over the lcm of the two, found through their gcd.  Each
    total is reduced once, at the end, into the same QI that QI arithmetic
    gives; keys whose total is zero are left out.
    """
    acc: dict = {}
    get = acc.get
    for key, x, y, w in items:
        if type(x) is QI:
            a, b, d = x._a, x._b, x._d
        elif type(x) is int:
            a, b, d = x, 0, 1
        else:
            x = QI.of(x)
            a, b, d = x._a, x._b, x._d
        if w != 1:
            a, b = a * w, b * w
        if type(y) is QI:
            c, e, f = y._a, y._b, y._d
            re, im, den = a * c - b * e, a * e + b * c, d * f
        elif type(y) is int:
            re, im, den = a * y, b * y, d
        else:
            y = QI.of(y)
            c, e, f = y._a, y._b, y._d
            re, im, den = a * c - b * e, a * e + b * c, d * f
        s = get(key)
        if s is None:
            acc[key] = [re, im, den]
        elif s[2] == den:
            s[0] += re
            s[1] += im
        else:
            g = gcd(s[2], den)
            u, v = den // g, s[2] // g
            s[0] = s[0] * u + re * v
            s[1] = s[1] * u + im * v
            s[2] *= u
    return {key: _reduced(*s) for key, s in acc.items() if s[0] or s[1]}


def residues(vector: dict, p: int, root: int) -> dict | None:
    """{key: residue} of the vector's entries mod the prime p, with i sent
    to root, a square root of -1 mod p; the zero residues are left out.

    The entry (a + b*i)/d, an int or a Fraction goes to (a + b*root) times
    the inverse of d mod p.  None when p divides some entry's denominator,
    which then has no residue.
    """
    out = {}
    for key, x in vector.items():
        if type(x) is QI:
            r, d = x._a + x._b * root, x._d
        elif type(x) is int:
            r, d = x, 1
        else:
            r, d = _parts(x)
        if d != 1:
            if d % p == 0:
                return None
            r *= pow(d, -1, p)
        if r := r % p:
            out[key] = r
    return out


def int_if_integer(c):
    """c as an int when it is a real integer ``QI``, else c itself."""
    if type(c) is QI and c._b == 0 and c._d == 1:
        return c._a
    return c


def _imag_str(im: Fraction) -> str:
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return f"{im}i"


QI_ZERO = QI(0)
QI_ONE = QI(1)
QI_I = QI(0, 1)


class QIS:
    """Element u + v*s of Q(i)[s]/(s^2 - 2), with u, v Gaussian rational."""

    __slots__ = ("u", "v")

    def __new__(cls, u=QI_ZERO, v=QI_ZERO):
        return _pair(QI.of(u), QI.of(v))

    def __setattr__(self, name, value):
        raise AttributeError("QIS is immutable")

    @staticmethod
    def of(x) -> "QIS":
        if isinstance(x, QIS):
            return x
        return _pair(QI.of(x), QI_ZERO)

    def __bool__(self):
        return bool(self.u) or bool(self.v)

    def __eq__(self, other):
        if isinstance(other, QIS):
            return self.u == other.u and self.v == other.v
        if isinstance(other, (int, Fraction, QI)):
            return not self.v and self.u == QI.of(other)
        return NotImplemented

    def __hash__(self):
        # equal to the hash of the QI (and so int or Fraction) it equals
        return hash((self.u, self.v)) if self.v else hash(self.u)

    def __add__(self, other):
        o = QIS.of(other)
        return _pair(self.u + o.u, self.v + o.v)

    __radd__ = __add__

    def __neg__(self):
        return _pair(-self.u, -self.v)

    def __sub__(self, other):
        o = QIS.of(other)
        return _pair(self.u - o.u, self.v - o.v)

    def __rsub__(self, other):
        return QIS.of(other) - self

    def __mul__(self, other):
        o = QIS.of(other)
        # (u1 + v1 s)(u2 + v2 s) = u1 u2 + 2 v1 v2 + (u1 v2 + v1 u2) s
        u1, v1, u2, v2 = self.u, self.v, o.u, o.v
        if not v1:
            return _pair(u1 * u2, u1 * v2)
        if not v2:
            return _pair(u1 * u2, v1 * u2)
        return _pair(u1 * u2 + v1 * v2 * 2, u1 * v2 + v1 * u2)

    __rmul__ = __mul__

    def conj(self) -> "QIS":
        # s is real, so conjugation acts on the Q(i) components only.
        return _pair(self.u.conj(), self.v.conj())

    def rational_part(self) -> QI:
        """The Q(i) value, requiring the s-component to have cancelled."""
        if self.v:
            raise ValueError(f"{self} has a residual sqrt(2) component")
        return self.u

    def __repr__(self):
        return f"QIS({self.u!r}, {self.v!r})"

    def __str__(self):
        if not self.v:
            return str(self.u)
        if not self.u:
            return f"({self.v})s"
        return f"({self.u})+({self.v})s"


_set_u, _set_v = QIS.u.__set__, QIS.v.__set__


def _pair(u: QI, v: QI) -> QIS:
    """The QIS u + v*s for two QIs."""
    x = _new(QIS)
    _set_u(x, u)
    _set_v(x, v)
    return x


QIS_SQRT2 = QIS(QI_ZERO, QI_ONE)
QIS_INV_SQRT2 = QIS(QI_ZERO, QI(Fraction(1, 2)))
