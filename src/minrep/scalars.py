"""Exact scalar rings: Gaussian rationals and their sqrt(2) extension.

All coefficient arithmetic in the package is exact.  ``QI`` is the field
Q(i) with both components stored as ``fractions.Fraction``; ``QIS`` is the
ring Q(i)[s]/(s^2 - 2), used where a 1/sqrt(2) normalization appears in a
first-order operator but cancels out of every bilinear.
"""

from __future__ import annotations

from fractions import Fraction

_F0 = Fraction(0)
_F1 = Fraction(1)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot build an exact scalar from {type(x).__name__}")


class QI:
    """Gaussian rational re + im*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("QI is immutable")

    @staticmethod
    def of(x) -> "QI":
        if isinstance(x, QI):
            return x
        return QI(_frac(x))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, QI):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        o = QI.of(other)
        return QI(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return QI(-self.re, -self.im)

    def __sub__(self, other):
        o = QI.of(other)
        return QI(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return QI.of(other) - self

    def __mul__(self, other):
        o = QI.of(other)
        return QI(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = QI.of(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero in QI")
        return QI((self.re * o.re + self.im * o.im) / n, (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        return QI.of(other) / self

    def conj(self) -> "QI":
        return QI(self.re, -self.im)

    def is_real(self) -> bool:
        return self.im == 0

    def real_fraction(self) -> Fraction:
        if self.im != 0:
            raise ValueError(f"{self} is not real")
        return self.re

    def __repr__(self):
        return f"QI({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return _imag_str(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{_imag_str(abs(self.im))[1:] if self.im < 0 else _imag_str(self.im)}"


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

    def __init__(self, u=QI_ZERO, v=QI_ZERO):
        object.__setattr__(self, "u", QI.of(u))
        object.__setattr__(self, "v", QI.of(v))

    def __setattr__(self, name, value):
        raise AttributeError("QIS is immutable")

    @staticmethod
    def of(x) -> "QIS":
        if isinstance(x, QIS):
            return x
        return QIS(QI.of(x))

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
        return QIS(self.u + o.u, self.v + o.v)

    __radd__ = __add__

    def __neg__(self):
        return QIS(-self.u, -self.v)

    def __sub__(self, other):
        o = QIS.of(other)
        return QIS(self.u - o.u, self.v - o.v)

    def __rsub__(self, other):
        return QIS.of(other) - self

    def __mul__(self, other):
        o = QIS.of(other)
        # (u1 + v1 s)(u2 + v2 s) = u1 u2 + 2 v1 v2 + (u1 v2 + v1 u2) s
        return QIS(self.u * o.u + QI(2) * self.v * o.v, self.u * o.v + self.v * o.u)

    __rmul__ = __mul__

    def conj(self) -> "QIS":
        # s is real, so conjugation acts on the Q(i) components only.
        return QIS(self.u.conj(), self.v.conj())

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


QIS_SQRT2 = QIS(QI_ZERO, QI_ONE)
QIS_INV_SQRT2 = QIS(QI_ZERO, QI(Fraction(1, 2)))
