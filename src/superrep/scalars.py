"""Exact complex-rational scalars of the form re + im*i.

These are the coefficients of enveloping-algebra elements.  All field
operations are exact; the only irrational constant the algebraic layer ever
needs is i itself (through the adjoint coefficient -i on odd generators).

A value is stored as three ints (a, b, d) meaning (a + b*i)/d, kept canonical:
d > 0 and gcd(a, b, d) == 1, so equal values have equal fields.  Arithmetic
works on the ints over a common denominator (the idea of FLINT's ``fmpq``) and
reduces each result with one three-argument gcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


@dataclass(frozen=True, init=False, repr=False)
class GaussianRational:
    """Immutable (a + b*i)/d; ``re`` and ``im`` read back as ``Fraction``."""

    __slots__ = ("_a", "_b", "_d")
    _a: int
    _b: int
    _d: int

    def __init__(self, re=0, im=0):
        re, im = _as_fraction(re), _as_fraction(im)
        q, s = re.denominator, im.denominator
        d = q * s // gcd(q, s)
        # both parts are reduced, so (a, b, d) over the lcm is already canonical
        _set_a(self, re.numerator * (d // q))
        _set_b(self, im.numerator * (d // s))
        _set_d(self, d)

    @staticmethod
    def of(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, Fraction):
            return _make(x.numerator, 0, x.denominator)
        if isinstance(x, int):
            return _make(int(x), 0, 1)  # int() turns a bool into 0 or 1
        return GaussianRational(x)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __reduce__(self):
        # the frozen __setattr__ would refuse the default slot restore
        return (GaussianRational, (self.re, self.im))

    def __add__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.of(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _make(self._a + other._a, self._b + other._b, d1)
        return _make(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.of(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _make(self._a - other._a, self._b - other._b, d1)
        return _make(self._a * d2 - other._a * d1, self._b * d2 - other._b * d1, d1 * d2)

    def __rsub__(self, other):
        return GaussianRational.of(other) - self

    def __mul__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.of(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        if not b1 and not b2:
            return _make(a1 * a2, 0, self._d * other._d)
        return _make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.of(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a1 + b1 i)/d1 * d2 (a2 - b2 i) / (a2^2 + b2^2)
        d2 = other._d
        return _make((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._d * n)

    def __rtruediv__(self, other):
        return GaussianRational.of(other) / self

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def conjugate(self) -> "GaussianRational":
        return _make(self._a, -self._b, self._d)

    def abs2(self) -> Fraction:
        """|z|^2, always a nonnegative rational."""
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __complex__(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    def __abs__(self) -> float:
        return float(self.abs2()) ** 0.5

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"


# the frozen __setattr__ refuses every write, so values are filled in through the slots
_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__
_new = object.__new__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """The canonical (a + b*i)/d, for ints a, b and d > 0; skips __init__."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    z = _new(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(Fraction(1))
GR_MINUS_ONE = GaussianRational(Fraction(-1))
GR_I = GaussianRational(Fraction(0), Fraction(1))
GR_MINUS_I = GaussianRational(Fraction(0), Fraction(-1))
GR_HALF = GaussianRational(Fraction(1, 2))
