"""Exact Gaussian-rational scalars: the single number system used everywhere.

A Scalar is a + b*i with a, b arbitrary-precision rationals.  All arithmetic
is exact; equality is structural equality of canonical (reduced) forms.

Literals have one grammar: `parse_gaussian` reads one into Gaussian-integer
numerators over one denominator, and `parse_scalar` wraps that in a Scalar.
`as_gaussian` takes any value a constructor accepts (int, Fraction, literal,
Scalar, or a literal's numerators already parsed) to the same numerators.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import lcm


class ScalarParseError(ValueError):
    """Raised when a scalar literal does not match the grammar."""


class ScalarArithmeticError(ZeroDivisionError):
    """Raised on division or inversion by zero."""


class _Record:
    """A frozen record, equal to a record of its own class with an equal
    `_key()`, its fields, and hashed as that."""

    __slots__ = ()

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())


class Scalar(_Record):
    """An element of Q(i).  Fraction keeps both parts reduced and canonical."""

    __slots__ = ("re", "im")

    def __init__(self, re=Fraction(0), im=Fraction(0)):
        object.__setattr__(self, "re", re if isinstance(re, Fraction) else Fraction(re))
        object.__setattr__(self, "im", im if isinstance(im, Fraction) else Fraction(im))

    def _key(self) -> tuple:
        return self.re, self.im

    # -- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- field arithmetic ----------------------------------------------
    def __add__(self, other: "Scalar") -> "Scalar":
        other = _coerce(other)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: "Scalar") -> "Scalar":
        other = _coerce(other)
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "Scalar":
        return _coerce(other) - self

    def __mul__(self, other: "Scalar") -> "Scalar":
        other = _coerce(other)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im)

    def conj(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def inv(self) -> "Scalar":
        if self.is_zero():
            raise ScalarArithmeticError("inversion of zero scalar")
        n = self.re * self.re + self.im * self.im
        return Scalar(self.re / n, -self.im / n)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        other = _coerce(other)
        if other.is_zero():
            raise ScalarArithmeticError("division by zero scalar")
        return self * other.inv()

    def __rtruediv__(self, other) -> "Scalar":
        return _coerce(other) / self

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return self.inv() ** (-k)
        out = ONE
        for _ in range(k):
            out = out * self
        return out

    # -- rendering -----------------------------------------------------
    def render(self) -> str:
        """Inverse of parse_scalar on canonical scalars."""
        if self.im == 0:
            return _frac_str(self.re)
        ipart = _frac_str(abs(self.im)) + "i"
        if abs(self.im) == 1:
            ipart = "i"
        sign = "-" if self.im < 0 else ""
        if self.re == 0:
            return sign + ipart
        join = "-" if self.im < 0 else "+"
        return _frac_str(self.re) + join + ipart

    def __repr__(self) -> str:
        return f"Scalar({self.render()!r})"


def _coerce(v) -> Scalar:
    if isinstance(v, Scalar):
        return v
    if isinstance(v, (int, Fraction)):
        return Scalar(Fraction(v))
    raise TypeError(f"cannot coerce {type(v).__name__} to Scalar")


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


ZERO = Scalar()
ONE = Scalar(Fraction(1))
I = Scalar(Fraction(0), Fraction(1))


_TERM = r"(\d+(?:/\d+)?)"
_SCALAR_RE = re.compile(
    rf"(?P<s1>[+-]?)(?:(?P<a>{_TERM})(?:(?P<s2>[+-])(?P<b>{_TERM})?(?P<i2>i))?"
    rf"|(?P<b1>{_TERM})?(?P<i1>i))"
)


def scalar(re_part=0, im_part=0) -> Scalar:
    """Convenience constructor from ints/Fractions/strings."""
    if isinstance(re_part, str):
        return parse_scalar(re_part)
    return Scalar(Fraction(re_part), Fraction(im_part))


def _parse_frac(text: str, raw: str) -> tuple[int, int]:
    """A matched term INT[/INT] as (numerator, positive denominator)."""
    num, _, den = text.partition("/")
    try:
        n, d = int(num), int(den or 1)
    except ValueError:  # only past the interpreter's limit on integer strings
        raise ScalarParseError(
            f"integer of more than {sys.get_int_max_str_digits()} digits") from None
    if d == 0:
        raise ScalarParseError(f"zero denominator in {raw!r}")
    return n, d


def parse_gaussian(text: str) -> tuple[int, int, int]:
    """Parse a scalar literal such as '2', '-1/2', 'i', '1/2-3i', '3+i' to
    Gaussian-integer numerators over one positive denominator: (re, im, den)
    for (re + im i) / den, not necessarily in lowest terms."""
    m = _SCALAR_RE.fullmatch(text.replace(" ", ""))
    if m is None:
        raise ScalarParseError(f"malformed scalar {text!r}")
    sign = -1 if m.group("s1") == "-" else 1
    if m.group("i1"):  # pure imaginary: [-][INT[/INT]]i
        b, d = _parse_frac(m.group("b1") or "1", text)
        return 0, sign * b, d
    a, da = _parse_frac(m.group("a"), text)
    if not m.group("i2"):
        return sign * a, 0, da
    b, db = _parse_frac(m.group("b") or "1", text)
    return sign * a * db, (-b if m.group("s2") == "-" else b) * da, da * db


def parse_scalar(text: str) -> Scalar:
    """parse_gaussian's value as a Scalar."""
    re_num, im_num, den = parse_gaussian(text)
    return Scalar(Fraction(re_num, den), Fraction(im_num, den))


def as_gaussian(value) -> tuple[int, int, int]:
    """An int, Fraction, Scalar or literal (or parse_gaussian's tuple for one) as
    Gaussian-integer numerators over one positive denominator, (re, im, den)."""
    if isinstance(value, tuple):
        return value
    if isinstance(value, str):
        return parse_gaussian(value)
    if isinstance(value, (int, Fraction)):
        return value.numerator, 0, value.denominator
    if isinstance(value, Scalar):
        a, b = value.re, value.im
        den = lcm(a.denominator, b.denominator)
        return a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), den
    raise TypeError(f"bad scalar value {value!r}")
