"""Exact scalars: rationals and Gaussian rationals Q(i).

A single scalar type carries both fields: a value with zero imaginary part
is a rational, and serializes as one.  All arithmetic is exact; there is no
floating point anywhere in the package.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError

_FRAC = r"[+-]?\d+(?:/\d+)?"
_REAL_RE = re.compile(rf"^({_FRAC})$")
_IMAG_RE = re.compile(rf"^({_FRAC})\*i$")
_BOTH_RE = re.compile(rf"^({_FRAC})([+-]\d+(?:/\d+)?)\*i$")


class Scalar:
    """Gaussian rational re + im*i with Fraction components.

    Immutable by convention: no method mutates self, so an operation may
    return one of its operands (x + 0 is x).  Conjugation is the exact
    involution fixing the rational subfield.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            other = as_scalar(other)
        if not other.re and not other.im:
            return self
        if not self.re and not self.im:
            return other
        if not self.im and not other.im:
            return _scalar(self.re + other.re)
        return _scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = as_scalar(other)
        if not other.re and not other.im:
            return self
        if not self.im and not other.im:
            return _scalar(self.re - other.re)
        return _scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return as_scalar(other).__sub__(self)

    def __neg__(self):
        return _scalar(-self.re, -self.im)

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = as_scalar(other)
        if not self.im and not other.im:
            if not self.re or not other.re:
                return ZERO
            return _scalar(self.re * other.re)
        return _scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = as_scalar(other)
        if not other.re and not other.im:
            raise ZeroDivisionError("scalar division by zero")
        if not self.im and not other.im:
            return _scalar(self.re / other.re)
        norm = other.re * other.re + other.im * other.im
        return _scalar(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        return as_scalar(other).__truediv__(self)

    # -- structure --------------------------------------------------------

    def conj(self) -> "Scalar":
        return _scalar(self.re, -self.im) if self.im else self

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, Scalar):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"Scalar({format_scalar(self)!r})"

    def __str__(self):
        return format_scalar(self)


_F0 = Fraction(0)


def _scalar(re: Fraction, im: Fraction = _F0) -> Scalar:
    """A Scalar from components that are already Fractions, unchecked."""
    x = object.__new__(Scalar)
    x.re = re
    x.im = im
    return x


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def as_scalar(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    if isinstance(x, str):
        return parse_scalar(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")


def _format_fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def format_scalar(x: Scalar) -> str:
    """Canonical string form: "p/q", "r/s*i" or "p/q+r/s*i" (lowest terms)."""
    if not x.im:
        return _format_fraction(x.re)
    if not x.re:
        return f"{_format_fraction(x.im)}*i"
    sign = "+" if x.im > 0 else "-"
    return f"{_format_fraction(x.re)}{sign}{_format_fraction(abs(x.im))}*i"


def parse_scalar(s: str) -> Scalar:
    """Parse the serialization grammar; reject anything else."""
    if not isinstance(s, str):
        raise ParseError(f"scalar must be a string, got {type(s).__name__}")
    text = s.strip()
    m = _REAL_RE.match(text)
    if m:
        return Scalar(_parse_fraction(m.group(1)))
    m = _IMAG_RE.match(text)
    if m:
        return Scalar(0, _parse_fraction(m.group(1)))
    m = _BOTH_RE.match(text)
    if m:
        return Scalar(_parse_fraction(m.group(1)), _parse_fraction(m.group(2)))
    raise ParseError(f"malformed scalar {s!r}")


def is_integer(value) -> bool:
    """True for a JSON integer; a JSON boolean loads as an int but is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_fraction(text: str) -> Fraction:
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ParseError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))
