"""Exact scalars: rationals and Gaussian rationals Q(i).

A single scalar type carries both fields: a value with zero imaginary part
is a rational, and serializes as one.  A scalar is a canonical triple of
Python ints, the type of one value at the edges: parsing, printing and one
entry of a ``linalg.Row``, whose kernels run on the ints of whole rows.  Its
exact arithmetic, which no verb runs, is the tests' reference and what the
benchmark's tracer counts.  There is no floating point.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import ParseError

# exactly the strings format_scalar writes: "0", a nonzero real part, a
# nonzero imaginary part "...*i" or both; parse_scalar checks the lowest terms
_PART = r"(-?)([1-9][0-9]*)(?:/([1-9][0-9]*))?"
_SCALAR_RE = re.compile(
    rf"0|{_PART}|{_PART}\*i|{_PART}([+-])([1-9][0-9]*)(?:/([1-9][0-9]*))?\*i")
_INT_RE = re.compile(r"0|-?[1-9][0-9]*")     # the common case, read by int()


class Scalar:
    """Gaussian rational (a + b*i)/d, stored as three ints.

    The triple is canonical: d > 0 and gcd(a, b, d) = 1, so equal values
    have equal triples, and a value with b = 0 is a rational that compares
    and hashes like its Fraction.  Immutable by convention: no method
    mutates self, so an operation may return one of its operands (x + 0 is
    x).  Conjugation is the exact involution fixing the rational subfield.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if not (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))):
            raise TypeError("Scalar parts must be int or Fraction, not "
                            f"{type(re).__name__} and {type(im).__name__}")
        # over the lcm of the two denominators no prime divides a, b and d
        self.d = d = lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            other = as_scalar(other)
        if not other.a and not other.b:
            return self
        if not self.a and not self.b:
            return other
        d1, d2 = self.d, other.d
        return _canon(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = as_scalar(other)
        if not other.a and not other.b:
            return self
        d1, d2 = self.d, other.d
        return _canon(self.a * d2 - other.a * d1, self.b * d2 - other.b * d1, d1 * d2)

    def __rsub__(self, other):
        return as_scalar(other).__sub__(self)

    def __neg__(self):
        return _canon(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = as_scalar(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        if not b1 and not b2:
            return _canon(a1 * a2, 0, self.d * other.d) if a1 and a2 else ZERO
        return _canon(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # (a1 + b1 i)/d1 / ((a2 + b2 i)/d2)
        #   = (a1 + b1 i)(a2 - b2 i) d2 / (d1 (a2^2 + b2^2))
        if type(other) is not Scalar:
            other = as_scalar(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        if not a2 and not b2:
            raise ZeroDivisionError("scalar division by zero")
        return _canon((a1 * a2 + b1 * b2) * other.d, (b1 * a2 - a1 * b2) * other.d,
                      self.d * (a2 * a2 + b2 * b2))

    def __rtruediv__(self, other):
        return as_scalar(other).__truediv__(self)

    # -- structure --------------------------------------------------------

    def conj(self) -> "Scalar":
        return _canon(self.a, -self.b, self.d) if self.b else self

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if type(other) is Scalar:
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return not self.b and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.b:
            return hash((self.a, self.b, self.d))
        return hash(self.a) if self.d == 1 else hash(self.re)

    def __repr__(self):
        return f"Scalar({format_scalar(self)!r})"

    def __str__(self):
        return format_scalar(self)


def _canon(a: int, b: int, d: int) -> Scalar:
    """The Scalar (a + b*i)/d, d != 0, brought to canonical form."""
    g = gcd(a, b, d)
    if d < 0:
        g = -g
    x = object.__new__(Scalar)
    x.a, x.b, x.d = a // g, b // g, d // g
    return x


ZERO = Scalar(0)
I = Scalar(0, 1)


def as_scalar(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    if isinstance(x, str):
        return parse_scalar(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")


def _format_fraction(n: int, d: int) -> str:
    """n/d, d > 0, in lowest terms."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def format_scalar(x: Scalar) -> str:
    """Canonical string form: "p/q", "r/s*i" or "p/q+r/s*i" (lowest terms)."""
    if not x.b:
        return _format_fraction(x.a, x.d)
    if not x.a:
        return f"{_format_fraction(x.b, x.d)}*i"
    sign = "+" if x.b > 0 else "-"
    return f"{_format_fraction(x.a, x.d)}{sign}{_format_fraction(abs(x.b), x.d)}*i"


def parse_scalar(s: str) -> Scalar:
    """Parse the serialization grammar, exactly the strings format_scalar
    writes; reject anything else."""
    if not isinstance(s, str):
        raise ParseError(f"scalar must be a string, got {type(s).__name__}")
    if _INT_RE.fullmatch(s):
        return _canon(int(s), 0, 1)
    m = _SCALAR_RE.fullmatch(s)
    if m is None:
        raise ParseError(f"malformed scalar {s!r}")
    # one alternative matched: the groups of the others read as the part 0
    g, parts = m.groups(), []
    for sign, num, den in (g[0:3] if g[1] else g[6:9], g[3:6] if g[4] else g[9:12]):
        n, d = (int(sign + num), int(den or 1)) if num else (0, 1)
        if den and (d == 1 or gcd(n, d) != 1):
            raise ParseError(f"scalar {s!r} is not in lowest terms")
        parts.append((n, d))
    (a, d), (b, e) = parts
    return _canon(a * e, b * d, d * e)


def is_integer(value) -> bool:
    """True for a JSON integer; a JSON boolean loads as an int but is not one."""
    return isinstance(value, int) and not isinstance(value, bool)
