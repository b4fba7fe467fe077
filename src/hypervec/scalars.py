"""Exact scalar arithmetic over the rationals and the Gaussian rationals.

Plain rationals are `fractions.Fraction` values: arbitrary precision and
always canonical (lowest terms, positive denominator). A
`GaussianRational` is a Gaussian integer over one positive denominator,
held as three ints; it meets `Fraction` only at its boundary. Every
operation is side-effect free and stays inside the field; no square
root is ever taken. The one comparison that would need a root goes
through `leq_sqrt_product`, which decides c <= sqrt(s1*s2) by sign
analysis and squaring.

Text forms are "p/q" for rationals and "p/q+r/s*i" for Gaussian
rationals, whitespace-insensitive, with "i" accepted for a unit
imaginary coefficient.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Union


class FieldTag(Enum):
    """Ground field of a model. Fixed per model; mixing is rejected."""

    Q = "Q"
    QI = "Qi"

    def __str__(self) -> str:
        return self.value


class GaussianRational:
    """An element ``(a + b*i)/d`` of Q[i], held as three integers.

    The stored form is canonical: ``d > 0`` and ``gcd(a, b, d) == 1``, so
    two values are equal exactly when their triples are. Arithmetic works
    on the integers and reduces each result with one `math.gcd`;
    `Fraction` appears only at the boundary: the constructor takes `int`
    or `Fraction` parts, and `re`, `im` and `abs2` return Fractions.

    Equality and hashing agree with `Fraction` and `int` whenever the
    imaginary part is zero, mirroring Python's own numeric tower, so a
    real-valued GaussianRational can sit in the same set as the equal
    Fraction without surprises.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        # p/q and r/s are in lowest terms, so over lcm(q, s) the triple
        # is already coprime
        g = gcd(q, s)
        self.a, self.b, self.d = p * (s // g), r * (q // g), q * (s // g)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        a, b, d = self.a, self.b, self.d
        c, e, f = o
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        c, e, f = o
        return self + _canonical(-c, -e, f)

    def __rsub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _canonical(*o) - self

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        a, b, d = self.a, self.b, self.d
        c, e, f = o
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _quotient(self.a, self.b, self.d, *o)

    def __rtruediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _quotient(*o, self.a, self.b, self.d)

    def __neg__(self):
        return _canonical(-self.a, -self.b, self.d)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other.numerator and self.d == other.denominator
        return NotImplemented

    def __hash__(self):
        # real-valued elements must hash like the equal Fraction
        if self.b == 0:
            return hash(self.a) if self.d == 1 else hash(Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def conjugate(self) -> "GaussianRational":
        return _canonical(self.a, -self.b, self.d)

    def abs2(self) -> Fraction:
        """Squared modulus (a^2 + b^2)/d^2, exact and rational."""
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


def _parts(x) -> tuple[int, int, int] | None:
    """The canonical triple of a GaussianRational, int or Fraction, else None."""
    if isinstance(x, GaussianRational):
        return x.a, x.b, x.d
    if isinstance(x, (int, Fraction)):
        return x.numerator, 0, x.denominator
    return None


def _canonical(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d from a triple that already has d > 0 and gcd 1."""
    z = object.__new__(GaussianRational)
    z.a, z.b, z.d = a, b, d
    return z


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d in canonical form; needs d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        return _canonical(a // g, b // g, d // g)
    return _canonical(a, b, d)


def _quotient(a: int, b: int, d: int, c: int, e: int, f: int) -> GaussianRational:
    """((a + b*i)/d) / ((c + e*i)/f) = f*(a + b*i)*(c - e*i) / (d*(c^2 + e^2))."""
    n = c * c + e * e
    if n == 0:
        raise ZeroDivisionError("division by zero in Q[i]")
    return _reduced(f * (a * c + b * e), f * (b * c - a * e), d * n)


Scalar = Union[Fraction, GaussianRational]


def _as_scalar(a: int | Scalar) -> Scalar:
    if isinstance(a, int):
        return Fraction(a)
    return a


def is_zero(a: int | Scalar) -> bool:
    return _as_scalar(a) == 0


def conjugate(a: int | Scalar) -> Scalar:
    a = _as_scalar(a)
    if isinstance(a, GaussianRational):
        return a.conjugate()
    return a


def abs2(a: int | Scalar) -> Fraction:
    """Squared modulus of a scalar; always a plain nonnegative Fraction."""
    a = _as_scalar(a)
    if isinstance(a, GaussianRational):
        return a.abs2()
    return a * a


def invert(a: int | Scalar) -> Scalar:
    a = _as_scalar(a)
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse")
    return 1 / a


def real_part(a: int | Scalar) -> Fraction:
    a = _as_scalar(a)
    if isinstance(a, GaussianRational):
        return a.re
    return a


_ZERO = Fraction(0)


def imag_part(a: int | Scalar) -> Fraction:
    a = _as_scalar(a)
    if isinstance(a, GaussianRational):
        return a.im
    return _ZERO


def as_real(a: int | Scalar) -> Fraction:
    """Extract the value of a real-valued scalar as a Fraction.

    Raises ValueError if the imaginary part is nonzero.
    """
    a = _as_scalar(a)
    if isinstance(a, GaussianRational):
        if a.b != 0:
            raise ValueError(f"scalar {format_scalar(a)} is not real")
        return a.re
    return a


def make_scalar(field: FieldTag, value: int | Scalar) -> Scalar:
    """Admit a value into the given field, rejecting cross-field input.

    Q accepts int/Fraction; Qi also accepts those (upcast) plus
    GaussianRational. A GaussianRational is refused by Q even when its
    imaginary part is zero: models never mix fields.
    """
    value = _as_scalar(value)
    if field is FieldTag.Q:
        if isinstance(value, GaussianRational):
            raise ValueError("field Q does not admit Gaussian rationals")
        return value
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(value)


_RAT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_PURE_IMAG_RE = re.compile(r"^(?P<coef>[+-]?\d+(?:/\d+)?\*|[+-]?)i$")
_FULL_RE = re.compile(
    r"^(?P<re>[+-]?\d+(?:/\d+)?)(?P<im>[+-](?:\d+(?:/\d+)?\*)?)i$"
)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (whitespace-insensitive) into a Fraction."""
    s = re.sub(r"\s+", "", text)
    if not _RAT_RE.match(s):
        raise ValueError(f"not a rational: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _imag_coef(chunk: str) -> Fraction:
    # chunk is "", "+", "-", or "p/q*" possibly signed
    if chunk in ("", "+"):
        return Fraction(1)
    if chunk == "-":
        return Fraction(-1)
    return parse_rational(chunk.rstrip("*"))


def parse_scalar(text: str, field: FieldTag) -> Scalar:
    """Parse a scalar in the given field's text form.

    Q: "p/q". Qi: "p/q", "p/q+r/s*i", "r/s*i", with "i" standing in for
    a coefficient of 1. All whitespace is ignored.
    """
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ValueError("empty scalar")
    if field is FieldTag.Q:
        if "i" in s:
            raise ValueError(f"field Q has no imaginary part: {text!r}")
        return parse_rational(s)
    if not s.endswith("i"):
        return GaussianRational(parse_rational(s))
    m = _PURE_IMAG_RE.match(s)
    if m:
        return GaussianRational(0, _imag_coef(m.group("coef")))
    m = _FULL_RE.match(s)
    if m:
        return GaussianRational(
            parse_rational(m.group("re")), _imag_coef(m.group("im"))
        )
    raise ValueError(f"not a Gaussian rational: {text!r}")


def format_scalar(a: int | Scalar) -> str:
    """Canonical text form; parse_scalar(format_scalar(a)) round-trips."""
    a = _as_scalar(a)
    if isinstance(a, GaussianRational):
        x, y = a.re, a.im
        if y == 0:
            return str(x)
        mag = "i" if abs(y) == 1 else f"{abs(y)}*i"
        if x == 0:
            return mag if y > 0 else f"-{mag}"
        sign = "+" if y > 0 else "-"
        return f"{x}{sign}{mag}"
    return str(a)


def leq_sqrt_product(c: Fraction, s1: Fraction, s2: Fraction) -> bool:
    """Decide c <= sqrt(s1 * s2) without leaving the rationals.

    Requires s1 >= 0 and s2 >= 0. True whenever c <= 0; otherwise both
    sides are nonnegative and squaring preserves the order.
    """
    if s1 < 0 or s2 < 0:
        raise ValueError("leq_sqrt_product needs nonnegative radicands")
    if c <= 0:
        return True
    return c * c <= s1 * s2
