"""Exact scalar arithmetic over the rationals and the Gaussian rationals.

Plain rationals are `fractions.Fraction` values: arbitrary precision and
always canonical (lowest terms, positive denominator). `GaussianRational`
layers an exact imaginary part on top. Every operation is side-effect
free and stays inside the field; no square root is ever taken. The one
comparison that would need a root goes through `leq_sqrt_product`, which
decides c <= sqrt(s1*s2) by sign analysis and squaring.

Text forms are "p/q" for rationals and "p/q+r/s*i" for Gaussian
rationals, whitespace-insensitive, with "i" accepted for a unit
imaginary coefficient.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from typing import Union


class FieldTag(Enum):
    """Ground field of a model. Fixed per model; mixing is rejected."""

    Q = "Q"
    QI = "Qi"

    def __str__(self) -> str:
        return self.value


class GaussianRational:
    """An element ``re + im*i`` of Q[i] with exact `Fraction` parts.

    Equality and hashing agree with `Fraction` and `int` whenever the
    imaginary part is zero, mirroring Python's own numeric tower, so a
    real-valued GaussianRational can sit in the same set as the equal
    Fraction without surprises.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def _coerce(value) -> "GaussianRational | None":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        denom = other.abs2()
        if denom == 0:
            raise ZeroDivisionError("division by zero in Q[i]")
        num = self * other.conjugate()
        return GaussianRational(num.re / denom, num.im / denom)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # real-valued elements must hash like the equal Fraction
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus re^2 + im^2, exact and rational."""
        return self.re * self.re + self.im * self.im

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


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
    if isinstance(a, GaussianRational):
        c = a.conjugate()
        d = a.abs2()
        return GaussianRational(c.re / d, c.im / d)
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
        if a.im != 0:
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
        if a.im == 0:
            return str(a.re)
        unit = abs(a.im) == 1
        mag = "i" if unit else f"{abs(a.im)}*i"
        if a.re == 0:
            return mag if a.im > 0 else f"-{mag}"
        sign = "+" if a.im > 0 else "-"
        return f"{a.re}{sign}{mag}"
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
