"""Vectors with exact coordinates over Q or Q[i].

A vector is held in lattice form: a tuple of integer numerators over one
positive denominator, plus, over Q[i], a second tuple of imaginary
numerators. Arithmetic, equality, hashing and sorting work on the ints
and reduce each result with one `math.gcd`; the hot constructors build
each tuple from a list comprehension, which CPython runs faster than a
generator expression. `Fraction` and `GaussianRational` appear only at
the boundary: the `Vector(coords)` constructor, `coords`, `vector_key`
and the text forms.

Text form: "(p/q, p/q, ...)". One coordinate minimum; dimension is fixed
per model and enforced where vectors meet model operations.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .scalars import (
    FieldTag,
    GaussianRational,
    Scalar,
    _parts,
    _reduced,
    format_scalar,
    make_scalar,
    parse_scalar,
)


class Vector:
    """The vector ``(nums + ims*i)/den`` of Q^n or Q[i]^n.

    nums and ims are tuples of ints, ims is None over Q, and den > 0.
    The stored form is canonical: the gcd of den and every numerator is
    1, so two vectors of one field are equal exactly when their triples
    are. A Q[i] vector whose imaginary numerators are all zero equals,
    and hashes like, the equal Q vector, as a real-valued
    GaussianRational does the equal Fraction.
    """

    __slots__ = ("nums", "ims", "den")

    def __init__(self, coords: Iterable[Scalar]):
        coords = tuple(coords)
        if not coords:
            raise ValueError("a vector needs at least one coordinate")
        parts = []
        for c in coords:
            p = _parts(c)
            if p is None:
                raise TypeError(f"not a scalar: {c!r}")
            parts.append(p)
        # each coordinate is in lowest terms, so over the lcm of their
        # denominators the numerators are already coprime to it
        den = lcm(*(d for _, _, d in parts))
        self.nums = tuple(a * (den // d) for a, _, d in parts)
        gaussian = any(isinstance(c, GaussianRational) for c in coords)
        self.ims = tuple(b * (den // d) for _, b, d in parts) if gaussian else None
        self.den = den

    @property
    def coords(self) -> tuple[Scalar, ...]:
        d = self.den
        if self.ims is None:
            return tuple(Fraction(n, d) for n in self.nums)
        return tuple(_reduced(n, m, d) for n, m in zip(self.nums, self.ims))

    @property
    def dim(self) -> int:
        return len(self.nums)

    @property
    def is_zero(self) -> bool:
        return not any(self.nums) and not any(self.ims or ())

    def __add__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return _combine(self, other, 1)

    def __sub__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return _combine(self, other, -1)

    def __neg__(self):
        ims = self.ims
        return _canonical(
            tuple([-n for n in self.nums]),
            None if ims is None else tuple([-m for m in ims]),
            self.den,
        )

    def scaled(self, a: Scalar) -> "Vector":
        """a*x for an int, Fraction or GaussianRational a; over Q a
        GaussianRational promotes the result to Q[i]."""
        nums, ims = self.nums, self.ims
        if isinstance(a, GaussianRational):
            c, e, f = a.a, a.b, a.d
            ims = ims or (0,) * len(nums)
            return lattice_vector(
                tuple([n * c - m * e for n, m in zip(nums, ims)]),
                tuple([n * e + m * c for n, m in zip(nums, ims)]),
                self.den * f,
            )
        p = a.numerator
        return lattice_vector(
            tuple([n * p for n in nums]),
            None if ims is None else tuple([m * p for m in ims]),
            self.den * a.denominator,
        )

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        if self.den != other.den or self.nums != other.nums:
            return False
        return self.ims == other.ims or not any(self.ims or ()) and not any(other.ims or ())

    def __hash__(self):
        if any(self.ims or ()):
            return hash((self.nums, self.ims, self.den))
        return hash((self.nums, self.den))

    def __repr__(self):
        return f"Vector({self.coords!r})"

    def __str__(self):
        return "(" + ", ".join(format_scalar(c) for c in self.coords) + ")"


def _canonical(nums: tuple[int, ...], ims: tuple[int, ...] | None, den: int) -> Vector:
    """The vector from a triple that already has den > 0 and gcd 1."""
    v = object.__new__(Vector)
    v.nums, v.ims, v.den = nums, ims, den
    return v


def lattice_vector(nums: tuple[int, ...], ims: tuple[int, ...] | None, den: int) -> Vector:
    """The vector (nums + ims*i)/den in canonical form; needs den > 0 and
    ims None over Q."""
    g = gcd(den, *nums) if ims is None else gcd(den, *nums, *ims)
    if g != 1:
        nums = tuple([n // g for n in nums])
        ims = None if ims is None else tuple([m // g for m in ims])
        den //= g
    return _canonical(nums, ims, den)


def _combine(x: Vector, y: Vector, sign: int) -> Vector:
    """x + sign*y over the lcm of the two denominators."""
    if len(x.nums) != len(y.nums):
        raise ValueError(f"dimension mismatch: {len(x.nums)} vs {len(y.nums)}")
    d, e = x.den, y.den
    g = gcd(d, e)
    s, t = e // g, sign * (d // g)
    nums = tuple([a * s + b * t for a, b in zip(x.nums, y.nums)])
    if x.ims is None and y.ims is None:
        ims = None
    else:
        zeros = (0,) * len(nums)
        ims = tuple([a * s + b * t for a, b in zip(x.ims or zeros, y.ims or zeros)])
    return lattice_vector(nums, ims, d * s)


def make_vector(field: FieldTag, values: Iterable) -> Vector:
    return Vector(tuple(make_scalar(field, v) for v in values))


def zero_vector(field: FieldTag, dim: int) -> Vector:
    if dim < 1:
        raise ValueError("a vector needs at least one coordinate")
    zeros = (0,) * dim
    return _canonical(zeros, None if field is FieldTag.Q else zeros, 1)


def unit_vector(field: FieldTag, dim: int) -> Vector:
    """e1 = (1, 0, ..., 0) of field^dim; ValueError when dim < 1."""
    zero = zero_vector(field, dim)
    return _canonical((1,) + zero.nums[1:], zero.ims, 1)


def vector_key(v: Vector) -> tuple[tuple[Fraction, Fraction], ...]:
    """Deterministic total order on vectors of equal dimension: the
    (real, imaginary) parts of each coordinate, as Fractions."""
    d, ims = v.den, v.ims or (0,) * len(v.nums)
    return tuple((Fraction(n, d), Fraction(m, d)) for n, m in zip(v.nums, ims))


def _int_key(v: Vector, scale: int, gaussian: bool) -> tuple[int, ...]:
    """The numerators of v times scale, real and imaginary parts
    interleaved when gaussian."""
    if not gaussian:
        return tuple([n * scale for n in v.nums])
    ims = v.ims or (0,) * len(v.nums)
    return tuple([k * scale for pair in zip(v.nums, ims) for k in pair])


def sorted_vectors(vectors: Iterable[Vector]) -> tuple[Vector, ...]:
    """The distinct vectors in vector_key order, compared on ints.

    Scaled to a common denominator, the numerators of each vector order
    like its coordinates, so one integer key per vector, real and
    imaginary parts interleaved, sorts like vector_key. Two vectors are
    scaled by each other's denominator and compared once; more are
    scaled to the lcm of their denominators and sorted.
    """
    vs = list(vectors)
    if len(vs) == 1:
        return (vs[0],)
    if len(vs) == 2:
        u, v = vs
        gaussian = u.ims is not None or v.ims is not None
        ku, kv = _int_key(u, v.den, gaussian), _int_key(v, u.den, gaussian)
        if ku == kv:
            return (u,)
        return (u, v) if ku < kv else (v, u)
    unique = set(vs)
    den = lcm(*(v.den for v in unique))
    gaussian = any(v.ims is not None for v in unique)
    return tuple(sorted(unique, key=lambda v: _int_key(v, den // v.den, gaussian)))


def parse_vector(text: str, field: FieldTag) -> Vector:
    """Parse "(p/q, p/q, ...)" in the given field; whitespace-insensitive."""
    s = re.sub(r"\s+", "", text)
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"vector must be parenthesized: {text!r}")
    body = s[1:-1]
    if not body:
        raise ValueError("empty vector")
    return Vector(tuple(parse_scalar(part, field) for part in body.split(",")))
