"""Concrete carriers with set-valued scalar multiplication.

A model is F^n together with a product ``a o x`` that yields a whole set
of vectors. Only finitely describable shapes are allowed so membership,
enumeration, and set equality stay exactly decidable. There are two
set shapes, each a value class (checker.Value) compared by its fields:

* FiniteSet: explicit nonempty deduplicated set,
* GeometricRay: {base * ratio^k : k >= 0} with nonzero base and a
  positive rational ratio other than 1.

Four product families are built in, each a Family: a value that
multiplies the classical value a*x by a fixed set M.

* trivial:        a o x = {a*x}
* zero_augmented: a o x = {a*x, 0}
* geometric(r):   a o x = {a*x*r^k : k >= 0} for a, x nonzero, else {0}
* sign:           a o x = {a*x, -a*x}, over Q only

Family gives each its token as str(family) and the essential set
U(M)*(a*x) = {a*x} of U(M) = {1}; sign, with U(M) = {1, -1}, overrides
it. Each family writes its own product, apply.

check_wvs_axioms samples the five weak-space axioms on (2, 2) tuples,
the stream the two normality readings of `essential` read too. One law
builder (_sum_laws) decides the three suites a run plans on each tuple
from the scalings a*x, a*y and b*x, reading a*(x+y) = a*x + a*y,
(a+b)*x = a*x + b*x, a*(-x) = (-a)*x = -(a*x) and 1*x = x off them:
the axioms compare the products built from these values, the readings
(_read_condition) the essential sets U(M)*v that family.essential gives
for them, the closed form essential.essential_points returns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from .checker import CheckReport, SampleConfig, Value, Witness, run_one
from .scalars import FieldTag, Scalar, is_zero, make_scalar
from .vectors import Vector, sorted_vectors, zero_vector


class ModelError(ValueError):
    """Bad model parameter, field/dimension mismatch, or unsupported shape."""


def rational(name: str, value: int | Fraction) -> Fraction:
    """value as a Fraction, a ModelError unless its class is int or
    Fraction: a float, bool or str from an API caller is refused, never
    read as the binary fraction or text it stands for."""
    if value.__class__ not in (int, Fraction):
        raise ModelError(f"{name} must be an int or a Fraction, got {value!r}")
    return Fraction(value)


# The largest dimension a model admits, so that a model file cannot ask
# for vectors whose size grows with the value of a number.
MAX_DIM = 64


class FiniteSet(Value):
    """Explicit finite set; elements are sorted and deduplicated."""

    __slots__ = _fields = ("elements",)

    def __init__(self, elements: tuple[Vector, ...]):
        if not elements:
            raise ModelError("a hyperset is never empty")
        self.elements = elements

    def __eq__(self, other):  # Value's, without its generic reads: this one is hot
        if other.__class__ is not FiniteSet:
            return NotImplemented
        return self.elements == other.elements

    __hash__ = Value.__hash__

    def __str__(self):
        return "{" + ", ".join(str(v) for v in self.elements) + "}"


class GeometricRay(Value):
    """{base * ratio^k : k >= 0}; base nonzero, ratio positive and != 1."""

    __slots__ = _fields = ("base", "ratio")

    def __init__(self, base: Vector, ratio: Fraction):
        if base.is_zero:
            raise ModelError("ray base must be nonzero; use ray() to normalize")
        _validate_ratio(ratio)
        self.base, self.ratio = base, ratio

    def __eq__(self, other):  # Value's, without its generic reads: this one is hot
        if other.__class__ is not GeometricRay:
            return NotImplemented
        return (self.base, self.ratio) == (other.base, other.ratio)

    __hash__ = Value.__hash__

    def __str__(self):
        return f"{{{self.base}*({self.ratio})^k : k >= 0}}"


HyperSet = Union[FiniteSet, GeometricRay]


def _validate_ratio(ratio: Fraction):
    if not isinstance(ratio, Fraction):
        raise ModelError("ratio must be a Fraction")
    # on the ints: comparing a Fraction with an int checks it against
    # numbers.Rational's ABC, and every ray built checks its ratio
    if ratio.numerator <= 0 or ratio.numerator == ratio.denominator:
        raise ModelError(f"ratio must be positive and != 1, got {ratio}")


def finite(vectors: Iterable[Vector]) -> FiniteSet:
    """Build a FiniteSet: deduplicate and sort for determinism."""
    return FiniteSet(sorted_vectors(vectors))


def ray(base: Vector, ratio: Fraction) -> HyperSet:
    """Geometric ray from base; a zero base collapses to {0}."""
    if base.is_zero:
        _validate_ratio(ratio)  # GeometricRay checks it otherwise
        return finite([base])
    return GeometricRay(base, ratio)


# --- families -------------------------------------------------------------


class Family(Value):
    """A product family: a o x = M*ax for a fixed set M of multipliers.

    str(family) is its token in the model-file language, and
    family.apply(ax, zero) is the set a o x built from the classical
    value ax = a*x and the model's zero vector. family.essential(ax) is
    the essential set U(M)*ax, where U(M) holds the m in M with 1/m in M
    (essential.essential_points holds the proof). The base states
    U(M) = {1}, so essential(ax) is (ax,); a family with more units
    overrides it. Each family writes its own apply: it is the hottest
    call of every run, so no family builds its set from M element by
    element.
    """

    __slots__ = ()
    token = ""

    def __str__(self):
        return self.token

    def essential(self, ax: Vector) -> tuple[Vector, ...]:
        return (ax,)


class Trivial(Family):
    """a o x = {a*x}: the classical single-valued product. M = U(M) = {1}."""

    __slots__ = ()
    token = "trivial"

    def apply(self, ax: Vector, zero: Vector) -> HyperSet:
        return finite([ax])


class ZeroAugmented(Family):
    """a o x = {a*x, 0}: the classical product with 0 adjoined.
    M = {0, 1}, U(M) = {1}."""

    __slots__ = ()
    token = "zero_augmented"

    def apply(self, ax: Vector, zero: Vector) -> HyperSet:
        return finite([ax, zero])


class Geometric(Family):
    """a o x = {a*x*ratio^k : k >= 0} for nonzero a and x, else {0}.
    M = {ratio^k : k >= 0}, U(M) = {1}."""

    __slots__ = _fields = ("ratio",)

    def __init__(self, ratio: int | Fraction):
        self.ratio = rational("ratio", ratio)
        _validate_ratio(self.ratio)

    def __str__(self):
        return f"geometric({self.ratio})"

    def apply(self, ax: Vector, zero: Vector) -> HyperSet:
        return ray(ax, self.ratio)


class Sign(Family):
    """a o x = {a*x, -a*x}. Defined over Q only. M = U(M) = {1, -1}."""

    __slots__ = ()
    token = "sign"

    def apply(self, ax: Vector, zero: Vector) -> HyperSet:
        return finite([ax, -ax])

    def essential(self, ax: Vector) -> tuple[Vector, ...]:
        return sorted_vectors((ax, -ax))


class ModelSpec(Value):
    _fields = ("field", "dim", "family")
    # _zero is built once: every product asks for it
    __slots__ = _fields + ("_zero",)

    def __init__(self, field: FieldTag, dim: int, family: Family):
        if dim.__class__ is not int or not 1 <= dim <= MAX_DIM:  # never a bool
            raise ModelError(f"dim must be an integer from 1 to {MAX_DIM}, got {dim!r}")
        if not isinstance(family, Family):
            raise ModelError(f"not a product family: {family!r}")
        if isinstance(family, Sign) and field is FieldTag.QI:
            raise ModelError("the sign family is defined over Q only")
        self.field, self.dim, self.family = field, dim, family
        self._zero = zero_vector(field, dim)

    def describe(self) -> str:
        return f"{self.family} {self.field} dim={self.dim}"

    def admit_scalar(self, a: int | Scalar) -> Scalar:
        try:
            return make_scalar(self.field, a)
        except ValueError as exc:
            raise ModelError(str(exc)) from None

    def admit_vector(self, x: Vector) -> Vector:
        if not isinstance(x, Vector):
            raise ModelError(f"not a vector: {x!r}")
        if x.dim != self.dim:
            raise ModelError(f"dimension mismatch: model dim={self.dim}, got {x.dim}")
        if self.field is FieldTag.Q and x.ims is not None:
            raise ModelError("field Q does not admit Gaussian coordinates")
        return x

    def zero(self) -> Vector:
        return self._zero


# --- the set-valued product ------------------------------------------------


def product(model: ModelSpec, a: int | Scalar, x: Vector) -> HyperSet:
    """The model's set-valued product a o x.

    a and x must be of the model's field and dimension; values from
    outside go through ModelSpec.admit_scalar/admit_vector first. An int
    such as 1 lies in every field and needs no admitting.
    """
    return model.family.apply(x.scaled(a), model.zero())


def _solve_power(t: Fraction, r: Fraction) -> int | None:
    """Exact k >= 0 with r^k == t, else None. r positive, != 1.

    r = p/q and t are in lowest terms and so is p^k/q^k, so r^k == t
    exactly when num(t) == p^k and den(t) == q^k. The larger of p and q
    is an integer b >= 2 whose power must equal the matching part m of
    t, so the only candidate is k = log_b(m), read off the logarithms
    (math.log2 takes ints of any size) and confirmed with exact powers.
    """
    if t <= 0:
        return None
    p, q = r.numerator, r.denominator
    b, m = (p, t.numerator) if p > q else (q, t.denominator)
    k = round(math.log2(m) / math.log2(b))
    if pow(p, k) == t.numerator and pow(q, k) == t.denominator:
        return k
    return None


def _ray_exponent(s: GeometricRay, v: Vector) -> int | None:
    """Exact k with v == base * ratio^k (k >= 0), else None.

    v lies on the ray's half-line exactly when its numerators, real and
    imaginary parts side by side, are a positive multiple of the base's:
    every integer cross-product against one pivot component of the base
    agrees, and the pivot components have the same sign. Only the
    multiple itself is built as a Fraction, for _solve_power.
    """
    b = s.base
    if v.dim != b.dim:
        return None
    us, ws = b.nums, v.nums
    if b.ims is not None or v.ims is not None:
        zeros = (0,) * len(us)
        us, ws = us + (b.ims or zeros), ws + (v.ims or zeros)
    j = next(i for i, u in enumerate(us) if u)  # the base is nonzero
    u0, w0 = us[j], ws[j]
    if w0 == 0 or (w0 > 0) != (u0 > 0):
        return None
    if any(w * u0 != u * w0 for u, w in zip(us, ws)):
        return None
    return _solve_power(Fraction(w0 * b.den, u0 * v.den), s.ratio)


def contains(s: HyperSet, v: Vector) -> bool:
    """Exact membership for every shape."""
    if isinstance(s, FiniteSet):
        return v in s.elements
    # the base is the element asked for most: a*x in a o x
    return v == s.base or _ray_exponent(s, v) is not None


def enumerate_set(s: HyperSet, depth: int) -> list[Vector]:
    """Deterministic enumeration; rays are truncated to depth elements."""
    if depth < 1:
        raise ModelError("depth must be positive")
    if isinstance(s, FiniteSet):
        return list(s.elements)
    return [s.base.scaled(s.ratio**k) for k in range(depth)]


def hyperset_eq(s1: HyperSet, s2: HyperSet) -> bool:
    """Exact set equality across shapes.

    Both shapes are canonical, so set equality is equality of the
    shape values: a FiniteSet's elements are sorted and distinct, a ray
    is infinite (base nonzero, ratio != 1 make all elements distinct) so
    it never equals a finite shape, and a ray determines its (base,
    ratio) pair uniquely: base is the extreme element and base*ratio
    the next one.
    """
    return s1 == s2


def negate_set(s: HyperSet) -> HyperSet:
    """The image of a hyperset under negation."""
    if isinstance(s, FiniteSet):
        return finite([-v for v in s.elements])
    return GeometricRay(-s.base, s.ratio)


def sumset(s1: HyperSet, s2: HyperSet, depth: int) -> FiniteSet:
    """Pairwise sums of the depth-bounded enumerations."""
    left = enumerate_set(s1, depth)
    right = enumerate_set(s2, depth)
    return finite([u + v for u in left for v in right])


def intersect_nonempty(s1: HyperSet, s2: HyperSet, depth: int) -> Vector | None:
    """A common element, or None if none is found.

    Finite shapes are checked exhaustively. For two rays with the same
    ratio the answer is exact: elements coincide iff one base lies on
    the other ray. Otherwise rays fall back to a depth-bounded search,
    so None only says that no common element was found up to depth. No
    suite calls this; the distributive laws are decided by the classical
    sum (see check_wvs_axioms).
    """
    if (
        isinstance(s1, GeometricRay)
        and isinstance(s2, GeometricRay)
        and s1.ratio == s2.ratio
    ):
        if _ray_exponent(s1, s2.base) is not None:
            return s2.base
        if _ray_exponent(s2, s1.base) is not None:
            return s1.base
        return None
    for v in enumerate_set(s1, depth):
        if contains(s2, v):
            return v
    for v in enumerate_set(s2, depth):
        if contains(s1, v):
            return v
    return None


def _union(parts: list[HyperSet]) -> HyperSet:
    """The one part when all parts are equal, or else the finite set of
    all the parts' elements (finite deduplicates them).

    Wherever product_of_set takes a finite set, every family gives a
    finite a o v (geometric's b o x is finite only as {0}), so a ray
    among parts that differ raises ModelError.
    """
    if parts.count(parts[0]) == len(parts):  # count compares by identity first
        return parts[0]
    if not all(isinstance(p, FiniteSet) for p in parts):
        raise ModelError("union of these hyperset shapes is not representable")
    return finite([v for p in parts for v in p.elements])


def product_of_set(model: ModelSpec, a: int | Scalar, s: HyperSet) -> HyperSet:
    """Exact union of a o y over y in s.

    Shapes must come from the same model family; a mix the family cannot
    reproduce raises ModelError. Like product, a and s must be of the
    model's field and dimension.
    """
    if isinstance(s, FiniteSet):
        return _union([product(model, a, v) for v in s.elements])
    if is_zero(a):
        return finite([model.zero()])
    head = product(model, a, s.base)
    # a o (base*r^j) sweeps exponents j + k >= j, so the union over
    # j >= 0 is exactly the ray from a*base
    if isinstance(head, GeometricRay) and head.ratio == s.ratio:
        return head
    raise ModelError("ray input does not match this family's product")


# --- axiom suite ------------------------------------------------------------


_WVS_ITEMS = (
    ("right_distributive", "a o (x+y) meets (a o x) + (a o y)"),
    ("left_distributive", "(a+b) o x meets (a o x) + (b o x)"),
    ("scalar_associative", "a o (b o x) = (a*b) o x"),
    ("negation", "a o (-x) = (-a) o x = -(a o x)"),
    ("unit_contains", "x in 1 o x"),
)


def _classical_sum_meets(
    whole: HyperSet, s1: HyperSet, u: Vector, s2: HyperSet, v: Vector, total: Vector
):
    """Prove that whole meets the sumset s1 + s2 by the classical sum
    total = u + v.

    u and v are the classical values a*x and a*y (or b*x) of s1 and s2.
    When u lies in s1, v in s2 and total in whole, that sum is a common
    element, so the law holds on this tuple. Every family puts the
    classical value a*x in a o x, so a miss cannot happen for them; it
    would prove no violation either, so it raises ModelError instead of
    reporting fail.
    """
    if contains(s1, u) and contains(s2, v) and contains(whole, total):
        return
    raise ModelError(
        f"the classical sum {total} does not decide whether {whole} meets "
        f"{s1} + {s2}: the product omits a classical value"
    )


def check_wvs_axioms(model: ModelSpec, cfg: SampleConfig | None = None) -> CheckReport:
    """Sample-check the five weak-space axioms with exact verdicts."""
    return run_one("wvs_axioms", model, None, cfg)


_READINGS = {
    "weak_normal": (
        ("scalar_condition", "(E[a1 o x] + E[a2 o x]) meets E[(a1+a2) o x]"),
        ("vector_condition", "(E[a o x1] + E[a o x2]) meets E[a o (x1+x2)]"),
    ),
    "strong_normal": (
        (
            "scalar_condition",
            "E[a1 o x] + E[a2 o x] = E[(a1+a2) o x] for every choice of summands",
        ),
        (
            "vector_condition",
            "E[a o x1] + E[a o x2] = E[a o (x1+x2)] for every choice of summands",
        ),
    ),
}


def _read_condition(
    law: str,
    given: dict,
    names: tuple[str, str, str],
    sets: tuple[FiniteSet, ...],
    suites: set[str],
):
    """The readings of suites (weak_normal, strong_normal or both) of
    one condition: E1 + E2 against the target E, with sets = (E1, E2, E)
    bound under names in a weak witness.

    The strong reading lists the sums of choices outside the target and
    the target points no sum reaches. The weak one asks that some sum
    lands in the target: it fails exactly when every sum is outside.
    """
    e1, e2, target = sets
    sums = [(p1, p2, p1 + p2) for p1 in e1.elements for p2 in e2.elements]
    outside = [(p1, p2, s) for p1, p2, s in sums if s not in target.elements]
    if "weak_normal" in suites:
        yield ("weak_normal", law), len(outside) == len(sums) and Witness(
            {**given, **dict(zip(names, sets))},
            "essential sumset misses the target essential set",
        )
    if "strong_normal" in suites:
        achievable = {s for _, _, s in sums}
        yield ("strong_normal", law), [
            Witness(
                {**given, "choice1": p1, "choice2": p2, "sum": s, "target": target},
                "sum of essential choices is not an essential point of the target",
            )
            for p1, p2, s in outside
        ] + [
            Witness(
                {**given, "missing": t, "target": target},
                "target essential point is not achievable as a sum of choices",
            )
            for t in target.elements
            if t not in achievable
        ]


def _sum_laws(model: ModelSpec, ip, suites: tuple[str, ...]):
    """The law set of wvs_axioms and the normality readings, those of
    them in suites, on one (2, 2) tuple (a, b, x, y) (see checker.Suite).

    a*x, a*y and b*x are scaled once and a*x + a*y, a*x + b*x and
    -(a*x) built from them: the axioms build a o x, a o y, b o x, the
    distributive laws' whole sets and the negation law's a o (-x) from
    these, and the readings the five essential sets, bound as
    (a1, a2, x1, x2) in their witnesses.
    """
    wvs = "wvs_axioms" in suites
    readings = _READINGS.keys() & suites
    apply, essential, zero = model.family.apply, model.family.essential, model.zero()

    def laws(a, b, x, y):
        # the classical values, each scaled once: a*(x+y) = a*x + a*y and
        # (a+b)*x = a*x + b*x exactly; a_o_x is the set a o x
        ax, ay, bx = x.scaled(a), y.scaled(a), x.scaled(b)
        a_xy, ab_x = ax + ay, ax + bx
        if wvs:
            a_o_x, b_o_x = apply(ax, zero), apply(bx, zero)
            _classical_sum_meets(apply(a_xy, zero), a_o_x, ax, apply(ay, zero), ay, a_xy)
            yield ("wvs_axioms", "right_distributive"), False
            _classical_sum_meets(apply(ab_x, zero), a_o_x, ax, b_o_x, bx, ab_x)
            yield ("wvs_axioms", "left_distributive"), False

            swept = product_of_set(model, a, b_o_x)
            direct = product(model, a * b, x)
            yield ("wvs_axioms", "scalar_associative"), not hyperset_eq(swept, direct) and Witness(
                {"a": a, "b": b, "x": x, "swept": swept, "direct": direct},
                "a o (b o x) differs from (a*b) o x",
            )

            # a*(-x) = (-a)*x = -(a*x) exactly: neg is a o (-x) and (-a) o x
            neg = apply(-ax, zero)
            neg_image = negate_set(a_o_x)
            yield ("wvs_axioms", "negation"), not hyperset_eq(neg, neg_image) and Witness(
                {"a": a, "x": x, "a o (-x)": neg, "(-a) o x": neg, "-(a o x)": neg_image},
                "negation images disagree",
            )

            unit = apply(x, zero)  # 1 o x, as 1*x = x
            yield ("wvs_axioms", "unit_contains"), not contains(unit, x) and Witness(
                {"x": x, "1 o x": unit}, "x is not an element of 1 o x"
            )
        if readings:
            e_ax = FiniteSet(essential(ax))
            yield from _read_condition(
                "scalar_condition",
                {"a1": a, "a2": b, "x": x},
                ("E[a1 o x]", "E[a2 o x]", "E[(a1+a2) o x]"),
                (e_ax, FiniteSet(essential(bx)), FiniteSet(essential(ab_x))),
                readings,
            )
            yield from _read_condition(
                "vector_condition",
                {"a": a, "x1": x, "x2": y},
                ("E[a o x1]", "E[a o x2]", "E[a o (x1+x2)]"),
                (e_ax, FiniteSet(essential(ay)), FiniteSet(essential(a_xy))),
                readings,
            )

    rows = {"wvs_axioms": _WVS_ITEMS, **_READINGS}
    return {suite: rows[suite] for suite in suites}, laws
