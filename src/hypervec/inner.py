"""Exact pairings, closed-form suprema, and the inner-product suites.

The pairing is a (possibly weighted) dot product, conjugate-linear in
the second slot over Q[i]. Suprema over set-valued products are computed
in closed form per shape, never numerically: a finite shape takes a max,
and a geometric ray's pairing values are c * ratio^k, a monotone
sequence whose supremum is read off the sign of c and the side of 1 the
ratio is on. A genuinely unbounded supremum raises
UnboundedSupremumError and is reported as status "unbounded", never as a
number.

Square roots are never taken: norm laws are checked in squared form,
and the triangle inequality reduces to re(x, y) <= sqrt(nsq(x)*nsq(y)),
decided exactly by leq_sqrt_product.

real_ip and hip, the two readings of the inner-product axioms, read the
same (1, 3) sample tuples, and one law builder (_pairing_laws) decides
the readings a run plans on each tuple, so (x,x), (x+y,z), (x,z)+(y,z),
(x,y), (y,x), a*(x,y), E[a o x] and each (e,y) over it are computed
once. The four axioms both state (positive, definite, additive and
symmetry) are decided once too: real_ip runs over Q only, where (x,x)
is real and conj is the identity, so one predicate serves both, and
the readings differ only in their words (_SHARED_AXIOM_WORDS).
lemma_34 and norm_props share (x,y), nsq(x), abs2(a)*nsq(x) and a o x
on their (1, 2) tuples the same way (_norm_laws). The builders
hold the suites' preconditions, and the finish steps (*_items) their
summary items and vacuous rules (see checker.Suite).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Callable, Union

from .checker import (
    CheckItem,
    CheckReport,
    SampleConfig,
    Unbounded,
    Value,
    Witness,
    run_one,
    summary_item,
)
from .essential import essential_points
from .models import (
    FiniteSet,
    HyperSet,
    ModelError,
    ModelSpec,
    product,
    rational,
)
from .scalars import (
    FieldTag,
    Scalar,
    _reduced,
    abs2,
    as_real,
    conjugate,
    imag_part,
    is_zero,
    leq_sqrt_product,
    real_part,
)
from .vectors import Vector


class UnboundedSupremumError(ArithmeticError):
    """The requested supremum grows without bound."""


class DotProduct(Value):
    """Coordinatewise pairing sum x_i * conj(y_i)."""

    __slots__ = ()

    def describe(self) -> str:
        return "dot"


class WeightedDot(Value):
    """Pairing sum w_i * x_i * conj(y_i) with positive rational weights.

    The weights are also kept as integer numerators over one
    denominator, the form pairing computes with; only the weights are
    compared and shown.
    """

    _fields = ("weights",)
    __slots__ = _fields + ("nums", "den")

    def __init__(self, weights: tuple[Fraction, ...]):
        if not weights:
            raise ModelError("weighted_dot needs at least one weight")
        self.weights = tuple(rational("weight", w) for w in weights)
        if any(w <= 0 for w in self.weights):
            raise ModelError("weights must be positive")
        self.den = den = lcm(*(w.denominator for w in self.weights))
        self.nums = tuple(w.numerator * (den // w.denominator) for w in self.weights)

    def describe(self) -> str:
        return f"weighted_dot({', '.join(str(w) for w in self.weights)})"


InnerProductSpec = Union[DotProduct, WeightedDot]


def pairing(ip: InnerProductSpec, x: Vector, y: Vector) -> Scalar:
    """Exact pairing value; a Fraction over Q, GaussianRational over Q[i].

    Summed on the vectors' integer numerators over the product of the
    denominators, and reduced once at the end.
    """
    p, q = x.nums, x.ims
    r, s = y.nums, y.ims
    if len(p) != len(r):
        raise ModelError(f"dimension mismatch: {len(p)} vs {len(r)}")
    den = x.den * y.den
    if ip.__class__ is WeightedDot:
        if len(ip.nums) != len(p):
            raise ModelError(
                f"weight count {len(ip.weights)} does not match dimension {len(p)}"
            )
        den *= ip.den
        p = tuple(map(mul, ip.nums, p))
        q = None if q is None else tuple(map(mul, ip.nums, q))
    if q is None and s is None:
        return Fraction(sum(map(mul, p, r)), den)
    zeros = (0,) * len(p)
    q, s = q or zeros, s or zeros
    # (p + q*i) * conj(r + s*i) = (p*r + q*s) + (q*r - p*s)*i
    re = sum(map(mul, p, r)) + sum(map(mul, q, s))
    im = sum(map(mul, q, r)) - sum(map(mul, p, s))
    return _reduced(re, im, den)


def norm_sq(ip: InnerProductSpec, x: Vector) -> Fraction:
    """Squared length (x, x); structurally real and nonnegative."""
    return as_real(pairing(ip, x, x))


class SupResult(Value):
    __slots__ = _fields = ("value", "attained", "witness")


def _sup(s: HyperSet, f: Callable[[Vector], Fraction], exponent: str) -> SupResult:
    """sup of f(u) over u in s, exactly, with f evaluated once per element.

    A finite shape takes its first maximum. Along a ray f is
    c*ratio^exponent with c = f(base) (exponent "k" for a pairing
    against a fixed vector, "(2k)" for a squared norm): monotone in k,
    so the sup is c at k = 0 when the sequence decreases, the
    unattained limit 0 when it climbs toward 0 from below, and
    unbounded when c > 0 and the ratio exceeds 1.
    """
    if isinstance(s, FiniteSet):
        best, best_vec = None, None
        for u in s.elements:
            val = f(u)
            if best is None or val > best:
                best, best_vec = val, u
        return SupResult(best, True, best_vec)
    c = f(s.base)
    if c == 0:
        return SupResult(Fraction(0), True, s.base)
    if s.ratio < 1:
        if c > 0:
            return SupResult(c, True, s.base)
        return SupResult(Fraction(0), False, None)
    if c > 0:
        raise UnboundedSupremumError(
            f"values {c}*({s.ratio})^{exponent} grow without bound"
        )
    return SupResult(c, True, s.base)


def sup_pairing(
    model: ModelSpec, ip: InnerProductSpec, a: int | Scalar, x: Vector, y: Vector
) -> SupResult:
    """sup of (z, y) over z in a o x, exactly (see _sup).

    Real field only. Like product, a, x and y must be of the model's
    field and dimension.
    """
    if model.field is not FieldTag.Q:
        raise ModelError("sup_pairing is defined over the real field only")
    if ip is None:
        raise ModelError("sup_pairing needs an inner product")
    return _sup(product(model, a, x), lambda u: as_real(pairing(ip, u, y)), "k")


def _ball_violation(ip: InnerProductSpec, s: HyperSet, bound: Fraction) -> Vector | None:
    """Some u in s with (u, u) > bound, or None when no element exceeds it.

    Finite shapes are exhaustive. Ray values (base, base)*ratio^(2k) are
    monotone: for ratio < 1 the maximum sits at k = 0, for ratio > 1 the
    first exceeding element is base*ratio^(k+1), where k is the largest
    exponent with ratio^(2k) <= bound/(base, base). That k is found by
    binary lifting over the squarings r2, r2^2, r2^4, ... of r2 =
    ratio^2, in O(log k) exact products instead of k steps.
    """
    if isinstance(s, FiniteSet):
        for u in s.elements:
            if norm_sq(ip, u) > bound:
                return u
        return None
    base_sq = norm_sq(ip, s.base)
    if base_sq > bound:
        return s.base
    if s.ratio < 1 or base_sq == 0:
        return None
    target = bound / base_sq
    squarings = [s.ratio * s.ratio]
    while squarings[-1] <= target:
        squarings.append(squarings[-1] * squarings[-1])
    k, power = 0, Fraction(1)
    for i in reversed(range(len(squarings))):
        if power * squarings[i] <= target:
            power *= squarings[i]
            k += 1 << i
    return s.base.scaled(s.ratio ** (k + 1))


_REAL_IP_ITEMS = (
    ("positive", "(x,x) > 0 for x != 0"),
    ("definite", "(x,x) = 0 exactly when x = 0"),
    ("additive", "(x+y, z) = (x,z) + (y,z)"),
    ("symmetric", "(y,x) = (x,y)"),
    ("sup_scaling", "sup of (z,y) over z in a o x equals a*(x,y)"),
    (
        "sup_attained_at_essential",
        "when the sup law holds, some essential point of a o x attains the sup",
    ),
)

_HIP_ITEMS = (
    ("positive", "(x,x) is real and positive for x != 0"),
    ("definite", "(x,x) = 0 exactly when x = 0"),
    ("additive", "(x+y, z) = (x,z) + (y,z)"),
    ("conjugate_symmetric", "(y,x) = conj((x,y))"),
    ("essential_scaling", "(e, y) = a*(x,y) for every essential e of a o x"),
    ("unit_ball_bound", "(u,u) <= (x,x) for every u in 1 o x"),
)

_LEMMA_34_ITEMS = (
    ("zero_pairing", "(0, x) = (x, 0) = 0"),
    ("negation", "(-x, y) = (x, -y) = -(x, y)"),
    ("conjugate_scaling", "(x, e) = conj(a)*(x,y) for every essential e of a o y"),
    ("scaled_ball_bound", "(u,u) <= abs2(a)*(x,x) for every u in a o x"),
)

_THEOREM_ITEMS = (
    ("essential_singletons", "every essential set is a singleton"),
    ("strong_normality", "the all-choices normality reading holds"),
    (
        "implication_consistent",
        "whenever the hyperinner axioms hold, both conclusions hold",
    ),
)

_NORM_ITEMS = (
    ("definite", "nsq(x) = 0 exactly when x = 0, and never negative"),
    ("cauchy_schwarz", "abs2((x,y)) <= nsq(x)*nsq(y)"),
    ("triangle", "re((x,y)) <= sqrt(nsq(x)*nsq(y)), squared-form check"),
    ("essential_scaling", "nsq(e) = abs2(a)*nsq(x) for every essential e of a o x"),
    ("sup_scaling", "sup of nsq over a o x equals abs2(a)*nsq(x)"),
    ("norm_axioms", "norm verdict derived from definiteness, triangle, and sup scaling"),
)


def check_real_ip_axioms(
    model: ModelSpec, ip: InnerProductSpec | None, cfg: SampleConfig | None = None
) -> CheckReport:
    """The real sup-based inner product axioms, one verdict per item."""
    return run_one("real_ip", model, ip, cfg)


def check_hip_axioms(
    model: ModelSpec, ip: InnerProductSpec | None, cfg: SampleConfig | None = None
) -> CheckReport:
    """The six hyperinner product axioms (real or Gaussian field)."""
    return run_one("hip", model, ip, cfg)


# The words in which real_ip and hip state the four axioms _pairing_laws
# decides once for both: what (x,x) must be, the symmetry law and what
# (y,x) must equal.
_SHARED_AXIOM_WORDS = {
    "real_ip": ("positive", "symmetric", "(x,y)"),
    "hip": ("real positive", "conjugate_symmetric", "conj((x,y))"),
}


def _pairing_laws(model: ModelSpec, ip: InnerProductSpec, suites: tuple[str, ...]):
    """The law set of real_ip and hip, those of them in suites, on one
    (1, 3) tuple (see checker.Suite). Both read the same pairings, each
    computed once, and each axiom they share is decided once and yielded
    in the words of every planned reading; real_ip is left out over
    Q[i], where it is vacuous.
    """
    real = "real_ip" in suites and model.field is FieldTag.Q
    hip = "hip" in suites
    items = {"real_ip": _REAL_IP_ITEMS, "hip": _HIP_ITEMS}
    rows = {suite: items[suite] for suite in suites if suite != "real_ip" or real}

    def laws(a, x, y, z):
        xx = pairing(ip, x, x)  # a Fraction over Q, where real_ip runs
        positive = x.is_zero or (imag_part(xx) == 0 and real_part(xx) > 0)  # asked of x != 0
        definite = (xx == 0) != x.is_zero and Witness(
            {"x": x, "(x,x)": xx}, "(x,x) = 0 does not characterize x = 0"
        )
        lhs = pairing(ip, x + y, z)
        rhs = pairing(ip, x, z) + pairing(ip, y, z)
        xy, yx = pairing(ip, x, y), pairing(ip, y, x)
        symmetric = yx == conjugate(xy)
        expected = a * xy
        for suite in rows:
            positivity, symmetry, mirror = _SHARED_AXIOM_WORDS[suite]
            if not x.is_zero:
                yield (suite, "positive"), not positive and Witness(
                    {"x": x, "(x,x)": xx}, f"(x,x) is not {positivity} for nonzero x"
                )
            yield (suite, "definite"), definite
            yield (suite, "additive"), lhs != rhs and Witness(
                {"x": x, "y": y, "z": z}
                | ({"(x+y,z)": lhs, "(x,z)+(y,z)": rhs} if suite == "real_ip" else {}),
                "additivity in the first slot fails",
            )
            yield (suite, symmetry), not symmetric and Witness(
                {"x": x, "y": y}, f"(y,x) differs from {mirror}"
            )

        attains = False  # real_ip asks whether an essential point attains the sup
        if real:
            try:
                sup = sup_pairing(model, ip, a, x, y)
            except UnboundedSupremumError as exc:
                yield ("real_ip", "sup_scaling"), Unbounded(
                    {"a": a, "x": x, "y": y, "a o x": product(model, a, x)},
                    f"supremum is unbounded: {exc}",
                )
            else:
                note = "attained" if sup.attained else "not attained"
                yield ("real_ip", "sup_scaling"), sup.value != expected and Witness(
                    {"a": a, "x": x, "y": y, "sup": f"{sup.value} ({note})", "a*(x,y)": expected},
                    "sup over a o x differs from a*(x,y)",
                )
                attains = sup.value == expected
        if hip or attains:
            ess = essential_points(model, a, x)
            at_ess = [(e, pairing(ip, e, y)) for e in ess.elements]
        if attains:
            attained = any(as_real(got) == sup.value for _, got in at_ess)
            yield ("real_ip", "sup_attained_at_essential"), not attained and Witness(
                {"a": a, "x": x, "y": y, "sup": sup.value, "essential": ess},
                "no essential point attains the supremum",
            )
        if hip:
            yield ("hip", "essential_scaling"), [
                Witness(
                    {"a": a, "x": x, "y": y, "e": e, "(e,y)": got, "a*(x,y)": expected},
                    "(e,y) differs from a*(x,y) at an essential point",
                )
                for e, got in at_ess
                if got != expected
            ]
            unit_set = product(model, 1, x)
            bad = _ball_violation(ip, unit_set, as_real(xx))
            yield ("hip", "unit_ball_bound"), bad is not None and Witness(
                {"x": x, "u": bad, "(u,u)": norm_sq(ip, bad), "(x,x)": xx, "1 o x": unit_set},
                "element of 1 o x exceeds the length of x",
            )

    return rows, laws


def check_lemma_34(
    model: ModelSpec,
    ip: InnerProductSpec | None,
    cfg: SampleConfig,
    hip: CheckReport,
) -> CheckReport:
    """Derived pairing identities; vacuous unless the hyperinner axioms
    held (hip is their report for the same model and config)."""
    return run_one("lemma_34", model, ip, cfg, hip)


def _lemma_34_items(cfg: SampleConfig, items, hip: CheckReport):
    """The finish step of lemma_34. When _norm_laws left it out (hip
    failed) every item is vacuous over cfg.samples tuples: its laws are
    decided on every tuple and never unbounded, so sampling would only
    count them."""
    if items is None:
        return [CheckItem(*row, "vacuous", cfg.samples, []) for row in _LEMMA_34_ITEMS]
    return items


def check_theorem_normal(
    model: ModelSpec,
    ip: InnerProductSpec | None,
    cfg: SampleConfig,
    hip: CheckReport,
    strong: CheckReport,
) -> CheckReport:
    """Hyperinner axioms imply strong normality; report any contradiction.

    hip and strong are the hip and strong_normal reports for the same
    model and config. When the premise fails on samples the conclusions
    are vacuous and the implication is consistent by default. When the
    premise holds, every sampled essential set must be a singleton and
    the all-choices normality reading must pass (strong_normality is
    the summary item of strong); a violation is surfaced loudly.
    """
    return run_one("theorem_normal", model, ip, cfg, hip, strong)


def _theorem_items(cfg: SampleConfig, items, hip: CheckReport, strong: CheckReport):
    """The finish step of theorem_normal: the strong_normality summary
    and the implication item; both conclusions are vacuous when
    _theorem_laws left it out (hip failed)."""
    if items is None:
        items = [CheckItem(*row, "vacuous", 0, []) for row in _THEOREM_ITEMS[:2]]
    else:
        items.append(summary_item(*_THEOREM_ITEMS[1], strong.items))
    contradiction = any(it.status == "fail" for it in items)
    witnesses = [
        Witness(
            {"hyperinner_axioms": "pass", **{it.id: it.status for it in items}},
            "CONTRADICTION: the hyperinner axioms hold on these samples "
            "but a conclusion fails",
        )
    ] if contradiction else []
    status = "fail" if contradiction else "pass"
    hip_samples = max((it.samples for it in hip.items), default=0)
    items.append(CheckItem(*_THEOREM_ITEMS[2], status, hip_samples, witnesses))
    return items


def _theorem_laws(
    model: ModelSpec,
    ip: InnerProductSpec,
    suites: tuple[str, ...],
    hip: CheckReport,
    strong: CheckReport,
):
    """The law set of theorem_normal on one (1, 1) tuple (see
    checker.Suite): its one sampled item, left out unless hip passed."""
    if not hip.all_passed:
        return {}, None

    def laws(a, x):
        ess = essential_points(model, a, x)
        yield ("theorem_normal", "essential_singletons"), len(ess.elements) != 1 and Witness(
            {"a": a, "x": x, "essential": ess}, "essential set is not a singleton"
        )

    return {"theorem_normal": _THEOREM_ITEMS[:1]}, laws


def check_norm_props(
    model: ModelSpec,
    ip: InnerProductSpec | None,
    cfg: SampleConfig,
    hip: CheckReport,
) -> CheckReport:
    """Norm laws in squared form; vacuous unless the hyperinner axioms
    held (hip is their report for the same model and config).

    Unbounded suprema are always surfaced with status "unbounded", even
    under a failed precondition, so a divergent norm is never reported
    as a number (or silently hidden): under a failed hip every other
    item is vacuous, keeping its sample count but no witnesses.
    norm_axioms is the summary item of definite, triangle and
    sup_scaling.
    """
    return run_one("norm_props", model, ip, cfg, hip)


def _norm_items(cfg: SampleConfig, items, hip: CheckReport):
    """The finish step of norm_props: the vacuous rule under a failed
    hip and the norm_axioms summary item."""
    if not hip.all_passed:
        for item in items:
            if item.status != "unbounded":
                item.status, item.witnesses = "vacuous", []
    deps = [it for it in items if it.id in ("definite", "triangle", "sup_scaling")]
    items.append(summary_item(*_NORM_ITEMS[-1], deps))
    return items


def _norm_laws(
    model: ModelSpec, ip: InnerProductSpec, suites: tuple[str, ...], hip: CheckReport
):
    """The law set of lemma_34 and norm_props, those of them in suites,
    on one (1, 2) tuple (see checker.Suite). Both read (x,y), nsq(x),
    abs2(a)*nsq(x) and a o x, each computed once; lemma_34 is left out
    unless hip passed, where it is vacuous without sampling.
    """
    lemma = "lemma_34" in suites and hip.all_passed
    norms = "norm_props" in suites
    zero = model.zero()

    def laws(a, x, y):
        xy = pairing(ip, x, y)
        nsx = norm_sq(ip, x)
        bound = abs2(a) * nsx
        s = product(model, a, x)
        if lemma:
            zero_ok = is_zero(pairing(ip, zero, x)) and is_zero(pairing(ip, x, zero))
            yield ("lemma_34", "zero_pairing"), not zero_ok and Witness(
                {"x": x}, "pairing against 0 is not 0"
            )
            negation_ok = pairing(ip, -x, y) == -xy and pairing(ip, x, -y) == -xy
            yield ("lemma_34", "negation"), not negation_ok and Witness(
                {"x": x, "y": y, "(x,y)": xy}, "negation does not flip the pairing sign"
            )
            expected = conjugate(a) * xy
            yield ("lemma_34", "conjugate_scaling"), [
                Witness(
                    {"a": a, "x": x, "y": y, "e": e, "(x,e)": got, "conj(a)*(x,y)": expected},
                    "(x,e) differs from conj(a)*(x,y) at an essential point",
                )
                for e in essential_points(model, a, y).elements
                if (got := pairing(ip, x, e)) != expected
            ]
            bad = _ball_violation(ip, s, bound)
            yield ("lemma_34", "scaled_ball_bound"), bad is not None and Witness(
                {"a": a, "x": x, "u": bad, "(u,u)": norm_sq(ip, bad), "abs2(a)*(x,x)": bound},
                "element of a o x exceeds the scaled length bound",
            )
        if not norms:
            return
        nsy = norm_sq(ip, y)
        definite = nsx >= 0 and (nsx == 0) == x.is_zero
        yield ("norm_props", "definite"), not definite and Witness(
            {"x": x, "nsq(x)": nsx}, "squared norm is negative or does not characterize 0"
        )
        yield ("norm_props", "cauchy_schwarz"), abs2(xy) > nsx * nsy and Witness(
            {"x": x, "y": y, "abs2((x,y))": abs2(xy), "nsq(x)*nsq(y)": nsx * nsy},
            "Cauchy-Schwarz fails in squared form",
        )
        yield ("norm_props", "triangle"), not leq_sqrt_product(
            real_part(xy), nsx, nsy
        ) and Witness(
            {"x": x, "y": y, "re((x,y))": real_part(xy), "nsq(x)*nsq(y)": nsx * nsy},
            "triangle inequality fails in squared form",
        )
        yield ("norm_props", "essential_scaling"), [
            Witness(
                {"a": a, "x": x, "e": e, "nsq(e)": nse, "abs2(a)*nsq(x)": bound},
                "essential point length does not scale with abs2(a)",
            )
            for e in essential_points(model, a, x).elements
            if (nse := norm_sq(ip, e)) != bound
        ]
        try:
            sup = _sup(s, lambda u: norm_sq(ip, u), "(2k)")
        except UnboundedSupremumError as exc:
            yield ("norm_props", "sup_scaling"), Unbounded(
                {"a": a, "x": x, "a o x": s},
                f"supremum of squared norms is unbounded: {exc}",
            )
            return
        yield ("norm_props", "sup_scaling"), sup.value != bound and Witness(
            {"a": a, "x": x, "sup nsq": sup.value, "at": sup.witness, "abs2(a)*nsq(x)": bound},
            "sup of squared norms over a o x differs from abs2(a)*nsq(x)",
        )

    rows = {"lemma_34": _LEMMA_34_ITEMS, "norm_props": _NORM_ITEMS[:-1]}
    return {suite: rows[suite] for suite in suites if suite != "lemma_34" or lemma}, laws
