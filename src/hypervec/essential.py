"""Essential points of a set-valued product and the two normality readings.

A point e of a o x is essential when x can be recovered from it: x lies
in a^-1 o e. For a = 0 the essential set is {0} by convention. Essential
sets need not be singletons; the sign family has two essential points
for every nonzero input, which is exactly what separates the two
normality readings below.

Every family multiplies the classical value by a fixed set M, a o x =
M*(a*x), and its essential set is U(M)*(a*x), where U(M) holds the
multipliers whose inverse is in M too (essential_points proves it):

    family           M                   U(M)
    trivial          {1}                 {1}
    zero_augmented   {0, 1}              {1}
    geometric(r)     {r^k : k >= 0}      {1}
    sign             {1, -1}             {1, -1}

So the essential set is {a*x}, or {a*x, -a*x} for sign. It is
family.essential(ax): the base class models.Family states U(M) = {1}
once, and only sign overrides it, next to its product apply.
essential_points returns it as a FiniteSet, the type product returns
for a finite a o x, so it prints the same way.

check_weak_normal asks only that the sumset of two essential sets meets
the target essential set. check_strong_normal asks that every choice of
summands lands in the target and that the target holds nothing else;
the weak reading misses exactly when every sum is outside the target.
Both read the sums of the (2, 2) stream wvs_axioms reads, so their laws
are decided by that stream's one law builder, models._sum_laws, from
the closed-form essential sets of the products the axioms build.
check_normal_equivalence compares the two reports and flags models
where the readings disagree: it samples nothing, and its finish step
(_equivalence) gives two summary items (checker.summary_item) of the
reports they name and the agreement item.
"""

from __future__ import annotations

from .checker import (
    CheckItem,
    CheckReport,
    SampleConfig,
    Witness,
    run_one,
    summary_item,
)
from .models import (
    FiniteSet,
    ModelSpec,
    contains,
    enumerate_set,
    finite,
    hyperset_eq,
    product,
)
from .scalars import Scalar, invert, is_zero
from .vectors import Vector, sorted_vectors


def essential_points(
    model: ModelSpec,
    a: int | Scalar,
    x: Vector,
    depth: int = 8,
    closed_form: bool = True,
) -> FiniteSet:
    """All essential points of a o x, as a FiniteSet in vector_key order.

    With closed_form (what every caller in the package uses) the set is
    U(M)*ax with ax = a*x, read off the family by family.essential(ax)
    from one scaling of x: no product, inverse or membership test.

    Proof that U(M)*ax is the essential set for a != 0. Every family
    gives a o x = M*ax, and a^-1 o e = M*(a^-1*e). Let x != 0 and take
    e = m*ax in a o x, m in M; as ax != 0, e determines m. Then a^-1*e =
    m*x, so x lies in a^-1 o e exactly when m'*m*x = x for some m' in M,
    that is m'*m = 1: m != 0 and 1/m = m' is in M, so m is in U(M).
    Hence the essential set is U(M)*ax. For x = 0, a o x = {0} and
    x = 0 lies in a^-1 o 0 = {0}, so the set is {0} = U(M)*0 (U(M)
    holds 1 for every family). For a = 0 the convention {0} is again
    U(M)*(0*x), so the closed form needs no separate case.

    closed_form=False computes the set by the definition instead: the
    candidates are drawn from a o x and kept when x lies in
    a^-1 o candidate, checked exactly. Finite shapes are exhaustive; a
    ray is enumerated to depth elements, which for every family holds
    the whole essential set. Tests use this path as the reference for
    the closed form.

    Like product, a and x must be of the model's field and dimension.
    """
    if closed_form:
        return FiniteSet(model.family.essential(x.scaled(a)))
    if is_zero(a):
        return FiniteSet((model.zero(),))
    s = product(model, a, x)
    candidates = s.elements if isinstance(s, FiniteSet) else enumerate_set(s, depth)
    inv = invert(a)
    return finite(e for e in candidates if contains(product(model, inv, e), x))


_LEMMA_BASIC_ITEMS = (
    ("unit_essential", "x is an essential point of 1 o x"),
    ("scales_product", "a o e = (a*b) o x for every essential e of b o x, b != 0"),
    ("negation_mirror", "essential points of (-a) o x are exactly the negated ones"),
    (
        "reachable",
        "for a != 0 some essential choice y of a^-1 o x has x essential in a o y",
    ),
    (
        "singleton_under_strong_normality",
        "if the all-choices reading holds, every essential set is a singleton",
    ),
)


def check_lemma_basic(
    model: ModelSpec, cfg: SampleConfig, strong: CheckReport
) -> CheckReport:
    """The five basic facts about essential sets, checked on samples.

    strong is the strong_normal report for the same model and config.
    """
    return run_one("lemma_basic", model, None, cfg, strong)


def _lemma_basic_laws(model: ModelSpec, ip, suites: tuple[str, ...], strong: CheckReport):
    """The law set of lemma_basic on one (2, 1) tuple (see checker.Suite)."""
    strong_ok = strong.all_passed

    def laws(a, b, x):
        e_unit = essential_points(model, 1, x)
        yield ("lemma_basic", "unit_essential"), x not in e_unit.elements and Witness(
            {"x": x, "E[1 o x]": e_unit}, "x is not an essential point of 1 o x"
        )

        if not is_zero(b):
            target = product(model, a * b, x)
            yield ("lemma_basic", "scales_product"), [
                Witness(
                    {"a": a, "b": b, "x": x, "e": e, "a o e": swept, "(a*b) o x": target},
                    "a o e differs from (a*b) o x",
                )
                for e in essential_points(model, b, x).elements
                if not hyperset_eq(swept := product(model, a, e), target)
            ]

        e_pos = essential_points(model, a, x)
        e_neg = essential_points(model, -a, x)
        mirrored = sorted_vectors(-p for p in e_pos.elements)
        yield ("lemma_basic", "negation_mirror"), mirrored != e_neg.elements and Witness(
            {"a": a, "x": x, "E[a o x]": e_pos, "E[(-a) o x]": e_neg},
            "negating the essential set does not give the essential set of the negated scalar",
        )

        if not is_zero(a):
            ys = essential_points(model, invert(a), x)
            reached = any(x in essential_points(model, a, y).elements for y in ys.elements)
            yield ("lemma_basic", "reachable"), not reached and Witness(
                {"a": a, "x": x, "E[a^-1 o x]": ys},
                "no essential choice y of a^-1 o x makes x essential in a o y",
            )

        if strong_ok:
            single = len(e_pos.elements) == 1
            yield ("lemma_basic", "singleton_under_strong_normality"), not single and Witness(
                {"a": a, "x": x, "E[a o x]": e_pos},
                "essential set is not a singleton although the all-choices reading holds",
            )

    return {"lemma_basic": _LEMMA_BASIC_ITEMS}, laws


def check_weak_normal(model: ModelSpec, cfg: SampleConfig | None = None) -> CheckReport:
    """Sumset reading: essential sumsets must meet the target essential set."""
    return run_one("weak_normal", model, None, cfg)


def check_strong_normal(model: ModelSpec, cfg: SampleConfig | None = None) -> CheckReport:
    """All-choices equality reading of normality.

    Every sum of essential choices must be an essential point of the
    target, and the target must hold nothing beyond those sums.
    """
    return run_one("strong_normal", model, None, cfg)


def check_normal_equivalence(
    model: ModelSpec, cfg: SampleConfig, weak: CheckReport, strong: CheckReport
) -> CheckReport:
    """Compare the weak_normal and strong_normal reports of one model,
    which read the same samples.

    The summary item fails with the note "readings disagree" whenever
    one reading passes and the other does not; the witnesses of the
    failing reading are carried along.
    """
    return run_one("normal_equiv", model, None, cfg, weak, strong)


def _equivalence(cfg: SampleConfig, items, weak: CheckReport, strong: CheckReport):
    """The finish step of normal_equiv, which samples nothing."""
    weak_ok = weak.all_passed
    strong_ok = strong.all_passed
    agree = weak_ok == strong_ok
    witnesses = [] if agree else [
        Witness(
            {"weak": "pass" if weak_ok else "fail", "strong": "pass" if strong_ok else "fail"},
            "readings disagree: the sumset reading and the all-choices "
            "reading give different verdicts on the same samples",
        )
    ]
    return [
        summary_item("weak_normality", "sumset reading verdict", weak.items),
        summary_item("strong_normality", "all-choices reading verdict", strong.items),
        CheckItem(
            "readings_agree",
            "the sumset reading and the all-choices reading give the same verdict",
            "pass" if agree else "fail",
            max(it.samples for it in weak.items + strong.items),
            witnesses,
        ),
    ]
