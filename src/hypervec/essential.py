"""Essential points of a set-valued product and the two normality readings.

A point e of a o x is essential when x can be recovered from it: x lies
in a^-1 o e. For a = 0 the essential set is {0} by convention. Essential
sets need not be singletons; the sign family has two essential points
for every nonzero input, which is exactly what separates the two
normality readings below.

check_weak_normal asks only that the sumset of two essential sets meets
the target essential set. check_strong_normal asks that every choice of
summands lands in the target and, when all sets are complete, that the
target holds nothing else. check_normal_equivalence compares the two
reports and flags models where the readings disagree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .checker import (
    CheckItem,
    CheckReport,
    ItemCheck,
    SampleConfig,
    Witness,
    mirror_item,
    sample_stream,
)
from .models import (
    FiniteSet,
    GeometricRay,
    ModelSpec,
    contains,
    describe_set,
    enumerate_set,
    hyperset_eq,
    product,
)
from .scalars import Scalar, format_scalar, invert, is_zero
from .vectors import Vector, vector_key


@dataclass(frozen=True)
class EssentialSet:
    """Sorted essential points plus a completeness flag.

    complete is True when every candidate in a o x was inspected (finite
    shapes and the ray closed form); a depth-truncated ray search leaves
    it False.
    """

    points: tuple[Vector, ...]
    complete: bool

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, v: Vector) -> bool:
        return v in self.points

    @property
    def singleton(self) -> bool:
        return len(self.points) == 1

    def __str__(self):
        return "{" + ", ".join(str(p) for p in self.points) + "}"


def essential_points(
    model: ModelSpec,
    a: int | Scalar,
    x: Vector,
    depth: int = 8,
    closed_form: bool = True,
) -> EssentialSet:
    """All essential points of a o x.

    Candidates are drawn from a o x and filtered by the defining
    membership x in a^-1 o candidate, checked exactly. Finite shapes are
    exhaustive. For a ray only the base can survive: a^-1 o (base*r^k)
    is the ray from x*r^k whose elements are x*r^(k+j), and that set
    contains x only when k = j = 0. With closed_form the search uses
    that argument (and stays complete); otherwise the ray is enumerated
    to the given depth and the result is marked incomplete.
    """
    a = model.admit_scalar(a)
    x = model.admit_vector(x)
    if is_zero(a):
        return EssentialSet((model.zero(),), True)
    s = product(model, a, x)
    if isinstance(s, FiniteSet):
        candidates, complete = list(s.elements), True
    elif isinstance(s, GeometricRay):
        if closed_form:
            candidates, complete = [s.base], True
        else:
            candidates, complete = enumerate_set(s, depth), False
    else:
        raise TypeError(f"unknown hyperset: {s!r}")
    inv = invert(a)
    points = [e for e in candidates if contains(product(model, inv, e), x)]
    return EssentialSet(tuple(sorted(set(points), key=vector_key)), complete)


def _essential_witness_fields(pairs: list[tuple[str, object]]):
    out = {}
    for name, value in pairs:
        if isinstance(value, Vector):
            out[name] = str(value)
        elif isinstance(value, EssentialSet):
            out[name] = str(value)
        elif isinstance(value, (FiniteSet, GeometricRay)):
            out[name] = describe_set(value)
        else:
            out[name] = format_scalar(value)
    return out


def check_lemma_basic(
    model: ModelSpec, cfg: SampleConfig, strong: CheckReport
) -> CheckReport:
    """The five basic facts about essential sets, checked on samples.

    strong is the strong_normal report for the same model and config.
    """
    one = model.admit_scalar(1)

    it_unit = ItemCheck("unit_essential", "x is an essential point of 1 o x")
    it_scale = ItemCheck(
        "scales_product", "a o e = (a*b) o x for every essential e of b o x, b != 0"
    )
    it_mirror = ItemCheck(
        "negation_mirror", "essential points of (-a) o x are exactly the negated ones"
    )
    it_reach = ItemCheck(
        "reachable", "for a != 0 some essential choice y of a^-1 o x has x essential in a o y"
    )
    it_single = ItemCheck(
        "singleton_under_strong_normality",
        "if the all-choices reading holds, every essential set is a singleton",
    )

    strong_ok = strong.all_passed

    for a, b, x in sample_stream(cfg, model.field, model.dim, 2, 1):
        e_unit = essential_points(model, one, x, cfg.depth)
        if x in e_unit:
            it_unit.sample([])
        else:
            it_unit.sample(
                [
                    Witness(
                        _essential_witness_fields([("x", x), ("E[1 o x]", e_unit)]),
                        "x is not an essential point of 1 o x",
                    )
                ]
            )

        if not is_zero(b):
            violations = []
            target = product(model, a * b, x)
            for e in essential_points(model, b, x, cfg.depth):
                swept = product(model, a, e)
                if not hyperset_eq(swept, target):
                    violations.append(
                        Witness(
                            _essential_witness_fields(
                                [
                                    ("a", a),
                                    ("b", b),
                                    ("x", x),
                                    ("e", e),
                                    ("a o e", swept),
                                    ("(a*b) o x", target),
                                ],
                            ),
                            "a o e differs from (a*b) o x",
                        )
                    )
            it_scale.sample(violations)

        e_pos = essential_points(model, a, x, cfg.depth)
        e_neg = essential_points(model, -a, x, cfg.depth)
        mirrored = tuple(sorted((-p for p in e_pos.points), key=vector_key))
        if mirrored == e_neg.points:
            it_mirror.sample([])
        else:
            it_mirror.sample(
                [
                    Witness(
                        _essential_witness_fields(
                            [("a", a), ("x", x), ("E[a o x]", e_pos), ("E[(-a) o x]", e_neg)],
                        ),
                        "negating the essential set does not give the essential set of the negated scalar",
                    )
                ]
            )

        if not is_zero(a):
            ys = essential_points(model, invert(a), x, cfg.depth)
            ok = any(
                x in essential_points(model, a, y, cfg.depth) for y in ys
            )
            if ok:
                it_reach.sample([])
            else:
                it_reach.sample(
                    [
                        Witness(
                            _essential_witness_fields(
                                [("a", a), ("x", x), ("E[a^-1 o x]", ys)]
                            ),
                            "no essential choice y of a^-1 o x makes x essential in a o y",
                        )
                    ]
                )

        if strong_ok:
            if e_pos.singleton:
                it_single.sample([])
            else:
                it_single.sample(
                    [
                        Witness(
                            _essential_witness_fields(
                                [("a", a), ("x", x), ("E[a o x]", e_pos)]
                            ),
                            "essential set is not a singleton although the all-choices reading holds",
                        )
                    ]
                )

    return CheckReport(
        model.describe(),
        "lemma_basic",
        [
            it_unit.finish(),
            it_scale.finish(),
            it_mirror.finish(),
            it_reach.finish(),
            it_single.finish(),
        ],
    )


def _sum_choices(e1: EssentialSet, e2: EssentialSet) -> list[tuple[Vector, Vector, Vector]]:
    return [(p1, p2, p1 + p2) for p1 in e1 for p2 in e2]


def check_weak_normal(model: ModelSpec, cfg: SampleConfig | None = None) -> CheckReport:
    """Sumset reading: essential sumsets must meet the target essential set."""
    cfg = cfg or SampleConfig()
    it_scalar = ItemCheck(
        "scalar_condition",
        "(E[a1 o x] + E[a2 o x]) meets E[(a1+a2) o x]",
    )
    it_vector = ItemCheck(
        "vector_condition",
        "(E[a o x1] + E[a o x2]) meets E[a o (x1+x2)]",
    )

    for a1, a2, v1, v2 in sample_stream(cfg, model.field, model.dim, 2, 2):
        e1 = essential_points(model, a1, v1, cfg.depth)
        e2 = essential_points(model, a2, v1, cfg.depth)
        target = essential_points(model, a1 + a2, v1, cfg.depth)
        sums = {s for _, _, s in _sum_choices(e1, e2)}
        if sums & set(target.points):
            it_scalar.sample([])
        else:
            it_scalar.sample(
                [
                    Witness(
                        _essential_witness_fields(
                            [
                                ("a1", a1),
                                ("a2", a2),
                                ("x", v1),
                                ("E[a1 o x]", e1),
                                ("E[a2 o x]", e2),
                                ("E[(a1+a2) o x]", target),
                            ],
                        ),
                        "essential sumset misses the target essential set",
                    )
                ]
            )

        f2 = essential_points(model, a1, v2, cfg.depth)
        target2 = essential_points(model, a1, v1 + v2, cfg.depth)
        sums2 = {s for _, _, s in _sum_choices(e1, f2)}
        if sums2 & set(target2.points):
            it_vector.sample([])
        else:
            it_vector.sample(
                [
                    Witness(
                        _essential_witness_fields(
                            [
                                ("a", a1),
                                ("x1", v1),
                                ("x2", v2),
                                ("E[a o x1]", e1),
                                ("E[a o x2]", f2),
                                ("E[a o (x1+x2)]", target2),
                            ],
                        ),
                        "essential sumset misses the target essential set",
                    )
                ]
            )

    return CheckReport(
        model.describe(), "weak_normal", [it_scalar.finish(), it_vector.finish()]
    )


def _strong_violations(
    labels: tuple[str, str, str],
    values: tuple,
    e1: EssentialSet,
    e2: EssentialSet,
    target: EssentialSet,
) -> list[Witness]:
    l1, l2, l3 = labels
    violations = []
    sums = []
    for p1, p2, s in _sum_choices(e1, e2):
        sums.append(s)
        if s not in target:
            violations.append(
                Witness(
                    _essential_witness_fields(
                        [
                            (l1, values[0]),
                            (l2, values[1]),
                            (l3, values[2]),
                            ("choice1", p1),
                            ("choice2", p2),
                            ("sum", s),
                            ("target", target),
                        ],
                    ),
                    "sum of essential choices is not an essential point of the target",
                )
            )
    if e1.complete and e2.complete and target.complete:
        achievable = set(sums)
        for t in target.points:
            if t not in achievable:
                violations.append(
                    Witness(
                        _essential_witness_fields(
                            [
                                (l1, values[0]),
                                (l2, values[1]),
                                (l3, values[2]),
                                ("missing", t),
                                ("target", target),
                            ],
                        ),
                        "target essential point is not achievable as a sum of choices",
                    )
                )
    return violations


def check_strong_normal(model: ModelSpec, cfg: SampleConfig | None = None) -> CheckReport:
    """All-choices equality reading of normality.

    Every sum of essential choices must be an essential point of the
    target, and (when all three sets are complete) the target must hold
    nothing beyond those sums.
    """
    cfg = cfg or SampleConfig()
    it_scalar = ItemCheck(
        "scalar_condition",
        "E[a1 o x] + E[a2 o x] = E[(a1+a2) o x] for every choice of summands",
    )
    it_vector = ItemCheck(
        "vector_condition",
        "E[a o x1] + E[a o x2] = E[a o (x1+x2)] for every choice of summands",
    )

    for a1, a2, v1, v2 in sample_stream(cfg, model.field, model.dim, 2, 2):
        e1 = essential_points(model, a1, v1, cfg.depth)
        e2 = essential_points(model, a2, v1, cfg.depth)
        target = essential_points(model, a1 + a2, v1, cfg.depth)
        it_scalar.sample(
            _strong_violations(("a1", "a2", "x"), (a1, a2, v1), e1, e2, target)
        )

        f2 = essential_points(model, a1, v2, cfg.depth)
        target2 = essential_points(model, a1, v1 + v2, cfg.depth)
        it_vector.sample(
            _strong_violations(("a", "x1", "x2"), (a1, v1, v2), e1, f2, target2)
        )

    return CheckReport(
        model.describe(), "strong_normal", [it_scalar.finish(), it_vector.finish()]
    )


def check_normal_equivalence(
    model: ModelSpec, cfg: SampleConfig, weak: CheckReport, strong: CheckReport
) -> CheckReport:
    """Compare the weak_normal and strong_normal reports of one model,
    which read the same samples.

    The summary item fails with the note "readings disagree" whenever
    one reading passes and the other does not; the witnesses of the
    failing reading are carried along.
    """
    weak_ok = weak.all_passed
    strong_ok = strong.all_passed

    agree_anchor = "the sumset reading and the all-choices reading give the same verdict"
    if weak_ok == strong_ok:
        agree = CheckItem(
            "readings_agree",
            agree_anchor,
            "pass",
            max(it.samples for it in weak.items + strong.items),
            [],
        )
    else:
        agree = CheckItem(
            "readings_agree",
            agree_anchor,
            "fail",
            max(it.samples for it in weak.items + strong.items),
            [
                Witness(
                    {
                        "weak": "pass" if weak_ok else "fail",
                        "strong": "pass" if strong_ok else "fail",
                    },
                    "readings disagree: the sumset reading and the all-choices "
                    "reading give different verdicts on the same samples",
                )
            ],
        )

    return CheckReport(
        model.describe(),
        "normal_equiv",
        [
            mirror_item("weak_normality", "sumset reading verdict", weak),
            mirror_item("strong_normality", "all-choices reading verdict", strong),
            agree,
        ],
    )
