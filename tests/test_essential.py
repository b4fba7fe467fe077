"""Essential points and the two normality readings."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hypervec.checker import CheckReport, SampleConfig, Witness, run_pass
from hypervec.essential import (
    check_lemma_basic,
    check_normal_equivalence,
    check_strong_normal,
    check_weak_normal,
    essential_points,
)
from hypervec.models import (
    _READINGS,
    Geometric,
    ModelSpec,
    Sign,
    Trivial,
    ZeroAugmented,
    _read_condition,
    contains,
    finite,
    product,
)
from hypervec.scalars import FieldTag, GaussianRational, invert, parse_scalar
from hypervec.vectors import Vector, make_vector, parse_vector, zero_vector

F = Fraction


def qv(*coords):
    return make_vector(FieldTag.Q, list(coords))


def mk(family, dim=2):
    return ModelSpec(FieldTag.Q, dim, family)


CATALOG = [
    mk(Trivial()),
    mk(ZeroAugmented()),
    mk(Geometric(F(1, 2))),
    mk(Geometric(F(2))),
    mk(Sign()),
]


class TestEssentialPoints:
    def test_zero_augmented_example(self):
        ess = essential_points(mk(ZeroAugmented()), 3, qv(1, 2))
        assert list(ess.elements) == [qv(3, 6)]
        assert len(ess.elements) == 1
        assert str(ess) == "{(3, 6)}"

    def test_zero_scalar_convention(self):
        for model in CATALOG:
            ess = essential_points(model, 0, qv(1, 2))
            assert list(ess.elements) == [zero_vector(FieldTag.Q, 2)]

    def test_sign_pair(self):
        ess = essential_points(mk(Sign()), 1, qv(1, 0))
        assert list(ess.elements) == [qv(-1, 0), qv(1, 0)]
        assert len(ess.elements) != 1

    def test_origin_not_essential_in_zero_augmented(self):
        # 0 sits in 3 o x but x never sits in (1/3) o 0 = {0}
        ess = essential_points(mk(ZeroAugmented()), 3, qv(1, 2))
        assert qv(0, 0) not in ess.elements

    def test_ray_closed_form(self):
        ess = essential_points(mk(Geometric(F(1, 2))), 2, qv(3, 0))
        assert list(ess.elements) == [qv(6, 0)]
        ess2 = essential_points(mk(Geometric(F(2))), F(1, 2), qv(4, 4))
        assert list(ess2.elements) == [qv(2, 2)]

    def test_ray_enumerated_path_agrees(self):
        m = mk(Geometric(F(1, 2)))
        closed = essential_points(m, 2, qv(3, 0))
        walked = essential_points(m, 2, qv(3, 0), closed_form=False)
        assert list(closed.elements) == list(walked.elements)

    def test_membership_definition_holds(self):
        # every reported point e satisfies e in a o x and x in inv(a) o e
        for model in CATALOG:
            for a in (F(3), F(-1, 2)):
                x = qv(1, 2)
                for e in essential_points(model, a, x).elements:
                    assert contains(product(model, a, x), e)
                    assert contains(product(model, invert(a), e), x)

    def test_zero_vector(self):
        for model in CATALOG:
            ess = essential_points(model, 3, zero_vector(FieldTag.Q, 2))
            assert list(ess.elements) == [zero_vector(FieldTag.Q, 2)]


SMALL = st.fractions(min_value=-6, max_value=6, max_denominator=6)
GAUSSIAN = st.builds(GaussianRational, SMALL, SMALL)


@pytest.mark.parametrize(
    "family,field",
    [
        (family, field)
        for family in [
            Trivial(), ZeroAugmented(), Sign(),
            Geometric(F(1, 2)), Geometric(F(3, 5)), Geometric(F(2)), Geometric(F(7, 3)),
        ]
        for field in (FieldTag.Q, FieldTag.QI)
        if not (isinstance(family, Sign) and field is FieldTag.QI)
    ],
    ids=str,
)
@given(st.integers(1, 4), st.booleans(), st.booleans(), st.data())
def test_closed_form_matches_definition(family, field, dim, zero_a, zero_x, data):
    # U(M)*(a*x) against the definition: x in a^-1 o e for e in a o x
    model = ModelSpec(field, dim, family)
    scalars = SMALL if field is FieldTag.Q else GAUSSIAN
    a = model.admit_scalar(0) if zero_a else data.draw(scalars)
    x = model.zero() if zero_x else Vector(data.draw(st.lists(scalars, min_size=dim, max_size=dim)))
    closed = essential_points(model, a, x)
    defined = essential_points(model, a, x, closed_form=False)
    assert closed.elements == defined.elements
    assert str(closed) == str(defined)


class TestLemmaBasic:
    @pytest.mark.parametrize("model", CATALOG, ids=lambda m: m.describe())
    def test_passes_everywhere(self, model, fast_cfg):
        report = check_lemma_basic(model, fast_cfg, check_strong_normal(model, fast_cfg))
        assert report.clean, [(i.id, i.status) for i in report.items]

    def test_singleton_item_vacuous_on_sign(self, fast_cfg):
        model = mk(Sign())
        report = check_lemma_basic(model, fast_cfg, check_strong_normal(model, fast_cfg))
        assert report.item("singleton_under_strong_normality").status == "vacuous"

    def test_singleton_item_live_on_trivial(self, fast_cfg):
        model = mk(Trivial())
        report = check_lemma_basic(model, fast_cfg, check_strong_normal(model, fast_cfg))
        assert report.item("singleton_under_strong_normality").status == "pass"


class TestNormalityReadings:
    @pytest.mark.parametrize(
        "model",
        [mk(Trivial()), mk(ZeroAugmented()), mk(Geometric(F(1, 2))), mk(Sign())],
        ids=lambda m: m.describe(),
    )
    def test_weak_passes(self, model, fast_cfg):
        assert check_weak_normal(model, fast_cfg).all_passed

    @pytest.mark.parametrize(
        "model",
        [mk(Trivial()), mk(ZeroAugmented()), mk(Geometric(F(1, 2)))],
        ids=lambda m: m.describe(),
    )
    def test_strong_passes_on_singleton_families(self, model, fast_cfg):
        assert check_strong_normal(model, fast_cfg).all_passed

    def test_sign_fails_strong(self, fast_cfg):
        report = check_strong_normal(mk(Sign()), fast_cfg)
        assert not report.all_passed
        assert report.item("scalar_condition").status == "fail"

    def test_sign_strong_witness_replays(self, fast_cfg):
        report = check_strong_normal(mk(Sign()), fast_cfg)
        w = report.item("scalar_condition").witnesses[0]
        model = mk(Sign())
        a1 = parse_scalar(w.bindings["a1"], FieldTag.Q)
        a2 = parse_scalar(w.bindings["a2"], FieldTag.Q)
        x = parse_vector(w.bindings["x"], FieldTag.Q)
        e1 = parse_vector(w.bindings["choice1"], FieldTag.Q)
        e2 = parse_vector(w.bindings["choice2"], FieldTag.Q)
        assert e1 in essential_points(model, a1, x).elements
        assert e2 in essential_points(model, a2, x).elements
        assert e1 + e2 not in essential_points(model, a1 + a2, x).elements
        # the documented counterexample: x and -x summing to 0
        assert e1 + e2 == zero_vector(FieldTag.Q, 2)

    def test_equivalence_report(self, fast_cfg):
        def equivalence(model):
            weak = check_weak_normal(model, fast_cfg)
            strong = check_strong_normal(model, fast_cfg)
            return check_normal_equivalence(model, fast_cfg, weak, strong)

        good = equivalence(mk(ZeroAugmented()))
        assert good.all_passed
        bad = equivalence(mk(Sign()))
        agree = bad.item("readings_agree")
        assert agree.status == "fail"
        assert "readings disagree" in agree.witnesses[0].relation
        assert bad.item("weak_normality").status == "pass"
        assert bad.item("strong_normality").status == "fail"


# The two readings as separate passes, one suite each: the oracle for
# the one pass that builds both reports.


def separate_pass(model, suite, cfg, laws):
    """The report of one reading from a pass that evaluates it alone."""
    (items,) = run_pass(model, cfg, (2, 2), {suite: _READINGS[suite]}, laws).values()
    return CheckReport(model.describe(), suite, items)


def weak_oracle(model, cfg):
    missed = "essential sumset misses the target essential set"

    def laws(a1, a2, x1, x2):
        e1 = essential_points(model, a1, x1)
        e2 = essential_points(model, a2, x1)
        target = essential_points(model, a1 + a2, x1)
        yield ("weak_normal", "scalar_condition"), weak_misses(
            {"a1": a1, "a2": a2, "x": x1,
             "E[a1 o x]": e1, "E[a2 o x]": e2, "E[(a1+a2) o x]": target},
            e1, e2, target,
        )
        f2 = essential_points(model, a1, x2)
        target2 = essential_points(model, a1, x1 + x2)
        yield ("weak_normal", "vector_condition"), weak_misses(
            {"a": a1, "x1": x1, "x2": x2,
             "E[a o x1]": e1, "E[a o x2]": f2, "E[a o (x1+x2)]": target2},
            e1, f2, target2,
        )

    return separate_pass(model, "weak_normal", cfg, laws)


def weak_misses(bindings, e1, e2, target):
    return not any(
        p + q in target.elements for p in e1.elements for q in e2.elements
    ) and Witness(bindings, "essential sumset misses the target essential set")


def strong_violations(given, e1, e2, target):
    sums = [(p1, p2, p1 + p2) for p1 in e1.elements for p2 in e2.elements]
    violations = [
        Witness(
            {**given, "choice1": p1, "choice2": p2, "sum": s, "target": target},
            "sum of essential choices is not an essential point of the target",
        )
        for p1, p2, s in sums
        if s not in target.elements
    ]
    achievable = {s for _, _, s in sums}
    return violations + [
        Witness(
            {**given, "missing": t, "target": target},
            "target essential point is not achievable as a sum of choices",
        )
        for t in target.elements
        if t not in achievable
    ]


def strong_oracle(model, cfg):
    def laws(a1, a2, x1, x2):
        e1 = essential_points(model, a1, x1)
        e2 = essential_points(model, a2, x1)
        target = essential_points(model, a1 + a2, x1)
        yield ("strong_normal", "scalar_condition"), strong_violations(
            {"a1": a1, "a2": a2, "x": x1}, e1, e2, target
        )
        f2 = essential_points(model, a1, x2)
        target2 = essential_points(model, a1, x1 + x2)
        yield ("strong_normal", "vector_condition"), strong_violations(
            {"a": a1, "x1": x1, "x2": x2}, e1, f2, target2
        )

    return separate_pass(model, "strong_normal", cfg, laws)


def outcome_json(outcome):
    witnesses = outcome if isinstance(outcome, list) else [outcome] if outcome else []
    return [w.to_json() for w in witnesses]


class TestOnePassReadings:
    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(
            [Trivial(), ZeroAugmented(), Sign(), Geometric(F(1, 2)), Geometric(F(2))]
        ),
        st.sampled_from([FieldTag.Q, FieldTag.QI]),
        st.integers(1, 4),
        st.integers(0, (1 << 64) - 1),
        st.integers(1, 60),
    )
    def test_reports_match_separate_passes(self, family, field, dim, seed, samples):
        if isinstance(family, Sign):
            field = FieldTag.Q  # the sign family is defined over Q only
        model = ModelSpec(field, dim, family)
        cfg = SampleConfig(seed=seed, samples=samples)
        assert check_weak_normal(model, cfg).to_json() == weak_oracle(model, cfg).to_json()
        assert check_strong_normal(model, cfg).to_json() == strong_oracle(model, cfg).to_json()

    @given(st.lists(st.lists(st.integers(-2, 2), min_size=1, max_size=3), min_size=3, max_size=3))
    def test_condition_on_any_sets(self, coords):
        # no family misses the weak reading; arbitrary sets reach it
        e1, e2, target = (finite(qv(c, 0) for c in cs) for cs in coords)
        given = {"a": 1}
        names = ("E1", "E2", "E")
        (weak_key, weak), (strong_key, strong) = _read_condition(
            "law", given, names, (e1, e2, target), tuple(_READINGS)
        )
        assert (weak_key, strong_key) == (("weak_normal", "law"), ("strong_normal", "law"))
        bindings = {**given, "E1": e1, "E2": e2, "E": target}
        assert outcome_json(weak) == outcome_json(weak_misses(bindings, e1, e2, target))
        assert outcome_json(strong) == outcome_json(strong_violations(given, e1, e2, target))


def test_geometric_two_strongly_normal(fast_cfg):
    # growing ray still has singleton essentials, both readings pass
    report = check_strong_normal(mk(Geometric(F(2))), fast_cfg)
    assert report.all_passed
    cfg = SampleConfig(samples=200)
    report_qi = check_strong_normal(
        ModelSpec(FieldTag.QI, 2, Geometric(F(2))), cfg
    )
    assert report_qi.all_passed
