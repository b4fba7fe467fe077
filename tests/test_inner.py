"""Pairings, suprema, and the five inner-product suites."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hypervec import checker, inner
from hypervec.checker import MAX_WITNESSES, CheckReport, SampleConfig, run_suites, sample_stream
from hypervec.essential import essential_points
from hypervec.inner import (
    DotProduct,
    SupResult,
    UnboundedSupremumError,
    WeightedDot,
    _ball_violation,
    check_hip_axioms,
    check_lemma_34,
    check_real_ip_axioms,
    norm_sq,
    pairing,
    sup_pairing,
)
from hypervec.models import (
    FiniteSet,
    Geometric,
    ModelError,
    ModelSpec,
    Sign,
    Trivial,
    ZeroAugmented,
    finite,
    ray,
)
from hypervec.scalars import FieldTag, GaussianRational, as_real, conjugate
from hypervec.vectors import make_vector, unit_vector

F = Fraction
G = GaussianRational
DOT = DotProduct()


def run_one(suite, model, cfg, ip=DOT):
    """One suite through the runner, which hands it its dependency reports."""
    (report,) = run_suites(model, ip, cfg, [suite])
    return report


def qv(*coords):
    return make_vector(FieldTag.Q, list(coords))


def gv(*coords):
    return make_vector(FieldTag.QI, list(coords))


def mk(family, dim=2, field=FieldTag.Q):
    return ModelSpec(field, dim, family)


class TestPairing:
    def test_dot_oracle(self):
        assert pairing(DOT, qv(1, 2), qv(3, -1)) == F(1)

    def test_weighted_oracle(self):
        wd = WeightedDot((F(2), F(3)))
        # 2*1*3 + 3*2*(-1) = 0
        assert pairing(wd, qv(1, 2), qv(3, -1)) == F(0)
        assert norm_sq(wd, qv(1, 1)) == F(5)

    def test_conjugates_second_slot(self):
        x = gv(G(1, 1), 0)
        assert pairing(DOT, x, x) == G(2)
        y = gv(G(0, 1), 0)
        # (1+i) * conj(i) = (1+i)(-i) = 1 - i
        assert pairing(DOT, x, y) == G(1, -1)

    def test_conjugate_symmetry_oracle(self):
        x, y = gv(G(1, 2), G(0, 1)), gv(G(3), G(1, -1))
        assert pairing(DOT, y, x) == conjugate(pairing(DOT, x, y))

    def test_norm_sq(self):
        assert norm_sq(DOT, qv(1, 2)) == F(5)
        assert isinstance(norm_sq(DOT, gv(G(1, 1), 1)), Fraction)
        assert norm_sq(DOT, gv(G(1, 1), 1)) == F(3)

    def test_weight_validation(self):
        with pytest.raises(ModelError):
            WeightedDot((F(0), F(1)))
        with pytest.raises(ModelError):
            WeightedDot((F(-1),))
        with pytest.raises(ModelError):
            WeightedDot(())
        with pytest.raises(ModelError):
            pairing(WeightedDot((F(1),)), qv(1, 2), qv(1, 2))

    @pytest.mark.parametrize("weight", [0.1, True, "1/2"], ids=repr)
    def test_weights_are_ints_or_fractions(self, weight):
        # the parser gives ints and Fractions only; a caller of the API can
        # give these, and 0.1 must not be read as the binary fraction it stores
        refused = f"weight must be an int or a Fraction, got {weight!r}"
        with pytest.raises(ModelError, match=refused):
            WeightedDot((F(1), weight))
        assert WeightedDot((2, F(1, 3))).describe() == "weighted_dot(2, 1/3)"

    @pytest.mark.parametrize("field", [FieldTag.Q, FieldTag.QI], ids=str)
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_dot_is_unit_weighted_dot(self, field, dim):
        unit = WeightedDot((1,) * dim)
        for x, y in sample_stream(SampleConfig(samples=60), field, dim, 0, 2):
            dot = pairing(DOT, x, y)
            assert dot == pairing(unit, x, y)
            assert str(dot) == str(pairing(unit, x, y))

    def test_dim_mismatch(self):
        with pytest.raises(ModelError):
            pairing(DOT, qv(1), qv(1, 2))

    def test_weighted_dot_values(self):
        w = WeightedDot((2, F(1, 3)))
        assert w.weights == (F(2), F(1, 3)) and (w.nums, w.den) == ((6, 1), 3)
        # only the weights are compared and shown
        assert w == WeightedDot((F(2), F(1, 3))) and hash(w) == hash(WeightedDot((2, F(1, 3))))
        assert repr(w) == "WeightedDot(weights=(Fraction(2, 1), Fraction(1, 3)))"
        assert w != DOT and DOT == DotProduct() and hash(DOT) == hash(DotProduct())

    def test_describe(self):
        assert DOT.describe() == "dot"
        assert WeightedDot((F(2), F(1, 3))).describe() == "weighted_dot(2, 1/3)"


class TestSupPairing:
    def test_finite_max(self):
        r = sup_pairing(mk(Trivial()), DOT, 2, qv(1, 2), qv(1, 0))
        assert r == SupResult(F(2), True, qv(2, 4))

    def test_zero_augmented_spurious_zero(self):
        r = sup_pairing(mk(ZeroAugmented()), DOT, 1, qv(1, 0), qv(-1, 0))
        assert r.value == F(0)
        assert r.attained and r.witness == qv(0, 0)

    def test_shrinking_ray_positive(self):
        r = sup_pairing(mk(Geometric(F(1, 2))), DOT, 2, qv(3, 0), qv(1, 0))
        assert r == SupResult(F(6), True, qv(6, 0))

    def test_shrinking_ray_negative_limit(self):
        r = sup_pairing(mk(Geometric(F(1, 2))), DOT, 1, qv(1, 0), qv(-1, 0))
        assert r.value == F(0)
        assert not r.attained and r.witness is None
        # the README shows this value
        assert repr(r) == "SupResult(value=Fraction(0, 1), attained=False, witness=None)"

    def test_growing_ray_negative_attained(self):
        r = sup_pairing(mk(Geometric(F(2))), DOT, 1, qv(1, 0), qv(-1, 0))
        assert r == SupResult(F(-1), True, qv(1, 0))

    def test_growing_ray_unbounded(self):
        with pytest.raises(UnboundedSupremumError):
            sup_pairing(mk(Geometric(F(2))), DOT, 1, qv(1, 0), qv(1, 0))

    def test_orthogonal_ray(self):
        r = sup_pairing(mk(Geometric(F(2))), DOT, 1, qv(1, 0), qv(0, 1))
        assert r == SupResult(F(0), True, qv(1, 0))

    def test_complex_field_rejected(self):
        m = mk(Trivial(), field=FieldTag.QI)
        with pytest.raises(ModelError):
            sup_pairing(m, DOT, 1, gv(1, 0), gv(1, 0))


# The two supremum routines that inner._sup replaced, kept verbatim in
# their shape logic as references.


def ref_sup_pairing(ip, s, y):
    if isinstance(s, FiniteSet):
        best = best_vec = None
        for u in s.elements:
            val = as_real(pairing(ip, u, y))
            if best is None or val > best:
                best, best_vec = val, u
        return SupResult(best, True, best_vec)
    c = as_real(pairing(ip, s.base, y))
    if c == 0:
        return SupResult(F(0), True, s.base)
    if s.ratio < 1:
        if c > 0:
            return SupResult(c, True, s.base)
        return SupResult(F(0), False, None)
    if c > 0:
        raise UnboundedSupremumError(f"values {c}*({s.ratio})^k grow without bound")
    return SupResult(c, True, s.base)


def ref_sup_norm_sq(ip, s):
    if isinstance(s, FiniteSet):
        best = best_vec = None
        for u in s.elements:
            val = norm_sq(ip, u)
            if best is None or val > best:
                best, best_vec = val, u
        return best, best_vec
    base_sq = norm_sq(ip, s.base)
    if base_sq == 0 or s.ratio < 1:
        return base_sq, s.base
    raise UnboundedSupremumError(f"values {base_sq}*({s.ratio})^(2k) grow without bound")


def sup_outcome(run):
    """The SupResult of run(), or the message of the unbounded error."""
    try:
        return run()
    except UnboundedSupremumError as exc:
        return str(exc)


SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=4)
VECTORS = st.lists(SMALL, min_size=2, max_size=2).map(lambda cs: qv(*cs))
# ratios on both sides of 1
RATIOS = st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8).filter(
    lambda r: r != 1
)
SHAPES = st.one_of(
    st.lists(VECTORS, min_size=1, max_size=4).map(finite),
    st.tuples(VECTORS.filter(lambda v: not v.is_zero), RATIOS).map(lambda br: ray(*br)),
)
IPS = st.sampled_from([DOT, WeightedDot((F(2), F(1, 3)))])


class TestMergedSupremum:
    @given(SHAPES, VECTORS, st.sampled_from(["y", "base", "-base", "zero"]), IPS)
    def test_pairing_matches_reference(self, s, y, against, ip):
        # pairing against the base itself, its negation or zero gives a
        # ray a base value of each sign
        base = getattr(s, "base", y)
        y = {"y": y, "base": base, "-base": -base, "zero": qv(0, 0)}[against]
        got = sup_outcome(lambda: inner._sup(s, lambda u: as_real(pairing(ip, u, y)), "k"))
        assert got == sup_outcome(lambda: ref_sup_pairing(ip, s, y))

    @given(SHAPES, IPS)
    def test_norm_sq_matches_reference(self, s, ip):
        got = sup_outcome(lambda: inner._sup(s, lambda u: norm_sq(ip, u), "(2k)"))
        want = sup_outcome(lambda: ref_sup_norm_sq(ip, s))
        if isinstance(want, str):
            assert got == want
        else:
            assert got == SupResult(want[0], True, want[1])

    def test_evaluates_f_once_per_element(self):
        calls = []

        def f(u):
            calls.append(u)
            return norm_sq(DOT, u)

        s = finite([qv(1, 0), qv(3, 0), qv(-3, 0), qv(2, 0)])
        assert inner._sup(s, f, "(2k)") == SupResult(F(9), True, qv(-3, 0))
        assert sorted(calls, key=str) == sorted(s.elements, key=str)


def ball_violation_walk(ip, s, bound):
    """The upward walk along a ray: the reference for _ball_violation."""
    r2 = s.ratio * s.ratio
    cur, u = norm_sq(ip, s.base), s.base
    while cur <= bound:
        cur *= r2
        u = u.scaled(s.ratio)
    return u


class TestBallViolation:
    @given(
        st.sampled_from([F(2), F(3), F(3, 2), F(7, 5)]),
        st.fractions(min_value=1, max_value=10**6, max_denominator=50),
        st.sampled_from([qv(1, 0), qv(F(1, 2), 1), gv(G(1, 1), 0)]),
    )
    def test_matches_walk(self, ratio, bound, base):
        s = ray(base, ratio)
        assert _ball_violation(DOT, s, bound) == ball_violation_walk(DOT, s, bound)

    def test_closed_forms(self):
        s = ray(qv(1, 0), F(2))
        # (u, u) = 4^k first exceeds 4 at k = 2, and 4^k = 4 does not exceed it
        assert _ball_violation(DOT, s, F(4)) == qv(4, 0)
        assert _ball_violation(DOT, s, F(1, 2)) == qv(1, 0)
        assert _ball_violation(DOT, ray(qv(1, 0), F(1, 2)), F(1)) is None

    def test_finite_set_gives_its_first_element_past_the_bound(self):
        # held sorted as (0, 4), (1, 0), (3, 0), with (u, u) = 16, 1, 9
        s = finite([qv(1, 0), qv(3, 0), qv(0, 4)])
        assert _ball_violation(DOT, s, F(5)) == qv(0, 4)
        assert _ball_violation(DOT, finite([qv(1, 0), qv(3, 0)]), F(5)) == qv(3, 0)
        assert _ball_violation(DOT, s, F(16)) is None

    def test_huge_bound(self):
        start = time.perf_counter()
        u = _ball_violation(DOT, ray(qv(1, 0), F(2)), F(2) ** 40000)
        # 4^k > 2^40000 first holds at k = 20001
        assert u == qv(2**20001, 0)
        assert time.perf_counter() - start < 1.0


class TestRealIpSuite:
    def test_trivial_passes(self, fast_cfg):
        report = check_real_ip_axioms(mk(Trivial()), DOT, fast_cfg)
        assert report.all_passed, [(i.id, i.status) for i in report.items]

    def test_zero_augmented_fails_sup_scaling(self, fast_cfg):
        report = check_real_ip_axioms(mk(ZeroAugmented()), DOT, fast_cfg)
        item = report.item("sup_scaling")
        assert item.status == "fail"
        w = item.witnesses[0].bindings
        assert (w["a"], w["x"], w["y"]) == ("1", "(1, 0)", "(-1, 0)")
        assert w["sup"].startswith("0") and w["a*(x,y)"] == "-1"
        # the four plain axioms still hold
        for item_id in ("positive", "definite", "additive", "symmetric"):
            assert report.item(item_id).status == "pass"

    def test_sup_attained_conditional(self, fast_cfg):
        report = check_real_ip_axioms(mk(ZeroAugmented()), DOT, fast_cfg)
        attained = report.item("sup_attained_at_essential")
        assert attained.status == "pass"
        assert attained.samples < report.item("definite").samples

    def test_geometric_two_unbounded(self, fast_cfg):
        report = check_real_ip_axioms(mk(Geometric(F(2))), DOT, fast_cfg)
        assert report.item("sup_scaling").status == "unbounded"

    def test_vacuous_without_ip_or_over_qi(self, fast_cfg):
        rep = check_real_ip_axioms(mk(Trivial()), None, fast_cfg)
        assert all(i.status == "vacuous" for i in rep.items)
        rep = check_real_ip_axioms(mk(Trivial(), field=FieldTag.QI), DOT, fast_cfg)
        assert all(i.status == "vacuous" for i in rep.items)


class TestHipSuite:
    @pytest.mark.parametrize(
        "model",
        [mk(Trivial()), mk(ZeroAugmented()), mk(Geometric(F(1, 2)))],
        ids=lambda m: m.describe(),
    )
    def test_passing_models(self, model, fast_cfg):
        report = check_hip_axioms(model, DOT, fast_cfg)
        assert report.all_passed, [(i.id, i.status) for i in report.items]

    def test_qi_zero_augmented_passes(self):
        cfg = SampleConfig(samples=250)
        report = check_hip_axioms(mk(ZeroAugmented(), field=FieldTag.QI), DOT, cfg)
        assert report.all_passed

    def test_geometric_two_ball_violation(self, fast_cfg):
        report = check_hip_axioms(mk(Geometric(F(2))), DOT, fast_cfg)
        item = report.item("unit_ball_bound")
        assert item.status == "fail"
        w = item.witnesses[0].bindings
        assert w["x"] == "(1, 0)" and w["u"] == "(2, 0)"
        for other in ("positive", "definite", "additive", "conjugate_symmetric",
                      "essential_scaling"):
            assert report.item(other).status == "pass"

    def test_sign_essential_scaling_violation(self, fast_cfg):
        report = check_hip_axioms(mk(Sign()), DOT, fast_cfg)
        item = report.item("essential_scaling")
        assert item.status == "fail"
        w = item.witnesses[0].bindings
        # a nondegenerate witness: the pairing itself is nonzero
        assert w["a*(x,y)"] != "0"
        assert report.item("unit_ball_bound").status == "pass"


# The first witness of each of the four axioms real_ip and hip both state,
# under a pairing that breaks every one of them: (x, y) = x1*(y1 + 1) - 1.
# Over the 30 tuples of the forced prefix x is nonzero in 18; the
# witnesses of one law that repeat are kept once.
_BROKEN_AXIOMS = {
    "real_ip": {
        "positive": (18, 1, ["x", "(x,x)"], "(x,x) is not positive for nonzero x"),
        "definite": (30, 1, ["x", "(x,x)"], "(x,x) = 0 does not characterize x = 0"),
        "additive": (
            30, 5, ["x", "y", "z", "(x+y,z)", "(x,z)+(y,z)"], "additivity in the first slot fails"
        ),
        "symmetric": (30, 5, ["x", "y"], "(y,x) differs from (x,y)"),
    },
    "hip": {
        "positive": (18, 1, ["x", "(x,x)"], "(x,x) is not real positive for nonzero x"),
        "definite": (30, 1, ["x", "(x,x)"], "(x,x) = 0 does not characterize x = 0"),
        "additive": (30, 5, ["x", "y", "z"], "additivity in the first slot fails"),
        "conjugate_symmetric": (30, 5, ["x", "y"], "(y,x) differs from conj((x,y))"),
    },
}


class TestSharedAxiomFailures:
    """The fail paths of positive, definite, additive and symmetry in both
    readings: no pairing the language accepts reaches them."""

    @pytest.mark.parametrize("suites", [["real_ip"], ["hip"], ["real_ip", "hip"]], ids="+".join)
    def test_every_shared_axiom_fails_in_each_reading(self, suites, monkeypatch):
        monkeypatch.setattr(inner, "pairing", lambda ip, x, y: x.coords[0] * (y.coords[0] + 1) - 1)
        reports = run_suites(mk(Trivial()), DOT, SampleConfig(samples=30), suites)
        assert [report.suite for report in reports] == suites
        for report in reports:
            for item_id, (samples, kept, names, relation) in _BROKEN_AXIOMS[report.suite].items():
                item = report.item(item_id)
                assert (item.status, item.samples, len(item.witnesses)) == ("fail", samples, kept)
                first = item.witnesses[0]
                assert (list(first.bindings), first.relation) == (names, relation), item_id

    def test_hip_positive_fails_on_a_length_with_an_imaginary_part(self, monkeypatch):
        # (x, y) = i*x1*conj(y1), so (e1, e1) = i: not real
        monkeypatch.setattr(
            inner, "pairing", lambda ip, x, y: G(0, 1) * x.coords[0] * conjugate(y.coords[0])
        )
        model = mk(Trivial(), field=FieldTag.QI)
        rows, laws = inner._pairing_laws(model, DOT, ("real_ip", "hip"))
        assert list(rows) == ["hip"]  # real_ip is vacuous over Q[i]
        e1 = unit_vector(FieldTag.QI, 2)
        decided = {}
        # the unit ball bound cannot compare against a length that is not real
        with pytest.raises(ValueError, match="is not real"):
            for key, outcome in laws(G(1), e1, e1, e1):
                decided[key] = outcome
        witness = decided["hip", "positive"]
        assert (witness.bindings, witness.relation) == (
            {"x": "(1, 0)", "(x,x)": "i"}, "(x,x) is not real positive for nonzero x"
        )


class TestLemma34Suite:
    def test_zero_augmented_both_fields(self, fast_cfg):
        for field, cfg in ((FieldTag.Q, fast_cfg), (FieldTag.QI, SampleConfig(samples=250))):
            report = run_one("lemma_34", mk(ZeroAugmented(), field=field), cfg)
            assert report.all_passed, (field, [(i.id, i.status) for i in report.items])

    def test_complex_conjugate_oracle(self):
        m = mk(ZeroAugmented(), field=FieldTag.QI)
        a = G(1, 1)
        x, y = gv(1, G(0, 1)), gv(G(2, -1), 3)
        (e,) = essential_points(m, a, y).elements
        assert pairing(DOT, x, e) == conjugate(a) * pairing(DOT, x, y)

    def test_vacuous_when_premise_fails(self, fast_cfg):
        report = run_one("lemma_34", mk(Sign()), fast_cfg)
        assert all(i.status == "vacuous" for i in report.items)

    @pytest.mark.parametrize("family", [Sign(), Geometric(F(2))], ids=repr)
    def test_premise_failure_is_not_sampled(self, family, fast_cfg, monkeypatch):
        model = mk(family)
        hip = check_hip_axioms(model, DOT, fast_cfg)
        assert not hip.all_passed
        # sampled as if the premise held, every law is decided on every
        # tuple and none is unbounded ...
        sampled = check_lemma_34(model, DOT, fast_cfg, CheckReport("m", "hip", []))
        assert [i.samples for i in sampled.items] == [fast_cfg.samples] * 4
        assert all(i.status != "unbounded" for i in sampled.items)

        # ... so the vacuous report is built without sampling
        def no_sampling(*args, **kwargs):
            raise AssertionError("lemma_34 sampled under a failed premise")

        monkeypatch.setattr(checker, "sample_stream", no_sampling)
        report = check_lemma_34(model, DOT, fast_cfg, hip)
        assert [(i.id, i.anchor, i.status, i.samples, i.witnesses) for i in report.items] == [
            (i.id, i.anchor, "vacuous", fast_cfg.samples, []) for i in sampled.items
        ]

    def test_item_ids(self, fast_cfg):
        report = run_one("lemma_34", mk(Trivial()), fast_cfg)
        assert [i.id for i in report.items] == [
            "zero_pairing",
            "negation",
            "conjugate_scaling",
            "scaled_ball_bound",
        ]
        assert report.all_passed


class TestTheoremSuite:
    @pytest.mark.parametrize(
        "model",
        [mk(Trivial()), mk(ZeroAugmented()), mk(Geometric(F(1, 2))),
         mk(Geometric(F(2))), mk(Sign())],
        ids=lambda m: m.describe(),
    )
    def test_consistent_on_catalog(self, model, fast_cfg):
        report = run_one("theorem_normal", model, fast_cfg)
        assert report.item("implication_consistent").status == "pass"

    def test_conclusions_live_when_premise_holds(self, fast_cfg):
        report = run_one("theorem_normal", mk(ZeroAugmented()), fast_cfg)
        assert report.item("essential_singletons").status == "pass"
        assert report.item("strong_normality").status == "pass"

    def test_conclusions_vacuous_when_premise_fails(self, fast_cfg):
        report = run_one("theorem_normal", mk(Sign()), fast_cfg)
        assert report.item("essential_singletons").status == "vacuous"
        assert report.item("strong_normality").status == "vacuous"
        assert report.item("implication_consistent").status == "pass"


class TestNormSuite:
    @pytest.mark.parametrize(
        "model",
        [mk(Trivial()), mk(ZeroAugmented()), mk(Geometric(F(1, 2)))],
        ids=lambda m: m.describe(),
    )
    def test_passing_models(self, model, fast_cfg):
        report = run_one("norm_props", model, fast_cfg)
        assert report.all_passed, [(i.id, i.status) for i in report.items]

    def test_weighted_dot_passes_too(self, fast_cfg):
        wd = WeightedDot((F(2), F(1, 3)))
        report = run_one("norm_props", mk(ZeroAugmented()), fast_cfg, wd)
        assert report.all_passed

    def test_geometric_two_unbounded(self, fast_cfg):
        report = run_one("norm_props", mk(Geometric(F(2))), fast_cfg)
        assert report.item("sup_scaling").status == "unbounded"
        assert report.item("norm_axioms").status == "unbounded"
        # hip fails here: the unbounded items keep their witnesses, and
        # every other item is vacuous with its samples and no witnesses
        sup = report.item("sup_scaling")
        assert len(sup.witnesses) == MAX_WITNESSES
        assert all("unbounded" in w.relation for w in sup.witnesses)
        assert sup.samples == fast_cfg.samples
        for item in report.items:
            if item.status != "unbounded":
                assert (item.status, item.samples, item.witnesses) == (
                    "vacuous", fast_cfg.samples, []
                )

    def test_sign_vacuous(self, fast_cfg):
        report = run_one("norm_props", mk(Sign()), fast_cfg)
        assert [(i.status, i.samples, i.witnesses) for i in report.items] == [
            ("vacuous", fast_cfg.samples, [])
        ] * len(report.items)

    def test_cauchy_schwarz_equality_iff_parallel(self):
        # boundary sanity for the squared-form comparison
        x, y = qv(2, 4), qv(1, 2)
        assert pairing(DOT, x, y) ** 2 == norm_sq(DOT, x) * norm_sq(DOT, y)
        z = qv(1, 0)
        assert pairing(DOT, x, z) ** 2 < norm_sq(DOT, x) * norm_sq(DOT, z)
