"""Set-valued products: shapes, closed forms, and the base axiom suite."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hypervec import models
from hypervec.checker import SampleConfig, render_json, report_document, run_suites, sample_stream
from hypervec.models import (
    Family,
    FiniteSet,
    Geometric,
    GeometricRay,
    ModelError,
    ModelSpec,
    Sign,
    Trivial,
    ZeroAugmented,
    _solve_power,
    check_wvs_axioms,
    contains,
    enumerate_set,
    finite,
    hyperset_eq,
    intersect_nonempty,
    negate_set,
    product,
    product_of_set,
    ray,
    sumset,
)
from hypervec.scalars import FieldTag, GaussianRational
from hypervec.vectors import Vector, make_vector, unit_vector, zero_vector

F = Fraction
G = GaussianRational


def qv(*coords):
    return make_vector(FieldTag.Q, list(coords))


def pm(v):
    """The sign pair {v, -v}, as the sign family builds it."""
    return finite([v, -v])


def mk(family, dim=2, field=FieldTag.Q):
    return ModelSpec(field, dim, family)


ALL_FAMILIES = [Trivial(), ZeroAugmented(), Geometric(F(1, 2)), Geometric(F(2)), Sign()]

RATIOS = [F(1, 2), F(2), F(3), F(2, 3)]
small = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def solve_power_walk(t, r):
    """The exponent walk, one step at a time: the reference for _solve_power."""
    if t <= 0:
        return None
    if t == 1:
        return 0
    cur = F(1)
    k = 0
    if r < 1:
        if t > 1:
            return None
        while cur > t:
            cur *= r
            k += 1
    else:
        if t < 1:
            return None
        while cur < t:
            cur *= r
            k += 1
    return k if cur == t else None


class TestShapes:
    def test_finite_normalizes(self):
        s = finite([qv(1, 0), qv(0, 0), qv(1, 0)])
        assert isinstance(s, FiniteSet)
        assert s.elements == (qv(0, 0), qv(1, 0))  # sorted, deduped
        with pytest.raises(ModelError):
            finite([])

    def test_ray_factory(self):
        s = ray(qv(6, 0), F(1, 2))
        assert isinstance(s, GeometricRay)
        # a zero base collapses the ray to {0}
        assert ray(qv(0, 0), F(1, 2)) == finite([qv(0, 0)])
        with pytest.raises(ModelError):
            ray(qv(1, 0), F(1))
        with pytest.raises(ModelError):
            ray(qv(1, 0), F(-1, 2))
        with pytest.raises(ModelError):
            ray(qv(1, 0), F(0))

    def test_sign_pair_canonical(self):
        assert pm(qv(-1, 0)) == pm(qv(1, 0))
        # a zero base collapses to {0} like ray() does
        assert pm(qv(0, 0)) == finite([qv(0, 0)])

    def test_describe(self):
        assert str(finite([qv(3, 6)])) == "{(3, 6)}"
        assert str(pm(qv(1, 0))) == "{(-1, 0), (1, 0)}"
        assert str(ray(qv(6, 0), F(1, 2))) == "{(6, 0)*(1/2)^k : k >= 0}"


class TestProducts:
    def test_trivial(self):
        assert product(mk(Trivial()), 3, qv(1, 2)) == finite([qv(3, 6)])

    def test_zero_augmented(self):
        assert product(mk(ZeroAugmented()), 3, qv(1, 2)) == finite(
            [qv(3, 6), qv(0, 0)]
        )
        # scaling by zero must not duplicate the origin
        assert product(mk(ZeroAugmented()), 0, qv(1, 2)) == finite([qv(0, 0)])

    def test_geometric(self):
        s = product(mk(Geometric(F(1, 2))), 2, qv(3, 0))
        assert s == ray(qv(6, 0), F(1, 2))
        assert product(mk(Geometric(F(1, 2))), 0, qv(3, 0)) == finite([qv(0, 0)])
        assert product(mk(Geometric(F(2))), 1, zero_vector(FieldTag.Q, 2)) == finite(
            [qv(0, 0)]
        )

    def test_sign(self):
        assert product(mk(Sign()), 2, qv(1, 0)) == pm(qv(2, 0))
        assert product(mk(Sign()), 0, qv(1, 0)) == finite([qv(0, 0)])

    def test_zero_in_every_family(self):
        for fam in ALL_FAMILIES:
            m = mk(fam)
            assert product(m, 0, qv(1, 2)) == finite([qv(0, 0)])
            assert product(m, 3, zero_vector(FieldTag.Q, 2)) == finite([qv(0, 0)])


class TestMembershipEnumeration:
    def test_ray_membership(self):
        s = ray(qv(6, 0), F(1, 2))
        assert contains(s, qv(6, 0))
        assert contains(s, qv(3, 0))
        assert contains(s, qv(F(3, 2), 0))  # k = 2
        assert not contains(s, qv(12, 0))  # would need k = -1
        assert not contains(s, qv(1, 0))  # not a power of 1/2 multiple
        assert not contains(s, qv(0, 0))
        assert not contains(s, qv(3, 1))  # inconsistent coordinates

    def test_growing_ray_membership(self):
        s = ray(qv(1, 0), F(2))
        assert contains(s, qv(8, 0))
        assert not contains(s, qv(F(1, 2), 0))

    def test_enumerate(self):
        s = ray(qv(6, 0), F(1, 2))
        assert enumerate_set(s, 3) == [qv(6, 0), qv(3, 0), qv(F(3, 2), 0)]
        assert enumerate_set(finite([qv(1, 0), qv(0, 0)]), 99) == [
            qv(0, 0),
            qv(1, 0),
        ]
        assert enumerate_set(pm(qv(2, 0)), 1) == [qv(-2, 0), qv(2, 0)]

    @given(
        st.sampled_from(RATIOS + [F(5), F(1, 7), F(9, 4), F(4, 9)]),
        st.integers(0, 40),
        st.sampled_from([F(1), F(1), F(2), F(1, 3), F(5, 4), F(-1)]),
    )
    def test_solve_power_matches_walk(self, r, k, factor):
        t = r**k * factor
        assert _solve_power(t, r) == solve_power_walk(t, r)

    @given(st.fractions(min_value=-5, max_value=300, max_denominator=50))
    def test_solve_power_matches_walk_anywhere(self, t):
        for r in RATIOS:
            assert _solve_power(t, r) == solve_power_walk(t, r)

    @pytest.mark.parametrize(
        "t,expected", [(F(2) ** 200000, 200000), (F(2) ** 200000 + 1, None)]
    )
    def test_solve_power_huge_exponent(self, t, expected):
        start = time.perf_counter()
        assert _solve_power(t, F(2)) == expected
        assert time.perf_counter() - start < 1.0

    def test_enumerated_elements_are_members(self):
        for s in (
            finite([qv(1, 2), qv(3, 4)]),
            pm(qv(5, 0)),
            ray(qv(2, 2), F(3)),
            ray(qv(2, 2), F(1, 3)),
        ):
            for v in enumerate_set(s, 6):
                assert contains(s, v)


class TestSetAlgebra:
    def test_equality(self):
        assert hyperset_eq(finite([qv(1, 0), qv(2, 0)]), finite([qv(2, 0), qv(1, 0)]))
        assert hyperset_eq(ray(qv(1, 0), F(2)), ray(qv(1, 0), F(2)))
        assert not hyperset_eq(ray(qv(1, 0), F(2)), ray(qv(2, 0), F(2)))
        assert not hyperset_eq(ray(qv(1, 0), F(2)), finite([qv(1, 0)]))
        # a sign pair is the same set whichever of its points names it
        assert hyperset_eq(pm(qv(1, 0)), pm(qv(-1, 0)))

    def test_negate(self):
        assert negate_set(finite([qv(1, 2)])) == finite([qv(-1, -2)])
        assert negate_set(ray(qv(6, 0), F(1, 2))) == ray(qv(-6, 0), F(1, 2))
        # sign pairs are symmetric, negation is the identity on them
        assert negate_set(pm(qv(1, 0))) == pm(qv(1, 0))

    def test_sumset(self):
        s = sumset(finite([qv(1, 0)]), finite([qv(0, 1), qv(2, 0)]), 4)
        assert s == finite([qv(1, 1), qv(3, 0)])

    def test_intersections(self):
        r = ray(qv(8, 0), F(1, 2))
        assert intersect_nonempty(r, finite([qv(2, 0), qv(5, 5)]), 8)
        assert not intersect_nonempty(r, finite([qv(3, 0)]), 8)
        assert intersect_nonempty(r, ray(qv(2, 0), F(1, 2)), 8)
        assert not intersect_nonempty(r, ray(qv(3, 0), F(1, 2)), 8)

    def test_product_of_set(self):
        m = mk(Geometric(F(1, 2)))
        assert product_of_set(m, 2, ray(qv(3, 0), F(1, 2))) == ray(qv(6, 0), F(1, 2))
        assert product_of_set(m, 0, ray(qv(3, 0), F(1, 2))) == finite([qv(0, 0)])
        mz = mk(ZeroAugmented())
        assert product_of_set(mz, 2, finite([qv(1, 0), qv(0, 0)])) == finite(
            [qv(2, 0), qv(0, 0)]
        )

    def test_product_of_a_foreign_ray_raises(self):
        # geometric(1/2) makes a ray of ratio 1/2 from a ray of ratio 2,
        # trivial no ray at all
        for family in (Geometric(F(1, 2)), Trivial()):
            with pytest.raises(ModelError, match="does not match"):
                product_of_set(mk(family), 2, ray(qv(3, 0), F(2)))

    def test_union_of_a_ray_part_raises(self):
        # no family gives a ray a o v for a v of a finite set
        rising = ray(qv(1, 0), F(2))
        for parts in ([rising, finite([qv(0, 0)])], [rising, ray(qv(2, 0), F(2))]):
            with pytest.raises(ModelError, match="not representable"):
                models._union(parts)


class TestValueSemantics:
    def test_constructor_checks(self):
        with pytest.raises(ModelError, match="never empty"):
            FiniteSet(())
        with pytest.raises(ModelError, match="nonzero"):
            GeometricRay(qv(0, 0), F(1, 2))
        for ratio in (F(1), F(-1, 2)):
            with pytest.raises(ModelError):
                GeometricRay(qv(1, 0), ratio)
            with pytest.raises(ModelError):
                Geometric(ratio)
        with pytest.raises(ModelError, match="ratio must be a Fraction"):
            GeometricRay(qv(1, 0), 2)
        # the family's ratio is coerced to a Fraction; a ray's is not
        assert type(Geometric(2).ratio) is Fraction and Geometric(2) == Geometric(F(2))
        for dim in (0, 65, "2"):
            with pytest.raises(ModelError, match="dim must be"):
                ModelSpec(FieldTag.Q, dim, Trivial())

    def test_no_two_families_are_equal(self):
        again = [Trivial(), ZeroAugmented(), Geometric(F(1, 2)), Geometric(F(2)), Sign()]
        for i, a in enumerate(ALL_FAMILIES):
            for j, b in enumerate(again):
                assert (a == b) == (i == j) and (a != b) == (i != j)
        assert [hash(a) for a in ALL_FAMILIES] == [hash(b) for b in again]
        assert ModelSpec(FieldTag.Q, 2, Trivial()) != ModelSpec(FieldTag.Q, 2, Sign())
        assert finite([qv(1, 0)]) != GeometricRay(qv(1, 0), F(2))

    def test_model_spec_compares_its_three_fields(self):
        a, b = mk(Geometric(F(1, 2))), mk(Geometric(F(1, 2)))
        # the zero vector a spec keeps is left out of equality, hash and repr
        object.__setattr__(b, "_zero", qv(9, 9))
        assert a == b and hash(a) == hash(b)
        assert a != mk(Geometric(F(1, 2)), dim=3)
        assert repr(mk(Trivial())) == "ModelSpec(field=<FieldTag.Q: 'Q'>, dim=2, family=Trivial())"


class TestModelSpec:
    def test_validation(self):
        with pytest.raises(ModelError):
            ModelSpec(FieldTag.Q, 0, Trivial())
        with pytest.raises(ModelError):
            ModelSpec(FieldTag.QI, 2, Sign())
        with pytest.raises(ModelError):
            ModelSpec(FieldTag.Q, 2, Geometric(F(1)))

    def test_refuses_a_family_that_is_not_one_and_a_bool_dim(self):
        # the parser never builds these; a caller of the API can
        with pytest.raises(ModelError, match="not a product family: 'trivial'"):
            ModelSpec(FieldTag.Q, 2, "trivial")
        for dim in (True, False):
            with pytest.raises(ModelError, match="dim must be"):
                ModelSpec(FieldTag.Q, dim, Trivial())

    @pytest.mark.parametrize("ratio", [0.5, False, "1/2"], ids=repr)
    def test_geometric_refuses_a_ratio_that_is_not_an_int_or_a_fraction(self, ratio):
        # the parser gives ints and Fractions only; a caller of the API can
        # give these, and 0.5 must not be read as the binary fraction it stores
        with pytest.raises(ModelError, match=f"ratio must be an int or a Fraction, got {ratio!r}"):
            Geometric(ratio)
        assert str(Geometric(2)) == "geometric(2)"
        assert str(Geometric(F(1, 2))) == "geometric(1/2)"

    def test_every_family_is_a_family_shown_by_its_token(self):
        assert all(isinstance(family, Family) for family in ALL_FAMILIES)
        assert [str(family) for family in ALL_FAMILIES] == [
            "trivial", "zero_augmented", "geometric(1/2)", "geometric(2)", "sign"
        ]

    def test_admit(self):
        m = mk(Trivial())
        assert m.admit_scalar(3) == F(3)
        with pytest.raises(ModelError):
            m.admit_scalar(G(1, 1))
        with pytest.raises(ModelError):
            m.admit_vector(qv(1, 2, 3))
        mqi = mk(Trivial(), field=FieldTag.QI)
        assert mqi.admit_scalar(3) == G(3)

    def test_describe(self):
        assert mk(ZeroAugmented()).describe() == "zero_augmented Q dim=2"
        assert (
            mk(Geometric(F(1, 2)), dim=3).describe() == "geometric(1/2) Q dim=3"
        )


class TestAxiomSuite:
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=repr)
    def test_all_families_pass(self, family, fast_cfg):
        report = check_wvs_axioms(mk(family), fast_cfg)
        assert report.all_passed, [
            (i.id, i.status, i.witnesses) for i in report.items
        ]

    def test_qi_families_pass(self, fast_cfg):
        cfg = SampleConfig(samples=200)  # Qi forced prefix is larger
        for family in (Trivial(), ZeroAugmented(), Geometric(F(1, 2))):
            report = check_wvs_axioms(mk(family, field=FieldTag.QI), cfg)
            assert report.all_passed

    def test_item_ids(self, fast_cfg):
        report = check_wvs_axioms(mk(Trivial()), fast_cfg)
        assert [i.id for i in report.items] == [
            "right_distributive",
            "left_distributive",
            "scalar_associative",
            "negation",
            "unit_contains",
        ]

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=repr)
    def test_distributive_laws_build_no_sumset(self, family, monkeypatch):
        model = mk(family, dim=4)
        cfg = SampleConfig(samples=50, height=1000)
        calls = []
        monkeypatch.setattr(
            models, "sumset", lambda *args: calls.append(args) or sumset(*args)
        )
        report = check_wvs_axioms(model, cfg)
        assert report.all_passed
        assert calls == []

        # the same bytes as requiring a common element from a search over
        # the built depth-bounded sumset on every tuple
        def bounded_search(whole, s1, u, s2, v, total):
            assert intersect_nonempty(whole, sumset(s1, s2, 12), 12) is not None

        monkeypatch.setattr(models, "_classical_sum_meets", bounded_search)
        reference = check_wvs_axioms(model, cfg)

        def rendered(r):
            return render_json(report_document(model.describe(), cfg.seed, [r]))

        assert rendered(report) == rendered(reference)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=repr)
    def test_missing_classical_value_raises(self, family, monkeypatch):
        model = mk(family)
        e1 = unit_vector(model.field, model.dim)
        apply = type(family).apply

        def omit_classical(self, ax, zero):
            # the family's set without a*x: rays start one step later
            s = apply(self, ax, zero)
            if isinstance(s, GeometricRay):
                return ray(s.base.scaled(s.ratio), s.ratio)
            return finite([v for v in s.elements if v != ax] or [ax + e1])

        monkeypatch.setattr(type(family), "apply", omit_classical)
        with pytest.raises(ModelError, match="omits a classical value"):
            check_wvs_axioms(model, SampleConfig(samples=20))

    def test_sum_pass_scales_each_classical_value_once(self, monkeypatch):
        # a*x, a*y and b*x are the only classical values scaled; a*(x+y),
        # (a+b)*x, a*(-x) = (-a)*x and 1*x are read off them. Trivial's
        # other scalings are a o (b o x) and (a*b) o x: 5 per tuple
        calls = []
        scaled = Vector.scaled
        monkeypatch.setattr(Vector, "scaled", lambda *args: calls.append(args) or scaled(*args))
        cfg = SampleConfig(samples=50)
        suites = ["wvs_axioms", "weak_normal", "strong_normal"]
        reports = run_suites(mk(Trivial()), None, cfg, suites)
        assert all(report.all_passed for report in reports)
        assert len(calls) == 5 * cfg.samples

    def test_sum_pass_adds_each_classical_sum_once(self, monkeypatch):
        # a*x + a*y and a*x + b*x; the distributive laws read them as given
        calls = []
        add = Vector.__add__
        monkeypatch.setattr(Vector, "__add__", lambda *args: calls.append(args) or add(*args))
        cfg = SampleConfig(samples=50)
        assert check_wvs_axioms(mk(Trivial()), cfg).all_passed
        assert len(calls) == 2 * cfg.samples


class TestNegationImageProperty:
    # product(a, -x) = product(-a, x) = -(product(a, x)) across families
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=repr)
    def test_negation_image(self, family):
        m = mk(family)
        cfg = SampleConfig(samples=60)
        for a, x in sample_stream(cfg, m.field, m.dim, 1, 1):
            s = product(m, a, x)
            assert hyperset_eq(product(m, a, -x), negate_set(s))
            assert hyperset_eq(product(m, -a, x), negate_set(s))
