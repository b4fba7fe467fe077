"""Exact scalar arithmetic: frozen oracles plus algebraic property tests."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hypervec.scalars import (
    FieldTag,
    GaussianRational,
    abs2,
    as_real,
    conjugate,
    format_scalar,
    imag_part,
    invert,
    is_zero,
    leq_sqrt_product,
    make_scalar,
    parse_rational,
    parse_scalar,
    real_part,
)
from hypervec.vectors import Vector, vector_key

G = GaussianRational
F = Fraction

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=30)
gaussians = st.builds(G, rationals, rationals)


class TestGaussianOracles:
    # (1+2i)(3-i) = 3 - i + 6i - 2i^2 = 5 + 5i, worked by hand
    def test_product(self):
        assert G(1, 2) * G(3, -1) == G(5, 5)

    def test_quotient_inverts_product(self):
        assert G(5, 5) / G(3, -1) == G(1, 2)

    def test_sum_difference(self):
        assert G(F(1, 2), 1) + G(F(1, 3), -2) == G(F(5, 6), -1)
        assert G(1, 1) - G(1, 1) == G(0)

    def test_conjugate_and_abs2(self):
        assert conjugate(G(1, 1)) == G(1, -1)
        assert abs2(G(1, 1)) == F(2)
        assert isinstance(abs2(G(1, 1)), Fraction)
        assert abs2(F(-3, 2)) == F(9, 4)

    def test_invert(self):
        # 1/(1+i) = (1-i)/2
        assert invert(G(1, 1)) == G(F(1, 2), F(-1, 2))
        assert invert(F(2)) == F(1, 2)
        with pytest.raises(ZeroDivisionError):
            invert(G(0))

    def test_mixed_equality_and_hash(self):
        assert G(3) == F(3) == 3
        assert hash(G(3)) == hash(F(3)) == hash(3)
        assert G(3, 1) != F(3)
        # real-embedded values collapse to one dict key
        assert len({G(3): "a", F(3): "b"}) == 1

    def test_no_ordering(self):
        with pytest.raises(TypeError):
            G(1, 1) < 2  # noqa: B015

    def test_real_imag_access(self):
        assert real_part(G(F(1, 2), F(3, 4))) == F(1, 2)
        assert imag_part(G(F(1, 2), F(3, 4))) == F(3, 4)
        assert imag_part(F(5)) == 0
        assert as_real(G(2)) == F(2)
        with pytest.raises(ValueError):
            as_real(G(0, 1))

    def test_int_and_fraction_mix(self):
        assert 2 * G(1, 1) == G(2, 2)
        assert G(1, 1) + 1 == G(2, 1)
        assert F(1, 2) * G(2, 4) == G(1, 2)


class FractionPair:
    """Q[i] as a pair of Fractions: the arithmetic GaussianRational must match."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return FractionPair(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return FractionPair(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return FractionPair(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __neg__(self):
        return FractionPair(-self.re, -self.im)

    def conjugate(self):
        return FractionPair(self.re, -self.im)

    def abs2(self):
        return self.re * self.re + self.im * self.im

    def invert(self):
        n = self.abs2()
        return FractionPair(self.re / n, -self.im / n)

    def __truediv__(self, o):
        return self * o.invert()


# small heights, and parts as large as 2**200
BIG = 2**200
lattice_parts = st.one_of(
    rationals,
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)


def assert_same(got, want: FractionPair):
    assert isinstance(got, GaussianRational)
    assert got.d > 0 and math.gcd(got.a, got.b, got.d) == 1
    assert (got.re, got.im) == (want.re, want.im)
    assert type(got.re) is Fraction and type(got.im) is Fraction


class TestLatticeAgainstFractionPair:
    @given(lattice_parts, lattice_parts, lattice_parts, lattice_parts)
    def test_arithmetic(self, p, q, r, s):
        a, b = G(p, q), G(r, s)
        ra, rb = FractionPair(p, q), FractionPair(r, s)
        assert_same(a + b, ra + rb)
        assert_same(a - b, ra - rb)
        assert_same(a * b, ra * rb)
        assert_same(-a, -ra)
        assert_same(conjugate(a), ra.conjugate())
        assert abs2(a) == ra.abs2() and type(abs2(a)) is Fraction
        assert (real_part(a), imag_part(a)) == (p, q)
        # one operand an int or a Fraction, on either side
        rr = FractionPair(r)
        assert_same(a + r, ra + rr)
        assert_same(r - a, rr - ra)
        assert_same(r * a, rr * ra)
        assert_same(a * 3, ra * FractionPair(3))
        if b:
            assert_same(a / b, ra / rb)
        if r:
            assert_same(a / r, ra / rr)
        if a:
            assert_same(invert(a), ra.invert())
            assert_same(r / a, rr / ra)
        assert (a == b) == ((p, q) == (r, s))
        assert parse_scalar(str(a), FieldTag.QI) == a

    @given(lattice_parts, lattice_parts)
    def test_real_values_agree_with_fraction_and_int(self, p, q):
        assert G(p) == p and p == G(p) and hash(G(p)) == hash(p)
        n = p.numerator
        assert G(n) == n and hash(G(n)) == hash(n) == hash(F(n))
        assert (G(p, q) == p) == (q == 0)
        # a real value reached by arithmetic is the same dict key as its Fraction
        a = G(p, q)
        assert len({a * conjugate(a): 0, abs2(a): 1}) == 1

    @given(st.lists(st.tuples(*[lattice_parts] * 4), min_size=1, max_size=8))
    def test_vector_key_order(self, rows):
        vs = [Vector((G(p, q), G(r, s))) for p, q, r, s in rows]
        keys = [((p, q), (r, s)) for p, q, r, s in rows]
        assert [vector_key(v) for v in vs] == keys
        by_reference = sorted(range(len(vs)), key=keys.__getitem__)
        assert sorted(vs, key=vector_key) == [vs[k] for k in by_reference]


def test_gaussian_arithmetic_builds_no_fraction(monkeypatch):
    a, b = G(F(1, 2), F(-3, 4)), G(F(5, 6), 7)
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    results = [a + b, a - b, a * b, -a, a.conjugate(), conjugate(a), a == b, a == a]
    assert built == [] and results[-2:] == [False, True]
    re = a.re  # the boundary still builds one
    assert len(built) == 1 and re == F(1, 2)


class TestFieldTagging:
    def test_make_scalar(self):
        assert make_scalar(FieldTag.Q, 3) == F(3)
        assert isinstance(make_scalar(FieldTag.Q, 3), Fraction)
        assert make_scalar(FieldTag.QI, F(1, 2)) == G(F(1, 2))
        assert isinstance(make_scalar(FieldTag.QI, 3), GaussianRational)

    def test_q_rejects_gaussians(self):
        with pytest.raises(ValueError):
            make_scalar(FieldTag.Q, G(1, 1))
        # even a real-embedded Gaussian: the fields never mix
        with pytest.raises(ValueError):
            make_scalar(FieldTag.Q, G(3))

    def test_is_zero(self):
        assert is_zero(F(0)) and is_zero(G(0))
        assert not is_zero(G(0, 1))


class TestTextForms:
    def test_parse_rational(self):
        assert parse_rational("-3/4") == F(-3, 4)
        assert parse_rational(" 5 ") == F(5)

    @pytest.mark.parametrize("bad", ["0.5", "1e3", "", "3/0", "1/2/3", "i5"])
    def test_parse_rational_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @pytest.mark.parametrize(
        "text,value",
        [
            ("3", G(3)),
            ("-3/4", G(F(-3, 4))),
            ("i", G(0, 1)),
            ("-i", G(0, -1)),
            ("2*i", G(0, 2)),
            ("-1/2*i", G(0, F(-1, 2))),
            ("1+i", G(1, 1)),
            ("1-i", G(1, -1)),
            ("1/2+1/3*i", G(F(1, 2), F(1, 3))),
            ("-2-5/7*i", G(-2, F(-5, 7))),
        ],
    )
    def test_parse_gaussian(self, text, value):
        assert parse_scalar(text, FieldTag.QI) == value

    def test_parse_q_rejects_imaginary(self):
        with pytest.raises(ValueError):
            parse_scalar("1+i", FieldTag.Q)
        assert parse_scalar("-7/2", FieldTag.Q) == F(-7, 2)

    @pytest.mark.parametrize(
        "value,text",
        [
            (G(3), "3"),
            (G(0, 1), "i"),
            (G(0, -1), "-i"),
            (G(0, F(2, 3)), "2/3*i"),
            (G(1, 1), "1+i"),
            (G(F(1, 2), F(-1, 3)), "1/2-1/3*i"),
            (F(-3, 4), "-3/4"),
        ],
    )
    def test_format(self, value, text):
        assert format_scalar(value) == text

    @given(gaussians)
    def test_gaussian_text_round_trip(self, a):
        assert parse_scalar(format_scalar(a), FieldTag.QI) == a

    @given(rationals)
    def test_rational_text_round_trip(self, q):
        assert parse_scalar(format_scalar(q), FieldTag.Q) == q


class TestFieldLaws:
    @given(gaussians, gaussians, gaussians)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @given(gaussians, gaussians)
    def test_conjugation_is_multiplicative(self, a, b):
        assert conjugate(a * b) == conjugate(a) * conjugate(b)
        assert abs2(a * b) == abs2(a) * abs2(b)
        assert conjugate(conjugate(a)) == a

    @given(gaussians)
    def test_multiplicative_inverse(self, a):
        if not is_zero(a):
            assert a * invert(a) == G(1)

    @given(gaussians)
    def test_abs2_is_norm(self, a):
        assert abs2(a) >= 0
        assert (abs2(a) == 0) == is_zero(a)
        assert abs2(a) == as_real(a * conjugate(a))


class TestLeqSqrtProduct:
    # c <= sqrt(s1*s2) decided without ever taking a root
    @pytest.mark.parametrize(
        "c,s1,s2,expected",
        [
            (F(1), F(5), F(10), True),   # 1 <= sqrt(50)
            (F(7), F(5), F(10), True),   # 49 <= 50
            (F(8), F(5), F(10), False),  # 64 > 50
            (F(-3), F(0), F(0), True),   # nonpositive left side
            (F(0), F(0), F(0), True),
            (F(7, 2), F(49, 8), F(2), True),  # 49/4 = 49/4 boundary
        ],
    )
    def test_oracles(self, c, s1, s2, expected):
        assert leq_sqrt_product(c, s1, s2) is expected

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            leq_sqrt_product(F(1), F(-1), F(4))

    @given(
        st.fractions(min_value=-30, max_value=30, max_denominator=20),
        st.fractions(min_value=0, max_value=30, max_denominator=20),
        st.fractions(min_value=0, max_value=30, max_denominator=20),
    )
    def test_against_float_sqrt(self, c, s1, s2):
        got = leq_sqrt_product(c, s1, s2)
        gap = float(c) - math.sqrt(float(s1 * s2))
        # only trust floats away from the boundary
        if gap < -1e-9:
            assert got is True
        elif gap > 1e-9:
            assert got is False
