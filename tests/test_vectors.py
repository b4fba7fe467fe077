"""Vector container: construction rules, arithmetic, text forms."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hypervec.inner import DotProduct, WeightedDot, norm_sq, pairing
from hypervec.models import GeometricRay, _ray_exponent, _solve_power, finite
from hypervec.scalars import FieldTag, GaussianRational, format_scalar
from hypervec.vectors import (
    Vector,
    make_vector,
    parse_vector,
    sorted_vectors,
    unit_vector,
    vector_key,
    zero_vector,
)

F = Fraction
G = GaussianRational

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
vectors2 = st.builds(
    lambda a, b: make_vector(FieldTag.Q, [a, b]), rationals, rationals
)


def test_construction_and_accessors():
    v = make_vector(FieldTag.Q, [1, F(2, 3)])
    assert v.dim == 2
    assert v.coords == (F(1), F(2, 3))
    assert not v.is_zero
    assert zero_vector(FieldTag.Q, 3).is_zero
    assert unit_vector(FieldTag.Q, 2).coords == (F(1), F(0))


def test_empty_rejected():
    with pytest.raises(ValueError):
        Vector(())


def test_unit_vector_needs_a_coordinate():
    with pytest.raises(ValueError):
        unit_vector(FieldTag.Q, 0)


def test_field_mix_rejected():
    with pytest.raises(ValueError):
        make_vector(FieldTag.Q, [G(1, 1), 0])


def test_arithmetic_oracles():
    x = make_vector(FieldTag.Q, [1, 2])
    y = make_vector(FieldTag.Q, [3, -1])
    assert (x + y).coords == (F(4), F(1))
    assert (x - y).coords == (F(-2), F(3))
    assert (-x).coords == (F(-1), F(-2))
    assert x.scaled(F(3)).coords == (F(3), F(6))
    assert x.scaled(G(0, 1)).coords == (G(0, 1), G(0, 2))


def test_dimension_mismatch():
    x = make_vector(FieldTag.Q, [1, 2])
    z = make_vector(FieldTag.Q, [1, 2, 3])
    with pytest.raises(ValueError):
        x + z


def test_str_form():
    assert str(make_vector(FieldTag.Q, [3, 6])) == "(3, 6)"
    assert str(make_vector(FieldTag.QI, [G(1, 1), 0])) == "(1+i, 0)"


@pytest.mark.parametrize(
    "text,coords",
    [
        ("(1, 2)", (F(1), F(2))),
        ("(1,2)", (F(1), F(2))),
        ("( -1/2 , 3 )", (F(-1, 2), F(3))),
        ("(5)", (F(5),)),
    ],
)
def test_parse_vector(text, coords):
    assert parse_vector(text, FieldTag.Q).coords == coords


def test_parse_vector_gaussian():
    v = parse_vector("(1+i, -i)", FieldTag.QI)
    assert v.coords == (G(1, 1), G(0, -1))


@pytest.mark.parametrize("bad", ["", "1, 2", "(1, 2", "(1,, 2)", "()", "(0.5)"])
def test_parse_vector_rejects(bad):
    with pytest.raises(ValueError):
        parse_vector(bad, FieldTag.Q)


def test_round_trip_via_str():
    v = make_vector(FieldTag.QI, [G(F(1, 2), -1), G(0, F(2, 3))])
    assert parse_vector(str(v), FieldTag.QI) == v


def test_vector_key_orders_lexicographically():
    a = make_vector(FieldTag.Q, [1, 5])
    b = make_vector(FieldTag.Q, [2, 0])
    assert vector_key(a) < vector_key(b)


@given(vectors2, vectors2, vectors2)
def test_abelian_group_laws(x, y, z):
    zero = zero_vector(FieldTag.Q, 2)
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x + zero == x
    assert x + (-x) == zero


@st.composite
def scaling_cases(draw):
    """Two vectors of dim 2 and two scalars, all of one field: Q or Q[i]."""
    field = draw(st.sampled_from([FieldTag.Q, FieldTag.QI]))
    scalars = rationals if field is FieldTag.Q else st.builds(G, rationals, rationals)
    coords = st.lists(scalars, min_size=2, max_size=2)
    x, y = make_vector(field, draw(coords)), make_vector(field, draw(coords))
    return x, y, draw(scalars), draw(scalars)


@given(scaling_cases())
def test_scaling_laws(case):
    # the identities the (2, 2) law builder reads its classical values by
    x, y, a, b = case
    assert x.scaled(a).scaled(b) == x.scaled(a * b)
    assert x.scaled(a) + x.scaled(b) == x.scaled(a + b)
    assert (x + y).scaled(a) == x.scaled(a) + y.scaled(a)
    assert x.scaled(F(1)) == x
    assert x.scaled(1) == x


# --- the lattice form against a Fraction-tuple reference --------------------
#
# A reference vector is (field, ((re, im), ...)): one pair of Fractions per
# coordinate, im zero over Q. Every operation below is computed on the pairs
# coordinate by coordinate and compared with the lattice Vector.

BIG = 2**200
parts = st.one_of(
    rationals,
    st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG)),
)
fields = st.sampled_from([FieldTag.Q, FieldTag.QI])
dims = st.integers(1, 4)


@st.composite
def references(draw, field, dim):
    re = draw(st.lists(parts, min_size=dim, max_size=dim))
    im = draw(st.lists(parts, min_size=dim, max_size=dim)) if field is FieldTag.QI else [F(0)] * dim
    return field, tuple(zip(re, im))


@st.composite
def reference_lists(draw, min_size=1, max_size=4):
    """References of one field and dimension."""
    field, dim = draw(fields), draw(dims)
    return draw(st.lists(references(field, dim), min_size=min_size, max_size=max_size))


def ref_coords(ref):
    field, pairs = ref
    if field is FieldTag.Q:
        return tuple(re for re, _ in pairs)
    return tuple(G(re, im) for re, im in pairs)


def lattice(ref) -> Vector:
    return Vector(ref_coords(ref))


def assert_same(v: Vector, ref):
    field, pairs = ref
    assert v.den > 0 and math.gcd(v.den, *v.nums, *(v.ims or ())) == 1
    assert (v.ims is None) == (field is FieldTag.Q)
    assert vector_key(v) == pairs
    coords = v.coords
    assert coords == ref_coords(ref)
    assert {type(c) for c in coords} == {F if field is FieldTag.Q else G}


def ref_add(x, y, sign=1):
    field = FieldTag.QI if FieldTag.QI in (x[0], y[0]) else FieldTag.Q
    return field, tuple((a + sign * c, b + sign * d) for (a, b), (c, d) in zip(x[1], y[1]))


def ref_scaled(x, re, im=None):
    """x scaled by re + im*i; im None for a Fraction scalar."""
    if im is None:
        return x[0], tuple((re * a, re * b) for a, b in x[1])
    return FieldTag.QI, tuple((a * re - b * im, a * im + b * re) for a, b in x[1])


def ref_pairing(weights, x, y):
    """sum w * x_i * conj(y_i), as (re, im)."""
    re = sum(w * (a * c + b * d) for w, (a, b), (c, d) in zip(weights, x[1], y[1]))
    im = sum(w * (b * c - a * d) for w, (a, b), (c, d) in zip(weights, x[1], y[1]))
    return re, im


def ref_ray_exponent(base, ratio, v):
    """The coordinate-wise test: every quotient v_i/base_i is one positive rational."""
    t = None
    for (br, bi), (cr, ci) in zip(base[1], v[1]):
        if br == bi == 0:
            if cr or ci:
                return None
            continue
        n = br * br + bi * bi
        qr, qi = (cr * br + ci * bi) / n, (ci * br - cr * bi) / n
        if qi != 0 or qr <= 0 or t not in (None, qr):
            return None
        t = qr
    return _solve_power(t, ratio)


class TestLatticeAgainstFractionTuples:
    @given(fields, dims, st.data())
    def test_arithmetic(self, field, dim, data):
        x, y = data.draw(references(field, dim)), data.draw(references(field, dim))
        lx, ly = lattice(x), lattice(y)
        assert_same(lx, x)
        assert_same(lx + ly, ref_add(x, y))
        assert_same(lx - ly, ref_add(x, y, -1))
        assert_same(lx - lx, ref_scaled(x, F(0)))
        assert_same(-lx, ref_scaled(x, F(-1)))
        a, b = data.draw(parts), data.draw(parts)
        assert_same(lx.scaled(a), ref_scaled(x, a))
        assert_same(lx.scaled(a.numerator), ref_scaled(x, F(a.numerator)))
        # a Gaussian scalar promotes a Q vector to Q[i]
        assert_same(lx.scaled(G(a, b)), ref_scaled(x, a, b))
        # the two fields meet in a sum
        qi = (FieldTag.QI, y[1])
        assert_same(lx + lattice(qi), ref_add(x, qi))

    @given(fields, dims, st.data())
    def test_equality_hash_and_text(self, field, dim, data):
        x, y = data.draw(references(field, dim)), data.draw(references(field, dim))
        lx, ly = lattice(x), lattice(y)
        assert (lx == ly) == (x[1] == y[1])
        assert lx == lattice(x) and hash(lx) == hash(lattice(x))
        # a real-valued Q[i] vector equals, and hashes like, the equal Q vector
        real = tuple((re, F(0)) for re, _ in x[1])
        q, qi = lattice((FieldTag.Q, real)), lattice((FieldTag.QI, real))
        assert q == qi and qi == q and hash(q) == hash(qi) and len({q: 0, qi: 1}) == 1
        assert (lx == q) == (x[1] == real)
        text = str(lx)
        assert text == "(" + ", ".join(format_scalar(c) for c in ref_coords(x)) + ")"
        assert parse_vector(text, field) == lx
        assert_same(parse_vector(text, field), x)

    @given(reference_lists(max_size=6), st.data())
    def test_finite_order(self, refs, data):
        # repeats, so that deduplication is exercised
        refs = refs + data.draw(st.lists(st.sampled_from(refs), max_size=3))
        vs = [lattice(r) for r in refs]
        elements = finite(vs).elements
        assert [vector_key(v) for v in elements] == sorted({pairs for _, pairs in refs})
        assert list(elements) == sorted(set(vs), key=vector_key)

    @given(fields, fields, dims, st.integers(1, 12), st.data())
    def test_two_vector_order(self, field_u, field_v, dim, den, data):
        # the pair path of sorted_vectors against the keyed sort: the same
        # vector, its real part in either field (equal to it over Q), a
        # neighbour over another denominator, and an unrelated vector
        ref = data.draw(references(field_u, dim))
        u = lattice(ref)
        i = data.draw(st.integers(0, dim - 1))
        nudge = tuple((re + F(j == i, den), im) for j, (re, im) in enumerate(ref[1]))
        v = data.draw(
            st.sampled_from(
                [
                    lattice(ref),
                    lattice((field_v, tuple((re, F(0)) for re, _ in ref[1]))),
                    lattice((field_u, nudge)),
                    lattice(data.draw(references(field_v, dim))),
                ]
            )
        )
        for pair in ([u, v], [v, u]):
            got = sorted_vectors(pair)
            expected = tuple(sorted(set(pair), key=vector_key))
            assert len(got) == len(expected)
            assert all(g is e for g, e in zip(got, expected))

    @given(fields, dims, st.data())
    def test_ray_exponent(self, field, dim, data):
        base = data.draw(references(field, dim).filter(lambda r: any(map(any, r[1]))))
        ratio = data.draw(st.sampled_from([F(1, 2), F(2), F(3, 5), F(7)]))
        k = data.draw(st.integers(0, 6))
        member = ref_scaled(base, ratio**k)
        candidates = [
            member,
            ref_scaled(base, data.draw(parts)),
            data.draw(references(field, dim)),
            # one coordinate moved off the ray
            (field, ((member[1][0][0] + 1, member[1][0][1]),) + member[1][1:]),
        ]
        s = GeometricRay(lattice(base), ratio)
        assert _ray_exponent(s, lattice(member)) == k
        for v in candidates:
            assert _ray_exponent(s, lattice(v)) == ref_ray_exponent(base, ratio, v)

    @given(fields, dims, st.booleans(), st.data())
    def test_pairing_and_norm_sq(self, field, dim, weighted, data):
        x, y = data.draw(references(field, dim)), data.draw(references(field, dim))
        if weighted:
            weights = data.draw(st.lists(parts.filter(lambda w: w > 0), min_size=dim, max_size=dim))
            ip = WeightedDot(tuple(weights))
        else:
            weights, ip = [F(1)] * dim, DotProduct()
        got = pairing(ip, lattice(x), lattice(y))
        re, im = ref_pairing(weights, x, y)
        if field is FieldTag.Q:
            assert type(got) is F and got == re and im == 0
        else:
            assert type(got) is G and (got.re, got.im) == (re, im)
        nsq = norm_sq(ip, lattice(x))
        assert type(nsq) is F and nsq == ref_pairing(weights, x, x)[0]


def test_vector_arithmetic_builds_no_fraction(monkeypatch):
    x = make_vector(FieldTag.Q, [F(1, 2), F(-3, 4), 5])
    y = make_vector(FieldTag.Q, [F(5, 6), 7, F(1, 3)])
    z = make_vector(FieldTag.QI, [G(F(1, 2), -1), 0, G(0, F(2, 3))])
    a, b = F(-2, 9), G(F(1, 3), 2)
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    results = [
        x + y, x - y, -x, x.scaled(a), x.scaled(b), x.scaled(3), x + z, z - z, -z,
        z.scaled(a), z.scaled(b), x == y, x == x, z == z, x == z, hash(x), hash(z),
    ]
    assert built == [] and results[11:15] == [False, True, True, False]
    coords = x.coords  # the boundary still builds them
    assert len(built) == 3 and coords == (F(1, 2), F(-3, 4), F(5))
