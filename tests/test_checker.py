"""Deterministic sampling, report assembly, and JSON rendering."""

import contextlib
import io
import itertools
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hypervec.checker import (
    CheckItem,
    CheckReport,
    ItemCheck,
    MAX_SAMPLES,
    MAX_WITNESSES,
    SUITES,
    SUITE_NAMES,
    SampleConfig,
    SplitMix64,
    Unbounded,
    Witness,
    forced_scalars,
    forced_vectors,
    plan_run,
    render_json,
    report_document,
    roll_up,
    run_pass,
    run_suites,
    sample_stream,
    summary_item,
    vacuous_report,
)
from hypervec import checker, essential, inner, models
from hypervec.cli import main
from hypervec.essential import check_lemma_basic, check_strong_normal, essential_points
from hypervec.inner import DotProduct, SupResult, check_hip_axioms
from hypervec.models import (
    Geometric,
    ModelSpec,
    Sign,
    Trivial,
    ZeroAugmented,
    check_wvs_axioms,
    finite,
    ray,
)
from hypervec.scalars import FieldTag, GaussianRational, format_scalar
from hypervec.vectors import Vector, make_vector

F = Fraction


class TestSplitMix64:
    def test_reference_vector_seed_zero(self):
        # first outputs of the public-domain reference implementation
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(4)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
        ]

    def test_determinism_and_seed_sensitivity(self):
        a = [SplitMix64(42).next_u64() for _ in range(8)]
        b = [SplitMix64(42).next_u64() for _ in range(8)]
        c = [SplitMix64(43).next_u64() for _ in range(8)]
        assert a == b != c

    def test_below(self):
        rng = SplitMix64(7)
        draws = [rng.below(10) for _ in range(100)]
        assert all(0 <= d < 10 for d in draws)
        with pytest.raises(ValueError):
            rng.below(0)

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


class TestSplitMixBlock:
    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            st.integers(0, (1 << 64) - 1),
            st.integers((1 << 64) - (1 << 16), (1 << 64) - 1),  # the state wraps
        ),
        st.integers(0, 3 * checker._BLOCK),
    )
    def test_block_is_splitmix64_one_output_at_a_time(self, seed, n):
        rng = SplitMix64(seed)
        outputs, state = checker._splitmix_block(seed, n)
        assert list(outputs) == [rng.next_u64() for _ in range(n)]
        assert state == rng._state
        # the lanes, packed and read back, against pure ints
        z = checker._pack(list(outputs))
        assert z == sum(w << 64 * i for i, w in enumerate(outputs))
        assert checker._unpack(z, n) == outputs
        ones, steps, mask = checker._lanes(n)
        assert ones == sum(1 << 128 * k for k in range(n))
        assert mask == sum(((1 << 64) - 1) << 128 * k for k in range(n))
        gamma = 0x9E3779B97F4A7C15
        assert steps == sum(((k + 1) * gamma % (1 << 64)) << 128 * k for k in range(n))


class TestSampleConfig:
    def test_defaults(self):
        cfg = SampleConfig()
        assert (cfg.seed, cfg.samples, cfg.height) == (42, 500, 10)
        assert not hasattr(cfg, "depth")  # no report depends on it

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1},
            {"seed": 1 << 64},
            {"samples": 0},
            {"height": 0},
            {"samples": MAX_SAMPLES + 1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SampleConfig(**kwargs)

    @pytest.mark.parametrize("name", ["seed", "samples", "height"])
    @pytest.mark.parametrize("value", [2.5, True, "7"])
    def test_refuses_what_is_not_an_int(self, name, value):
        # argparse and the parser give ints only; a caller of the API can
        # give anything, and a bool is no count
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            SampleConfig(**{name: value})


class TestSampleStream:
    def test_exact_count_and_determinism(self):
        cfg = SampleConfig(samples=50)
        a = list(sample_stream(cfg, FieldTag.Q, 2, 1, 1))
        b = list(sample_stream(cfg, FieldTag.Q, 2, 1, 1))
        assert len(a) == 50
        assert a == b

    def test_forced_prefix_comes_first(self):
        cfg = SampleConfig(samples=30)
        tuples = list(sample_stream(cfg, FieldTag.Q, 2, 1, 1))
        scalars = forced_scalars(FieldTag.Q)
        vectors = forced_vectors(FieldTag.Q, 2)
        expected = [(s, v) for s in scalars for v in vectors]
        assert tuples[: len(expected)] == expected

    def test_forced_prefix_truncated_when_samples_small(self):
        cfg = SampleConfig(samples=4)
        tuples = list(sample_stream(cfg, FieldTag.Q, 2, 1, 1))
        assert len(tuples) == 4

    def test_qi_prefix_includes_one_plus_i(self):
        cfg = SampleConfig(samples=40)
        tuples = list(sample_stream(cfg, FieldTag.QI, 1, 1, 1))
        assert GaussianRational(1, 1) in {t[0] for t in tuples}

    def test_tail_respects_height(self):
        cfg = SampleConfig(samples=300, height=4)
        for tup in sample_stream(cfg, FieldTag.Q, 2, 1, 1):
            a, v = tup
            for q in (a, *v.coords):
                assert abs(q.numerator) <= 4 * q.denominator or abs(q) <= 4

    def test_shape(self):
        cfg = SampleConfig(samples=10)
        for tup in sample_stream(cfg, FieldTag.Q, 3, 2, 2):
            assert len(tup) == 4
            assert isinstance(tup[0], Fraction) and isinstance(tup[1], Fraction)
            assert tup[2].dim == 3 and tup[3].dim == 3

    def test_forced_prefix_is_the_product_in_order(self):
        # the last slot turns fastest, as in nested loops
        cfg = SampleConfig(samples=500)
        scalars = forced_scalars(FieldTag.QI)
        vectors = forced_vectors(FieldTag.QI, 2)
        expected = [
            (a, b, x, y) for a in scalars for b in scalars for x in vectors for y in vectors
        ]
        tuples = list(sample_stream(cfg, FieldTag.QI, 2, 2, 2))
        assert tuples[: len(expected)] == expected
        assert tuples[len(expected)] not in expected

    def test_scalars_only(self):
        cfg = SampleConfig(samples=12)
        tuples = list(sample_stream(cfg, FieldTag.Q, 2, 2, 0))
        assert len(tuples) == 12
        assert all(len(t) == 2 for t in tuples)


def reference_stream(cfg, field, dim, n_scalars, n_vectors):
    """sample_stream built value by value: the forced prefix, then
    SplitMix64.below for each numerator and denominator."""
    slots = [forced_scalars(field)] * n_scalars + [forced_vectors(field, dim)] * n_vectors
    rows = list(itertools.islice(itertools.product(*slots), cfg.samples)) if slots else []
    rng, h = SplitMix64(cfg.seed), cfg.height

    def ratio():
        num = rng.below(2 * h + 1) - h
        return F(num, rng.below(h) + 1)

    def scalar():
        return ratio() if field is FieldTag.Q else GaussianRational(ratio(), ratio())

    while len(rows) < cfg.samples:
        scalars = [scalar() for _ in range(n_scalars)]
        rows.append(tuple(scalars + [Vector([scalar() for _ in range(dim)]) for _ in range(n_vectors)]))
    return rows


def typed(value):
    """A value with its type, and a vector with its stored form."""
    if isinstance(value, Vector):
        return Vector, value.nums, value.ims, value.den
    return type(value), value


class TestSampleStreamMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([FieldTag.Q, FieldTag.QI]),
        # at dim 64 one chunk of tuples spans several blocks of the draw
        st.sampled_from([1, 2, 3, 4, 64]),
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(0, (1 << 64) - 1),
        st.integers(1, 120),
        st.one_of(st.integers(1, 20), st.integers(1, 1 << 80)),
    )
    def test_values_and_types(self, field, dim, n_scalars, n_vectors, seed, samples, height):
        cfg = SampleConfig(seed=seed, samples=samples, height=height)
        got = list(sample_stream(cfg, field, dim, n_scalars, n_vectors))
        expected = reference_stream(cfg, field, dim, n_scalars, n_vectors)
        assert [tuple(map(typed, row)) for row in got] == [
            tuple(map(typed, row)) for row in expected
        ]


def w(tag):
    return Witness({"k": tag}, "broken")


# (binding, relation) of a witness; few values, so that they repeat
TAGGED = st.tuples(st.integers(0, 7), st.sampled_from(["r1", "r2"]))


class TestSampledValuesAreNotAdmitted:
    @pytest.mark.parametrize("family", [Geometric(F(1, 2)), Sign()], ids=str)
    def test_suites_admit_no_vector(self, family, fast_cfg, monkeypatch):
        # sample_stream builds every value in the model's field and
        # dimension, so nothing on the sampled path admits it again
        calls = []
        admit = ModelSpec.admit_vector
        monkeypatch.setattr(
            ModelSpec, "admit_vector", lambda self, x: calls.append(x) or admit(self, x)
        )
        model = ModelSpec(FieldTag.Q, 2, family)
        check_wvs_axioms(model, fast_cfg)
        check_lemma_basic(model, fast_cfg, check_strong_normal(model, fast_cfg))
        check_hip_axioms(model, DotProduct(), fast_cfg)
        assert len(calls) == 0


class TestItemCheck:
    def test_pass(self):
        c = ItemCheck("x", "anchor")
        c.sample([])
        item = c.finish()
        assert (item.status, item.samples, item.witnesses) == ("pass", 1, [])

    def test_fail_collects_witnesses(self):
        c = ItemCheck("x", "anchor")
        c.sample([w("a")])
        c.sample([])
        item = c.finish()
        assert item.status == "fail"
        assert item.samples == 2
        assert [x.bindings["k"] for x in item.witnesses] == ["a"]

    def test_witness_cap_and_dedup(self):
        c = ItemCheck("x", "anchor")
        for i in range(10):
            c.sample([w(str(i))])
            c.sample([w(str(i))])  # duplicate; must not crowd the list
        item = c.finish()
        assert len(item.witnesses) == MAX_WITNESSES
        assert [x.bindings["k"] for x in item.witnesses] == ["0", "1", "2", "3", "4"]

    def test_zero_samples_is_vacuous(self):
        assert ItemCheck("x", "a").finish().status == "vacuous"

    def test_unbounded_beats_everything(self):
        c = ItemCheck("x", "a")
        c.sample([w("f")])
        c.sample(Unbounded({"k": "u"}, "grows"))
        item = c.finish()
        assert item.status == "unbounded"
        assert [x.bindings["k"] for x in item.witnesses] == ["u"]

    def test_renders_only_witnesses_it_can_keep(self):
        rendered = []

        class Value:
            def __init__(self, tag):
                self.tag = tag

            def __str__(self):
                rendered.append(self.tag)
                return self.tag

        c = ItemCheck("x", "a")
        for i in range(3 * MAX_WITNESSES):
            c.sample([Witness({"k": Value(f"w{i}")}, "broken")])
        # a full ordinary kind leaves the unbounded kind rendering
        c.sample(Unbounded({"k": Value("u")}, "grows"))
        assert rendered == [f"w{i}" for i in range(MAX_WITNESSES)] + ["u"]
        item = c.finish()
        assert [x.bindings["k"] for x in item.witnesses] == ["u"]
        assert len(rendered) == MAX_WITNESSES + 1  # read again, not rendered again

    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("sample"), st.lists(TAGGED, max_size=3)),
                st.tuples(st.just("unbounded"), st.lists(TAGGED, min_size=1, max_size=1)),
            ),
            max_size=40,
        )
    )
    def test_keeps_what_eager_rendering_kept(self, events):
        # the bookkeeping before rendering was deferred: every witness
        # rendered, and one deduplication set for both kinds; as in every
        # suite, no unbounded relation is also an ordinary one
        seen, kept = set(), {"sample": [], "unbounded": []}
        c = ItemCheck("x", "a")
        for kind, tags in events:
            if kind == "sample":
                batch = [Witness({"k": k}, rel) for k, rel in tags]
                c.sample(batch)
            else:
                batch = [Unbounded({"k": k}, "grows " + rel) for k, rel in tags]
                c.sample(batch[0])
            for witness in batch:
                key = (tuple(sorted(witness.bindings.items())), witness.relation)
                if key not in seen:
                    seen.add(key)
                    kept[kind].append(witness.to_json())
        item = c.finish()
        if kept["unbounded"]:
            expected = ("unbounded", kept["unbounded"][:MAX_WITNESSES])
        elif not events:
            expected = ("vacuous", [])
        else:
            expected = ("fail" if kept["sample"] else "pass", kept["sample"][:MAX_WITNESSES])
        assert (item.status, [x.to_json() for x in item.witnesses]) == expected
        assert item.samples == len(events)


ROWS = (("a", "law a"), ("b", "law b"))
SMALL = SampleConfig(samples=20)
PLANE = ModelSpec(FieldTag.Q, 2, Trivial())


def laws_report(body):
    """run_pass over ROWS of suite s on one scalar and one vector per sample."""
    (items,) = run_pass(PLANE, SMALL, (1, 1), {"s": ROWS}, body).values()
    return CheckReport(PLANE.describe(), "s", items)


class TestRunLaws:
    def test_falsy_outcomes_pass(self):
        def body(a, x):
            yield ("s", "a"), False
            yield ("s", "a"), None
            yield ("s", "b"), []

        report = laws_report(body)
        assert (report.model, report.suite) == (PLANE.describe(), "s")
        assert [(i.id, i.anchor) for i in report.items] == list(ROWS)
        assert [(i.status, i.samples) for i in report.items] == [("pass", 40), ("pass", 20)]

    def test_single_witness_fails(self):
        def body(a, x):
            yield ("s", "a"), x.is_zero and Witness({"a": a, "x": x}, "zero vector")
            yield ("s", "b"), False

        a, b = laws_report(body).items
        assert (a.status, a.samples, b.status) == ("fail", 20, "pass")
        assert [w.to_json() for w in a.witnesses] == [
            {"bindings": {"a": "0", "x": "(0, 0)"}, "relation": "zero vector"},
            {"bindings": {"a": "1", "x": "(0, 0)"}, "relation": "zero vector"},
            {"bindings": {"a": "-1", "x": "(0, 0)"}, "relation": "zero vector"},
        ]

    def test_witness_list_fails_with_each(self):
        def body(a, x):
            yield ("s", "a"), [Witness({"k": k}, "listed") for k in range(3) if a == 1]
            yield ("s", "b"), []

        a, b = laws_report(body).items
        assert (a.status, a.samples, b.status) == ("fail", 20, "pass")
        assert [w.bindings["k"] for w in a.witnesses] == ["0", "1", "2"]

    def test_unbounded_outcome_marks_unbounded(self):
        def body(a, x):
            yield ("s", "a"), a == -1 and Unbounded({"a": a}, "grows")
            yield ("s", "b"), Witness({"a": a}, "broken")

        a, b = laws_report(body).items
        assert (a.status, a.samples) == ("unbounded", 20)
        assert [w.to_json() for w in a.witnesses] == [
            {"bindings": {"a": "-1"}, "relation": "grows"}
        ]
        assert (b.status, b.samples) == ("fail", 20)

    def test_unyielded_law_is_not_sampled(self):
        def body(a, x):
            if a != 0:
                yield ("s", "a"), False

        a, b = laws_report(body).items
        assert a.status == "pass" and 0 < a.samples < 20
        assert (b.status, b.samples, b.witnesses) == ("vacuous", 0, [])

    def test_bindings_render_as_text_forms(self):
        v = make_vector(FieldTag.Q, [1, F(-1, 2)])
        pair = finite([make_vector(FieldTag.Q, [1, 0]), make_vector(FieldTag.Q, [-1, 0])])
        rising = ray(make_vector(FieldTag.Q, [6, 0]), F(1, 2))
        ess = essential_points(
            ModelSpec(FieldTag.Q, 2, ZeroAugmented()), 3, make_vector(FieldTag.Q, [1, 2])
        )
        q, g = F(-3, 4), GaussianRational(F(1, 2), F(-1, 3))
        witness = Witness(
            {"v": v, "pair": pair, "ray": rising, "E": ess, "q": q, "g": g}, "r"
        )
        assert witness.bindings == {
            "v": "(1, -1/2)",
            "pair": "{(-1, 0), (1, 0)}",
            "ray": "{(6, 0)*(1/2)^k : k >= 0}",
            "E": "{(3, 6)}",
            "q": "-3/4",
            "g": "1/2-1/3*i",
        }
        assert witness.bindings["pair"] == str(pair)
        assert witness.bindings["ray"] == str(rising)
        assert witness.bindings["q"] == format_scalar(q)
        assert witness.bindings["g"] == format_scalar(g)


class TestReports:
    def test_vacuous_report(self):
        rep = vacuous_report("m", "hip", [("a", "anchor a"), ("b", "anchor b")])
        assert rep.suite == "hip"
        assert [i.status for i in rep.items] == ["vacuous", "vacuous"]
        assert rep.clean and not rep.all_passed

    def test_items_and_reports_are_mutable_and_unhashable(self):
        item = CheckItem("a", "x", "pass", 1, [])
        rep = CheckReport("m", "s", [item])
        assert item == CheckItem("a", "x", "pass", 1, []) and rep == CheckReport("m", "s", [item])
        item.status, rep.model = "fail", "n"
        assert rep.items[0].status == "fail" and rep != CheckReport("m", "s", [item])
        # unhashable as a type, whatever the fields hold
        for value in (CheckItem("a", "x", "pass", 1, ()), CheckReport("m", "s", ())):
            with pytest.raises(TypeError, match=f"unhashable type: '{type(value).__name__}'"):
                hash(value)

    @pytest.mark.parametrize(
        "cls, values",
        [(CheckItem, ("a",)), (SupResult, (1, True, None, 4))],
        ids=["too_few", "too_many"],
    )
    def test_a_wrong_field_count_names_the_class(self, cls, values):
        # neither class defines __init__: Value's sets the fields in order
        assert "__init__" not in vars(cls)
        message = rf"^{cls.__name__}\(\) takes {len(cls._fields)} fields, got {len(values)}$"
        with pytest.raises(TypeError, match=message):
            cls(*values)

    def test_item_lookup(self):
        rep = CheckReport("m", "s", [CheckItem("a", "x", "pass", 1, [])])
        assert rep.item("a").status == "pass"
        with pytest.raises(KeyError):
            rep.item("nope")

    def test_run_suites_validates_names(self, fast_cfg):
        m = ModelSpec(FieldTag.Q, 2, Trivial())
        with pytest.raises(ValueError):
            run_suites(m, DotProduct(), fast_cfg, ["nope"])

    def test_run_suites_order_preserved(self, fast_cfg):
        m = ModelSpec(FieldTag.Q, 2, Trivial())
        reports = run_suites(m, DotProduct(), fast_cfg, ["hip", "wvs_axioms"])
        assert [r.suite for r in reports] == ["hip", "wvs_axioms"]

    def test_all_suite_names_runnable(self, fast_cfg):
        m = ModelSpec(FieldTag.Q, 2, ZeroAugmented())
        reports = run_suites(m, DotProduct(), fast_cfg, list(SUITE_NAMES))
        assert [r.suite for r in reports] == list(SUITE_NAMES)


def status_item(status, samples=1, tags=()):
    return CheckItem("i", "law", status, samples, [w(tag) for tag in tags])


class TestRollUp:
    @pytest.mark.parametrize(
        "statuses, expected",
        [
            ([], "pass"),
            (["pass", "pass"], "pass"),
            (["vacuous"], "vacuous"),
            (["vacuous", "vacuous", "vacuous"], "vacuous"),
            # a live item decides over vacuous ones; no suite produces this
            # input, since each summary sums items sampled alike
            (["pass", "vacuous"], "pass"),
            (["vacuous", "pass"], "pass"),
            # norm_axioms over definite, triangle, sup_scaling: no catalog
            # model fails one of them
            (["fail", "pass", "pass"], "fail"),
            (["pass", "vacuous", "fail"], "fail"),
            (["vacuous", "vacuous", "unbounded"], "unbounded"),
            (["fail", "unbounded", "pass"], "unbounded"),
        ],
    )
    def test_precedence(self, statuses, expected):
        items = [status_item(status) for status in statuses]
        assert roll_up(items) == expected
        assert summary_item("s", "summary", items).status == expected

    def test_samples_and_witnesses(self):
        items = [
            status_item("fail", 7, "ab"), status_item("pass", 30), status_item("fail", 12, "cdef")
        ]
        summary = summary_item("s", "summary", items)
        assert (summary.id, summary.anchor, summary.status) == ("s", "summary", "fail")
        assert summary.samples == 30  # the largest count, not a sum
        # item order, capped
        assert [x.bindings["k"] for x in summary.witnesses] == list("abcdef")[:MAX_WITNESSES]

    def test_unbounded_keeps_every_witness_kind(self):
        items = [
            status_item("pass", 4), status_item("fail", 4, "f"), status_item("unbounded", 4, "u")
        ]
        summary = summary_item("s", "summary", items)
        assert summary.status == "unbounded"
        assert [x.bindings["k"] for x in summary.witnesses] == ["f", "u"]

    def test_no_items(self):
        summary = summary_item("s", "summary", [])
        assert (summary.status, summary.samples, summary.witnesses) == ("pass", 0, [])


class TestSuitesWithoutInnerProduct:
    @pytest.mark.parametrize(
        "suite, rows",
        [
            ("theorem_normal", inner._THEOREM_ITEMS),
            ("lemma_34", inner._LEMMA_34_ITEMS),
            ("norm_props", inner._NORM_ITEMS),
        ],
    )
    def test_reads_no_report(self, suite, rows, monkeypatch):
        # no pass runs: neither the suite's stream nor the (1, 3) and
        # (2, 2) streams of the reports it would read are drawn
        calls = []
        run_pass = checker.run_pass

        def counted(model, cfg, arity, rows, body):
            calls.append((cfg, arity))
            return run_pass(model, cfg, arity, rows, body)

        monkeypatch.setattr(checker, "run_pass", counted)
        m = ModelSpec(FieldTag.Q, 2, ZeroAugmented())
        (report,) = run_suites(m, None, SampleConfig(samples=30), [suite])
        assert calls == []
        assert report == vacuous_report(m.describe(), suite, list(rows))


FAMILIES = st.sampled_from(
    [Trivial(), ZeroAugmented(), Sign(), Geometric(F(1, 2)), Geometric(F(2)), Geometric(F(3, 2))]
)


class TestDepthChangesNoReport:
    @settings(max_examples=25, deadline=None)
    @given(
        FAMILIES,
        st.sampled_from([FieldTag.Q, FieldTag.QI]),
        st.integers(1, 4),
        st.integers(0, (1 << 64) - 1),
    )
    def test_reports_identical_at_every_depth(self, family, field, dim, seed):
        if isinstance(family, Sign):
            field = FieldTag.Q  # the sign family is defined over Q only
        model = f'model "m" {{ field {field} dim {dim} product {family} inner dot }}\n'

        def rendered(directive_depth, *flags):
            # depth reaches a check through its directive or the --depth flag
            text = model + "".join(
                f"check {suite} samples=30 depth={directive_depth}\n" for suite in SUITE_NAMES
            )
            with tempfile.TemporaryDirectory() as tmp:
                path, out = os.path.join(tmp, "m.hvs"), os.path.join(tmp, "r.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = main(["check", path, "--seed", str(seed), "--json", out, *flags])
                with open(out, encoding="utf-8") as fh:
                    return code, stdout.getvalue(), fh.read()

        expected = rendered(1)
        for depth, flags in ((2, ()), (30, ()), (1, ("--depth", "8"))):
            assert rendered(depth, *flags) == expected


def standalone_reports(model, ip, cfg):
    """Every suite in SUITE_NAMES order, each check function called on
    its own, with reports it reads computed afresh: nothing is shared."""
    strong = lambda: essential.check_strong_normal(model, cfg)  # noqa: E731
    hip = lambda: inner.check_hip_axioms(model, ip, cfg)  # noqa: E731
    return [
        check_wvs_axioms(model, cfg),
        essential.check_lemma_basic(model, cfg, strong()),
        essential.check_weak_normal(model, cfg),
        strong(),
        essential.check_normal_equivalence(
            model, cfg, essential.check_weak_normal(model, cfg), strong()
        ),
        inner.check_real_ip_axioms(model, ip, cfg),
        hip(),
        inner.check_lemma_34(model, ip, cfg, hip()),
        inner.check_theorem_normal(model, ip, cfg, hip(), strong()),
        inner.check_norm_props(model, ip, cfg, hip()),
    ]


class TestSharedRunMatchesStandaloneChecks:
    @settings(max_examples=20, deadline=None)
    @given(
        FAMILIES,
        st.sampled_from([FieldTag.Q, FieldTag.QI]),
        st.integers(1, 4),
        st.integers(0, (1 << 64) - 1),
        st.integers(1, 40),
    )
    def test_same_document(self, family, field, dim, seed, samples):
        if isinstance(family, Sign):
            field = FieldTag.Q  # the sign family is defined over Q only
        model, ip = ModelSpec(field, dim, family), DotProduct()
        cfg = SampleConfig(seed=seed, samples=samples)
        shared = run_suites(model, ip, cfg, list(SUITE_NAMES))
        alone = standalone_reports(model, ip, cfg)
        assert render_json(report_document(model.describe(), seed, shared)) == render_json(
            report_document(model.describe(), seed, alone)
        )

    @settings(max_examples=20, deadline=None)
    @given(
        FAMILIES,
        st.sampled_from([FieldTag.Q, FieldTag.QI]),
        st.integers(1, 4),
        st.integers(0, (1 << 64) - 1),
        st.integers(1, 40),
        st.lists(st.sampled_from(SUITE_NAMES), min_size=1, unique=True),
    )
    def test_planned_subset_matches(self, family, field, dim, seed, samples, suites):
        # as the CLI runs a file: the run planned first, then one
        # run_suites call per directive over the one memo
        if isinstance(family, Sign):
            field = FieldTag.Q  # the sign family is defined over Q only
        model, ip = ModelSpec(field, dim, family), DotProduct()
        cfg = SampleConfig(seed=seed, samples=samples)
        memo = {}
        plan_run(memo, model, ip, [(suite, cfg) for suite in suites])
        shared = [run_suites(model, ip, cfg, [suite], memo)[0] for suite in suites]
        alone = dict(zip(SUITE_NAMES, standalone_reports(model, ip, cfg)))
        assert render_json(report_document(model.describe(), seed, shared)) == render_json(
            report_document(model.describe(), seed, [alone[suite] for suite in suites])
        )

    @pytest.mark.parametrize("family", [Sign(), Geometric(F(2))], ids=repr)
    def test_planning_only_hip_pairs_as_hip_alone(self, family, monkeypatch):
        # real_ip reads the same stream, but a run that does not plan it
        # must not evaluate its pairings
        model, ip, cfg = ModelSpec(FieldTag.Q, 2, family), DotProduct(), SampleConfig(samples=60)
        calls = []
        pairing = inner.pairing
        monkeypatch.setattr(inner, "pairing", lambda *args: calls.append(args) or pairing(*args))
        check_hip_axioms(model, ip, cfg)
        alone, calls[:] = list(calls), []
        memo = {}
        plan_run(memo, model, ip, [("wvs_axioms", cfg), ("hip", cfg)])
        for suite in ("wvs_axioms", "hip"):
            run_suites(model, ip, cfg, [suite], memo)
        assert alone and calls == alone

    @pytest.mark.parametrize("family", [Sign(), Geometric(F(2))], ids=repr)
    def test_planning_only_wvs_builds_no_essential_set(self, family, monkeypatch):
        # the (2, 2) stream's one builder decides the axioms and the
        # readings; a run that plans only one side builds nothing for the other
        model, cfg = ModelSpec(FieldTag.Q, 2, family), SampleConfig(samples=60)
        calls = []
        essential_set = type(family).essential
        monkeypatch.setattr(
            type(family), "essential", lambda *args: calls.append(args) or essential_set(*args)
        )
        check_strong_normal(model, cfg)
        assert calls
        calls[:] = []
        check_wvs_axioms(model, cfg)
        assert calls == []

    @pytest.mark.parametrize("family", [Sign(), Geometric(F(2))], ids=repr)
    def test_planning_only_strong_normal_builds_no_product(self, family, monkeypatch):
        model, cfg = ModelSpec(FieldTag.Q, 2, family), SampleConfig(samples=60)
        calls = []
        for name in ("product", "product_of_set"):
            built = getattr(models, name)
            monkeypatch.setattr(
                models, name, lambda *args, built=built: calls.append(args) or built(*args)
            )
        check_wvs_axioms(model, cfg)
        assert calls
        calls[:] = []
        check_strong_normal(model, cfg)
        assert calls == []


def test_suites_of_one_stream_take_the_same_arguments():
    # one pass calls its stream's one builder with the same reports and
    # inner product for every suite of the stream
    by_stream = {}
    for name, spec in SUITES.items():
        # every step resolves in the suite's module
        for step in ("laws", "finish"):
            assert getattr(spec, step) is None or callable(spec.step(step)), (name, step)
        if spec.rows is not None:
            assert all(len(row) == 2 for row in spec.step("rows")), name
        # the scheduler reports an inner suite without an inner product
        # vacuous from its rows, and a suite that samples nothing from
        # its finish step
        assert (spec.rows is not None) == (spec.module == "inner"), name
        assert (spec.stream is None) == (spec.laws is None), name
        assert spec.stream is not None or spec.finish is not None, name
        # one builder per stream: one module, one laws step, one set of reads
        by_stream.setdefault(spec.stream, set()).add((spec.module, spec.laws, spec.reads))
    assert sorted(by_stream, key=str) == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), None]
    assert all(len(kinds) == 1 for kinds in by_stream.values())


class TestJson:
    def test_schema_and_stability(self, fast_cfg):
        m = ModelSpec(FieldTag.Q, 2, ZeroAugmented())
        reports = run_suites(m, DotProduct(), fast_cfg, ["real_ip"])
        doc = report_document(m.describe(), fast_cfg.seed, reports)
        text = render_json(doc)
        assert text == render_json(doc)
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert set(parsed) == {"model", "seed", "suites"}
        assert parsed["model"] == "zero_augmented Q dim=2"
        assert parsed["seed"] == fast_cfg.seed
        suite = parsed["suites"][0]
        assert set(suite) == {"name", "items"}
        item = suite["items"][0]
        assert set(item) == {"id", "anchor", "status", "samples", "witnesses"}
        fail = next(i for i in suite["items"] if i["status"] == "fail")
        assert set(fail["witnesses"][0]) == {"bindings", "relation"}

    def test_keys_sorted(self):
        doc = report_document("m", 1, [])
        assert render_json(doc).index('"model"') < render_json(doc).index('"seed"')
