"""Model-file grammar: corpus round-trips and positioned diagnostics."""

import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hypervec.checker import SampleConfig
from hypervec.dsl import (
    CheckDirective,
    ModelFile,
    ModelFileError,
    format_model_file,
    parse_model_file,
)
from hypervec.inner import DotProduct, WeightedDot
from hypervec.models import Geometric, ModelSpec, Sign, Trivial, ZeroAugmented
from hypervec.scalars import FieldTag
from hypervec import vectors
from hypervec.vectors import Vector

F = Fraction
CORPUS = Path(__file__).parent / "corpus"
VALID = sorted((CORPUS / "valid").glob("*.hvs"))
INVALID = sorted((CORPUS / "invalid").glob("*.hvs"))


def test_corpus_sizes():
    assert len(VALID) >= 10
    assert len(INVALID) >= 10


class TestParsedShapes:
    def test_minimal(self):
        mf = parse_model_file('model "m" { field Q dim 1 product trivial }')
        assert mf == ModelFile("m", ModelSpec(FieldTag.Q, 1, Trivial()), None, ())

    def test_inner_and_check_directive(self):
        text = (
            'model "m" { field Q dim 2 product zero_augmented inner dot }\n'
            "check hip samples=500 seed=42"
        )
        mf = parse_model_file(text)
        assert mf.model == ModelSpec(FieldTag.Q, 2, ZeroAugmented())
        assert mf.inner == DotProduct()
        assert mf.checks == (
            CheckDirective("hip", {"samples": 500, "seed": 42}),
        )

    def test_geometric_and_weighted(self):
        mf = parse_model_file(
            'model "w" { field Q dim 2 product geometric(1/2) '
            "inner weighted_dot(2, 1/3) }"
        )
        assert mf.model.family == Geometric(F(1, 2))
        assert mf.inner == WeightedDot((F(2), F(1, 3)))

    def test_sign_over_q_allowed(self):
        mf = parse_model_file('model "s" { field Q dim 2 product sign }')
        assert mf.model.family == Sign()


class TestValidCorpus:
    @pytest.mark.parametrize("path", VALID, ids=lambda p: p.stem)
    def test_parses(self, path):
        parse_model_file(path.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("path", VALID, ids=lambda p: p.stem)
    def test_round_trip(self, path):
        mf = parse_model_file(path.read_text(encoding="utf-8"))
        printed = format_model_file(mf)
        assert parse_model_file(printed) == mf
        # the canonical form is a fixed point of print
        assert format_model_file(parse_model_file(printed)) == printed


# filename -> (line, column, message fragment)
INVALID_EXPECTATIONS = {
    "i01_missing_dim": (3, 3, "expected 'dim', found 'product'"),
    "i02_sign_qi": (1, 36, "sign requires field Q"),
    "i03_ratio_one": (1, 45, "geometric ratio must not be 1"),
    "i04_ratio_zero": (1, 45, "geometric ratio must be positive"),
    "i05_zero_denominator": (1, 47, "denominator must not be zero"),
    "i06_weight_count": (5, 21, "weight count 2 does not match dimension 3"),
    "i07_unknown_suite": (2, 7, "unknown suite 'frobnicate'"),
    "i08_unknown_param": (2, 11, "unknown parameter 'retries'"),
    "i09_unterminated_string": (1, 7, "unterminated string literal"),
    "i10_bad_char": (2, 21, "unexpected character '%'"),
    "i11_dim_zero": (1, 25, "dimension must be at least 1"),
    "i12_duplicate_param": (2, 18, "duplicate parameter 'seed'"),
    "i13_negative_weight": (1, 65, "weights must be positive"),
    "i14_unclosed_block": (5, 1, "expected '}', found end of file"),
    "i15_bad_samples": (2, 19, "samples must be at least 1"),
    "i16_huge_literal": (1, 45, "integer literal of 5000 digits is too long"),
    "i17_unicode_digit": (1, 25, "unexpected character '²'"),
    "i18_dim_over_cap": (1, 25, "dimension must be at most 64"),
    "i19_samples_over_cap": (2, 19, "samples must be at most 100000"),
    "i20_unknown_inner": (1, 49, "unknown inner product 'cosine'"),
    "i21_unknown_family": (1, 35, "unknown product family 'frobnicate'"),
    "i22_negative_denominator": (1, 47, "denominator must be positive"),
}


class TestInvalidCorpus:
    def test_every_file_has_expectations(self):
        assert {p.stem for p in INVALID} == set(INVALID_EXPECTATIONS)

    @pytest.mark.parametrize("path", INVALID, ids=lambda p: p.stem)
    def test_positioned_diagnostic(self, path):
        line, column, fragment = INVALID_EXPECTATIONS[path.stem]
        with pytest.raises(ModelFileError) as exc_info:
            parse_model_file(path.read_text(encoding="utf-8"))
        err = exc_info.value
        assert (err.line, err.column) == (line, column)
        assert fragment in err.message
        rendered = str(err)
        assert f"line {line}, column {column}" in rendered
        if err.source_line:
            assert err.source_line in rendered
            assert "^" in rendered


class TestDiagnosticDetails:
    def test_expected_token_set(self):
        with pytest.raises(ModelFileError) as exc_info:
            parse_model_file('model "m" { field R dim 1 product trivial }')
        err = exc_info.value
        assert (err.line, err.column, err.message) == (1, 19, "unknown field 'R'")

    def test_caret_under_offender(self):
        with pytest.raises(ModelFileError) as exc_info:
            parse_model_file('model "m" { field Q dim x product trivial }')
        rendered = str(exc_info.value)
        body = rendered.splitlines()
        # caret line points at column 25, under the 'x'
        assert body[-1] == "    " + " " * 24 + "^"

    @pytest.mark.parametrize(
        "text, column, message",
        [
            ('model "m"#', 10, "expected '{', found end of file"),
            ('model\t"m" {\tfield R dim 1 product trivial }', 19, "unknown field 'R'"),
            ('model "m" {\r field R dim 1 product trivial }', 20, "unknown field 'R'"),
            ('model "m" { field \u00e9 dim 1 product trivial }', 19, "unknown field '\u00e9'"),
        ],
        ids=["eof_after_comment", "tab", "carriage_return", "non_ascii_word"],
    )
    def test_lexer_columns(self, text, column, message):
        # one column per character, a tab and a carriage return included;
        # a comment takes none, so end of file after it sits at its '#'
        with pytest.raises(ModelFileError) as exc_info:
            parse_model_file(text)
        err = exc_info.value
        assert (err.line, err.column, err.message) == (1, column, message)

    @pytest.mark.parametrize(
        "text, line",
        [
            ('# a\x0cb\nmodel "m" { field R dim 1 product trivial }', 2),
            ('# a\u2028b\nmodel "m" { field R dim 1 product trivial }', 2),
            ('# a\x85b\nmodel "m" { field R dim 1 product trivial }', 2),
            ('# a\r\nmodel "m" { field R dim 1 product trivial }\r\n', 2),
            ('model "m" {\r field R dim 1 product trivial }', 1),
        ],
        ids=["form_feed", "line_separator", "next_line", "crlf", "carriage_return"],
    )
    def test_source_line_is_the_counted_line(self, text, line):
        # the lexer counts lines at \n only, so the quoted line is split
        # there too; a CRLF line is quoted without its \r
        with pytest.raises(ModelFileError) as exc_info:
            parse_model_file(text)
        err = exc_info.value
        assert err.line == line
        assert err.source_line == text.split("\n")[line - 1].removesuffix("\r")
        assert err.source_line[err.column - 1] == "R"  # the caret sits under it

    def test_seed_range(self):
        text = 'model "m" { field Q dim 1 product trivial }\ncheck hip seed=%d'
        parse_model_file(text % ((1 << 64) - 1))
        with pytest.raises(ModelFileError) as exc_info:
            parse_model_file(text % (1 << 64))
        assert "seed must fit" in exc_info.value.message

    @pytest.mark.parametrize(
        "template",
        [
            'model "m" {{ field Q dim {} product trivial }}',
            'model "m" {{ field Q dim 2 product geometric({}) }}',
            'model "m" {{ field Q dim 2 product geometric(1/{}) }}',
            'model "m" {{ field Q dim 1 product trivial inner weighted_dot({}) }}',
            'model "m" {{ field Q dim 1 product trivial }} check hip samples={}',
        ],
        ids=["dim", "numerator", "denominator", "weight", "parameter"],
    )
    def test_huge_integer_literal_is_located(self, template):
        # longer than the 4,300 digits int() converts by default
        text = template.format("7" * 5000)
        with pytest.raises(ModelFileError) as exc_info:
            parse_model_file(text)
        err = exc_info.value
        assert (err.line, err.column) == (1, text.index("7") + 1)
        assert "integer literal of 5000 digits is too long" in err.message

    @pytest.mark.parametrize(
        "digit", ["²", "٣", "７"], ids=["superscript", "arabic_indic", "fullwidth"]
    )
    def test_non_ascii_digit_is_an_unexpected_character(self, digit):
        # str.isdigit() takes these, and int() reads some of them as numbers
        for text in (
            f'model "m" {{ field Q dim {digit} product trivial }}',
            f'model "m" {{ field Q dim 2{digit} product trivial }}',
        ):
            with pytest.raises(ModelFileError) as exc_info:
                parse_model_file(text)
            err = exc_info.value
            assert (err.line, err.column) == (1, text.index(digit) + 1)
            assert err.message == f"unexpected character {digit!r}"

    @pytest.mark.parametrize("stem", ["i18_dim_over_cap", "i19_samples_over_cap"])
    def test_caps_reject_before_any_vector_is_built(self, stem, monkeypatch):
        # a vector is made either by Vector(coords) or, in lattice form, by
        # vectors._canonical: record both
        built = []
        init, canonical = Vector.__init__, vectors._canonical

        def record_init(self, coords):
            built.append(coords)
            init(self, coords)

        def record_canonical(*triple):
            built.append(triple)
            return canonical(*triple)

        monkeypatch.setattr(Vector, "__init__", record_init)
        monkeypatch.setattr(vectors, "_canonical", record_canonical)
        with pytest.raises(ModelFileError):
            parse_model_file((CORPUS / "invalid" / f"{stem}.hvs").read_text(encoding="utf-8"))
        assert built == []
        # the recorders see both ways of making a vector
        vectors.make_vector(FieldTag.Q, [1, 2]).scaled(F(1, 2))
        assert len(built) == 2

    def test_caps_admit_their_bounds(self):
        mf = parse_model_file(
            'model "m" { field Q dim 64 product trivial }\ncheck hip samples=100000'
        )
        assert mf.model.dim == 64 and mf.checks[0].params == {"samples": 100000}

    def test_trailing_garbage(self):
        with pytest.raises(ModelFileError) as exc_info:
            parse_model_file('model "m" { field Q dim 1 product trivial } 17')
        assert "expected 'check'" in exc_info.value.message


class TestParsedValues:
    TEXT = (
        'model "w" { field Q dim 2 product geometric(1/2) inner weighted_dot(2, 1/3) }\n'
        "check hip samples=60 seed=7 height=3\n"
    )

    def test_two_parses_give_equal_values(self):
        one, two = parse_model_file(self.TEXT), parse_model_file(self.TEXT)
        assert one == two and one is not two
        configs = [SampleConfig(**mf.checks[0].params) for mf in (one, two)]
        for a, b in [(one.model, two.model), (one.inner, two.inner), tuple(configs)]:
            assert a == b and hash(a) == hash(b)
        # a file without check directives is hashable as a whole
        bare = self.TEXT.splitlines()[0]
        assert hash(parse_model_file(bare)) == hash(parse_model_file(bare))

    def test_directives_do_not_share_params(self):
        one, two = CheckDirective("hip"), CheckDirective("hip")
        one.params["seed"] = 7
        assert two.params == {} and CheckDirective("hip").params == {}
        assert one != two


class TestPrinter:
    def test_canonical_form(self):
        mf = parse_model_file(
            'model   "m"{field Q dim 2 product zero_augmented inner dot}'
            "  check hip  samples=9"
        )
        assert format_model_file(mf) == (
            'model "m" {\n'
            "  field Q\n"
            "  dim 2\n"
            "  product zero_augmented\n"
            "  inner dot\n"
            "}\n"
            "check hip samples=9\n"
        )

    def test_omits_missing_inner(self):
        mf = parse_model_file('model "m" { field Qi dim 1 product trivial }')
        text = format_model_file(mf)
        assert "inner" not in text
        assert "field Qi" in text


# A lexeme of the model language, a comment, or a run of whitespace;
# joining the pieces gives the text back.
_PIECE = re.compile(r'"[^"\n]*"|#[^\n]*|-?[0-9]+|\w+|\s+|.', re.S)
_VOCABULARY = [
    *"{}(),=/%#\"", "\n", " ", "-", "\u00b2", "\u0663",
    "model", "field", "dim", "product", "inner", "check", "Q", "Qi", "R",
    "trivial", "zero_augmented", "geometric", "sign", "dot", "weighted_dot",
    "seed", "samples", "depth", "height", "hip", "wvs_axioms", "frobnicate",
    '"n"',
]
_NUMBERS = ["0", "-1", "2", "64", "65", "100000", "100001", str(1 << 64), "7" * 5000]
_CORPUS_TEXTS = [p.read_text(encoding="utf-8") for p in VALID]


@st.composite
def mutated_corpus_files(draw):
    """A valid corpus file with one to four pieces deleted, repeated,
    replaced or inserted, or with one of its numbers replaced."""
    pieces = _PIECE.findall(draw(st.sampled_from(_CORPUS_TEXTS)))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(pieces) - 1))
        edit = draw(st.sampled_from(["delete", "repeat", "replace", "insert", "number"]))
        if edit == "delete":
            del pieces[i]
        elif edit == "repeat":
            pieces.insert(i, pieces[i])
        elif edit == "number":
            numbers = [j for j, piece in enumerate(pieces) if piece[-1] in "0123456789"]
            if numbers:
                pieces[draw(st.sampled_from(numbers))] = draw(st.sampled_from(_NUMBERS))
        else:
            new = draw(st.sampled_from(_VOCABULARY + _NUMBERS))
            pieces[i : i + (edit == "replace")] = [" ", new, " "]
    return "".join(pieces)


class TestHostileText:
    def assert_only_model_file_errors(self, text):
        try:
            mf = parse_model_file(text)
        except ModelFileError as err:
            assert err.line >= 1 and err.column >= 1
        else:
            assert parse_model_file(format_model_file(mf)) == mf

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=200))
    def test_arbitrary_text(self, text):
        self.assert_only_model_file_errors(text)

    @settings(max_examples=300, deadline=None)
    @given(mutated_corpus_files())
    def test_token_mutations_of_the_valid_corpus(self, text):
        self.assert_only_model_file_errors(text)
