"""Model-file grammar: corpus round-trips and positioned diagnostics."""

from fractions import Fraction
from pathlib import Path

import pytest

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
        assert exc_info.value.expected == ("Q", "Qi")

    def test_caret_under_offender(self):
        with pytest.raises(ModelFileError) as exc_info:
            parse_model_file('model "m" { field Q dim x product trivial }')
        rendered = str(exc_info.value)
        body = rendered.splitlines()
        # caret line points at column 25, under the 'x'
        assert body[-1] == "    " + " " * 24 + "^"

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

    def test_trailing_garbage(self):
        with pytest.raises(ModelFileError) as exc_info:
            parse_model_file('model "m" { field Q dim 1 product trivial } 17')
        assert "expected 'check'" in exc_info.value.message


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
