"""Model-description files: lexer, parser, and canonical printer.

Grammar (whitespace-insensitive, '#' comments to end of line):

    file     := model check*
    model    := "model" STRING "{"
                    "field" ("Q" | "Qi")
                    "dim" INT
                    "product" family
                    ["inner" ip]
                "}"
    family   := "trivial" | "zero_augmented"
              | "geometric" "(" RATIONAL ")" | "sign"
    ip       := "dot" | "weighted_dot" "(" RATIONAL ("," RATIONAL)* ")"
    check    := "check" IDENT (IDENT "=" INT)*
    RATIONAL := INT ["/" INT]
    INT      := ["-"] ("0".."9")+

Strings are double-quoted with no escape sequences. IDENT is a word
that starts with a letter or '_'. One regular expression (_TOKEN) lexes
the file, its rules tried in order at each position; a column is one
character, tabs included. Every reported error, syntactic or semantic,
carries a 1-based line and column plus the offending source line. Lines
end at a line feed only, for the lexer and for the quoted line alike.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NoReturn

from .checker import MAX_SAMPLES, SUITE_NAMES, Value
from .inner import DotProduct, InnerProductSpec, WeightedDot
from .models import (
    MAX_DIM,
    Family,
    Geometric,
    ModelSpec,
    Sign,
    Trivial,
    ZeroAugmented,
)
from .scalars import FieldTag

_PARAM_KEYS = ("seed", "samples", "depth", "height")
# the families without a parameter, each read by its own text form
_PLAIN_FAMILIES = {str(family): family for family in (Trivial(), ZeroAugmented(), Sign())}


class ModelFileError(ValueError):
    """Positioned syntax or semantic error in a model file."""

    def __init__(self, message: str, line: int, column: int, source_line: str = ""):
        self.message = message
        self.line = line
        self.column = column
        self.source_line = source_line
        rendered = f"line {line}, column {column}: {message}"
        if source_line:
            rendered += f"\n    {source_line}\n    {' ' * (column - 1)}^"
        super().__init__(rendered)


class CheckDirective(Value):
    """One suite to run, with optional sampling-parameter overrides."""

    __slots__ = _fields = ("suite", "params")

    def __init__(self, suite: str, params: dict[str, int] | None = None):
        self.suite, self.params = suite, {} if params is None else params


class ModelFile(Value):
    """A parsed model declaration plus its check directives.

    checks is a tuple of CheckDirective, in file order. The name must
    not contain double quotes or newlines, or the canonical printer's
    output stops being reparseable.
    """

    __slots__ = _fields = ("name", "model", "inner", "checks")


class _Token(Value):
    # kind: ident | int | string | one of {}()=,/ | eof
    __slots__ = _fields = ("kind", "text", "line", "column")

    def shown(self) -> str:
        return "end of file" if self.kind == "eof" else f"'{self.text}'"


# The token rules, tried in order at each position. Digits are ASCII
# only: str.isdigit() also takes superscripts and other scripts' digits,
# which int() reads differently or not at all. \w is what str.isalnum()
# takes, and '_'; a word that starts with neither a letter nor '_' is an
# unexpected character. A '"' that no '"' closes on its line is an
# unterminated string.
_TOKEN = re.compile(
    r'(?P<newline>\n)|(?P<space>[ \t\r]+)|(?P<comment>#[^\n]*)|(?P<punct>[{}(),=/])'
    r'|(?P<string>"[^"\n]*")|(?P<int>-?[0-9]+)|(?P<ident>\w+)|(?P<other>.)'
)


def _lex(text: str, lines: list[str]) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start, end = 1, 0, 0
    for match in _TOKEN.finditer(text):
        kind, value = match.lastgroup, match.group()
        column = match.start() - line_start + 1
        # a comment takes no column: end of file after one sits at its '#'
        end = match.start() if kind == "comment" else match.end()
        if kind == "newline":
            line, line_start = line + 1, end
        elif kind == "other" or (kind == "ident" and not (value[0].isalpha() or value[0] == "_")):
            message = f"unexpected character {value[0]!r}"
            if value == '"':
                message = "unterminated string literal"
            raise ModelFileError(message, line, column, source_line=_source_line(lines, line))
        elif kind == "string":
            tokens.append(_Token("string", value[1:-1], line, column))
        elif kind not in ("space", "comment"):
            tokens.append(_Token(value if kind == "punct" else kind, value, line, column))
    tokens.append(_Token("eof", "", line, end - line_start + 1))
    return tokens


def _source_line(lines: list[str], line: int) -> str:
    return lines[line - 1] if 1 <= line <= len(lines) else ""


class _Parser:
    def __init__(self, text: str):
        # the lines the lexer counts: a CRLF line is quoted without its \r
        self.lines = [line.removesuffix("\r") for line in text.split("\n")]
        self.tokens = _lex(text, self.lines)
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, tok: _Token, message: str) -> NoReturn:
        raise ModelFileError(message, tok.line, tok.column, _source_line(self.lines, tok.line))

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.advance()
        if tok.kind != kind:
            self.fail(tok, f"expected {what}, found {tok.shown()}")
        return tok

    def expect_word(self, word: str) -> _Token:
        tok = self.advance()
        if tok.kind != "ident" or tok.text != word:
            self.fail(tok, f"expected '{word}', found {tok.shown()}")
        return tok

    def integer(self, what: str) -> tuple[int, _Token]:
        tok = self.expect("int", what)
        try:
            return int(tok.text), tok
        except ValueError:
            # int() refuses decimal text longer than
            # sys.get_int_max_str_digits()
            self.fail(tok, f"integer literal of {len(tok.text)} digits is too long")

    # --- grammar productions ---

    def model_file(self) -> ModelFile:
        self.expect_word("model")
        name = self.expect("string", "a model name in double quotes")
        self.expect("{", "'{'")
        self.expect_word("field")
        field_tok = self.expect("ident", "'Q' or 'Qi'")
        try:
            field = FieldTag(field_tok.text)
        except ValueError:
            self.fail(field_tok, f"unknown field '{field_tok.text}'")
        self.expect_word("dim")
        dim, dim_tok = self.integer("a dimension")
        if dim < 1:
            self.fail(dim_tok, "dimension must be at least 1")
        if dim > MAX_DIM:
            self.fail(dim_tok, f"dimension must be at most {MAX_DIM}")
        self.expect_word("product")
        family = self.family(field)
        inner: InnerProductSpec | None = None
        nxt = self.peek()
        if nxt.kind == "ident" and nxt.text == "inner":
            self.advance()
            inner = self.inner_product(dim)
        self.expect("}", "'}'")
        checks = []
        while self.peek().kind != "eof":
            checks.append(self.check_directive())
        return ModelFile(name.text, ModelSpec(field, dim, family), inner, tuple(checks))

    def family(self, field: FieldTag) -> Family:
        tok = self.expect("ident", "a product family")
        family = _PLAIN_FAMILIES.get(tok.text)
        if family is not None:
            if isinstance(family, Sign) and field is FieldTag.QI:
                self.fail(tok, "sign requires field Q")
            return family
        if tok.text == "geometric":
            self.expect("(", "'('")
            ratio, rtok = self.rational()
            self.expect(")", "')'")
            if ratio <= 0:
                self.fail(rtok, "geometric ratio must be positive")
            if ratio == 1:
                self.fail(rtok, "geometric ratio must not be 1")
            return Geometric(ratio)
        self.fail(tok, f"unknown product family '{tok.text}'")

    def inner_product(self, dim: int) -> InnerProductSpec:
        tok = self.expect("ident", "an inner product kind")
        if tok.text == "dot":
            return DotProduct()
        if tok.text == "weighted_dot":
            open_tok = self.expect("(", "'('")
            weights = [self.rational()]
            while self.peek().kind == ",":
                self.advance()
                weights.append(self.rational())
            self.expect(")", "')'")
            for w, wtok in weights:
                if w <= 0:
                    self.fail(wtok, "weights must be positive")
            if len(weights) != dim:
                self.fail(
                    open_tok,
                    f"weight count {len(weights)} does not match dimension {dim}",
                )
            return WeightedDot(tuple(w for w, _ in weights))
        self.fail(tok, f"unknown inner product '{tok.text}'")

    def rational(self) -> tuple[Fraction, _Token]:
        num, num_tok = self.integer("a rational number")
        if self.peek().kind == "/":
            self.advance()
            den, den_tok = self.integer("a denominator")
            if den == 0:
                self.fail(den_tok, "denominator must not be zero")
            if den < 0:
                self.fail(den_tok, "denominator must be positive")
            return Fraction(num, den), num_tok
        return Fraction(num), num_tok

    def check_directive(self) -> CheckDirective:
        self.expect_word("check")
        suite_tok = self.expect("ident", "a suite name")
        if suite_tok.text not in SUITE_NAMES:
            self.fail(suite_tok, f"unknown suite '{suite_tok.text}'")
        params: dict[str, int] = {}
        while self.peek().kind == "ident" and self.peek(1).kind == "=":
            key_tok = self.advance()
            if key_tok.text not in _PARAM_KEYS:
                self.fail(key_tok, f"unknown parameter '{key_tok.text}'")
            if key_tok.text in params:
                self.fail(key_tok, f"duplicate parameter '{key_tok.text}'")
            self.advance()  # '='
            val, val_tok = self.integer("an integer value")
            if key_tok.text == "seed":
                if not 0 <= val < 1 << 64:
                    self.fail(val_tok, "seed must fit in 64 unsigned bits")
            elif val < 1:
                self.fail(val_tok, f"{key_tok.text} must be at least 1")
            elif key_tok.text == "samples" and val > MAX_SAMPLES:
                self.fail(val_tok, f"samples must be at most {MAX_SAMPLES}")
            params[key_tok.text] = val
        return CheckDirective(suite_tok.text, params)


def parse_model_file(text: str) -> ModelFile:
    """Parse a .hvs document; raises ModelFileError with position info."""
    parser = _Parser(text)
    return parser.model_file()


def format_model_file(mf: ModelFile) -> str:
    """Canonical text form; parsing it back yields an equal ModelFile."""
    lines = [
        f'model "{mf.name}" {{',
        f"  field {mf.model.field}",
        f"  dim {mf.model.dim}",
        f"  product {mf.model.family}",
    ]
    if mf.inner is not None:
        lines.append(f"  inner {mf.inner.describe()}")
    lines.append("}")
    for directive in mf.checks:
        parts = [f"check {directive.suite}"]
        parts.extend(f"{k}={v}" for k, v in directive.params.items())
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
