"""Print the code size of src/hypervec, per module and in total.

Usage (from the repository root, or with the package directory as the
one argument):

    python3 tools/codesize.py [PATH]

Tokens are the tokens of `tokenize`, leaving out comments, line breaks,
indentation, the end marker and every string that is a statement on its
own (a docstring). Lines are the lines that are neither blank nor only a
comment. An argument that is not a directory (or more than one) prints
the usage and exits 2. Stdlib only.
"""

from __future__ import annotations

import io
import os
import sys
import tokenize

# tokens after which a string starts a statement of its own
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
# layout tokens left out of the count, besides comments and NL
_LAYOUT = _STATEMENT_START | {tokenize.ENDMARKER}


def count_tokens(source: str) -> int:
    """Tokens of source, without layout, comments and docstrings."""
    kinds = [
        tok.type
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type not in (tokenize.COMMENT, tokenize.NL)
    ]
    count = 0
    for i, kind in enumerate(kinds):
        # the end marker follows every string, so kinds[i + 1] exists
        docstring = (
            kind == tokenize.STRING
            and (i == 0 or kinds[i - 1] in _STATEMENT_START)
            and kinds[i + 1] == tokenize.NEWLINE
        )
        if kind not in _LAYOUT and not docstring:
            count += 1
    return count


def count_lines(source: str) -> int:
    """Lines of source that are neither blank nor only a comment."""
    return sum(
        1 for line in source.splitlines() if line.strip() and not line.lstrip().startswith("#")
    )


USAGE = "usage: python3 tools/codesize.py [PATH]"


def main(argv: list[str]) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = argv[0] if argv else os.path.join(here, "..", "src", "hypervec")
    if len(argv) > 1 or not os.path.isdir(root):
        print(USAGE, file=sys.stderr)
        return 2
    rows = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                source = fh.read()
            rows.append((name, count_tokens(source), count_lines(source)))
    width = max(len(name) for name, _, _ in rows + [("total", 0, 0)])
    print(f"{'module':<{width}}  {'tokens':>7}  {'lines':>6}")
    for name, tokens, lines in rows:
        print(f"{name:<{width}}  {tokens:>7,}  {lines:>6,}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>7,}  {sum(r[2] for r in rows):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
