"""The code-size rule of tools/codesize.py."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "codesize.py")
_SPEC = importlib.util.spec_from_file_location("codesize", _PATH)
codesize = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(codesize)

SOURCE = '''"""Module docstring."""

# a comment
import os  # a trailing comment


def f(x):
    """A docstring
    over two lines."""
    y = "a string in an expression"
    "a string statement"
    return (x +
            1)
'''


def test_counts_code_without_layout_comments_or_docstrings():
    # import os | def f ( x ) : | y = "..." | return ( x + 1 )
    assert codesize.count_tokens(SOURCE) == 2 + 6 + 3 + 6
    # every line but the three blank ones and the comment line
    assert codesize.count_lines(SOURCE) == 9


@pytest.mark.parametrize("argv", [["--help"], ["/no/such/dir"], [_PATH], ["a", "b"]])
def test_argument_that_is_not_a_directory_prints_usage(argv, capsys):
    assert codesize.main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", codesize.USAGE + "\n")


def test_counts_the_package_directory(capsys):
    package = os.path.join(os.path.dirname(__file__), "..", "src", "hypervec")
    assert codesize.main([package]) == 0
    assert codesize.main([]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["module", "tokens", "lines"]
    assert out[: len(out) // 2] == out[len(out) // 2 :]  # the default is the package
