"""The reading and the arguments of tools/dimsweep.py, on fixed numbers."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "dimsweep.py")
_SPEC = importlib.util.spec_from_file_location("dimsweep", _PATH)
dimsweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(dimsweep)

REPO = os.path.join(os.path.dirname(__file__), "..")


def row(parent, change):
    pairs = [({"dim 64": p}, {"dim 64": c}) for p, c in zip(parent, change)]
    return dimsweep.abpairs.summarize(pairs, {"dim 64": "lower"})[0]


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        # won 5/5, and the medians lie 1.0 s apart, the parent's quartiles 0.2 s
        ([3.0, 3.1, 2.9, 3.2, 3.0], [2.0, 2.1, 1.9, 2.0, 2.2], "faster"),
        ([2.0, 2.1, 1.9, 2.0, 2.2], [3.0, 3.1, 2.9, 3.2, 3.0], "slower"),
        # won 4/5: short of nine tenths
        ([3.0, 3.1, 2.9, 3.2, 1.0], [2.0, 2.1, 1.9, 2.0, 2.2], "within spread"),
        # won 5/5, but by less than the parent's spread
        ([3.0, 3.5, 2.5, 3.6, 2.4], [2.9, 3.4, 2.4, 3.5, 2.3], "within spread"),
    ],
)
def test_reading_takes_nine_tenths_of_pairs_and_more_than_the_spread(parent, change, expected):
    assert dimsweep.reading(row(parent, change)) == expected


def test_sweep_prints_one_row_per_dimension(monkeypatch, capsys):
    times = {"p": [1.0, 3.0], "c": [1.0, 2.0]}
    monkeypatch.setattr(dimsweep, "run_tree", lambda tree, dims: times[os.path.basename(tree)])
    monkeypatch.setattr(dimsweep.os.path, "isdir", lambda path: True)
    assert dimsweep.main(["x/p", "x/c", "--pairs", "2", "--dims", "2,64"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith("dim 2") and lines[2].endswith("0/2")
    assert lines[3].startswith("dim 64") and lines[3].endswith("2/2")
    assert lines[4] == "reading: dim 2 within spread, dim 64 faster"


@pytest.mark.parametrize(
    "argv",
    [
        [REPO, REPO, "--dims", "2,x"],
        [REPO, REPO, "--dims", "0,2"],
        [REPO, REPO, "--dims", "65"],
        [REPO, REPO, "--pairs", "0"],
        [REPO, os.path.join(REPO, "tests")],
        [REPO],
    ],
)
def test_bad_arguments_exit_2_with_the_usage(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        dimsweep.main(argv)
    assert exit_.value.code == 2
    assert capsys.readouterr().err.startswith("usage: ")
