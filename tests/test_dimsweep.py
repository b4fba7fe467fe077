"""The output and the arguments of tools/dimsweep.py, on fixed numbers."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "dimsweep.py")
_SPEC = importlib.util.spec_from_file_location("dimsweep", _PATH)
dimsweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(dimsweep)

REPO = os.path.join(os.path.dirname(__file__), "..")


def test_sweep_prints_one_row_per_dimension(monkeypatch, capsys):
    times = {"p": [1.0, 3.0], "c": [1.0, 2.0]}
    monkeypatch.setattr(dimsweep, "run_tree", lambda tree, dims: times[os.path.basename(tree)])
    monkeypatch.setattr(dimsweep.os.path, "isdir", lambda path: True)
    assert dimsweep.main(["x/p", "x/c", "--pairs", "2", "--dims", "2,64"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith("dim 2") and lines[2].endswith("0/2")
    assert lines[3].startswith("dim 64") and lines[3].endswith("2/2")
    assert lines[4] == "reading: dim 2 within spread, dim 64 better"


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
