"""The comparison of tools/tracecounts.py on fixed counts."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "tracecounts.py")
_SPEC = importlib.util.spec_from_file_location("tracecounts", _PATH)
tracecounts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracecounts)


def trees(tmp_path):
    """A parent and a change tree, each with src/hypervec; the change's
    BENCHMARK.json names two workloads."""
    paths = []
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "hypervec").mkdir(parents=True)
        paths.append(str(tmp_path / side))
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        '{"workloads": [{"name": "catalog"}, {"name": "rays"}]}'
    )
    return paths


def test_prints_each_count_that_differs_and_how_many_are_equal(tmp_path, monkeypatch, capsys):
    parent, change = trees(tmp_path)
    counts = {
        (parent, "catalog"): {"inner.pairing.calls": 10, "scalars.isinstance.calls": 100},
        (change, "catalog"): {"inner.pairing.calls": 10, "scalars.isinstance.calls": 101},
        (parent, "rays"): {"inner.pairing.calls": 5, "models.sumset.calls": 0},
        (change, "rays"): {"inner.pairing.calls": 5, "models.product.calls": 3},
    }
    runs = []

    def run_traced(tree, workload):
        runs.append((tree, workload))
        return counts[tree, workload]

    monkeypatch.setattr(tracecounts, "run_traced", run_traced)
    assert tracecounts.main([parent, change]) == 0
    assert runs == [(parent, "catalog"), (change, "catalog"), (parent, "rays"), (change, "rays")]
    assert capsys.readouterr().out.splitlines() == [
        "catalog scalars.isinstance.calls: 100 -> 101",
        "catalog: 1 of 2 counts equal",
        "rays models.sumset.calls: 0 -> -",
        "rays models.product.calls: - -> 3",
        "rays: 1 of 3 counts equal",
        "2 of 5 counts equal",
    ]


def test_a_failed_run_exits_one(tmp_path, monkeypatch, capsys):
    parent, change = trees(tmp_path)
    monkeypatch.setattr(
        tracecounts, "run_traced", lambda tree, workload: None if tree == change else {}
    )
    assert tracecounts.main([parent, change]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [[], ["one"], ["a", "b"]])
def test_a_path_without_the_package_is_a_usage_error(argv, tmp_path, capsys):
    paths = [str(tmp_path / name) for name in argv]
    assert tracecounts.main(paths) == 2
    assert capsys.readouterr().err.strip() == tracecounts.USAGE


def test_a_run_that_prints_correct_false_fails(tmp_path, monkeypatch, capsys):
    class Proc:
        returncode = 1
        stdout = '{"correct": false, "metrics": {}}\n'
        stderr = "report differs"

    monkeypatch.setattr(tracecounts.subprocess, "run", lambda *args, **kwargs: Proc)
    assert tracecounts.run_traced(str(tmp_path), "rays") is None
    assert f"FAILED {tmp_path} rays: exit 1" in capsys.readouterr().err


def test_keeps_only_the_counts_of_a_run(tmp_path, monkeypatch):
    class Proc:
        returncode = 0
        stdout = (
            'rays: 3 processes\n{"correct": true, "metrics": {'
            '"wall_s": {"value": 0.4, "unit": "s"},'
            ' "inner.pairing.calls": {"value": 7, "unit": "count"}}}\n'
        )
        stderr = ""

    seen = {}

    def run(argv, cwd, **kwargs):
        seen["argv"], seen["cwd"] = argv[1:], cwd
        return Proc

    monkeypatch.setattr(tracecounts.subprocess, "run", run)
    assert tracecounts.run_traced(str(tmp_path), "rays") == {"inner.pairing.calls": 7}
    assert seen == {
        "argv": [os.path.join("bench", "run.py"), "--workload", "rays", "--seed", "42",
                 "--seconds", "1", "--trace", "1"],
        "cwd": str(tmp_path),
    }
