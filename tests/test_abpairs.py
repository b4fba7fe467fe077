"""The summary of tools/abpairs.py on fixed numbers."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "abpairs.py")
_SPEC = importlib.util.spec_from_file_location("abpairs", _PATH)
abpairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(abpairs)


def test_quartiles_are_inclusive_and_take_one_value():
    assert abpairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
    assert abpairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_counts_wins_in_each_metrics_direction():
    parent = [1.0, 1.2, 1.1, 0.9, 1.0]
    change = [0.8, 1.3, 0.9, 0.9, 0.7]  # lower in pairs 1, 3 and 5; a tie in 4
    pairs = [
        ({"wall_s": p, "ok_ratio": 1.0}, {"wall_s": c, "ok_ratio": 1.0})
        for p, c in zip(parent, change)
    ]
    wall, ok = abpairs.summarize(pairs, {"wall_s": "lower", "ok_ratio": "higher"})
    assert wall["parent"] == (1.0, 1.0, 1.1) and wall["change"] == (0.8, 0.9, 0.9)
    assert abs(wall["delta"] - (-0.1)) < 1e-12
    assert (wall["won"], wall["pairs"]) == (3, 5)
    # ties win nothing, whichever the direction
    assert (ok["won"], ok["delta"]) == (0, 0.0)
    higher = abpairs.summarize(pairs, {"wall_s": "higher"})[0]
    assert higher["won"] == 1
    table = abpairs.format_rows([wall, ok])
    assert "wall_s" in table.splitlines()[1] and table.splitlines()[1].endswith("3/5")


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        # the change's median is 30% slower: more than the bound of 25%
        ([1.0, 1.0, 1.1, 0.9, 1.0], [1.3, 1.3, 1.2, 1.4, 1.3], "lower", "worse"),
        # a rate (higher is better) whose median falls by 31%
        ([1.3, 1.3, 1.2, 1.4, 1.3], [0.9, 0.9, 1.0, 0.8, 0.9], "higher", "worse"),
        # the parent's quartiles lie 40% of its median apart, and one
        # change run is slower than a parent run
        ([1.0, 0.8, 1.2, 0.6, 1.4], [1.1, 0.9, 1.0, 1.0, 1.0], "lower", "unresolved"),
        # as wide a spread, but every change run beats every parent run
        ([1.0, 0.8, 1.2, 0.6, 1.4], [0.5, 0.5, 0.4, 0.5, 0.5], "lower", "ok"),
        # 10% slower with a narrow parent spread: within the bound
        ([1.0, 1.0, 1.01, 0.99, 1.0], [1.1, 1.1, 1.1, 1.1, 1.1], "lower", "ok"),
    ],
)
def test_verdict_reads_each_metric_against_its_bound(parent, change, better, expected):
    assert abpairs.verdict(parent, change, better, 0.25) == expected


def row(parent, change, better="lower"):
    pairs = [({"m": p}, {"m": c}) for p, c in zip(parent, change)]
    return abpairs.summarize(pairs, {"m": better})[0]


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        # won 5/5, and the medians lie 1.0 s apart, the parent's quartiles 0.2 s
        ([3.0, 3.1, 2.9, 3.2, 3.0], [2.0, 2.1, 1.9, 2.0, 2.2], "lower", "better"),
        ([2.0, 2.1, 1.9, 2.0, 2.2], [3.0, 3.1, 2.9, 3.2, 3.0], "lower", "worse"),
        # won 4/5: short of nine tenths
        ([3.0, 3.1, 2.9, 3.2, 1.0], [2.0, 2.1, 1.9, 2.0, 2.2], "lower", "within spread"),
        # won 5/5, but by less than the parent's spread
        ([3.0, 3.5, 2.5, 3.6, 2.4], [2.9, 3.4, 2.4, 3.5, 2.3], "lower", "within spread"),
        # a rate, higher is better: the same numbers read the other way
        ([2.0, 2.1, 1.9, 2.0, 2.2], [3.0, 3.1, 2.9, 3.2, 3.0], "higher", "better"),
        ([3.0, 3.1, 2.9, 3.2, 3.0], [2.0, 2.1, 1.9, 2.0, 2.2], "higher", "worse"),
    ],
)
def test_reading_takes_nine_tenths_of_pairs_and_more_than_the_spread(
    parent, change, better, expected
):
    assert abpairs.reading(row(parent, change, better)) == expected


def test_main_prints_each_metrics_reading(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25},'
        ' {"name": "ok_ratio", "better": "higher", "bound": 0.01}]}'
    )
    runs = {"p": {"wall_s": 2.0, "ok_ratio": 1.0}, str(tmp_path): {"wall_s": 1.0, "ok_ratio": 1.0}}
    monkeypatch.setattr(abpairs, "run_bench", lambda tree, *_: runs[tree])
    assert abpairs.main(["p", str(tmp_path), "--workload", "rays", "--pairs", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2] == "reading: wall_s better, ok_ratio within spread"
    assert json.loads(out[-1])["readings"] == {"wall_s": "better", "ok_ratio": "within spread"}


@pytest.mark.parametrize(
    "flags, seeds", [([], [42, 43, 44]), (["--first-seed", "1000"], [1000, 1001, 1002])]
)
def test_pairs_take_consecutive_seeds_from_the_first(flags, seeds, tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}'
    )
    runs = []

    def run_bench(tree, workload, seed, seconds):
        runs.append((tree, seed))
        return {"wall_s": 1.0}

    monkeypatch.setattr(abpairs, "run_bench", run_bench)
    assert abpairs.main(["p", str(tmp_path), "--workload", "gaussian", "--pairs", "3", *flags]) == 0
    capsys.readouterr()
    # the parent runs first in the first pair, second in the next
    assert runs == [
        ("p", seeds[0]), (str(tmp_path), seeds[0]),
        (str(tmp_path), seeds[1]), ("p", seeds[1]),
        ("p", seeds[2]), (str(tmp_path), seeds[2]),
    ]


def test_a_negative_first_seed_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_:
        abpairs.main(["p", "c", "--workload", "gaussian", "--first-seed", "-1"])
    assert exit_.value.code == 2
    assert "--first-seed" in capsys.readouterr().err
