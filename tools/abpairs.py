"""Alternating benchmark pairs: a parent checkout against a change checkout.

Usage (any working directory):

    python3 tools/abpairs.py PARENT CHANGE --workload rays [--pairs 5] [--seconds 36]
        [--first-seed 42]

PARENT and CHANGE are two checkouts of this repository. Each pair runs
each tree's own `bench/run.py --workload W --seed S --seconds T --trace 0`
once. Pair i (counted from 0) uses seed F + i, F being --first-seed (42
by default; another F checks a claim on seeds not used while writing
the change). The parent runs first in the 1st, 3rd, 5th ... pair and
second in the others, so a drift of the host's speed falls on both
sides alike. The runs write only what
bench/run.py writes, in each tree's own .bench_out/.

For every end-to-end metric of the change's BENCHMARK.json it prints the
median and the quartiles of each side and the number of pairs the change
won (strictly better, in the metric's direction), then the metric's
no-regression verdict against its bound (see verdict), then its gain
reading (see reading), then one JSON line with every run's values, the
verdicts and the readings. The exit code is 1 when a run fails or prints
`correct: false`, 2 on bad arguments, and 0 otherwise. Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); statistics.quantiles' inclusive method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[dict]:
    """One row per metric from (parent, change) metric values per pair.

    better maps each metric to "lower" or "higher". A row holds both
    sides' quartiles, the change of the median relative to the parent's,
    and how many pairs the change won.
    """
    rows = []
    for name, direction in better.items():
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        sign = 1 if direction == "higher" else -1
        p_q, c_q = quartiles(parent), quartiles(change)
        rows.append(
            {
                "metric": name,
                "better": direction,
                "parent": p_q,
                "change": c_q,
                "delta": (c_q[1] - p_q[1]) / p_q[1] if p_q[1] else 0.0,
                "won": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                "pairs": len(pairs),
            }
        )
    return rows


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The no-regression reading of one metric over the pairs' runs.

    bound is relative to the parent's median. "worse" when the change's
    median is worse than the parent's by more than bound; else
    "unresolved" when the spread between the parent's quartiles,
    relative to its median, exceeds bound and not every change run
    beats every parent run; else "ok".
    """
    sign = 1 if better == "higher" else -1
    p_q1, p_median, p_q3 = quartiles(parent)
    if sign * (quartiles(change)[1] - p_median) / abs(p_median) < -bound:
        return "worse"
    beats_all = all(sign * (c - p) > 0 for p in parent for c in change)
    if (p_q3 - p_q1) / abs(p_median) > bound and not beats_all:
        return "unresolved"
    return "ok"


def reading(row: dict) -> str:
    """The gain reading of one summarize row, in its metric's direction
    (row["better"]): "better" when the change won at least nine tenths
    of the pairs and its median beats the parent's by more than the
    parent's q3 - q1, "worse" when the same holds the other way, else
    "within spread"."""
    sign = 1 if row["better"] == "higher" else -1
    (p_q1, p_median, p_q3), median = row["parent"], row["change"][1]
    spread, lost = p_q3 - p_q1, row["pairs"] - row["won"]
    gain = sign * (median - p_median)
    if 10 * row["won"] >= 9 * row["pairs"] and gain > spread:
        return "better"
    if 10 * lost >= 9 * row["pairs"] and -gain > spread:
        return "worse"
    return "within spread"


def format_rows(rows: list[dict]) -> str:
    def side(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    head = ("metric", "parent median [q1, q3]", "change median [q1, q3]", "delta")
    lines = [f"{head[0]:<14} {head[1]:<30} {head[2]:<30} {head[3]:>7}  won"]
    for r in rows:
        lines.append(
            f"{r['metric']:<14} {side(r['parent']):<30} {side(r['change']):<30} "
            f"{r['delta']:+7.1%}  {r['won']}/{r['pairs']}"
        )
    return "\n".join(lines)


def run_bench(tree: str, workload: str, seed: int, seconds: float) -> dict | None:
    """The metric values of one bench/run.py run, or None when it failed."""
    argv = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        result = {}
    if proc.returncode != 0 or result.get("correct") is not True:
        print(f"FAILED {tree} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--first-seed", type=int, default=42)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be positive")
    if args.first_seed < 0:
        ap.error("--first-seed must not be negative")
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}

    pairs = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {}
        for side in order:
            runs[side] = run_bench(getattr(args, side), args.workload, seed, args.seconds)
            if runs[side] is None:
                return 1
        print(
            f"pair {i + 1} seed {seed} ({order[0]} first): "
            + ", ".join(f"{m} {runs['parent'][m]:.4g} -> {runs['change'][m]:.4g}" for m in better),
            file=sys.stderr,
        )
        pairs.append((runs["parent"], runs["change"]))
    print(f"{args.workload}: {args.pairs} pairs, --seconds {args.seconds:g}")
    rows = summarize(pairs, better)
    print(format_rows(rows))
    verdicts = {}
    for m in metrics:
        name = m["name"]
        parent, change = [p[name] for p, _ in pairs], [c[name] for _, c in pairs]
        verdicts[name] = verdict(parent, change, m["better"], m["bound"])
    print("verdict: " + ", ".join(f"{name} {v}" for name, v in verdicts.items()))
    readings = {row["metric"]: reading(row) for row in rows}
    print("reading: " + ", ".join(f"{name} {r}" for name, r in readings.items()))
    doc = {
        "workload": args.workload,
        "pairs": [list(p) for p in pairs],
        "verdicts": verdicts,
        "readings": readings,
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
