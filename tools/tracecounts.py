"""Traced counts: the exact counts of a parent checkout against a change checkout.

Usage (any working directory):

    python3 tools/tracecounts.py PARENT CHANGE

PARENT and CHANGE are two checkouts of this repository. For each
workload of the change's BENCHMARK.json, each tree runs its own
`bench/run.py --workload W --seed 42 --seconds 1 --trace 1`, the parent
first. Every metric whose unit is `count` (calls, tuples drawn,
unbounded suprema) is compared: unlike a time, a count does not drift
with the host, so any difference is a difference in the work done.

It prints each count that differs as `W METRIC: parent -> change` (`-`
for a count one tree does not report), then `W: N of M counts equal` per
workload and `N of M counts equal` over all of them. The exit code is 1
when a run fails or prints `correct: false`, 2 with a one-line usage
when either path has no src/hypervec, and 0 otherwise. The runs write
only what bench/run.py writes, in each tree's own .bench_out/. Stdlib
only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SEED = 42
USAGE = "usage: python3 tools/tracecounts.py PARENT CHANGE"


def run_traced(tree: str, workload: str) -> dict | None:
    """The count metrics of one traced bench/run.py run of tree, or None
    when it failed."""
    argv = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload]
    argv += ["--seed", str(SEED), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        result = {}
    if proc.returncode != 0 or result.get("correct") is not True:
        print(f"FAILED {tree} {workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(os.path.isdir(os.path.join(t, "src", "hypervec")) for t in argv):
        print(USAGE, file=sys.stderr)
        return 2
    parent, change = map(os.path.abspath, argv)
    with open(os.path.join(change, "BENCHMARK.json"), encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    equal = total = 0
    for workload in workloads:
        old, new = run_traced(parent, workload), run_traced(change, workload)
        if old is None or new is None:
            return 1
        names = list(old) + [name for name in new if name not in old]
        same = 0
        for name in names:
            if old.get(name) == new.get(name):
                same += 1
            else:
                print(f"{workload} {name}: {old.get(name, '-')} -> {new.get(name, '-')}")
        print(f"{workload}: {same} of {len(names)} counts equal")
        equal, total = equal + same, total + len(names)
    print(f"{equal} of {total} counts equal")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
