"""Dimension sweep: the catalog at several dimensions, a parent checkout against a change checkout.

Usage (any working directory):

    python3 tools/dimsweep.py PARENT CHANGE [--pairs 5] [--dims 1,2,8,32,64]

PARENT and CHANGE are two checkouts of this repository. Each pair runs
each tree once in a fresh interpreter, with PYTHONPATH=TREE/src and
PYTHONDONTWRITEBYTECODE=1, from a temporary working directory. The
parent runs first in the 1st, 3rd, 5th ... pair and second in the
others, so a drift of the host's speed falls on both sides alike. In
its process a tree runs every suite on the five catalog families
(catalog_models) at each dimension, with the dot product and the
default config, and measures the process CPU time of each dimension.

It prints, per dimension, each side's median and quartiles and the pairs
the change won (abpairs.summarize), then its reading (abpairs.reading:
better, worse or within spread), then one JSON line with every run's
times. The exit code is 1 when a run fails, 2 with the usage on bad
arguments, and 0 otherwise. Nothing is written into either tree. Stdlib
only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

_SPEC = importlib.util.spec_from_file_location(
    "abpairs", os.path.join(os.path.dirname(os.path.abspath(__file__)), "abpairs.py")
)
abpairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(abpairs)

# The dimensions a model admits (models.MAX_DIM).
MAX_DIM = 64

# Run in each tree's process: argv holds the dimensions, stdout gets the
# CPU seconds of each, in order, as one JSON list.
_SWEEP = """
import json, sys, time
from hypervec.catalog import catalog_models
from hypervec.checker import SUITE_NAMES, SampleConfig, run_suites
from hypervec.inner import DotProduct

times = []
for dim in map(int, sys.argv[1:]):
    start = time.process_time()
    for _, model in catalog_models(dim):
        run_suites(model, DotProduct(), SampleConfig(), list(SUITE_NAMES))
    times.append(time.process_time() - start)
print(json.dumps(times))
"""


def parse_dims(text: str) -> list[int]:
    """The dimensions of a comma-separated list, each from 1 to MAX_DIM."""
    try:
        dims = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}") from None
    if not all(1 <= dim <= MAX_DIM for dim in dims):
        raise argparse.ArgumentTypeError(f"each dimension must be from 1 to {MAX_DIM}")
    return dims


def run_tree(tree: str, dims: list[int]) -> list[float] | None:
    """The CPU seconds of each dimension in one fresh process of tree, or
    None when the run failed."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as cwd:
        argv = [sys.executable, "-c", _SWEEP, *map(str, dims)]
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    try:
        times = json.loads(proc.stdout)
    except ValueError:
        times = None
    if proc.returncode != 0 or times is None:
        print(f"FAILED {tree}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return None
    return times


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--dims", type=parse_dims, default=[1, 2, 8, 32, 64])
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be positive")
    for tree in (args.parent, args.change):
        if not os.path.isdir(os.path.join(tree, "src", "hypervec")):
            ap.error(f"{tree} has no src/hypervec")
    names = [f"dim {dim}" for dim in args.dims]

    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {}
        for side in order:
            times = run_tree(getattr(args, side), args.dims)
            if times is None:
                return 1
            runs[side] = dict(zip(names, times))
        print(
            f"pair {i + 1} ({order[0]} first): "
            + ", ".join(f"{n} {runs['parent'][n]:.3f} -> {runs['change'][n]:.3f} s" for n in names),
            file=sys.stderr,
        )
        pairs.append((runs["parent"], runs["change"]))
    rows = abpairs.summarize(pairs, dict.fromkeys(names, "lower"))
    print(f"catalog CPU seconds per dimension: {args.pairs} pairs")
    print(abpairs.format_rows(rows))
    readings = {row["metric"]: abpairs.reading(row) for row in rows}
    print("reading: " + ", ".join(f"{name} {r}" for name, r in readings.items()))
    print(json.dumps({"dims": args.dims, "pairs": [list(p) for p in pairs], "readings": readings}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
