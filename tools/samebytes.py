"""Same bytes: `hypervec` runs of a parent checkout against a change checkout.

Usage (any working directory):

    python3 tools/samebytes.py PARENT CHANGE

PARENT and CHANGE are two checkouts of this repository. For each run
below, each tree runs `python -m hypervec check FILE --json OUT FLAGS`
with PYTHONPATH=TREE/src and PYTHONDONTWRITEBYTECODE=1, from a temporary
working directory:

* every workload file of the change's bench/workloads.py (written by its
  generate into a temporary directory) and every file of the change's
  tests/corpus/valid and tests/corpus/invalid, at `--seed 42` and
  `--seed 7`;
* each case of FLAG_CASES on the first catalog workload file and on
  tests/corpus/valid/v01_minimal.hvs.

Each case of COMMAND_CASES runs another subcommand the same way,
`python -m hypervec COMMAND [FILE] FLAGS`, its FILE in the change's
tests/corpus/valid.

A run is identical when the two trees give the same stdout, stderr, JSON
report bytes (or both write none) and exit code. The tool prints each
run that differs and in what, then `N of M runs identical`. The exit
code is 0 when every run is identical, 1 otherwise, and 2 with a
one-line usage when either path has no src/hypervec. Nothing is written
into either tree. Stdlib only.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import tempfile

SEEDS = ("42", "7")
# the flag values at and past every bound, and mixes that fix the order
# in which bad flags are reported
FLAG_CASES = (
    ("--samples", "0"),
    ("--samples", "100001"),
    ("--samples", "7"),
    ("--seed", "-1"),
    ("--seed", str(2**64)),
    ("--depth", "0"),
    ("--depth", "3"),
    ("--samples", "0", "--depth", "0"),
    ("--seed", "-1", "--depth", "0"),
    ("--samples", "7", "--depth", "0"),
    ("--samples", "7", "--seed", "7", "--depth", "3"),
)
# the other subcommands: (file or None, flags, command). The Q[i]
# essential runs take equal and unequal denominators and a scalar that
# does not parse (exit 2); the sup runs are attained, not attained and
# unbounded; the last essential run exits 2 on a vector of the wrong
# dimension, and the last two sup runs exit 2 on the field Q[i] and on
# a --y of the wrong dimension.
COMMAND_CASES = (
    (None, (), "catalog"),
    ("v05_sign.hvs", ("--a", "3", "--x", "(1, 2)"), "essential"),
    ("v05_sign.hvs", ("--a", "0", "--x", "(1, 2)"), "essential"),
    ("v11_qi_inner.hvs", ("--a", "1+i", "--x", "(1, i)"), "essential"),
    ("v11_qi_inner.hvs", ("--a", "1/2+1/3*i", "--x", "(1, i)"), "essential"),
    ("v11_qi_inner.hvs", ("--a", "2i", "--x", "(1, i)"), "essential"),
    ("v03_geometric_fraction.hvs", ("--a", "1", "--x", "(1)", "--y", "(-1)"), "sup"),
    ("v04_geometric_integer.hvs", ("--a", "1", "--x", "(1, 0)", "--y", "(1, 0)"), "sup"),
    ("v06_weighted.hvs", ("--a", "2", "--x", "(1, 2, 3)", "--y", "(1, 0, 1)"), "sup"),
    ("v05_sign.hvs", ("--a", "3", "--x", "(1, 2, 3)"), "essential"),
    ("v11_qi_inner.hvs", ("--a", "1", "--x", "(1, i)", "--y", "(1, 0)"), "sup"),
    ("v06_weighted.hvs", ("--a", "2", "--x", "(1, 2, 3)", "--y", "(1, 0)"), "sup"),
)
USAGE = "usage: python3 tools/samebytes.py PARENT CHANGE"


def run(tree: str, path: str | None, flags: tuple[str, ...], workdir: str, command="check") -> dict:
    """stdout, stderr, JSON report (None when none is written) and exit
    code of one run of tree's package, from workdir: a check run writes
    its JSON report, another command is given no path when path is None."""
    out = os.path.join(workdir, "report.json")
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "hypervec", command]
    if path is not None:
        argv.append(path)
    if command == "check":
        argv += ["--json", out]
    proc = subprocess.run([*argv, *flags], cwd=workdir, env=env, capture_output=True)
    try:
        with open(out, "rb") as fh:
            report = fh.read()
        os.remove(out)
    except FileNotFoundError:
        report = None
    return {"stdout": proc.stdout, "stderr": proc.stderr, "json": report, "exit code": proc.returncode}


def compare(parent: str, change: str, cases) -> list[tuple[str, list[str]]]:
    """The runs of cases whose results differ between the trees: (label,
    the parts that differ), the label being the command unless it is
    check, the file name and the flags. A case is (path, flags), run by
    check, or (path, flags, command)."""
    differ = []
    with tempfile.TemporaryDirectory() as workdir:
        for path, flags, *command in cases:
            old = run(parent, path, flags, workdir, *command)
            new = run(change, path, flags, workdir, *command)
            parts = [part for part in old if old[part] != new[part]]
            if parts:
                named = () if path is None else (os.path.basename(path),)
                differ.append((" ".join((*command, *named, *flags)), parts))
    return differ


def command_cases(tree: str) -> list[tuple[str | None, tuple[str, ...], str]]:
    """COMMAND_CASES, each file a path into tree's tests/corpus/valid."""
    valid = os.path.join(tree, "tests", "corpus", "valid")
    return [
        (name and os.path.join(valid, name), flags, command)
        for name, flags, command in COMMAND_CASES
    ]


def check_cases(tree: str, dest: str) -> list[tuple]:
    """Every run, with tree's workload files written into dest."""
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(tree, "bench", "workloads.py")
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses looks its module up
    sys.dont_write_bytecode, kept = True, sys.dont_write_bytecode  # no bench/__pycache__
    try:
        spec.loader.exec_module(workloads)
    finally:
        sys.dont_write_bytecode = kept
        del sys.modules[spec.name]
    generated = {name: [p for _, p in workloads.generate(name, dest)] for name in workloads.WORKLOADS}
    corpus = os.path.join(tree, "tests", "corpus")
    files = [path for paths in generated.values() for path in paths] + [
        os.path.join(corpus, kind, name)
        for kind in ("valid", "invalid")
        for name in sorted(os.listdir(os.path.join(corpus, kind)))
        if name.endswith(".hvs")
    ]
    flagged = (generated["catalog"][0], os.path.join(corpus, "valid", "v01_minimal.hvs"))
    return (
        [(path, ("--seed", seed)) for path in files for seed in SEEDS]
        + [(path, flags) for path in flagged for flags in FLAG_CASES]
        + command_cases(tree)
    )


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(os.path.isdir(os.path.join(t, "src", "hypervec")) for t in argv):
        print(USAGE, file=sys.stderr)
        return 2
    parent, change = map(os.path.abspath, argv)
    with tempfile.TemporaryDirectory() as dest:
        cases = check_cases(change, dest)
        differ = compare(parent, change, cases)
    for label, parts in differ:
        print(f"differs: {label}: {', '.join(parts)}")
    print(f"{len(cases) - len(differ)} of {len(cases)} runs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
