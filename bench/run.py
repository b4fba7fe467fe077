"""hypervec benchmark: `hypervec check` end to end, and per layer when traced.

Usage (from the repository root):

    python3 bench/run.py --workload catalog --seed 42 --seconds 36 --trace 0

Load model: a closed loop with one client. The harness starts one
`python -m hypervec check <file> --json <out> --seed <seed>` process per
model file of the workload, the next only after the previous one exited,
cycling through the files while the next process is predicted to end
within `--seconds` (every file runs at least once). The time of a pass
over the files is the sum of each file's median process. Every report
is checked against the hand-written reference in `reference.py`.

With `--trace 0` the end-to-end metrics are reported. With `--trace 1`
one untraced pass is followed by the same checks run in-process through
`hypervec.cli.main`: twice with every layer wrapped (`tracing.py`), and
once with scalar construction and `isinstance` counted; the per-layer
metrics of the first traced run are reported, and its kept spans and
aggregates are written to `.bench_out/trace-<workload>-seed<seed>.json`.
A traced run makes each of those four passes once, whatever `--seconds`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 when
every check held, 1 when one did not, and 2 when the sources to measure
are missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(ROOT, "tests", "golden")
OUT = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, HERE)
from reference import check_report, samples_in  # noqa: E402
from workloads import SUITES, WORKLOADS, generate  # noqa: E402

# Fresh interpreters timed for setup_s; the median is reported. Host CPU
# speed drifts over seconds, so they run in pairs before every check
# process, spread over the run, and at least SETUP_MIN per run.
SETUP_MIN = 7
SETUP_PER_CHECK = 2
SETUP_CODE = (
    "import sys, hypervec.cli\n"
    "from hypervec.dsl import parse_model_file\n"
    "for p in sys.argv[1:]:\n"
    "    with open(p, encoding='utf-8') as fh:\n"
    "        parse_model_file(fh.read())\n"
)
# The golden reports pin the catalog at the CLI's default seed.
GOLDEN_SEED = 42


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(argv: list[str]) -> tuple[int, float, float, int]:
    """Run one child to completion: exit code, wall s, cpu s, max RSS in KiB."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, env=_child_env(), stdout=subprocess.DEVNULL, stdin=subprocess.DEVNULL
    )
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def check_argv(path: str, out: str, seed: int) -> list[str]:
    return ["check", path, "--json", out, "--seed", str(seed)]


@dataclass
class Pass:
    """Exit codes and reports of one run over a workload's model files."""

    wall_s: float = 0.0
    codes: list[int] = field(default_factory=list)
    reports: list[str] = field(default_factory=list)


@dataclass
class Process:
    """One measured `hypervec check` process."""

    file: int
    code: int
    wall_s: float
    cpu_s: float
    rss_kib: int
    report: str


def _read_and_remove(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        return ""
    os.remove(path)
    return text


def check_process(files, i: int, seed: int, outdir: str) -> Process:
    out = os.path.join(outdir, f"u{i}.json")
    code, wall, cpu, rss = _spawn(
        [sys.executable, "-m", "hypervec"] + check_argv(files[i][1], out, seed)
    )
    return Process(i, code, wall, cpu, rss, _read_and_remove(out))


def untraced_pass(files, seed: int, outdir: str) -> Pass:
    t0 = time.perf_counter()
    procs = [check_process(files, i, seed, outdir) for i in range(len(files))]
    return Pass(time.perf_counter() - t0, [p.code for p in procs], [p.report for p in procs])


def setup_time(files) -> float:
    """Wall time of a fresh interpreter that imports the CLI and parses the files."""
    code, wall, _cpu, _rss = _spawn([sys.executable, "-c", SETUP_CODE] + [p for _, p in files])
    if code != 0:
        raise RuntimeError(f"set-up process exited with {code}")
    return wall


def _import_hypervec():
    """Import the package under measurement from this checkout's sources."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import hypervec.cli

    if not os.path.abspath(hypervec.cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"hypervec imported from {hypervec.cli.__file__}, not {SRC}")
    return hypervec.cli


def inprocess_pass(files, seed: int, outdir: str) -> Pass:
    """The same checks through `hypervec.cli.main`, in this process."""
    cli = _import_hypervec()
    p = Pass()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        for i, (_case, path) in enumerate(files):
            out = os.path.join(outdir, f"t{i}.json")
            try:
                code = cli.main(check_argv(path, out, seed))
            except Exception:  # a crash is a failed check, reported below
                traceback.print_exc()
                code = -1
            p.codes.append(code)
            p.reports.append(_read_and_remove(out))
        p.wall_s = time.perf_counter() - t0
    return p


def traced_pass(files, seed: int, outdir: str):
    from tracing import Tracer

    _import_hypervec()
    tracer = Tracer()
    tracer.install()
    try:
        p = inprocess_pass(files, seed, outdir)
    finally:
        tracer.restore()
    return p, tracer


def _judge(case, seed: int, code: int, report: str, workload: str) -> list[str]:
    """Every way one check's exit code and report miss the reference."""
    problems = check_report(case, seed, report, code)
    if workload == "catalog" and seed == GOLDEN_SEED:
        with open(os.path.join(GOLDEN, f"{case.slug}.json"), encoding="utf-8") as fh:
            if fh.read() != report:
                problems.append(f"report differs from tests/golden/{case.slug}.json")
    return [f"{workload}/{case.slug}: {x}" for x in problems]


def _same(a: Pass, b: Pass, what: str) -> list[str]:
    if a.codes != b.codes:
        return [f"{what}: exit codes {a.codes} != {b.codes}"]
    return [f"{what}: report {i} differs" for i, (x, y) in enumerate(zip(a.reports, b.reports)) if x != y]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, files, tmp) -> tuple[dict, int, int, list[str]]:
    """Closed loop over the files until the next one would overrun `--seconds`.

    Every file runs at least once. wall_s and cpu_s are the sums over the
    files of each file's median process, i.e. the median cost of one pass.
    Set-up processes run before each check process.
    """
    setup_time(files)  # writes the bytecode caches; not counted
    n = len(files)
    setup: list[float] = []
    procs: list[Process] = []
    t0 = time.perf_counter()
    while True:
        setup += [setup_time(files) for _ in range(SETUP_PER_CHECK)]
        procs.append(check_process(files, len(procs) % n, args.seed, tmp))
        if len(procs) >= n:
            nxt = statistics.median(p.wall_s for p in procs if p.file == len(procs) % n)
            if time.perf_counter() - t0 + nxt + statistics.median(setup) > args.seconds:
                break
    while len(setup) < SETUP_MIN:
        setup.append(setup_time(files))
    by_file = [[p for p in procs if p.file == i] for i in range(n)]

    problems, failed = [], 0
    for p in procs:
        case = files[p.file][0]
        found = _judge(case, args.seed, p.code, p.report, args.workload)
        first = by_file[p.file][0]
        if (p.code, p.report) != (first.code, first.report):
            found.append(f"{args.workload}/{case.slug}: two untraced runs at one seed differ")
        failed += bool(found)
        problems += found

    wall = sum(statistics.median(p.wall_s for p in ps) for ps in by_file)
    cpu = sum(statistics.median(p.cpu_s for p in ps) for ps in by_file)
    samples = sum(samples_in(ps[0].report) for ps in by_file)
    print(
        f"{args.workload}: {len(procs)} processes, wall_s per file "
        f"{[[round(p.wall_s, 3) for p in ps] for ps in by_file]}, "
        f"setup_s {[round(s, 4) for s in setup]}, {samples} samples per pass",
        file=sys.stderr,
    )
    metrics = {
        "wall_s": _metric(wall, "s"),
        "cpu_s": _metric(cpu, "s"),
        "samples_per_s": _metric(samples / wall, "1/s"),
        "peak_rss_mb": _metric(max(p.rss_kib for p in procs) / 1024, "MB"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "ok_ratio": _metric((len(procs) - failed) / len(procs), "ratio"),
    }
    return metrics, len(procs), failed, problems


# (wrapped function, stats reported for it) of the traced run. Each
# metric is `<function>.<stat>`: calls are exact counts, incl_s is the
# time inside the outermost call, self_s excludes wrapped callees.
LAYER_STATS = (
    ("cli.main", ("incl_s",)),
    ("dsl.parse_model_file", ("calls", "incl_s")),
    ("checker.run_suites", ("calls",)),
    *((f"checker.suite.{s}", ("incl_s",)) for s in SUITES),
    ("checker.sample_stream", ("self_s",)),
    ("checker.render_json", ("incl_s",)),
    ("essential.essential_points", ("calls", "self_s", "incl_s")),
    ("essential.check_strong_normal", ("calls",)),
    ("essential.check_weak_normal", ("calls",)),
    ("inner.check_hip_axioms", ("calls",)),
    ("inner.pairing", ("calls", "self_s")),
    ("inner.norm_sq", ("calls",)),
    ("inner.sup_pairing", ("calls", "incl_s")),
    ("models.product", ("calls", "self_s", "incl_s")),
    ("models.ModelSpec.admit_vector", ("calls",)),
    ("models.finite", ("calls", "self_s")),
    ("models.contains", ("calls", "self_s")),
    ("models.sumset", ("calls", "incl_s")),
    ("models.intersect_nonempty", ("calls", "incl_s")),
    ("models.enumerate_set", ("calls",)),
    ("models.hyperset_eq", ("calls",)),
    ("vectors.Vector.scaled", ("calls", "self_s")),
    ("vectors.Vector.__add__", ("calls", "self_s")),
    ("vectors.Vector.__neg__", ("calls",)),
    ("vectors.vector_key", ("calls", "self_s")),
    ("scalars.GaussianRational.__mul__", ("calls", "self_s")),
    ("scalars.GaussianRational.__add__", ("calls",)),
    ("scalars.GaussianRational.__eq__", ("calls",)),
    ("scalars.invert", ("calls",)),
    ("scalars.make_scalar", ("calls",)),
)
UNITS = {"calls": "count", "incl_s": "s", "self_s": "s"}


def _layer_metrics(tracer, counts, traced: Pass, base: Pass) -> dict:
    from tracing import Stat

    m = {}
    for name, stats in LAYER_STATS:
        stat = tracer.stats.get(name, Stat())
        for s in stats:
            m[f"{name}.{s}"] = _metric(getattr(stat, s), UNITS[s])
    ess = tracer.stats["essential.essential_points"].calls
    meets = tracer.stats["models.intersect_nonempty"].calls
    m.update(
        {
            "checker.sample_stream.tuples": _metric(tracer.tuples, "count"),
            "essential.essential_points.distinct_ratio": _metric(
                len(tracer.essential_keys) / ess if ess else 0.0, "ratio"
            ),
            "inner.sup_pairing.unbounded": _metric(
                tracer.stats["inner.sup_pairing"].raised["UnboundedSupremumError"], "count"
            ),
            "models.intersect_nonempty.miss_ratio": _metric(
                tracer.intersect_misses / meets if meets else 0.0, "ratio"
            ),
            "scalars.fraction_new.calls": _metric(counts["fraction_new"], "count"),
            "scalars.isinstance.calls": _metric(counts["isinstance"], "count"),
            "trace.overhead_s": _metric(traced.wall_s - base.wall_s, "s"),
        }
    )
    return m


def per_layer(args, files, tmp) -> tuple[dict, int, int, list[str]]:
    from tracing import count_scalar_calls

    setup_time(files)  # writes the bytecode caches
    base = untraced_pass(files, args.seed, tmp)
    traced, tracer = traced_pass(files, args.seed, tmp)
    again, tracer2 = traced_pass(files, args.seed, tmp)
    counted, counts = count_scalar_calls(lambda: inprocess_pass(files, args.seed, tmp))

    problems, failed = [], 0
    for p in (base, traced, again, counted):
        for (case, _path), code, report in zip(files, p.codes, p.reports):
            found = _judge(case, args.seed, code, report, args.workload)
            failed += bool(found)
            problems += found
    problems += _same(base, traced, "traced run against the untraced one")
    problems += _same(base, again, "second traced run against the untraced one")
    problems += _same(base, counted, "counting run against the untraced one")
    first, second = tracer.counts(), tracer2.counts()
    problems += [
        f"{k}: {first.get(k)} calls in one traced run, {second.get(k)} in the other"
        for k in sorted(set(first) | set(second))
        if first.get(k) != second.get(k)
    ]

    with open(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"), "w") as fh:
        json.dump(tracer.dump(), fh, indent=1)
    print(
        f"{args.workload}: untraced {base.wall_s:.3f} s, traced {traced.wall_s:.3f} s "
        f"and {again.wall_s:.3f} s, counting {counted.wall_s:.3f} s; "
        f"{len(tracer.spans)} spans kept, {tracer.restored} bindings restored",
        file=sys.stderr,
    )
    return _layer_metrics(tracer, counts, traced, base), 4 * len(files), failed, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn a termination request into an exception, so the running child
    # is killed and reaped before the harness exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not 0 <= args.seed < 1 << 64:
        ap.error("--seed must fit in 64 unsigned bits")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    missing = [p for p in (os.path.join(SRC, "hypervec", "cli.py"), GOLDEN) if not os.path.exists(p)]
    if missing:
        print(f"error: nothing to measure here, missing {missing}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        files = generate(args.workload, tmp)
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed, problems = measure(args, files, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for problem in problems:
        print(f"MISMATCH {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
