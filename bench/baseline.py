"""Run every workload of BENCHMARK.json several times and summarise it.

    python3 bench/baseline.py [--out PATH]

Each workload is run RUNS times untraced, with seeds 42, 43, ...,
through the benchmark's own command, one run at a time. For every
end-to-end metric the median, the quartiles (`statistics.quantiles`,
n=4) and the spread, (q3 - q1) / median, are printed beside the metric's
bound; a spread above a third of the bound is flagged. With `--out`,
one traced run per workload at seed 42 follows, and the medians, the
per-layer metrics and the environment are written to PATH as the
baseline later changes are compared against.

Exits 1 if any run failed or reported `correct: false`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIRST_SEED = 42
RUNS = 10


def _run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    if proc.returncode != 0 or not result["correct"]:
        sys.stderr.write(proc.stderr)
        result["correct"] = False
    return result


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="also run traced and write the baseline here")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ok = True
    baseline = {
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
        },
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    seeds = list(range(FIRST_SEED, FIRST_SEED + RUNS))
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_run(spec, workload, seed, 0) for seed in seeds]
        ok &= all(r["correct"] for r in runs)
        summary = {}
        print(f"== {workload}: {RUNS} runs, seeds {seeds[0]}..{seeds[-1]}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs if m["name"] in r["metrics"]]
            if len(values) < 2:
                ok = False
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            flag = "  <-- above a third of the bound" if spread > m["bound"] / 3 else ""
            print(
                f"  {m['name']:14s} {med:12.5g} {m['unit']:6s} q1 {q1:.5g} q3 {q3:.5g} "
                f"spread {spread:.4f} (bound {m['bound']}){flag}"
            )
            summary[m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "values": values,
            }
        entry = {"seeds": seeds, "end_to_end": summary}
        if args.out:
            traced = _run(spec, workload, FIRST_SEED, 1)
            ok &= traced["correct"]
            entry["per_layer_seed"] = FIRST_SEED
            entry["per_layer"] = traced["metrics"]
            for name, metric in traced["metrics"].items():
                print(f"  {name:50s} {metric['value']:14.6g} {metric['unit']}")
        baseline["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
    print("all runs correct" if ok else "SOME RUNS FAILED OR WERE INCORRECT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
