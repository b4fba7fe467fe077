"""Checks a `hypervec check` report against the workload's expectations.

Nothing here imports hypervec: the verdict rollup, the exit-code rule
and the witness replays are written out independently, so a defect in
the program cannot vouch for itself.
"""

from __future__ import annotations

import json
from fractions import Fraction

STATUSES = ("pass", "fail", "vacuous", "unbounded")


def rollup(statuses: list[str]) -> str:
    """Suite verdict: unbounded > fail > pass; vacuous only if all items are."""
    if "unbounded" in statuses:
        return "unbounded"
    if "fail" in statuses:
        return "fail"
    if statuses and all(s == "vacuous" for s in statuses):
        return "vacuous"
    return "pass"


def _vector(text: str) -> tuple[Fraction, ...]:
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"not a vector: {text!r}")
    return tuple(Fraction(part.strip()) for part in text[1:-1].split(","))


def _dot(x, y) -> Fraction:
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def _replay_unit_ball(b: dict[str, str], family: str) -> str | None:
    """u = x*r^k lies in 1 o x, and (u,u) > (x,x) as stated."""
    ratio = Fraction(family[len("geometric(") : -1])
    x, u = _vector(b["x"]), _vector(b["u"])
    scaled, k = x, 0
    while u != scaled and k < 64:
        scaled = tuple(c * ratio for c in scaled)
        k += 1
    if u != scaled:
        return f"u is not x*{ratio}^k"
    uu, xx = _dot(u, u), _dot(x, x)
    if (str(uu), str(xx)) != (b["(u,u)"], b["(x,x)"]):
        return "stated lengths differ from the recomputed ones"
    if not uu > xx:
        return "(u,u) does not exceed (x,x)"
    return None


def _replay_sign_scaling(b: dict[str, str], family: str) -> str | None:
    """e = +-a*x lies in a o x, and (e,y) != a*(x,y) as stated."""
    a = Fraction(b["a"])
    x, y, e = _vector(b["x"]), _vector(b["y"]), _vector(b["e"])
    ax = tuple(a * c for c in x)
    if e != ax and e != tuple(-c for c in ax):
        return "e is not +-a*x"
    got, want = _dot(e, y), a * _dot(x, y)
    if (str(got), str(want)) != (b["(e,y)"], b["a*(x,y)"]):
        return "stated pairings differ from the recomputed ones"
    if got == want:
        return "(e,y) equals a*(x,y)"
    return None


# (suite, item, family prefix) -> replay of one witness of that failure
_REPLAYS = {
    ("hip", "unit_ball_bound", "geometric("): _replay_unit_ball,
    ("hip", "essential_scaling", "sign"): _replay_sign_scaling,
}


def _replay(case, suite: str, item: dict) -> list[str]:
    """Re-derive every witness of the failures whose cause is known."""
    for (s, i, prefix), replay in _REPLAYS.items():
        if (s, i) == (suite, item["id"]) and case.family.startswith(prefix):
            return [
                f"{suite}.{i} witness {w['bindings']}: {problem}"
                for w in item["witnesses"]
                if (problem := replay(w["bindings"], case.family))
            ]
    return []


def _check_suites(case, suites: list) -> tuple[list[str], bool]:
    problems, dirty = [], False
    for suite in suites:
        name, items = suite["name"], suite["items"]
        statuses = [it["status"] for it in items]
        if not items or any(s not in STATUSES for s in statuses):
            problems.append(f"{name}: bad item statuses {statuses}")
            continue
        dirty |= any(s in ("fail", "unbounded") for s in statuses)
        verdict = rollup(statuses)
        if verdict != case.verdicts[name]:
            problems.append(f"{name}: verdict {verdict} != {case.verdicts[name]}")
        for it in items:
            status, witnesses = it["status"], it["witnesses"]
            want = case.items.get((name, it["id"]))
            if want is not None and status != want:
                problems.append(f"{name}.{it['id']}: {status} != {want}")
            if (status == "pass" and witnesses) or (status == "fail" and not witnesses):
                problems.append(f"{name}.{it['id']}: {status} with {len(witnesses)} witnesses")
            if status == "fail":
                problems += _replay(case, name, it)
    return problems, dirty


def check_report(case, seed: int, text: str, exit_code: int) -> list[str]:
    """Every way the report or exit code departs from the reference."""
    try:
        doc = json.loads(text)
        problems = []
        if doc["model"] != case.description:
            problems.append(f"model {doc['model']!r} != {case.description!r}")
        if doc["seed"] != seed:
            problems.append(f"seed {doc['seed']!r} != {seed}")
        names = tuple(s["name"] for s in doc["suites"])
        if names != case.suites:
            return problems + [f"suites {names} != {case.suites}"]
        found, dirty = _check_suites(case, doc["suites"])
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"malformed report: {exc!r}"]
    problems += found
    if exit_code != case.exit_code:
        problems.append(f"exit code {exit_code} != {case.exit_code}")
    if exit_code != (1 if dirty else 0):
        problems.append(f"exit code {exit_code} disagrees with the report")
    return problems


def samples_in(text: str) -> int:
    """Sum of every report item's `samples` field; 0 for a malformed report."""
    try:
        doc = json.loads(text)
        return sum(it["samples"] for s in doc["suites"] for it in s["items"])
    except (ValueError, KeyError, TypeError):
        return 0
