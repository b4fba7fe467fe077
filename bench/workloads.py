"""The benchmark's workloads: `.hvs` model files and their expected verdicts.

Each workload is a list of model files, one `hypervec check` process per
file. The file text is fixed per workload; the workload seed reaches the
program only as the `--seed` flag of every check process, so the same
seed gives the same inputs and the same reports.

The expected verdicts are written out by hand here, from the paper's
claims as documented in the README, and are never taken from hypervec.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# Suite order of a full run (the order `check` directives are written in).
SUITES = (
    "wvs_axioms",
    "lemma_basic",
    "weak_normal",
    "strong_normal",
    "normal_equiv",
    "real_ip",
    "hip",
    "lemma_34",
    "theorem_normal",
    "norm_props",
)

ALL_PASS = {s: "pass" for s in SUITES}


@dataclass(frozen=True)
class Case:
    """One model file of a workload and the report it must produce."""

    slug: str
    family: str
    field: str
    dim: int
    inner: str
    checks: tuple[str, ...]
    verdicts: dict[str, str]
    # (suite, item id) -> status, for the items pinned one by one
    items: dict[tuple[str, str], str]
    exit_code: int

    @property
    def description(self) -> str:
        """The `model` line of the report: family, field, dimension."""
        return f"{self.family} {self.field} dim={self.dim}"

    def text(self) -> str:
        lines = [
            f'model "{self.slug}" {{',
            f"  field {self.field}",
            f"  dim {self.dim}",
            f"  product {self.family}",
            f"  inner {self.inner}",
            "}",
        ]
        lines += [f"check {c}" for c in self.checks]
        return "\n".join(lines) + "\n"

    @property
    def suites(self) -> tuple[str, ...]:
        return tuple(c.split()[0] for c in self.checks)


def _catalog() -> list[Case]:
    # The README's verdict table; only `trivial` is clean.
    table = {
        "trivial": dict(ALL_PASS),
        "zero_augmented": {**ALL_PASS, "real_ip": "fail"},
        "geometric(1/2)": {**ALL_PASS, "real_ip": "fail"},
        "geometric(2)": {
            **ALL_PASS,
            "real_ip": "unbounded",
            "hip": "fail",
            "lemma_34": "vacuous",
            "norm_props": "unbounded",
        },
        "sign": {
            **ALL_PASS,
            "strong_normal": "fail",
            "normal_equiv": "fail",
            "real_ip": "fail",
            "hip": "fail",
            "lemma_34": "vacuous",
            "norm_props": "vacuous",
        },
    }
    slugs = {
        "trivial": "trivial",
        "zero_augmented": "zero_augmented",
        "geometric(1/2)": "geometric_half",
        "geometric(2)": "geometric_two",
        "sign": "sign",
    }
    return [
        Case(
            slug=slugs[family],
            family=family,
            field="Q",
            dim=2,
            inner="dot",
            checks=SUITES,
            verdicts=verdicts,
            items={},
            exit_code=0 if family == "trivial" else 1,
        )
        for family, verdicts in table.items()
    ]


def _gaussian() -> list[Case]:
    # Over Q[i] the sup-based real_ip package has no precondition, and
    # both families satisfy every other law.
    return [
        Case(
            slug=slug,
            family=family,
            field="Qi",
            dim=2,
            inner="weighted_dot(2, 1/3)",
            checks=SUITES,
            verdicts={**ALL_PASS, "real_ip": "vacuous"},
            items={},
            exit_code=0,
        )
        for slug, family in (
            ("zero_augmented", "zero_augmented"),
            ("geometric_half", "geometric(1/2)"),
        )
    ]


_RAY_CHECKS = ("wvs_axioms depth=12 height=1000", "hip depth=12 height=1000")

_HIP_ITEMS = (
    "positive",
    "definite",
    "additive",
    "conjugate_symmetric",
    "essential_scaling",
    "unit_ball_bound",
)


def _hip_items(failing: str | None) -> dict[tuple[str, str], str]:
    return {
        ("hip", item): "fail" if item == failing else "pass" for item in _HIP_ITEMS
    }


def _rays() -> list[Case]:
    # geometric(2): 1 o x climbs past (x,x), so only the unit ball bound
    # fails. sign: (-ax, y) = -a(x,y), so only essential scaling fails.
    rows = (
        ("geometric_half", "geometric(1/2)", None),
        ("geometric_two", "geometric(2)", "unit_ball_bound"),
        ("sign", "sign", "essential_scaling"),
    )
    return [
        Case(
            slug=slug,
            family=family,
            field="Q",
            dim=4,
            inner="dot",
            checks=_RAY_CHECKS,
            verdicts={"wvs_axioms": "pass", "hip": "fail" if failing else "pass"},
            items=_hip_items(failing),
            exit_code=1 if failing else 0,
        )
        for slug, family, failing in rows
    ]


WORKLOADS = {
    "catalog": _catalog,
    "gaussian": _gaussian,
    "rays": _rays,
}


def generate(workload: str, dest: str) -> list[tuple[Case, str]]:
    """Write the workload's model files into dest; return (case, path) pairs."""
    out = []
    for case in WORKLOADS[workload]():
        path = os.path.join(dest, f"{workload}-{case.slug}.hvs")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(case.text())
        out.append((case, path))
    return out
