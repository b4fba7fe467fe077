"""Built-in model lineup and its documented verdict table.

Five families over Q in dimension 2, paired with the plain dot product,
exercise every behavior the suites can report: the trivial family
passes everything, the zero-augmented and contracting-ray families
break only the sup-based scaling law, the expanding ray produces
genuinely unbounded suprema, and the sign-pair family separates the two
normality readings (the sumset reading passes while the all-choices
reading fails).

EXPECTED_VERDICTS is the frozen summary of what a default-configuration
run produces, one verdict per suite, checker.roll_up of its items;
tests cross-check it against live runs so the table can never drift
from the code.
"""

from __future__ import annotations

from fractions import Fraction

from .checker import SUITE_NAMES
from .models import (
    Geometric,
    ModelSpec,
    Sign,
    Trivial,
    ZeroAugmented,
)
from .scalars import FieldTag


def catalog_models(dim: int = 2) -> list[tuple[str, ModelSpec]]:
    """The five built-in families over Q, in documented order, each
    named by its family's text form, the word a model file writes."""
    families = (Trivial(), ZeroAugmented(), Geometric(Fraction(1, 2)), Geometric(2), Sign())
    return [(str(family), ModelSpec(FieldTag.Q, dim, family)) for family in families]


_ALL_PASS = {name: "pass" for name in SUITE_NAMES}

EXPECTED_VERDICTS: dict[str, dict[str, str]] = {
    "trivial": dict(_ALL_PASS),
    "zero_augmented": {**_ALL_PASS, "real_ip": "fail"},
    "geometric(1/2)": {**_ALL_PASS, "real_ip": "fail"},
    "geometric(2)": {
        **_ALL_PASS,
        "real_ip": "unbounded",
        "hip": "fail",
        "lemma_34": "vacuous",
        "norm_props": "unbounded",
    },
    "sign": {
        **_ALL_PASS,
        "strong_normal": "fail",
        "normal_equiv": "fail",
        "real_ip": "fail",
        "hip": "fail",
        "lemma_34": "vacuous",
        "norm_props": "vacuous",
    },
}

# One-line context for the table; sign is the family where the two
# normality readings give different answers on the same samples.
CATALOG_NOTES: dict[str, str] = {
    "trivial": "singleton products; every suite passes",
    "zero_augmented": "products carry 0; sup scaling picks up a spurious 0",
    "geometric(1/2)": "contracting ray; sup may be a limit no element attains",
    "geometric(2)": "expanding ray; suprema genuinely unbounded",
    "sign": "two-element products; readings disagree on normality",
}

