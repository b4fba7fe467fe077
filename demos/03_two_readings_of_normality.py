"""
Two readings of normality
=========================

Normality relates essential points of a1 o x and a2 o x to those of
(a1 + a2) o x. There are two natural readings:

  weak   - the sumset of the two essential sets MEETS the target set
  strong - EVERY choice of essential points sums to an essential point

The sign family tells them apart. Both of its essential sets are
{ax, -ax}; picking ax from one and -ax from the other sums to 0, which
is not essential for (a1 + a2) o x. The sumset still meets the target,
so the weak reading is satisfied.
"""

from hypervec import (
    FieldTag,
    ModelSpec,
    SampleConfig,
    Sign,
    ZeroAugmented,
    check_normal_equivalence,
    check_strong_normal,
    check_weak_normal,
)

sign = ModelSpec(FieldTag.Q, 2, Sign())

cfg = SampleConfig()
weak = check_weak_normal(sign, cfg)
strong = check_strong_normal(sign, cfg)
print("sign, weak reading  :", [f"{i.id}={i.status}" for i in weak.items])
print("sign, strong reading:", [f"{i.id}={i.status}" for i in strong.items])
print()

witness = strong.item("scalar_condition").witnesses[0]
print("a concrete bad choice of essential points:")
for key, value in witness.bindings.items():
    print(f"    {key:8} = {value}")
print("   ", witness.relation)
print()

# the combined report compares the two and flags the disagreement
equiv = check_normal_equivalence(sign, cfg, weak, strong)
flag = equiv.item("readings_agree")
print("readings_agree:", flag.status)
print(flag.witnesses[0].relation)
print()

# families with singleton essential sets cannot tell the readings apart
za = ModelSpec(FieldTag.Q, 2, ZeroAugmented())
za_weak = check_weak_normal(za, cfg)
za_strong = check_strong_normal(za, cfg)
assert check_normal_equivalence(za, cfg, za_weak, za_strong).all_passed
print("zero_augmented: both readings pass, nothing to disagree about")
