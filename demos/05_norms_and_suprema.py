"""
Norms and suprema, exactly
==========================

Everything is rational arithmetic. Square roots never happen: norm laws
are checked in squared form, and "c <= sqrt(s1 * s2)" is decided by
comparing c^2 against s1 * s2 with the sign handled first. Suprema over
infinite rays come from a closed form, and a genuinely divergent sup is
reported as unbounded instead of a number.
"""

from fractions import Fraction

from hypervec import (
    DotProduct,
    FieldTag,
    Geometric,
    ModelSpec,
    SampleConfig,
    UnboundedSupremumError,
    ZeroAugmented,
    leq_sqrt_product,
    make_vector,
    norm_sq,
    run_suites,
    sup_pairing,
)

dot = DotProduct()
x = make_vector(FieldTag.Q, [1, 0])
y = make_vector(FieldTag.Q, [-1, 0])

# a shrinking ray's pairing values climb toward 0 without reaching it
shrink = ModelSpec(FieldTag.Q, 2, Geometric(Fraction(1, 2)))
r = sup_pairing(shrink, dot, 1, x, y)
print(f"shrinking ray, (x, y) < 0:  sup = {r.value}, attained = {r.attained}")

# a growing ray against a positively-paired y has no sup at all
grow = ModelSpec(FieldTag.Q, 2, Geometric(Fraction(2)))
try:
    sup_pairing(grow, dot, 1, x, x)
except UnboundedSupremumError as exc:
    print("growing ray, (x, y) > 0:   unbounded,", exc)

# same growing ray, negative pairing: the head is already the best
r = sup_pairing(grow, dot, 1, x, y)
print(f"growing ray, (x, y) < 0:   sup = {r.value} at {r.witness}")
print()

# the squared-form square root comparison
print("7 <= sqrt(5 * 10)?", leq_sqrt_product(Fraction(7), Fraction(5), Fraction(10)))
print("8 <= sqrt(5 * 10)?", leq_sqrt_product(Fraction(8), Fraction(5), Fraction(10)))
print()

# the norm suite needs the pointwise pairing axioms as a precondition;
# the runner checks them first and hands their report to it.
# zero_augmented has them, so its squared-norm laws all pass at scale
cfg = SampleConfig()
za = ModelSpec(FieldTag.Q, 2, ZeroAugmented())
(report,) = run_suites(za, dot, cfg, ["norm_props"])
print("zero_augmented norm suite:")
for item in report.items:
    print(f"    [{item.status}] {item.id}  ({item.samples} samples)")
print()

# on the growing ray the sup of squared norms over a o x diverges,
# and the report says so rather than inventing a value
(report,) = run_suites(grow, dot, cfg, ["norm_props"])
item = report.item("sup_scaling")
print("geometric(2) norm sup:", item.status)
print("   ", item.witnesses[0].relation)
print("nsq((1,0)) =", norm_sq(dot, x), "but 1 o (1,0) sweeps {(2^k, 0)}")
