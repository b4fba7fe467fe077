"""
A tour of the built-in product families
========================================

Scalar multiplication here returns a set of vectors, not a single one.
This script builds each family over Q^2 and prints what 3 o (1, 2)
actually is in each of them.
"""

from fractions import Fraction

from hypervec import (
    FieldTag,
    Geometric,
    ModelSpec,
    Sign,
    Trivial,
    ZeroAugmented,
    enumerate_set,
    make_vector,
    product,
)

x = make_vector(FieldTag.Q, [1, 2])

families = [
    Trivial(),
    ZeroAugmented(),
    Geometric(Fraction(1, 2)),
    Geometric(Fraction(2)),
    Sign(),
]

for family in families:
    model = ModelSpec(FieldTag.Q, 2, family)
    s = product(model, 3, x)
    print(f"{model.describe():26}  3 o (1, 2) = {str(s)}")

# the ray is infinite; enumerate_set walks it to a chosen depth
print()
model = ModelSpec(FieldTag.Q, 2, Geometric(Fraction(1, 2)))
s = product(model, 3, x)
print("first five points of the shrinking ray:")
for v in enumerate_set(s, 5):
    print("   ", v)

# every family sends a = 0 (and x = 0) to the singleton {0}
zero = make_vector(FieldTag.Q, [0, 0])
for family in families:
    model = ModelSpec(FieldTag.Q, 2, family)
    assert str(product(model, 0, x)) == "{(0, 0)}"
    assert str(product(model, 3, zero)) == "{(0, 0)}"
print()
print("0 o x = a o 0 = {0} everywhere, as required")
