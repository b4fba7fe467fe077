"""
Essential points
================

An element e of a o x is essential when the product can be walked back:
x lies in inv(a) o e. The essential points are the ones that behave
like an actual scalar multiple.
"""

from fractions import Fraction

from hypervec import (
    FieldTag,
    Geometric,
    ModelSpec,
    Sign,
    ZeroAugmented,
    essential_points,
    make_vector,
    product,
)

x = make_vector(FieldTag.Q, [1, 2])

# the zero-augmented family pads every product with the origin,
# but the origin is not essential: you cannot get back to x from it
model = ModelSpec(FieldTag.Q, 2, ZeroAugmented())
print("3 o (1, 2)        =", str(product(model, 3, x)))
print("essential points  =", essential_points(model, 3, x))
print()

# the sign family keeps both ax and -ax, and both are essential;
# this is the family where essential sets stop being singletons
sign = ModelSpec(FieldTag.Q, 2, Sign())
e1 = make_vector(FieldTag.Q, [1, 0])
print("sign: 1 o (1, 0)  =", str(product(sign, 1, e1)))
print("essential points  =", essential_points(sign, 1, e1))
print()

# on a geometric ray only the head survives: any deeper point e = ax r^k
# with k > 0 would need x in inv(a) o e, and that ray only moves farther away
ray_model = ModelSpec(FieldTag.Q, 2, Geometric(Fraction(1, 2)))
print("ray: 2 o (3, 0)   =", str(product(ray_model, 2, make_vector(FieldTag.Q, [3, 0]))))
print("essential points  =", essential_points(ray_model, 2, make_vector(FieldTag.Q, [3, 0])))
print()

# a = 0 is special-cased: the essential set is {0} by convention
for m in (model, sign, ray_model):
    assert str(essential_points(m, 0, x)) == "{(0, 0)}"
print("E at a = 0 is {(0, 0)} in every family")
