#!/usr/bin/env python3
"""Exact polynomial arithmetic: parsing, substitution, calculus.

Everything is computed over the rationals with no floating point
anywhere, so every identity printed below is exact.
"""

from fractions import Fraction

from polymap import Poly, VarContext, parse_poly

print("=" * 60)
print("1. Contexts and parsing")
print("=" * 60)

xy = VarContext(("x", "y"))
p = parse_poly("x^2*y - 3", xy)
print(f"parsed      : {p}")
print(f"round trip  : {parse_poly(str(p), xy) == p}")
print(f"cancellation: (x+y)^2 - x^2 - 2*x*y - y^2 = {parse_poly('(x+y)^2 - x^2 - 2*x*y - y^2', xy)}")

try:
    parse_poly("y/x", xy)
except Exception as err:
    print(f"y/x rejected: {err}")

print()
print("=" * 60)
print("2. Ring arithmetic and substitution")
print("=" * 60)

x, y = Poly.variables(xy)
print(f"(x+y)*(x-y) = {(x + y) * (x - y)}")
print(f"(x+y^2)^2   = {(x + y ** 2) ** 2}")

t = VarContext(("t",))
uv = VarContext(("u", "v"))
relation = parse_poly("u^3 - v^2", uv)
image = relation.substitute({"u": parse_poly("t^2", t), "v": parse_poly("t^3", t)})
print(f"u^3 - v^2 at (t^2, t^3) = {image}   (the parametrization satisfies the relation)")

print()
print("=" * 60)
print("3. Derivatives and exact evaluation")
print("=" * 60)

f = parse_poly("x^3*y - 2*x*y + 1/2", xy)
print(f"f           = {f}")
print(f"df/dx       = {f.derivative('x')}")
print(f"f(2, 1/3)   = {f.evaluate([2, Fraction(1, 3)])}")
