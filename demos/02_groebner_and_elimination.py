#!/usr/bin/env python3
"""The Groebner kernel: canonical bases, elimination, radicals, dimension.

Reduced bases are unique for (ideal, order), which is what makes every
downstream verdict deterministic and re-checkable.
"""

from polymap import Block, Ideal, Poly, VarContext, buchberger, parse_poly

print("=" * 60)
print("1. Reduced bases are canonical")
print("=" * 60)

tuv = VarContext(("t", "u", "v"))
graph = Ideal(tuv, (parse_poly("u - t^2", tuv), parse_poly("v - t^3", tuv)))
basis = graph.groebner_basis(Block.first(1))  # eliminate t first
print("block-order basis of the twisted-cubic-style graph:")
for g in basis:
    print(f"   {g}")
print("same basis under both selection strategies:",
      buchberger(graph.generators, Block.first(1), "normal")
      == buchberger(graph.generators, Block.first(1), "first"))

print()
print("=" * 60)
print("2. Elimination = implicitization")
print("=" * 60)

curve = graph.eliminate(["t"])
print(f"eliminating t from (u - t^2, v - t^3) leaves: {curve}")
print("so the image of t -> (t^2, t^3) lies on the cuspidal cubic.")

print()
print("=" * 60)
print("3. Normal forms and membership")
print("=" * 60)

xy = VarContext(("x", "y"))
ideal = Ideal(xy, (parse_poly("x^2 - y", xy),))
f = parse_poly("x^4 + x^2*y + y^2", xy)
print(f"normal form of {f} modulo (x^2 - y): {ideal.normal_form(f)}")
print(f"x^2 - y in the ideal: {ideal.contains(parse_poly('x^2 - y', xy))}")

print()
print("=" * 60)
print("4. Radical membership (vanishing over the algebraic closure)")
print("=" * 60)

squares = Ideal(xy, (parse_poly("x^2", xy),))
print(f"x in rad(x^2): {squares.radical_contains(Poly.variable(xy, 'x'))}")
print(f"y in rad(x^2): {squares.radical_contains(Poly.variable(xy, 'y'))}")

print()
print("=" * 60)
print("5. Saturation, dimension")
print("=" * 60)

x, y = Poly.variables(xy)
print(f"sat(x^2*y, x)    = {Ideal(xy, (x ** 2 * y,)).saturation(x)}")
uv = VarContext(("u", "v"))
print(f"dim of the cusp curve  : {Ideal(uv, (parse_poly('u^3 - v^2', uv),)).dimension()}")
print(f"dim of the whole plane : {Ideal.zero(uv).dimension()}")
print(f"dim of the empty locus : {Ideal.unit(uv).dimension()}  (unit ideal convention)")
