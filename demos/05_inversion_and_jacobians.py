#!/usr/bin/env python3
"""Self-maps of affine space: Jacobians, constructive inversion, and the
equivalence harness for etale maps.

For a polynomial self-map with constant nonzero Jacobian determinant,
injectivity (every coordinate determined on the fibers, a fiber-ideal
computation) and constructive invertibility (interpolation on the graph
ideal) must agree.
"""

import random

from polymap import (
    Endomorphism,
    VarContext,
    etale_dichotomy,
    invert,
    is_etale,
    jacobian_determinant,
    jc_criteria,
    load_fixture,
    parse_poly,
    random_tame_automorphism,
)

xy = VarContext(("x", "y"))
uv = VarContext(("u", "v"))

print("=" * 60)
print("1. Jacobian determinants")
print("=" * 60)

tri = Endomorphism(xy, uv, [parse_poly("x + y^2", xy), parse_poly("y", xy)])
sq = Endomorphism(xy, uv, [parse_poly("x^2", xy), parse_poly("y", xy)])
print(f"(x + y^2, y): det = {jacobian_determinant(tri)}   etale: {is_etale(tri)}")
print(f"(x^2, y)    : det = {jacobian_determinant(sq)}  etale: {is_etale(sq)}")

print()
print("=" * 60)
print("2. Constructive inversion with exact certificates")
print("=" * 60)

result = invert(tri)
print(f"inverse of (x + y^2, y): {[str(c) for c in result.inverse.coords]}")
shear = Endomorphism(xy, uv, [parse_poly("x", xy), parse_poly("x*y", xy)])
print(f"inverse of (x, x*y): {invert(shear).ok} (coordinate {invert(shear).failing_coordinate} is not a function of the map)")

print()
print("=" * 60)
print("3. The equivalence harness on random certified automorphisms")
print("=" * 60)

rng = random.Random(11)
for i in range(5):
    endo, word_inverse = random_tame_automorphism(rng)
    rep = jc_criteria(endo)
    print(f"   map {[str(c) for c in endo.coords]}")
    print(f"      injective={rep.injective} determined={list(rep.coords_determined)} "
          f"invertible={rep.invertible} consistent={rep.consistent}")

print()
print("=" * 60)
print("4. Injective etale maps: hypersurface complement or isomorphism")
print("=" * 60)

hyper = load_fixture("hyperbola").morphism()
rep = etale_dichotomy(hyper)
print(f"hyperbola projection x -> u on x*z = 1: branch = {rep.branch} "
      f"(misses V({rep.surjectivity.complement_closure}))")
rep = etale_dichotomy(load_fixture("triangular").morphism())
print(f"triangular automorphism: branch = {rep.branch}, inverse = {[str(p) for p in rep.inverse]}")
print()
print("note: the cusp parametrization must NOT be asserted etale (it is")
print("ramified at the origin); the engine refuses the dichotomy without")
print("the assertion rather than silently trusting it.")
