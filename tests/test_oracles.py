"""Differential oracle: reduced Groebner bases, normal forms, saturations,
radical membership and eliminations against sympy's, which shares no
code with the polymap kernel."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.orderings import ProductOrder, grevlex  # noqa: E402

from polymap import (  # noqa: E402
    AffineVariety, Block, GREVLEX, GRLEX, LEX, Ideal, Morphism, Poly, VarContext, buchberger, normal_form,
)

from conftest import random_nonzero_poly, random_poly  # noqa: E402

XYZ = VarContext(("x", "y", "z"))
SYMBOLS = sympy.symbols("x y z")
ORDERS = {
    "lex": (LEX, "lex"),
    "grlex": (GRLEX, "grlex"),
    "grevlex": (GREVLEX, "grevlex"),
    # Block.first(1): grevlex on x, ties broken by grevlex on (y, z).
    "block1": (Block.first(1), ProductOrder((grevlex, lambda m: m[:1]), (grevlex, lambda m: m[1:]))),
}


def to_sympy(p: Poly, symbols=SYMBOLS):
    return sum((sympy.Rational(c.numerator, c.denominator) * sympy.prod(s ** e for s, e in zip(symbols, m))
                for m, c in p.terms()), sympy.Integer(0))


def from_sympy(expr, ctx: VarContext = XYZ, symbols=SYMBOLS) -> Poly:
    return Poly(ctx, {m: Fraction(int(c.p), int(c.q)) for m, c in sympy.Poly(expr, *symbols).terms()})


@pytest.mark.parametrize("name", ORDERS)
def test_reduced_bases_match_sympy(name):
    order, sympy_order = ORDERS[name]
    rng = random.Random(4242)
    for trial in range(40):
        gens = [random_nonzero_poly(rng, XYZ, max_deg=3, max_terms=5) for _ in range(rng.randint(2, 3))]
        theirs = sympy.groebner([to_sympy(g) for g in gens], *SYMBOLS, order=sympy_order, domain="QQ")
        expected = {from_sympy(g).monic(order) for g in theirs.exprs}
        ours = buchberger(gens, order)
        assert len(ours) == len(expected) and set(ours) == expected, (name, trial, gens)


@pytest.mark.parametrize("name", ORDERS)
def test_normal_forms_match_sympy(name):
    # A remainder modulo a Groebner basis depends only on the ideal and the
    # order, so the two engines must agree term for term.
    order, sympy_order = ORDERS[name]
    rng = random.Random(4343)
    for trial in range(30):
        gens = [random_nonzero_poly(rng, XYZ, max_deg=3, max_terms=5) for _ in range(rng.randint(2, 3))]
        theirs = sympy.groebner([to_sympy(g) for g in gens], *SYMBOLS, order=sympy_order, domain="QQ")
        ours = buchberger(gens, order)
        for _ in range(3):
            f = random_nonzero_poly(rng, XYZ, max_deg=4, max_terms=8)
            expected = sympy.reduced(to_sympy(f), theirs.exprs, *SYMBOLS, order=sympy_order, domain="QQ")[1]
            assert normal_form(f, ours, order) == from_sympy(expected), (name, trial, gens, f)


def test_saturations_match_sympy():
    # I : f^inf = (I + <s*f - 1>) meet Q[x, y, z].  Lex with s first is an
    # elimination order, so sympy's s-free elements generate the
    # saturation; re-reduced under grevlex they are its reduced basis.
    s = sympy.Symbol("s")
    rng = random.Random(4444)
    for trial in range(30):
        f = random_nonzero_poly(rng, XYZ, max_deg=2, max_terms=2)
        gens = [random_nonzero_poly(rng, XYZ, max_deg=2, max_terms=3) * f ** rng.randint(0, 2)
                for _ in range(rng.randint(1, 3))]
        theirs = sympy.groebner([to_sympy(g) for g in gens] + [s * to_sympy(f) - 1], s, *SYMBOLS,
                                order="lex", domain="QQ")
        kept = [g for g in theirs.exprs if not g.has(s)]
        reduced = sympy.groebner(kept, *SYMBOLS, order="grevlex", domain="QQ").exprs if kept else []
        expected = {from_sympy(g).monic() for g in reduced}
        ours = Ideal(XYZ, gens).saturation(f).groebner_basis()
        assert len(ours) == len(expected) and set(ours) == expected, (trial, gens, f)


def test_radical_membership_matches_sympy(rabinowitsch_ideals):
    # f lies in the radical of I exactly when 1 lies in I + <s*f - 1>:
    # sympy's reduced basis of that ideal is then [1].  The trials cycle
    # through random ideals, ideals holding f^2, members f*g + h*g' of I,
    # and linear ideals, whose initial ideals are squarefree, so that each
    # of radical_contains' three exits (a member, a squarefree initial
    # ideal, the inverse-variable ideal) answers some trial.
    s = sympy.Symbol("s")
    rng = random.Random(4545)
    answers, paths = [], set()
    for trial in range(40):
        f = random_nonzero_poly(rng, XYZ, max_deg=2, max_terms=2)
        degree = 1 if trial % 4 == 3 else 2
        gens = [random_nonzero_poly(rng, XYZ, max_deg=degree, max_terms=3) for _ in range(rng.randint(1, 2))]
        if trial % 4 == 1:
            gens[0] = f * f
        elif trial % 4 == 2:
            f = f * gens[0] + random_poly(rng, XYZ, max_deg=1) * gens[-1]
        theirs = sympy.groebner([to_sympy(g) for g in gens] + [s * to_sympy(f) - 1], s, *SYMBOLS,
                                order="grevlex", domain="QQ")
        expected = list(theirs.exprs) == [1]
        ideal = Ideal(XYZ, gens)
        del rabinowitsch_ideals[:]
        assert ideal.radical_contains(f) == expected, (trial, gens, f)
        paths.add("member" if ideal.contains(f) else "inverse" if rabinowitsch_ideals else "squarefree")
        answers.append(expected)
    assert True in answers and False in answers
    assert paths == {"member", "squarefree", "inverse"}


# Variables to eliminate, with a sympy order on (x, y, z) that eliminates
# them: lex for x, and product orders with the dropped block first.
ELIMINATIONS = {
    "x": ("lex", (0,)),
    "y": (ProductOrder((grevlex, lambda m: m[1:2]), (grevlex, lambda m: (m[0], m[2]))), (1,)),
    "xz": (ProductOrder((grevlex, lambda m: (m[0], m[2])), (grevlex, lambda m: m[1:2])), (0, 2)),
}


@pytest.mark.parametrize("name", ELIMINATIONS)
def test_eliminations_match_sympy(name):
    # The elements of an elimination basis that avoid the dropped
    # variables generate the elimination ideal; re-reduced under grevlex
    # on the kept variables they are its reduced basis.
    sympy_order, dropped = ELIMINATIONS[name]
    kept_symbols = [sym for i, sym in enumerate(SYMBOLS) if i not in dropped]
    small = VarContext([n for i, n in enumerate(XYZ.names) if i not in dropped])
    rng = random.Random(4646)
    for trial in range(30):
        gens = [random_nonzero_poly(rng, XYZ, max_deg=2, max_terms=3) for _ in range(rng.randint(2, 3))]
        theirs = sympy.groebner([to_sympy(g) for g in gens], *SYMBOLS, order=sympy_order, domain="QQ")
        kept = [g for g in theirs.exprs if not any(g.has(SYMBOLS[i]) for i in dropped)]
        reduced = sympy.groebner(kept, *kept_symbols, order="grevlex", domain="QQ").exprs if kept else []
        expected = {from_sympy(g).transport(small).monic() for g in reduced}
        ours = Ideal(XYZ, gens).eliminate([XYZ.names[i] for i in dropped]).groebner_basis()
        assert len(ours) == len(expected) and set(ours) == expected, (name, trial, gens)


def test_graph_closures_match_sympy():
    # The closure of {(map(x), g(x))} is (J + <w - g>) meet Q[u, v, w], J
    # the graph ideal <u - map_1, v - map_2>: sympy eliminates x and y
    # with a product order, and the x, y-free elements re-reduced under
    # grevlex are the reduced basis.  Every other g is a pullback, so both
    # of graph_closure's paths run.
    xy, uvw = VarContext(("x", "y")), VarContext(("u", "v", "w"))
    x, y, u, v, w = sympy.symbols("x y u v w")
    eliminating = ProductOrder((grevlex, lambda m: m[:2]), (grevlex, lambda m: m[2:]))
    rng = random.Random(4747)
    interpolated = []
    for trial in range(20):
        coords = [random_nonzero_poly(rng, xy, max_deg=2, max_terms=2) for _ in range(2)]
        m = Morphism(AffineVariety.affine_space(xy), AffineVariety.affine_space(VarContext(("u", "v"))), coords)
        g = (m.pullback(random_poly(rng, m.target.ctx, max_deg=2)) if trial % 2
             else random_nonzero_poly(rng, xy, max_deg=2, max_terms=2))
        graph = [u - to_sympy(coords[0]), v - to_sympy(coords[1]), w - to_sympy(g)]
        theirs = sympy.groebner(graph, x, y, u, v, w, order=eliminating, domain="QQ")
        kept = [h for h in theirs.exprs if not h.has(x, y)]
        reduced = sympy.groebner(kept, u, v, w, order="grevlex", domain="QQ").exprs if kept else []
        expected = {from_sympy(h, uvw, (u, v, w)).monic() for h in reduced}
        closure, var = m.graph_closure(g)
        assert var == "w" and closure.ctx == uvw, trial
        assert len(closure.generators) == len(expected) and set(closure.generators) == expected, (trial, coords, g)
        interpolated.append(m.interpolate(g).ok)
    assert True in interpolated and False in interpolated
