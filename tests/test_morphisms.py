"""Morphism lab: pullback, graphs, determinacy, interpolation, minimal
polynomials, image analysis, divisibility transfer, biregularity."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from polymap import (
    AffineVariety,
    DegenerateDivisorError,
    Ideal,
    MissingAssertionError,
    Morphism,
    NotDominantError,
    Poly,
    PreconditionError,
    TargetNotAffineSpaceError,
    VarContext,
    fixture_names,
    fixture_session_text,
    parse_poly,
    parse_session,
)
from polymap.morphisms import _intersect_many, _piece_closure, factorial
from polymap.reports import ConstructibleSet

from conftest import SEEDED_SITES, check_seeded_bases, nagata_shear, random_point, random_poly, run_seeded_site

UV = VarContext(("u", "v"))


def pullback_pairs(morphism, rng, count, max_deg=4):
    """Random (p, p o map) pairs: guaranteed-interpolable test inputs."""
    out = []
    for _ in range(count):
        p = random_poly(rng, morphism.target.ctx, max_deg=max_deg, max_terms=4)
        out.append((p, morphism.pullback(p)))
    return out


# With the fixtures, these maps reach every way an image descent ends: an
# empty closure (hyperbola, sl2row), a constant leading-coefficient product
# (three-pieces at round 2), a product already in the round's ideal (the
# first four at round 1, nilpotent-lc at round 0) and the depth.
DESCENT_MAPS = {
    "x2-xy": "source_ring: x y\ntarget_ring: u v\nmap: u = x^2 ; v = x*y\n",
    "three-pieces": "source_ring: x y\ntarget_ring: u v\nmap: u = x*y ; v = x*y^2 + x\n",
    "nodal": "source_ring: t\ntarget_ring: u v\nmap: u = t^2 - 1 ; v = t^3 - t\n",
    "triangular3": "source_ring: x y z\ntarget_ring: u v w\nmap: u = x ; v = x*y ; w = x*y*z\n",
    "nilpotent-lc": "source_ring: x y\nsource_ideal: x^2*y\ntarget_ring: u v\nmap: u = x*y ; v = x + x^2\n",
}

# Further maps for the almost-surjectivity bracket: a cuspidal edge,
# Whitney's umbrella, a torus projection, a blow-up chart, the two axes
# (a reducible source), a line into a reducible target and a seeded map
# whose depth-8 description has three pieces.
BRACKET_MAPS = {
    "x2-x2y+x": "source_ring: x y\ntarget_ring: u v\nmap: u = x^2 ; v = x^2*y + x\n",
    "whitney": "source_ring: x y\ntarget_ring: u v w\nmap: u = x ; v = x*y ; w = y^2\n",
    "torus": "source_ring: x y z\nsource_ideal: x*y*z - 1\ntarget_ring: u v\nmap: u = x ; v = y\n",
    "blowup": "source_ring: x y z\ntarget_ring: u v w\nmap: u = x ; v = x*y ; w = x*z\n",
    "axes": "source_ring: x y\nsource_ideal: x*y\ntarget_ring: u v\nmap: u = y^2 ; v = x^2\n",
    "line-into-cross": "source_ring: t\ntarget_ring: u v\ntarget_ideal: u*v\nmap: u = t ; v = 0\n",
    "seeded-three-pieces": "source_ring: x y\ntarget_ring: u v\nmap: u = 2*x*y^2 + x - 2 ; v = -x*y + 3*x\n",
}

SESSION_MAPS = {**DESCENT_MAPS, **BRACKET_MAPS}

# Maps whose source ideal is not prime: their image descriptions may have
# a smaller closure than the image.
NOT_PRIME = {"nilpotent-lc", "axes"}


def _piece_is_empty(closed: Ideal, minus: Ideal) -> bool:
    """Whether V(closed) - V(minus) is empty, by radical membership of
    every minus generator."""
    return closed.is_unit() or all(closed.radical_contains(g) for g in minus.generators)


def reference_lifted(m: Morphism, g: Poly, var: str) -> Morphism:
    """The map x -> (m(x), g(x)) into target x line, the line coordinate
    named ``var``, as a morphism of its own."""
    ctx = m.target.ctx.extended([var])
    target = AffineVariety(ctx, Ideal(ctx, [h.transport(ctx) for h in m.target.ideal.generators]))
    return Morphism(m.source, target, m.coords + (g,), check=False)


def reference_lc_product(m: Morphism) -> Poly:
    """Product of the leading coefficients, over the source block, of the
    graph basis elements of m that involve the source."""
    graph = m._graph()
    head = range(m.source.ctx.arity)
    product = Poly.one(m.target.ctx)
    for g in graph.ideal.groebner_basis(graph.block):
        head_part = tuple(g.leading_monomial(graph.block)[i] for i in head)
        if any(head_part):
            coeff = Poly(graph.ctx, {
                tuple(0 if i in head else e for i, e in enumerate(mono)): c
                for mono, c in g.terms()
                if tuple(mono[i] for i in head) == head_part
            })
            product = product * coeff.transport(m.target.ctx)
    return product


def reference_image(m: Morphism, depth: int) -> ConstructibleSet:
    """Image descent by restricted maps: each round builds the map on the
    source points over V(L), L the round's leading-coefficient product,
    and the descent stops inexact once that restricted source repeats."""
    tgt_ctx = m.target.ctx
    pieces = []
    current = m
    seen = set()
    for _ in range(depth):
        closure = current.image_closure()
        if closure.is_unit():
            return ConstructibleSet(tgt_ctx, tuple(pieces), True)
        lc_product = reference_lc_product(current)
        minus = Ideal(tgt_ctx, (lc_product,))
        if not _piece_is_empty(closure, minus):
            pieces.append((closure, minus))
        if lc_product.is_constant():
            return ConstructibleSet(tgt_ctx, tuple(pieces), True)
        pulled = lc_product.substitute(dict(zip(tgt_ctx.names, current.coords)))
        restricted = Ideal(current.source.ctx, current.source.ideal.generators + (pulled,))
        state = restricted.groebner_basis()
        if state in seen:
            break
        seen.add(state)
        current = Morphism(AffineVariety(current.source.ctx, restricted), m.target, current.coords, check=False)
    return ConstructibleSet(tgt_ctx, tuple(pieces), False)


def reference_complement_pieces(ambient_ideal: Ideal, cset: ConstructibleSet) -> list:
    """Pieces of V(ambient_ideal) minus the union ``cset`` describes, by the
    generic expansion into 2^k sign choices, which does not need the
    pieces nested, with a set of (closed basis, minus generators) keys
    that skips a piece seen before in the same expansion step."""
    ctx = cset.ctx
    current = [(ambient_ideal, Ideal.unit(ctx))]
    for closed, minus in cset.pieces:
        negated = [(minus, Ideal.unit(ctx)), (Ideal.zero(ctx), closed)]
        merged = []
        seen = set()
        for a_closed, a_minus in current:
            for b_closed, b_minus in negated:
                product = Ideal(ctx, tuple(p * q for p in a_minus.generators for q in b_minus.generators))
                piece = (a_closed + b_closed, product)
                if _piece_is_empty(*piece):
                    continue
                key = (piece[0].groebner_basis(), piece[1].generators)
                if key in seen:
                    continue
                seen.add(key)
                merged.append(piece)
        current = merged
    return current


def reference_almost_surjective(m: Morphism, depth: int) -> tuple[dict, str]:
    """Almost-surjectivity verdict by a four-way table over exactness, the
    complement's dimension and that of the certified part of the
    complement (everything outside the image closure).  Returns the
    report's fields and the table row taken."""
    target_ideal = m.target.ideal
    target_dim = target_ideal.dimension()
    image = m.constructible_image(depth)
    comp_pieces = reference_complement_pieces(target_ideal, image)
    comp_closure = _intersect_many(m.target.ctx, [_piece_closure(c, mm) for c, mm in comp_pieces])
    comp_dim = comp_closure.dimension()
    certain_dim = _piece_closure(target_ideal, m.image_closure()).dimension()
    threshold = max(target_dim - 2, -1)
    if image.exact:
        row, almost, surjective = "exact", comp_dim <= threshold, comp_dim == -1
    elif comp_dim <= threshold:
        row, almost = "small-complement", True
        surjective = True if comp_dim == -1 else (False if certain_dim >= 0 else None)
    elif certain_dim > threshold:
        row, almost, surjective = "large-certain-part", False, False
    else:
        row, almost = "undecided", None
        surjective = False if certain_dim >= 0 else None
    fields = {"complement_closure": [str(g) for g in comp_closure.generators], "complement_dim": comp_dim,
              "target_dim": target_dim, "almost_surjective": almost, "surjective": surjective}
    return fields, row


class TestConstruction:
    def test_ill_defined_map_rejected(self):
        # t -> (t, t) does not land on the cusp curve.
        t = VarContext(("t",))
        curve = AffineVariety(UV, Ideal(UV, (parse_poly("u^3 - v^2", UV),)))
        line = AffineVariety.affine_space(t)
        with pytest.raises(PreconditionError):
            Morphism(line, curve, [Poly.variable(t, "t"), Poly.variable(t, "t")])

    def test_map_onto_subvariety_accepted(self):
        t = VarContext(("t",))
        curve = AffineVariety(UV, Ideal(UV, (parse_poly("u^3 - v^2", UV),)))
        line = AffineVariety.affine_space(t)
        m = Morphism(line, curve, [parse_poly("t^2", t), parse_poly("t^3", t)])
        # image closure equals the curve's own ideal: dense in the target
        assert m.image_closure().same_ideal(curve.ideal)
        assert m.dominant()


class TestPullback:
    def test_examples(self, fixture_morphisms):
        cusp = fixture_morphisms["cusp"]
        shear = fixture_morphisms["shear"]
        assert cusp.pullback(Poly.variable(UV, "u")) == parse_poly("t^2", cusp.source.ctx)
        assert shear.pullback(parse_poly("u*v", UV)) == parse_poly("x^2*y", shear.source.ctx)
        assert cusp.pullback(Poly.one(UV)) == Poly.one(cusp.source.ctx)

    def test_map_with_no_coordinates(self):
        # f is a constant, and its pullback lives on the source ring.
        m = parse_session("source_ring: x\ntarget_ring:\nmap:\n").morphism()
        assert m.pullback(Poly.one(VarContext(()))) == Poly.one(VarContext(("x",)))
        assert m.pullback(Poly.constant(VarContext(()), Fraction(3, 2))) == Poly.constant(VarContext(("x",)), Fraction(3, 2))
        assert m.pulls_back_to(Poly.constant(VarContext(()), 3), 3)
        assert not m.pulls_back_to(Poly.constant(VarContext(()), 3), 2)

    def test_ring_morphism(self, fixture_morphisms):
        rng = random.Random(41)
        sl2 = fixture_morphisms["sl2row"]
        for _ in range(15):
            f = random_poly(rng, UV)
            g = random_poly(rng, UV)
            assert sl2.pullback(f + g) == sl2.source.ideal.normal_form(sl2.pullback(f) + sl2.pullback(g))
            assert sl2.pullback(f * g) == sl2.source.ideal.normal_form(sl2.pullback(f) * sl2.pullback(g))


class TestGraphClosure:
    def test_square_root_graph(self, fixture_morphisms):
        square = fixture_morphisms["square"]
        t = square.source.ctx
        ideal, w = square.graph_closure(Poly.variable(t, "t"))
        expected = parse_poly(f"{w}^2 - u", ideal.ctx)
        assert ideal.same_ideal(Ideal(ideal.ctx, (expected,)))
        assert ideal.dimension() == 1

    def test_substitution_identity_graph(self, fixture_morphisms):
        square = fixture_morphisms["square"]
        t = square.source.ctx
        ideal, w = square.graph_closure(parse_poly("t^4 + 3*t^2", t))
        expected = parse_poly(f"{w} - u^2 - 3*u", ideal.ctx)
        assert ideal.same_ideal(Ideal(ideal.ctx, (expected,)))

    def test_identity_line_graph(self):
        t = VarContext(("t",))
        m = Morphism(AffineVariety.affine_space(t), AffineVariety.affine_space(VarContext(("u",))),
                     [Poly.variable(t, "t")])
        ideal, w = m.graph_closure(Poly.variable(t, "t"))
        assert ideal.same_ideal(Ideal(ideal.ctx, (parse_poly(f"{w} - u", ideal.ctx),)))

    def test_graph_dimensions(self, fixture_morphisms):
        cusp = fixture_morphisms["cusp"]
        identity2 = fixture_morphisms["identity2"]
        assert cusp.graph_closure(Poly.variable(cusp.source.ctx, "t"))[0].dimension() == 1
        assert identity2.graph_closure(Poly.variable(identity2.source.ctx, "x"))[0].dimension() == 2


class TestDetermined:
    def test_examples(self, fixture_morphisms):
        shear = fixture_morphisms["shear"]
        cusp = fixture_morphisms["cusp"]
        xy = shear.source.ctx
        assert shear.determined_by(parse_poly("x*y^2", xy))
        assert not shear.determined_by(Poly.variable(xy, "y"))
        assert cusp.determined_by(Poly.variable(cusp.source.ctx, "t"))

    def test_pullbacks_always_determined(self, fixture_morphisms):
        rng = random.Random(42)
        for name in ("sym2", "square", "sl2row"):
            m = fixture_morphisms[name]
            for p, g in pullback_pairs(m, rng, 4, max_deg=3):
                assert m.determined_by(g)


class TestInterpolate:
    def test_square_substitution(self, fixture_morphisms):
        square = fixture_morphisms["square"]
        g = parse_poly("t^4 + 3*t^2", square.source.ctx)
        result = square.interpolate(g)
        assert result.ok
        assert result.interpolant == parse_poly("u^2 + 3*u", square.target.ctx)

    def test_cusp_coordinate_fails(self, fixture_morphisms):
        cusp = fixture_morphisms["cusp"]
        result = cusp.interpolate(Poly.variable(cusp.source.ctx, "t"))
        assert result.status == "not_in_subalgebra"
        assert result.interpolant is None
        assert not result.witness.is_zero()

    def test_shear_fiber_function_fails(self, fixture_morphisms):
        shear = fixture_morphisms["shear"]
        result = shear.interpolate(parse_poly("x*y^2", shear.source.ctx))
        assert result.status == "not_in_subalgebra"

    def test_not_determined_status(self, fixture_morphisms):
        shear = fixture_morphisms["shear"]
        result = shear.interpolate(Poly.variable(shear.source.ctx, "y"))
        assert result.status == "not_determined"

    def test_round_trip_property(self, fixture_morphisms):
        rng = random.Random(43)
        for name in ("sym2", "square", "sl2row", "triangular"):
            m = fixture_morphisms[name]
            assignment = dict(zip(m.target.ctx.names, m.coords))
            for p, g in pullback_pairs(m, rng, 6):
                result = m.interpolate(g)
                assert result.ok, (name, str(p))
                residual = result.interpolant.substitute(assignment) - g
                assert m.source.ideal.contains(residual)


class TestMinimalPolynomial:
    def test_degree_two_relation(self, fixture_morphisms):
        square = fixture_morphisms["square"]
        result = square.minimal_polynomial(Poly.variable(square.source.ctx, "t"))
        assert result.status == "relation"
        assert result.degree == 2
        assert result.relation == parse_poly(f"{result.var}^2 - u", result.relation.ctx)
        assert result.rational_pair is None

    def test_degree_one_with_rational_pair(self, fixture_morphisms):
        square = fixture_morphisms["square"]
        g = parse_poly("t^4 + 3*t^2", square.source.ctx)
        result = square.minimal_polynomial(g)
        assert result.status == "relation" and result.degree == 1
        num, den = result.rational_pair
        assert num == parse_poly("u^2 + 3*u", square.target.ctx)
        assert den == Poly.one(square.target.ctx)

    def test_cusp_codimension_two_graph(self, fixture_morphisms):
        cusp = fixture_morphisms["cusp"]
        result = cusp.minimal_polynomial(Poly.variable(cusp.source.ctx, "t"))
        assert result.status == "not_hypersurface"
        assert result.dominant is False
        # witness ideal is the full graph closure, not principal
        assert result.graph_ideal.principal_generator() is None

    def test_affine_space_target_required(self):
        t = VarContext(("t",))
        curve = AffineVariety(UV, Ideal(UV, (parse_poly("u^3 - v^2", UV),)))
        m = Morphism(AffineVariety.affine_space(t), curve, [parse_poly("t^2", t), parse_poly("t^3", t)])
        with pytest.raises(TargetNotAffineSpaceError):
            m.minimal_polynomial(Poly.variable(t, "t"))

    def test_degree_one_whenever_determined(self, fixture_morphisms):
        rng = random.Random(44)
        for name in ("sym2", "square", "sl2row"):
            m = fixture_morphisms[name]
            for p, g in pullback_pairs(m, rng, 4, max_deg=3):
                result = m.minimal_polynomial(g)
                assert result.degree == 1, name
                num, den = result.rational_pair
                interpolant = m.interpolate(g).interpolant
                # the degree-1 pair reduces to the interpolant exactly
                assert (num - den * interpolant).is_zero() or \
                    m.target.ideal.contains(num - den * interpolant)

    def test_degree_one_pair_pulls_back_by_substitution(self, fixture_morphisms, tame_pool):
        # The pair is read off the relation without a check of its own, so
        # num o map = (den o map)*g is checked here by plain substitution:
        # both sources are affine spaces, so the identity holds exactly.
        rng = random.Random(45)
        square = fixture_morphisms["square"]
        cases = [(square, parse_poly("t^4 + 3*t^2", square.source.ctx))]
        for m in [square] + [e for e, _ in tame_pool[:6]]:
            cases += [(m, g) for _, g in pullback_pairs(m, rng, 3, max_deg=2)]
        for m, g in cases:
            result = m.minimal_polynomial(g)
            assert result.degree == 1, (str(m), str(g))
            num, den = result.rational_pair
            assert not den.is_zero()
            assignment = dict(zip(m.target.ctx.names, m.coords))
            assert num.substitute(assignment) == den.substitute(assignment) * g, (str(m), str(g))

    @pytest.mark.parametrize("text, g, var, relation, pair", [
        ("source_ring: w\ntarget_ring: u\nmap: u = w^2\n", "w", "w'", "w'^2 - u", None),
        ("source_ring: x y\ntarget_ring: x y\nmap: x = x + y^2 ; y = y\n", "x*y", "w",
         "y^3 - x*y + w", ["-y^3 + x*y", "1"]),
        ("source_ring: w x\ntarget_ring: w\nmap: w = x*w\n", "w", "w''", None, None),
    ], ids=["source-named-w", "rings-share-names", "both-rings-use-w"])
    def test_line_variable_avoids_clashing_names(self, text, g, var, relation, pair):
        m = parse_session(text).morphism()
        result = m.minimal_polynomial(parse_poly(g, m.source.ctx))
        assert result.var == var
        assert result.status == ("relation" if relation else "no_relation")
        assert (str(result.relation) if result.relation else None) == relation
        assert (list(map(str, result.rational_pair)) if result.rational_pair else None) == pair


class TestImageClosure:
    def test_cusp_curve(self, fixture_morphisms):
        cusp = fixture_morphisms["cusp"]
        closure = cusp.image_closure()
        assert closure.generators == (parse_poly("u^3 - v^2", UV),)
        rng = random.Random(45)
        for _ in range(20):
            t = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for g in closure.generators:
                assert g.evaluate([t * t, t ** 3]) == 0

    def test_dominant_examples(self, fixture_morphisms):
        assert not fixture_morphisms["shear"].image_closure().groebner_basis()
        assert fixture_morphisms["shear"].dominant()
        assert not fixture_morphisms["cusp"].dominant()

    def test_non_dominant_into_affine_space_needs_no_inverse_variable(self, fixture_morphisms,
                                                                      rabinowitsch_ideals):
        # The zero ideal of the plane is radical, so u^3 - v^2, not in it,
        # is not in its radical: division alone decides.
        assert not fixture_morphisms["cusp"].dominant()
        assert rabinowitsch_ideals == []

    def test_identity_on_variety_recovers_target_ideal(self):
        xz = VarContext(("x", "z"))
        pq = VarContext(("p", "q"))
        hyper_src = AffineVariety(xz, Ideal(xz, (parse_poly("x*z - 1", xz),)))
        hyper_tgt = AffineVariety(pq, Ideal(pq, (parse_poly("p*q - 1", pq),)), assert_factorial=True)
        m = Morphism(hyper_src, hyper_tgt, [Poly.variable(xz, "x"), Poly.variable(xz, "z")])
        assert m.image_closure().same_ideal(Ideal(pq, (parse_poly("p*q - 1", pq),)))
        assert m.dominant()


class TestDividesTransfer:
    def test_cusp_witness(self, fixture_morphisms):
        cusp = fixture_morphisms["cusp"]
        assert cusp.divides_transfer(Poly.variable(UV, "u"), Poly.variable(UV, "v")) == (True, False)

    def test_shear_transfer_holds(self, fixture_morphisms):
        shear = fixture_morphisms["shear"]
        assert shear.divides_transfer(parse_poly("u", UV), parse_poly("u*v", UV)) == (True, True)

    def test_equal_arguments(self, fixture_morphisms):
        rng = random.Random(46)
        sym2 = fixture_morphisms["sym2"]
        for _ in range(5):
            f = random_poly(rng, UV, max_deg=2)
            if f.is_zero():
                continue
            assert sym2.divides_transfer(f, f) == (True, True)

    def test_zero_divisor_precondition(self, fixture_morphisms):
        sym2 = fixture_morphisms["sym2"]
        with pytest.raises(PreconditionError):
            sym2.divides_transfer(Poly.zero(UV), Poly.one(UV))

    def test_degenerate_case(self):
        # t -> (0, t): u pulls back to 0 while v does not.
        t = VarContext(("t",))
        m = Morphism(AffineVariety.affine_space(t), AffineVariety.affine_space(UV),
                     [Poly.zero(t), Poly.variable(t, "t")])
        with pytest.raises(DegenerateDivisorError):
            m.divides_transfer(Poly.variable(UV, "u"), Poly.variable(UV, "v"))


class TestFactorial:
    """Affine space is factorial; an ideal that the Jacobian criterion shows
    not normal is refuted, flag or not; the flag decides the rest."""

    @pytest.mark.parametrize("ring, equations, refuted", [
        ("u v", "u^3 - v^2", True),
        ("u v", "u^2", True),
        ("u v", "u*v", True),
        ("u v w", "u^2*w - v^2", True),
        ("u", "u - 2", False),
        ("u", "u^2 - 1", False),
        ("p q", "p*q - 1", False),
        ("u v", "u^2 + v^2 - 1", False),
        ("u v w", "v - u^2 ; w - u*v ; u*w - v^2", False),
        # The cone is normal but not factorial: the rule finds nothing.
        ("x y z", "x*y - z^2", False),
    ], ids=["cusp", "double-line", "axes", "whitney", "point", "two-points", "hyperbola", "circle",
            "twisted-cubic", "cone"])
    def test_rule(self, ring, equations, refuted):
        ctx = VarContext(ring.split())
        ideal = Ideal(ctx, [parse_poly(text, ctx) for text in equations.split(";")])
        assert factorial(AffineVariety(ctx, ideal)) is False
        asserted = AffineVariety(ctx, ideal, assert_factorial=True)
        if refuted:
            with pytest.raises(PreconditionError, match="^assert_factorial is refuted"):
                factorial(asserted)
        else:
            assert factorial(asserted) is True

    def test_affine_space_without_flag(self):
        assert factorial(AffineVariety(UV, Ideal(UV, [Poly.zero(UV)]))) is True
        assert factorial(AffineVariety.affine_space(UV)) is True


class TestExtend:
    def test_sl2row_extension(self, fixture_morphisms):
        sl2 = fixture_morphisms["sl2row"]
        composite = parse_poly("a^2 + a*b", sl2.source.ctx)
        result = sl2.extend(composite)
        assert result.ok
        assert result.interpolant == parse_poly("u^2 + u*v", UV)

    def test_unique_extension_reproduces_original(self, fixture_morphisms):
        # For dominant maps the pullback is injective, so extending p o map
        # returns exactly p.
        rng = random.Random(47)
        for name in ("shear", "sym2", "square", "identity2"):
            m = fixture_morphisms[name]
            for p, g in pullback_pairs(m, rng, 5, max_deg=3):
                result = m.extend(g)
                assert result.ok
                assert result.interpolant == p

    def test_identity_extends_to_itself(self, fixture_morphisms):
        identity2 = fixture_morphisms["identity2"]
        g = parse_poly("x^2 - 3*y", identity2.source.ctx)
        assert identity2.extend(g).interpolant == parse_poly("u^2 - 3*v", UV)

    def test_non_dominant_rejected(self, fixture_morphisms):
        cusp = fixture_morphisms["cusp"]
        with pytest.raises(NotDominantError):
            cusp.extend(parse_poly("t^2", cusp.source.ctx))


class TestInjective:
    def test_examples(self, fixture_morphisms):
        assert fixture_morphisms["cusp"].is_injective()
        assert not fixture_morphisms["shear"].is_injective()
        assert fixture_morphisms["identity2"].is_injective()
        assert not fixture_morphisms["square"].is_injective()
        assert fixture_morphisms["hyperbola"].is_injective()


class TestConstructibleImage:
    def test_shear_pieces(self, fixture_morphisms):
        image = fixture_morphisms["shear"].constructible_image()
        assert image.exact
        assert len(image.pieces) == 2
        (c0, m0), (c1, m1) = image.pieces
        assert not c0.groebner_basis() and [str(g) for g in m0.generators] == ["u"]
        assert c1.same_ideal(Ideal(UV, (Poly.variable(UV, "u"), Poly.variable(UV, "v"))))
        assert m1.is_unit()

    def test_identity_covers_whole_target(self, fixture_morphisms):
        image = fixture_morphisms["identity2"].constructible_image()
        assert image.exact
        assert len(image.pieces) == 1
        closed, minus = image.pieces[0]
        assert not closed.groebner_basis() and minus.is_unit()

    def test_membership_against_closed_form_oracles(self, fixture_morphisms):
        rng = random.Random(48)

        def oracle(name, pt):
            u, v = pt
            if name == "shear":
                return u != 0 or (u == 0 and v == 0)
            if name == "sl2row":
                return (u, v) != (0, 0)
            if name in ("sym2", "identity2"):
                return True
            raise AssertionError(name)

        for name in ("shear", "sl2row", "sym2", "identity2"):
            image = fixture_morphisms[name].constructible_image()
            assert image.exact
            points = [random_point(rng, 2, bound=4) for _ in range(150)]
            points += [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(3)], [Fraction(2), Fraction(0)]]
            for pt in points:
                assert image.contains(pt) == oracle(name, pt), (name, pt)

    def test_membership_against_fiber_solver_on_fixtures(self, fixture_morphisms):
        # Independent classification of 200 points per fixture by solving
        # the fiber system: a preimage exists over the closure exactly
        # when the fiber ideal is proper.  Exact descriptions must agree
        # everywhere; inexact ones must never over-claim.
        rng = random.Random(52)
        for name in ("cusp", "shear", "sl2row", "hyperbola", "sym2", "square", "identity2"):
            m = fixture_morphisms[name]
            image = m.constructible_image()
            arity = m.target.ctx.arity
            points = [random_point(rng, arity, bound=4) for _ in range(170)]
            # make sure plenty of genuine image points are classified too
            for _ in range(30):
                source_pt = random_point(rng, m.source.ctx.arity, bound=4)
                if m.source.ideal.generators:
                    continue  # only parameter-free sources lift this way
                points.append([c.evaluate(source_pt) for c in m.coords])
            while len(points) < 200:
                points.append(random_point(rng, arity, bound=9))
            for pt in points:
                fiber_gens = tuple(c - Poly.constant(m.source.ctx, val) for c, val in zip(m.coords, pt))
                fiber = m.source.ideal + fiber_gens
                has_preimage = not fiber.is_unit()
                claimed = image.contains(pt)
                if image.exact:
                    assert claimed == has_preimage, (name, pt)
                elif claimed:
                    assert has_preimage, (name, pt)

    def test_cusp_sound_underapproximation(self, fixture_morphisms):
        # The cusp image description is honest about inexactness; every
        # point it claims must genuinely lift (t = v/u when u != 0).
        image = fixture_morphisms["cusp"].constructible_image()
        assert not image.exact
        rng = random.Random(49)
        for _ in range(200):
            t = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            pt = [t * t, t ** 3]
            if image.contains(pt):
                assert pt[0] != 0 or pt == [0, 0]
        # On a prime source the description's closure equals the image
        # closure at every depth: round 0's piece is dense in it.
        maps = dict(fixture_morphisms)
        maps.update((name, parse_session(text).morphism())
                    for name, text in SESSION_MAPS.items() if name not in NOT_PRIME)
        for name, m in maps.items():
            for depth in (1, 2, 8):
                image = m.constructible_image(depth)
                closure = _intersect_many(image.ctx, [_piece_closure(c, minus) for c, minus in image.pieces])
                assert closure.same_ideal(m.image_closure()), (name, depth)

    def test_hyperbola_punctured_line(self, fixture_morphisms):
        image = fixture_morphisms["hyperbola"].constructible_image()
        assert image.exact
        assert image.contains([Fraction(5)])
        assert not image.contains([Fraction(0)])

    def test_random_plane_maps_against_fiber_solver(self):
        # Independent oracle: a target point has a preimage over the
        # algebraic closure exactly when its fiber ideal is proper.
        rng = random.Random(51)
        xy = VarContext(("x", "y"))
        src = AffineVariety.affine_space(xy)
        tgt = AffineVariety.affine_space(UV)
        for trial in range(12):
            coords = [random_poly(rng, xy, max_deg=2, max_terms=3, bound=2) for _ in range(2)]
            m = Morphism(src, tgt, coords)
            image = m.constructible_image(depth=6)
            points = [random_point(rng, 2, bound=3) for _ in range(20)]
            for _ in range(8):
                source_pt = random_point(rng, 2, bound=3)
                points.append([c.evaluate(source_pt) for c in coords])
            for pt in points:
                fiber = Ideal(xy, tuple(c - Poly.constant(xy, val) for c, val in zip(coords, pt)))
                has_preimage = not fiber.is_unit()
                if image.contains(pt):
                    assert has_preimage, (trial, [str(c) for c in coords], pt)
                elif image.exact:
                    assert not has_preimage, (trial, [str(c) for c in coords], pt)

    @pytest.mark.parametrize("depth", [1, 2, 8])
    def test_matches_restricted_map_descent(self, fixture_morphisms, depth):
        maps = dict(fixture_morphisms)
        maps.update((name, parse_session(text).morphism()) for name, text in DESCENT_MAPS.items())
        for name, m in maps.items():
            got = m.constructible_image(depth).to_json_dict()
            assert got == reference_image(m, depth).to_json_dict(), (name, depth)

    def test_pieces_are_nested(self, fixture_morphisms):
        # almost_surjective reads the missed set as a chain because each
        # piece's closed ideal contains every earlier one (as ideals).
        maps = dict(fixture_morphisms)
        maps.update((name, parse_session(text).morphism()) for name, text in SESSION_MAPS.items())
        pairs = 0
        for name, m in maps.items():
            for depth in (1, 2, 8):
                closed = [c for c, _ in m.constructible_image(depth).pieces]
                for j, later in enumerate(closed):
                    for earlier in closed[:j]:
                        pairs += 1
                        assert all(later.contains(g) for g in earlier.generators), (name, depth, j)
        assert pairs == 13

    def test_three_pieces_exact_at_round_two(self):
        m = parse_session(DESCENT_MAPS["three-pieces"]).morphism()
        assert not m.constructible_image(2).exact
        image = m.constructible_image(3)
        assert image.exact and len(image.pieces) == 3


class TestAlmostSurjective:
    def test_cusp_definite_false_despite_inexact_image(self, fixture_morphisms):
        rep = fixture_morphisms["cusp"].almost_surjective()
        assert rep.almost_surjective is False
        assert rep.surjective is False
        assert not rep.complement_closure.groebner_basis()  # dense complement
        assert rep.complement_dim == 2 and rep.target_dim == 2
        assert not rep.image.exact

    def test_shear_hypersurface_complement(self, fixture_morphisms):
        rep = fixture_morphisms["shear"].almost_surjective()
        assert rep.almost_surjective is False
        assert [str(g) for g in rep.complement_closure.generators] == ["u"]
        assert rep.complement_dim == rep.target_dim - 1 == 1

    def test_sl2row_misses_only_origin(self, fixture_morphisms):
        rep = fixture_morphisms["sl2row"].almost_surjective()
        assert rep.almost_surjective is True
        assert rep.surjective is False
        assert rep.complement_dim == 0 == rep.target_dim - 2
        origin = Ideal(UV, (Poly.variable(UV, "u"), Poly.variable(UV, "v")))
        assert rep.complement_closure.same_ideal(origin)

    def test_surjective_fixtures(self, fixture_morphisms):
        for name in ("identity2", "sym2", "square", "triangular"):
            rep = fixture_morphisms[name].almost_surjective()
            assert rep.almost_surjective is True and rep.surjective is True, name
            assert rep.complement_dim == -1

    def test_bracket_matches_branch_table(self, fixture_morphisms):
        maps = dict(fixture_morphisms)
        maps.update((name, parse_session(text).morphism()) for name, text in SESSION_MAPS.items())
        rows = {}
        for depth in (1, 2, 8):
            for name, m in maps.items():
                rep = m.almost_surjective(depth)
                got = {"complement_closure": [str(g) for g in rep.complement_closure.generators],
                       "complement_dim": rep.complement_dim, "target_dim": rep.target_dim,
                       "almost_surjective": rep.almost_surjective, "surjective": rep.surjective}
                expected, row = reference_almost_surjective(m, depth)
                assert got == expected, (name, depth)
                rows[name, depth] = (row, rep.almost_surjective, rep.surjective)
        # Every row of the table is reached.
        assert all(rows[name, 8][0] == "exact" for name in fixture_morphisms if name != "cusp")
        assert rows["three-pieces", 2] == ("small-complement", True, None)
        for name in ("cusp", "nodal", "whitney"):
            assert rows[name, 8] == ("large-certain-part", False, False), name
        assert rows["shear", 1] == ("undecided", None, None)
        for name in ("three-pieces", "seeded-three-pieces"):
            assert len(maps[name].constructible_image(8).pieces) == 3, name

    def test_piece_empty_exactly_when_closure_is_unit(self, fixture_morphisms):
        # almost_surjective drops a missed piece whose closure is the unit
        # ideal; the reference decides emptiness by radical membership.
        maps = dict(fixture_morphisms)
        maps.update((name, parse_session(text).morphism()) for name, text in SESSION_MAPS.items())
        verdicts = []
        for depth in (1, 2, 8):
            for name, m in maps.items():
                missed = []
                ambient = m.target.ideal
                for closed, minus in m.constructible_image(depth).pieces:
                    missed.append((ambient, closed))
                    ambient = ambient + minus
                missed.append((ambient, Ideal.unit(m.target.ctx)))
                for closed, minus in missed:
                    empty = _piece_is_empty(closed, minus)
                    assert _piece_closure(closed, minus).is_unit() == empty, (name, depth)
                    verdicts.append(empty)
        assert (len(verdicts), sum(verdicts)) == (125, 70)

    def test_same_missed_set_same_radical(self, fixture_morphisms):
        # Both maps miss {u = 0, v != 0}; the printed closures differ (u^2
        # against u) but cut out the same set.
        ideals = [parse_session(BRACKET_MAPS["x2-x2y+x"]).morphism().almost_surjective().complement_closure,
                  fixture_morphisms["shear"].almost_surjective().complement_closure]
        assert [[str(g) for g in ideal.generators] for ideal in ideals] == [["u^2"], ["u"]]
        for one, other in (ideals, ideals[::-1]):
            assert all(other.radical_contains(g) for g in one.generators)

    def test_dense_missed_set_on_non_prime_sources(self):
        # The axes map hits the two axes and nilpotent-lc the line u = 0, so
        # either misses a dense set, whatever its image description.
        for name in ("axes", "nilpotent-lc"):
            rep = parse_session(SESSION_MAPS[name]).morphism().almost_surjective()
            assert rep.almost_surjective is False and rep.surjective is False, name

    def test_report_invariant(self, fixture_morphisms):
        for name in ("cusp", "shear", "sl2row", "sym2", "square", "hyperbola"):
            rep = fixture_morphisms[name].almost_surjective()
            if rep.almost_surjective is not None:
                assert rep.almost_surjective == (rep.complement_dim <= rep.target_dim - 2), name


class TestBiregular:
    def test_triangular_automorphism(self, fixture_morphisms):
        rep = fixture_morphisms["triangular"].biregular()
        assert rep.verdict is True and rep.consistent
        assert [str(p) for p in rep.inverse] == ["-v^2 + u", "v"]

    def test_injective_only(self, fixture_morphisms):
        rep = fixture_morphisms["cusp"].biregular()
        assert rep.verdict is False
        assert rep.injective and rep.surjectivity.almost_surjective is False

    def test_almost_surjective_only(self, fixture_morphisms):
        rep = fixture_morphisms["sl2row"].biregular()
        assert rep.verdict is False
        assert not rep.injective and rep.surjectivity.almost_surjective is True

    def test_parabola_inverse_is_one_sided(self):
        # t -> (t, t^2): t interpolates to u, but (u, u^2) is not the identity on the plane.
        m = parse_session("source_ring: t\ntarget_ring: u v\nmap: u = t ; v = t^2\n"
                          "assert_factorial: true\n").morphism()
        assert m.construct_inverse() == (None, None)
        rep = m.biregular()
        assert rep.verdict is False and rep.consistent and rep.inverse is None

    def test_requires_factorial_assertion(self):
        # p*q = 1 is not affine space, and the factoriality rule finds
        # nothing against it, so only the flag could vouch for it.
        m = parse_session("source_ring: x z\nsource_ideal: x*z - 1\ntarget_ring: p q\ntarget_ideal: p*q - 1\n"
                          "map: p = x ; q = z\n").morphism()
        with pytest.raises(MissingAssertionError, match="assert_factorial"):
            m.biregular()

    def test_graph_dimension_matches_target_for_determined_functions(self, fixture_morphisms):
        # On almost-surjective fixtures with factorial targets, graphs of
        # determined functions have the target's dimension.
        rng = random.Random(50)
        for name in ("sym2", "square", "sl2row", "identity2"):
            m = fixture_morphisms[name]
            target_dim = m.target.ideal.dimension()
            for p, g in pullback_pairs(m, rng, 3, max_deg=3):
                assert m.graph_closure(g)[0].dimension() == target_dim, name


# Every fixture, the descent and bracket maps, and two maps whose names
# clash with the graph's renamed source and with its line coordinate.
SEEDED_SITE_MAPS = {
    **{name: fixture_session_text(name) for name in fixture_names()},
    **SESSION_MAPS,
    "clash-line": "source_ring: w\ntarget_ring: u\nmap: u = w^2\n",
    "clash-graph": "source_ring: w x\ntarget_ring: w\nmap: w = x*w\n",
}

# Beside SEEDED_SITE_MAPS: a bijection of a non-reduced source onto the
# line, and an empty source.
GRAPH_CLOSURE_MAPS = {
    **SEEDED_SITE_MAPS,
    "double-line": "source_ring: x y\nsource_ideal: y^2\ntarget_ring: u\nmap: u = x\n",
    "empty-source": "source_ring: x y\nsource_ideal: 1\ntarget_ring: u v\nmap: u = x ; v = x*y\n",
}
# The maps whose pullback is onto the source ring, so every g interpolates.
EVERY_G_INTERPOLATES = {"identity2", "triangular", "line-into-cross", "empty-source"}


class TestSeededSites:
    """Each ideal that extends a cached one (the fiber and saturation
    inverse ideals, the lifted graph, the image descent's rounds and the
    missed-set chain) has the basis of a fresh, unseeded ideal."""

    @pytest.mark.parametrize("site", SEEDED_SITES)
    def test_seeded_basis_equals_fresh(self, site, seeded_bases):
        owned = 0
        for name, text in SEEDED_SITE_MAPS.items():
            del seeded_bases[:]
            mine = run_seeded_site(site, parse_session(text).morphism(), seeded_bases)
            check_seeded_bases(seeded_bases, (site, name))
            owned += len(mine)
        assert owned > 0, site

    @pytest.mark.parametrize("name", list(GRAPH_CLOSURE_MAPS))
    def test_lifted_graph_ring_extends_graph_ring(self, name):
        # graph_closure extends the image closure by w - p when g has the
        # interpolant p, and the graph ideal by w - g otherwise.  The lifted
        # map's own graph ring must be the graph ring plus w, also when the
        # source names clash with the target's or with w, and on both paths
        # its unseeded image closure must be the same ideal.
        m = parse_session(GRAPH_CLOSURE_MAPS[name]).morphism()
        graph = m._graph()
        rng = random.Random(name)
        paths = set()
        for g in (m.pullback(random_poly(rng, m.target.ctx)), *Poly.variables(m.source.ctx),
                  random_poly(rng, m.source.ctx)):
            closure, w = m.graph_closure(g)
            lifted = reference_lifted(m, g, w)
            fresh = lifted._graph()
            assert fresh.ctx.names == graph.ctx.names + (w,), (name, g)
            assert closure.generators == lifted.image_closure().generators, (name, g)
            paths.add(m.interpolate(g).ok)
        assert paths == ({True} if name in EVERY_G_INTERPOLATES else {True, False}), name


def test_automorphism_graph_closures_match_lifted_maps(tame_pool):
    # On an automorphism every g interpolates, so graph_closure extends the
    # image closure by w - p, p the interpolant, and never eliminates.
    rng = random.Random(52)
    maps = [e for e, _ in tame_pool] + [nagata_shear(), nagata_shear(after=False)]
    for index, m in enumerate(maps):
        for g in (*Poly.variables(m.source.ctx), m.pullback(random_poly(rng, m.target.ctx, max_deg=2))):
            closure, w = m.graph_closure(g)
            assert closure.generators == reference_lifted(m, g, w).image_closure().generators, (index, g)
            assert m.interpolate(g).ok, (index, g)
