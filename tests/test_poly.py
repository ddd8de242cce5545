"""Polynomial core: parsing, printing, arithmetic, calculus, evaluation."""

from __future__ import annotations

import math
import random
import sys
import time
from fractions import Fraction

import pytest

from polymap import (
    ContextMismatchError,
    GREVLEX,
    GRLEX,
    LEX,
    Block,
    ParseError,
    Poly,
    UnknownVariableError,
    VarContext,
    parse_poly,
)
from polymap.poly import Powers

from conftest import random_poly

XY = VarContext(("x", "y"))
T = VarContext(("t",))
UV = VarContext(("u", "v"))

needs_default_digit_limit = pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
                                               reason="integer string conversion limit is not the default 4300")


class TestVarContext:
    def test_rejects_duplicates_and_bad_names(self):
        with pytest.raises(UnknownVariableError):
            VarContext(("x", "x"))
        with pytest.raises(UnknownVariableError):
            VarContext(("1x",))
        with pytest.raises(UnknownVariableError):
            VarContext(("_x",))

    def test_primes_and_digits_allowed(self):
        ctx = VarContext(("x'", "x_1", "Y0"))
        assert ctx.index("x'") == 0

    def test_fresh_name(self):
        assert XY.fresh_name("u") == "u"
        assert XY.fresh_name("x") == "x'"


class TestParse:
    def test_direct_construction(self):
        p = parse_poly("x^2*y - 3", XY)
        assert p.coefficient((2, 1)) == 1
        assert p.coefficient((0, 0)) == -3
        assert p.num_terms() == 2

    def test_single_coordinate(self):
        assert parse_poly("t^2", T) == Poly.variable(T, "t") ** 2

    def test_algebraic_identity_cancels(self):
        assert parse_poly("(x+y)^2 - x^2 - 2*x*y - y^2", XY).is_zero()

    def test_rational_literals(self):
        p = parse_poly("1/2*x + 2/3", XY)
        assert p.coefficient((1, 0)) == Fraction(1, 2)
        assert p.coefficient((0, 0)) == Fraction(2, 3)

    def test_double_star_power(self):
        assert parse_poly("x**3", XY) == parse_poly("x^3", XY)

    def test_unary_minus(self):
        assert parse_poly("-x + -(-y)", XY) == parse_poly("y - x", XY)

    def test_nesting_parses_like_flat_form(self):
        assert parse_poly("(" * 50 + "x + y" + ")" * 50, XY) == parse_poly("x + y", XY)
        assert parse_poly("-" * 49 + "+(x*y)", XY) == parse_poly("-x*y", XY)
        # Parentheses and signs count together: 100 levels is the bound.
        assert parse_poly("(-" * 50 + "x" + ")" * 50, XY) == parse_poly("x", XY)

    @pytest.mark.parametrize("text", ["(" * 101 + "x" + ")" * 101, "-" * 101 + "x", "(-" * 51 + "x" + ")" * 51,
                                      "(" * 10000 + "x"], ids=["parentheses", "signs", "mixed", "unclosed"])
    def test_nesting_past_bound_refused_at_first_token_past_it(self, text):
        with pytest.raises(ParseError) as err:
            parse_poly(text, XY)
        assert err.value.position == 100 and "nesting deeper than 100 levels" in str(err.value)

    def test_largest_powers_accepted(self):
        # (x + 1)^199 and (x + y + 1)^18 may have 200 and C(20, 2) = 190
        # terms; a monomial may have any exponent its coefficient allows,
        # and one with coefficient ±1 any exponent at all.
        p = parse_poly("(x + 1)^199", XY)
        assert p.num_terms() == 200 and p.coefficient((100, 0)) == math.comb(199, 100)
        assert parse_poly("(x + y + 1)^18", XY).num_terms() == 190
        assert parse_poly("(2*x*y)^1000", XY) == Poly(XY, {(1000, 1000): Fraction(2) ** 1000})
        assert parse_poly("(-x*y)^100001", XY) == Poly(XY, {(100001, 100001): Fraction(-1)})
        assert parse_poly("(-1)^1000001", XY) == Poly.constant(XY, -1)

    @pytest.mark.parametrize("text, position", [
        ("(x + 1)^200", 7),
        ("(x + y + 1)^19", 11),
        ("((x + 1)^20)^20", 12),
        ("(x+1)^200000", 5),
        ("(x+1)^" + "9" * 4000, 5),
    ], ids=["binomial", "trinomial", "nested", "large", "huge"])
    def test_power_past_bound_refused_at_caret(self, text, position):
        with pytest.raises(ParseError) as err:
            parse_poly(text, XY)
        assert err.value.position == position and "more than 200 terms" in str(err.value)

    @needs_default_digit_limit
    def test_power_coefficient_within_digit_limit_accepted(self):
        # 3^9000 has 4295 digits.
        assert parse_poly("3^9000*t", T) == Poly(T, {(1,): Fraction(3) ** 9000})

    @needs_default_digit_limit
    @pytest.mark.parametrize("text, position", [("3^9100*t", 1), ("(2/3)^20000", 5), ("3^40000000*t", 1)],
                             ids=["integer", "fraction", "huge"])
    def test_power_coefficient_past_digit_limit_refused_at_caret(self, text, position):
        started = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_poly(text, T)
        assert time.perf_counter() - started < 1
        assert err.value.position == position and "limit of 4300 digits" in str(err.value)

    def test_rational_function_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_poly("y/x", XY)
        assert "non-constant" in str(err.value)

    def test_division_by_zero_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("x/0", XY)

    def test_unknown_variable_with_position(self):
        with pytest.raises(ParseError) as err:
            parse_poly("x + z", XY)
        assert err.value.position == 4

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_poly("x + ", XY)
        assert err.value.position == 4
        with pytest.raises(ParseError):
            parse_poly("2x", XY)  # implicit multiplication is not in the grammar
        with pytest.raises(ParseError):
            parse_poly("x ^ y", XY)
        with pytest.raises(ParseError, match="expected '\\)'") as err:
            parse_poly("(x + y", XY)
        assert err.value.position == 6

    def test_round_trip_on_random_polys(self):
        rng = random.Random(1)
        for _ in range(150):
            p = random_poly(rng, XY, max_deg=5, max_terms=6, bound=9)
            assert parse_poly(str(p), XY) == p

    def test_zero_prints_and_parses(self):
        assert str(Poly.zero(XY)) == "0"
        assert parse_poly("0", XY).is_zero()


class TestArithmetic:
    def test_difference_of_squares(self):
        x, y = Poly.variables(XY)
        assert (x + y) * (x - y) == x ** 2 - y ** 2

    def test_multiply_by_zero(self):
        rng = random.Random(2)
        p = random_poly(rng, XY)
        assert (p * Poly.zero(XY)).is_zero()
        assert (p * 0).is_zero()

    def test_hand_expansion(self):
        # (x + y^2)^2 expanded by hand.
        assert parse_poly("(x + y^2)^2", XY) == parse_poly("x^2 + 2*x*y^2 + y^4", XY)

    def test_ring_axioms_on_random_triples(self):
        rng = random.Random(3)
        for _ in range(60):
            a, b, c = (random_poly(rng, XY) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            # Subtraction is addition of the negative, term for term in the same order.
            assert list((a - b).terms()) == list((a + (-b)).terms())
            assert (a - a).is_zero()

    def test_scalar_operations(self):
        x, _ = Poly.variables(XY)
        assert 2 * x - x == x
        assert x * Fraction(1, 2) + x * Fraction(1, 2) == x

    def test_pow(self):
        x, y = Poly.variables(XY)
        assert (x + y) ** 0 == Poly.one(XY)
        assert (x + y) ** 3 == (x + y) * (x + y) * (x + y)

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatchError):
            Poly.variable(XY, "x") + Poly.variable(T, "t")

    def test_immutable(self):
        p = parse_poly("x + y", XY)
        with pytest.raises(AttributeError):
            p.ctx = T


class TestSubstitute:
    def test_cusp_relation_dies(self):
        f = parse_poly("u^3 - v^2", UV)
        image = f.substitute({"u": parse_poly("t^2", T), "v": parse_poly("t^3", T)})
        assert image.is_zero()

    def test_projection_coordinate(self):
        f = Poly.variable(UV, "u")
        assert f.substitute({"u": parse_poly("x", XY), "v": parse_poly("x*y", XY)}) == Poly.variable(XY, "x")

    def test_missing_assignment(self):
        with pytest.raises(UnknownVariableError):
            parse_poly("u + v", UV).substitute({"u": Poly.variable(XY, "x")})

    def test_homomorphism_property(self):
        rng = random.Random(4)
        for _ in range(40):
            f = random_poly(rng, UV)
            g = random_poly(rng, UV)
            assignment = {"u": random_poly(rng, XY), "v": random_poly(rng, XY)}
            assert (f + g).substitute(assignment) == f.substitute(assignment) + g.substitute(assignment)
            assert (f * g).substitute(assignment) == f.substitute(assignment) * g.substitute(assignment)


def reference_mul(a: Poly, b: Poly) -> Poly:
    """Product by the plain all-``Fraction`` double loop, dropping a term
    as soon as it cancels: the loop the integer arithmetic must agree with."""
    out = {}
    for ma, ca in a.terms():
        for mb, cb in b.terms():
            mono = tuple(i + j for i, j in zip(ma, mb))
            acc = out.get(mono, Fraction(0)) + ca * cb
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
    return Poly(a.ctx, out)


def reference_substitute(f: Poly, images: list[Poly], target: VarContext) -> Poly:
    """f with its i-th variable replaced by ``images[i]``: each term's power
    product built by repeated :func:`reference_mul` and added, times its
    coefficient, into one all-``Fraction`` dict."""
    out = {}
    for mono, coeff in f.terms():
        product = Poly.one(target)
        for image, e in zip(images, mono):
            for _ in range(e):
                product = reference_mul(product, image)
        for m, c in product.terms():
            out[m] = out.get(m, Fraction(0)) + coeff * c
    return Poly(target, out)


def reference_transport(f: Poly, target: VarContext, rename: dict) -> Poly:
    """f re-expressed over ``target``, every coefficient added to a fresh
    ``Fraction(0)``."""
    out = {}
    for mono, coeff in f.terms():
        exps = [0] * target.arity
        for name, e in zip(f.ctx.names, mono):
            if e:
                exps[target.index(rename.get(name, name))] += e
        out[tuple(exps)] = out.get(tuple(exps), Fraction(0)) + coeff
    return Poly(target, out)


def random_coefficients(rng: random.Random, ctx: VarContext, kind: str) -> Poly:
    """A random polynomial whose coefficients are integers, non-integral
    rationals, or a mix of the two."""
    p = random_poly(rng, ctx, max_deg=4, max_terms=5)
    scale = {"integral": lambda: 1, "rational": lambda: Fraction(1, rng.choice((2, 3, 7))),
             "mixed": lambda: Fraction(1, rng.choice((1, 2, 5)))}[kind]
    return Poly(ctx, {m: c * scale() for m, c in p.terms()})


class TestAgainstFractionLoops:
    """Products, powers, substitutions and transports keep integral
    coefficients as ints while they work; they must give what the
    all-``Fraction`` loops give."""

    KINDS = ("integral", "rational", "mixed")

    @pytest.mark.parametrize("kind", KINDS)
    def test_product_and_power(self, kind):
        rng = random.Random(f"mul-{kind}")
        for _ in range(40):
            a, b = (random_coefficients(rng, XY, kind) for _ in range(2))
            assert a * b == reference_mul(a, b)
            assert a ** 3 == reference_mul(reference_mul(a, a), a)

    @pytest.mark.parametrize("kind", KINDS)
    def test_substitute(self, kind):
        rng = random.Random(f"substitute-{kind}")
        for _ in range(30):
            f = random_coefficients(rng, UV, kind)
            images = [random_coefficients(rng, XY, kind) for _ in UV.names]
            expected = reference_substitute(f, images, XY)
            assert f.substitute(dict(zip(UV.names, images))) == expected
            assert f.substitute(Powers(XY, images)) == expected

    @pytest.mark.parametrize("kind", KINDS)
    def test_transport(self, kind):
        rng = random.Random(f"transport-{kind}")
        xyz = VarContext(("x", "y", "z"))
        for _ in range(30):
            f = random_coefficients(rng, XY, kind)
            assert f.transport(xyz) == reference_transport(f, xyz, {})
            assert f.transport(UV, {"x": "v", "y": "u"}) == reference_transport(f, UV, {"x": "v", "y": "u"})
            assert f.transport(T, {"x": "t", "y": "t"}) == reference_transport(f, T, {"x": "t", "y": "t"})

    def test_product_whose_terms_cancel(self):
        x, y = Poly.variables(XY)
        for a, b in ((x + y, x - y), (x * Fraction(1, 2) + y, x - 2 * y), (x - y * Fraction(1, 3), x + y * Fraction(1, 3))):
            product = a * b
            assert product == reference_mul(a, b)
            assert product.num_terms() == 2
            assert all(c for _, c in product.terms())

    def test_power_whose_terms_cancel(self):
        # The x*y terms of (1 + x + y - x*y)^2 cancel: 2*x*y - 2*x*y.
        p = parse_poly("1 + x + y - x*y", XY)
        assert p ** 2 == reference_mul(p, p)
        assert (1, 1) not in dict((p ** 2).terms())

    def test_transport_that_merges_variables_and_cancels(self):
        merge = {"x": "t", "y": "t"}
        assert parse_poly("x - y", XY).transport(T, merge).is_zero()
        f = parse_poly("x^2 - 3/2*x*y + y^2/2 + x", XY)
        cancelled = f.transport(T, merge)
        assert cancelled == parse_poly("t", T) == reference_transport(f, T, merge)
        assert cancelled.num_terms() == 1


class TestPowers:
    @pytest.mark.parametrize("kind", TestAgainstFractionLoops.KINDS)
    def test_one_powers_serve_many_substitutions(self, kind):
        # Each substitution through one Powers gives what a fresh one
        # gives, and a power once stored is never changed.
        rng = random.Random(f"powers-{kind}")
        images = [random_coefficients(rng, XY, kind) for _ in UV.names]
        powers = Powers(XY, images)
        stored = {}
        for k in range(20):
            f = random_coefficients(rng, UV, kind) + Poly.variable(UV, "u") ** (k % 7)
            assert f.substitute(powers) == f.substitute(Powers(XY, images)) == reference_substitute(f, images, XY)
            for i, cache in enumerate(powers._cache):
                for e, power in cache.items():
                    stored.setdefault((i, e), (power, dict(power)))
        assert max(e for _, e in stored) >= 6
        for (i, e), (power, copy) in stored.items():
            assert powers._cache[i][e] is power and power == copy

    def test_images_must_share_the_ring(self):
        with pytest.raises(ContextMismatchError):
            Powers(XY, [Poly.variable(XY, "x"), Poly.variable(T, "t")])

    def test_one_image_per_variable(self):
        with pytest.raises(ContextMismatchError):
            parse_poly("u + v", UV).substitute(Powers(XY, [Poly.variable(XY, "x")]))

    def test_constant_over_the_powers_ring(self):
        # A ring without variables has no images to take a ring from.
        empty = VarContext(())
        assert Poly.constant(empty, 3).substitute(Powers(XY, [])) == Poly.constant(XY, 3)
        assert Poly.constant(empty, 3).substitute({}) == Poly.constant(empty, 3)


class TestDerivative:
    def test_examples(self):
        wu = VarContext(("w", "u"))
        assert parse_poly("w^2 - u", wu).derivative("w") == parse_poly("2*w", wu)
        uvw = VarContext(("u", "v", "w"))
        assert parse_poly("u^3 - v^2", uvw).derivative("w").is_zero()
        assert parse_poly("x + y^2", XY).derivative("x") == Poly.one(XY)

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            parse_poly("x", XY).derivative("z")

    def test_leibniz_rule(self):
        rng = random.Random(5)
        for _ in range(40):
            f = random_poly(rng, XY)
            g = random_poly(rng, XY)
            lhs = (f * g).derivative("x")
            rhs = f.derivative("x") * g + f * g.derivative("x")
            assert lhs == rhs


class TestEvaluate:
    def test_point_on_cusp_image(self):
        assert parse_poly("u^3 - v^2", UV).evaluate([4, 8]) == 0

    def test_at_origin_gives_constant_term(self):
        rng = random.Random(6)
        for _ in range(20):
            p = random_poly(rng, XY)
            assert p.evaluate([0, 0]) == p.coefficient((0, 0))

    def test_product(self):
        assert parse_poly("x*y", XY).evaluate([2, 3]) == 6

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            parse_poly("x", XY).evaluate([1])

    def test_agrees_with_constant_substitution(self):
        rng = random.Random(7)
        for _ in range(25):
            p = random_poly(rng, XY)
            a, b = Fraction(rng.randint(-5, 5), rng.randint(1, 3)), Fraction(rng.randint(-5, 5))
            by_subst = p.substitute({"x": Poly.constant(XY, a), "y": Poly.constant(XY, b)})
            assert by_subst == Poly.constant(XY, p.evaluate([a, b]))

    def test_difference_quotient_matches_derivative(self):
        # (f(x) - f(a)) / (x - a) evaluated at a equals f'(a), with the
        # quotient computed by synthetic (Horner) division.
        rng = random.Random(8)
        X = VarContext(("x",))
        for _ in range(30):
            coeffs = [Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 6))]
            a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            # synthetic division of sum(c_i x^i) by (x - a): Horner pass
            # collecting quotient coefficients top-down
            quotient: list[Fraction] = []
            acc = Fraction(0)
            for c in reversed(coeffs):
                quotient.append(acc)
                acc = acc * a + c
            # q(a) via a second Horner pass (leading zero entry is harmless)
            qa = Fraction(0)
            for q in quotient:
                qa = qa * a + q
            f = Poly(X, {(i,): c for i, c in enumerate(coeffs) if c})
            assert qa == f.derivative("x").evaluate([a])


class TestOrdersAndPrinting:
    def test_grevlex_classic_comparison(self):
        # x*z < y^2 under grevlex on (x, y, z).
        xyz = VarContext(("x", "y", "z"))
        assert GREVLEX.key_function(3)((1, 0, 1)) < GREVLEX.key_function(3)((0, 2, 0))
        assert LEX.key_function(3)((1, 0, 1)) > LEX.key_function(3)((0, 2, 0))

    def test_one_is_minimal_and_multiplicative(self):
        rng = random.Random(9)
        orders = [LEX, GRLEX, GREVLEX, Block.first(1), Block((1,))]
        for _ in range(200):
            a = tuple(rng.randint(0, 4) for _ in range(3))
            b = tuple(rng.randint(0, 4) for _ in range(3))
            w = tuple(rng.randint(0, 4) for _ in range(3))
            for order in orders:
                key = order.key_function(3)
                zero = (0, 0, 0)
                if a != zero:
                    assert key(a) > key(zero)
                if key(a) < key(b):
                    aw = tuple(x + y for x, y in zip(a, w))
                    bw = tuple(x + y for x, y in zip(b, w))
                    assert key(aw) < key(bw)

    def test_block_order_eliminates(self):
        # Any monomial using a head variable beats any head-free monomial.
        order = Block.first(1)
        assert order.key_function(3)((1, 0, 0)) > order.key_function(3)((0, 7, 9))

    @pytest.mark.parametrize("arity, head", [
        (2, (0,)), (2, (1,)), (2, (0, 1)),
        (3, (0,)), (3, (2,)), (3, (0, 2)), (3, (0, 1, 2)),
        (4, (1, 3)), (4, (0, 1)), (4, (3,)), (4, (2, 0)),
        (5, (0, 2, 4)), (5, (1,)), (5, (0, 1, 2, 3, 4)), (5, (4, 1, 3)),
    ], ids=str)
    def test_flat_block_key_orders_as_nested_key(self, arity, head):
        # The reference: grevlex on the head exponents, then grevlex on the
        # rest, as a pair of nested keys.
        def grevlex(exps):
            return (sum(exps), tuple(-e for e in reversed(exps)))

        outside = [i for i in range(arity) if i not in head]

        def nested(mono):
            return (grevlex([mono[i] for i in head]), grevlex([mono[i] for i in outside]))

        rng = random.Random(arity * 100 + len(head))
        monos = list({tuple(rng.randint(0, 3) for _ in range(arity)) for _ in range(120)})
        key = Block(head).key_function(arity)
        assert sorted(monos, key=key) == sorted(monos, key=nested)
        for a, b in zip(monos, monos[1:]):
            assert (key(a) < key(b)) == (nested(a) < nested(b)), (a, b)

    def test_leading_monomial_follows_the_order_asked(self):
        # A polynomial remembers its last leading monomial; asking under
        # another order must not return the remembered one.
        xyz = VarContext(("x", "y", "z"))
        p = parse_poly("x*z^3 + y^4 + x^2*y + z^2", xyz)
        expected = {LEX: (2, 1, 0), GRLEX: (1, 0, 3), GREVLEX: (0, 4, 0),
                    Block.first(1): (2, 1, 0), Block((2,)): (1, 0, 3), Block((1,)): (0, 4, 0)}
        assert len(set(expected.values())) == 3
        for order in [LEX, GREVLEX, LEX, Block.first(1), GRLEX, GREVLEX, Block((1,)),
                      Block((2,)), Block((1,)), LEX, GRLEX]:
            assert p.leading_monomial(order) == expected[order], order
            assert p.leading_coefficient(order) == 1
            assert p.monic(order) == p

    def test_printer_descending_grevlex(self):
        p = parse_poly("1 + x^2 + y + x*y^2", XY)
        assert str(p) == "x*y^2 + x^2 + y + 1"

    def test_printer_signs_and_fractions(self):
        assert str(parse_poly("-x^2 + 1/2", XY)) == "-x^2 + 1/2"
        assert str(parse_poly("y - x", XY)) == "-x + y"  # x > y in grevlex on (x, y)

    def test_leading_data(self):
        p = parse_poly("x*y^2 + x^2", XY)
        assert p.leading_monomial(GREVLEX) == (1, 2)
        assert p.leading_monomial(LEX) == (2, 0)
        assert p.leading_coefficient(GRLEX) == 1

    def test_coefficients_in(self):
        wuv = VarContext(("w", "u", "v"))
        q = parse_poly("u*w^2 + v*w^2 + 3*w - u*v", wuv)
        coeffs = q.coefficients_in("w")
        assert coeffs[2] == parse_poly("u + v", wuv)
        assert coeffs[1] == parse_poly("3", wuv)
        assert coeffs[0] == parse_poly("-u*v", wuv)
