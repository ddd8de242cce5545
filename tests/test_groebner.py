"""Groebner kernel: division, bases, seeded bases, elimination, membership,
radicals, saturation, dimension, principality."""

from __future__ import annotations

import heapq
import itertools
import random
import sys
import threading
from fractions import Fraction

import pytest

from polymap import groebner
from polymap import (
    Block,
    ContextMismatchError,
    GREVLEX,
    GRLEX,
    LEX,
    GrevLex,
    Ideal,
    Poly,
    VarContext,
    buchberger,
    normal_form,
    parse_poly,
)
from polymap.orders import restriction

from conftest import random_nonzero_poly, random_poly

TUV = VarContext(("t", "u", "v"))
XY = VarContext(("x", "y"))
UV = VarContext(("u", "v"))


def cusp_graph_ideal() -> Ideal:
    return Ideal(TUV, (parse_poly("u - t^2", TUV), parse_poly("v - t^3", TUV)))


class TestNormalForm:
    def test_single_division_step(self):
        # x^2*y reduces to x^4 modulo <y - x^2> under lex with y > x.
        yx = VarContext(("y", "x"))
        ideal = Ideal(yx, (parse_poly("y - x^2", yx),))
        assert ideal.normal_form(parse_poly("x^2*y", yx), LEX) == parse_poly("x^4", yx)

    def test_generators_reduce_to_zero(self):
        ideal = cusp_graph_ideal()
        for g in ideal.generators:
            assert ideal.normal_form(g).is_zero()

    def test_one_modulo_proper_ideal(self):
        ideal = Ideal(XY, (parse_poly("x^2 + y^2 - 1", XY),))
        assert ideal.normal_form(Poly.one(XY)) == Poly.one(XY)

    def test_linear_over_constants(self):
        rng = random.Random(21)
        ideal = Ideal(XY, (parse_poly("x^2 - y", XY), parse_poly("y^3", XY)))
        for _ in range(20):
            f = random_poly(rng, XY)
            g = random_poly(rng, XY)
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            assert ideal.normal_form(f * c + g) == ideal.normal_form(f) * c + ideal.normal_form(g)

    def test_idempotent(self):
        rng = random.Random(22)
        ideal = Ideal(XY, (parse_poly("x*y - 1", XY),))
        for _ in range(20):
            nf = ideal.normal_form(random_poly(rng, XY))
            assert ideal.normal_form(nf) == nf


def reference_divide(f: Poly, divisors, order) -> Poly:
    """Multivariate division by a full scan for the largest pending term at
    every step: the plain loop the ordered kernel must agree with."""
    key = order.key_function(f.ctx.arity)
    leads = [(g.leading_monomial(order), dict(g.terms())) for g in divisors]
    work = dict(f.terms())
    remainder = {}
    while work:
        lm = max(work, key=key)
        lc = work[lm]
        for glm, gterms in leads:
            if all(a <= b for a, b in zip(glm, lm)):
                break
        else:
            remainder[lm] = work.pop(lm)
            continue
        shift = tuple(a - b for a, b in zip(lm, glm))
        factor = lc / gterms[glm]
        for gm, gc in gterms.items():
            mono = tuple(a + b for a, b in zip(gm, shift))
            acc = work.get(mono, Fraction(0)) - factor * gc
            if acc:
                work[mono] = acc
            else:
                work.pop(mono, None)
    return Poly(f.ctx, remainder)


def reference_s_polynomial(f: Poly, g: Poly, order) -> Poly:
    """The classical mf*f - mg*g, by two monomial ``Poly``s, two products
    and a subtraction."""
    lf, lg = f.leading_monomial(order), g.leading_monomial(order)
    lcm = tuple(map(max, lf, lg))
    mf = Poly(f.ctx, {tuple(a - b for a, b in zip(lcm, lf)): 1 / f.leading_coefficient(order)})
    mg = Poly(g.ctx, {tuple(a - b for a, b in zip(lcm, lg)): 1 / g.leading_coefficient(order)})
    return mf * f - mg * g


def reference_buchberger(generators, order, strategy="normal", seed=()):
    """Buchberger at the ``Poly`` level, with ``reference_divide`` for every
    division: reduce the generators by the seed, run the pairs under the
    two criteria, then minimize and tail-reduce.  The term-map kernel must
    return the identical tuple."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return tuple(seed)
    key = order.key_function(gens[0].ctx.arity)
    basis = list(seed)
    old = len(basis)
    reduced = (reference_divide(g, seed, order) for g in gens)
    basis.extend(dict.fromkeys(h.monic(order) for h in reduced if not h.is_zero()))
    lms = [g.leading_monomial(order) for g in basis]
    pairs = {}
    queue = []
    counter = itertools.count()

    def add_pair(i, j):
        pair = (min(i, j), max(i, j))
        lcm = tuple(map(max, lms[pair[0]], lms[pair[1]]))
        pairs[pair] = lcm
        ticket = next(counter)
        rank = (ticket,) if strategy == "first" else (sum(lcm), key(lcm), ticket)
        heapq.heappush(queue, (rank, pair))

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    for i in range(len(basis)):
        for j in range(max(i + 1, old), len(basis)):
            add_pair(i, j)
    while queue:
        i, j = heapq.heappop(queue)[1]
        lcm = pairs.pop((i, j))
        if lcm == tuple(a + b for a, b in zip(lms[i], lms[j])):
            continue
        if any(divides(lms[k], lcm) and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k in range(len(basis)) if k not in (i, j)):
            continue
        h = reference_divide(reference_s_polynomial(basis[i], basis[j], order), basis, order)
        if h.is_zero():
            continue
        basis.append(h.monic(order))
        lms.append(h.leading_monomial(order))
        for k in range(len(basis) - 1):
            add_pair(k, len(basis) - 1)

    keep = [i for i, lm in enumerate(lms)
            if not any(divides(other, lm) and (other != lm or j < i) for j, other in enumerate(lms) if j != i)]
    minimal = [basis[i] for i in keep]
    out = [reference_divide(g, minimal[:i] + minimal[i + 1:], order).monic(order) for i, g in enumerate(minimal)]
    out.sort(key=lambda g: key(g.leading_monomial(order)), reverse=True)
    return tuple(out)


class TestDivisionKernel:
    ORDERS = (LEX, GRLEX, GREVLEX, Block.first(1))

    @pytest.mark.parametrize("order", ORDERS, ids=str)
    def test_matches_reference_division(self, order):
        rng = random.Random(34)
        for trial in range(40):
            f = random_poly(rng, TUV, max_deg=6, max_terms=10)
            divisors = [random_nonzero_poly(rng, TUV, max_deg=3, max_terms=4) for _ in range(rng.randint(1, 4))]
            r = normal_form(f, divisors, order)
            assert r == reference_divide(f, divisors, order), (trial, f, divisors)
            leads = [d.leading_monomial(order) for d in divisors]
            for mono in r.monomials():
                assert not any(all(a <= b for a, b in zip(lm, mono)) for lm in leads), (trial, mono)

    @pytest.mark.parametrize("order", ORDERS, ids=str)
    def test_rational_and_non_monic_divisors(self, order):
        # Integral coefficients travel as int inside the division, the
        # others as Fraction; mixed dividends and divisors must still
        # divide exactly as the plain all-Fraction loop does.
        rng = random.Random(35)

        def scaled(p):
            return Poly(p.ctx, {m: c / rng.choice((1, 1, 2, 3, 7)) * rng.choice((1, 1, 2, 5)) for m, c in p.terms()})

        for trial in range(40):
            f = scaled(random_poly(rng, TUV, max_deg=6, max_terms=10))
            divisors = [scaled(random_nonzero_poly(rng, TUV, max_deg=3, max_terms=4))
                        for _ in range(rng.randint(1, 4))]
            if trial % 4 == 0:
                divisors = [d.monic(order) for d in divisors]
            r = normal_form(f, divisors, order)
            assert r == reference_divide(f, divisors, order), (trial, f, divisors)
            assert all(type(c) is Fraction for _, c in r.terms()), (trial, r)

    def test_coefficients_stay_fractions(self):
        # Poly equality cannot see an int leaking out of the kernel, since
        # 3 == Fraction(3); check the coefficient types themselves.
        rng = random.Random(36)
        for _ in range(15):
            gens = [random_nonzero_poly(rng, TUV, max_deg=3, max_terms=4) for _ in range(3)]
            f = random_poly(rng, TUV, max_deg=5, max_terms=8)
            for order in self.ORDERS:
                basis = buchberger(gens, order)
                assert all(type(c) is Fraction for g in basis for _, c in g.terms())
                r = normal_form(f, basis, order)
                assert all(type(c) is Fraction for _, c in r.terms())
            images = {name: random_poly(rng, XY) for name in TUV.names}
            # Products, powers and transports work on ints where they can;
            # a basis element brings rational coefficients in.
            merged = f.transport(VarContext(("w",)), dict.fromkeys(TUV.names, "w"))
            for p in (f.substitute(images), f * f, f * basis[-1], basis[-1] ** 3, f ** 2, merged):
                assert all(type(c) is Fraction for _, c in p.terms())

    def test_term_that_cancels_and_reappears(self):
        # Modulo x^2 - x*y - y^2 (grevlex), reducing x^3 adds x^2*y + x*y^2,
        # which cancels the -x*y^2 of f; reducing x^2*y then brings x*y^2
        # back.  The remainder is f - (x + y)*g = x*y^2 + y^3.
        g = parse_poly("x^2 - x*y - y^2", XY)
        f = parse_poly("x^3 - x*y^2", XY)
        assert normal_form(f, [g]) == parse_poly("x*y^2 + y^3", XY) == reference_divide(f, [g], GREVLEX)
        # Here x^2*y cancels and never comes back: x^3 - x^2*y = x*g + x*y^2.
        f = parse_poly("x^3 - x^2*y", XY)
        assert normal_form(f, [g]) == parse_poly("x*y^2", XY) == reference_divide(f, [g], GREVLEX)


class TestBuchberger:
    def test_cusp_block_elimination_contains_relation(self):
        # Independent checks: the relation vanishes under the
        # parametrization and belongs to the ideal by normal form.
        ideal = cusp_graph_ideal()
        basis = ideal.groebner_basis(Block.first(1))
        relation = parse_poly("u^3 - v^2", TUV)
        assert relation in basis
        substituted = relation.substitute({
            "t": Poly.variable(VarContext(("t",)), "t"),
            "u": parse_poly("t^2", VarContext(("t",))),
            "v": parse_poly("t^3", VarContext(("t",))),
        })
        assert substituted.is_zero()
        assert ideal.contains(relation)

    def test_unit_ideal(self):
        assert Ideal.unit(XY).groebner_basis() == (Poly.one(XY),)
        mixed = Ideal(XY, (parse_poly("x", XY), parse_poly("x + 1", XY)))
        assert mixed.groebner_basis() == (Poly.one(XY),)

    def test_already_reduced(self):
        ideal = Ideal(XY, (Poly.variable(XY, "x"), Poly.variable(XY, "y")))
        assert ideal.groebner_basis() == (Poly.variable(XY, "x"), Poly.variable(XY, "y"))

    def test_zero_ideal(self):
        assert Ideal.zero(XY).groebner_basis() == ()
        assert Ideal(XY, (Poly.zero(XY),)).groebner_basis() == ()

    def test_reduced_basis_canonical_under_generator_shuffles(self):
        rng = random.Random(23)
        gens = [parse_poly(s, TUV) for s in ("u - t^2", "v - t^3", "u*v - t^5", "t*u - v")]
        # A duplicate, a scalar multiple and a monomial multiple of other
        # generators add nothing to the ideal or to its reduced basis.
        redundant = [gens[0], gens[1] * Fraction(-3, 2), parse_poly("t*u^2", TUV) * gens[3]]
        for order in (GREVLEX, Block.first(1)):
            reference = buchberger(gens, order)
            for extra in ([], redundant):
                for _ in range(6):
                    shuffled = gens + extra
                    rng.shuffle(shuffled)
                    scaled = [g * Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2])) for g in shuffled]
                    assert buchberger(scaled, order) == reference, (order, extra)

    def test_strategies_produce_identical_reduced_bases(self):
        rng = random.Random(24)
        for trial in range(30):
            nvars = rng.randint(2, 4)
            ctx = VarContext(tuple("abcd"[:nvars]))
            gens = [random_poly(rng, ctx, max_deg=3, max_terms=3) for _ in range(rng.randint(2, 3))]
            assert buchberger(gens, GREVLEX, "normal") == buchberger(gens, GREVLEX, "first"), trial

    def test_basis_members_belong_to_ideal(self):
        # Every reduced-basis element must lie in the original ideal:
        # verified by evaluating at points of the parametrized variety.
        rng = random.Random(25)
        ideal = cusp_graph_ideal()
        for g in ideal.groebner_basis(Block.first(1)):
            for _ in range(10):
                t = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                assert g.evaluate([t, t * t, t ** 3]) == 0


# Orders for the seeded-basis tests, on (x, y, z) or on (x, y) + s.
SEED_ORDERS = {"lex": LEX, "grlex": GRLEX, "grevlex": GREVLEX, "block1": Block.first(1)}
XYZ = VarContext(("x", "y", "z"))
XYS = VarContext(("x", "y", "s"))


def random_combination(rng, gens, ctx):
    """An element of the ideal that ``gens`` generate."""
    return sum((random_poly(rng, ctx, max_deg=1, max_terms=2) * g for g in gens), Poly.zero(ctx))


@pytest.fixture
def seeds_used(monkeypatch):
    """The seed length of every ``buchberger`` run while the test runs."""
    lengths = []
    plain = groebner.buchberger

    def recording(generators, order=GREVLEX, strategy="normal", seed=()):
        lengths.append(len(seed))
        return plain(generators, order, strategy, seed)

    monkeypatch.setattr(groebner, "buchberger", recording)
    return lengths


class TestSeededBuchberger:
    """``buchberger`` started from a reduced basis, and ideals that extend
    another one, against the basis computed from all generators."""

    @pytest.mark.parametrize("name", SEED_ORDERS)
    def test_seeded_equals_from_scratch(self, name):
        order = SEED_ORDERS[name]
        rng = random.Random(1400)
        kinds = ("random", "in_ideal", "unit", "empty_seed")
        for trial in range(40):
            kind = kinds[trial % len(kinds)]
            base = [random_nonzero_poly(rng, XYZ, max_deg=3, max_terms=4) for _ in range(rng.randint(1, 2))]
            if kind == "empty_seed":
                base = []
            extras = [random_nonzero_poly(rng, XYZ, max_deg=3, max_terms=4) for _ in range(rng.randint(1, 2))]
            if kind == "in_ideal":
                extras = [random_combination(rng, base, XYZ) for _ in range(2)]
            elif kind == "unit":
                extras.append(Poly.one(XYZ) - random_nonzero_poly(rng, XYZ, max_deg=1, max_terms=2) * base[0])
            seed = buchberger(base, order)
            expected = buchberger(base + extras, order)
            assert buchberger(extras, order, seed=seed) == expected, (name, trial, base, extras)
            assert buchberger(extras, order, "first", seed) == expected, (name, trial, base, extras)
            if kind == "in_ideal":
                assert expected == seed
            if kind == "unit":
                assert expected == (Poly.one(XYZ),)

    def test_seed_alone_is_returned_as_a_basis(self):
        # With no nonzero generator the seed is the result: a Basis with the
        # seed's divisors, given as a Basis, as plain Polys, or padded onto
        # an appended variable.
        rng = random.Random(1403)
        for trial in range(10):
            gens = [random_nonzero_poly(rng, XY, max_deg=3, max_terms=3) for _ in range(2)]
            for order in (LEX, GREVLEX, Block((1,))):
                reduced = buchberger(gens, order)
                padded = groebner._basis(XYS, order, groebner._moved(reduced.divisors, lambda m: m + (0,)))
                for seed in (reduced, list(reduced), padded):
                    ctx = seed[0].ctx
                    for given in ([], [Poly.zero(ctx)]):
                        basis = buchberger(given, order, seed=seed)
                        assert isinstance(basis, groebner.Basis) and basis.order == order, (trial, order)
                        assert basis == tuple(seed), (trial, order)
                        assert basis.divisors == groebner.Basis(seed, order).divisors, (trial, order)

    def test_strategies_agree_under_every_order(self):
        # The "first" strategy is the reference for the determinism claim:
        # both strategies give the one reduced basis, with a seed or without.
        rng = random.Random(1402)
        orders = [*SEED_ORDERS.values(), Block((1, 2))]
        for trial in range(30):
            gens = [random_nonzero_poly(rng, XYZ, max_deg=2, max_terms=3) for _ in range(rng.randint(2, 3))]
            extra = [random_nonzero_poly(rng, XYZ, max_deg=2, max_terms=3)]
            for order in orders:
                seed = buchberger(gens, order, "normal")
                assert buchberger(gens, order, "first") == seed, (trial, order)
                seeded = buchberger(extra, order, "normal", seed)
                assert buchberger(extra, order, "first", seed) == seeded, (trial, order)

    def test_extended_ideals_equal_fresh_ideals(self, seeds_used):
        # Same ring and one appended variable, under each order the
        # restriction rule knows, including a head of appended variables
        # only (saturation's) and a mixed head, which starts unseeded.
        rng = random.Random(1401)
        orders = [LEX, GRLEX, GREVLEX, Block.first(1)]
        for trial in range(30):
            small = [random_nonzero_poly(rng, XY, max_deg=3, max_terms=3) for _ in range(rng.randint(1, 2))]
            parent = Ideal(XY, small)
            same = [random_nonzero_poly(rng, XY, max_deg=2, max_terms=3)]
            big = [random_nonzero_poly(rng, XYS, max_deg=2, max_terms=3)]
            cases = [(parent + same, Ideal(XY, small + same), orders),
                     (parent.extended(XYS, big), Ideal(XYS, [g.transport(XYS) for g in small] + big),
                      orders + [Block((2,)), Block((0, 2))])]
            for extended, fresh, case_orders in cases:
                for order in case_orders:
                    assert extended.groebner_basis(order) == fresh.groebner_basis(order), (trial, order)
        assert any(seeds_used)  # some run above was seeded

    def test_seed_only_where_names_and_order_restrict(self, seeds_used):
        x, y = Poly.variables(XY)
        parent = Ideal(XY, (x * x - y, x * y - 1))
        parent.groebner_basis(GREVLEX)
        s_first = VarContext(("s", "x", "y"))
        cases = [
            (XYS, GREVLEX, True),
            (XYS, Block((2,)), True),
            (XYS, Block((0, 2)), False),  # mixed head: no restriction
            (s_first, GREVLEX, False),  # names do not begin with the parent's
        ]
        for ctx, order, seeded in cases:
            extended = parent.extended(ctx, [Poly.variable(ctx, "s") * x.transport(ctx) - 1])
            fresh = Ideal(ctx, extended.generators)
            del seeds_used[:]
            basis = extended.groebner_basis(order)
            assert (seeds_used[-1] > 0) == seeded, (ctx, order)
            assert basis == fresh.groebner_basis(order), (ctx, order)


class TestTermMapBuchberger:
    """The term-map kernel against the ``Poly``-level reference loop."""

    ORDERS = (LEX, GRLEX, GREVLEX, Block.first(1), Block((1, 2)))

    @staticmethod
    def scaled(rng, p):
        """``p`` with rational, non-monic coefficients."""
        return Poly(p.ctx, {m: c * rng.choice((1, 1, 2, -3)) / rng.choice((1, 2, 3, 7)) for m, c in p.terms()})

    @pytest.mark.parametrize("order", ORDERS, ids=str)
    def test_matches_reference_buchberger(self, order):
        rng = random.Random(3000)
        key = order.key_function(XYZ.arity)
        for trial in range(16):
            gens = [self.scaled(rng, random_nonzero_poly(rng, XYZ, max_deg=3, max_terms=3))
                    for _ in range(rng.randint(1, 3))]
            extras = [self.scaled(rng, random_nonzero_poly(rng, XYZ, max_deg=2, max_terms=3))]
            if trial % 4 == 0:
                gens.append(gens[0] * Fraction(-5, 3))  # a scalar multiple of another generator
            if trial % 4 == 1:
                extras.append(Poly.zero(XYZ))
            for strategy in ("normal", "first"):
                basis = buchberger(gens, order, strategy)
                assert basis == reference_buchberger(gens, order, strategy), (trial, strategy, gens)
                seeded = buchberger(extras, order, strategy, basis)
                assert seeded == reference_buchberger(extras, order, strategy, basis), (trial, strategy, extras)
                ideal = Ideal(XYZ, gens)
                cached = (ideal.groebner_basis(order), (ideal + extras).groebner_basis(order))
                assert cached == (basis, seeded), (trial, strategy)
                for b in (basis, seeded, *cached):
                    # Each element comes prepared with the basis: monic, its
                    # leading monomial the largest under the order.
                    for g, (lm, tail) in zip(b, b.divisors, strict=True):
                        assert all(type(c) is Fraction for _, c in g.terms())
                        assert lm == max(g.monomials(), key=key), (trial, g)
                        assert {lm: 1, **dict(tail)} == dict(g.terms()), (trial, g)

    @pytest.mark.parametrize("order", ORDERS, ids=str)
    def test_s_polynomial_is_classical(self, order):
        rng = random.Random(3001)
        for trial in range(40):
            f, g = (self.scaled(rng, random_nonzero_poly(rng, XYZ, max_deg=3, max_terms=4)) for _ in range(2))
            if trial % 5 == 0:
                g = f * Fraction(2, 3)  # the S-polynomial is zero
            s = groebner.s_polynomial(f, g, order)
            assert s == reference_s_polynomial(f, g, order), (trial, f, g)
            assert all(type(c) is Fraction for _, c in s.terms())

    def test_inputs_checked_before_any_work(self):
        x = Poly.variable(XY, "x")
        u = Poly.variable(UV, "u")
        for gens in ([], [Poly.zero(XY)], [x]):
            with pytest.raises(ValueError, match="unknown selection strategy"):
                buchberger(gens, strategy="bogus")
        basis = buchberger([x])
        for gens, seed in (([x, u], ()), ([u], basis), ([Poly.zero(UV)], basis), ([], (x, u))):
            with pytest.raises(ContextMismatchError):
                buchberger(gens, seed=seed)
        with pytest.raises(ContextMismatchError):
            groebner.s_polynomial(x, u, GREVLEX)


@pytest.fixture
def leading_calls(monkeypatch):
    """Every polynomial whose ``leading_monomial`` is asked while the test runs."""
    calls = []
    plain = Poly.leading_monomial

    def counting(p, order=GREVLEX):
        calls.append(p)
        return plain(p, order)

    monkeypatch.setattr(Poly, "leading_monomial", counting)
    return calls


class TestPreparedBases:
    """A reduced basis is kept as the monic divisors that division reads,
    so no reader of a cached basis asks a ``Poly`` for its leading
    monomial again."""

    def test_cached_bases_answer_without_leading_monomials(self, leading_calls):
        x, y = Poly.variables(XY)
        # (generators, f, f in I, f in the radical, dimension): f in I; f
        # outside an ideal with a squarefree initial ideal; f in the radical
        # but not in the ideal, which takes the Rabinowitsch ideal.
        cases = [([x * x - y, x * y - 1], x ** 3 - 1, True, True, 0),
                 ([x * y], x, False, False, 1),
                 ([x * x, y ** 3], x + y, False, True, 0)]
        for gens, f, member, radical, dim in cases:
            ideal = Ideal(XY, gens)
            ideal.groebner_basis(GREVLEX)
            ideal.groebner_basis(LEX)
            del leading_calls[:]
            answers = (ideal.contains(f), ideal.normal_form(f).is_zero(), ideal.normal_form(f, LEX).is_zero(),
                       ideal.radical_contains(f), ideal.dimension(), ideal.is_unit())
            assert leading_calls == [], gens
            assert answers == (member, member, member, radical, dim, False), gens

    def test_seeded_runs_read_the_parents_divisors(self, leading_calls, seeds_used):
        rng = random.Random(3100)
        for trial in range(10):
            parent = Ideal(XY, [random_nonzero_poly(rng, XY, max_deg=3, max_terms=3) for _ in range(2)])
            big = [random_nonzero_poly(rng, XYS, max_deg=2, max_terms=3)]
            for order in (LEX, GRLEX, GREVLEX, Block.first(1), Block((2,))):
                seed = parent.groebner_basis(restriction(order, XY.arity))
                del leading_calls[:], seeds_used[:]
                extended = parent.extended(XYS, big)
                basis = extended.groebner_basis(order)
                assert leading_calls == [] and seeds_used == [len(seed)] and seed, (trial, order)
                assert basis == Ideal(XYS, extended.generators).groebner_basis(order), (trial, order)
            seed = parent.groebner_basis(GREVLEX)
            del leading_calls[:], seeds_used[:]
            inverse = parent._with_inverse(random_nonzero_poly(rng, XY, max_deg=2, max_terms=2))
            basis = inverse.groebner_basis()
            assert leading_calls == [] and seeds_used == [len(seed)], trial
            assert basis == Ideal(inverse.ctx, inverse.generators).groebner_basis(), trial

    def test_padded_seeds_equal_fresh_bases(self):
        # A seeded run over appended variables pads the parent's basis,
        # with and without an extra generator.
        rng = random.Random(3102)
        for trial in range(10):
            parent = Ideal(XY, [random_nonzero_poly(rng, XY, max_deg=3, max_terms=3) for _ in range(2)])
            big = [random_nonzero_poly(rng, XYS, max_deg=2, max_terms=3)]
            for order in (LEX, GREVLEX, Block((2,))):
                seed = parent.groebner_basis(restriction(order, XY.arity))
                for extra in (big, []):
                    basis = parent.extended(XYS, extra).groebner_basis(order)
                    assert basis == Ideal(XYS, [g.transport(XYS) for g in seed] + extra).groebner_basis(order)

    def test_eliminate_reads_the_block_basis(self, leading_calls):
        rng = random.Random(3101)
        for trial in range(20):
            ideal = Ideal(XYZ, [random_nonzero_poly(rng, XYZ, max_deg=2, max_terms=3) for _ in range(2)])
            drop = rng.choice((["x"], ["y"], ["x", "z"]))
            ideal.groebner_basis(Block(tuple(sorted(XYZ.index(n) for n in drop))))
            del leading_calls[:]
            small = ideal.eliminate(drop)
            assert leading_calls == [], trial
            cached = small.groebner_basis()
            assert cached == buchberger(small.generators) == small.generators, trial
            key = GREVLEX.key_function(small.ctx.arity)
            for g, (lm, tail) in zip(cached, cached.divisors, strict=True):
                assert lm == max(g.monomials(), key=key), (trial, g)
                assert {lm: 1, **dict(tail)} == dict(g.terms()), (trial, g)

    def test_verify_prepares_a_listed_basis_once(self, leading_calls):
        from polymap import AffineVariety, Morphism, cli

        ctx = VarContext(("x", "y", "z"))
        ideal = Ideal(ctx, [parse_poly(t, ctx) for t in ("x^2 - y", "x*y - z", "y*z - 1")])
        line = VarContext(("t",))
        morphism = Morphism(AffineVariety(ctx, ideal), AffineVariety.affine_space(line), [parse_poly("x", ctx)])
        for name, order in (("lex", LEX), ("grevlex", GREVLEX)):
            listed = [str(g) for g in ideal.groebner_basis(order)] + ["0"]
            cert = {"kind": "groebner_basis", "ring": "source", "order": name, "basis": listed}
            del leading_calls[:]
            lines, _ = cli._check_groebner_basis(cert, morphism)
            assert [ok for _, ok in lines] == [True, True], name
            assert len(leading_calls) == len(listed) - 1 >= 3, name

    def test_bases_copy_with_their_divisors(self):
        import copy
        import pickle

        basis = Ideal(XY, [parse_poly("x^2 - y", XY), parse_poly("x*y - 1", XY)]).groebner_basis(LEX)
        for copied in (copy.copy(basis), copy.deepcopy(basis), pickle.loads(pickle.dumps(basis))):
            assert copied == basis and type(copied) is type(basis), copied
            assert (copied.order, copied.divisors) == (basis.order, basis.divisors)


class TestOrderRestriction:
    # (order on 3 variables, old arity, expected restriction on the old variables)
    TABLE = [
        (LEX, 2, LEX),
        (GRLEX, 2, GRLEX),
        (GREVLEX, 2, GREVLEX),
        (LEX, 3, LEX),
        (Block.first(1), 2, Block.first(1)),
        (Block.first(2), 2, Block.first(2)),
        (Block((0, 1)), 3, Block((0, 1))),
        (Block((2,)), 2, GREVLEX),
        (Block((1, 2)), 1, GREVLEX),
        (Block((0, 2)), 2, None),
        (Block((1, 2)), 2, None),
    ]

    @pytest.mark.parametrize("order,old,expected", TABLE, ids=lambda v: str(v))
    def test_restriction_table(self, order, old, expected):
        assert restriction(order, old) == expected

    @pytest.mark.parametrize("order,old,expected", [row for row in TABLE if row[2] is not None],
                             ids=lambda v: str(v))
    def test_restriction_agrees_with_full_key(self, order, old, expected):
        rng = random.Random(1402)
        full = order.key_function(3)
        part = expected.key_function(old)
        pad = (0,) * (3 - old)
        for _ in range(300):
            a, b = (tuple(rng.randint(0, 3) for _ in range(old)) for _ in range(2))
            assert (full(a + pad) < full(b + pad)) == (part(a) < part(b)), (order, a, b)
            assert (full(a + pad) == full(b + pad)) == (part(a) == part(b)), (order, a, b)

    def test_unknown_order_gets_none(self):
        class Reversed(GrevLex):
            pass

        assert restriction(Reversed(), 2) is None


class TestEliminate:
    def test_cusp_implicitization(self):
        ideal = cusp_graph_ideal()
        eliminated = ideal.eliminate(["t"])
        assert eliminated.ctx == UV
        assert eliminated.generators == (parse_poly("u^3 - v^2", UV),)
        # sampled check over 20 rational parameter values
        rng = random.Random(26)
        for _ in range(20):
            t = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            for g in eliminated.generators:
                assert g.evaluate([t * t, t ** 3]) == 0

    def test_dominant_map_eliminates_to_zero(self):
        ctx = VarContext(("x", "y", "u", "v"))
        ideal = Ideal(ctx, (parse_poly("u - x", ctx), parse_poly("v - x*y", ctx)))
        assert ideal.eliminate(["x", "y"]).generators == ()

    def test_eliminate_nothing(self):
        ideal = cusp_graph_ideal()
        assert ideal.eliminate([]) is ideal

    def test_elimination_soundness_no_dropped_variables(self):
        rng = random.Random(27)
        ctx = VarContext(("a", "b", "c"))
        for _ in range(15):
            gens = [random_poly(rng, ctx) for _ in range(2)]
            result = Ideal(ctx, gens).eliminate(["a"])
            for g in result.generators:
                assert "a" not in g.variables_used()

    def test_membership_of_generator_products(self):
        rng = random.Random(28)
        ideal = cusp_graph_ideal()
        eliminated = ideal.eliminate(["t"])
        lifted = [g.transport(TUV) for g in eliminated.generators]
        for _ in range(10):
            f = random_poly(rng, TUV)
            for g in lifted:
                assert ideal.contains(f * g)


class TestMembership:
    def test_examples(self):
        x = Poly.variable(XY, "x")
        assert Ideal(XY, (x,)).contains(x ** 2)
        assert not Ideal(XY, (x ** 2,)).contains(x)
        assert cusp_graph_ideal().contains(parse_poly("u^3 - v^2", TUV))


class TestRadicalMembership:
    def test_examples(self):
        x = Poly.variable(XY, "x")
        y = Poly.variable(XY, "y")
        squares = Ideal(XY, (x ** 2,))
        assert squares.radical_contains(x)
        assert not squares.radical_contains(y)

    def test_fiber_product_case_analysis(self):
        # On the locus x = x', x*y = x'*y': either x != 0 and y = y', or
        # x = 0 and both sides vanish; so x*y^2 - x'*y'^2 vanishes there.
        ctx = VarContext(("x", "y", "x'", "y'"))
        fiber = Ideal(ctx, (parse_poly("x - x'", ctx), parse_poly("x*y - x'*y'", ctx)))
        assert fiber.radical_contains(parse_poly("x*y^2 - x'*y'^2", ctx))
        assert not fiber.radical_contains(parse_poly("y - y'", ctx))

    def test_zero_and_unit_edge_cases(self):
        squares = Ideal(XY, (Poly.variable(XY, "x") ** 2,))
        assert squares.radical_contains(Poly.zero(XY))
        assert Ideal.unit(XY).radical_contains(Poly.variable(XY, "y"))

    @pytest.mark.parametrize("gens, f, expected, rabinowitsch", [
        (["x^2"], "x^2*y - 3*x^3", True, False),
        (["1"], "y", True, False),
        # in(I) = <xy> is squarefree, so I is radical.
        (["x*y - 1"], "x - 1", False, False),
        # The zero ideal is radical: its basis is empty.
        ([], "x", False, False),
        # Squarefree generators, but the reduced basis is {x + y, y^2}.
        (["x*y", "x + y"], "y", True, True),
        (["x^2"], "x", True, True),
        (["x^2"], "y", False, True),
    ], ids=["member", "unit-ideal", "squarefree-initial-ideal", "zero-ideal", "square-lead", "nilpotent",
            "non-member"])
    def test_paths(self, rabinowitsch_ideals, gens, f, expected, rabinowitsch):
        # A member, or any f over an ideal whose initial ideal is
        # squarefree, is decided without the inverse-variable ideal.
        ideal = Ideal(XY, [parse_poly(g, XY) for g in gens])
        assert ideal.radical_contains(parse_poly(f, XY)) is expected
        assert len(rabinowitsch_ideals) == rabinowitsch


class TestQuotientSaturation:
    def test_hand_examples(self):
        x = Poly.variable(XY, "x")
        y = Poly.variable(XY, "y")
        assert Ideal(XY, (x * y,)).saturation(x).groebner_basis() == (y,)
        assert Ideal(XY, (x ** 2 * y,)).saturation(x).groebner_basis() == (y,)
        # V(x*y) off V(x) is the punctured x-axis, whose closure is V(y).
        assert Ideal(XY, (x ** 2 * y, x * y ** 2)).saturation(x).groebner_basis() == (y,)

    def test_saturation_by_zero_is_unit(self):
        # I : 0^inf is the whole ring: 0^k = 0 lies in every ideal.
        x = Poly.variable(XY, "x")
        assert Ideal(XY, (x,)).saturation(Poly.zero(XY)).is_unit()
        assert Ideal.zero(XY).saturation(Poly.zero(XY)).is_unit()

    def test_saturation_edge_cases(self):
        x = Poly.variable(XY, "x")
        y = Poly.variable(XY, "y")
        ideal = Ideal(XY, (parse_poly("x^2 - y", XY), x * y))
        assert ideal.saturation(Poly.one(XY)).same_ideal(ideal)
        assert ideal.saturation(Poly.constant(XY, Fraction(-3, 2))).same_ideal(ideal)
        # f in the radical of I: V(I) - V(f) is empty.
        assert Ideal(XY, (x ** 2, y ** 3)).saturation(x + y).is_unit()
        assert ideal.saturation(y).is_unit()
        assert Ideal.zero(XY).saturation(x).groebner_basis() == ()
        assert Ideal.unit(XY).saturation(x).is_unit()
        with pytest.raises(ContextMismatchError):
            ideal.saturation(Poly.variable(UV, "u"))

    def test_saturation_characterization(self):
        # J = I : f^inf contains I, each generator of J is pushed into I by
        # a power of f, and J is closed under cancelling f.  Multiplying
        # every generator by f^2 leaves the saturation unchanged.
        rng = random.Random(29)
        for trial in range(12):
            ideal = Ideal(XY, tuple(random_poly(rng, XY, max_deg=2, max_terms=2) for _ in range(2)))
            f = random_nonzero_poly(rng, XY, max_deg=2, max_terms=2)
            padded = Ideal(XY, tuple(g * f ** 2 for g in ideal.generators))
            saturated = ideal.saturation(f)
            for base in (ideal, padded):
                sat = base.saturation(f)
                assert sat.same_ideal(saturated), trial
                assert sat.generators == buchberger(sat.generators), trial
                assert all(sat.contains(g) for g in base.generators), trial
                for g in sat.generators:
                    assert any(base.contains(g * f ** k) for k in range(7)), (trial, g)
            for _ in range(6):
                g = random_poly(rng, XY, max_deg=2)
                assert saturated.contains(g * f) == saturated.contains(g), (trial, g)


class TestDimension:
    def test_examples(self):
        assert Ideal(UV, (parse_poly("u^3 - v^2", UV),)).dimension() == 1
        assert Ideal.zero(UV).dimension() == 2
        assert Ideal.unit(UV).dimension() == -1

    def test_full_ring_dimension(self):
        for n in (1, 2, 3, 4):
            ctx = VarContext(tuple(f"z{i}" for i in range(n)))
            assert Ideal.zero(ctx).dimension() == n

    def test_monotonic_under_inclusion(self):
        rng = random.Random(31)
        for _ in range(15):
            gens = [random_poly(rng, XY, max_deg=2, max_terms=3) for _ in range(2)]
            smaller = Ideal(XY, tuple(gens[:1]))
            bigger = Ideal(XY, tuple(gens))
            assert smaller.dimension() >= bigger.dimension()

    def test_point_is_zero_dimensional(self):
        assert Ideal(XY, (Poly.variable(XY, "x"), Poly.variable(XY, "y"))).dimension() == 0


class TestPrincipal:
    def test_examples(self):
        assert Ideal(UV, (parse_poly("u^3 - v^2", UV),)).principal_generator() == parse_poly("u^3 - v^2", UV)
        assert Ideal(XY, (Poly.variable(XY, "x"), Poly.variable(XY, "y"))).principal_generator() is None
        assert Ideal.zero(XY).principal_generator() == Poly.zero(XY)

    def test_disguised_principal(self):
        x = Poly.variable(XY, "x")
        y = Poly.variable(XY, "y")
        f = parse_poly("x^2 - y", XY)
        ideal = Ideal(XY, (f * x, f * y, f * (x + y + 1)))
        assert ideal.principal_generator() == f.monic()


class TestIdealInfrastructure:
    def test_cache_reuse_and_same_ideal(self):
        ideal = cusp_graph_ideal()
        first = ideal.groebner_basis()
        assert ideal.groebner_basis() is first
        other = Ideal(TUV, tuple(reversed(ideal.generators)))
        assert ideal.same_ideal(other)

    def test_concurrent_basis_computation_is_consistent(self):
        results = []

        def work(ideal):
            results.append(ideal.groebner_basis(Block.first(1)))

        ideal = cusp_graph_ideal()
        threads = [threading.Thread(target=work, args=(ideal,)) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)

    def test_concurrent_generator_reads_share_one_tuple(self):
        # Threads that read an extended ideal's generators at once must all
        # get the one tuple it keeps.
        big = TUV.extended(["s"])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(20):
                parent = cusp_graph_ideal()
                ideal = parent.extended(big, [Poly.variable(big, "s") * Poly.variable(big, "u") - 1])
                barrier = threading.Barrier(8)
                results = []

                def work():
                    barrier.wait(timeout=10)
                    results.append(ideal.generators)

                threads = [threading.Thread(target=work) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                assert len(results) == 8 and all(r is results[0] for r in results), trial
                assert results[0] == tuple(g.transport(big) for g in parent.generators) + ideal._own
        finally:
            sys.setswitchinterval(interval)

    def test_normal_form_against_nongroebner_list_still_divides(self):
        # Plain division by an arbitrary list: remainder plus combination
        # reconstructs nothing here, but repeated reduction terminates and
        # leaves a remainder with no leading term divisible by the list.
        rng = random.Random(33)
        divisors = [parse_poly("x^2 + y", XY), parse_poly("x*y - 1", XY)]
        for _ in range(10):
            f = random_poly(rng, XY, max_deg=4)
            r = normal_form(f, divisors)
            for d in divisors:
                lm = d.leading_monomial(GREVLEX)
                for mono in r.monomials():
                    assert not all(a <= b for a, b in zip(lm, mono))
