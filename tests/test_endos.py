"""Self-maps of affine space: polynomial-matrix determinants, Jacobians,
inversion, criteria harness, dichotomy, and the certified
random-automorphism generator."""

from __future__ import annotations

import collections
import itertools
import random

import pytest

from polymap import (
    Endomorphism,
    Ideal,
    MissingAssertionError,
    NotEtaleError,
    NotInjectiveError,
    Poly,
    PreconditionError,
    VarContext,
    etale_dichotomy,
    invert,
    is_etale,
    jacobian_determinant,
    jc_criteria,
    load_fixture,
    Morphism,
    parse_poly,
    parse_session,
    poly_matrix_det,
    random_tame_automorphism,
)

from polymap import endos
from polymap.cli import main

from conftest import SEEDED_SITES, check_seeded_bases, nagata_shear, random_poly, run_seeded_site

XY = VarContext(("x", "y"))
UV = VarContext(("u", "v"))
PQ = VarContext(("p", "q"))
WU = VarContext(("w", "u"))
UVW = VarContext(("u", "v", "w"))


def endo(*coord_texts: str) -> Endomorphism:
    return Endomorphism(XY, UV, [parse_poly(s, XY) for s in coord_texts])


def compose(outer: Endomorphism, inner: Endomorphism) -> Endomorphism:
    assignment = dict(zip(outer.source.ctx.names, inner.coords))
    return Endomorphism(inner.source.ctx, outer.target.ctx,
                        [c.substitute(assignment) for c in outer.coords])


def det_by_permutations(rows, ctx):
    """Independent oracle: Leibniz permutation-sum determinant."""
    n = len(rows)
    total = Poly.zero(ctx)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Poly.constant(ctx, sign)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


class TestDeterminant:
    def test_empty_matrix(self):
        assert poly_matrix_det([], WU) == Poly.one(WU)

    def test_matches_permutation_expansion(self):
        rng = random.Random(13)
        for size in (1, 2, 3, 4):
            for _ in range(8):
                rows = [[random_poly(rng, WU, max_deg=1, max_terms=2, bound=2) for _ in range(size)]
                        for _ in range(size)]
                assert poly_matrix_det(rows, WU) == det_by_permutations(rows, WU)

    def test_not_square(self):
        with pytest.raises(ValueError):
            poly_matrix_det([[Poly.one(WU)], [Poly.one(WU)]], WU)


class TestJacobian:
    def test_triangular(self):
        assert jacobian_determinant(endo("x + y^2", "y")) == Poly.one(XY)

    def test_squaring(self):
        assert jacobian_determinant(endo("x^2", "y")) == parse_poly("2*x", XY)

    def test_identity(self):
        assert jacobian_determinant(endo("x", "y")) == Poly.one(XY)

    def test_chain_rule_multiplicativity(self):
        rng = random.Random(61)
        for _ in range(25):
            f = Endomorphism(XY, UV, [random_poly(rng, XY, max_deg=2, max_terms=3, bound=2) for _ in range(2)])
            g = Endomorphism(UV, PQ, [random_poly(rng, UV, max_deg=2, max_terms=3, bound=2) for _ in range(2)])
            composed = compose(g, f)
            lhs = jacobian_determinant(composed)
            rhs = jacobian_determinant(g).substitute(dict(zip(UV.names, f.coords))) * jacobian_determinant(f)
            assert lhs == rhs


class TestEtale:
    def test_examples(self):
        assert is_etale(endo("x + y^2", "y"))
        assert not is_etale(endo("x^2", "y"))
        assert is_etale(endo("x", "y"))

    def test_zero_map_not_etale(self):
        assert not is_etale(endo("0", "y"))


class TestInvert:
    def test_triangular(self):
        result = invert(endo("x + y^2", "y"))
        assert result.ok
        assert result.inverse.coords == (parse_poly("u - v^2", UV), parse_poly("v", UV))

    def test_shear_not_invertible(self):
        result = invert(endo("x", "x*y"))
        assert not result.ok
        assert result.failing_coordinate == 1  # y is not a function of (x, x*y)

    def test_identity(self):
        result = invert(endo("x", "y"))
        assert result.inverse.coords == (Poly.variable(UV, "u"), Poly.variable(UV, "v"))

    def test_collapsing_map_not_invertible(self):
        # (t, z) -> (t, 0) collapses fibers; the second coordinate is not
        # even determined, so inversion fails there.
        tz = VarContext(("t", "z"))
        st = VarContext(("s", "r"))
        emb = Endomorphism(tz, st, [Poly.variable(tz, "t"), Poly.zero(tz)])
        result = invert(emb)
        assert not result.ok
        assert result.failing_coordinate == 1

    def test_compositions_certified_on_random_tame(self, tame_pool):
        for e, word_inverse in tame_pool[:15]:
            result = invert(e)
            assert result.ok
            assert result.inverse.coords == word_inverse.coords
            forward = dict(zip(e.target.ctx.names, e.coords))
            back = dict(zip(e.source.ctx.names, result.inverse.coords))
            for c, name in zip(result.inverse.coords, e.source.ctx.names):
                assert c.substitute(forward) == Poly.variable(e.source.ctx, name)
            for c, name in zip(e.coords, e.target.ctx.names):
                assert c.substitute(back) == Poly.variable(e.target.ctx, name)


class TestJCCriteria:
    def test_triangular(self):
        rep = jc_criteria(endo("x + y^2", "y"))
        assert rep.etale and rep.injective and all(rep.coords_determined)
        assert rep.invertible and rep.consistent

    def test_composition_of_elementaries(self):
        rep = jc_criteria(endo("x + y^2", "y + (x + y^2)^3"))
        assert rep.injective and rep.invertible and rep.consistent

    def test_identity(self):
        rep = jc_criteria(endo("x", "y"))
        assert rep.invertible and rep.consistent

    def test_non_etale_rejected(self):
        with pytest.raises(NotEtaleError):
            jc_criteria(endo("x^2", "y"))
        # shear-type collapse: Jacobian determinant x is not constant
        with pytest.raises(NotEtaleError):
            jc_criteria(endo("x", "x*y"))

    def test_pool_consistency(self, tame_pool):
        for e, _ in tame_pool[:15]:
            rep = jc_criteria(e)
            assert rep.consistent
            assert rep.injective and all(rep.coords_determined) and rep.invertible


class TestAutomorphismFibres:
    """An automorphism is a closed immersion: every source variable leads
    an element of its graph basis, so fibre verdicts are read off that
    basis and build neither the fibre ideal nor an inverse-variable ideal
    I + <s*f - 1>."""

    def test_no_inverse_variable_ideal(self, rabinowitsch_ideals, tame_pool):
        for m in [e for e, _ in tame_pool[:5]] + [nagata_shear()]:
            determined, injective, jc = (Endomorphism(m.source.ctx, m.target.ctx, m.coords) for _ in range(3))
            assert all(determined.determined_by(x) for x in Poly.variables(m.source.ctx))
            assert injective.is_injective()
            assert jc_criteria(jc).consistent
            assert rabinowitsch_ideals == [], m
            assert all("fiber" not in fresh._memo for fresh in (determined, injective, jc)), m


class TestSelfMapShape:
    """Every criterion here refuses a map that is not a self-map of affine
    space, whichever caller asks."""

    @pytest.mark.parametrize("text, message", [
        ("source_ring: t\nsource_ideal: t^2 - 1\ntarget_ring: u\ntarget_ideal: u^2 - 1\nmap: u = t\n",
         "source or target has equations"),
        ("source_ring: x y\nsource_ideal: x*y - 1\ntarget_ring: u v\nmap: u = x ; v = y\n",
         "source or target has equations"),
        ("source_ring: t\ntarget_ring: u v\nmap: u = t ; v = t^2\n",
         "source and target dimensions differ"),
    ], ids=["two-points", "hyperbola-into-plane", "line-into-plane"])
    @pytest.mark.parametrize("criterion", [jacobian_determinant, is_etale, jc_criteria, invert],
                             ids=lambda f: f.__name__)
    def test_non_self_map_refused(self, criterion, text, message):
        with pytest.raises(PreconditionError, match=message):
            criterion(parse_session(text).morphism())

    def test_constructor_refuses_unequal_dimensions(self):
        x, y = Poly.variables(XY)
        with pytest.raises(PreconditionError, match="source and target dimensions differ"):
            Endomorphism(XY, UVW, [x, y, x * y])


class TestDichotomy:
    def test_hyperbola_codim_one(self, fixture_morphisms):
        rep = etale_dichotomy(fixture_morphisms["hyperbola"])
        assert rep.branch == "codim_one"
        assert rep.complement_codim == 1
        assert rep.inverse is None

    def test_automorphism_biregular_branch(self, fixture_morphisms):
        rep = etale_dichotomy(fixture_morphisms["triangular"])
        assert rep.branch == "biregular"
        assert rep.inverse is not None

    def test_requires_etale_assertion(self, fixture_morphisms):
        with pytest.raises(MissingAssertionError):
            etale_dichotomy(fixture_morphisms["cusp"])

    def test_requires_injectivity(self):
        # Squaring on the hyperbola x*z = 1 is etale and two-to-one.
        squaring = parse_session("source_ring: x z\nsource_ideal: x*z - 1\ntarget_ring: u\nmap: u = x^2\n"
                                 "assert_etale: true\n").morphism()
        with pytest.raises(NotInjectiveError):
            etale_dichotomy(squaring)

    def test_self_map_etale_flag_not_read(self):
        # On a self-map of affine space the Jacobian decides, whatever the flag says.
        shear = parse_session("source_ring: x y\ntarget_ring: u v\nmap: u = x ; v = x*y\n"
                              "assert_etale: true\n").morphism()
        with pytest.raises(NotEtaleError, match="Jacobian determinant x is not a nonzero constant"):
            etale_dichotomy(shear)


class TestPartsComputedOnce:
    """Composite verdicts reuse their parts instead of deriving them again."""

    @pytest.mark.parametrize("verdict, owner, expected", [
        (lambda: etale_dichotomy(load_fixture("triangular").morphism()).branch == "biregular",
         Morphism, {"almost_surjective": 1, "is_injective": 1}),
        # identity2 is a closed immersion: determinacy reads its graph basis.
        (lambda: jc_criteria(load_fixture("identity2").morphism()).consistent,
         Ideal, {"radical_contains": 0}),
        (lambda: main(["--fixture", "triangular", "etale"]) == 0, endos, {"poly_matrix_det": 1}),
        # jc refuses a map that is not etale, naming the determinant it computed.
        (lambda: main(["--fixture", "square", "jc"]) == 1, endos, {"poly_matrix_det": 1}),
    ], ids=["dichotomy", "jc", "etale-command", "jc-refusal"])
    def test_call_counts(self, monkeypatch, verdict, owner, expected):
        calls = collections.Counter()
        for name in expected:
            def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        assert verdict()
        assert {name: calls[name] for name in expected} == expected

    def test_one_inverse_per_map(self, monkeypatch, tame_pool):
        # biregular, invert and jc_criteria read one inverse: between them
        # each source coordinate is interpolated once, and every verdict
        # and inverse is the one that a fresh map gives for that call.
        def fresh(m):
            return Endomorphism(m.source.ctx, m.target.ctx, m.coords)

        def readings(bireg, inversion, jc):
            inverse = inversion.inverse.coords if inversion.ok else None
            return (bireg.verdict, bireg.injective, bireg.inverse, bireg.consistent,
                    inverse, inversion.failing_coordinate, jc)

        maps = [e for e, _ in tame_pool[:10]] + [nagata_shear()]
        expected = [readings(fresh(m).biregular(), invert(fresh(m)), jc_criteria(fresh(m))) for m in maps]
        calls = collections.Counter()
        plain = Morphism.interpolate

        def counted(morphism, g):
            calls[str(g)] += 1
            return plain(morphism, g)

        monkeypatch.setattr(Morphism, "interpolate", counted)
        for index, (m, want) in enumerate(zip(maps, expected)):
            m = fresh(m)
            calls.clear()
            assert readings(m.biregular(), invert(m), jc_criteria(m)) == want, index
            assert calls == {name: 1 for name in m.source.ctx.names}, index


class TestTameGenerator:
    def test_pool_is_certified_and_etale(self, tame_pool):
        assert len(tame_pool) >= 50
        for e, word_inverse in tame_pool:
            det = jacobian_determinant(e)
            assert det.is_constant() and not det.is_zero()
            forward = dict(zip(e.target.ctx.names, e.coords))
            for c, name in zip(word_inverse.coords, e.source.ctx.names):
                assert c.substitute(forward) == Poly.variable(e.source.ctx, name)

    def test_deterministic_for_fixed_seed(self):
        a1, _ = random_tame_automorphism(random.Random(5))
        a2, _ = random_tame_automorphism(random.Random(5))
        assert a1.coords == a2.coords

    def test_degree_cap_respected(self, tame_pool):
        for e, word_inverse in tame_pool:
            assert max(c.total_degree() for c in e.coords) <= 4
            assert max(c.total_degree() for c in word_inverse.coords) <= 4


class TestSeededSites:
    """The seeded bases of tame plane automorphisms and of a Nagata map
    equal fresh, unseeded bases, and the verdicts they feed hold."""

    @pytest.mark.parametrize("site", SEEDED_SITES)
    def test_seeded_basis_equals_fresh(self, site, tame_pool, seeded_bases):
        maps = [Endomorphism(e.source.ctx, e.target.ctx, e.coords) for e, _ in tame_pool[:5]]
        maps.append(nagata_shear())
        owned = 0
        for index, m in enumerate(maps):
            del seeded_bases[:]
            owned += len(run_seeded_site(site, m, seeded_bases))
            check_seeded_bases(seeded_bases, (site, index))
        # An automorphism's image descent ends in round 0 (a constant
        # leading-coefficient product), so it makes no round ideal.
        assert (owned > 0) == (site != "constructible_image"), site

    def test_nagata_shear_certified(self):
        m = nagata_shear()
        report = jc_criteria(m)
        assert report.injective is True and all(report.coords_determined) and report.consistent
        assert m.biregular().verdict is True
