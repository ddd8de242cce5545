"""Acceptance suite.

Each test enforces one headline criterion end to end (through the CLI
where the criterion is phrased that way) at its stated tolerance, and
prints one PASS line (shown with ``pytest -s`` or in captured output).
All verdicts are exact; tolerances here are verdict equality and wall
clock bounds, never numeric epsilons.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import pytest

from polymap import (
    GREVLEX,
    Ideal,
    Poly,
    VarContext,
    buchberger,
    invert,
    jc_criteria,
    etale_dichotomy,
    load_fixture,
    parse_poly,
)
from polymap.cli import main

from conftest import random_poly


def cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def ok(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE CRITERION {criterion}: PASS - {detail}")


@pytest.fixture(scope="module")
def suite_morphisms(tame_pool):
    """The interpolation suite: named fixtures plus twelve tame automorphisms,
    every one verified almost surjective by the engine itself."""
    morphisms = [load_fixture(n).morphism() for n in ("sym2", "square", "sl2row")]
    morphisms += [endo for endo, _ in tame_pool[:12]]
    for m in morphisms:
        rep = m.almost_surjective()
        assert rep.almost_surjective is True, "suite member must be almost surjective"
    return morphisms


def test_criterion_1_cusp_reproduction(capsys):
    started = time.perf_counter()
    code, rep = cli_json(capsys, "--fixture", "cusp", "determined", "-g", "t")
    assert code == 0 and rep["verdict"] is True
    code, rep = cli_json(capsys, "--fixture", "cusp", "interpolate", "-g", "t")
    assert code == 0 and rep["verdict"] == "not_in_subalgebra"
    code, rep = cli_json(capsys, "--fixture", "cusp", "almost-surjective")
    assert code == 0 and rep["verdict"] is False
    code, rep = cli_json(capsys, "--fixture", "cusp", "image", "--closure")
    assert code == 0 and rep["verdict"] == ["u^3 - v^2"]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"cusp reproduction took {elapsed:.2f}s"
    ok(1, f"cusp: determined/interpolate/almost-surjective/image exact in {elapsed:.2f}s < 1s")


def test_criterion_2_shear_reproduction(capsys):
    started = time.perf_counter()
    code, rep = cli_json(capsys, "--fixture", "shear", "determined", "-g", "x*y^2")
    assert code == 0 and rep["verdict"] is True
    code, rep = cli_json(capsys, "--fixture", "shear", "interpolate", "-g", "x*y^2")
    assert code == 0 and rep["verdict"] == "not_in_subalgebra"
    code, rep = cli_json(capsys, "--fixture", "shear", "almost-surjective")
    assert code == 0 and rep["verdict"] is False
    assert rep["certificates"][0]["complement_closure"] == ["u"]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"shear reproduction took {elapsed:.2f}s"
    ok(2, f"shear: determined/interpolate/almost-surjective with complement V(u) in {elapsed:.2f}s < 1s")


def test_criterion_3_interpolation_suite(suite_morphisms):
    started = time.perf_counter()
    rng = random.Random(303)
    pairs = 0
    for m in suite_morphisms:
        assignment = dict(zip(m.target.ctx.names, m.coords))
        for _ in range(14):
            p = random_poly(rng, m.target.ctx, max_deg=4, max_terms=4)
            g = m.pullback(p)
            result = m.interpolate(g)
            assert result.ok, f"interpolation failed on {m}"
            residual = result.interpolant.substitute(assignment) - g
            assert m.source.ideal.contains(residual)
            pairs += 1
    elapsed = time.perf_counter() - started
    assert pairs >= 200
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    ok(3, f"{pairs}/{pairs} interpolations succeed with exact pullback identity in {elapsed:.1f}s < 60s")


def test_criterion_4_degree_one_certificate_chain(suite_morphisms):
    rng = random.Random(404)
    pairs = agreements = 0
    for m in suite_morphisms:
        assert not m.target.ideal.generators  # affine-space targets only
        for _ in range(14):
            p = random_poly(rng, m.target.ctx, max_deg=4, max_terms=4)
            g = m.pullback(p)
            if not m.determined_by(g):
                continue
            result = m.minimal_polynomial(g)
            assert result.status == "relation" and result.degree == 1, str(m)
            num, den = result.rational_pair
            interpolant = m.interpolate(g).interpolant
            difference = num - den * interpolant
            assert difference.is_zero(), str(m)
            pairs += 1
            agreements += 1
    assert pairs >= 200 and agreements == pairs
    ok(4, f"minimal polynomial degree 1 with pair reducing to the interpolant on {agreements}/{pairs} determined pairs")


def test_criterion_5_divisibility_witness_and_probes(capsys, fixture_morphisms):
    code, rep = cli_json(capsys, "--fixture", "cusp", "divides", "-f", "u", "-g", "v")
    assert code == 0
    assert rep["verdict"] == {"source": True, "target": False}
    rng = random.Random(505)
    probes = 0
    for name in ("sym2", "square", "sl2row", "identity2", "triangular"):
        m = fixture_morphisms[name]
        ctx = m.target.ctx
        count = 0
        while count < 100:
            f = random_poly(rng, ctx, max_deg=2, max_terms=3)
            if m.target.ideal.contains(f):
                continue
            if rng.random() < 0.5:
                g = f * random_poly(rng, ctx, max_deg=2, max_terms=2)
            else:
                g = random_poly(rng, ctx, max_deg=3, max_terms=3)
            try:
                source_div, target_div = m.divides_transfer(f, g)
            except Exception:
                continue
            assert not (source_div and not target_div), (name, str(f), str(g))
            count += 1
            probes += 1
    ok(5, f"cusp witness (true, false) produced; {probes} probes on almost-surjective fixtures never transfer-fail")


def test_criterion_6_biregularity(tame_pool, fixture_morphisms):
    checked = 0
    for endo, word_inverse in tame_pool:
        rep = endo.biregular()
        assert rep.verdict is True and rep.consistent
        assert rep.inverse == word_inverse.coords
        checked += 1
    assert checked >= 50
    cusp_rep = fixture_morphisms["cusp"].biregular()
    assert cusp_rep.verdict is False and cusp_rep.injective and cusp_rep.surjectivity.almost_surjective is False
    assert cusp_rep.inverse is None and cusp_rep.consistent
    sl2_rep = fixture_morphisms["sl2row"].biregular()
    assert sl2_rep.verdict is False and not sl2_rep.injective and sl2_rep.surjectivity.almost_surjective is True
    assert sl2_rep.inverse is None and sl2_rep.consistent
    ok(6, f"biregular with certified inverse on {checked} automorphisms; false on cusp (injective only) and sl2row (almost surjective only); verdict/inverse consistency 100%")


def test_criterion_7_invertibility_criteria_harness(tame_pool):
    checked = 0
    for endo, _ in tame_pool:
        rep = jc_criteria(endo)
        assert rep.etale and rep.injective and all(rep.coords_determined) and rep.invertible
        assert rep.consistent
        inversion = invert(endo)
        forward = dict(zip(endo.target.ctx.names, endo.coords))
        back = dict(zip(endo.source.ctx.names, inversion.inverse.coords))
        for c, name in zip(inversion.inverse.coords, endo.source.ctx.names):
            assert c.substitute(forward) == Poly.variable(endo.source.ctx, name)
        for c, name in zip(endo.coords, endo.target.ctx.names):
            assert c.substitute(back) == Poly.variable(endo.target.ctx, name)
        checked += 1
    assert checked >= 50
    ok(7, f"criteria (injective / coordinates determined / invertible) all true and consistent on {checked} etale automorphisms; compositions reduce to the identity exactly")


def test_criterion_8_dichotomy(fixture_morphisms, tame_pool):
    hyper = etale_dichotomy(fixture_morphisms["hyperbola"])
    assert hyper.branch == "codim_one" and hyper.complement_codim == 1
    branches = {"codim_one": 1, "biregular": 0}
    for m in (fixture_morphisms["triangular"], fixture_morphisms["identity2"]):
        rep = etale_dichotomy(m)
        assert rep.branch == "biregular" and rep.inverse is not None
        branches["biregular"] += 1
    from polymap import AffineVariety, Morphism

    for endo, _ in tame_pool[:3]:
        # Same map with the etale assertion set; the Jacobian determinant
        # is a nonzero constant by construction.
        asserted = Morphism(AffineVariety.affine_space(endo.source.ctx), AffineVariety.affine_space(endo.target.ctx),
                            endo.coords, assert_etale=True)
        rep = etale_dichotomy(asserted)
        assert rep.branch == "biregular"
        branches["biregular"] += 1
    assert all(rep is not None for rep in branches)
    ok(8, f"hyperbola lands on the codimension-1 branch; {branches['biregular']} automorphisms land on the biregular branch; no third outcome")


def test_criterion_9_engine_determinism_and_sampling(fixture_morphisms):
    # (a) identical reduced bases across the two selection strategies
    rng = random.Random(909)
    for trial in range(100):
        nvars = rng.randint(2, 4)
        ctx = VarContext(tuple("abcd"[:nvars]))
        gens = [random_poly(rng, ctx, max_deg=3, max_terms=3) for _ in range(rng.randint(2, 3))]
        assert buchberger(gens, GREVLEX, "normal") == buchberger(gens, GREVLEX, "first"), trial

    # (b) elimination / radical-membership verdicts against 200-point
    # sampling oracles on parametrized fixture ideals
    def samples_cusp(rng):
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return [t, t * t, t ** 3]

    def samples_shear(rng):
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        y = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return [x, y, x, x * y]

    def samples_sl2(rng):
        a = Fraction(rng.choice([i for i in range(-9, 10) if i]), rng.randint(1, 3))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        return [a, b, c, (1 + b * c) / a]

    def samples_hyperbola(rng):
        x = Fraction(rng.choice([i for i in range(-9, 10) if i]), rng.randint(1, 3))
        return [x, 1 / x]

    tuv = VarContext(("t", "u", "v"))
    xyuv = VarContext(("x", "y", "u", "v"))
    abcd = VarContext(("a", "b", "c", "d"))
    xz = VarContext(("x", "z"))
    cases = [
        (
            Ideal(tuv, (parse_poly("u - t^2", tuv), parse_poly("v - t^3", tuv))),
            samples_cusp, ["t"],
            ["u^3 - v^2", "(u^3 - v^2)*(t + 1)", "(v - t^3)^2", "t*u - v"],
            ["t", "u", "u - v", "t + 1"],
        ),
        (
            Ideal(xyuv, (parse_poly("u - x", xyuv), parse_poly("v - x*y", xyuv))),
            samples_shear, ["x", "y"],
            ["u - x", "(u - x)*(v + y)", "v - u*y", "(v - x*y)^2"],
            ["x", "v", "u*y", "x - y"],
        ),
        (
            Ideal(abcd, (parse_poly("a*d - b*c - 1", abcd),)),
            samples_sl2, ["c", "d"],
            ["a*d - b*c - 1", "(a*d - b*c - 1)^2", "(a*d - b*c - 1)*d"],
            ["a", "a*d - b*c", "a - b", "d"],
        ),
        (
            Ideal(xz, (parse_poly("x*z - 1", xz),)),
            samples_hyperbola, ["z"],
            ["x*z - 1", "(x*z - 1)*x", "x^2*z^2 - 1"],
            ["x", "z", "x - z", "x*z"],
        ),
    ]
    rng = random.Random(910)
    for ideal, sampler, drop, members, non_members in cases:
        points = [sampler(rng) for _ in range(200)]
        eliminated = ideal.eliminate(drop)
        kept = [ideal.ctx.index(n) for n in eliminated.ctx.names]
        for g in eliminated.generators:
            for pt in points:
                assert g.evaluate([pt[i] for i in kept]) == 0
        for text in members:
            f = parse_poly(text, ideal.ctx)
            assert ideal.radical_contains(f), text
            assert all(f.evaluate(pt) == 0 for pt in points), text
        for text in non_members:
            f = parse_poly(text, ideal.ctx)
            assert not ideal.radical_contains(f), text
            assert any(f.evaluate(pt) != 0 for pt in points), text
    ok(9, "reduced bases identical across strategies on 100 random ideals; elimination and radical verdicts agree with 200-point sampling oracles on all fixtures")
