"""Shared helpers: seeded random generators, session-scoped fixtures, and
a recorder of the Groebner bases that extending ideals compute.

Morphism instances are shared across the whole test session so their
internal graph/fiber caches warm up once.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from polymap import Endomorphism, GREVLEX, Ideal, Morphism, Poly, VarContext, load_fixture, random_tame_automorphism


def random_poly(rng: random.Random, ctx: VarContext, max_deg: int = 3,
                max_terms: int = 4, bound: int = 3) -> Poly:
    """Sparse random polynomial with small integer coefficients."""
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * ctx.arity
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(ctx.arity)] += 1
        c = rng.randint(-bound, bound)
        if c:
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + c
    return Poly(ctx, {m: Fraction(c) for m, c in terms.items() if c})


def random_nonzero_poly(rng, ctx, **kw) -> Poly:
    while True:
        p = random_poly(rng, ctx, **kw)
        if not p.is_zero():
            return p


def random_point(rng: random.Random, arity: int, bound: int = 9) -> list[Fraction]:
    return [Fraction(rng.randint(-bound, bound), rng.randint(1, 4)) for _ in range(arity)]


def nagata_shear(after: bool = True) -> Endomorphism:
    """Nagata's automorphism (x - 2yq - zq^2, y + zq, z), q = xz + y^2,
    followed by the shear (x + y, y - z, z), or preceded by it when
    ``after`` is false."""
    src, tgt = VarContext(("x", "y", "z")), VarContext(("u", "v", "w"))
    x, y, z = Poly.variables(src)
    if not after:
        x, y, z = x + y, y - z, z
    q = x * z + y * y
    a, b, c = x - 2 * y * q - z * q * q, y + z * q, z
    return Endomorphism(src, tgt, [a + b, b - c, c] if after else [a, b, c])


@pytest.fixture(scope="session")
def fixture_morphisms() -> dict[str, Morphism]:
    names = ("cusp", "shear", "sl2row", "hyperbola", "sym2", "square", "triangular", "identity2")
    return {name: load_fixture(name).morphism() for name in names}


@pytest.fixture(scope="session")
def tame_pool():
    """50 certified plane automorphisms with their word-built inverses."""
    rng = random.Random(20260808)
    return [random_tame_automorphism(rng) for _ in range(50)]


@pytest.fixture
def rabinowitsch_ideals(monkeypatch):
    """The f of every inverse-variable ideal I + <s*f - 1> (``Ideal._with_inverse``)
    built while the test runs, in order."""
    built = []
    plain = Ideal._with_inverse

    def counting(ideal, f):
        built.append(f)
        return plain(ideal, f)

    monkeypatch.setattr(Ideal, "_with_inverse", counting)
    return built


class SeededRecords(list):
    """(ideal, order, basis) for every basis an extended ideal computes.

    ``extras`` maps each ideal that ``Ideal.extended`` built to the extra
    generators it was given.  ``moved`` maps (id of the polynomial, ring)
    to the polynomial, which it keeps alive so that the id stays its own,
    for every ``Poly.transport`` without a renaming made inside
    ``Ideal.extended`` or inside the basis of an extended ideal.
    """

    def __init__(self):
        super().__init__()
        self.extras: dict[Ideal, tuple[Poly, ...]] = {}
        self.moved: dict[tuple[int, VarContext], Poly] = {}
        self.depth = 0

    def inside(self, call, *args):
        self.depth += 1
        try:
            return call(*args)
        finally:
            self.depth -= 1


@pytest.fixture
def seeded_bases(monkeypatch):
    """Every basis that an ideal extending another one (``Ideal.extended``,
    ``+``) computes while the test runs, as a ``SeededRecords``."""
    records = SeededRecords()
    plain_basis, plain_extended, plain_transport = Ideal.groebner_basis, Ideal.extended, Poly.transport

    def recording(ideal, order=GREVLEX):
        if ideal._parent is None:
            return plain_basis(ideal, order)
        basis = records.inside(plain_basis, ideal, order)
        records.append((ideal, order, basis))
        return basis

    def extending(ideal, ctx, extra=()):
        extra = tuple(extra)
        result = records.inside(plain_extended, ideal, ctx, extra)
        records.extras[result] = extra
        return result

    def transporting(poly, target, rename=None):
        if records.depth and not rename:
            records.moved[id(poly), target] = poly
        return plain_transport(poly, target, rename)

    monkeypatch.setattr(Ideal, "groebner_basis", recording)
    monkeypatch.setattr(Ideal, "extended", extending)
    monkeypatch.setattr(Poly, "transport", transporting)
    return records


def check_seeded_bases(records, where) -> None:
    """Building a recorded ideal and computing its basis moved no generator
    of its parent to its ring.  Once read, the ideal's generators are the
    tuple that moving them eagerly gives, and the basis equals that of a
    fresh, unseeded ideal with those generators."""
    for ideal, order, basis in records:
        parent = ideal._parent
        assert not any((id(g), ideal.ctx) in records.moved for g in parent.generators), (where, ideal, order)
        eager = Ideal(ideal.ctx, [g.transport(ideal.ctx) for g in parent.generators] + list(records.extras[ideal]))
        assert ideal.generators == eager.generators, (where, ideal)
        assert Ideal(ideal.ctx, ideal.generators).groebner_basis(order) == basis, (where, ideal, order)


SEEDED_SITES = ("with_inverse", "fiber", "saturation", "graph_closure", "constructible_image", "add")


def run_seeded_site(site: str, m: Morphism, records: list) -> list:
    """Run one site of seeded bases on a fresh map; return the records it
    owns: those on the ideals that site extends."""
    graph = m._graph()
    if site in ("with_inverse", "fiber"):
        for x in Poly.variables(m.source.ctx):
            m.determined_by(x)
        return records if site == "with_inverse" else [r for r in records if r[0].ctx == m._fiber()[0]]
    if site == "saturation":
        pieces = m.constructible_image().pieces
        del records[:]
        for closed, minus in pieces:
            for g in minus.generators:
                closed.saturation(g)
        return records
    if site == "graph_closure":
        # A g that interpolates extends the image closure by w - g's
        # interpolant; any other g extends the graph ideal by w - g.
        for x in Poly.variables(m.source.ctx):
            m.graph_closure(x)
        return [r for r in records if r[0].ctx.names[:-1] == graph.ctx.names or r[0]._parent is m.image_closure()]
    if site == "constructible_image":
        m.constructible_image()
        return [r for r in records if r[0].ctx == graph.ctx]
    assert site == "add", site
    m.almost_surjective()
    return [r for r in records if r[0].ctx == m.target.ctx]
