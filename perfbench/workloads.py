"""Seeded inputs, operations and output checks of the three workloads.

A workload is a fixed list of operations built from the seed during
set-up.  Every pass runs the whole list in order on freshly built maps,
so no morphism or Gröbner cache survives from one pass to the next and
every pass does the same work.  Each operation's result is checked
against an answer that does not come from the Gröbner engine: the
polynomial a query was built from, the inverse assembled from the word
that made a map, or a verdict derived by hand from the fixture table in
the README.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from polymap import (
    AffineVariety,
    Endomorphism,
    Ideal,
    Morphism,
    Poly,
    VarContext,
    cli,
    invert,
    jc_criteria,
    load_fixture,
    parse_poly,
    random_tame_automorphism,
)

# A plane tame map is classified by (degree of the map, degree of its
# inverse, terms of the map, terms of the inverse).  Interpolation cost
# grows steeply with the dividend and with the inverse, so each seed
# draws maps of exactly these kinds: the seed changes the maps, not how
# much work they make.  All kinds are common draws of
# random_tame_automorphism, so rejection sampling stays cheap.
INTERPOLATE_KINDS = (
    [(2, 2, 4, 4)] * 12 + [(2, 2, 3, 3)] * 8 + [(2, 2, 6, 7)] * 8
    + [(4, 4, 11, 11)] * 4 + [(4, 4, 8, 10)] * 4 + [(4, 4, 10, 8)] * 4
)
INTERPOLATE_FIXTURES = ("sym2", "square", "sl2row")
INTERPOLATE_QUERIES = 9
FIXTURE_QUERIES = 12
# Maps drawn per set-up: more than any seed needed to fill the kinds above.
TAME_DRAWS = 320
# Bands on the number of terms of the dividend g = p o map, cycled over a
# map's queries; degree-4 maps stop at the second band.
DIVIDEND_BANDS = ((1, 8), (9, 16), (17, 24))

CERTIFY_KINDS = INTERPOLATE_KINDS[::2]
CERTIFY_QUERIES = 10
# Light queries: p of degree <= 2 (<= 1 on the Nagata maps) whose
# dividend has at most this many terms.
CERTIFY_BAND = (1, 10)
# Triangular shears (x + a*y^i*z^j, y + b*z^k, z) composed with Nagata's
# map, as (i, j, k, shear applied after Nagata).  The seed picks a and b.
NAGATA_SHEARS = ((0, 0, 0, True), (1, 0, 1, True), (0, 1, 1, False))
NAGATA_QUERIES = 4

COEFFS = (-3, -2, -1, 1, 2, 3)


@dataclass
class Op:
    """One timed operation: ``run(maps)`` is timed, ``check(result)`` is not.

    ``check`` returns True for a correct answer.  An exception escaping
    ``run`` makes the operation failed.
    """

    label: str
    run: Callable[[Any], Any]
    check: Callable[[Any], bool]


@dataclass
class Workload:
    ops: list[Op]
    fresh: Callable[[], Any]  # builds the per-pass state handed to every run


# -- input generation -----------------------------------------------------------


def random_query(rng: random.Random, ctx: VarContext, degree: int, terms: int) -> Poly:
    """A polynomial of total degree exactly ``degree`` with at most ``terms`` terms."""

    def monomial(d: int) -> tuple[int, ...]:
        exps = [0] * ctx.arity
        for _ in range(d):
            exps[rng.randrange(ctx.arity)] += 1
        return tuple(exps)

    coeffs = {monomial(degree): rng.choice(COEFFS)}
    for _ in range(terms - 1):
        coeffs.setdefault(monomial(rng.randint(0, degree - 1)), rng.choice(COEFFS))
    return Poly(ctx, {m: Fraction(c) for m, c in coeffs.items()})


def tame_kind(endo: Endomorphism, inverse: Endomorphism) -> tuple[int, int, int, int]:
    return (
        max(c.total_degree() for c in endo.coords),
        max(c.total_degree() for c in inverse.coords),
        sum(c.num_terms() for c in endo.coords),
        sum(c.num_terms() for c in inverse.coords),
    )


def tame_maps(rng: random.Random, kinds: list) -> list[tuple[Endomorphism, Endomorphism]]:
    """Plane automorphisms with their word-built inverses, one per kind, in order.

    Slots are filled by the first draws of their kind.  At least
    TAME_DRAWS maps are drawn whatever the seed, so that set-up does about
    the same work for every seed.
    """
    pending = list(kinds)
    found: dict[int, tuple[Endomorphism, Endomorphism]] = {}
    drawn = 0
    while drawn < TAME_DRAWS or len(found) < len(kinds):
        endo, inverse = random_tame_automorphism(rng)
        drawn += 1
        kind = tame_kind(endo, inverse)
        if kind in pending:
            slot = pending.index(kind)
            pending[slot] = None
            found[slot] = (endo, inverse)
    return [found[i] for i in range(len(kinds))]


def banded_query(rng: random.Random, morphism: Morphism, band: tuple[int, int], max_degree: int):
    """A query p whose dividend p o map has a term count inside ``band``.

    Draws are made until one lands in the band; after 300 draws the
    closest one is kept, so every map gets its queries.
    """
    lo, hi = band
    best = None
    for _ in range(300):
        p = random_query(rng, morphism.target.ctx, rng.randint(1, max_degree), rng.randint(1, 6))
        g = morphism.pullback(p)
        n = g.num_terms()
        miss = 0 if lo <= n <= hi else min(abs(n - lo), abs(n - hi))
        if best is None or miss < best[0]:
            best = (miss, p, g)
        if miss == 0:
            break
    return best[1], best[2]


def fresh_copy(m: Morphism) -> Morphism:
    """The same map over new ideal objects, so that no cache is shared."""
    if isinstance(m, Endomorphism):
        return Endomorphism(m.source.ctx, m.target.ctx, m.coords)
    source = AffineVariety(m.source.ctx, Ideal(m.source.ctx, m.source.ideal.generators),
                           m.source.assert_irreducible, m.source.assert_factorial)
    target = AffineVariety(m.target.ctx, Ideal(m.target.ctx, m.target.ideal.generators),
                           m.target.assert_irreducible, m.target.assert_factorial)
    return Morphism(source, target, m.coords, check=False, assert_etale=m.assert_etale)


def compose(outer: list[Poly], inner: list[Poly], names: tuple[str, ...]) -> list[Poly]:
    """Coordinates of outer o inner; ``names`` are the variables of ``outer``."""
    assignment = dict(zip(names, inner))
    return [c.substitute(assignment) for c in outer]


def nagata_maps(rng: random.Random) -> list[tuple[Endomorphism, list[Poly]]]:
    """Nagata's automorphism composed with seeded triangular shears.

    The inverse of each composite is assembled from the word: Nagata's
    inverse is (u + 2vq - wq^2, v - wq, w) with q = uw + v^2, and the
    shear (x + a*y^i*z^j, y + b*z^k, z) is undone by
    (u - a*(v - b*w^k)^i*w^j, v - b*w^k, w).
    """
    src, tgt = VarContext(("x", "y", "z")), VarContext(("u", "v", "w"))
    x, y, z = Poly.variables(src)
    u, v, w = Poly.variables(tgt)
    q = x * z + y * y
    qi = u * w + v * v
    nagata = [x - 2 * y * q - z * q * q, y + z * q, z]
    nagata_inv = [u + 2 * v * qi - w * qi * qi, v - w * qi, w]
    maps = []
    for i, j, k, after in NAGATA_SHEARS:
        a, b = rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2))
        shear = [x + a * y ** i * z ** j, y + b * z ** k, z]
        v_back = v - b * w ** k
        shear_inv = [u - a * v_back ** i * w ** j, v_back, w]
        if after:
            # shear o nagata, undone by nagata^-1 o shear^-1
            forward = compose(shear, nagata, src.names)
            backward = compose(nagata_inv, shear_inv, tgt.names)
        else:
            forward = compose(nagata, shear, src.names)
            backward = compose(shear_inv, nagata_inv, tgt.names)
        maps.append((Endomorphism(src, tgt, forward), backward))
    return maps


# -- independent checks -----------------------------------------------------------


def interpolant_ok(result, p: Poly) -> bool:
    """The interpolant of p o map is p itself: every map here is dominant onto
    affine space, so the interpolant is unique."""
    return result.status == "interpolant" and result.interpolant == p


def relation_ok(determined: bool, result, p: Poly) -> bool:
    """g = p o map is determined and its relation has degree 1 with num == den * p."""
    if determined is not True or result.status != "relation" or result.degree != 1:
        return False
    if result.rational_pair is None:
        return False
    num, den = result.rational_pair
    return not den.is_zero() and num == den * p


def inverse_ok(coords, inverse: list[Poly]) -> bool:
    return coords is not None and list(coords) == list(inverse)


def biregular_ok(report, inverse: list[Poly]) -> bool:
    return report.verdict is True and report.consistent and inverse_ok(report.inverse, inverse)


def invert_ok(result, inverse: list[Poly]) -> bool:
    return result.ok and inverse_ok(result.inverse.coords, inverse)


def jc_ok(report, inverse: list[Poly]) -> bool:
    return (report.etale and report.injective is True and all(report.coords_determined)
            and report.invertible and report.consistent and inverse_ok(report.inverse, inverse))


# -- interpolate ---------------------------------------------------------------------


def _fresh_all(maps: list[Morphism]) -> Callable[[], list[Morphism]]:
    return lambda: [fresh_copy(m) for m in maps]


def interpolate_workload(seed: int, out_dir: Path) -> Workload:
    rng = random.Random(seed)
    maps: list[Morphism] = [load_fixture(name).morphism() for name in INTERPOLATE_FIXTURES]
    maps += [endo for endo, _ in tame_maps(rng, INTERPOLATE_KINDS)]
    ops = []
    for index, m in enumerate(maps):
        fixture = index < len(INTERPOLATE_FIXTURES)
        big = max(c.total_degree() for c in m.coords) > 2
        bands = DIVIDEND_BANDS[:2] if big else DIVIDEND_BANDS
        for slot in range(FIXTURE_QUERIES if fixture else INTERPOLATE_QUERIES):
            if fixture:
                p = random_query(rng, m.target.ctx, 1 + slot % 4, rng.randint(1, 4))
                g = m.pullback(p)
            else:
                p, g = banded_query(rng, m, bands[slot % len(bands)], 2 if big else 4)
            ops.append(Op(
                f"interpolate map{index} q{slot}",
                lambda fresh, i=index, g=g: fresh[i].interpolate(g),
                lambda result, p=p: interpolant_ok(result, p),
            ))
    return Workload(ops, _fresh_all(maps))


# -- certify ---------------------------------------------------------------------------


def certify_workload(seed: int, out_dir: Path) -> Workload:
    rng = random.Random(seed)
    pairs = [(endo, list(inverse.coords)) for endo, inverse in tame_maps(rng, CERTIFY_KINDS)]
    plane = len(pairs)
    pairs += nagata_maps(rng)
    maps = [endo for endo, _ in pairs]
    ops = []
    for index, (m, inverse) in enumerate(pairs):
        queries = CERTIFY_QUERIES if index < plane else NAGATA_QUERIES
        for slot in range(queries):
            p, g = banded_query(rng, m, CERTIFY_BAND, 2 if index < plane else 1)
            ops.append(Op(
                f"determined+minpoly map{index} q{slot}",
                lambda fresh, i=index, g=g: (fresh[i].determined_by(g), fresh[i].minimal_polynomial(g)),
                lambda result, p=p: relation_ok(result[0], result[1], p),
            ))
        ops.append(Op(f"biregular map{index}", lambda fresh, i=index: fresh[i].biregular(),
                      lambda report, inv=inverse: biregular_ok(report, inv)))
        ops.append(Op(f"invert map{index}", lambda fresh, i=index: invert(fresh[i]),
                      lambda result, inv=inverse: invert_ok(result, inv)))
        ops.append(Op(f"jc map{index}", lambda fresh, i=index: jc_criteria(fresh[i]),
                      lambda report, inv=inverse: jc_ok(report, inv)))
    return Workload(ops, _fresh_all(maps))


# -- cli ---------------------------------------------------------------------------------

# What the README's fixture table says about each fixture, worked out by
# hand.  "first" is the first source variable, the query function of
# determined / interpolate / minpoly; "interp" is (status, interpolant)
# and "relation" its graph relation up to a scalar, over the target ring
# plus w.  "exact" is whether the engine's image description is exact.
FIXTURE_FACTS = {
    "cusp": dict(first="t", source_gb=[], source_dim=1, target_dim=2, closure=["u^3 - v^2"],
                 injective=True, almost=False, exact=False,
                 determined=True, interp=("not_in_subalgebra", None), relation=None,
                 endo=False, etale=None, inverse=None, dichotomy=None),
    "shear": dict(first="x", source_gb=[], source_dim=2, target_dim=2, closure=[],
                  injective=False, almost=False, exact=True,
                  determined=True, interp=("interpolant", "u"), relation="w - u",
                  endo=True, etale=False, inverse=None, dichotomy=None),
    "sl2row": dict(first="a", source_gb=["a*d - b*c - 1"], source_dim=3, target_dim=2, closure=[],
                   injective=False, almost=True, exact=True,
                   determined=True, interp=("interpolant", "u"), relation="w - u",
                   endo=False, etale=None, inverse=None, dichotomy=None),
    "hyperbola": dict(first="x", source_gb=["x*z - 1"], source_dim=1, target_dim=1, closure=[],
                      injective=True, almost=False, exact=True,
                      determined=True, interp=("interpolant", "u"), relation="w - u",
                      endo=False, etale=None, inverse=None, dichotomy="codim_one"),
    "sym2": dict(first="x", source_gb=[], source_dim=2, target_dim=2, closure=[],
                 injective=False, almost=True, exact=True,
                 determined=False, interp=("not_determined", None), relation="w^2 - u*w + v",
                 endo=True, etale=False, inverse=None, dichotomy=None),
    "square": dict(first="t", source_gb=[], source_dim=1, target_dim=1, closure=[],
                   injective=False, almost=True, exact=True,
                   determined=False, interp=("not_determined", None), relation="w^2 - u",
                   endo=True, etale=False, inverse=None, dichotomy=None),
    "triangular": dict(first="x", source_gb=[], source_dim=2, target_dim=2, closure=[],
                       injective=True, almost=True, exact=True,
                       determined=True, interp=("interpolant", "u - v^2"), relation="w - u + v^2",
                       endo=True, etale=True, inverse=["u - v^2", "v"], dichotomy="biregular"),
    "identity2": dict(first="x", source_gb=[], source_dim=2, target_dim=2, closure=[],
                      injective=True, almost=True, exact=True,
                      determined=True, interp=("interpolant", "u"), relation="w - u",
                      endo=True, etale=True, inverse=["u", "v"], dichotomy="biregular"),
}

# Points missed by each fixture's image (from the README table), and
# source points whose images must lie in the described image.
MISSED_POINTS = {"shear": [(0, 1)], "sl2row": [(0, 0)], "hyperbola": [(0,)]}
SOURCE_POINTS = {
    "shear": [(0, 0), (2, 3), (-1, 5)], "sl2row": [(1, 2, 3, 7), (2, 0, 5, Fraction(1, 2))],
    "hyperbola": [(3, Fraction(1, 3)), (-2, Fraction(-1, 2))], "sym2": [(0, 0), (1, -4)],
    "square": [(0,), (-3,)], "triangular": [(1, 1), (-2, 3)], "identity2": [(4, -1)],
}



def checkable(name: str, command: str) -> bool:
    """Whether the report carries a certificate that ``verify`` re-checks."""
    facts = FIXTURE_FACTS[name]
    if command in ("gb", "image --closure", "divides"):
        return True
    if command == "interpolate":
        return facts["interp"][1] is not None
    if command == "minpoly":
        return facts["relation"] is not None
    if command in ("invert", "jc"):
        return facts["inverse"] is not None
    if command == "biregular":
        return facts["injective"] and facts["almost"]
    if command == "dichotomy":
        return facts["dichotomy"] == "biregular"
    return False


@dataclass
class CliCall:
    """Exit code, stdout and stderr of one in-process ``polymap.cli.main`` call."""

    code: int
    out: str
    err: str


def call_cli(argv: list[str]) -> CliCall:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliCall(code, out.getvalue(), err.getvalue())


def refused(call: CliCall) -> bool:
    """A documented precondition refusal: exit 1, nothing on stdout, one stderr line."""
    return call.code == 1 and call.out == "" and call.err.count("\n") == 1 and call.err.startswith("error: ")


def same_up_to_scalar(got: list[str], want: list[str], ctx: VarContext) -> bool:
    if len(got) != len(want):
        return False
    for a_text, b_text in zip(got, want):
        a, b = parse_poly(a_text, ctx), parse_poly(b_text, ctx)
        if a.is_zero() or b.is_zero():
            if a != b:
                return False
            continue
        mono = next(iter(b.monomials()))
        ratio = a.coefficient(mono) / b.coefficient(mono)
        if ratio == 0 or a != b * ratio:
            return False
    return True


def _in_pieces(pieces: list[dict], point, ctx: VarContext) -> bool:
    for piece in pieces:
        closed = [parse_poly(t, ctx) for t in piece["closed"]]
        minus = [parse_poly(t, ctx) for t in piece["minus"]]
        if all(g.evaluate(point) == 0 for g in closed) and any(g.evaluate(point) != 0 for g in minus):
            return True
    return False


def _image_point(name: str, point) -> tuple:
    m = load_fixture(name).morphism()
    return tuple(c.evaluate(point) for c in m.coords)


def cli_expectation(name: str, command: str) -> Callable[[dict], bool] | None:
    """Check of one fixture x command report, from the fixture facts alone.

    Returns None when the command refuses on this fixture, in which case
    the call must be a documented refusal.
    """
    facts = FIXTURE_FACTS[name]
    m = load_fixture(name).morphism()
    src, tgt = m.source.ctx, m.target.ctx
    graph = tgt.extended(["w"])
    first = facts["first"]
    if command == "gb":
        return lambda r: same_up_to_scalar(r["verdict"], facts["source_gb"], src)
    if command == "dim":
        return lambda r: r["verdict"] == facts["source_dim"]
    if command == "dim --ring target":
        return lambda r: r["verdict"] == facts["target_dim"]
    if command == "image --closure":
        return lambda r: same_up_to_scalar(r["verdict"], facts["closure"], tgt)
    if command == "image --constructible":
        inside = [_image_point(name, pt) for pt in SOURCE_POINTS.get(name, [])]
        missed = MISSED_POINTS.get(name, [])
        return lambda r: (r["exact"] is True and r["verdict"]["exact"] is True
                          and all(_in_pieces(r["verdict"]["pieces"], pt, tgt) for pt in inside)
                          and not any(_in_pieces(r["verdict"]["pieces"], pt, tgt) for pt in missed))
    if command == "almost-surjective":
        return lambda r: r["verdict"] is facts["almost"]
    if command == "injective":
        return lambda r: r["verdict"] is facts["injective"]
    if command == "biregular":
        return lambda r: r["verdict"] is (facts["injective"] and facts["almost"])
    if command == "determined":
        return lambda r: r["verdict"] is facts["determined"]
    if command == "interpolate":
        status, interpolant = facts["interp"]
        return lambda r: (r["verdict"] == status and (
            interpolant is None or parse_poly(r["certificates"][0]["interpolant"], tgt) == parse_poly(interpolant, tgt)))
    if command == "minpoly":
        if facts["relation"] is None:
            return lambda r: r["verdict"] == "not_hypersurface"
        return lambda r: (r["verdict"] == "relation" and r["certificates"][0]["var"] == "w"
                          and same_up_to_scalar([r["certificates"][0]["relation"]], [facts["relation"]], graph))
    if command == "divides":
        # u o cusp = t^2 divides v o cusp = t^3, while u does not divide v.
        return lambda r: r["verdict"] == {"source": True, "target": False}
    if command == "etale":
        return None if not facts["endo"] else (lambda r: r["verdict"] is facts["etale"])
    if command == "invert":
        if not facts["endo"]:
            return None
        if facts["inverse"] is None:
            return lambda r: r["verdict"] is None
        return lambda r: [parse_poly(t, tgt) for t in r["verdict"]] == [parse_poly(t, tgt) for t in facts["inverse"]]
    if command == "jc":
        if not facts["etale"]:
            return None
        return lambda r: r["verdict"] == {"injective": True, "coords_determined": [True] * src.arity,
                                          "invertible": True, "consistent": True}
    if command == "dichotomy":
        return None if facts["dichotomy"] is None else (lambda r: r["verdict"] == facts["dichotomy"])
    raise ValueError(f"no expectation for {command!r}")


COMMANDS = ("gb", "dim", "dim --ring target", "image --closure", "image --constructible",
            "almost-surjective", "injective", "biregular", "determined", "interpolate", "minpoly",
            "etale", "invert", "jc", "dichotomy")


def report_ok(call: CliCall, first: str | None, expect: Callable[[dict], bool] | None) -> bool:
    """Exit code, byte identity with the first pass, and the documented answer."""
    if expect is None:
        return refused(call)
    if call.code != 0 or call.err or (first is not None and call.out != first):
        return False
    return expect(json.loads(call.out))


def cli_workload(seed: int, out_dir: Path) -> Workload:
    """Every fixture x command with a definite documented answer, then
    ``verify`` on every report with a checkable certificate, then the two
    malformed inputs.  The inputs are fixed; the seed orders the calls."""
    rng = random.Random(seed)
    reports = out_dir / "reports"
    shutil.rmtree(reports, ignore_errors=True)
    reports.mkdir(parents=True)
    cases = []
    for name in sorted(FIXTURE_FACTS):
        first = FIXTURE_FACTS[name]["first"]
        for command in COMMANDS:
            if command == "image --constructible" and not FIXTURE_FACTS[name]["exact"]:
                continue  # an inexact description exits 2: no definite answer
            argv = ["--fixture", name] + command.split()
            if command in ("determined", "interpolate", "minpoly"):
                argv += ["-g", first]
            cases.append((name, command, argv))
    cases.append(("cusp", "divides", ["--fixture", "cusp", "divides", "-f", "u", "-g", "v"]))
    rng.shuffle(cases)

    ops = []
    replays = []
    for name, command, argv in cases:
        key = f"{name} {command}"
        path = reports / (key.replace(" ", "_").replace("-", "") + ".json")
        if checkable(name, command):
            replays.append((key, path))
        else:
            path = None
        ops.append(Op(f"cli {key}", _report_call(argv, path), _same_report_check(cli_expectation(name, command))))
    for key, path in replays:
        ops.append(Op(f"cli verify {key}", lambda _, path=path: call_cli(["verify", str(path)]), _verified))

    # depth must be a positive integer; a non-number should be refused like any bad value.
    bad_depth = out_dir / "bad_depth.session"
    bad_depth.write_text("source_ring: x\ntarget_ring: u\nmap: u = x\ndepth: abc\n", encoding="utf-8")
    # A report whose session echo lacks target_ring cannot be replayed and should be refused.
    bad_report = out_dir / "no_target_ring.json"
    bad_report.write_text(json.dumps({
        "command": "interpolate",
        "session": {"source_ring": ["x"], "map": ["u = x"]},
        "certificates": [],
    }), encoding="utf-8")
    ops.append(Op("cli malformed depth", lambda _: call_cli(["--session", str(bad_depth), "dim"]), refused))
    ops.append(Op("cli malformed report", lambda _: call_cli(["verify", str(bad_report)]), refused))
    return Workload(ops, lambda: None)


def _report_call(argv: list[str], path: Path | None) -> Callable[[Any], CliCall]:
    """Run one command; the first call saves the report for ``verify``."""

    def run(_):
        call = call_cli(argv)
        if path is not None and not saved:
            path.write_text(call.out, encoding="utf-8")
            saved.append(path)
        return call

    saved: list[Path] = []
    return run


def _same_report_check(expect: Callable[[dict], bool] | None) -> Callable[[CliCall], bool]:
    """The first report must hold the documented answer; later passes must
    repeat its bytes."""
    first: list[str] = []

    def check(call: CliCall) -> bool:
        if not report_ok(call, first[0] if first else None, expect):
            return False
        if not first:
            first.append(call.out)
        return True

    return check


def _verified(call: CliCall) -> bool:
    return call.code == 0 and json.loads(call.out)["verdict"] is True


WORKLOADS = {
    "interpolate": interpolate_workload,
    "certify": certify_workload,
    "cli": cli_workload,
}
