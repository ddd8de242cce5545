"""Batch command-line front end.

One command per invocation, JSON on stdout (``--human`` renders the
same data as text).  Exit codes: 0 definite verdict, 2 unknown verdict
(inexact image description), 1 usage, parse or precondition error.
Reports embed the session and every certificate polynomial, so the
``verify`` command can re-check a verdict from the report file alone.
The default report is byte-identical across runs; ``--timings`` adds
wall-clock data and is therefore opt-in.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time
from typing import Callable

from .endos import etale_dichotomy, is_nonzero_constant, jacobian_determinant, jc_criteria, require_self_map
from .errors import PolymapError, SessionFormatError
from .fixtures import fixture_names, fixture_session_text, load_fixture
from .groebner import normal_form, s_polynomial
from .morphisms import AffineVariety, Morphism, is_graph_relation
from .orders import ORDERS_BY_NAME
from .parsing import parse_poly
from .poly import Poly
from .session import Session, _entry, _texts, parse_session
from .values import Value

UNKNOWN_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _flag(*names: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return names, kwargs


_RING = _flag("--ring", choices=("source", "target"), default="source")
_G = _flag("-g", required=True, metavar="POLY")
# An argument that begins with one of these is an option, never the value
# of -f or -g: a long option or a one-dash flag (argparse adds -h).
_OPTION_PREFIXES = ("--", "-f", "-g", "-h")


def _attach_poly_values(argv: list[str]) -> list[str]:
    """``-g VALUE`` as ``-g=VALUE`` when VALUE begins with ``-``.

    argparse reads a lone ``-t`` as an unknown option, so ``-g -t`` would
    lack its value although ``-t`` is a polynomial.  An argument that
    begins with an option prefix stays an option, so a missing value is
    still refused.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("-f", "-g") and arg.startswith("-") and arg[:2] not in _OPTION_PREFIXES:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _load_session(ns) -> Session:
    if ns.fixture and ns.session:
        raise PolymapError("give either --session or --fixture, not both")
    if ns.fixture:
        return load_fixture(ns.fixture)
    if ns.session:
        with open(ns.session, "r", encoding="utf-8") as handle:
            return parse_session(handle.read())
    raise PolymapError(f"command {ns.command!r} needs --session FILE or --fixture NAME")


def _variety(morphism: Morphism, ring: str) -> AffineVariety:
    return morphism.source if ring == "source" else morphism.target


def _optional_texts(polys) -> list[str] | None:
    return [str(p) for p in polys] if polys is not None else None


# -- command handlers: each returns (args, verdict, certificates, exact) ------------


def _gb(ns, session: Session, morphism: Morphism):
    basis = [str(g) for g in _variety(morphism, ns.ring).ideal.groebner_basis(ORDERS_BY_NAME[ns.order])]
    certificate = {"kind": "groebner_basis", "ring": ns.ring, "order": ns.order, "basis": basis}
    return {"ring": ns.ring, "order": ns.order}, basis, [certificate], True


def _nf(ns, session: Session, morphism: Morphism):
    variety = _variety(morphism, ns.ring)
    f = parse_poly(ns.g, variety.ctx)
    value = str(variety.ideal.normal_form(f))
    certificate = {"kind": "normal_form", "ring": ns.ring, "g": str(f), "value": value}
    return {"ring": ns.ring, "g": str(f)}, value, [certificate], True


def _eliminate(ns, session: Session, morphism: Morphism):
    drop = [v.strip() for v in ns.drop.split(",") if v.strip()]
    result = _variety(morphism, ns.ring).ideal.eliminate(drop)
    generators = [str(g) for g in result.generators]
    certificate = {"kind": "elimination_ideal", "ring": ns.ring, "drop": drop,
                   "kept_ring": list(result.ctx.names), "generators": generators}
    return {"ring": ns.ring, "drop": drop}, generators, [certificate], True


def _image(ns, session: Session, morphism: Morphism):
    if ns.constructible:
        image = morphism.constructible_image(session.depth)
        description = image.to_json_dict()
        certificate = {"kind": "constructible_image", **description}
        verdict, exact = description, image.exact
    else:
        verdict = [str(g) for g in morphism.image_closure().generators]
        certificate, exact = {"kind": "image_closure", "generators": verdict}, True
    return dict(_COMMANDS["image"].kind_args[certificate["kind"]]), verdict, [certificate], exact


def _almost_surjective(ns, session: Session, morphism: Morphism):
    rep = morphism.almost_surjective(session.depth)
    certificate = {"kind": "surjectivity", "image": rep.image.to_json_dict(),
                   "complement_closure": [str(g) for g in rep.complement_closure.generators],
                   "complement_dim": rep.complement_dim, "target_dim": rep.target_dim,
                   "almost_surjective": rep.almost_surjective, "surjective": rep.surjective}
    return {}, rep.almost_surjective, [certificate], rep.image.exact


def _determined(ns, session: Session, morphism: Morphism):
    g = parse_poly(ns.g, morphism.source.ctx)
    verdict = morphism.determined_by(g)
    return {"g": str(g)}, verdict, [{"kind": "fiber_constancy", "g": str(g), "determined": verdict}], True


def _interpolate(ns, session: Session, morphism: Morphism):
    """``interpolate`` and ``extend``: the same question, the same certificate."""
    g = parse_poly(ns.g, morphism.source.ctx)
    result = morphism.interpolate(g) if ns.command == "interpolate" else morphism.extend(g)
    interpolant = str(result.interpolant) if result.interpolant is not None else None
    certificate = {"kind": "interpolation", "g": str(g), "interpolant": interpolant,
                   "witness_normal_form": str(result.witness)}
    return {"g": str(g)}, result.status, [certificate], True


def _minpoly(ns, session: Session, morphism: Morphism):
    g = parse_poly(ns.g, morphism.source.ctx)
    result = morphism.minimal_polynomial(g)
    relation = str(result.relation) if result.relation is not None else None
    certificate = {"kind": "graph_relation", "g": str(g), "var": result.var, "relation": relation,
                   "degree": result.degree, "rational_pair": _optional_texts(result.rational_pair),
                   "dominant": result.dominant, "graph_ideal": [str(p) for p in result.graph_ideal.generators]}
    return {"g": str(g)}, result.status, [certificate], True


def _divides(ns, session: Session, morphism: Morphism):
    f = parse_poly(ns.f, morphism.target.ctx)
    g = parse_poly(ns.g, morphism.target.ctx)
    source_div, target_div = morphism.divides_transfer(f, g)
    certificate = {"kind": "divisibility_transfer", "f": str(f), "g": str(g),
                   "f_pullback": str(morphism.pullback(f)), "g_pullback": str(morphism.pullback(g)),
                   "source_divides": source_div, "target_divides": target_div,
                   "witnesses_non_almost_surjective": morphism.divisor_witness(source_div, target_div)}
    return {"f": str(f), "g": str(g)}, {"source": source_div, "target": target_div}, [certificate], True


def _biregular(ns, session: Session, morphism: Morphism):
    rep = morphism.biregular(session.depth)
    certificate = {"kind": "biregularity", "injective": rep.injective,
                   "almost_surjective": rep.surjectivity.almost_surjective,
                   "inverse": _optional_texts(rep.inverse), "consistent": rep.consistent}
    return {}, rep.verdict, [certificate], rep.surjectivity.image.exact


def _etale(ns, session: Session, morphism: Morphism):
    det = jacobian_determinant(morphism)
    verdict = is_nonzero_constant(det)
    return {}, verdict, [{"kind": "jacobian", "determinant": str(det), "etale": verdict}], True


def _invert(ns, session: Session, morphism: Morphism):
    require_self_map(morphism)
    inverse, failing = morphism.construct_inverse()
    verdict = _optional_texts(inverse)
    certificate = {"kind": "inversion", "inverse": verdict, "failing_coordinate": failing}
    return {}, verdict, [certificate], True


def _jc(ns, session: Session, morphism: Morphism):
    rep = jc_criteria(morphism)
    verdict = {"injective": rep.injective, "coords_determined": list(rep.coords_determined),
               "invertible": rep.invertible, "consistent": rep.consistent}
    certificate = {"kind": "invertibility_criteria", "etale": rep.etale,
                   "inverse": _optional_texts(rep.inverse), **verdict}
    return {}, verdict, [certificate], True


def _dichotomy(ns, session: Session, morphism: Morphism):
    rep = etale_dichotomy(morphism, session.depth)
    closure = [str(g) for g in rep.surjectivity.complement_closure.generators]
    certificate = {"kind": "dichotomy", "branch": rep.branch, "complement_codim": rep.complement_codim,
                   "complement_closure": closure, "inverse": _optional_texts(rep.inverse)}
    return {}, rep.branch, [certificate], rep.surjectivity.image.exact


def _fixtures(ns):
    names = fixture_names()
    certificates = [{"kind": "session", "name": name, "text": fixture_session_text(name)} for name in names]
    return None, names, certificates, True


# -- verify: one check per certificate kind ----------------------------------------


def _same(a, b) -> bool:
    """Whether two values are the same JSON: ``1`` is neither ``true`` nor ``1.0``."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# A check reads only its certificate and the session's map.  It returns its
# identity lines, empty exactly when the certificate holds nothing to
# re-check, and the verdict that the certificate implies.
def _check_interpolation(cert: dict, morphism: Morphism):
    where = "interpolation certificate"
    interpolant = _entry(cert, "interpolant", where, str, required=False)
    if interpolant is None:
        return [], None
    g = parse_poly(_entry(cert, "g", where, str), morphism.source.ctx)
    p = parse_poly(interpolant, morphism.target.ctx)
    return [("interpolant pulls back to g", morphism.pulls_back_to(p, g))], "interpolant"


def _check_graph_relation(cert: dict, morphism: Morphism):
    where = "graph_relation certificate"
    text = _entry(cert, "relation", where, str, required=False)
    if text is None:
        return [], None
    var = _entry(cert, "var", where, str)
    relation = parse_poly(text, morphism.target.ctx.extended([var]))
    g = parse_poly(_entry(cert, "g", where, str), morphism.source.ctx)
    lines = [("relation vanishes on the graph", morphism.relation_vanishes(relation, g))]
    pair = _texts(cert, "rational_pair", where, required=False, length=2)
    if pair:
        num, den = (parse_poly(text, morphism.target.ctx) for text in pair)
        lines.append(("degree-1 pair represents g", morphism.pulls_back_to(num, morphism.pullback(den) * g)))
    follows = is_graph_relation(relation, var) and _same(cert.get("degree"), relation.degree_in(var))
    return lines, "relation" if follows else None


def _inverse_lines(cert: dict, morphism: Morphism) -> list:
    """The inverse's identity line, or none when no inverse is given."""
    src, tgt = morphism.source.ctx, morphism.target.ctx
    texts = _texts(cert, "inverse", f"{cert['kind']} certificate", required=False, length=src.arity)
    if texts is None:
        return []
    inverse = [parse_poly(text, tgt) for text in texts]
    left = all(morphism.pulls_back_to(q, x) for q, x in zip(inverse, Poly.variables(src)))
    return [("inverse composes to identity on both sides", morphism.is_section(inverse) and left)]


def _check_biregularity(cert: dict, morphism: Morphism):
    almost = cert.get("almost_surjective")
    return _inverse_lines(cert, morphism), None if almost is None else cert.get("injective") is True and almost is True


def _check_inversion(cert: dict, morphism: Morphism):
    return _inverse_lines(cert, morphism), cert.get("inverse") if cert.get("failing_coordinate") is None else None


def _check_invertibility_criteria(cert: dict, morphism: Morphism):
    where = "invertibility_criteria certificate"
    determined = _entry(cert, "coords_determined", where, list)
    if not all(isinstance(d, bool) for d in determined):
        raise SessionFormatError(f"{where} entry 'coords_determined' is not an array of booleans")
    lines, injective = _inverse_lines(cert, morphism), all(determined)
    verdict = {"injective": injective, "coords_determined": determined, "invertible": bool(lines),
               "consistent": injective == bool(lines)}
    return lines, verdict if cert.get("etale") is True and _same({k: cert.get(k) for k in verdict}, verdict) else None


def _check_dichotomy(cert: dict, morphism: Morphism):
    return _inverse_lines(cert, morphism), cert.get("branch")


def _check_divisibility(cert: dict, morphism: Morphism):
    where = "divisibility_transfer certificate"
    f = parse_poly(_entry(cert, "f", where, str), morphism.target.ctx)
    g = parse_poly(_entry(cert, "g", where, str), morphism.target.ctx)
    source_div, target_div = morphism.divides_transfer(f, g)
    f_pullback, g_pullback = (parse_poly(_entry(cert, key, where, str), morphism.source.ctx)
                              for key in ("f_pullback", "g_pullback"))
    claimed = {"source": _entry(cert, "source_divides", where), "target": _entry(cert, "target_divides", where)}
    witness = morphism.divisor_witness(claimed["source"], claimed["target"])
    lines = [("divisibility verdicts reproduce", _same(claimed, {"source": source_div, "target": target_div})),
             ("f and g pull back to f_pullback and g_pullback",
              morphism.pulls_back_to(f, f_pullback) and morphism.pulls_back_to(g, g_pullback))]
    return lines, claimed if _same(cert.get("witnesses_non_almost_surjective"), witness) else None


def _check_groebner_basis(cert: dict, morphism: Morphism):
    where = "groebner_basis certificate"
    ring = _entry(cert, "ring", where, str)
    if ring not in ("source", "target"):
        raise SessionFormatError(f"{where} entry 'ring' is neither \"source\" nor \"target\"")
    variety = _variety(morphism, ring)
    texts = _texts(cert, "basis", where)
    basis = [parse_poly(text, variety.ctx) for text in texts]
    order = ORDERS_BY_NAME.get(_entry(cert, "order", where, str))
    if order is None:
        raise SessionFormatError(f"{where} entry 'order' is not a known order")
    gens_reduce = all(normal_form(g, basis, order).is_zero() for g in variety.ideal.generators)
    basis_member = all(variety.ideal.contains(b) for b in basis)
    # Buchberger's criterion: the basis is a Groebner basis under ``order``
    # exactly when every S-polynomial of two elements reduces to zero by it.
    nonzero = [b for b in basis if not b.is_zero()]
    pairs = itertools.combinations(nonzero, 2)
    return [("basis and generators span the same ideal", gens_reduce and basis_member),
            ("every S-pair reduces to zero by the basis",
             all(normal_form(s_polynomial(f, g, order), nonzero, order).is_zero() for f, g in pairs))], texts


def _check_image_closure(cert: dict, morphism: Morphism):
    listed = _entry(cert, "generators", "image_closure certificate")
    return [("image closure reproduces", _same(listed, [str(g) for g in morphism.image_closure().generators]))], listed


def _check_jacobian(cert: dict, morphism: Morphism):
    where = "jacobian certificate"
    det = jacobian_determinant(morphism)
    etale = _entry(cert, "etale", where, bool)
    claimed = parse_poly(_entry(cert, "determinant", where, str), morphism.source.ctx)
    return [("determinant and etale verdict reproduce", claimed == det and etale is is_nonzero_constant(det))], etale


_FOLLOWS = "verdict follows from the certificate"


def _verify(ns):
    """Re-check a report's defining identities from the report alone."""
    with open(ns.report, "r", encoding="utf-8") as handle:
        try:
            original = json.load(handle)
        except (ValueError, RecursionError) as exc:  # not JSON, an integer past the digit limit, too deep
            raise PolymapError(str(exc)) from None
    command = _entry(original, "command", "report", required=False)
    session_data = _entry(original, "session", "report", required=False)
    checks: list[dict] = []
    if session_data is not None:
        declared = _COMMANDS.get(command) if isinstance(command, str) else None
        if declared is None or not declared.session:
            raise SessionFormatError(f"report command {command!r} is not a command that reads a session")
        morphism = Session.from_json_dict(session_data).morphism()
        verdict = original.get("verdict")
        args = _entry(original, "args", "report", dict, required=False) or {}
        certificates = _entry(original, "certificates", "report", list, required=False) or []
        for cert in certificates:
            kind = _entry(cert, "kind", "report certificate", required=False)
            if not (isinstance(kind, str) and kind in declared.kinds):
                raise SessionFormatError(f"report certificate kind {kind!r} is not one that {command!r} emits")
            if declared.kinds[kind] is not None:
                check, positive = declared.kinds[kind]
                lines, implied = check(cert, morphism)
                ran = bool(lines)
                # The one rule that ties the report's verdict to each certificate.
                if ran or positive(implied) or positive(verdict):
                    lines.append((_FOLLOWS, _same(implied, verdict) and positive(implied) == ran))
                checks.extend({"check": name, "ok": bool(ok)} for name, ok in lines)
            # The one rule that ties the report's question to each certificate.
            for key, value in {**cert, **declared.kind_args.get(kind, {})}.items():
                if key in args and not _same(args[key], value):
                    raise SessionFormatError(f"report args entry {key!r} contradicts the {kind} certificate")
        # A positive verdict with no certificate has nothing to follow from.
        if not certificates and any(positive(verdict) for _, positive in filter(None, declared.kinds.values())):
            checks.append({"check": _FOLLOWS, "ok": False})
    verified = all(c["ok"] for c in checks) if checks else None
    return {"report": ns.report, "verified_command": command}, verified, checks, True


# -- the command table -------------------------------------------------------------


class _Command(Value):
    """One CLI command.  ``run`` gets (ns, session, morphism), or only ns
    when the command reads no session.  ``kinds`` maps each certificate kind
    it emits to None, carried as data, or to ``(check, positive)``: ``verify``
    re-checks it by ``check(cert, morphism)``, and positive(verdict) says a
    verdict is the positive answer; ``verify`` refuses any other kind in a
    report of the command.  ``kind_args`` maps a kind to the ``args``
    entries that the kind itself answers; ``verify`` ties them to a
    report's ``args`` as it ties each certificate key.  Exit 2 means
    undecided: a null verdict from an inexact description or, with
    ``inexact_undecided``, any inexact description.  A ``check`` verdict of
    false exits 1."""

    __slots__ = _fields = ("run", "flags", "kinds", "session", "inexact_undecided", "check", "kind_args")

    def __init__(self, run: Callable, flags: tuple = (), kinds: dict | None = None, session: bool = True,
                 inexact_undecided: bool = False, check: bool = False, kind_args: dict | None = None):
        object.__setattr__(self, "run", run)
        object.__setattr__(self, "flags", flags)
        object.__setattr__(self, "kinds", {} if kinds is None else kinds)
        object.__setattr__(self, "session", session)
        object.__setattr__(self, "inexact_undecided", inexact_undecided)
        object.__setattr__(self, "check", check)
        object.__setattr__(self, "kind_args", {} if kind_args is None else kind_args)


_INTERPOLATION = {"interpolation": (_check_interpolation, lambda v: v == "interpolant")}
_COMMANDS: dict[str, _Command] = {
    "gb": _Command(_gb, (_RING, _flag("--order", choices=sorted(ORDERS_BY_NAME), default="grevlex")),
                   {"groebner_basis": (_check_groebner_basis, lambda v: v is not None)}),
    "dim": _Command(lambda ns, session, morphism: (
        {"ring": ns.ring}, _variety(morphism, ns.ring).ideal.dimension(), [], True), (_RING,)),
    "nf": _Command(_nf, (_G, _RING), {"normal_form": None}),
    "eliminate": _Command(_eliminate, (
        _flag("--drop", required=True, metavar="VARS", help="comma-separated variables to eliminate"), _RING),
        {"elimination_ideal": None}),
    "image": _Command(_image, ([_flag("--closure", action="store_true", default=True),
                                _flag("--constructible", action="store_true")],),
                      {"image_closure": (_check_image_closure, lambda v: v is not None),
                       "constructible_image": None}, inexact_undecided=True,
                      kind_args={"image_closure": {"mode": "closure"},
                                 "constructible_image": {"mode": "constructible"}}),
    "almost-surjective": _Command(_almost_surjective, kinds={"surjectivity": None}),
    "determined": _Command(_determined, (_G,), {"fiber_constancy": None}),
    "interpolate": _Command(_interpolate, (_G,), _INTERPOLATION),
    "minpoly": _Command(_minpoly, (_G,), {"graph_relation": (_check_graph_relation, lambda v: v == "relation")}),
    "extend": _Command(_interpolate, (_G,), _INTERPOLATION),
    "divides": _Command(_divides, (_flag("-f", required=True, metavar="POLY"), _G),
                        {"divisibility_transfer": (_check_divisibility, lambda v: v is not None)}),
    "injective": _Command(lambda ns, session, morphism: ({}, morphism.is_injective(), [], True)),
    "biregular": _Command(_biregular, kinds={"biregularity": (_check_biregularity, lambda v: v is True)}),
    "etale": _Command(_etale, kinds={"jacobian": (_check_jacobian, lambda v: v is not None)}),
    "invert": _Command(_invert, kinds={"inversion": (_check_inversion, lambda v: v is not None)}),
    "jc": _Command(_jc, kinds={"invertibility_criteria": (
        _check_invertibility_criteria, lambda v: isinstance(v, dict) and v.get("invertible") is True)}),
    "dichotomy": _Command(_dichotomy, kinds={"dichotomy": (_check_dichotomy, lambda v: v == "biregular")}),
    "fixtures": _Command(_fixtures, kinds={"session": None}, session=False),
    "verify": _Command(_verify, (_flag("report", metavar="REPORT.json"),), session=False, check=True),
}


def _add_flags(target, flags) -> None:
    for flag in flags:
        if isinstance(flag, list):  # mutually exclusive flags
            _add_flags(target.add_mutually_exclusive_group(), flag)
        else:
            names, kwargs = flag
            target.add_argument(*names, **kwargs)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on first use and shared: ``parse_args`` keeps no state between calls."""
    common = _Parser(add_help=False)
    # SUPPRESS keeps a subcommand's copy of these flags from overriding
    # values already parsed before the subcommand.
    common.add_argument("--session", metavar="FILE", default=argparse.SUPPRESS,
                        help="session file describing the map")
    common.add_argument("--fixture", metavar="NAME", default=argparse.SUPPRESS,
                        help="named built-in fixture")
    common.add_argument("--human", action="store_true", default=argparse.SUPPRESS,
                        help="render the report as text instead of JSON")
    common.add_argument("--timings", action="store_true", default=argparse.SUPPRESS,
                        help="include wall-clock timings (non-deterministic)")
    parser = _Parser(prog="polymap", description=__doc__, parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        _add_flags(sub.add_parser(name, parents=[common]), command.flags)
    return parser


def run_command(ns) -> tuple[dict, int]:
    """Execute one parsed command; returns (report dict, exit code)."""
    command = _COMMANDS[ns.command]
    report: dict = {"command": ns.command}
    if command.session:
        session = _load_session(ns)
        report["session"] = session.to_json_dict()
        args, verdict, certificates, exact = command.run(ns, session, session.morphism())
    else:
        args, verdict, certificates, exact = command.run(ns)
    if args is not None:
        report["args"] = args
    report.update(verdict=verdict, certificates=certificates, exact=exact)
    if command.check and verdict is None:
        report["note"] = "report contains no re-checkable certificate"
    if command.check and verdict is False:
        return report, 1
    if not exact and (verdict is None or command.inexact_undecided):
        return report, UNKNOWN_EXIT
    return report, 0


def _render_human(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    if "args" in report and report["args"]:
        lines.append("args: " + ", ".join(f"{k}={v}" for k, v in report["args"].items()))
    lines.append(f"verdict: {json.dumps(report.get('verdict'))}")
    lines.append(f"exact: {json.dumps(report.get('exact'))}")
    for cert in report.get("certificates", ()):
        kind = cert.get("kind", "data")
        body = ", ".join(f"{k}={json.dumps(v)}" for k, v in cert.items() if k != "kind")
        lines.append(f"certificate[{kind}]: {body}")
    if report.get("note"):
        lines.append(f"note: {report['note']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(_attach_poly_values(sys.argv[1:] if argv is None else argv),
                               argparse.Namespace(session=None, fixture=None, human=False, timings=False))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    started = time.perf_counter()
    try:
        report, exit_code = run_command(ns)
    except (PolymapError, OSError, UnicodeDecodeError) as exc:  # UnicodeDecodeError: a session file not in UTF-8
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report["timings"] = {"seconds": round(time.perf_counter() - started, 6)} if ns.timings else None
    if ns.human:
        print(_render_human(report))
    else:
        print(json.dumps(report, indent=2))
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
