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
import json
import sys
import time

from .endos import etale_dichotomy, invert, is_etale, jacobian_determinant, jc_criteria
from .errors import PolymapError
from .fixtures import fixture_names, fixture_session_text, load_fixture
from .groebner import normal_form
from .morphisms import Morphism
from .orders import order_by_name
from .parsing import parse_poly
from .poly import Poly
from .session import Session, parse_session

UNKNOWN_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self.exit_with(message))

    @staticmethod
    def exit_with(message: str) -> int:
        print(f"error: {message}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
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

    def cmd(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    for name in ("gb", "dim"):
        c = cmd(name)
        c.add_argument("--ring", choices=("source", "target"), default="source")
        if name == "gb":
            # default comes from the session's order option
            c.add_argument("--order", choices=("grevlex", "grlex", "lex"), default=None)
    c = cmd("nf")
    c.add_argument("-g", required=True, metavar="POLY")
    c.add_argument("--ring", choices=("source", "target"), default="source")
    c = cmd("eliminate")
    c.add_argument("--drop", required=True, metavar="VARS", help="comma-separated variables to eliminate")
    c.add_argument("--ring", choices=("source", "target"), default="source")
    c = cmd("image")
    mode = c.add_mutually_exclusive_group()
    mode.add_argument("--closure", action="store_true", default=True)
    mode.add_argument("--constructible", action="store_true")
    cmd("almost-surjective")
    for name in ("determined", "interpolate", "minpoly", "extend"):
        cmd(name).add_argument("-g", required=True, metavar="POLY")
    c = cmd("divides")
    c.add_argument("-f", required=True, metavar="POLY")
    c.add_argument("-g", required=True, metavar="POLY")
    cmd("injective")
    cmd("biregular")
    cmd("etale")
    cmd("invert")
    cmd("jc")
    cmd("dichotomy")
    cmd("fixtures")
    cmd("verify").add_argument("report", metavar="REPORT.json")
    return parser


def _load_session(ns) -> Session:
    if ns.fixture and ns.session:
        raise PolymapError("give either --session or --fixture, not both")
    if ns.fixture:
        return load_fixture(ns.fixture)
    if ns.session:
        with open(ns.session, "r", encoding="utf-8") as handle:
            return parse_session(handle.read())
    raise PolymapError(f"command {ns.command!r} needs --session FILE or --fixture NAME")


def _ring_data(session: Session, morphism: Morphism, ring: str):
    if ring == "source":
        return morphism.source.ctx, morphism.source.ideal
    return morphism.target.ctx, morphism.target.ideal


def run_command(ns) -> tuple[dict, int]:
    """Execute one parsed command; returns (report dict, exit code)."""
    report: dict = {"command": ns.command}
    exit_code = 0

    if ns.command == "fixtures":
        report["verdict"] = fixture_names()
        report["certificates"] = [
            {"kind": "session", "name": name, "text": fixture_session_text(name)}
            for name in fixture_names()
        ]
        report["exact"] = True
        return report, 0

    if ns.command == "verify":
        return _verify(ns.report)

    session = _load_session(ns)
    report["session"] = session.to_json_dict()
    morphism = session.morphism()
    args: dict = {}
    certificates: list[dict] = []
    verdict = None
    exact = True

    if ns.command in ("gb", "dim", "nf", "eliminate"):
        ctx, ideal = _ring_data(session, morphism, ns.ring)
        args["ring"] = ns.ring
        if ns.command == "gb":
            order_name = ns.order or session.order
            order = order_by_name(order_name)
            args["order"] = order_name
            basis = ideal.groebner_basis(order)
            verdict = [str(g) for g in basis]
            certificates.append({"kind": "groebner_basis", "ring": ns.ring, "order": order_name, "basis": verdict})
        elif ns.command == "dim":
            verdict = ideal.dimension()
        elif ns.command == "nf":
            args["g"] = ns.g
            f = parse_poly(ns.g, ctx)
            value = ideal.normal_form(f)
            verdict = str(value)
            certificates.append({"kind": "normal_form", "ring": ns.ring, "g": str(f), "value": verdict})
        else:
            drop = [v.strip() for v in ns.drop.split(",") if v.strip()]
            args["drop"] = drop
            result = ideal.eliminate(drop)
            verdict = [str(g) for g in result.generators]
            certificates.append({
                "kind": "elimination_ideal",
                "ring": ns.ring,
                "drop": drop,
                "kept_ring": list(result.ctx.names),
                "generators": verdict,
            })

    elif ns.command == "image":
        if ns.constructible:
            args["mode"] = "constructible"
            image = morphism.constructible_image(session.depth)
            verdict = image.to_json_dict()
            exact = image.exact
            if not exact:
                exit_code = UNKNOWN_EXIT
            certificates.append({"kind": "constructible_image", **image.to_json_dict()})
        else:
            args["mode"] = "closure"
            closure = morphism.image_closure()
            verdict = [str(g) for g in closure.generators]
            certificates.append({"kind": "image_closure", "generators": verdict})

    elif ns.command == "almost-surjective":
        rep = morphism.almost_surjective(session.depth)
        verdict = rep.almost_surjective
        exact = rep.image.exact
        if verdict is None:
            exit_code = UNKNOWN_EXIT
        certificates.append({
            "kind": "surjectivity",
            "image": rep.image.to_json_dict(),
            "complement_closure": [str(g) for g in rep.complement_closure.generators],
            "complement_dim": rep.complement_dim,
            "target_dim": rep.target_dim,
            "almost_surjective": rep.almost_surjective,
            "surjective": rep.surjective,
        })

    elif ns.command in ("determined", "interpolate", "minpoly", "extend"):
        g = parse_poly(ns.g, morphism.source.ctx)
        args["g"] = str(g)
        if ns.command == "determined":
            verdict = morphism.determined_by(g)
            certificates.append({"kind": "fiber_constancy", "g": str(g), "determined": verdict})
        elif ns.command == "minpoly":
            result = morphism.minimal_polynomial(g)
            verdict = result.status
            certificates.append({
                "kind": "graph_relation",
                "var": result.var,
                "relation": str(result.relation) if result.relation is not None else None,
                "degree": result.degree,
                "rational_pair": [str(p) for p in result.rational_pair] if result.rational_pair else None,
                "dominant": result.dominant,
                "graph_ideal": [str(p) for p in result.graph_ideal.generators],
            })
        else:
            result = morphism.interpolate(g) if ns.command == "interpolate" else morphism.extend(g)
            verdict = result.status
            certificates.append({
                "kind": "interpolation",
                "g": str(g),
                "interpolant": str(result.interpolant) if result.interpolant is not None else None,
                "witness_normal_form": str(result.witness),
            })

    elif ns.command == "divides":
        f = parse_poly(ns.f, morphism.target.ctx)
        g = parse_poly(ns.g, morphism.target.ctx)
        args["f"], args["g"] = str(f), str(g)
        source_div, target_div = morphism.divides_transfer(f, g)
        verdict = {"source": source_div, "target": target_div}
        certificates.append({
            "kind": "divisibility_transfer",
            "f": str(f),
            "g": str(g),
            "f_pullback": str(morphism.pullback(f)),
            "g_pullback": str(morphism.pullback(g)),
            "source_divides": source_div,
            "target_divides": target_div,
            "witnesses_non_almost_surjective": source_div and not target_div,
        })

    elif ns.command == "injective":
        verdict = morphism.is_injective()

    elif ns.command == "biregular":
        rep = morphism.biregular(session.depth)
        verdict = rep.verdict
        exact = rep.surjectivity.image.exact
        if verdict is None:
            exit_code = UNKNOWN_EXIT
        certificates.append({
            "kind": "biregularity",
            "injective": rep.injective,
            "almost_surjective": rep.surjectivity.almost_surjective,
            "inverse": [str(p) for p in rep.inverse] if rep.inverse else None,
            "consistent": rep.consistent,
        })

    elif ns.command in ("etale", "invert", "jc"):
        endo = session.endomorphism()
        if ns.command == "etale":
            det = jacobian_determinant(endo)
            verdict = is_etale(endo)
            certificates.append({"kind": "jacobian", "determinant": str(det), "etale": verdict})
        elif ns.command == "invert":
            result = invert(endo)
            verdict = [str(c) for c in result.inverse.coords] if result.ok else None
            certificates.append({
                "kind": "inversion",
                "inverse": verdict,
                "failing_coordinate": result.failing_coordinate,
            })
            # A failed inversion is a definite verdict, not an unknown.
            exit_code = 0
        else:
            rep = jc_criteria(endo, session.depth)
            verdict = {
                "injective": rep.injective,
                "coords_determined": list(rep.coords_determined),
                "invertible": rep.invertible,
                "consistent": rep.consistent,
            }
            certificates.append({
                "kind": "invertibility_criteria",
                "etale": rep.etale,
                "inverse": [str(p) for p in rep.inverse] if rep.inverse else None,
                **verdict,
            })

    elif ns.command == "dichotomy":
        rep = etale_dichotomy(morphism, session.depth)
        verdict = rep.branch
        exact = rep.surjectivity.image.exact
        if verdict is None:
            exit_code = UNKNOWN_EXIT
        certificates.append({
            "kind": "dichotomy",
            "branch": rep.branch,
            "complement_codim": rep.complement_codim,
            "complement_closure": [str(g) for g in rep.surjectivity.complement_closure.generators],
            "inverse": [str(p) for p in rep.inverse] if rep.inverse else None,
        })

    else:  # pragma: no cover - argparse restricts choices
        raise PolymapError(f"unknown command {ns.command!r}")

    report["args"] = args
    report["verdict"] = verdict
    report["certificates"] = certificates
    report["exact"] = exact
    return report, exit_code


def _verify(path: str) -> tuple[dict, int]:
    """Re-check a report's defining identities from the report alone."""
    with open(path, "r", encoding="utf-8") as handle:
        original = json.load(handle)
    command = original.get("command")
    session_data = original.get("session")
    checks: list[dict] = []

    def check(name: str, ok: bool) -> None:
        checks.append({"check": name, "ok": bool(ok)})

    if session_data is not None:
        session = parse_session(_session_text_from_json(session_data))
        morphism = session.morphism()
        src_ctx, tgt_ctx = morphism.source.ctx, morphism.target.ctx
        for cert in original.get("certificates", ()):
            kind = cert.get("kind")
            if kind == "interpolation" and cert.get("interpolant"):
                g = parse_poly(cert["g"], src_ctx)
                p = parse_poly(cert["interpolant"], tgt_ctx)
                residual = morphism.pullback(p) - morphism.source.ideal.normal_form(g)
                check("interpolant pulls back to g", morphism.source.ideal.contains(residual))
            elif kind == "graph_relation" and cert.get("relation"):
                big = tgt_ctx.extended([cert["var"]])
                relation = parse_poly(cert["relation"], big)
                g_text = original.get("args", {}).get("g")
                if g_text is not None:
                    g = parse_poly(g_text, src_ctx)
                    assignment = dict(zip(tgt_ctx.names, morphism.coords))
                    assignment[cert["var"]] = g
                    check("relation vanishes on the graph", morphism.source.ideal.contains(relation.substitute(assignment)))
                if cert.get("rational_pair"):
                    num = parse_poly(cert["rational_pair"][0], tgt_ctx)
                    den = parse_poly(cert["rational_pair"][1], tgt_ctx)
                    g = parse_poly(original["args"]["g"], src_ctx)
                    residual = morphism.pullback(den) * g - morphism.pullback(num)
                    check("degree-1 pair represents g", morphism.source.ideal.contains(residual))
            elif kind in ("biregularity", "inversion", "invertibility_criteria", "dichotomy") and cert.get("inverse"):
                inverse = [parse_poly(text, tgt_ctx) for text in cert["inverse"]]
                back = dict(zip(src_ctx.names, inverse))
                forward = dict(zip(tgt_ctx.names, morphism.coords))
                left = all(
                    morphism.source.ideal.contains(q.substitute(forward) - Poly.variable(src_ctx, n))
                    for q, n in zip(inverse, src_ctx.names)
                )
                right = all(
                    morphism.target.ideal.contains(c.substitute(back) - Poly.variable(tgt_ctx, n))
                    for c, n in zip(morphism.coords, tgt_ctx.names)
                )
                check("inverse composes to identity on both sides", left and right)
            elif kind == "divisibility_transfer":
                f = parse_poly(cert["f"], tgt_ctx)
                g = parse_poly(cert["g"], tgt_ctx)
                source_div, target_div = morphism.divides_transfer(f, g)
                check("divisibility verdicts reproduce", source_div == cert["source_divides"] and target_div == cert["target_divides"])
            elif kind == "groebner_basis":
                ideal = morphism.source.ideal if cert["ring"] == "source" else morphism.target.ideal
                ctx = src_ctx if cert["ring"] == "source" else tgt_ctx
                basis = [parse_poly(text, ctx) for text in cert["basis"]]
                gens_reduce = all(normal_form(g, basis).is_zero() for g in ideal.generators)
                basis_member = all(ideal.contains(b) for b in basis)
                check("basis and generators span the same ideal", gens_reduce and basis_member)
            elif kind == "image_closure":
                closure = morphism.image_closure()
                again = [str(g) for g in closure.generators]
                check("image closure reproduces", again == cert["generators"])

    verified = all(c["ok"] for c in checks) if checks else None
    report = {
        "command": "verify",
        "args": {"report": path, "verified_command": command},
        "verdict": verified,
        "certificates": checks,
        "exact": True,
    }
    if verified is None:
        report["note"] = "report contains no re-checkable certificate"
        return report, 0
    return report, 0 if verified else 1


def _session_text_from_json(data: dict) -> str:
    for key in ("source_ring", "target_ring", "map"):
        if key not in data:
            raise PolymapError(f"report session has no {key!r} entry")
    lines = [
        "source_ring: " + " ".join(data["source_ring"]),
        "target_ring: " + " ".join(data["target_ring"]),
        "map: " + " ; ".join(data["map"]),
    ]
    if data.get("source_ideal"):
        lines.insert(1, "source_ideal: " + " ; ".join(data["source_ideal"]))
    if data.get("target_ideal"):
        lines.insert(-1, "target_ideal: " + " ; ".join(data["target_ideal"]))
    for flag in ("assert_factorial", "assert_irreducible", "assert_etale"):
        if data.get(flag):
            lines.append(f"{flag}: true")
    lines.append(f"depth: {data.get('depth', 8)}")
    lines.append(f"order: {data.get('order', 'grevlex')}")
    return "\n".join(lines) + "\n"


def _render_human(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    if "args" in report and report["args"]:
        lines.append("args: " + ", ".join(f"{k}={v}" for k, v in report["args"].items()))
    lines.append(f"verdict: {json.dumps(report.get('verdict'))}")
    lines.append(f"exact: {report.get('exact')}")
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
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    for name, fallback in (("session", None), ("fixture", None), ("human", False), ("timings", False)):
        if not hasattr(ns, name):
            setattr(ns, name, fallback)
    started = time.perf_counter()
    try:
        report, exit_code = run_command(ns)
    except PolymapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
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
