"""Session format, fixture library snapshots, CLI commands and reports."""

from __future__ import annotations

import functools
import json
import random
import sys
from pathlib import Path

import pytest

from polymap import (
    Morphism,
    PreconditionError,
    Session,
    SessionFormatError,
    VarContext,
    fixture_names,
    fixture_session_text,
    jacobian_determinant,
    load_fixture,
    parse_session,
)
from polymap.cli import _COMMANDS, _G, _check_dichotomy, build_parser, main

from conftest import random_poly

SESSION_TEXT = """
# a toy session
source_ring: x y
source_ideal: x*y - 1
target_ring: u v
map: v = x*y ; u = x
assert_factorial: true
depth: 4
"""
AUTOMORPHISM_TEXT = "source_ring: x y\ntarget_ring: u v\nmap: u = x + y^2 ; v = y\nassert_factorial: true\n"
SHALLOW_SHEAR_TEXT = "source_ring: x y\ntarget_ring: u v\nmap: u = x ; v = x*y\nassert_factorial: true\ndepth: 1\n"
PARABOLA_TEXT = "source_ring: t\ntarget_ring: u v\nmap: u = t ; v = t^2\nassert_factorial: true\n"
POINT_INTO_LINE_TEXT = "source_ring: x\nsource_ideal: x\ntarget_ring: u\nmap: u = x\nassert_factorial: true\n"
TWO_POINTS_TEXT = ("source_ring: t\nsource_ideal: t^2 - 1\ntarget_ring: u\ntarget_ideal: u^2 - 1\nmap: u = t\n"
                   "assert_factorial: true\n")
EMPTY_INTO_EMPTY_TEXT = "source_ring: x\nsource_ideal: 1\ntarget_ring:\ntarget_ideal: 1\nmap:\n"
LINE_TO_POINT_TEXT = "source_ring: x\ntarget_ring:\nmap:\n"
# Non-radical source and target ideals: bijective maps without a regular inverse.
DOUBLE_LINE_TEXT = ("source_ring: x y\nsource_ideal: y^2\ntarget_ring: u\nmap: u = x\n"
                    "assert_factorial: true\nassert_etale: true\n")
DOUBLE_TARGET_TEXT = ("source_ring: t\ntarget_ring: u v\ntarget_ideal: u^2\nmap: u = 0 ; v = t\n"
                      "assert_factorial: true\nassert_etale: true\n")
# Asserted etale, one not injective (squaring on the hyperbola x*z = 1),
# one an open immersion of the punctured plane with the line u = 0 missed,
# and one an isomorphism onto p*q = 1, which no rule shows factorial.
NOT_INJECTIVE_TEXT = ("source_ring: x z\nsource_ideal: x*z - 1\ntarget_ring: u\nmap: u = x^2\n"
                      "assert_etale: true\n")
PUNCTURED_PLANE_TEXT = ("source_ring: x y z\nsource_ideal: x*z - 1\ntarget_ring: u v\nmap: u = x ; v = y\n"
                        "assert_factorial: true\nassert_etale: true\n")
ETALE_NOT_FACTORIAL_TEXT = ("source_ring: x z\nsource_ideal: x*z - 1\ntarget_ring: p q\ntarget_ideal: p*q - 1\n"
                            "map: p = x ; q = z\nassert_etale: true\n")
# The cusp curve: t -> (t^2, t^3) is a bijection onto it, and it is not factorial.
CUSP_CURVE_TEXT = "source_ring: t\ntarget_ring: u v\ntarget_ideal: u^3 - v^2\nmap: u = t^2 ; v = t^3\n"
# Five points of the plane, whose lex and grevlex bases differ, and a point
# onto a point: a source ring without variables, so the inverse is empty.
FIVE_POINTS_TEXT = ("source_ring: x y\nsource_ideal: x^2 + y^3 ; x*y - 1\ntarget_ring: u\nmap: u = x\n"
                    "assert_factorial: true\n")
POINT_ONTO_POINT_TEXT = "source_ring:\ntarget_ring: u\ntarget_ideal: u - 2\nmap: u = 2\nassert_factorial: true\n"
NESTING_ERROR = "error: nesting deeper than 100 levels (at position 100)\n"
# The kinds that verify re-checks, read off the command table.
CHECKED_KINDS = {kind for command in _COMMANDS.values() for kind, entry in command.kinds.items() if entry}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def session_commands(morphism):
    """Every session command, with -g, -f and --drop on the first ring variables."""
    x, u, v = morphism.source.ctx.names[0], morphism.target.ctx.names[0], morphism.target.ctx.names[-1]
    return [
        ["gb"], ["gb", "--ring", "target"], ["dim"], ["nf", "-g", x], ["eliminate", "--drop", x],
        ["image", "--closure"], ["image", "--constructible"], ["almost-surjective"], ["injective"],
        ["biregular"], ["etale"], ["invert"], ["jc"], ["dichotomy"],
        *[[command, "-g", x] for command in ("determined", "interpolate", "minpoly", "extend")],
        ["divides", "-f", u, "-g", v],
    ]


@functools.cache
def documented_kinds() -> dict[str, bool]:
    """Each certificate kind with a row in the table of docs/formats.md,
    and whether that row marks it "not re-checked"."""
    text = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text(encoding="utf-8")
    table = text[text.index("| kind | command | identity checked |"):].split("\n\n", 1)[0]
    kinds = {}
    for row in table.splitlines()[2:]:
        kind_cell, _, identity = (cell.strip() for cell in row.split("|")[1:-1])
        for kind in kind_cell.replace("`", "").split(", "):
            kinds[kind] = identity.startswith("not re-checked")
    return kinds


MAP_SESSION = {"source_ring": ["x"], "target_ring": ["u"], "map": ["u = x"]}

needs_digit_limit = pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                                       reason="no integer string conversion limit")


class TestSessionParsing:
    def test_full_session(self):
        session = parse_session(SESSION_TEXT)
        morphism = session.morphism()
        assert morphism.source.ctx.names == ("x", "y")
        assert [str(g) for g in morphism.source.ideal.generators] == ["x*y - 1"]
        # map entries are reordered to target_ring order
        assert [str(c) for c in morphism.coords] == ["x", "x*y"]
        assert morphism.target.assert_factorial and not morphism.assert_etale
        assert session.depth == 4

    def test_errors(self):
        with pytest.raises(SessionFormatError):
            parse_session("source_ring: x\nmap: u = x\n")  # missing target_ring
        with pytest.raises(SessionFormatError):
            parse_session("source_ring: x\ntarget_ring: u\nmap: w = x\n")
        with pytest.raises(SessionFormatError):
            parse_session("source_ring: x\ntarget_ring: u v\nmap: u = x\n")
        with pytest.raises(SessionFormatError):
            parse_session("source_ring: x\ntarget_ring: u\nmap: u = x\nbogus: 1\n")
        with pytest.raises(SessionFormatError):
            parse_session("source_ring: x\nsource_ring: y\ntarget_ring: u\nmap: u = x\n")
        with pytest.raises(SessionFormatError):
            parse_session("source_ring: x\ntarget_ring: u\nmap: u = x\nassert_etale: maybe\n")
        with pytest.raises(SessionFormatError):
            parse_session("source_ring: x\ntarget_ring: u\nmap: u = x\ndepth: abc\n")

    @pytest.mark.parametrize("text", [*map(fixture_session_text, fixture_names()),
                                      SESSION_TEXT, AUTOMORPHISM_TEXT, SHALLOW_SHEAR_TEXT,
                                      AUTOMORPHISM_TEXT + "assert_etale: no\n"],
                             ids=[*fixture_names(), "toy", "automorphism", "shallow-shear", "flag-no"])
    def test_json_round_trip(self, text):
        echo = parse_session(text).to_json_dict()
        assert Session.from_json_dict(echo).to_json_dict() == echo

    def test_ill_defined_map_refused_on_load(self):
        # u = 3 does not land on the point u = 2.
        with pytest.raises(PreconditionError, match="map is not well defined"):
            parse_session("source_ring:\ntarget_ring: u\ntarget_ideal: u - 2\nmap: u = 3\n")

    def test_zero_generator_dropped(self):
        echo = parse_session("source_ring: x y\nsource_ideal: 0 ; x*y - 1\ntarget_ring: u\nmap: u = x\n"
                             ).to_json_dict()
        assert echo["source_ideal"] == ["x*y - 1"] and echo["target_ideal"] == []
        # The zero ideal is affine space, so the Jacobian accepts the map.
        morphism = parse_session("source_ring: x\nsource_ideal: 0\ntarget_ring: u\ntarget_ideal: 0\nmap: u = x\n"
                                 ).morphism()
        assert str(jacobian_determinant(morphism)) == "1"

    def test_endomorphism_requires_affine_spaces(self):
        with pytest.raises(PreconditionError, match="source or target has equations"):
            jacobian_determinant(parse_session(SESSION_TEXT).morphism())


class TestFixtureLibrary:
    def test_names(self):
        names = fixture_names()
        assert "cusp" in names and "shear" in names and "identity2" in names

    def test_sl2row_loads_with_relation(self):
        morphism = load_fixture("sl2row").morphism()
        assert [str(g) for g in morphism.source.ideal.generators] == ["-b*c + a*d - 1"]

    def test_identity2_loads(self):
        morphism = load_fixture("identity2").morphism()
        assert [str(c) for c in morphism.coords] == ["x", "y"]

    def test_unknown_fixture(self):
        from polymap import PolymapError

        with pytest.raises(PolymapError):
            load_fixture("does-not-exist")

    def test_snapshots_replay(self, fixture_morphisms):
        from polymap import SNAPSHOTS, invert

        for name, expected in SNAPSHOTS.items():
            m = fixture_morphisms[name]
            assert [str(g) for g in m.image_closure().generators] == expected["image_closure"], name
            assert m.dominant() == expected["dominant"], name
            assert m.is_injective() == expected["injective"], name
            rep = m.almost_surjective()
            assert rep.almost_surjective == expected["almost_surjective"], name
            assert rep.surjective == expected["surjective"], name
            assert rep.image.exact == expected["image_exact"], name
            if "complement_closure" in expected:
                assert [str(g) for g in rep.complement_closure.generators] == expected["complement_closure"], name
            if "inverse" in expected:
                bireg = m.biregular()
                assert [str(p) for p in bireg.inverse] == expected["inverse"], name

    def test_complement_closure_is_reduced_basis(self, fixture_morphisms):
        # The printed complement closure is the reduced grevlex basis of an
        # ideal cutting out the closure of the missed part of the target,
        # recomputed here from scratch; that ideal need not be radical.
        from polymap import buchberger

        for name, m in fixture_morphisms.items():
            closure = m.almost_surjective().complement_closure
            assert [str(g) for g in closure.generators] == [str(g) for g in buchberger(closure.generators)], name


class TestCLI:
    def test_interpolate_cusp(self, capsys):
        code, report = run_cli(capsys, "--fixture", "cusp", "interpolate", "-g", "t")
        assert code == 0
        assert report["verdict"] == "not_in_subalgebra"
        assert report["certificates"][0]["witness_normal_form"] == "t"
        assert report["timings"] is None

    def test_almost_surjective_shear(self, capsys):
        code, report = run_cli(capsys, "--fixture", "shear", "almost-surjective")
        assert code == 0
        assert report["verdict"] is False
        cert = report["certificates"][0]
        assert cert["complement_closure"] == ["u"]
        assert cert["surjective"] is False

    def test_invert_session_file(self, capsys, tmp_path):
        session = tmp_path / "auto.session"
        session.write_text(AUTOMORPHISM_TEXT)
        code, report = run_cli(capsys, "--session", str(session), "invert")
        assert code == 0
        assert report["verdict"] == ["-v^2 + u", "v"]

    def test_exit_code_unknown_for_inexact_image(self, capsys):
        code, report = run_cli(capsys, "--fixture", "cusp", "image", "--constructible")
        assert code == 2
        assert report["exact"] is False

    def test_exit_code_unknown_for_undecided_surjectivity(self, capsys, tmp_path):
        # At recursion depth 1 the shear image description stays inexact
        # and neither bound settles the verdict: honest unknown, exit 2.
        session = tmp_path / "shallow.session"
        session.write_text(SHALLOW_SHEAR_TEXT)
        code, report = run_cli(capsys, "--session", str(session), "almost-surjective")
        assert code == 2
        assert report["verdict"] is None
        assert report["exact"] is False

    def test_isomorphism_of_two_points(self, capsys, tmp_path):
        # A 0-dimensional target: the empty complement is small enough.
        session = tmp_path / "points.session"
        session.write_text(TWO_POINTS_TEXT)
        code, report = run_cli(capsys, "--session", str(session), "almost-surjective")
        assert code == 0 and report["verdict"] is True
        assert report["certificates"][0]["surjective"] is True
        code, report = run_cli(capsys, "--session", str(session), "biregular")
        assert code == 0 and report["verdict"] is True
        assert report["certificates"][0]["inverse"] == ["u"]

    def test_five_points_have_no_inverse_onto_the_line(self, capsys, tmp_path):
        # On the five points y = -x^4, so both coordinates interpolate, but
        # (u, -u^4) maps the line off them: u^2 - u^12 is not zero.
        assert parse_session(FIVE_POINTS_TEXT).morphism().construct_inverse() == (None, None)
        session = tmp_path / "five.session"
        session.write_text(FIVE_POINTS_TEXT)
        code, report = run_cli(capsys, "--session", str(session), "biregular")
        assert code == 0 and report["verdict"] is False and report["certificates"][0]["inverse"] is None

    # The factoriality rule refutes the asserted u^2 = 0 before any inverse is built.
    @pytest.mark.parametrize("text, named", [
        (DOUBLE_LINE_TEXT, "radical source and target ideals and a factorial target"),
        (DOUBLE_TARGET_TEXT, "assert_factorial"),
    ], ids=["double-line", "double-target"])
    def test_non_radical_ideals_named_as_broken_hypothesis(self, capsys, tmp_path, text, named):
        session = tmp_path / "double.session"
        session.write_text(text)
        for command in ("injective", "almost-surjective"):
            code, report = run_cli(capsys, "--session", str(session), command)
            assert code == 0 and report["verdict"] is True, command
        for command in ("biregular", "dichotomy"):
            assert main(["--session", str(session), command]) == 1, command
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1, command
            assert named in captured.err, command

    @pytest.mark.parametrize("text, argv", [
        (EMPTY_INTO_EMPTY_TEXT, ["dim"]),
        (EMPTY_INTO_EMPTY_TEXT, ["gb"]),
        (LINE_TO_POINT_TEXT, ["divides", "-f", "1", "-g", "1"]),
    ], ids=["empty-dim", "empty-gb", "point-divides"])
    def test_target_ring_without_variables(self, capsys, tmp_path, text, argv):
        session = tmp_path / "empty.session"
        session.write_text(text)
        code, _ = run_cli(capsys, "--session", str(session), *argv)
        assert code == 0

    def test_exit_code_errors(self, capsys):
        assert main(["--fixture", "cusp", "jc"]) == 1  # dimension mismatch precondition
        capsys.readouterr()
        assert main(["--fixture", "nope", "gb"]) == 1
        capsys.readouterr()
        assert main(["--fixture", "cusp", "nf", "-g", "t +"]) == 1
        capsys.readouterr()
        assert main(["definitely-not-a-command"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("argv, joined", [
        (["--fixture", "square", "nf", "-g", "-t"], ["--fixture", "square", "nf", "-g=-t"]),
        (["--fixture", "cusp", "divides", "-f", "-u", "-g", "v"], ["--fixture", "cusp", "divides", "-f=-u", "-g", "v"]),
    ], ids=["nf-g", "divides-f"])
    def test_poly_value_beginning_with_minus(self, capsys, argv, joined):
        # argparse alone reads -t as an unknown option and -g as lacking its value.
        assert main(joined) == 0
        expected = capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr() == expected

    @pytest.mark.parametrize("argv, flag", [
        (["nf", "-g"], "-g"),
        (["nf", "-g", "--ring", "target"], "-g"),
        (["divides", "-f", "-g", "v"], "-f"),
    ], ids=["last", "before-option", "before-flag"])
    def test_missing_poly_value_refused(self, capsys, argv, flag):
        assert main(["--fixture", "square", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: argument {flag}: expected one argument"]

    @needs_digit_limit
    @pytest.mark.parametrize("make_g, named", [
        # Two powers within the limit whose product is past it.
        (lambda limit: f"10^{limit // 2 + 350}*10^{limit // 2 + 350}*t", "cannot print a coefficient"),
        (lambda limit: "1" * (limit + 1) + "*t", "exceeds the limit"),
        (lambda limit: "t^" + "1" * (limit + 1), "(at position 2)"),
        (lambda limit: f"10^{limit + 700}*t", "power's coefficient may exceed"),
    ], ids=["printed-coefficient", "literal", "exponent", "power"])
    def test_integer_over_digit_limit_refused(self, capsys, make_g, named):
        limit = sys.get_int_max_str_digits()
        assert main(["--fixture", "square", "nf", "-g", make_g(limit)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and named in captured.err and f"{limit} digits" in captured.err

    def test_gb_dim_nf_eliminate(self, capsys):
        code, report = run_cli(capsys, "--fixture", "sl2row", "gb", "--ring", "source")
        assert code == 0 and report["verdict"] == ["b*c - a*d + 1"]
        code, report = run_cli(capsys, "--fixture", "sl2row", "dim", "--ring", "source")
        assert code == 0 and report["verdict"] == 3
        code, report = run_cli(capsys, "--fixture", "sl2row", "nf", "-g", "a*d - b*c")
        assert code == 0 and report["verdict"] == "1"
        code, report = run_cli(capsys, "--fixture", "cusp", "eliminate", "--drop", "t")
        assert code == 0 and report["verdict"] == []

    @pytest.mark.parametrize("command", [name for name, command in _COMMANDS.items() if _G in command.flags])
    def test_g_echoed_canonically(self, capsys, command):
        # divides reads -g over the target ring u v, the others over the source ring x y.
        argv = ["-f", "u", "-g", "v*v + 0"] if command == "divides" else ["-g", "x*x + 0"]
        code, report = run_cli(capsys, "--fixture", "triangular", command, *argv)
        assert code == 0 and report["args"]["g"] == ("v^2" if command == "divides" else "x^2")

    def test_image_closure_cusp(self, capsys):
        code, report = run_cli(capsys, "--fixture", "cusp", "image", "--closure")
        assert code == 0 and report["verdict"] == ["u^3 - v^2"]

    def test_divides_and_determined(self, capsys):
        code, report = run_cli(capsys, "--fixture", "cusp", "divides", "-f", "u", "-g", "v")
        assert code == 0
        assert report["verdict"] == {"source": True, "target": False}
        assert report["certificates"][0]["witnesses_non_almost_surjective"] is True
        code, report = run_cli(capsys, "--fixture", "cusp", "determined", "-g", "t")
        assert code == 0 and report["verdict"] is True

    def test_etale_and_jc(self, capsys):
        code, report = run_cli(capsys, "--fixture", "triangular", "etale")
        assert code == 0 and report["verdict"] is True
        code, report = run_cli(capsys, "--fixture", "triangular", "jc")
        assert code == 0
        assert report["verdict"]["consistent"] is True

    def test_undecided_biregular_and_dichotomy(self, capsys, tmp_path):
        # At depth 1 the hyperbola's description stays inexact and neither
        # bound settles almost surjectivity, so both verdicts are null.
        session = tmp_path / "hyperbola1.session"
        session.write_text(fixture_session_text("hyperbola") + "depth: 1\n")
        code, report = run_cli(capsys, "--session", str(session), "biregular")
        assert code == 2 and report["verdict"] is None
        cert = report["certificates"][0]
        assert cert["almost_surjective"] is None and cert["inverse"] is None
        code, report = run_cli(capsys, "--session", str(session), "dichotomy")
        assert code == 2 and report["verdict"] is None
        cert = report["certificates"][0]
        assert cert["branch"] is None and cert["complement_closure"] == ["u"]

    @pytest.mark.parametrize("argv, message", [
        (["--session", "F", "--fixture", "cusp", "dim"], "error: give either --session or --fixture, not both"),
        (["dim"], "error: command 'dim' needs --session FILE or --fixture NAME"),
    ], ids=["both", "neither"])
    def test_session_source_refused(self, capsys, argv, message):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message + "\n"

    @pytest.mark.parametrize("text, message", [
        ("map: u x", "map entry 'u x' is not of the form 'var = polynomial'"),
        ("map: u = x ; u = 2", "map assigns target variable 'u' twice"),
        ("map: u = x\norder: foo", "line 4: unknown key 'order'"),
        ("map u = x", "line 3: expected 'key: value', got 'map u = x'"),
        (b"map: u = x\xff", "'utf-8' codec can't decode byte 0xff in position 40: invalid start byte"),
    ], ids=["entry-without-equals", "variable-assigned-twice", "unknown-order", "line-without-colon",
            "not-utf-8"])
    def test_session_file_refused(self, capsys, tmp_path, text, message):
        session = tmp_path / "bad.session"
        body = text if isinstance(text, bytes) else text.encode()
        session.write_bytes(b"source_ring: x\ntarget_ring: u\n" + body + b"\n")
        assert main(["--session", str(session), "dim"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_calls_share_no_parser_state(self, capsys):
        # The parser is built once per process: a flag of one call must not
        # leak into the next, whichever side of the subcommand it is on.
        calls = [["--fixture", "cusp", "interpolate", "-g", "t", "--human"],
                 ["gb", "--fixture", "square"],
                 ["--fixture", "shear", "almost-surjective"]]

        def run(argv):
            code = main(argv)
            return code, capsys.readouterr()

        in_sequence = [run(argv) for argv in calls]
        for argv, seen in zip(calls, in_sequence):
            build_parser.cache_clear()
            assert run(argv) == seen, argv

    def test_dichotomy(self, capsys):
        code, report = run_cli(capsys, "--fixture", "hyperbola", "dichotomy")
        assert code == 0 and report["verdict"] == "codim_one"
        code, report = run_cli(capsys, "--fixture", "triangular", "dichotomy")
        assert code == 0 and report["verdict"] == "biregular"

    def test_dichotomy_codim_one_on_punctured_plane(self, capsys, tmp_path):
        session = tmp_path / "punctured.session"
        session.write_text(PUNCTURED_PLANE_TEXT)
        code, report = run_cli(capsys, "--session", str(session), "dichotomy")
        assert code == 0 and report["verdict"] == "codim_one"
        cert = report["certificates"][0]
        assert cert["complement_closure"] == ["u"] and cert["complement_codim"] == 1

    def test_dichotomy_refuses_non_injective_map(self, capsys, tmp_path):
        session = tmp_path / "not-injective.session"
        session.write_text(NOT_INJECTIVE_TEXT)
        assert main(["--session", str(session), "dichotomy"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: dichotomy requires an injective map\n"

    def test_dichotomy_requires_factorial_target(self, capsys, tmp_path):
        session = tmp_path / "etale.session"
        session.write_text(ETALE_NOT_FACTORIAL_TEXT)
        assert main(["--session", str(session), "dichotomy"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: biregularity test requires a factorial target: it is not affine space"
                                " and assert_factorial is not set\n")

    def test_affine_space_maps_need_no_flags(self, capsys, tmp_path):
        # The plane is factorial and a self-map's etaleness is its Jacobian's.
        session = tmp_path / "plain.session"
        session.write_text("source_ring: x y\ntarget_ring: u v\nmap: u = x ; v = x*y\n")
        code, report = run_cli(capsys, "--session", str(session), "biregular")
        assert code == 0 and report["verdict"] is False
        assert main(["--session", str(session), "dichotomy"]) == 1
        assert capsys.readouterr().err == "error: Jacobian determinant x is not a nonzero constant\n"
        session.write_text("source_ring: x y\ntarget_ring: u v\nmap: u = x + y^2 ; v = y\n")
        code, report = run_cli(capsys, "--session", str(session), "dichotomy")
        assert code == 0 and report["verdict"] == "biregular"

    def test_cusp_curve_divisibility_witnesses_nothing(self, capsys, tmp_path):
        session = tmp_path / "cusp-curve.session"
        session.write_text(CUSP_CURVE_TEXT)
        code, report = run_cli(capsys, "--session", str(session), "divides", "-f", "u", "-g", "v")
        assert code == 0 and report["verdict"] == {"source": True, "target": False}
        assert report["certificates"][0]["witnesses_non_almost_surjective"] is None
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        code, report = run_cli(capsys, "verify", str(path))
        assert code == 0 and report["verdict"] is True

    @pytest.mark.parametrize("argv", [["divides", "-f", "u", "-g", "v"], ["biregular"]], ids=["divides", "biregular"])
    def test_refuted_factorial_assertion(self, capsys, tmp_path, argv):
        session = tmp_path / "cusp-curve.session"
        session.write_text(CUSP_CURVE_TEXT + "assert_factorial: true\n")
        assert main(["--session", str(session), *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: assert_factorial is refuted")

    @pytest.mark.parametrize("g", ["(" * 10000 + "t" + ")" * 10000, "-" * 10000 + "t"], ids=["parentheses", "signs"])
    def test_deep_nesting_refused_in_one_line(self, capsys, tmp_path, g):
        assert main(["--fixture", "square", "nf", "-g=" + g]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == NESTING_ERROR
        session = tmp_path / "deep.session"
        session.write_text(f"source_ring: t\ntarget_ring: u\nmap: u = {g}\n")
        assert main(["--session", str(session), "injective"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == NESTING_ERROR

    def test_power_past_bound_refused_in_one_line(self, capsys):
        assert main(["--fixture", "square", "nf", "-g", "(t+1)^200000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: power may expand to more than 200 terms (at position 5)\n"

    @pytest.mark.parametrize("command, sources", [
        ("etale", [("x", "y")]), ("invert", [("x", "y")]), ("jc", [("x", "y")]), ("biregular", [("x", "y")]),
    ])
    def test_one_session_map_per_call(self, capsys, monkeypatch, command, sources):
        # Every command reads the session's own map; invert and jc read the
        # inverse's coordinates without building it as a map of its own.
        built = []
        init = Morphism.__init__

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.source.ctx.names)

        monkeypatch.setattr(Morphism, "__init__", counted)
        assert main(["--fixture", "triangular", command]) == 0
        capsys.readouterr()
        assert built == sources

    def test_fixtures_listing(self, capsys):
        code, report = run_cli(capsys, "fixtures")
        assert code == 0 and "cusp" in report["verdict"]

    def test_human_rendering(self, capsys):
        code = main(["--fixture", "cusp", "interpolate", "-g", "t", "--human"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict" in out and "not_in_subalgebra" in out

    def test_byte_identical_reports(self, capsys):
        code1 = main(["--fixture", "shear", "almost-surjective"])
        out1 = capsys.readouterr().out
        code2 = main(["--fixture", "shear", "almost-surjective"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    def test_timings_flag(self, capsys):
        code, report = run_cli(capsys, "--fixture", "cusp", "dim", "--timings")
        assert code == 0
        assert isinstance(report["timings"]["seconds"], float)


class TestVerify:
    def _report_file(self, capsys, tmp_path, *argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        assert code in (0, 2)
        path = tmp_path / "report.json"
        path.write_text(out)
        return path

    def test_interpolant_report_verifies(self, capsys, tmp_path):
        path = self._report_file(capsys, tmp_path, "--fixture", "square", "interpolate", "-g", "t^4 + 3*t^2")
        code, report = run_cli(capsys, "verify", str(path))
        assert code == 0 and report["verdict"] is True

    def test_inverse_report_verifies(self, capsys, tmp_path):
        path = self._report_file(capsys, tmp_path, "--fixture", "triangular", "biregular")
        code, report = run_cli(capsys, "verify", str(path))
        assert code == 0 and report["verdict"] is True

    def test_two_point_isomorphism_report_verifies(self, capsys, tmp_path):
        session = tmp_path / "points.session"
        session.write_text(TWO_POINTS_TEXT)
        path = self._report_file(capsys, tmp_path, "--session", str(session), "biregular")
        code, report = run_cli(capsys, "verify", str(path))
        assert code == 0 and report["verdict"] is True

    def test_minpoly_report_verifies(self, capsys, tmp_path):
        path = self._report_file(capsys, tmp_path, "--fixture", "square", "minpoly", "-g", "t^4 + 3*t^2")
        code, report = run_cli(capsys, "verify", str(path))
        assert code == 0 and report["verdict"] is True

    def test_divides_and_gb_reports_verify(self, capsys, tmp_path):
        path = self._report_file(capsys, tmp_path, "--fixture", "cusp", "divides", "-f", "u", "-g", "v")
        code, report = run_cli(capsys, "verify", str(path))
        assert code == 0 and report["verdict"] is True
        path = self._report_file(capsys, tmp_path, "--fixture", "sl2row", "gb")
        code, report = run_cli(capsys, "verify", str(path))
        assert code == 0 and report["verdict"] is True

    @pytest.mark.parametrize("ring", ["source", "target"])
    @pytest.mark.parametrize("order", ["lex", "grlex", "grevlex"])
    def test_gb_report_verifies_in_its_order(self, capsys, tmp_path, order, ring):
        session = tmp_path / "five.session"
        session.write_text(FIVE_POINTS_TEXT)
        path = self._report_file(capsys, tmp_path, "--session", str(session), "gb", "--order", order, "--ring", ring)
        code, report = run_cli(capsys, "verify", str(path))
        assert code == 0 and report["verdict"] is True

    def test_gb_report_with_dropped_element_or_unknown_order_refused(self, capsys, tmp_path):
        session = tmp_path / "five.session"
        session.write_text(FIVE_POINTS_TEXT)
        path = self._report_file(capsys, tmp_path, "--session", str(session), "gb", "--order", "lex")
        data = json.loads(path.read_text())
        basis = data["certificates"][0]["basis"]
        assert basis == ["y^4 + x", "y^5 + 1"]
        for dropped in range(len(basis)):
            data["verdict"] = data["certificates"][0]["basis"] = basis[:dropped] + basis[dropped + 1:]
            path.write_text(json.dumps(data))
            code, report = run_cli(capsys, "verify", str(path))
            assert code == 1 and report["verdict"] is False, dropped
            assert report["certificates"][0] == {"check": "basis and generators span the same ideal", "ok": False}
        data["certificates"][0].update(basis=basis, order="banana")
        self._assert_refused(capsys, tmp_path, data, "'order' is not a known order")

    def test_gb_report_that_is_not_a_groebner_basis_refused(self, capsys, tmp_path):
        # Without x^3 + y^2 the list still spans the ideal, but the S-pair
        # of its two elements does not reduce to zero by it.
        session = tmp_path / "five.session"
        session.write_text(FIVE_POINTS_TEXT)
        path = self._report_file(capsys, tmp_path, "--session", str(session), "gb", "--order", "grevlex")
        data = json.loads(path.read_text())
        assert data["certificates"][0]["basis"] == ["x^3 + y^2", "y^3 + x^2", "x*y - 1"]
        data["verdict"] = data["certificates"][0]["basis"] = ["y^3 + x^2", "x*y - 1"]
        path.write_text(json.dumps(data))
        code, report = run_cli(capsys, "verify", str(path))
        assert code == 1 and report["verdict"] is False
        assert report["certificates"] == [{"check": "basis and generators span the same ideal", "ok": True},
                                          {"check": "every S-pair reduces to zero by the basis", "ok": False},
                                          {"check": "verdict follows from the certificate", "ok": True}]
        # A listed zero neither spans nor breaks anything.
        data["verdict"] = data["certificates"][0]["basis"] = ["x^3 + y^2", "0", "y^3 + x^2", "x*y - 1"]
        path.write_text(json.dumps(data))
        code, report = run_cli(capsys, "verify", str(path))
        assert code == 0 and report["verdict"] is True

    def test_empty_inverse_is_printed_and_checked(self, capsys, tmp_path):
        session = tmp_path / "point.session"
        session.write_text(POINT_ONTO_POINT_TEXT)
        path = self._report_file(capsys, tmp_path, "--session", str(session), "biregular")
        data = json.loads(path.read_text())
        assert data["verdict"] is True and data["certificates"][0]["inverse"] == []
        code, report = run_cli(capsys, "verify", str(path))
        assert code == 0 and report["verdict"] is True
        assert report["certificates"] == [{"check": "inverse composes to identity on both sides", "ok": True},
                                          {"check": "verdict follows from the certificate", "ok": True}]
        # The map onto the line u = 2 has no inverse onto the whole line.
        path.write_text(json.dumps({**data, "session": {**data["session"], "target_ideal": []}}))
        code, report = run_cli(capsys, "verify", str(path))
        assert code == 1 and report["verdict"] is False
        # u = 3 does not land on the point u = 2: the map is refused.
        self._assert_refused(capsys, tmp_path, {**data, "session": {**data["session"], "map": ["u = 3"]}},
                             "map is not well defined")

    def test_jc_and_dichotomy_reports_verify(self, capsys, tmp_path):
        path = self._report_file(capsys, tmp_path, "--fixture", "triangular", "jc")
        code, report = run_cli(capsys, "verify", str(path))
        assert code == 0 and report["verdict"] is True
        path = self._report_file(capsys, tmp_path, "--fixture", "triangular", "dichotomy")
        code, report = run_cli(capsys, "verify", str(path))
        assert code == 0 and report["verdict"] is True

    def test_tampered_report_fails(self, capsys, tmp_path):
        path = self._report_file(capsys, tmp_path, "--fixture", "square", "interpolate", "-g", "t^4 + 3*t^2")
        data = json.loads(path.read_text())
        data["certificates"][0]["interpolant"] = "u^2 + 4*u"
        path.write_text(json.dumps(data))
        code, report = run_cli(capsys, "verify", str(path))
        assert code == 1 and report["verdict"] is False

    @pytest.mark.parametrize("text, argv, edits", [
        (fixture_session_text("square"), ["minpoly", "-g", "t"], {"relation": "w^2 - 2*u"}),
        (fixture_session_text("square"), ["minpoly", "-g", "t^4 + 3*t^2"], {"rational_pair": ["u^2 + 4*u", "1"]}),
        (fixture_session_text("triangular"), ["invert"], {"inverse": ["-v^2 + 2*u", "v"]}),
        # u o map = t holds, but (u, u^2) is not the identity on the plane.
        (PARABOLA_TEXT, ["biregular"], {"inverse": ["u"]}),
        # u -> u composes to the identity both ways, but does not map the
        # line into the point V(x).
        (POINT_INTO_LINE_TEXT, ["biregular"], {"inverse": ["u"]}),
        # A "verdict" or "certificates" key is the report's own, any other key a certificate entry.
        (fixture_session_text("triangular"), ["biregular"], {"verdict": False}),
        # 1 is not true: verdicts and certificate entries compare as JSON.
        (fixture_session_text("triangular"), ["biregular"], {"verdict": 1}),
        (fixture_session_text("triangular"), ["biregular"], {"inverse": None}),
        # The line runs when either verdict is positive and nothing is re-checked.
        (fixture_session_text("triangular"), ["biregular"], {"inverse": None, "verdict": False}),
        (fixture_session_text("cusp"), ["interpolate", "-g", "t"], {"verdict": "interpolant"}),
        (fixture_session_text("triangular"), ["interpolate", "-g", "x"], {"verdict": "not_determined"}),
        (fixture_session_text("triangular"), ["minpoly", "-g", "x"], {"verdict": "no_relation"}),
        (fixture_session_text("triangular"), ["minpoly", "-g", "x"], {"relation": "0"}),
        (fixture_session_text("triangular"), ["minpoly", "-g", "x"], {"degree": True}),
        (fixture_session_text("sl2row"), ["gb"], {"verdict": ["1"]}),
        (fixture_session_text("triangular"), ["jc"], {"injective": False}),
        (fixture_session_text("triangular"), ["etale"], {"determinant": "2"}),
        (fixture_session_text("square"), ["etale"], {"etale": True}),
        (fixture_session_text("cusp"), ["divides", "-f", "u", "-g", "v"],
         {"source_divides": 1, "verdict": {"source": 1, "target": False}}),
        # Derived fields: the witness is source_divides and not
        # target_divides, and no coordinate failed when an inverse is given.
        (fixture_session_text("cusp"), ["divides", "-f", "u", "-g", "v"], {"witnesses_non_almost_surjective": False}),
        # Onto a target that is not factorial the outcome witnesses nothing.
        (CUSP_CURVE_TEXT, ["divides", "-f", "u", "-g", "v"], {"witnesses_non_almost_surjective": True}),
        (fixture_session_text("triangular"), ["invert"], {"failing_coordinate": 0}),
        # The pullbacks are f o map and g o map modulo the source ideal.
        (fixture_session_text("cusp"), ["divides", "-f", "u", "-g", "v"], {"f_pullback": "t^5"}),
        (fixture_session_text("cusp"), ["divides", "-f", "u", "-g", "v"], {"g_pullback": "7"}),
        # A positive verdict with no certificate follows from nothing.
        (fixture_session_text("cusp"), ["biregular"], {"verdict": True, "certificates": []}),
        (fixture_session_text("triangular"), ["invert"], {"certificates": []}),
        # The graph ideal is the relation's principal ideal, and a pair is
        # given only on a dominant map.
        (fixture_session_text("shear"), ["minpoly", "-g", "x"], {"graph_ideal": ["1"]}),
        (fixture_session_text("shear"), ["minpoly", "-g", "x"], {"graph_ideal": ["u"]}),
        (fixture_session_text("shear"), ["minpoly", "-g", "x"], {"graph_ideal": []}),
        (fixture_session_text("shear"), ["minpoly", "-g", "x"], {"graph_ideal": ["u - w", "v"]}),
        (fixture_session_text("shear"), ["minpoly", "-g", "x"], {"dominant": False}),
        # The interpolant is the witness normal form over the target ring.
        (fixture_session_text("triangular"), ["interpolate", "-g", "x"], {"witness_normal_form": "u^7 + 12"}),
        # The engine reports only consistent verdicts, and an isomorphism
        # misses nothing.
        (fixture_session_text("triangular"), ["biregular"], {"consistent": False}),
        (fixture_session_text("triangular"), ["dichotomy"], {"complement_closure": ["u"]}),
        # The codimension is dim(target) - dim(complement_closure): 2 - (-1).
        (fixture_session_text("triangular"), ["dichotomy"], {"complement_codim": 1}),
    ], ids=["relation", "rational-pair", "inverse", "one-sided-inverse", "inverse-off-source",
            "biregular-verdict", "biregular-verdict-one", "biregular-without-inverse", "biregular-fields-without-inverse",
            "interpolate-without-interpolant", "interpolate-verdict",
            "minpoly-verdict", "zero-relation", "minpoly-degree-true", "gb-verdict", "jc-injective", "determinant",
            "etale", "divides-one", "divides-witness", "divides-witness-off-factorial", "invert-failing-coordinate", "divides-f-pullback",
            "divides-g-pullback", "biregular-without-certificate", "invert-without-certificate",
            "graph-ideal-unit", "graph-ideal-other", "graph-ideal-empty", "graph-ideal-two", "pair-not-dominant",
            "witness-not-interpolant", "biregular-inconsistent", "dichotomy-complement",
            "dichotomy-codim"])
    def test_tampered_certificate_fails(self, capsys, tmp_path, text, argv, edits):
        session = tmp_path / "map.session"
        session.write_text(text)
        path = self._report_file(capsys, tmp_path, "--session", str(session), *argv)
        data = json.loads(path.read_text())
        for key, value in edits.items():
            (data if key in ("verdict", "certificates") else data["certificates"][0])[key] = value
        path.write_text(json.dumps(data))
        code, report = run_cli(capsys, "verify", str(path))
        assert code == 1 and report["verdict"] is False

    @pytest.mark.parametrize("text, edits, implied", [
        (PUNCTURED_PLANE_TEXT, {}, "codim_one"),
        (fixture_session_text("hyperbola"), {}, "codim_one"),
        (PUNCTURED_PLANE_TEXT, {"complement_codim": 2}, None),
        (PUNCTURED_PLANE_TEXT, {"complement_closure": ["u", "v"]}, None),
        # Tied to its closure, but a codim_one branch misses a hypersurface.
        (PUNCTURED_PLANE_TEXT, {"complement_closure": ["u", "v"], "complement_codim": 2}, None),
    ], ids=["honest", "honest-hyperbola", "codim", "closure", "codim-and-closure"])
    def test_codim_one_dichotomy_ties_its_codimension(self, capsys, tmp_path, text, edits, implied):
        # codim_one is the negative answer and nothing is re-checked, so
        # verify says null for the report either way; the tie shows in the
        # verdict the certificate implies.
        session = tmp_path / "map.session"
        session.write_text(text)
        path = self._report_file(capsys, tmp_path, "--session", str(session), "dichotomy")
        data = json.loads(path.read_text())
        data["certificates"][0].update(edits)
        morphism = Session.from_json_dict(data["session"]).morphism()
        assert _check_dichotomy(data["certificates"][0], morphism) == ([], implied)
        path.write_text(json.dumps(data))
        code, report = run_cli(capsys, "verify", str(path))
        assert code == 0 and report["verdict"] is None

    def test_witness_off_the_target_ring_refused(self, capsys, tmp_path):
        # An interpolant's witness is read over the target ring, so one in
        # the source variables is refused.
        path = self._report_file(capsys, tmp_path, "--fixture", "triangular", "interpolate", "-g", "x")
        data = json.loads(path.read_text())
        data["certificates"][0]["witness_normal_form"] = "x^7 + 12"
        self._assert_refused(capsys, tmp_path, data, "unknown variable 'x'")

    def test_session_echo_drops_retired_keys_and_verify_reads_past_them(self, capsys, tmp_path):
        # Reports once echoed assert_irreducible and order; verify ignores both.
        path = self._report_file(capsys, tmp_path, "--fixture", "sl2row", "gb", "--order", "lex")
        data = json.loads(path.read_text())
        assert "assert_irreducible" not in data["session"] and "order" not in data["session"]
        data["session"].update(assert_irreducible=True, order="grevlex")
        path.write_text(json.dumps(data))
        code, report = run_cli(capsys, "verify", str(path))
        assert code == 0 and report["verdict"] is True

    def test_report_without_certificates(self, capsys, tmp_path):
        path = self._report_file(capsys, tmp_path, "--fixture", "cusp", "injective")
        code, report = run_cli(capsys, "verify", str(path))
        assert code == 0 and report["verdict"] is None
        code, out = run_cli(capsys, "verify", str(path), "--human")
        assert code == 0 and out.endswith("verdict: null\nexact: true\n"
                                          "note: report contains no re-checkable certificate\n")

    @staticmethod
    def _assert_refused(capsys, tmp_path, report, named):
        path = tmp_path / "report.json"
        path.write_text(report if isinstance(report, str) else json.dumps(report))
        assert main(["verify", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and named in captured.err

    @pytest.mark.parametrize("missing", ["source_ring", "target_ring", "map"])
    def test_report_with_incomplete_session_refused(self, capsys, tmp_path, missing):
        session = dict(MAP_SESSION)
        del session[missing]
        report = {"command": "interpolate", "session": session, "certificates": []}
        self._assert_refused(capsys, tmp_path, report, missing)

    @pytest.mark.parametrize("report, named", [
        ([{"command": "gb", "session": MAP_SESSION}], "report is not a JSON object"),
        ({"command": "gb", "session": MAP_SESSION, "certificates": [1]}, "certificate is not a JSON object"),
        ({"command": "interpolate", "session": MAP_SESSION,
          "certificates": [{"kind": "interpolation", "interpolant": "u"}]}, "'g'"),
        ({"command": "gb", "session": MAP_SESSION,
          "certificates": [{"kind": "groebner_basis", "order": "grevlex", "basis": ["x"]}]}, "'ring'"),
        ({"command": "minpoly", "session": MAP_SESSION, "args": {},
          "certificates": [{"kind": "graph_relation", "var": "w", "relation": "w - u",
                            "rational_pair": ["u", "1"]}]}, "'g'"),
        ({"command": "interpolate", "session": MAP_SESSION,
          "certificates": [{"kind": "interpolation", "g": 5, "interpolant": "u"}]}, "'g' is not a string"),
        ({"command": "gb", "session": MAP_SESSION,
          "certificates": [{"kind": "groebner_basis", "ring": "source", "basis": 5}]}, "'basis' is not a JSON array"),
        ({"command": "gb", "session": {**MAP_SESSION, "map": 5}, "certificates": []}, "'map' is not a JSON array"),
        ({"command": "minpoly", "session": MAP_SESSION, "args": {"g": "x"},
          "certificates": [{"kind": "graph_relation", "g": "x", "var": "w", "relation": "w - u",
                            "rational_pair": ["u"]}]}, "'rational_pair' is not an array of 2 strings"),
        # A relation is checked against the certificate's own g, never args.g.
        ({"command": "minpoly", "session": MAP_SESSION, "args": {"g": "x"}, "verdict": "relation",
          "certificates": [{"kind": "graph_relation", "var": "w", "relation": "w - u", "degree": 1,
                            "rational_pair": ["u", "1"]}]}, "'g'"),
        # A line break in a session entry would add a line of its own to the
        # session text that verify re-parses: here g = t would be checked on
        # the ring t/<t>, where its interpolant 0 holds, not on u = t^2.
        ({"command": "interpolate",
          "session": {"source_ring": ["t"], "target_ring": ["u"], "map": ["u = t^2"],
                      "depth": "8\nsource_ideal: t", "order": "grevlex"},
          "certificates": [{"kind": "interpolation", "g": "t", "interpolant": "0"}]},
         "'depth' is not a positive integer"),
        ({"command": "gb", "session": {**MAP_SESSION, "depth": 0}, "certificates": []},
         "'depth' is not a positive integer"),
        ({"command": "gb", "session": {**MAP_SESSION, "map": ["u = x\rsource_ideal: x"]}, "certificates": []},
         "'map' contains a line break"),
        # Each session entry is one item, never re-split on ';' or on
        # whitespace: each report below would otherwise be checked against
        # a map other than the one it shows, and verify to true.
        ({"command": "interpolate",
          "session": {"source_ring": ["x", "y"], "target_ring": ["u", "v"], "map": ["u = x ; v = x*y"]},
          "certificates": [{"kind": "interpolation", "g": "x", "interpolant": "u"}]},
         "unexpected character ';'"),
        ({"command": "interpolate",
          "session": {"source_ring": ["t s"], "target_ring": ["u"], "map": ["u = t"], "source_ideal": ["s ; t"]},
          "certificates": [{"kind": "interpolation", "g": "s", "interpolant": "0"}]},
         "invalid variable name 't s'"),
        ({"command": "interpolate", "session": {**MAP_SESSION, "source_ideal": ["x^2 ; x"]},
          "certificates": [{"kind": "interpolation", "g": "x", "interpolant": "0"}]},
         "unexpected character ';'"),
        pytest.param('{"command": "gb", "certificates": [], "session": {"source_ring": ["x"], "target_ring": ["u"], '
                     '"map": ["u = x"], "depth": 1' + "0" * 5000 + "}}", "integer string conversion",
                     marks=needs_digit_limit),
        ("{", "Expecting property name"),
        ("[" * 10000 + "]" * 10000, "maximum recursion depth exceeded"),
        ({"command": "gb", "session": {**MAP_SESSION, "map": ["u = " + "(" * 10000 + "x" + ")" * 10000]},
          "certificates": []}, "nesting deeper than 100 levels"),
        # An inverse longer than the source arity is refused, not truncated.
        ({"command": "invert", "session": MAP_SESSION,
          "certificates": [{"kind": "inversion", "inverse": ["u", "u^7 + 12"]}]},
         "'inverse' is not an array of 1 strings"),
        ({"command": "gb", "session": MAP_SESSION,
          "certificates": [{"kind": "groebner_basis", "ring": "banana", "order": "grevlex", "basis": []}]},
         "'ring' is neither"),
        ({"command": "gb", "session": MAP_SESSION,
          "certificates": [{"kind": "groebner_basis", "ring": ["source"], "order": "grevlex", "basis": []}]},
         "'ring' is not a string"),
        # A Jacobian needs a self-map of affine space; sl2row's is 2 x 4.
        ({"command": "etale", "session": load_fixture("sl2row").to_json_dict(),
          "certificates": [{"kind": "jacobian", "determinant": "1", "etale": True}]},
         "map is not a self-map of affine space: source or target has equations"),
        # The triangular jc report with 1 for true: all() would read it as true.
        ({"command": "jc", "session": load_fixture("triangular").to_json_dict(),
          "verdict": {"injective": True, "coords_determined": [1, 1], "invertible": True, "consistent": True},
          "certificates": [{"kind": "invertibility_criteria", "etale": True, "inverse": ["-v^2 + u", "v"],
                            "injective": True, "coords_determined": [1, 1], "invertible": True,
                            "consistent": True}]},
         "'coords_determined' is not an array of booleans"),
        # A kind its command does not declare is refused, not skipped: here
        # the cusp biregular report's kind with a trailing space.
        ({"command": "biregular", "session": load_fixture("cusp").to_json_dict(), "verdict": True,
          "certificates": [{"kind": "biregularity ", "injective": True, "almost_surjective": True,
                            "inverse": None, "consistent": True}]},
         "kind 'biregularity ' is not one that 'biregular' emits"),
        ({"command": "fixtures", "session": MAP_SESSION, "certificates": []},
         "command 'fixtures' is not a command that reads a session"),
        # Honest reports whose args ask another question than their
        # certificate answers: each verified true or null before args were
        # tied to the certificate.
        ({"command": "interpolate", "session": load_fixture("triangular").to_json_dict(), "args": {"g": "y"},
          "verdict": "interpolant", "certificates": [{"kind": "interpolation", "g": "x", "interpolant": "-v^2 + u",
                                                      "witness_normal_form": "-v^2 + u"}]},
         "args entry 'g' contradicts the interpolation certificate"),
        ({"command": "divides", "session": load_fixture("cusp").to_json_dict(), "args": {"f": "v", "g": "u"},
          "verdict": {"source": True, "target": False},
          "certificates": [{"kind": "divisibility_transfer", "f": "u", "g": "v", "f_pullback": "t^2",
                            "g_pullback": "t^3", "source_divides": True, "target_divides": False,
                            "witnesses_non_almost_surjective": True}]},
         "args entry 'f' contradicts the divisibility_transfer certificate"),
        ({"command": "gb", "session": load_fixture("sl2row").to_json_dict(), "args": {"ring": "source", "order": "lex"},
          "verdict": ["b*c - a*d + 1"], "certificates": [{"kind": "groebner_basis", "ring": "source",
                                                           "order": "grevlex", "basis": ["b*c - a*d + 1"]}]},
         "args entry 'order' contradicts the groebner_basis certificate"),
        ({"command": "determined", "session": load_fixture("triangular").to_json_dict(), "args": {"g": "y"},
          "verdict": True, "certificates": [{"kind": "fiber_constancy", "g": "x", "determined": True}]},
         "args entry 'g' contradicts the fiber_constancy certificate"),
        ({"command": "interpolate", "session": MAP_SESSION, "args": 5, "certificates": []},
         "'args' is not a JSON object"),
        # The image_closure kind answers the closure mode only.
        ({"command": "image", "session": load_fixture("cusp").to_json_dict(), "args": {"mode": "constructible"},
          "verdict": ["u^3 - v^2"], "certificates": [{"kind": "image_closure", "generators": ["u^3 - v^2"]}]},
         "args entry 'mode' contradicts the image_closure certificate"),
    ], ids=["list", "certificate-not-object", "interpolation-without-g", "basis-without-ring",
            "rational-pair-without-args-g", "g-not-a-string", "basis-not-an-array", "map-not-an-array",
            "rational-pair-of-one", "relation-without-g", "depth-with-line-break", "depth-zero",
            "map-with-line-break", "map-entry-with-semicolon", "ring-entry-with-space",
            "ideal-entry-with-semicolon", "integer-over-digit-limit", "not-json",
            "json-nested-too-deep", "map-nested-too-deep",
            "inverse-too-long", "ring-unknown", "ring-not-a-string", "jacobian-off-affine-space",
            "coords-determined-not-booleans", "kind-renamed", "command-without-session",
            "interpolate-args-g-changed", "divides-args-f-g-swapped", "gb-args-order-changed",
            "determined-args-g-changed", "args-not-an-object", "image-args-mode-changed"])
    def test_malformed_report_refused(self, capsys, tmp_path, report, named):
        self._assert_refused(capsys, tmp_path, report, named)

    def test_every_checked_kind_has_a_row(self, capsys):
        # Every kind verify re-checks has a row that says what it checks;
        # the fixtures listing's kind is carried as data.
        assert all(documented_kinds().get(kind) is False for kind in CHECKED_KINDS)
        code, report = run_cli(capsys, "fixtures")
        assert code == 0 and all(documented_kinds().get(cert["kind"]) for cert in report["certificates"])
        assert all(cert["kind"] in _COMMANDS["fixtures"].kinds for cert in report["certificates"])

    def test_every_declared_kind_has_a_row(self):
        # A declared kind's row says "not re-checked" exactly when the table
        # carries it as data, and a kind two commands emit has one entry.
        entries = {}
        for name, command in _COMMANDS.items():
            for kind, entry in command.kinds.items():
                assert documented_kinds().get(kind) is (entry is None), (name, kind)
                assert entries.setdefault(kind, entry) == entry, (name, kind)

    @pytest.mark.parametrize("name", fixture_names())
    def test_every_report_verifies(self, capsys, tmp_path, name):
        self._assert_every_report_verifies(capsys, tmp_path, ["--fixture", name],
                                           session_commands(load_fixture(name).morphism()))

    def test_seeded_sessions_verify(self, capsys, tmp_path):
        # Small random maps, with a source ideal a quarter of the time.
        # image --constructible is left out: its descent has no work bound yet.
        rng = random.Random(1)
        for index in range(40):
            session = tmp_path / f"seeded-{index}.session"
            source = VarContext(("x", "y")[:rng.randint(1, 2)])
            target = ("u", "v")[:rng.randint(1, 2)]
            lines = [f"source_ring: {' '.join(source.names)}", f"target_ring: {' '.join(target)}"]
            if rng.random() < 0.25:
                lines.append(f"source_ideal: {random_poly(rng, source, max_deg=2, max_terms=3)}")
            lines.append("map: " + " ; ".join(f"{u} = {random_poly(rng, source, max_deg=2, max_terms=3)}"
                                              for u in target))
            text = "\n".join(lines) + "\n"
            session.write_text(text)
            commands = session_commands(parse_session(text).morphism())
            self._assert_every_report_verifies(capsys, tmp_path, ["--session", str(session)],
                                               [argv for argv in commands if argv != ["image", "--constructible"]])

    @pytest.mark.parametrize("text, g", [
        ("source_ring: x y\ntarget_ring: u v\nmap: u = x ; v = 0\n", "y"),
        ("source_ring: x\ntarget_ring: u\nmap: u = 2\n", "x"),
        ("source_ring: x\nsource_ideal: 1\ntarget_ring: u\nmap: u = x\n", "x"),
    ], ids=["free-over-image", "constant-map", "empty-source"])
    def test_generator_free_of_line_coordinate_is_no_relation(self, capsys, tmp_path, text, g):
        # The graph closure is principal, but its generator (v, u - 2, 1)
        # does not involve the line coordinate: g is free over the image.
        session = tmp_path / "map.session"
        session.write_text(text)
        path = self._report_file(capsys, tmp_path, "--session", str(session), "minpoly", "-g", g)
        report = json.loads(path.read_text())
        assert report["verdict"] == "no_relation" and report["certificates"][0]["relation"] is None
        code, report = run_cli(capsys, "verify", str(path))
        assert code == 0 and report["verdict"] is None

    def _assert_every_report_verifies(self, capsys, tmp_path, source, commands):
        for argv in commands:
            code = main([*source, *argv])
            captured = capsys.readouterr()
            if code == 1:  # a refused precondition, e.g. etale on a map between different spaces
                assert captured.out == "" and captured.err.count("\n") == 1, (source, argv)
                continue
            # Each kind emitted is declared by its command, and re-checked or
            # documented as carried data.
            for cert in json.loads(captured.out)["certificates"]:
                assert cert["kind"] in _COMMANDS[argv[0]].kinds, (argv, cert["kind"])
                assert cert["kind"] in CHECKED_KINDS or documented_kinds().get(cert["kind"]), (argv, cert["kind"])
            path = tmp_path / "report.json"
            path.write_text(captured.out)
            code, report = run_cli(capsys, "verify", str(path))
            assert code == 0 and report["verdict"] in (True, None), (source, argv)
