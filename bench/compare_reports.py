"""Compare the CLI reports of two checkouts call by call.

    python3 bench/compare_reports.py PARENT CHANGE

Each CHECKOUT is the root of a source checkout.  One subprocess per
checkout imports polymap from its ``src/`` and, in-process through
``cli.main``, runs every fixture through every command of its
``cli._COMMANDS`` table that reads a session.  A command that declares
``-g`` or ``--drop`` runs once with the first source variable and once
with the first target variable as their value.  ``divides`` reads ``-f``
and ``-g`` over the target ring, so it runs once with the first target
variable as ``-f`` and the second, or the first again on a one-variable
target, as ``-g``; on a target ring without variables it does not run.
A command also runs
once with each value of a ``choices`` flag other than its default, and
once with each flag of a mutually exclusive group, one flag at a time.
Every call runs with and without ``--human``, and ``verify`` runs on each
JSON report.
Reports are written under the same relative name in both checkouts, so
a ``verify`` report's path field compares equal.

Beside the fixtures it sweeps the sessions in ``SESSIONS`` below, written
to session files: maps whose variable names clash with the names the
engine picks for the graph and the line coordinate, a parabola whose
coordinate inverse is only one-sided, maps whose image descents end in
each of the ways a descent can end, an isomorphism of two points, two
maps into a ring without variables (for which no value is taken from
the target ring), shallow descents and further maps whose
almost-surjectivity verdicts come from each end of the dimension
bracket or from neither, two bijections without a regular inverse
because a source or target ideal is not radical, a seeded map whose
description has three nested pieces, the hyperbola at depth 1 (null
``biregular`` and ``dichotomy``), a two-piece exact description whose
``complement_closure`` is not radical, Nagata's automorphism of 3-space
(x - 2yq - zq^2, y + zq, z) with q = xz + y^2, the degree-4 tame
plane automorphism (x + (y + x^2)^2, y + x^2), and two asserted-etale
maps for ``dichotomy``'s gates: one that is not injective and an open
immersion of the punctured plane that misses the line u = 0, the five
points x^2 + y^3 = xy - 1 = 0 projected to the line, whose lex and
grevlex bases differ, a point onto a point, whose inverse is empty, and
the plane onto a line in the plane, (x, y) -> (y, 0), over whose image x
is free: its graph closure is principal with a generator free of the
line coordinate, which ``minpoly`` reads as no relation.  Four more
sessions exercise the factoriality and etaleness rules: the cusp map
t -> (t^2, t^3) onto the cusp curve u^3 = v^2, a bijection onto a target
that is not factorial, without and with a (refuted) ``assert_factorial``;
squaring on the hyperbola xz = 1, etale but not injective; and the
hyperbola onto the hyperbola pq = 1, etale onto a target that is neither
affine space nor asserted factorial.  The sessions above that still set
flags the engine now decides show that a redundant or refuted flag is
handled.

It also runs each ``demos/*.py`` of the checkout in its own process, with
``PYTHONPATH`` set to that checkout's ``src/``, as one call.

Every call whose exit code, stdout or stderr differs between the two
checkouts is printed, as is a call that only one checkout makes; the
script exits 1 if there is any.  For each checkout it then prints how
many ``verify`` calls returned ``true``, ``null`` and ``false``, and how
many refused their report: how much of the honest reports ``verify``
actually checks, and whether it refuses any of them.  Only the standard
library is used.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

# Runs inside one checkout: argv[1] is its src/ directory.  Prints one JSON
# list of {"argv", "exit", "stdout", "stderr"}.
DRIVER = r"""
import contextlib, io, json, os, pathlib, subprocess, sys
sys.path.insert(0, sys.argv[1])
from polymap import cli, fixture_names, load_fixture, parse_session

VALUE_FLAGS = ("-g", "-f", "--drop")
SESSIONS = {
    "clash-line": "source_ring: w\ntarget_ring: u\nmap: u = w^2\n",
    "clash-rings": "source_ring: x y\ntarget_ring: x y\nmap: x = x + y^2 ; y = y\n",
    "clash-graph": "source_ring: w x\ntarget_ring: w\nmap: w = x*w\n",
    "parabola": "source_ring: t\ntarget_ring: u v\nmap: u = t ; v = t^2\nassert_factorial: true\n",
    "x2-xy": "source_ring: x y\ntarget_ring: u v\nmap: u = x^2 ; v = x*y\n",
    "three-pieces": "source_ring: x y\ntarget_ring: u v\nmap: u = x*y ; v = x*y^2 + x\n",
    "nodal": "source_ring: t\ntarget_ring: u v\nmap: u = t^2 - 1 ; v = t^3 - t\n",
    "triangular3": "source_ring: x y z\ntarget_ring: u v w\nmap: u = x ; v = x*y ; w = x*y*z\n",
    "nilpotent-lc": "source_ring: x y\nsource_ideal: x^2*y\ntarget_ring: u v\nmap: u = x*y ; v = x + x^2\n",
    "two-points": "source_ring: t\nsource_ideal: t^2 - 1\ntarget_ring: u\ntarget_ideal: u^2 - 1\n"
                  "map: u = t\nassert_factorial: true\n",
    "empty-into-empty": "source_ring: x\nsource_ideal: 1\ntarget_ring:\ntarget_ideal: 1\nmap:\n",
    "line-to-point": "source_ring: x\ntarget_ring:\nmap:\n",
    "shear-depth1": "source_ring: x y\ntarget_ring: u v\nmap: u = x ; v = x*y\nassert_factorial: true\ndepth: 1\n",
    "three-pieces-depth2": "source_ring: x y\ntarget_ring: u v\nmap: u = x*y ; v = x*y^2 + x\ndepth: 2\n",
    "x2-x2y+x-depth1": "source_ring: x y\ntarget_ring: u v\nmap: u = x^2 ; v = x^2*y + x\ndepth: 1\n",
    "whitney": "source_ring: x y\ntarget_ring: u v w\nmap: u = x ; v = x*y ; w = y^2\n",
    "torus": "source_ring: x y z\nsource_ideal: x*y*z - 1\ntarget_ring: u v\nmap: u = x ; v = y\n",
    "blowup": "source_ring: x y z\ntarget_ring: u v w\nmap: u = x ; v = x*y ; w = x*z\n",
    "axes": "source_ring: x y\nsource_ideal: x*y\ntarget_ring: u v\nmap: u = y^2 ; v = x^2\n",
    "line-into-cross": "source_ring: t\ntarget_ring: u v\ntarget_ideal: u*v\nmap: u = t ; v = 0\n",
    "double-line": "source_ring: x y\nsource_ideal: y^2\ntarget_ring: u\nmap: u = x\n"
                   "assert_factorial: true\nassert_etale: true\n",
    "double-target": "source_ring: t\ntarget_ring: u v\ntarget_ideal: u^2\nmap: u = 0 ; v = t\n"
                     "assert_factorial: true\nassert_etale: true\n",
    "seeded-three-pieces": "source_ring: x y\ntarget_ring: u v\nmap: u = 2*x*y^2 + x - 2 ; v = -x*y + 3*x\n",
    "hyperbola-depth1": "source_ring: x z\nsource_ideal: x*z - 1\ntarget_ring: u\nmap: u = x\n"
                        "assert_factorial: true\nassert_etale: true\ndepth: 1\n",
    "x2-x2y+x": "source_ring: x y\ntarget_ring: u v\nmap: u = x^2 ; v = x^2*y + x\n",
    "nagata": "source_ring: x y z\ntarget_ring: u v w\n"
              "map: u = x - 2*x*y*z - 2*y^3 - x^2*z^3 - 2*x*y^2*z^2 - y^4*z ; v = y + x*z^2 + y^2*z ; w = z\n"
              "assert_factorial: true\nassert_etale: true\n",
    "tame-degree4": "source_ring: x y\ntarget_ring: u v\nmap: u = x^4 + 2*x^2*y + y^2 + x ; v = x^2 + y\n"
                    "assert_factorial: true\nassert_etale: true\n",
    "not-injective": "source_ring: x y\ntarget_ring: u v\nmap: u = x ; v = x*y\n"
                     "assert_factorial: true\nassert_etale: true\n",
    "punctured-plane": "source_ring: x y z\nsource_ideal: x*z - 1\ntarget_ring: u v\nmap: u = x ; v = y\n"
                       "assert_factorial: true\nassert_etale: true\n",
    "five-points": "source_ring: x y\nsource_ideal: x^2 + y^3 ; x*y - 1\ntarget_ring: u\nmap: u = x\n"
                   "assert_factorial: true\n",
    "point-onto-point": "source_ring:\ntarget_ring: u\ntarget_ideal: u - 2\nmap: u = 2\nassert_factorial: true\n",
    "free-over-image": "source_ring: x y\ntarget_ring: u v\nmap: u = y ; v = 0\n",
    "cusp-curve": "source_ring: t\ntarget_ring: u v\ntarget_ideal: u^3 - v^2\nmap: u = t^2 ; v = t^3\n",
    "cusp-curve-asserted": "source_ring: t\ntarget_ring: u v\ntarget_ideal: u^3 - v^2\nmap: u = t^2 ; v = t^3\n"
                           "assert_factorial: true\n",
    "hyperbola-squared": "source_ring: x z\nsource_ideal: x*z - 1\ntarget_ring: u\nmap: u = x^2\n"
                         "assert_etale: true\n",
    "hyperbola-onto-hyperbola": "source_ring: x z\nsource_ideal: x*z - 1\ntarget_ring: p q\n"
                                "target_ideal: p*q - 1\nmap: p = x ; q = z\nassert_etale: true\n",
}

def flag_names(flags):
    for flag in flags:
        if isinstance(flag, list):
            yield from flag_names(flag)
        else:
            yield from flag[0]

# Each non-default value of a choices flag, and each flag of a mutually
# exclusive group, as the arguments of one call.
def flag_variants(flags):
    for flag in flags:
        if isinstance(flag, list):
            yield from ([names[0]] for names, _ in flag)
        else:
            names, kwargs = flag
            yield from ([names[0], value] for value in kwargs.get("choices", ()) if value != kwargs.get("default"))

def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = "exception"
            print(f"{type(exc).__name__}: {exc}", file=err)
    calls.append({"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    return code, out.getvalue()

calls = []
sources = [(fixture, ["--fixture", fixture], load_fixture(fixture)) for fixture in fixture_names()]
for label, text in SESSIONS.items():
    with open(label + ".session", "w", encoding="utf-8") as handle:
        handle.write(text)
    sources.append((label, ["--session", label + ".session"], parse_session(text)))
# The values of a command's -g, -f and --drop flags, one dict per call.
# divides reads f and g over the target ring: f is its first variable and
# g its second, or the first again on a one-variable target.
def flag_values(name, takes, echo):
    if not takes:
        return [{}]
    if name == "divides":
        ring = echo["target_ring"]
        return [{"-f": ring[0], "-g": ring[1 if len(ring) > 1 else 0]}] if ring else []
    firsts = dict.fromkeys(ring[0] for ring in (echo["source_ring"], echo["target_ring"]) if ring)
    return [dict.fromkeys(takes, var) for var in firsts]

for label, source, session in sources:
    echo = session.to_json_dict()
    for name, command in cli._COMMANDS.items():
        if not command.session:
            continue
        takes = [f for f in VALUE_FLAGS if f in set(flag_names(command.flags))]
        for variant in [[]] + list(flag_variants(command.flags)):
            for values in flag_values(name, takes, echo):
                argv = source + [name] + variant + [a for item in values.items() for a in item]
                call(argv + ["--human"])
                code, out = call(argv)
                try:
                    json.loads(out)
                except ValueError:
                    continue
                words = [label, name] + [a.lstrip("-") for a in variant] + list(dict.fromkeys(values.values()))
                report = "-".join(words) + ".json"
                with open(report, "w", encoding="utf-8") as handle:
                    handle.write(out)
                call(["verify", report])
env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [sys.argv[1], os.environ.get("PYTHONPATH")]))}
for demo in sorted((pathlib.Path(sys.argv[1]).parent / "demos").glob("*.py")):
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env)
    calls.append({"argv": ["demos/" + demo.name], "exit": done.returncode, "stdout": done.stdout, "stderr": done.stderr})
json.dump(calls, sys.stdout)
"""


def run_checkout(checkout: Path) -> dict[tuple[str, ...], dict]:
    with tempfile.TemporaryDirectory() as scratch:
        done = subprocess.run([sys.executable, "-c", DRIVER, str(checkout.resolve() / "src")],
                              cwd=scratch, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{checkout}: the driver failed:\n{done.stderr}")
    return {tuple(c["argv"]): c for c in json.loads(done.stdout)}


def verify_counts(calls: dict[tuple[str, ...], dict]) -> str:
    """How many ``verify`` calls returned true, null and false, and how many
    refused their report (a refusal prints nothing on stdout)."""
    verdicts = [json.loads(c["stdout"] or "{}").get("verdict", "refused") for key, c in calls.items()
                if key[0] == "verify"]
    counts = ", ".join(f"{json.dumps(v)} {sum(w is v for w in verdicts)}" for v in (True, None, False))
    return f"{counts}, refused {verdicts.count('refused')} of {len(verdicts)}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    parent, change = (run_checkout(Path(a)) for a in argv)
    differing = 0
    for key in list(parent) + [k for k in change if k not in parent]:
        old, new = parent.get(key), change.get(key)
        if old is None or new is None:
            fields = ["only in " + ("change" if old is None else "parent")]
        else:
            fields = [f for f in ("exit", "stdout", "stderr") if old[f] != new[f]]
        if fields:
            differing += 1
            print(f"{' '.join(key)}: {', '.join(fields)} differ")
    print(f"{differing} of {len(set(parent) | set(change))} calls differ")
    for checkout, calls in zip(argv, (parent, change)):
        print(f"{checkout}: verify returned {verify_counts(calls)}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
