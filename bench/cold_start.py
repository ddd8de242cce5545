"""Cold-start time of every session command, on several checkouts.

    python3 bench/cold_start.py PARENT CHANGE --out BENCH_27_cold.json

The benchmark's ``cold_start_ms`` times one command, ``--fixture square
dim``.  This script times a fresh ``python -m polymap`` process for every
command of the ``cli._COMMANDS`` table that reads a session, each on the
first fixture where it answers (exit code 0), with ``-g`` and ``--drop``
set to the first source variable and ``divides``' ``-f`` and ``-g`` to the
first and second target variables.  The fixture is chosen on the first
checkout, and every timed process must exit 0 on every checkout.

As in ``perfbench/run.py``, whose ``Host`` is imported from the
``perfbench`` directory beside this script and only read, this process
and its children run on one CPU, each checkout's ``src/`` is
byte-compiled first, and each time is scaled to the reference speed by
the reference kernel timed just before and just after it.  Each round
times every command once on every checkout, and the checkout that goes
first alternates from one round to the next.

For each command and checkout the output holds every time, their median
and quartiles, and which of ``dataclasses``, ``inspect`` and
``polymap.reports`` the command leaves imported, read by one more
process run with ``-S`` so that site hooks import nothing.  With two
checkouts each command also gets the relative change of the median.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "perfbench")]

from record import describe, spread  # noqa: E402
from run import Host  # noqa: E402

WATCHED = ("dataclasses", "inspect", "polymap.reports")

# Runs in one checkout (argv[1] is its src/): the first fixture on which
# each session command exits 0, as one JSON object {command: argv}.
CHOOSE = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from polymap import cli, fixture_names, load_fixture

def flags(name, command, session):
    source, target = session.map.source.ctx.names, session.map.target.ctx.names
    takes = {flag[0][0] for flag in command.flags if not isinstance(flag, list)}
    if name == "divides":
        return ["-f", target[0], "-g", target[1 if len(target) > 1 else 0]] if target else None
    if takes & {"-g", "--drop"}:
        return [f for f in ("-g", "--drop") if f in takes] + [source[0]] if source else None
    return []

chosen = {}
for name, command in cli._COMMANDS.items():
    if not command.session:
        continue
    for fixture in fixture_names():
        extra = flags(name, command, load_fixture(fixture))
        if extra is None:
            continue
        argv = ["--fixture", fixture, name] + extra
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code == 0:
            chosen[name] = argv
            break
json.dump(chosen, sys.stdout)
"""

# Runs in one checkout with -S: the watched modules that a command leaves
# imported, printed on stderr after the command's own output.
PROBE = r"""
import sys
sys.path.insert(0, sys.argv[1])
from polymap import cli
code = cli.main(sys.argv[2:])
print(",".join(m for m in %r if m in sys.modules), file=sys.stderr)
sys.exit(code)
""" % (WATCHED,)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="+", type=Path)
    parser.add_argument("--rounds", type=int, default=15, help="timed processes per command and checkout")
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args(argv)


def src_env(checkout: Path) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(checkout / "src")}


def choose_commands(checkout: Path) -> dict[str, list[str]]:
    done = subprocess.run([sys.executable, "-c", CHOOSE, str(checkout / "src")], cwd=checkout,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def loaded(checkout: Path, argv: list[str]) -> list[str]:
    done = subprocess.run([sys.executable, "-S", "-c", PROBE, str(checkout / "src"), *argv], cwd=checkout,
                          capture_output=True, text=True, check=True)
    return [m for m in done.stderr.strip().split(",") if m]


def cold_ms(checkout: Path, argv: list[str], host: Host) -> float:
    """One fresh ``python -m polymap`` process, in ms at the reference speed."""
    since = len(host.samples)
    host.sample()
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "polymap", *argv], cwd=checkout, env=src_env(checkout),
                   capture_output=True, check=True)
    elapsed = time.perf_counter() - start
    host.sample()
    return elapsed * 1000 * host.scale(since)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    checkouts = [c.resolve() for c in args.checkouts]
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for checkout in checkouts:
        compileall.compile_dir(str(checkout / "src"), quiet=1)
    commands = choose_commands(checkouts[0])
    host = Host()
    times = {name: [[] for _ in checkouts] for name in commands}
    for turn in range(args.rounds):
        for name, command_argv in commands.items():
            for k in range(len(checkouts)):
                side = (turn + k) % len(checkouts)
                times[name][side].append(cold_ms(checkouts[side], command_argv, host))
        print(f"round {turn + 1} of {args.rounds}", file=sys.stderr)
    results = {}
    for name, command_argv in commands.items():
        sides = [{**spread(t), "times": t, "loads": loaded(c, command_argv)} for c, t in zip(checkouts, times[name])]
        results[name] = {"argv": command_argv, "sides": sides}
        if len(sides) == 2:
            results[name]["median_change"] = sides[1]["median"] / sides[0]["median"] - 1
        print(f"{' '.join(command_argv):45} " + "  ".join(
            f"{s['median']:7.1f} [{s['q1']:.1f}, {s['q3']:.1f}] {','.join(s['loads']) or '-'}" for s in sides))
    record = {
        "command": "python3 bench/cold_start.py " + " ".join(
            [f"CHECKOUT{i}" for i in range(len(checkouts))] + ["--rounds", str(args.rounds), "--out", args.out.name]),
        "unit": "ms at the reference speed",
        "python": sys.version.split()[0],
        "checkouts": [describe(c) for c in checkouts],
        "commands": results,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
