"""Run the benchmark on several checkouts and record every run in one JSON file.

    python3 bench/record.py PARENT CHANGE --seeds 1 2 3 4 5 6 7 8 9 10 --out BENCH_6.json

Each CHECKOUT is the root of a source checkout.  Its own
``perfbench/run.py`` runs there, one run at a time, on every workload
and seed.  For each workload and seed the checkouts run in turn, and the
checkout that goes first rotates from one seed to the next, so that a
drift of the host's speed falls on every side alike.  The workloads, the
run length and the direction of each end-to-end metric come from the
first checkout's ``BENCHMARK.json``; ``--trace 1`` records per-layer runs
instead.

The output holds every run's last stdout line, as ``run.py`` printed it,
and for each workload, checkout and metric the median and quartiles over
the seeds.  With two checkouts it also counts, for each end-to-end
metric, the seeds on which the second checkout did better than the first
(ties count for neither).  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="+", type=Path)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--workloads", nargs="+", help="default: every workload in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args(argv)


def git(checkout: Path, *argv: str) -> str | None:
    done = subprocess.run(["git", "-C", str(checkout), *argv], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def describe(checkout: Path) -> dict:
    """The commit a checkout is at, the tree of its ``src/`` and whether its
    working tree differs from that commit."""
    return {
        "commit": git(checkout, "rev-parse", "HEAD"),
        "src_tree": git(checkout, "rev-parse", "HEAD:src"),
        "dirty": bool(git(checkout, "status", "--porcelain", "--untracked-files=no")),
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"{' '.join(argv[1:])} in {checkout} exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], sides: int, better: dict[str, str]) -> dict:
    """Per workload: each checkout's spread of every metric, and, with two
    checkouts, the second one's wins over the first, seed by seed."""
    summary: dict = {}
    for run in runs:
        per = summary.setdefault(run["workload"], {"sides": [{} for _ in range(sides)]})
        side = per["sides"][run["side"]]
        for name, metric in run["result"]["metrics"].items():
            side.setdefault(name, []).append(metric["value"])
        side.setdefault("failed", []).append(run["result"]["failed"])
        side.setdefault("correct", []).append(run["result"]["correct"])
    for workload, per in summary.items():
        per["sides"] = [{name: values if name == "correct" else spread(values) for name, values in side.items()}
                        for side in per["sides"]]
        if sides != 2:
            continue
        by_seed = {(run["seed"], run["side"]): run["result"]["metrics"] for run in runs if run["workload"] == workload}
        wins = {}
        for name, direction in better.items():
            pairs = [(by_seed[seed, 0][name]["value"], by_seed[seed, 1][name]["value"])
                     for seed, side in by_seed if side == 0 and name in by_seed[seed, 0]]
            if pairs:
                won = sum(new > old if direction == "higher" else new < old for old, new in pairs)
                wins[name] = {"won": won, "pairs": len(pairs)}
        per["second_wins"] = wins
    return summary


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.checkouts[0] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = len(args.checkouts)
    runs = []
    for turn, seed in enumerate(args.seeds):
        for workload in workloads:
            for k in range(sides):
                side = (turn + k) % sides
                result = run_once(args.checkouts[side], workload, seed, spec["run_seconds"], args.trace)
                runs.append({"workload": workload, "seed": seed, "side": side, "order": k, "result": result})
                print(f"{workload} seed {seed} side {side}: correct={result['correct']} failed={result['failed']}",
                      file=sys.stderr)
    record = {
        "command": "python3 bench/record.py " + " ".join(
            [f"CHECKOUT{i}" for i in range(sides)] + ["--seeds", *map(str, args.seeds), "--workloads", *workloads,
                                                      "--trace", str(args.trace), "--out", args.out.name]),
        "run_seconds": spec["run_seconds"],
        "python": sys.version.split()[0],
        "checkouts": [describe(c) for c in args.checkouts],
        "runs": runs,
        "summary": summarize(runs, sides, {} if args.trace else better),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
