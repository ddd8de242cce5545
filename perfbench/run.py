"""Run one workload of the polymap benchmark and print its metrics.

    python3 perfbench/run.py --workload interpolate --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; polymap is imported from
``src/``.  The run sets the workload up from the seed (several times,
reporting the median), runs one untimed warm-up pass, then repeats whole
timed passes until ``--seconds`` have gone by.  With ``--trace 1`` half
of that time runs untraced and half traced, and the per-layer numbers
are printed instead of the end-to-end ones.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end times are reported at a fixed reference speed of the host:
the host's speed drifts by tens of percent over minutes, so a fixed
polymap-free kernel is timed between operations all through the run,
and every time is scaled by REFERENCE_MS / (the kernel's mean time over
the same stretch).  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
COLD_STARTS = 15
IMPORT_PROBES = 5
COLD_ARGV = ["-m", "polymap", "--fixture", "square", "dim"]
IMPORT_PROBE = "import time; t = time.perf_counter(); import polymap.cli; print((time.perf_counter() - t) * 1000)"
FAILED = object()  # stands for the result of an operation that raised
REFERENCE_MS = 2.5  # the reference kernel's time at the reference speed
SAMPLE_EVERY_S = 0.05  # how often, in the host's time, the kernel is timed


def reference_kernel() -> None:
    """A fixed product of two sparse polynomials held as dicts of Fractions:
    the same kind of interpreter work as polymap's, without polymap."""
    from fractions import Fraction

    a = {(i, j): Fraction(i - j, 1 + i) for i in range(6) for j in range(6) if (i + j) % 3}
    b = {(i, j): Fraction(j + 1, 2 + i) for i in range(5) for j in range(5) if (i * j) % 2 == 0}
    out: dict = {}
    for (a1, a2), c in a.items():
        for (b1, b2), d in b.items():
            key = (a1 + b1, a2 + b2)
            out[key] = out.get(key, 0) + c * d


class Host:
    """The host's speed, sampled by timing ``reference_kernel``."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.last = time.perf_counter()
        self.samples.append(self.last - start)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, since: int) -> float:
        """Factor that turns a time measured since sample ``since`` into a
        time at the reference speed."""
        return REFERENCE_MS / 1000 / statistics.mean(self.samples[since:])


@dataclass
class Pass:
    seconds: list[float]  # per operation, as measured
    failed: list[bool]
    wrong: list[str]  # labels of operations whose answer was wrong
    scale: float  # turns this pass's times into times at the reference speed
    snapshot: dict | None = None  # per-layer values of a traced pass


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("interpolate", "certify", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn_ms(argv: list[str]) -> tuple[float, str]:
    """Wall time of one child interpreter, started and awaited, and its stdout."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    return (time.perf_counter() - start) * 1000, done.stdout


class ColdStarts:
    """Wall times of ``python -m polymap`` on one small command, one child at
    a time, spread evenly over the timed passes so that they sample the
    same stretch of time as the passes do.  Each is scaled by the
    reference kernel timed just before and just after it."""

    def __init__(self, seconds: float, host: Host):
        self.seconds = seconds
        self.host = host
        self.times: list[float] = []
        self.ok = True

    def spawn_until(self, elapsed: float) -> None:
        while len(self.times) < COLD_STARTS * min(1.0, elapsed / self.seconds):
            since = len(self.host.samples)
            self.host.sample()
            elapsed_ms, out = spawn_ms(COLD_ARGV)
            self.host.sample()
            self.times.append(elapsed_ms * self.host.scale(since))
            self.ok = self.ok and json.loads(out)["verdict"] == 1  # the squaring map's source is the line


def run_pass(workload, host: Host, tracer=None) -> Pass:
    """One whole pass.  Answers are checked after the pass, outside the
    tracer, so checks are neither timed nor counted."""
    state = workload.fresh()
    seconds, results = [], []
    clock = time.perf_counter
    first_sample = len(host.samples)
    host.sample()
    with tracer or contextlib.nullcontext():
        for op in workload.ops:
            start = clock()
            try:
                results.append(op.run(state))
            except Exception:  # an operation that raises is failed; the pass goes on
                results.append(FAILED)
            seconds.append(clock() - start)
            host.maybe_sample()
    wrong = []
    for op, result in zip(workload.ops, results):
        try:
            good = result is FAILED or op.check(result)
        except Exception:  # a malformed answer is a wrong answer
            good = False
        if not good:
            wrong.append(op.label)
    return Pass(seconds, [result is FAILED for result in results], wrong, host.scale(first_sample))


def repeat_passes(workload, host: Host, seconds: float, tracer=None, between=None) -> list[Pass]:
    """Whole passes until ``seconds`` have gone by; at least one.  With a
    tracer, each pass carries its per-layer snapshot.  ``between(elapsed)``
    runs after each pass, outside the pass time."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.reset()
        passes.append(run_pass(workload, host, tracer))
        if tracer is not None:
            passes[-1].snapshot = tracer.snapshot()
        if between is not None:
            between(time.perf_counter() - start)
    return passes


def nearest_rank(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def unit_of(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def end_to_end(passes: list[Pass], setup_s: float) -> dict[str, float]:
    completed = sum(p.failed.count(False) for p in passes)
    latencies = [s * p.scale for p in passes for s, f in zip(p.seconds, p.failed) if not f]
    # Percentiles need >= 40 samples behind them and >= 10 beyond: every
    # workload has more than 100 completed operations per pass.
    if len(latencies) < 100:
        raise RuntimeError("a pass must hold at least 100 completed operations")
    return {
        "setup_s": setup_s,
        "ops_per_s": completed / sum(sum(p.seconds) * p.scale for p in passes),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_p90_ms": nearest_rank(latencies, 0.9) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(workload, host: Host, seconds: float, trace_file: Path) -> tuple[dict[str, float], list[Pass], bool]:
    """Half the time untraced, half traced.  Counts must repeat exactly from
    one traced pass to the next; times, as measured, are medians over the
    traced passes, except the overhead, which compares pass times at the
    reference speed.  Every traced pass's snapshot is written to
    ``trace_file``."""
    from tracing import Tracer

    untraced = repeat_passes(workload, host, seconds / 2)
    first_sample = len(host.samples)
    passes = repeat_passes(workload, host, seconds / 2, Tracer())
    snapshots = [p.snapshot for p in passes]
    trace_file.write_text(json.dumps(snapshots, indent=1), encoding="utf-8")
    counts = [{k: v for k, v in snap.items() if unit_of(k) == "count"} for snap in snapshots]
    metrics = dict(counts[0])
    for name in snapshots[0]:
        if unit_of(name) == "s":
            metrics[name] = statistics.median(snap[name] for snap in snapshots)
    metrics["trace.overhead_s"] = (statistics.median(sum(p.seconds) * p.scale for p in passes)
                                   - statistics.median(sum(p.seconds) * p.scale for p in untraced))
    metrics["host.reference_ms"] = statistics.mean(host.samples[first_sample:]) * 1000
    metrics["import.polymap_cli_ms"] = statistics.median(
        float(spawn_ms(["-c", IMPORT_PROBE])[1]) for _ in range(IMPORT_PROBES))
    deterministic = all(c == counts[0] for c in counts)
    return metrics, untraced + passes, deterministic


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "polymap" / "__init__.py").is_file():
        print(f"error: no polymap sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    # One CPU for this process and the children it starts, so that the
    # reference kernel times the CPU that the work and the children run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Byte-compile ahead of the timed import, so that the first run in a
    # fresh checkout times the same import as every later one.
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import polymap.cli  # noqa: F401  (timed: part of set-up)
    import_s = time.perf_counter() - start

    from workloads import WORKLOADS

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    host = Host()
    host.sample()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, out_dir)
        setup_times.append(time.perf_counter() - start)
        host.sample()
    setup_s = (import_s + statistics.median(setup_times)) * host.scale(0)

    warm = run_pass(workload, host)
    if args.trace:
        metrics, passes, correct = traced(workload, host, args.seconds, out_dir / f"trace-seed{args.seed}.json")
    else:
        cold = ColdStarts(args.seconds, host)
        passes = repeat_passes(workload, host, args.seconds, between=cold.spawn_until)
        cold.spawn_until(args.seconds)
        metrics = end_to_end(passes, setup_s)
        metrics["cold_start_ms"], correct = statistics.median(cold.times), cold.ok

    passes.append(warm)
    wrong = sorted({label for p in passes for label in p.wrong})
    for label in wrong:
        print(f"wrong answer: {label}", file=sys.stderr)
    for label in sorted({op.label for p in passes for op, bad in zip(workload.ops, p.failed) if bad}):
        print(f"failed: {label}", file=sys.stderr)
    print(json.dumps({
        "correct": correct and not wrong,
        "attempted": sum(len(p.failed) for p in passes),
        "failed": sum(p.failed.count(True) for p in passes),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
