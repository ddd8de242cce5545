"""Tests of the benchmark itself: its checks reject wrong answers, its
traced run repeats exactly, and it refuses to run without the sources.

    python -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import workloads
from polymap import Poly, invert, jc_criteria, load_fixture

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bump_one_coefficient(p: Poly) -> Poly:
    mono, coeff = next(iter(p.terms()))
    terms = dict(p.terms())
    terms[mono] = coeff + 1
    return Poly(p.ctx, terms)


@pytest.fixture(scope="module")
def tame():
    endo, inverse = workloads.tame_maps(random.Random(7), [(2, 2, 4, 4)])[0]
    return endo, list(inverse.coords)


def test_interpolant_with_one_changed_coefficient_is_rejected(tame):
    endo, _ = tame
    p = workloads.random_query(random.Random(1), endo.target.ctx, 3, 3)
    result = endo.interpolate(endo.pullback(p))
    assert workloads.interpolant_ok(result, p)
    corrupted = dataclasses.replace(result, interpolant=bump_one_coefficient(result.interpolant))
    assert not workloads.interpolant_ok(corrupted, p)


def test_swapped_rational_pair_is_rejected(tame):
    endo, _ = tame
    p = workloads.random_query(random.Random(2), endo.target.ctx, 2, 2)
    g = endo.pullback(p)
    determined, result = endo.determined_by(g), endo.minimal_polynomial(g)
    assert workloads.relation_ok(determined, result, p)
    num, den = result.rational_pair
    swapped = dataclasses.replace(result, rational_pair=(den, num))
    assert not workloads.relation_ok(determined, swapped, p)


def test_wrong_inverse_coordinate_is_rejected(tame):
    endo, inverse = tame
    wrong = [inverse[0] + Poly.constant(inverse[0].ctx, Fraction(1)), inverse[1]]
    report = endo.biregular()
    assert workloads.biregular_ok(report, inverse)
    assert not workloads.biregular_ok(report, wrong)
    assert not workloads.biregular_ok(dataclasses.replace(report, inverse=tuple(wrong)), inverse)
    result = invert(endo)
    assert workloads.invert_ok(result, inverse) and not workloads.invert_ok(result, wrong)
    jc = jc_criteria(endo)
    assert workloads.jc_ok(jc, inverse) and not workloads.jc_ok(jc, wrong)


def test_nagata_inverse_is_built_from_the_word():
    for endo, inverse in workloads.nagata_maps(random.Random(3)):
        forward = dict(zip(endo.target.ctx.names, endo.coords))
        assert [c.substitute(forward) for c in inverse] == Poly.variables(endo.source.ctx)


def test_report_with_one_changed_byte_is_rejected():
    expect = workloads.cli_expectation("triangular", "invert")
    call = workloads.call_cli(["--fixture", "triangular", "invert"])
    assert workloads.report_ok(call, None, expect)
    assert workloads.report_ok(call, call.out, expect)
    at = call.out.index('"u"')
    changed = dataclasses.replace(call, out=call.out[:at + 1] + "w" + call.out[at + 2:])
    assert not workloads.report_ok(changed, call.out, expect)
    flipped = dataclasses.replace(call, out=call.out.replace('"-v^2 + u"', '"v^2 + u"'))
    assert not workloads.report_ok(flipped, None, expect)


def test_source_points_lie_on_the_source_variety():
    for name, points in workloads.SOURCE_POINTS.items():
        m = load_fixture(name).morphism()
        for point in points:
            assert all(g.evaluate(point) == 0 for g in m.source.ideal.generators)


def run_bench(cwd: Path, workload: str, trace: int, seconds: str = "0.1") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_runs_repeat_exactly(workload):
    first, second = (json.loads(run_bench(ROOT, workload, 1).stdout.splitlines()[-1]) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name, metric in first["metrics"].items():
        if metric["unit"] == "count":
            assert metric["value"] == second["metrics"][name]["value"], name


def test_untraced_run_prints_every_end_to_end_metric():
    done = run_bench(ROOT, "cli", 0)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    # Only the two malformed inputs may fail, until the CLI refuses them cleanly.
    failed = {line for line in done.stderr.splitlines() if line.startswith("failed: ")}
    assert failed <= {"failed: cli malformed depth", "failed: cli malformed report"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "cli", 0)
    assert done.returncode != 0
    assert done.stdout == ""
