"""Tests of the benchmark itself: seeded job lists, oracles, tracer, metric names."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from teich2 import cli  # noqa: E402
from teich2.validation import DEFAULT_TOLERANCES  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def runner(tmp_path):
    return run.Runner(cli, dict(DEFAULT_TOLERANCES), tmp_path)


def _outputs(runner, job) -> list[str]:
    """Run a job that must pass its oracle, and return its output texts."""
    assert runner.run(job).problems == []
    return [(runner.outdir / name).read_text(encoding="utf-8") for name in job.outputs]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_list_is_deterministic_per_seed(workload):
    jobs = workloads.job_rounds(workload, 7, 3)
    assert jobs == workloads.job_rounds(workload, 7, 3)
    assert jobs != workloads.job_rounds(workload, 8, 3)
    # every round holds the same mix of job kinds
    kinds = [sorted(job.kind for job in r) for r in jobs]
    assert kinds == [kinds[0]] * 3


def test_round_count_follows_seconds():
    nominal = workloads.ROUND_SECONDS["tiling"]
    assert workloads.round_count("tiling", 10 * nominal) == 10
    assert workloads.round_count("tiling", 0.1) == 3


def test_tiling_oracle_rejects_a_dropped_path(runner):
    job = workloads.tiling_job(workloads.A_REG, 0.0)
    ball_csv, svg = _outputs(runner, job)
    lines = svg.splitlines(keepends=True)
    dropped = "".join(lines[:5] + lines[6:])
    assert oracles.check_tiling(job, [ball_csv, dropped])
    assert oracles.check_tiling(job, [ball_csv.rsplit("\n", 2)[0] + "\n", svg])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_area_oracle_rejects_a_perturbed_area(runner, fmt):
    job = workloads.area_job(30.0, fmt)
    (text,) = _outputs(runner, job)
    rows = oracles.area_table(text, fmt)
    p, area = rows[3]
    bumped = repr(area * (1.0 + 1e-8))
    corrupted = text.replace(repr(area), bumped, 1)
    assert corrupted != text
    problems = oracles.check_area(job, [corrupted], runner.reference)
    assert problems and "row 3" in problems[0]


def test_validate_oracle_rejects_a_missing_check(runner):
    job = workloads.validate_job(10, 10, 0.02, 0)
    (text,) = _outputs(runner, job)
    report = json.loads(text)
    report["checks"].pop()
    problems, _ = oracles.check_validate(job, [json.dumps(report)], 0)
    assert problems
    report = json.loads(text)
    report["points"] += 1
    problems, _ = oracles.check_validate(job, [json.dumps(report)], 0)
    assert problems


@pytest.mark.parametrize("kind,fmt,key", [
    ("octagon", "json", "residual"),
    ("group", "csv", "relation.defect"),
    ("fn", "json", "fd_relative_error"),
])
def test_query_oracle_rejects_a_residual_above_its_bar(runner, kind, fmt, key):
    job = workloads.query_job(kind, fmt, np.random.default_rng(3))
    (text,) = _outputs(runner, job)
    if fmt == "json":
        doc = json.loads(text)
        section = doc["perimeter"] if kind == "octagon" else doc["wp"]
        section[key] = 1.0
        corrupted = json.dumps(doc)
    else:
        corrupted = "".join(
            f"{key},1.0\n" if line.startswith(key + ",") else line
            for line in text.splitlines(keepends=True))
    assert corrupted != text
    assert oracles.check_query(job, [corrupted], DEFAULT_TOLERANCES)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_orbit_oracle_rejects_an_off_target_perimeter(runner, fmt):
    job = workloads.query_job("orbit", fmt, np.random.default_rng(4))
    (text,) = _outputs(runner, job)
    rows = text.splitlines()
    if fmt == "csv":
        phi, a, at, p = rows[2].split(",")
        rows[2] = ",".join([phi, a, at, repr(float(p) * (1.0 + 1e-7))])
        corrupted = "\n".join(rows) + "\n"
    else:
        doc = json.loads(text)
        doc["orbits"][0]["samples"][1]["p_check"] *= 1.0 + 1e-7
        corrupted = json.dumps(doc)
    assert oracles.check_query(job, [corrupted], DEFAULT_TOLERANCES)


def test_tracer_keeps_outputs_and_restores_the_program(runner):
    import teich2.octagon

    job = workloads.query_job("group", "json", np.random.default_rng(5))
    plain = runner.run(job)
    original = teich2.octagon.build_geometry
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.build_geometry is not original
        traced = runner.run_rounds([[job]], tracer)[0][0]
    finally:
        tracer.uninstall()
    assert cli.build_geometry is original and teich2.octagon.build_geometry is original
    assert traced.digest == plain.digest and traced.ok
    calls, self_s, counts = tracer.totals()
    assert calls["cli.run"] == 1 and calls["group.side_pairing_check"] == 1
    assert calls["octagon.in_octagon"] > workloads.GROUP_SAMPLES
    assert counts["hyperbolic.MobiusTransform"] > 0
    assert all(v >= 0.0 for v in self_s.values())


def test_tail_is_the_highest_percentile_with_ten_jobs_beyond():
    latencies = [float(k) for k in range(1, 41)]
    assert run.tail(latencies) == (30.0, 75.0)


def test_import_split_attributes_nested_imports():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:       400 |        400 |       scipy.integrate",
        "import time:        50 |        450 |     scipy",
        "import time:        20 |        20 |     teich2.errors",
        "import time:        30 |       800 |   teich2",
    ])
    split = run.import_split(text)
    assert split == pytest.approx({"numpy": 300e-6, "scipy": 450e-6, "teich2": 50e-6})


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
