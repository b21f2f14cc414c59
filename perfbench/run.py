"""teich2 benchmark: closed-loop CLI workloads with output oracles.

Run from the root of a checkout:

    python3 perfbench/run.py --workload validate-grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

One caller runs the workload's seeded jobs back to back through
``teich2.cli.run(argv)`` in this process, with outputs in a temporary
directory under ``.perfbench/``; every output is checked by an oracle.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` reruns a prefix
of the jobs with spans and counters installed and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNTED, MOBIUS, Tracer  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("job_p50_s", "s", "lower"),
    ("job_tail_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

# what one item is, per workload, for items_per_s
ITEMS = {
    "validate-grid": "validated grid points (points_per_s)",
    "area-table": "area-table rows (areas_per_s)",
    "tiling": "ball elements emitted (cells_per_s)",
    "point-queries": "queries completed (queries_per_s)",
}

PER_LAYER = [
    ("hyperbolic.MobiusTransform.calls", "count/job", "lower"),
    ("hyperbolic.projective_gap.calls", "count/job", "lower"),
    ("hyperbolic.dist.calls", "count/job", "lower"),
    ("octagon.build_geometry.calls", "count/job", "lower"),
    ("octagon.build_geometry.self_s", "s/job", "lower"),
    ("octagon.perimeter.calls", "count/job", "lower"),
    ("octagon.perimeter.self_s", "s/job", "lower"),
    ("octagon.in_octagon.calls", "count/job", "lower"),
    ("octagon.in_octagon.self_s", "s/job", "lower"),
    ("group.generators.self_s", "s/job", "lower"),
    ("group.relation_defect.self_s", "s/job", "lower"),
    ("group.side_pairing_check.self_s", "s/job", "lower"),
    ("group.ball.calls", "count/job", "lower"),
    ("group.ball.self_s", "s/job", "lower"),
    ("group.ball.elements", "count/job", "higher"),
    ("group.ball.domain_probes", "count", "higher"),
    ("group.ball.domain_failed", "count", "lower"),
    ("group.cells.self_s", "s/job", "lower"),
    ("fenchel_nielsen.trace_params.calls", "count/job", "lower"),
    ("fenchel_nielsen.trace_params.self_s", "s/job", "lower"),
    ("fenchel_nielsen.pants_data.calls", "count/job", "lower"),
    ("fenchel_nielsen.pants_data.self_s", "s/job", "lower"),
    ("fenchel_nielsen.wp_fd_check.calls", "count/job", "lower"),
    ("fenchel_nielsen.wp_fd_check.self_s", "s/job", "lower"),
    ("fenchel_nielsen.lt_relations_check.calls", "count/job", "lower"),
    ("fenchel_nielsen.lt_relations_check.self_s", "s/job", "lower"),
    ("isoperimetric.wp_area.calls", "count/job", "lower"),
    ("isoperimetric.wp_area.self_s", "s/job", "lower"),
    ("isoperimetric.wp_area.neval", "count/job", "lower"),
    ("isoperimetric.wp_area_grid.calls", "count/job", "lower"),
    ("isoperimetric.wp_area_grid.self_s", "s/job", "lower"),
    ("isoperimetric.orbit_samples.self_s", "s/job", "lower"),
    ("isoperimetric.parabola_fit.self_s", "s/job", "lower"),
    ("isoperimetric.orbit_point.calls", "count/job", "lower"),
    ("validation.run_validation.self_s", "s/job", "lower"),
    ("validation.checks_failed", "count/job", "lower"),
    ("serialization.svg_text.self_s", "s/job", "lower"),
    ("serialization.svg_text.bytes", "B/job", "lower"),
    ("serialization.csv_text.self_s", "s/job", "lower"),
    ("serialization.csv_text.bytes", "B/job", "lower"),
    ("serialization.json_text.self_s", "s/job", "lower"),
    ("serialization.json_text.bytes", "B/job", "lower"),
    ("cli.run.self_s", "s/job", "lower"),
    ("setup.import.numpy_s", "s", "lower"),
    ("setup.import.scipy_s", "s", "lower"),
    ("setup.import.teich2_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]

SETUP_REPEATS = 3
SETUP_KERNELS = 3  # kernel samples before each import and after the last
IMPORT_SNIPPET = ("import time; t = time.process_time(); import teich2; "
                  "print(time.process_time() - t)")
# after this long a phase of a run starts no new round, so that a much
# slower program still ends within the 180 s a run is allowed
RUN_CAP_SECONDS = 60.0

# The CPU speed of a shared virtual machine drifts by tens of percent over
# seconds to minutes, for this program and any other alike.  A run times a
# short fixed reference kernel between jobs and scales each job's time to a
# host on which the kernel takes KERNEL_SECONDS, using the median of the
# samples taken just before and just after the job, so that runs made at
# different moments compare.  The host's speed changes within a second, so
# the samples must sit close to the job they scale: on a 2-core x86-64 VM,
# scaling by the two neighbours on each side cut the spread of single job
# times about threefold, and scaling by samples a second away far less.
# Job and kernel are timed in CPU time of the process.  For single-threaded
# work that equals wall time on an idle host, but it leaves out the spells
# in which the host ran another tenant on this CPU; those spells made most
# of the slowest 1% of wall times, where the tail of point-queries lies.
# validate runs its grid on a thread pool, but its threads hold the GIL
# nearly all the time: its CPU time was 0.85-0.97 of its wall time, so CPU
# time stands for its latency too.  The kernel mixes what teich2 spends its
# time on: complex arithmetic, float formatting and small numpy calls.
KERNEL_ITERATIONS = 1000
KERNEL_SECONDS = 0.0019
KERNEL_EVERY = 0.02  # busy seconds between two kernel samples
KERNEL_WINDOW = 2  # samples on each side of a job that scale its time


def reference_kernel() -> float:
    """Fixed work whose duration tracks the host's current speed."""
    x = np.linspace(0.1, 0.9, 64)
    z = 1.0 + 0.0j
    text = {}
    total = 0.0
    for i in range(KERNEL_ITERATIONS):
        z = z * (0.9 + 0.1j) + 0.01 if abs(z) < 10.0 else 1.0 + 0.0j
        total += (i * 0.5) % 3.0
        text[i & 63] = f"{z.real:.17g}"
        if i % 8 == 0:
            total += float(np.sum(np.sqrt(1.0 - x * x) * np.arctanh(0.5 * x)))
    return total


def kernel_seconds() -> float:
    t0 = time.process_time()
    reference_kernel()
    return time.process_time() - t0


def slowdown(samples: list[float]) -> float:
    """How much slower than the reference host the kernel ran."""
    return statistics.median(samples) / KERNEL_SECONDS


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> None:
    """Import teich2 from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "teich2" / "__init__.py").is_file():
        fail(f"no teich2 sources under {src}")
    sys.path.insert(0, str(src))
    import teich2
    import teich2.cli

    if Path(teich2.__file__).resolve().parent != src / "teich2":
        fail(f"imported teich2 from {teich2.__file__}, not from {src}")


def environment(threads_was_set: bool) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "os_cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "TEICH2_THREADS": "unset",
        "TEICH2_THREADS_removed_from_caller": threads_was_set,
        "loop": "closed, one caller",
    }


def import_split(importtime: str) -> dict[str, float]:
    """numpy, scipy and teich2's own share of ``-X importtime`` output, in s."""
    rows = []
    for line in importtime.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1]) * 1e-6))
    totals = {"numpy": 0.0, "scipy": 0.0, "teich2": 0.0}
    stack: list[tuple[int, str]] = []
    # lines are printed children first; walking them backwards puts each
    # parent on the stack before its children
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and all(a.split(".")[0] not in ("numpy", "scipy") for _, a in stack):
            if top != "teich2" or not stack:
                totals[top] += cumulative
        stack.append((depth, name))
    totals["teich2"] -= totals["numpy"] + totals["scipy"]
    return totals


def measure_setup(trace: bool) -> tuple[float, dict[str, float]]:
    """Median cold ``import teich2`` time over fresh interpreters, and its split.

    Each import is timed in CPU time of the child and scaled to the reference
    host by the kernel samples taken just before and just after it.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("TEICH2_THREADS", None)
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + ["-c", IMPORT_SNIPPET]
    times, splits = [], []
    before = [kernel_seconds() for _ in range(SETUP_KERNELS)]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        after = [kernel_seconds() for _ in range(SETUP_KERNELS)]
        times.append(float(proc.stdout.split()[-1]) / slowdown(before + after))
        before = after
        if trace:
            splits.append(import_split(proc.stderr))
    split = {k: statistics.median(s[k] for s in splits) for k in splits[0]} if trace else {}
    return statistics.median(times), split


@dataclass
class Record:
    job: Job
    seconds: float  # wall time
    cpu: float  # CPU time of the process
    problems: list[str]
    wrong: bool = False  # an oracle rejected the output, as opposed to no output
    checks_failed: int = 0
    digest: str = ""
    scaled: float = 0.0  # seconds on the reference host

    @property
    def ok(self) -> bool:
        return not self.problems


class Runner:
    """Runs jobs through ``teich2.cli.run`` and checks their outputs."""

    def __init__(self, cli, tolerances: dict[str, float], outdir: Path):
        self.cli = cli
        self.tolerances = tolerances
        self.outdir = outdir
        self.reference = oracles.load_area_reference()

    def run(self, job: Job) -> Record:
        paths = [self.outdir / name for name in job.outputs]
        for path in paths:
            path.unlink(missing_ok=True)
        sink = io.StringIO()
        error = None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rcs = [self.cli.run(argv) for argv in job.argv(str(self.outdir))]
        except (Exception, SystemExit):
            error = traceback.format_exc().strip().splitlines()[-1]
        seconds, cpu = time.perf_counter() - t0, time.process_time() - c0
        if error is not None:
            return Record(job, seconds, cpu, [f"raised: {error}"])
        if job.kind != "validate" and any(rcs):
            return Record(job, seconds, cpu,
                          [f"exit codes {rcs}: {sink.getvalue().strip()[-300:]}"])
        if not all(p.is_file() for p in paths):
            return Record(job, seconds, cpu, [f"missing output, exit codes {rcs}"])
        blobs = [p.read_bytes() for p in paths]
        checks_failed = 0
        try:
            texts = [b.decode("utf-8") for b in blobs]
            problems = self._oracle(job, texts, rcs[0])
            if job.kind == "validate":
                problems, checks_failed = problems
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        digest = hashlib.sha256(b"\0".join(blobs)).hexdigest()
        return Record(job, seconds, cpu, problems, bool(problems), checks_failed, digest)

    def _oracle(self, job: Job, texts: list[str], rc: int):
        if job.kind == "validate":
            return oracles.check_validate(job, texts, rc)
        if job.kind == "area":
            return oracles.check_area(job, texts, self.reference)
        if job.kind == "tiling":
            return oracles.check_tiling(job, texts)
        return oracles.check_query(job, texts, self.tolerances)

    def run_rounds(self, rounds: list[list[Job]], tracer=None) -> tuple[list[Record], float]:
        """Records of the jobs, and the median host slowdown while they ran."""
        records = []
        kernel = [kernel_seconds()]
        after = []  # index of the first kernel sample after each job
        since_kernel = 0.0
        t_start = time.perf_counter()
        for jobs in rounds:
            if time.perf_counter() - t_start > RUN_CAP_SECONDS:
                break
            for job in jobs:
                if tracer is not None:
                    tracer.job = len(records)
                records.append(self.run(job))
                after.append(len(kernel))
                since_kernel += records[-1].seconds
                if since_kernel >= KERNEL_EVERY:
                    kernel.append(kernel_seconds())
                    since_kernel = 0.0
        kernel.append(kernel_seconds())
        for record, k in zip(records, after):
            near = kernel[max(0, k - KERNEL_WINDOW):k + KERNEL_WINDOW]
            record.scaled = record.cpu / slowdown(near)
        return records, slowdown(kernel)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least 10 jobs beyond it."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - 11, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def latency_metrics(records: list[Record], seconds) -> tuple[float, float, float, float]:
    """(p50, tail, tail percentile, items per second) of successful jobs."""
    good = [r for r in records if r.ok]
    latencies = [seconds(r) for r in good]
    tail_s, tail_pct = tail(latencies)
    rate = sum(r.job.items for r in good) / sum(seconds(r) for r in records)
    return statistics.median(latencies), tail_s, tail_pct, rate


def end_to_end(workload: str, records: list[Record], slow: float,
               setup_s: float) -> tuple[dict, list[str]]:
    good = [r for r in records if r.ok]
    if not good:
        fail("no job succeeded, so no latency can be reported")
    p50, tail_s, tail_pct, rate = latency_metrics(records, lambda r: r.scaled)
    raw_p50, raw_tail, _, raw_rate = latency_metrics(records, lambda r: r.seconds)
    cpu_p50, cpu_tail, _, cpu_rate = latency_metrics(records, lambda r: r.cpu)
    values = {
        "setup_s": setup_s,
        "job_p50_s": p50,
        "job_tail_s": tail_s,
        "items_per_s": rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"job times are CPU times scaled to the reference host (median slowdown "
        f"{slow:.4f}); unscaled CPU times give job_p50_s {cpu_p50:.6g}, "
        f"job_tail_s {cpu_tail:.6g}, items_per_s {cpu_rate:.6g}; wall times give "
        f"{raw_p50:.6g}, {raw_tail:.6g}, {raw_rate:.6g}",
        f"setup_s: cold `import teich2` in a fresh interpreter, CPU time scaled to the "
        f"reference host, median of {SETUP_REPEATS}",
        f"job_tail_s: p{tail_pct:.1f} of {len(good)} successful jobs",
        f"items_per_s: {ITEMS[workload]} per busy second "
        f"({sum(r.seconds for r in records):.3f} s busy)",
        f"error_rate: {len(records) - len(good)}/{len(records)} jobs failed",
    ]
    if workload == "validate-grid":
        notes.append(f"checks_failed: {sum(r.checks_failed for r in records)} "
                     f"failed checks over {len(records)} validate reports")
    return values, notes


def domain_probe(seed: int) -> tuple[int, int]:
    """Radius-4 balls at stratified points of the whole domain: (points, failures)."""
    from teich2.group import ball, generators
    from teich2.octagon import OctagonParams

    points = workloads.domain_probe_points(seed)
    failed = 0
    for a, at in points:
        try:
            size = len(ball(generators(OctagonParams(a, at)), workloads.TILING_RADIUS))
        except ValueError:
            size = -1
        failed += size != workloads.BALL_SIZE[workloads.TILING_RADIUS]
    return len(points), failed


def per_layer(totals, jobs: int, extras: dict) -> dict:
    calls, self_s, counts = totals
    values = {}
    for name, _, _ in PER_LAYER:
        if name in extras:
            values[name] = extras[name]
            continue
        fn, field = name.rsplit(".", 1)
        if field == "calls":
            total = counts[fn] if fn in COUNTED or fn == MOBIUS else calls[fn]
        elif field == "self_s":
            total = self_s[fn]
        else:
            total = counts[name]
        values[name] = total / jobs
    return values


def layer_shares(self_s) -> str:
    by_layer: dict[str, float] = {}
    for name, spent in self_s.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + spent
    total = sum(by_layer.values()) or 1.0
    ranked = sorted(by_layer.items(), key=lambda kv: -kv[1])
    return ", ".join(f"{layer} {100.0 * s / total:.1f}%" for layer, s in ranked)


def traced_run(args, runner: Runner, rounds, untraced: list[Record]) -> tuple[dict, list[str], list[str]]:
    # replay whole rounds covering at least half the untraced busy time
    per_round = len(rounds[0])
    busy = [sum(r.seconds for r in untraced[k:k + per_round])
            for k in range(0, len(untraced), per_round)]
    replay, acc = 0, 0.0
    while replay < len(busy) and acc < 0.5 * sum(busy):
        acc += busy[replay]
        replay += 1
    baseline = untraced[:replay * per_round]
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = runner.run_rounds(rounds[:replay], tracer)
    finally:
        tracer.uninstall()
    problems = [f"job {k}: output bytes differ with tracing on"
                for k, (a, b) in enumerate(zip(baseline, traced)) if a.digest != b.digest]
    problems += [f"traced job {k}: {r.problems[0]}" for k, r in enumerate(traced) if not r.ok]
    overhead = sum(r.scaled for r in traced) / sum(r.scaled for r in baseline)
    validate = [r for r in untraced if r.job.kind == "validate"]
    extras = {
        "validation.checks_failed": (sum(r.checks_failed for r in validate) / len(validate)
                                     if validate else 0.0),
        "trace.overhead": overhead,
        "group.ball.domain_probes": 0,
        "group.ball.domain_failed": 0,
    }
    if args.workload == "tiling":
        probes, failed = domain_probe(args.seed)
        extras["group.ball.domain_probes"] = probes
        extras["group.ball.domain_failed"] = failed
    spans = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write(spans)
    totals = tracer.totals()
    notes = [
        f"traced {len(traced)} jobs ({replay} rounds), {tracer.span_count()} spans "
        f"written to {spans.relative_to(ROOT)}",
        f"self-time share by layer: {layer_shares(totals[1])}",
        "self_s is thread CPU time per job; counts are per job",
    ]
    return per_layer(totals, len(traced), extras), notes, problems


def run_workload(args) -> int:
    threads_was_set = os.environ.pop("TEICH2_THREADS", None) is not None
    import_program()
    from teich2 import cli
    from teich2.validation import DEFAULT_TOLERANCES

    setup_s, split = measure_setup(bool(args.trace))
    rounds = workloads.job_rounds(args.workload, args.seed,
                                  workloads.round_count(args.workload, args.seconds))
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench"))
    try:
        runner = Runner(cli, dict(DEFAULT_TOLERANCES), outdir)
        runner.run(rounds[0][0])  # warm-up: lazy imports and first-call set-up
        # a CLI process starts with only its imports on the heap; keep the
        # collector from rescanning them between jobs, as it would not there
        gc.collect()
        gc.freeze()
        records, slow = runner.run_rounds(rounds)
        problems = [p for r in records for p in r.problems[:1]]
        correct = not any(r.wrong for r in records)
        if args.trace:
            extras = {f"setup.import.{k}_s": v for k, v in split.items()}
            metrics, notes, trace_problems = traced_run(args, runner, rounds, records)
            metrics.update(extras)
            specs = PER_LAYER
            problems += trace_problems
            correct = correct and not trace_problems
        else:
            metrics, notes = end_to_end(args.workload, records, slow, setup_s)
            specs = END_TO_END
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {len(records)}  failed {sum(not r.ok for r in records)}")
    print("environment " + json.dumps(environment(threads_was_set), sort_keys=True))
    for name, unit, _ in specs:
        print(f"  {name:44s} {metrics[name]:14.6g} {unit}")
    for note in notes:
        print(f"  # {note}")
    for problem in problems[:20]:
        print(f"  ! {problem}")
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in specs},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; metrics keyed ``workload.metric``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail(f"workload {workload} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
