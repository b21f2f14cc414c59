"""Seeded job lists for the four benchmark workloads.

A job is one unit of closed-loop work: one or more ``teich2.cli.run`` calls
whose outputs the oracle checks together.  Jobs come in rounds; each round
draws one job from every stratum of the workload's input range, in a seeded
order, so that every run sees the same mix of job sizes and its median and
tail latencies stay comparable from seed to seed.  Inputs depend only on the
seed and the round count, never on the program under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("validate-grid", "area-table", "tiling", "point-queries")

# typical seconds per round of the baseline on a shared 2-core x86-64 VM; a
# run executes round(--seconds / nominal) whole rounds, and at least three so
# that its median and tail rest on several jobs of every stratum; the job
# count of a run is thus fixed by its arguments
ROUND_SECONDS = {
    "validate-grid": 9.9,
    "area-table": 1.2,
    "tiling": 1.08,
    "point-queries": 0.047,
}

# the benchmark's own copies of closed forms, so inputs do not depend on the
# program: the regular perimeter and a, and the lower admissible a
P_REG = 8.0 * math.acosh(5.0 + 4.0 * math.sqrt(2.0))
A_REG = 2.0 ** -0.25
# area tables step in multiples of this, so every row lies on the
# reference grid P_REG + k * AREA_GRID of area_reference.csv
AREA_GRID = 0.125
AREA_P_MAX = 161.0
AREA_ROWS = 20
TILING_RADIUS = 4
# exact sphere-size sums of the genus-2 surface group (Cannon 1984)
BALL_SIZE = {0: 1, 1: 9, 2: 65, 3: 457, 4: 3193}
GROUP_SAMPLES = 500
QUERY_MARGIN = 0.05


def lower_a(alpha_tilde: float) -> float:
    return 1.0 / (math.sqrt(2.0) * math.cos(alpha_tilde))


@dataclass(frozen=True)
class Job:
    """CLI calls of one job; ``{out}`` in an argument names the output dir."""

    kind: str
    calls: tuple[tuple[str, ...], ...]
    outputs: tuple[str, ...]
    items: int
    spec: dict = field(default_factory=dict, compare=True, hash=False)

    def argv(self, outdir: str) -> list[list[str]]:
        return [[arg.replace("{out}", outdir) for arg in call] for call in self.calls]


def validate_job(n_a: int, n_alpha: int, margin: float, seed: int) -> Job:
    call = ("validate", "--grid", str(n_a), str(n_alpha), f"--margin={margin!r}",
            f"--seed={seed}", "-o", "{out}/report.json")
    return Job("validate", (call,), ("report.json",), n_a * n_alpha,
               {"n_a": n_a, "n_alpha": n_alpha, "margin": margin})


# an odd number of strata of distinct cost puts the median job of a run
# inside the middle stratum rather than on the seam between two
def _validate_round(rng: np.random.Generator) -> list[Job]:
    jobs = []
    for base in (10, 15, 20, 25, 30, 35, 40):
        n_a = base + int(rng.integers(0, 3))
        n_alpha = base + int(rng.integers(0, 3))
        margin = float(10.0 ** rng.uniform(math.log10(0.005), math.log10(0.05)))
        jobs.append(validate_job(n_a, n_alpha, margin, int(rng.integers(0, 2**16))))
    order = rng.permutation(len(jobs))
    return [jobs[k] for k in order]


def area_rows(p_max: float, step: float) -> int:
    """Row count of ``area --p-min P_REG --p-max p_max --step step``."""
    return math.ceil((p_max + 0.5 * step - P_REG) / step)


def area_job(p_max: float, fmt: str) -> Job:
    # about AREA_ROWS rows per table whatever its range
    step = AREA_GRID * math.ceil((p_max - P_REG) / (AREA_ROWS - 1) / AREA_GRID)
    call = ("area", f"--p-min={P_REG!r}", f"--p-max={p_max!r}", f"--step={step!r}",
            "--format", fmt, "-o", "{out}/area." + fmt)
    rows = area_rows(p_max, step)
    return Job("area", (call,), ("area." + fmt,), rows,
               {"p_max": p_max, "step": step, "format": fmt, "rows": rows})


def _area_round(rng: np.random.Generator) -> list[Job]:
    jobs = [area_job(float(rng.uniform(lo, lo + 24.0)), str(rng.choice(["csv", "json"])))
            for lo in (41.0, 65.0, 89.0, 113.0, 137.0)]
    order = rng.permutation(len(jobs))
    return [jobs[k] for k in order]


def tiling_job(a: float, alpha_tilde: float) -> Job:
    """A radius-4 tiling written as a CSV ball dump and as SVG."""
    point = (f"--a={a!r}", f"--alpha-tilde={alpha_tilde!r}", "-n", str(TILING_RADIUS))
    calls = (
        ("tiling", *point, "--format", "csv", "-o", "{out}/ball.csv"),
        ("tiling", *point, "--format", "svg", "-o", "{out}/tiling.svg"),
    )
    return Job("tiling", calls, ("ball.csv", "tiling.svg"), 2 * BALL_SIZE[TILING_RADIUS],
               {"a": a, "alpha_tilde": alpha_tilde})


def _tiling_round(rng: np.random.Generator) -> list[Job]:
    # one point per quadrant of a box around the regular octagon
    jobs = [tiling_job(A_REG + sa * float(rng.uniform(0.0, 0.02)),
                       st * float(rng.uniform(0.0, 0.08)))
            for sa in (-1.0, 1.0) for st in (-1.0, 1.0)]
    order = rng.permutation(len(jobs))
    return [jobs[k] for k in order]


def _query_point(rng: np.random.Generator) -> tuple[float, float]:
    # interior of the domain at distance QUERY_MARGIN from every boundary
    m = QUERY_MARGIN
    at_max = math.acos(1.0 / (math.sqrt(2.0) * (1.0 - 2.0 * m)))
    at = float(rng.uniform(-at_max, at_max))
    lo = lower_a(at) + m
    a = lo + float(rng.uniform(0.01, 0.99)) * (1.0 - m - lo)
    return a, at


def query_job(kind: str, fmt: str, rng: np.random.Generator) -> Job:
    """One octagon, group, fn or orbit query with seeded inputs."""
    out = f"{{out}}/{kind}.{fmt}"
    if kind == "orbit":
        targets = sorted(float(p) for p in rng.uniform(P_REG + 0.5, 60.0, int(rng.integers(1, 3))))
        samples = int(rng.integers(64, 257))
        call = ["orbit", "--samples", str(samples)] + [f"--P={p!r}" for p in targets]
        spec = {"targets": targets, "samples": samples, "format": fmt}
    else:
        a, at = _query_point(rng)
        call = [kind, f"--a={a!r}", f"--alpha-tilde={at!r}"]
        if kind == "group":
            call += ["--samples", str(GROUP_SAMPLES), f"--seed={int(rng.integers(0, 2**16))}"]
        spec = {"a": a, "alpha_tilde": at, "format": fmt}
    call += ["--format", fmt, "-o", out]
    return Job(kind, (tuple(call),), (out.split("/", 1)[1],), 1, spec)


def _queries_round(rng: np.random.Generator) -> list[Job]:
    # octagon twice (json and csv): with five queries a round the median
    # falls inside one query kind rather than on the seam between two
    jobs = [query_job(kind, str(rng.choice(formats)), rng)
            for kind, formats in (("octagon", ("json",)), ("octagon", ("csv",)),
                                  ("group", ("json", "csv")), ("fn", ("json", "csv")),
                                  ("orbit", ("csv", "json")))]
    order = rng.permutation(len(jobs))
    return [jobs[k] for k in order]


_ROUNDS = {
    "validate-grid": _validate_round,
    "area-table": _area_round,
    "tiling": _tiling_round,
    "point-queries": _queries_round,
}


def round_count(workload: str, seconds: float) -> int:
    return max(3, round(seconds / ROUND_SECONDS[workload]))


def job_rounds(workload: str, seed: int, rounds: int) -> list[list[Job]]:
    """The seeded job list of a run, as ``rounds`` rounds of jobs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    make = _ROUNDS[workload]
    return [make(rng) for _ in range(rounds)]


def domain_probe_points(seed: int) -> list[tuple[float, float]]:
    """Jittered points of an 8 x 6 grid over the whole parameter domain (margin 0)."""
    rng = np.random.default_rng([seed, 99])
    at_max = math.pi / 4.0
    points = []
    for i in range(8):
        for j in range(6):
            at = -at_max + (i + float(rng.uniform(0.02, 0.98))) * at_max / 4.0
            lo = lower_a(at)
            a = lo + (j + float(rng.uniform(0.02, 0.98))) / 6.0 * (1.0 - lo)
            points.append((a, at))
    return points
