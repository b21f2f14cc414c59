"""Output oracles: each returns a list of problems, empty when the output is right.

The oracles read only the files a job wrote and the job's own inputs.  They
hold every workload to a bar that does not come from the code under test:
exact ball sizes, a committed reference table of areas, the report schema,
and the validate tolerance bars applied to the residuals a query prints.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from workloads import AREA_GRID, BALL_SIZE, GROUP_SAMPLES, TILING_RADIUS, Job

SCHEMA = "teich2/v1"
VALIDATE_CHECKS = 17
AREA_REFERENCE = Path(__file__).with_name("area_reference.csv")
AREA_RELATIVE = 1e-10
AREA_REGULAR = 1e-10
ORBIT_RELATIVE = 1e-8


def load_area_reference(path: Path = AREA_REFERENCE) -> dict[int, tuple[float, float]]:
    """Map k to (P, area) for the rows P = P_REG + k * AREA_GRID."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {int(r["k"]): (float(r["P"]), float(r["area"])) for r in rows}


def flatten(value, prefix: str = "", out: dict | None = None) -> dict:
    """Flatten JSON to the ``a.b[0].c`` keys that the CLI's key,value CSV uses."""
    out = {} if out is None else out
    if isinstance(value, dict):
        for key, item in value.items():
            flatten(item, f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(value, list):
        for k, item in enumerate(value):
            flatten(item, f"{prefix}[{k}]", out)
    else:
        out[prefix] = value
    return out


def _key_value_csv(text: str) -> dict:
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != ["key", "value"]:
        raise ValueError("missing key,value header")
    return {key: value for key, value in reader}


def _payload(text: str, fmt: str) -> dict:
    if fmt == "json":
        doc = json.loads(text)
        if doc.get("schema") != SCHEMA:
            raise ValueError(f"schema is {doc.get('schema')!r}")
        return flatten(doc)
    return _key_value_csv(text)


def check_validate(job: Job, texts: list[str], rc: int) -> tuple[list[str], int]:
    """Problems with a validate report, and its count of failed checks."""
    report = json.loads(texts[0])
    problems = []
    if report.get("schema") != SCHEMA:
        problems.append(f"schema is {report.get('schema')!r}")
    checks = report.get("checks", [])
    if len(checks) != VALIDATE_CHECKS or len({c.get("name") for c in checks}) != VALIDATE_CHECKS:
        problems.append(f"{len(checks)} checks, expected {VALIDATE_CHECKS} distinct")
    spec = job.spec
    if report.get("points") != spec["n_a"] * spec["n_alpha"]:
        problems.append(f"points {report.get('points')} != {spec['n_a']}x{spec['n_alpha']}")
    failed = 0
    for c in checks:
        expect = bool(c["max_residual"] <= c["tolerance"])
        if c["passed"] is not expect:
            problems.append(f"check {c['name']} passed flag disagrees with its residual")
        failed += not c["passed"]
    if report.get("passed") is not (failed == 0):
        problems.append("report passed flag disagrees with its checks")
    if rc != (0 if failed == 0 else 4):
        problems.append(f"exit code {rc} with {failed} failed checks")
    return problems, failed


def area_table(text: str, fmt: str) -> list[tuple[float, float]]:
    if fmt == "json":
        doc = json.loads(text)
        if doc.get("schema") != SCHEMA:
            raise ValueError(f"schema is {doc.get('schema')!r}")
        return [(float(r["P"]), float(r["area"])) for r in doc["table"]]
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != ["P", "area"]:
        raise ValueError("missing P,area header")
    return [(float(p), float(area)) for p, area in reader]


def check_area(job: Job, texts: list[str], reference: dict) -> list[str]:
    spec = job.spec
    rows = area_table(texts[0], spec["format"])
    problems = []
    if len(rows) != spec["rows"]:
        problems.append(f"{len(rows)} rows, expected {spec['rows']}")
    stride = round(spec["step"] / AREA_GRID)
    for i, (p, area) in enumerate(rows):
        ref_p, ref_area = reference[i * stride]
        if p != ref_p:
            problems.append(f"row {i}: P = {p!r}, expected {ref_p!r}")
        elif i == 0:
            if abs(area) > AREA_REGULAR:
                problems.append(f"area(P_reg) = {area!r}")
        elif abs(area - ref_area) > AREA_RELATIVE * abs(ref_area):
            problems.append(f"row {i}: area({p!r}) = {area!r}, reference {ref_area!r}")
    return problems


def check_tiling(job: Job, texts: list[str]) -> list[str]:
    expected = BALL_SIZE[TILING_RADIUS]
    reader = csv.reader(io.StringIO(texts[0]))
    header = next(reader, None)
    words = [row[0] for row in reader]
    problems = []
    if header != ["word", "u_re", "u_im", "v_re", "v_im"]:
        problems.append(f"ball header {header!r}")
    if len(words) != expected or len(set(words)) != expected:
        problems.append(f"{len(words)} ball rows ({len(set(words))} distinct), expected {expected}")
    paths = texts[1].count("<path ")
    if paths != expected or not texts[1].rstrip().endswith("</svg>"):
        problems.append(f"{paths} svg paths, expected {expected}")
    return problems


def _query_fields(kind: str, flat: dict) -> dict[str, tuple[str, ...]]:
    """Tolerance name -> payload keys it bounds, for one query payload."""
    if kind == "octagon":
        return {"perimeter_routes": ("perimeter.residual",),
                "interior_angles": ("angles.area_residual",)}
    if kind == "group":
        return {"relation_defect": ("relation.defect",),
                "side_pairing": ("side_pairing.endpoint_residual",
                                 "side_pairing.midpoint_residual"),
                "side_pairing_interior": ("side_pairing.interior_violations",)}
    return {
        "fn_consistency": tuple(k for k in flat if ".dt_residuals[" in k),
        "lt_relations": tuple(k for k in flat if k.startswith("lt_relations.")),
        "wolpert_relative": ("wp.fd_relative_error",),
        "wolpert_k3": ("wp.fd_summands[2]",),
    }


def check_query(job: Job, texts: list[str], tolerances: dict[str, float]) -> list[str]:
    spec = job.spec
    if job.kind == "orbit":
        return _check_orbit(job, texts[0])
    flat = _payload(texts[0], spec["format"])
    problems = []
    for name, keys in _query_fields(job.kind, flat).items():
        if not keys:
            problems.append(f"no fields for {name}")
        for key in keys:
            if key not in flat:
                problems.append(f"missing {key}")
            elif not abs(float(flat[key])) <= tolerances[name]:
                problems.append(f"{key} = {flat[key]} above {name} bar {tolerances[name]}")
    if job.kind == "group":
        if int(float(flat.get("side_pairing.interior_samples", -1))) != GROUP_SAMPLES:
            problems.append("interior sample count differs from the request")
        traces = [abs(float(flat[f"generators[{k}].trace"])) for k in range(4)]
        if not min(traces) > 2.0:
            problems.append(f"generator traces {traces} not all hyperbolic")
    return problems


def _check_orbit(job: Job, text: str) -> list[str]:
    spec = job.spec
    if spec["format"] == "json":
        doc = json.loads(text)
        if doc.get("schema") != SCHEMA:
            return [f"schema is {doc.get('schema')!r}"]
        if [o["p_target"] for o in doc["orbits"]] != spec["targets"]:
            return ["orbit targets differ from the request"]
        rows = [(o["p_target"], s["p_check"]) for o in doc["orbits"] for s in o["samples"]]
    else:
        reader = csv.reader(io.StringIO(text))
        if next(reader, None) != ["phi", "a", "alpha_tilde", "P_check"]:
            return ["missing orbit header"]
        checks = [float(row[3]) for row in reader]
        n = spec["samples"]
        targets = [p for p in spec["targets"] for _ in range(n)]
        rows = list(zip(targets, checks)) if len(checks) == len(targets) else []
    problems = []
    if len(rows) != spec["samples"] * len(spec["targets"]):
        problems.append(f"{len(rows)} orbit rows, expected {spec['samples']}x{len(spec['targets'])}")
    for target, p_check in rows:
        if not abs(p_check - target) <= ORBIT_RELATIVE * target:
            problems.append(f"P_check {p_check!r} off target {target!r}")
            break
    return problems
