"""Shared fixtures, the domain strategy, the fresh-interpreter helper and the
acceptance-criteria summary hook."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

import teich2
from teich2.octagon import OctagonParams, grid_arrays, lower_a

_CRITERIA: dict[int, tuple[str, bool, str]] = {}
_TOTAL = 12


def record(num: int, description: str, ok: bool, detail: str = "") -> None:
    """Register one acceptance-criterion outcome for the terminal summary."""
    _CRITERIA[num] = (description, ok, detail)


def run_fresh(args):
    """Run python with args in a fresh interpreter that imports this checkout's teich2."""
    src = str(Path(teich2.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120,
    )


@st.composite
def domain_points(draw, margin=1e-3):
    """Points of the whole domain at least ``margin`` from its boundary."""
    at_max = math.acos(1.0 / (math.sqrt(2.0) * (1.0 - 2.0 * margin)))
    at = draw(st.floats(-at_max, at_max))
    lo = lower_a(at) + margin
    return OctagonParams(lo + draw(st.floats(0.0, 1.0)) * (1.0 - margin - lo), at)


@pytest.fixture(scope="session")
def acceptance_grid():
    """20 x 20 in-domain parameter grid with margin 0.02, as arrays (a, alpha_tilde)."""
    return grid_arrays(20, 20, margin=0.02)


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for num in range(1, _TOTAL + 1):
        if num in _CRITERIA:
            description, ok, detail = _CRITERIA[num]
            status = "PASS" if ok else "FAIL"
            line = f"{status}  {num:2d}. {description}"
            if detail:
                line += f"  [{detail}]"
        else:
            line = f"----  {num:2d}. not run"
        terminalreporter.write_line(line)
