"""Mutation gate: each mutant of ``src/teich2`` must fail the tests named for it.

Usage, from anywhere:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants

A mutant is one text edit of one file of ``src/teich2``: its old text must
occur exactly once in the file.  The runner first requires every named test
to pass on the unmutated tree.  Then, for each mutant, it copies ``src/`` to
a temporary directory, applies the edit there, and runs the mutant's tests
against the copy with ``pytest -x``, two mutants at a time; the mutant is
killed when a test fails.  No file of the repository is changed.  Exit status 1 on a survivor, on an
old text not found exactly once, or when the tests fail unmutated.

To add a mutant, append a ``Mutant`` row to MUTANTS: a name, the file under
``src/teich2``, the old text, the new text, and the pytest node ids, relative
to the repository root, that must fail under it.  Hypothesis runs with a
fixed seed, so every run draws the same examples.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "teich2"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


CERTIFICATES = "tests/test_certificates.py"
REFUSALS = ("tests/test_refusals.py::"
            "test_array_refusal_is_the_float_refusal_of_its_first_failing_element")

MUTANTS = [
    # the proven generators, relation word and side data (the certificates'
    # facts, as the program computes them)
    Mutant(
        "g1 with a flipped t in u", "group.py",
        "g1 = norm * a * (1.0 + tn)", "g1 = norm * a * (1.0 - tn)",
        (f"{CERTIFICATES}::test_generator_pairs_are_the_proven_forms",),
    ),
    Mutant(
        "g2 = (u0, -i v0)", "group.py",
        "return g0, g1, su_mul(su_mul(r, g0), ri),",
        "return g0, g1, (g0[0], -1j * g0[1]),",
        ("tests/test_group.py::TestRelation::test_defect",),
    ),
    Mutant(
        "g1 = (u1, i v1)", "group.py",
        "norm * ((1.0 - a2) + 1j * (a2 + tn))", "1j * norm * ((1.0 - a2) + 1j * (a2 + tn))",
        (f"{CERTIFICATES}::test_generator_pairs_are_the_proven_forms",),
    ),
    Mutant(
        "g1 and g3 swapped in the relation word", "group.py",
        "(su_inverse(g1), g2, su_inverse(g3), su_inverse(g0), g1, su_inverse(g2), g3)",
        "(su_inverse(g3), g2, su_inverse(g1), su_inverse(g0), g3, su_inverse(g2), g1)",
        ("tests/test_group.py::TestRelation::test_defect",),
    ),
    Mutant(
        "t+ for t- in c1", "octagon.py",
        "c_minus = (t_minus + 1j * (1.0 + a2))", "c_minus = (t_plus + 1j * (1.0 + a2))",
        (f"{CERTIFICATES}::test_side_circles_are_the_proven_forms",),
    ),
    Mutant(
        "pairing targets swapped", "group.py",
        "for src, target in ((k + 4, k + 1), (k + 5, k)):",
        "for src, target in ((k + 4, k), (k + 5, k + 1)):",
        ("tests/test_group.py::TestSidePairing::test_residuals_and_containment",),
    ),
    Mutant(
        "generators' scale n with its sign flipped", "group.py",
        "norm = -ew.cos(alpha_tilde) /", "norm = ew.cos(alpha_tilde) /",
        (f"{CERTIFICATES}::test_generator_pairs_are_the_proven_forms",),
    ),
    # the one refusal route
    Mutant(
        "first_true finds the last true element", "_elementwise.py",
        "k = int(np.argmax(np.broadcast_to(mask, shape)))",
        "k = int(np.prod(shape) - 1 - np.argmax(np.broadcast_to(mask, shape).ravel()[::-1]))",
        (f"{REFUSALS}[require_positive]",),
    ),
    Mutant(
        "E below E_reg refused as a NumericalError", "isoperimetric.py",
        'raise DomainError(f"E = {e_k!r} lies below',
        'raise NumericalError(f"E = {e_k!r} lies below',
        ("tests/test_isoperimetric.py::TestOrbit::test_e_refusals_name_the_first_e",
         f"{REFUSALS}[discriminant]"),
    ),
    # the second area route
    Mutant(
        "FN area without the sin(theta) Jacobian", "isoperimetric.py",
        "return np.arccosh(np.maximum(cosh_tau, 1.0)) * np.sin(theta)",
        "return np.arccosh(np.maximum(cosh_tau, 1.0))",
        ("tests/test_isoperimetric.py::TestWPArea::test_contour_matches_mpmath_where_quad_drifts",),
    ),
    Mutant(
        "FN doubling evaluates the even-indexed angles", "isoperimetric.py",
        "tau_sin(np.pi * np.arange(1, n, 2) / n), old",
        "tau_sin(np.pi * np.arange(0, n - 1, 2) / n), old",
        ("tests/test_isoperimetric.py::TestWPArea::test_contour_evaluates_new_nodes_only",),
    ),
    Mutant(
        "upper_a tested before lower_a", "octagon.py",
        '    if not above_k:\n'
        '        return OutOfDomainError("lower_a", lo_k, a_k, k)\n'
        '    return OutOfDomainError("upper_a", 1.0, a_k, k)\n',
        '    if not a_k < 1.0:\n'
        '        return OutOfDomainError("upper_a", 1.0, a_k, k)\n'
        '    return OutOfDomainError("lower_a", lo_k, a_k, k)\n',
        ("tests/test_octagon.py::TestParams::test_first_violated_inequality_in_documented_order",),
    ),
]


def _pytest(src: Path, tests, storage: Path) -> subprocess.CompletedProcess:
    """pytest run with -x on ``tests`` against the package in ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src), "HYPOTHESIS_STORAGE_DIRECTORY": str(storage)}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", *tests]
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)


def _killed(m: Mutant, tmp: Path) -> bool:
    """Whether a test of ``m`` fails against a copy of src/ with m applied."""
    copy = Path(tempfile.mkdtemp(dir=tmp))
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = copy / "src" / "teich2" / m.file
    path.write_text(path.read_text().replace(m.old, m.new))
    # 1: a test failed; 2: the mutated package failed to import
    return _pytest(copy / "src", m.tests, copy / "hypothesis").returncode in (1, 2)


def main(names) -> int:
    mutants = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no mutant named {sorted(unknown)}")
        return 1
    bad = [m.name for m in mutants if (PACKAGE / m.file).read_text().count(m.old) != 1]
    if bad:
        print(f"old text not found exactly once: {bad}")
        return 1
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        tests = sorted({t for m in mutants for t in m.tests})
        run = _pytest(ROOT / "src", tests, tmp / "hypothesis")
        if run.returncode != 0:
            print(f"the mutants' tests do not pass on the unmutated tree:\n{run.stdout}")
            return 1
        with ThreadPoolExecutor(max_workers=2) as pool:
            killed = list(pool.map(lambda m: _killed(m, tmp), mutants))
        survivors = [m.name for m, k in zip(mutants, killed) if not k]
        for m, k in zip(mutants, killed):
            print(f"{'killed  ' if k else 'SURVIVED'} {m.name}")
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
