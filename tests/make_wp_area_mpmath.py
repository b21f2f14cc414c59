"""Regenerate data/wp_area_mpmath.csv, 30-digit WP areas for test_isoperimetric.

Run from the root of a checkout (it takes a few seconds):

    python3 tests/make_wp_area_mpmath.py

Each row holds a perimeter P and the WP area enclosed by its orbit: the
integral of the area density over a in [a_minus, a_plus] that
``isoperimetric.wp_area`` takes by quad, here by mpmath's tanh-sinh rule
from the same closed forms.  The rows reach past P ~ 99.6, where quad
misses its tolerance, and serve a numpy-only quadrature as its reference.
Each area is computed twice, at two working precisions with the interval
split at different distances from its ends (the boundary layers there are
about 1/E wide), and written only if both agree to 1e-40.
"""

from __future__ import annotations

import csv
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).resolve().parent / "data" / "wp_area_mpmath.csv"
PERIMETERS = [41.0, 60.0, 80.0, 99.58213471169597, 120.0, 140.0, 161.0]
DIGITS = 30


def area(p: float, dps: int, splits: list[int]) -> mp.mpf:
    """WP area inside the orbit of perimeter p at dps digits.

    The interval is also cut (hi - lo) 10^-k from each end, for k in splits.
    """
    with mp.workdps(dps):
        e = 2 * (mp.cosh(mp.mpf(p) / 8) + 1)
        root = mp.sqrt(e * e - 24 * e + 16)
        lo = mp.sqrt(3 * e - 4 - root) / (2 * mp.sqrt(e))
        hi = mp.sqrt(3 * e - 4 + root) / (2 * mp.sqrt(e))

        def density(a):
            one_minus_a2 = 1 - a * a
            two_a2 = 2 * a * a - 1
            ratio = (e - 4) * one_minus_a2 / (e * one_minus_a2 - 4)
            one_minus_e = max(1 - 4 * a * a / (one_minus_a2 * two_a2) / e, 0)
            f = mp.sqrt(ratio * one_minus_e)
            return 16 * a / (one_minus_a2 * mp.sqrt(two_a2)) * mp.atanh(f)

        offsets = [(hi - lo) * mp.mpf(10) ** -k for k in splits]
        nodes = [lo, *(lo + d for d in offsets), *(hi - d for d in reversed(offsets)), hi]
        return +mp.quad(density, nodes, maxdegree=10)


def main() -> None:
    with open(OUT, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["P", "area"])
        for p in PERIMETERS:
            first = area(p, 45, [12, 9, 6, 3])
            second = area(p, 55, [15, 11, 8, 5, 2])
            if abs(first - second) > mp.mpf(10) ** -40 * abs(second):
                raise SystemExit(f"P = {p!r}: {first} and {second} disagree")
            writer.writerow([repr(p), mp.nstr(second, DIGITS)])


if __name__ == "__main__":
    main()
