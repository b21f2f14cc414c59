"""Regenerate area_reference.csv, the oracle table of the area-table workload.

Run from the root of a checkout:

    python3 perfbench/make_area_reference.py

Row k holds P = P_REG + k * AREA_GRID and the WP area enclosed by that
orbit, by the library's quadrature, with 17 significant digits.  Regenerate
only when a change to the area routes is meant to move the areas, and say so
where the change is described.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from oracles import AREA_REFERENCE  # noqa: E402
from teich2.isoperimetric import wp_area  # noqa: E402
from workloads import AREA_GRID, AREA_P_MAX, AREA_ROWS, P_REG  # noqa: E402


def main() -> None:
    # the longest step and the arange end point bound the last row of a table
    last = AREA_P_MAX + (AREA_P_MAX - P_REG) / (AREA_ROWS - 1) + AREA_GRID
    with open(AREA_REFERENCE, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["k", "P", "area"])
        k = 0
        while P_REG + k * AREA_GRID <= last:
            p = P_REG + k * AREA_GRID
            writer.writerow([k, repr(p), repr(wp_area(p).area)])
            k += 1


if __name__ == "__main__":
    main()
