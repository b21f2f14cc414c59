"""CSV, JSON and SVG emitters with fixed, byte-reproducible formatting.

CSV writes floats as %.17g: 17 significant digits, enough to round-trip a
double, with trailing zeros stripped (0.5, not 0.50000000000000000).  It
uses a '.' decimal separator, a header row, and LF line endings.  JSON
documents carry a top level ``"schema": "teich2/v1"`` marker and serialize
floats with Python's shortest round-tripping repr, so parsing reproduces
the doubles bit-exactly.  SVG maps the unit disk to a 1000 x 1000 viewport
and renders geodesic sides as true circular arcs through three sampled
points; the arcs of all cells are computed as array expressions, and each
path is written with one %-template.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from typing import Any, Iterable, Sequence

import numpy as np

__all__ = [
    "SCHEMA",
    "SVG_SIZE",
    "SVG_SCALE",
    "format_float",
    "csv_text",
    "json_text",
    "svg_text",
    "emit_csv",
    "emit_json",
    "emit_svg",
]

SCHEMA = "teich2/v1"
SVG_SIZE = 1000
SVG_SCALE = 495.0  # disk radius in pixels, centered in the viewport

# three arc points closer than this in pixels are rendered as a chord
_COLLINEAR_EPS = 1e-6
# cells per pass of the arc arrays: a whole radius-4 tiling, and bounded
# temporaries for the 155577 cells of radius 6
_BLOCK = 4096


def format_float(x: float) -> str:
    """17-significant-digit decimal form, enough to round-trip a double."""
    return f"{float(x):.17g}"


def _cell(x: Any) -> str:
    return format_float(x) if isinstance(x, float) else str(x)


def csv_text(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    writer.writerows([_cell(x) for x in row] for row in rows)
    return buf.getvalue()


def _json_default(x: Any) -> Any:
    if isinstance(x, complex):
        return [x.real, x.imag]
    if hasattr(x, "item"):
        return x.item()
    raise TypeError(f"not JSON-serializable: {type(x).__name__}")


def json_text(payload: dict[str, Any]) -> str:
    doc = {"schema": SCHEMA, **payload}
    return json.dumps(doc, indent=2, default=_json_default) + "\n"


# the path of one cell, and its side commands as %-templates
_PATH = '<path d="M %%.4f %%.4f %s Z" fill="none" stroke="#000000" stroke-width="0.5"/>'
_ARC = "A %.4f %.4f 0 0 %d %.4f %.4f"
_LINE = "L %.4f %.4f"


def _pix(z):
    """Pixel coordinates (x, y) of disk points; elementwise."""
    return SVG_SIZE / 2.0 + SVG_SCALE * np.real(z), SVG_SIZE / 2.0 - SVG_SCALE * np.imag(z)


def _arcs(x1, y1, x2, y2):
    """(chord, r, sweep) of each side k, from vertex k through midpoint k to
    vertex k + 1, given the pixel coordinates of the (N, k) vertices and
    midpoints.

    ``chord`` marks three numerically collinear points (the image of a
    diameter geodesic), drawn as a line.  Otherwise the side is the circle
    through the three points, of radius r; octagon sides are always minor
    arcs, so the large-arc flag is 0, and the sweep flag (1.0 or 0.0)
    follows the orientation of the three points.
    """
    x3, y3 = np.roll(x1, -1, axis=1), np.roll(y1, -1, axis=1)
    d = 2.0 * (x1 * (y2 - y3) + x2 * (y3 - y1) + x3 * (y1 - y2))
    q1 = x1 * x1 + y1 * y1
    q2 = x2 * x2 + y2 * y2
    q3 = x3 * x3 + y3 * y3
    with np.errstate(divide="ignore", invalid="ignore"):  # d = 0 on a chord
        ux = (q1 * (y2 - y3) + q2 * (y3 - y1) + q3 * (y1 - y2)) / d
        uy = (q1 * (x3 - x2) + q2 * (x1 - x3) + q3 * (x2 - x1)) / d
    r = np.hypot(x1 - ux, y1 - uy)
    cross = (x2 - x1) * (y3 - y2) - (y2 - y1) * (x3 - x2)
    return abs(d) < _COLLINEAR_EPS, r, (cross > 0.0).astype(float)


def _path_template(chords: Sequence[bool]) -> tuple[str, list[int]]:
    """Path template of a cell whose sides ``chords`` are lines, and the
    columns of its row (x0, y0, then r, r, sweep, x, y per side) that fill it."""
    commands, columns = [], [0, 1]
    for k, chord in enumerate(chords):
        first = 2 + 5 * k
        commands.append(_LINE if chord else _ARC)
        columns += range(first + 3 if chord else first, first + 5)
    return _PATH % " ".join(commands), columns


def _paths(vertices, midpoints):
    """The <path> line of each cell: row i of the (N, k) complex arrays holds
    cell i's vertices and side midpoints."""
    x, y = _pix(vertices)
    chord, r, sweep = _arcs(x, y, *_pix(midpoints))
    n, k = x.shape
    # row i: the start x0, y0, then r, r, sweep and the end x, y of each side
    sides = np.stack([r, r, sweep, np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)], axis=-1)
    rows = np.concatenate([x[:, :1], y[:, :1], sides.reshape(n, 5 * k)], axis=1)
    arcs_only, _ = _path_template([False] * k)
    for row, chords, any_chord in zip(rows, chord, chord.any(axis=1).tolist()):
        if any_chord:
            template, columns = _path_template(chords.tolist())
            yield template % tuple(row[columns].tolist())
        else:
            yield arcs_only % tuple(row.tolist())


def svg_text(vertices, midpoints) -> str:
    """SVG document with one path per cell: row i of the (N, k) complex arrays
    holds cell i's vertices and side midpoints."""
    vertices, midpoints = np.asarray(vertices), np.asarray(midpoints)
    half = SVG_SIZE / 2.0
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<circle cx="{half}" cy="{half}" r="{SVG_SCALE}" '
        'fill="none" stroke="#999999" stroke-width="1"/>',
    ]
    for start in range(0, len(vertices), _BLOCK):
        block = slice(start, start + _BLOCK)
        lines.extend(_paths(vertices[block], midpoints[block]))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def emit_csv(path: str | None, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    _write(path, csv_text(header, rows))


def emit_json(path: str | None, payload: dict[str, Any]) -> None:
    _write(path, json_text(payload))


def emit_svg(path: str | None, vertices, midpoints) -> None:
    _write(path, svg_text(vertices, midpoints))
