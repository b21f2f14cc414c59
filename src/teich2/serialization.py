"""CSV, JSON and SVG emitters with fixed, byte-reproducible formatting.

CSV writes floats as %.17g: 17 significant digits, enough to round-trip a
double, with trailing zeros stripped (0.5, not 0.50000000000000000).  It
uses a '.' decimal separator, a header row, and LF line endings.  JSON
documents carry a top level ``"schema": "teich2/v1"`` marker and serialize
floats with Python's shortest round-tripping repr, so parsing reproduces
the doubles bit-exactly.  SVG maps the unit disk to a 1000 x 1000 viewport
and renders geodesic sides as true circular arcs through three sampled
points, with numbers in %.4f form.  The arcs of all cells are computed as
array expressions, and the path lines of each block of cells are written
as one uint8 array: the numbers are formatted in integer arithmetic from
digit tables, and only the few that integer rounding cannot settle (on
half-way ties, non-finite, or 1e4 and above) go through Python's %.4f.
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
# cells per pass of the path kernel, whose byte arrays grow with the block:
# a radius-4 tiling SVG peaks at 36 MB RSS with 512-cell blocks, 41 MB with 4096
_BLOCK = 512


def format_float(x: float) -> str:
    """17-significant-digit decimal form, enough to round-trip a double."""
    return f"{float(x):.17g}"


def csv_text(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """CSV text: floats (numpy's too) in format_float's form, inlined because
    a call per cell cost a quarter to a third of the writer's time; other
    cells as str."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    writer.writerows(
        [f"{float(x):.17g}" if isinstance(x, float) else str(x) for x in row] for row in rows
    )
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
    arcs, so the large-arc flag is 0, and the sweep flag (True for 1)
    follows the orientation of the three points.

    ``_COLLINEAR_EPS`` bounds |d|, twice the area of the three points'
    triangle in px², not their relative collinearity: a short side is a
    chord however much it bends.  At (a, α̃) = (0.95, 0.5) sides up to
    2.7e-3 px long, with a sagitta of up to 4.6e-4 px, are drawn as lines.
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
    return abs(d) < _COLLINEAR_EPS, r, cross > 0.0


def _digit_table(keep: int) -> np.ndarray:
    """The 4 ASCII digits of each of 0..9999 as one uint32, with the leading
    zeros before the last ``keep`` digits as 0 bytes."""
    d = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digits = np.stack(np.meshgrid(d, d, d, d, indexing="ij"), axis=-1).reshape(10000, 4)
    place = 10 ** np.arange(3, -1, -1)
    digits[(np.arange(10000)[:, None] < place) & (place >= 10**keep)] = 0
    return digits.view(np.uint32).ravel()


_FRACTION = _digit_table(4)  # 42 -> "0042"
_INTEGER = _digit_table(1)  # 42 -> "  42", with 0 bytes for the blanks
_FIELD = 10  # sign, four integer digits, '.', four decimals


def _fixed4(values) -> np.ndarray:
    """The bytes of ``"%.4f" % x`` for each float64 x, as a uint8 array of
    shape values.shape + (width,), left to right with 0 bytes as padding.

    t = |x| 1e4 is rounded once, and rounding is monotonic, so t lies on the
    same side of each half-way tie k + 0.5 (a double) as the exact product,
    or on the tie itself; off the ties rint(t) is thus %.4f's correctly
    rounded value.  Values whose t is a tie, non-finite values and integer
    parts of 1e4 or more are formatted by Python, and widen every field to
    the longest of their strings.
    """
    values = np.asarray(values, dtype=float)
    a = np.abs(values)
    small = a < 1e4  # False for inf and NaN
    t = np.where(small, a, 0.0) * 1e4
    n = np.rint(t)
    slow = ~small | (n >= 1e8) | (t - np.floor(t) == 0.5)
    texts = ["%.4f" % x for x in values[slow].tolist()]
    width = max(map(len, texts), default=0)
    out = np.zeros(values.shape + (max(width, _FIELD),), np.uint8)
    out[..., 0] = np.where(np.signbit(values), ord("-"), 0)
    whole, frac = np.divmod(np.where(slow, 0, n).astype(np.int64), 10000)
    out[..., 1:5] = _INTEGER.take(whole)[..., None].view(np.uint8)
    out[..., 5] = ord(".")
    out[..., 6:10] = _FRACTION.take(frac)[..., None].view(np.uint8)
    if texts:
        out[slow] = 0
        out[slow, :width] = np.frombuffer(
            "".join(s.ljust(width, "\0") for s in texts).encode("ascii"), np.uint8
        ).reshape(len(texts), width)
    return out


def _bytes(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("ascii"), np.uint8)


# the bytes of each cell's path line around its numbers: M x0 y0, then per
# side "A r r 0 0 sweep x y" with the end vertex x, y
_HEAD = _bytes('<path d="M ')
_TAIL = _bytes(' Z" fill="none" stroke="#000000" stroke-width="0.5"/>\n')


def _paths(vertices, midpoints) -> str:
    """The <path> lines of the cells, each ending in a newline: row i of the
    (N, k) complex arrays holds cell i's vertices and side midpoints.

    Every line is laid out in one (N, bytes) uint8 array, with the numbers
    formatted by ``_fixed4``; a chord side's "A" becomes "L" and its radii
    and flags are zeroed, and the 0 bytes are dropped before one decode.
    """
    x, y = _pix(vertices)
    chord, r, sweep = _arcs(x, y, *_pix(midpoints))
    # a chord's radius (inf, NaN or huge) is never printed: masked, it cannot
    # send its field to Python's %.4f and widen the block
    fx, fy, fr = _fixed4(np.stack([x, y, np.where(chord, 0.0, r)]))
    n, k, w = fx.shape
    # one side: " A " r " " r " 0 0 " sweep " " x " " y
    cols = np.cumsum([0, 3, w, 1, w, 5, 1, 1, w, 1, w])
    sides = np.empty((n, k, cols[-1]), np.uint8)
    sides[..., 0:3] = _bytes(" A ")
    sides[..., cols[1]:cols[2]] = fr
    sides[..., cols[2]] = ord(" ")
    sides[..., cols[3]:cols[4]] = fr
    sides[..., cols[4]:cols[5]] = _bytes(" 0 0 ")
    sides[..., cols[5]] = ord("0") + sweep
    sides[..., cols[6]] = ord(" ")
    sides[..., cols[7]:cols[8]] = np.roll(fx, -1, axis=1)
    sides[..., cols[8]] = ord(" ")
    sides[..., cols[9]:cols[10]] = np.roll(fy, -1, axis=1)
    sides[chord, 1] = ord("L")
    sides[chord, cols[1]:cols[7]] = 0
    lines = np.concatenate([
        np.broadcast_to(_HEAD, (n, _HEAD.size)), fx[:, 0], np.full((n, 1), ord(" "), np.uint8),
        fy[:, 0], sides.reshape(n, -1), np.broadcast_to(_TAIL, (n, _TAIL.size)),
    ], axis=1)
    return lines[lines != 0].tobytes().decode("ascii")


def svg_text(vertices, midpoints) -> str:
    """SVG document with one path per cell: row i of the (N, k) complex arrays
    holds cell i's vertices and side midpoints."""
    vertices, midpoints = np.asarray(vertices), np.asarray(midpoints)
    half = SVG_SIZE / 2.0
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">\n'
        f'<circle cx="{half}" cy="{half}" r="{SVG_SCALE}" '
        'fill="none" stroke="#999999" stroke-width="1"/>\n'
    )
    paths = (
        _paths(vertices[start:start + _BLOCK], midpoints[start:start + _BLOCK])
        for start in range(0, len(vertices), _BLOCK)
    )
    return head + "".join(paths) + "</svg>\n"


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
