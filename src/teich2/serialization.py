"""CSV, JSON and SVG emitters with fixed, byte-reproducible formatting.

CSV writes floats as %.17g (``format_float``): 17 significant digits,
enough to round-trip a double, with trailing zeros stripped (0.5, not
0.50000000000000000).  It uses a '.' decimal separator, a header row, LF
line endings and csv.writer's minimal quoting, which here also quotes a
cell holding a carriage return.  Tables are given as columns; a float64
array column is formatted in integer arithmetic, exact digit for digit
(``_g17``), and each block of rows is written as one uint8 array, while a
table of Python cells is joined as text.  JSON
documents carry a top level ``"schema": "teich2/v1"`` marker and serialize
floats with Python's shortest round-tripping repr, so parsing reproduces
the doubles bit-exactly.  They are the bytes of ``json.dumps(doc,
indent=2)``, which on Python 3.11 runs json's pure-Python encoder, from a
recursive writer; a list of dicts that share their str keys and hold only
finite floats, as the orbit samples and area rows do, is written one
``%r`` template per row.  ``json.dumps`` is kept only in the tests, as the
byte oracle.  SVG maps the unit disk to a 1000 x 1000 viewport
and renders geodesic sides as true circular arcs through three sampled
points, with numbers in %.4f form.  The arcs of all cells are computed as
array expressions, and the path lines of each block of cells are written
as one uint8 array: the numbers are formatted in integer arithmetic from
digit tables, and only the few that integer rounding cannot settle (on
half-way ties, non-finite, or 1e4 and above) go through Python's %.4f.
"""

from __future__ import annotations

import itertools
import math
import sys
from json.encoder import encode_basestring_ascii as _json_string
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
# rows per pass of the CSV writer: _g17's arrays take a few hundred bytes per
# value, so a block of the four-float ball dump stays within a few MB
_ROWS = 4096
# a CSV cell holding one of these characters is quoted
_QUOTED = ',"\r\n'
_COMMA, _NEWLINE = np.uint8(ord(",")), np.uint8(ord("\n"))


def format_float(x: float) -> str:
    """17-significant-digit decimal form, enough to round-trip a double."""
    return f"{float(x):.17g}"


def _quoted(cell: str, alone: bool) -> str:
    if any(c in cell for c in _QUOTED) or (alone and not cell):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _cells(column: Iterable[Any], alone: bool) -> list[str]:
    """The CSV text of each cell of a column of Python objects: floats (numpy's
    too) as ``format_float``, anything else as ``str``, quoted as csv.writer's
    QUOTE_MINIMAL does with a "\\r\\n" line terminator: a cell holding ',', '"',
    "\\r" or "\\n", or the empty cell when it is ``alone`` in its row.  Rows end
    with "\\n"."""
    cells = [format_float(x) if isinstance(x, float) else str(x) for x in column]
    joined = "".join(cells)
    if "\0" in joined:  # 0 bytes are the padding of the byte route
        raise ValueError("a CSV cell holds a NUL character")
    if any(c in joined for c in _QUOTED) or (alone and "" in cells):
        cells = [_quoted(c, alone) for c in cells]
    return cells


def csv_text(header: Sequence[str], columns: Sequence[Any]) -> str:
    """CSV text of a table given as columns of equal length, one per header name.

    A float64 ndarray column is formatted by ``_g17``; any other column cell
    by cell (``_cells``).  A table without such an array is joined as text.
    Otherwise each block of _ROWS rows is laid out as one uint8 array and
    decoded once, as ``_paths`` does with its path lines.
    """
    header, columns = list(header), list(columns)
    rows = len(columns[0]) if columns else 0
    if len(columns) != len(header) or any(len(c) != rows for c in columns):
        raise ValueError(
            f"a CSV table needs one column per header name, all of one length: "
            f"{len(header)} names, column lengths {[len(c) for c in columns]}"
        )
    alone = len(columns) == 1
    text = [",".join(_cells(header, alone)) + "\n"]
    columns = [
        c if isinstance(c, np.ndarray) and c.dtype == np.float64 else _cells(c, alone)
        for c in columns
    ]
    floats = [c for c in columns if isinstance(c, np.ndarray)]
    if not floats:
        text.extend(line + "\n" for line in map(",".join, zip(*columns)))
        return "".join(text)
    for start in range(0, rows, _ROWS):
        n = min(_ROWS, rows - start)
        numbers = iter(_g17(np.stack([c[start:start + n] for c in floats])))
        pieces = []  # (bytes, n): a row per byte place
        for column in columns:
            if isinstance(column, np.ndarray):
                field = next(numbers)
            else:
                field = _padded(column[start:start + n])
            pieces += (field.T, np.broadcast_to(_COMMA, (1, n)))
        pieces[-1] = np.broadcast_to(_NEWLINE, (1, n))
        lines = np.concatenate(pieces).T
        text.append(lines[lines != 0].tobytes().decode())
    return "".join(text)


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_default(x: Any) -> Any:
    if isinstance(x, complex):
        return [x.real, x.imag]
    if hasattr(x, "item"):
        return x.item()
    raise TypeError(f"not JSON-serializable: {type(x).__name__}")


def json_text(payload: dict[str, Any]) -> str:
    """The document {"schema": SCHEMA, **payload} as ``json.dumps(doc,
    indent=2, default=_json_default)`` writes it, with a final newline."""
    out: list[str] = []
    _json(out, {"schema": SCHEMA, **payload}, "\n")
    out.append("\n")
    return "".join(out)


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _json_key(key: Any) -> str:
    if isinstance(key, str):
        return _json_string(key)
    if isinstance(key, float):
        return _json_string(_json_float(key))
    if key is True or key is False or key is None:
        return _json_string(_JSON_CONSTANTS[key])
    if isinstance(key, int):
        return _json_string(int.__repr__(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _json(out: list[str], o: Any, newline: str) -> None:
    """Append the text of ``o`` to ``out`` as json's indent-2 encoder does,
    with ``newline`` the line break and indent of o's own line: the same
    isinstance order, tuples as lists, NaN and Infinity, ASCII strings, and
    _json_default for any other type."""
    if isinstance(o, str):
        out.append(_json_string(o))
    elif o is None or o is True or o is False:
        out.append(_JSON_CONSTANTS[o])
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_json_float(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        rows = _json_rows(o, inner)
        if rows is not None:
            out += ("[", inner, rows, newline, "]")
            return
        out.append("[")
        for i, value in enumerate(o):
            out.append("," + inner if i else inner)
            _json(out, value, inner)
        out += (newline, "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        out.append("{")
        for i, (key, value) in enumerate(o.items()):
            out += ("," + inner if i else inner, _json_key(key), ": ")
            _json(out, value, inner)
        out += (newline, "}")
    else:
        _json(out, _json_default(o), newline)


def _json_rows(rows: Sequence[Any], inner: str) -> str | None:
    """The items of a list of dicts that share one tuple of str keys and hold
    only finite Python floats, each through one %r template, joined by
    ``"," + inner``; None for any other list."""
    first = rows[0]
    if type(first) is not dict or not first:
        return None
    keys = tuple(first)
    if (set(map(type, rows)) != {dict} or set(map(type, keys)) != {str}
            or not all(map(keys.__eq__, map(tuple, rows)))):
        return None
    values = list(map(tuple, map(dict.values, rows)))
    flat = list(itertools.chain.from_iterable(values))
    if set(map(type, flat)) != {float} or not all(map(math.isfinite, flat)):
        return None
    field = inner + "  "
    body = ",".join(field + _json_string(k).replace("%", "%%") + ": %r" for k in keys)
    return ("," + inner).join(map(("{" + body + inner + "}").__mod__, values))


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
    texts = _padded(["%.4f" % x for x in values[slow].tolist()])
    out = np.zeros(values.shape + (max(texts.shape[1], _FIELD),), np.uint8)
    out[..., 0] = np.where(np.signbit(values), ord("-"), 0)
    whole, frac = np.divmod(np.where(slow, 0, n).astype(np.int64), 10000)
    out[..., 1:5] = _INTEGER.take(whole)[..., None].view(np.uint8)
    out[..., 5] = ord(".")
    out[..., 6:10] = _FRACTION.take(frac)[..., None].view(np.uint8)
    if len(texts):
        out[slow] = 0
        out[slow, :texts.shape[1]] = texts
    return out


def _padded(texts: Sequence[str]) -> np.ndarray:
    """The UTF-8 bytes of each text as one row of a uint8 array, with 0 bytes
    as padding."""
    raw = [t.encode() for t in texts]
    width = max(map(len, raw), default=0)
    return np.frombuffer(
        b"".join(r.ljust(width, b"\0") for r in raw), np.uint8
    ).reshape(len(raw), width)


def _split(a):
    """High and low halves of float64 a, 26 significant bits at most each (Veltkamp)."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _pow10_product(a, k):
    """(p, e) with p = fl(a 10**k) and p + e = a 10**k exactly, for k = 0..22:
    Dekker's two-product (Numer. Math. 18, 1971), barring overflow and
    underflow; elementwise."""
    p = a * _POW10[k]
    ah, al = _split(a)
    bh, bl = _POW10_HIGH[k], _POW10_LOW[k]
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


# 10**k for k = 0..22, each exact in float64, and its halves for _pow10_product
_POW10 = 10.0 ** np.arange(23)
_POW10_HIGH, _POW10_LOW = _split(_POW10)
_G17_WIDTH = 24  # '-', then "0.000" and 17 digits, or Python's longest %.17g
_G17_PLACES = np.arange(25, dtype=np.uint8)[:, None]


def _g17(values) -> np.ndarray:
    """The bytes of ``"%.17g" % x`` for each float64 x, as a uint8 array of
    shape values.shape + (24,), left to right with 0 bytes as padding.

    %.17g writes the 17 significant digits D = round-half-even(|x| 10**(16 -
    E)) in fixed form for the decimal exponents E = -4..16, and those are
    computed exactly, as integers (the route of Ryu printf, Adams, PLDI
    2019): 10**(16 - E) is a double, Dekker's product gives p + e =
    |x| 10**(16 - E) exactly, and p >= 1e16 > 2**53 is an even integer, so
    D = p + rint(e), with rint's half-even ties.  The text is the 21 digits
    of V = D 10**(4 - Z), Z = max(-E, 0), which are Z zeros, D and 4 - Z
    zeros, from the 4-digit groups of _FRACTION, with a '.' after the first
    max(E, 0) + 1 of them; trailing zeros of the fraction, and a '.' left
    without one, are masked off.  The bytes are chosen by arithmetic on
    (place, value) arrays, as numpy's ``where`` on uint8 is many times
    slower.  Zeros, the exponent form, NaN and infinities are formatted by
    ``format_float``.
    """
    values = np.asarray(values, dtype=float)
    flat = values.ravel()
    n = len(flat)
    a = np.abs(flat)
    # E = -4..16 exactly: the double 1e-4 lies above 10**-4, 1e17 is exact
    fast = (a >= 1e-4) & (a < 1e17)  # False for NaN
    a[~fast] = 1.0
    # log10 can be one off next to a power of ten: the exact product
    # a 10**(16 - E) must lie in [1e16, 1e17)
    e = np.clip(np.floor(np.log10(a)), -5, 16).astype(np.intp)
    p, err = _pow10_product(a, 16 - e)
    low = (p < 1e16) | ((p == 1e16) & (err < 0))
    high = (p > 1e17) | ((p == 1e17) & (err >= 0))
    off = low | high
    if off.any():
        e += high.astype(np.intp) - low
        p[off], err[off] = _pow10_product(a[off], 16 - e[off])
    # D never rounds up to 10**17: no double lies within half a unit of D
    # below 10**(E + 1) (checked in the tests), so E stays
    d = p.astype(np.int64) + np.rint(err).astype(np.int64)
    # V = D 10**(4 - Z) = top 10**8 + rest, with top < 10**13
    scale = 10 ** (4 - np.maximum(-e, 0))
    top = d // 10**8
    rest = (d - top * 10**8) * scale
    top = top * scale + rest // 10**8
    groups = np.empty((6, n), np.intp)  # V's 4-digit groups, the first below 10
    for k, place in enumerate((10**12, 10**8, 10**4)):
        groups[k] = top // place
        top -= groups[k] * place
    groups[3] = top
    rest %= 10**8
    groups[4] = rest // 10**4
    groups[5] = rest - groups[4] * 10**4
    # place i of "000" and V's 21 digits, then a 0 byte
    digits = np.zeros((25, n), np.uint8)
    by_place = _FRACTION.take(groups).view(np.uint8).reshape(6, n, 4).transpose(0, 2, 1)
    digits[:24].reshape(6, 4, n)[...] = by_place
    # body place j holds V[j] up to j = point, '.', then V[j - 1]
    point = np.maximum(e, 0).astype(np.uint8)
    body = digits[2:24] + (_G17_PLACES[:22] <= point) * (digits[3:25] - digits[2:24])
    body += (_G17_PLACES[:22] == point + 1) * (np.uint8(ord(".")) - body)
    # the text ends at V's last nonzero digit, at body place last - 1, or
    # before the '.' if that digit is not in the fraction
    last = np.max((digits[:24] != ord("0")) * _G17_PLACES[:24], axis=0)
    fraction = last > point + 3
    length = fast * (point + 1 + fraction * (last - 2 - point))  # 0 where Python writes
    out = np.zeros((_G17_WIDTH, n), np.uint8)
    out[0] = np.signbit(flat) * fast * np.uint8(ord("-"))
    out[1:23] = body * (_G17_PLACES[:22] < length)
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = _padded([format_float(x) for x in flat[slow].tolist()])
        out[:texts.shape[1], slow] = texts.T
    return out.T.reshape(values.shape + (_G17_WIDTH,))


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


def emit_csv(path: str | None, header: Sequence[str], columns: Sequence[Any]) -> None:
    _write(path, csv_text(header, columns))


def emit_json(path: str | None, payload: dict[str, Any]) -> None:
    _write(path, json_text(payload))


def emit_svg(path: str | None, vertices, midpoints) -> None:
    _write(path, svg_text(vertices, midpoints))
