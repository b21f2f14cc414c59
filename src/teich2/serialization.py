"""CSV, JSON and SVG text with fixed, byte-reproducible formatting.

The three formats are ``csv_text``, ``json_text`` and ``svg_text``; each
returns a str, and the CLI writes it to stdout or to a file.

CSV writes floats as %.17g (``format_float``): 17 significant digits,
enough to round-trip a double, with trailing zeros stripped (0.5, not
0.50000000000000000).  It uses a '.' decimal separator, a header row, LF
line endings and csv.writer's minimal quoting, which here also quotes a
cell holding a carriage return.  Tables are given as columns; a float64
array column is formatted in integer arithmetic, exact digit for digit
(``_g17``), and each block of rows is written as one uint8 array, in
which the text cells of a column are joined, encoded once and scattered
into rows by their byte lengths (``_padded``), while a table of Python
cells is joined as text.  JSON
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
array expressions, and the path lines of each block of cells are laid out
in one uint8 array, filled from a template row that holds the text around
the numbers: the numbers are formatted in integer arithmetic from digit
tables, and only the few that integer rounding cannot settle (on half-way
ties, non-finite, or 1e4 and above) go through Python's %.4f.
"""

from __future__ import annotations

import itertools
import math
from json.encoder import encode_basestring_ascii as _json_string
from typing import Any, Sequence

import numpy as np

__all__ = [
    "SCHEMA",
    "SVG_SIZE",
    "SVG_SCALE",
    "format_float",
    "csv_text",
    "json_text",
    "svg_text",
]

SCHEMA = "teich2/v1"
SVG_SIZE = 1000
SVG_SCALE = 495.0  # disk radius in pixels, centered in the viewport

# three arc points closer than this in pixels are rendered as a chord
_COLLINEAR_EPS = 1e-6
# cells per pass of the path kernel, whose byte arrays grow with the block:
# a radius-4 tiling SVG peaks at 36.3-36.5 MB RSS with 512-cell blocks,
# 41.2-41.3 MB with 4096
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


def _cells(column: Sequence[Any], alone: bool) -> Sequence[str]:
    """The CSV text of each cell of a column of Python objects: floats (numpy's
    too) as ``format_float``, anything else as ``str``, quoted as csv.writer's
    QUOTE_MINIMAL does with a "\\r\\n" line terminator: a cell holding ',', '"',
    "\\r" or "\\n", or the empty cell when it is ``alone`` in its row.  Rows end
    with "\\n".  A column whose cells are all of type str, such as a ball's
    words, is its own texts, with no call per cell unless one needs quoting."""
    if set(map(type, column)) <= {str}:
        cells = column
    else:
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
        text.append(lines.tobytes().translate(None, b"\0").decode())
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

    Each coordinate difference is computed once and shared by d, the
    centre (ux, uy) and the orientation ``cross``.  The orientation
    (x2 - x1)(y3 - y2) - (y2 - y1)(x3 - x2) is written with the shared
    differences y2 - y3 and y1 - y2, whose negations are exact, so it keeps
    its bits.
    """
    x3, y3 = _next(x1), _next(y1)
    dx21, dx32, dx13 = x2 - x1, x3 - x2, x1 - x3
    dy12, dy23, dy31 = y1 - y2, y2 - y3, y3 - y1
    d = 2.0 * (x1 * dy23 + x2 * dy31 + x3 * dy12)
    q1 = x1 * x1 + y1 * y1
    q2 = x2 * x2 + y2 * y2
    q3 = _next(q1)
    with np.errstate(divide="ignore", invalid="ignore"):  # d = 0 on a chord
        ux = (q1 * dy23 + q2 * dy31 + q3 * dy12) / d
        uy = (q1 * dx32 + q2 * dx13 + q3 * dx21) / d
    r = np.hypot(x1 - ux, y1 - uy)
    cross = dy12 * dx32 - dx21 * dy23
    return abs(d) < _COLLINEAR_EPS, r, cross > 0.0


def _next(a):
    """The values of each row's next vertex: column k holds a[:, k + 1], and
    the last column a[:, 0]."""
    return np.concatenate((a[:, 1:], a[:, :1]), axis=1)


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
    the longest of their strings.  The sign byte, the 4-digit integer and
    fraction groups (each stored as one uint32 through an unaligned view of
    the output) and the '.' fill the first 10 bytes of every field; only the
    bytes after them, and the fields of Python's strings, are zeroed.
    """
    values = np.asarray(values, dtype=float)
    a = np.abs(values)
    small = a < 1e4  # False for inf and NaN
    t = np.where(small, a, 0.0) * 1e4
    n = np.rint(t)
    slow = ~small | (n >= 1e8) | (t - np.floor(t) == 0.5)
    width, texts = _FIELD, None
    if slow.any():
        texts = _padded(["%.4f" % x for x in values[slow].tolist()])
        width = max(width, texts.shape[1])
        n = np.where(slow, 0.0, n)
    out = np.empty(values.shape + (width,), np.uint8)
    out[..., 0] = np.signbit(values) * np.uint8(ord("-"))
    n = n.astype(np.int32)  # below 1e8 < 2**31
    whole = n // 10000
    frac = n - whole * 10000
    out[..., 1:5].view(np.uint32)[..., 0] = _INTEGER.take(whole)
    out[..., 5] = ord(".")
    out[..., 6:10].view(np.uint32)[..., 0] = _FRACTION.take(frac)
    out[..., _FIELD:] = 0
    if texts is not None:
        out[slow] = 0
        out[slow, :texts.shape[1]] = texts
    return out


def _padded(texts: Sequence[str]) -> np.ndarray:
    """The UTF-8 bytes of each text as one row of a uint8 array, with 0 bytes
    as padding.

    The texts are joined with NUL separators and encoded once.  UTF-8
    writes no other 0 byte, so the separators give each text's byte length,
    and the bytes, each text's NUL included, are scattered into the rows by
    those lengths.  No text may hold a NUL (``_cells`` refuses one).
    """
    if not texts:
        return np.zeros((0, 0), np.uint8)
    data = np.frombuffer(("\0".join(texts) + "\0").encode(), np.uint8)
    lengths = np.diff(np.flatnonzero(data == 0), prepend=-1)  # with the NUL
    out = np.zeros((len(lengths), lengths.max()), np.uint8)
    out[np.arange(out.shape[1]) < lengths[:, None]] = data
    return out[:, :-1]


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


# the bytes of each cell's path line around its numbers: M x0 y0, then per
# side "A r r 0 0 sweep x y" with the end vertex x, y; each number's field
# (%b) and the sweep digit are 0 bytes in the template row
_HEAD = b'<path d="M '
_SIDE = b" A %b %b 0 0 \0 %b %b"
_TAIL = b' Z" fill="none" stroke="#000000" stroke-width="0.5"/>\n'


def _paths(vertices, midpoints) -> str:
    """The <path> lines of the cells, each ending in a newline: row i of the
    (N, k) complex arrays holds cell i's vertices and side midpoints.

    Every line is laid out in one (N, bytes) uint8 array, filled from one
    template row that holds the text around the numbers, with 0 bytes where
    the numbers go.  The numbers, formatted by ``_fixed4``, and the sweep
    digits are written into a (N, k, side) view of the array, each side's
    end vertex being the next side's start.  A chord side's "A" becomes "L"
    and its radii and flags are zeroed, and the 0 bytes are dropped before
    one decode.
    """
    x, y = _pix(vertices)
    chord, r, sweep = _arcs(x, y, *_pix(midpoints))
    # a chord's radius (inf, NaN or huge) is never printed: masked, it cannot
    # send its field to Python's %.4f and widen the block
    fx, fy, fr = _fixed4(np.stack([x, y, np.where(chord, 0.0, r)]))
    n, k, w = fx.shape
    gap = b"\0" * w
    side = _SIDE % (gap, gap, gap, gap)
    row = _HEAD + gap + b" " + gap + side * k + _TAIL
    lines = np.empty((n, len(row)), np.uint8)
    lines[:] = np.frombuffer(row, np.uint8)
    x0, y0 = len(_HEAD), len(_HEAD) + w + 1
    lines[:, x0:x0 + w] = fx[:, 0]
    lines[:, y0:y0 + w] = fy[:, 0]
    sides = lines[:, y0 + w:y0 + w + k * len(side)].reshape(n, k, len(side))
    # one side: " A " r " " r " 0 0 " sweep " " x " " y
    r1, r2, flag, xk, yk = 3, 4 + w, 9 + 2 * w, 11 + 2 * w, 12 + 3 * w
    sides[..., r1:r1 + w] = fr
    sides[..., r2:r2 + w] = fr
    sides[..., flag] = ord("0") + sweep
    sides[:, :-1, xk:xk + w] = fx[:, 1:]
    sides[:, -1, xk:xk + w] = fx[:, 0]
    sides[:, :-1, yk:yk + w] = fy[:, 1:]
    sides[:, -1, yk:yk + w] = fy[:, 0]
    sides[chord, 1] = ord("L")
    sides[chord, r1:xk] = 0
    return lines.tobytes().translate(None, b"\0").decode("ascii")


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

