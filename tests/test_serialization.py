import csv
import io
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teich2 import cli, serialization
from teich2.group import BALL_SIZES, ball, cells, generators
from teich2.octagon import OctagonParams, build_geometry, grid_arrays
from teich2.serialization import (
    SCHEMA,
    csv_text,
    format_float,
    json_text,
    svg_text,
)


class TestFloatFormat:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(42)
        values = list(rng.uniform(-1e6, 1e6, 200)) + [math.pi, 1e-300, 27.023328706074827]
        for x in values:
            assert float(format_float(x)) == x

    def test_uses_decimal_point(self):
        assert "." in format_float(0.5)
        assert "," not in format_float(123456.75)


class TestCSV:
    def test_header_only_for_empty(self):
        assert csv_text(["a", "b"], [[], []]) == "a,b\n"

    def test_lf_endings_and_digits(self):
        text = csv_text(["x"], [[1.0 / 3.0]])
        assert "\r" not in text
        assert text == "x\n0.33333333333333331\n"
        assert csv_text(["x"], [np.array([1.0 / 3.0])]) == text

    def test_mixed_cell_types(self):
        text = csv_text(["w", "n", "x"], [["ab"], [3], [0.5]])
        assert text.splitlines()[1] == "ab,3,0.5"

    def test_cell_forms(self):
        # numpy floats as their float, everything else as str, csv quoting kept
        row = [np.float64(0.1), np.float32(0.5), None, True, 'a,"b"', 1e-300, -0.0]
        text = csv_text(["c"] * len(row), [[cell] for cell in row])
        assert text.splitlines()[1] == '0.10000000000000001,0.5,None,True,"a,""b""",1e-300,-0'

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        cli._write(str(path), csv_text(["x", "y"], [[0.1, 0.3], [0.2, 0.4]]))
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "x,y"
        assert [float(v) for v in lines[1].split(",")] == [0.1, 0.2]

    @pytest.mark.parametrize("header, columns", [
        (["a", "b"], [[1, 2], [3]]),
        (["a", "b"], [np.zeros(3), ["x", "y"]]),
        (["a", "b"], [[1, 2]]),
        (["a"], [[1], [2]]),
    ])
    def test_ragged_or_unnamed_columns_rejected(self, header, columns):
        with pytest.raises(ValueError):
            csv_text(header, columns)

    def test_nul_rejected(self):
        # 0 bytes pad the byte route, so a NUL in a cell could not be written
        with pytest.raises(ValueError, match="NUL"):
            csv_text(["a", "b"], [["x\0y"], np.zeros(1)])


def json_dumps_oracle(payload) -> str:
    """The byte oracle of json_text: Python's own encoder."""
    doc = {"schema": SCHEMA, **payload}
    return json.dumps(doc, indent=2, default=serialization._json_default) + "\n"


JSON_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
JSON_TEXTS = st.text(max_size=6) | st.sampled_from(["%", "%r", "%%s", "\u00e9", "\u2028", '"\\'])
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), JSON_FLOATS, JSON_TEXTS, st.complex_numbers(),
    JSON_FLOATS.map(np.float64), JSON_FLOATS.map(np.complex128),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
    st.floats(width=32).map(np.float32),
)
JSON_KEYS = JSON_TEXTS | st.integers() | JSON_FLOATS | st.booleans() | st.none()


@st.composite
def row_tables(draw):
    """Lists of dicts over one set of str keys, mostly finite Python floats in
    one key order: the tables json_text writes through one template, and
    near misses that it must not."""
    keys = draw(st.lists(JSON_TEXTS, min_size=1, max_size=4, unique=True))
    values = st.floats(allow_nan=False, allow_infinity=False) | JSON_SCALARS
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        order = draw(st.permutations(keys)) if draw(st.integers(0, 4)) == 0 else keys
        rows.append({k: draw(values) for k in order})
    return rows


def json_payloads():
    values = st.recursive(
        JSON_SCALARS | row_tables(),
        lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                       | st.dictionaries(JSON_KEYS, inner, max_size=4)),
        max_leaves=20,
    )
    return st.dictionaries(JSON_TEXTS, values, max_size=5)


class TestJSON:
    def test_schema_marker_first(self):
        text = json_text({"value": 1.5})
        doc = json.loads(text)
        assert doc["schema"] == SCHEMA
        assert text.splitlines()[1].strip().startswith('"schema"')

    def test_bit_exact_round_trip(self):
        rng = np.random.default_rng(7)
        payload = {"xs": list(rng.uniform(-10, 10, 50))}
        doc = json.loads(json_text(payload))
        assert doc["xs"] == payload["xs"]

    def test_complex_encoded_as_pair(self):
        doc = json.loads(json_text({"z": 0.25 - 0.5j}))
        assert doc["z"] == [0.25, -0.5]

    def test_numpy_scalars_accepted(self):
        doc = json.loads(json_text({"x": np.float64(0.5), "n": np.int64(3)}))
        assert doc["x"] == 0.5 and doc["n"] == 3

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            json_text({"bad": object()})

    @given(json_payloads())
    @example({"rows": [{"phi": -0.0, "a": 0.5}, {"phi": 1e-300, "a": -2.5e17}]})
    @example({"rows": [{"phi": 0.5, "a": math.nan}, {"phi": math.inf, "a": 0.5}]})
    @example({"rows": [{"%r": 0.5, "\u00e9%%": 0.25}],
              "rows2": [{"a": 0.5, "b": 1.0}, {"b": 0.5, "a": 1.0}]})
    @example({"rows": [{"a": 0.5}, {"a": np.float64(0.5)}], "rows2": [{"a": 0.5}, {"a": 1}]})
    @example({"t": (1, (2.5, ()), {}), 1: [], 2.5: {}, True: None, None: "x", math.nan: -0.0})
    @example({"x": [math.inf, -math.inf, math.nan], "k": {math.inf: 1, -math.inf: False}})
    @example({"z": np.complex128(0.5 - 0.0j), "n": np.int64(-3), "f": np.float32(0.1)})
    def test_matches_json_dumps_byte_for_byte(self, payload):
        assert json_text(payload) == json_dumps_oracle(payload)

    @pytest.mark.parametrize("payload", [
        {"bad": [1.0, {"x": object()}]},
        {"rows": [{"a": 0.5}, {"a": object()}]},
        {(1, 2): 0.5},
        {"nested": {np.int64(1): 0.5}},
        {"nested": {np.float32(0.5): 0.5}},
    ])
    def test_refuses_what_json_dumps_refuses(self, payload):
        with pytest.raises(TypeError) as expected:
            json_dumps_oracle(payload)
        with pytest.raises(TypeError, match=re.escape(str(expected.value))):
            json_text(payload)

    def test_file_write(self, tmp_path):
        path = tmp_path / "out.json"
        cli._write(str(path), json_text({"a": 1}))
        assert json.loads(path.read_text())["a"] == 1


class TestSVG:
    def setup_method(self):
        self.params = OctagonParams(0.8, math.pi / 12)
        self.geom = build_geometry(self.params)

    def octagon_svg(self):
        return svg_text(np.array([self.geom.vertices]), np.array([self.geom.midpoints]))

    def test_single_octagon_document(self):
        text = self.octagon_svg()
        assert text.startswith("<?xml")
        assert text.count("<path") == 1
        assert "<circle" in text
        assert text.count(" A ") == 8  # eight true circular arcs

    def test_tiling_path_count_matches_ball(self):
        text = svg_text(*cells(ball(generators(self.params), 1), self.geom))
        assert text.count("<path") == BALL_SIZES[1]

    def test_diameter_fallback_uses_line(self):
        # a two-sided cell along a diameter: each side's start, midpoint and
        # end are collinear, so both sides are lines (the _COLLINEAR_EPS branch)
        text = svg_text(np.array([[-0.5 + 0j, 0.5 + 0j]]), np.array([[0j, 0j]]))
        assert 'd="M 252.5000 500.0000 L 747.5000 500.0000 L 252.5000 500.0000 Z"' in text

    def test_collinear_side_beside_arcs(self):
        # one chord among the octagon's arcs keeps its own command and columns
        vertices = np.array([self.geom.vertices])
        midpoints = np.array([self.geom.midpoints])
        midpoints[0, 3] = 0.5 * (vertices[0, 3] + vertices[0, 4])

        def commands(text):
            return re.findall(r"[MALZ][^MALZ\"]*", re.search(r' d="([^"]*)"', text)[1])

        arcs, mixed = commands(self.octagon_svg()), commands(svg_text(vertices, midpoints))
        end = vertices[0, 4]
        line = f"L {500 + 495 * end.real:.4f} {500 - 495 * end.imag:.4f} "
        assert mixed == arcs[:4] + [line] + arcs[5:]

    def test_reproducible_bytes(self):
        vertices, midpoints = cells(ball(generators(self.params), 1), self.geom)
        text = svg_text(vertices, midpoints)
        assert svg_text(vertices, midpoints) == text


def fixed4(x: float) -> bytes:
    """The formatter's bytes for one value, padding dropped."""
    field = serialization._fixed4(np.array([x]))[0]
    return field[field != 0].tobytes()


# half-way ties of %.4f and their float neighbours
TIES = [k / 32 for k in range(-40, 41)] + [12.34565, 0.00005, 999.99995]
NEAR_TIES = [np.nextafter(x, d) for x in TIES for d in (-math.inf, math.inf)]


class TestFixed4:
    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    @example(0.03125)
    @example(-0.03125)
    @example(0.0)
    @example(-0.0)
    @example(-0.00004)
    @example(-1e-300)
    @example(5e-324)
    @example(-2.2250738585072014e-308)
    @example(9999.99995)
    @example(9999.99994)
    @example(9999.99996)
    @example(-9999.99999)
    @example(1e4)
    @example(123456.78905)
    @example(1e300)
    @example(1.7976931348623157e308)
    @example(math.nan)
    @example(math.inf)
    @example(-math.inf)
    def test_matches_python(self, x):
        assert fixed4(x) == ("%.4f" % x).encode()

    def test_ties_and_their_neighbours(self):
        values = TIES + NEAR_TIES
        assert [fixed4(x) for x in values] == [("%.4f" % x).encode() for x in values]

    def test_one_array_of_mixed_values(self):
        # Python's strings widen every field of the array, and each value
        # keeps its own bytes
        rng = np.random.default_rng(3)
        values = np.concatenate([
            rng.uniform(-1e4, 1e4, 20000), rng.uniform(0.0, 1000.0, 20000),
            (rng.integers(0, 2 * 10**8, 20000) + 0.5) * 1e-4, TIES, NEAR_TIES,
            [-0.0, 1e300, -math.inf, math.nan, 5e-324, 9999.99995],
        ]).reshape(2, -1)
        fields = serialization._fixed4(values)
        assert fields.shape == values.shape + (len("%.4f" % 1e300),)
        got = [f[f != 0].tobytes().decode() for f in fields.reshape(-1, fields.shape[-1])]
        assert got == ["%.4f" % x for x in values.ravel().tolist()]

    @pytest.mark.parametrize("slow", [
        [], [1e4, -123456.78905], [0.03125, 999.99995], [math.nan, -0.0], [-math.inf, 1e300],
    ])
    def test_path_kernel_shape(self, slow):
        # the (x, y, r) stack of a block of cells: without a value for
        # Python's %.4f every field is 10 bytes; with one, all widen
        rng = np.random.default_rng(len(slow))
        values = rng.uniform(-20.0, 1000.0, (3, 37, 8))
        values.flat[rng.choice(values.size, len(slow), replace=False)] = slow
        fields = serialization._fixed4(values)
        width = max([10] + [len("%.4f" % x) for x in slow])
        assert fields.shape == (3, 37, 8, width)
        got = [f[f != 0].tobytes().decode() for f in fields.reshape(-1, width)]
        assert got == ["%.4f" % x for x in values.ravel().tolist()]


# the per-cell writer the path kernel replaced, kept as its byte oracle:
# one %-template per cell, with its side commands chosen per row
_PATH = '<path d="M %%.4f %%.4f %s Z" fill="none" stroke="#000000" stroke-width="0.5"/>'
_ARC = "A %.4f %.4f 0 0 %d %.4f %.4f"
_LINE = "L %.4f %.4f"


def _path_template(chords):
    """Path template of a cell whose sides ``chords`` are lines, and the
    columns of its row (x0, y0, then r, r, sweep, x, y per side) that fill it."""
    commands, columns = [], [0, 1]
    for k, chord in enumerate(chords):
        first = 2 + 5 * k
        commands.append(_LINE if chord else _ARC)
        columns += range(first + 3 if chord else first, first + 5)
    return _PATH % " ".join(commands), columns


def reference_pix(z):
    return 500.0 + 495.0 * np.real(z), 500.0 - 495.0 * np.imag(z)


def reference_arcs(x1, y1, x2, y2):
    """The arc formula as the per-cell writer used it, np.roll and all: the
    oracle's own copy, so that a bit moved by the kernel's shared
    differences shows in the bytes."""
    x3, y3 = np.roll(x1, -1, axis=1), np.roll(y1, -1, axis=1)
    d = 2.0 * (x1 * (y2 - y3) + x2 * (y3 - y1) + x3 * (y1 - y2))
    q1 = x1 * x1 + y1 * y1
    q2 = x2 * x2 + y2 * y2
    q3 = x3 * x3 + y3 * y3
    with np.errstate(divide="ignore", invalid="ignore"):
        ux = (q1 * (y2 - y3) + q2 * (y3 - y1) + q3 * (y1 - y2)) / d
        uy = (q1 * (x3 - x2) + q2 * (x1 - x3) + q3 * (x2 - x1)) / d
    r = np.hypot(x1 - ux, y1 - uy)
    cross = (x2 - x1) * (y3 - y2) - (y2 - y1) * (x3 - x2)
    return abs(d) < 1e-6, r, cross > 0.0


def reference_svg_text(vertices, midpoints):
    vertices, midpoints = np.asarray(vertices), np.asarray(midpoints)
    x, y = reference_pix(vertices)
    chord, r, sweep = reference_arcs(x, y, *reference_pix(midpoints))
    n, k = x.shape
    sides = np.stack([r, r, sweep, np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)], axis=-1)
    rows = np.concatenate([x[:, :1], y[:, :1], sides.reshape(n, 5 * k)], axis=1)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="1000" height="1000" viewBox="0 0 1000 1000">',
        '<circle cx="500.0" cy="500.0" r="495.0" fill="none" stroke="#999999" stroke-width="1"/>',
    ]
    for row, chords in zip(rows, chord):
        template, columns = _path_template(chords.tolist())
        lines.append(template % tuple(row[columns].tolist()))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def assert_same_svg(vertices, midpoints):
    # names the first differing line, without diffing megabytes of text
    got = svg_text(vertices, midpoints).splitlines()
    want = reference_svg_text(vertices, midpoints).splitlines()
    diff = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert diff is None, f"line {diff}: {got[diff]!r} != {want[diff]!r}"
    assert len(got) == len(want)
    return "\n".join(got) + "\n"


def tiling_arrays(a, alpha_tilde, radius=4):
    params = OctagonParams(a, alpha_tilde)
    return cells(ball(generators(params), radius), build_geometry(params))


class TestSVGAgainstTemplates:
    @pytest.mark.parametrize(
        "a, alpha_tilde",
        [*zip(*(x.tolist() for x in grid_arrays(3, 3, 0.02))), (2.0**-0.25, 0.0)],
    )
    def test_radius_four_over_the_domain(self, a, alpha_tilde):
        assert_same_svg(*tiling_arrays(a, alpha_tilde))

    @pytest.mark.parametrize("a, alpha_tilde", [(0.95, 0.5), (0.99, -0.7)])
    def test_chord_heavy_tilings(self, a, alpha_tilde):
        # thousands of cells mix lines and arcs, and whole cells are lines
        text = assert_same_svg(*tiling_arrays(a, alpha_tilde))
        assert text.count(" L ") > 5000
        assert len(re.findall(r'd="M [^A"]* Z"', text)) > 100

    def test_diameter_and_mixed_cells(self):
        geom = build_geometry(OctagonParams(0.8, math.pi / 12))
        vertices = np.array([geom.vertices, geom.vertices])
        midpoints = np.array([geom.midpoints, geom.midpoints])
        midpoints[1, 3] = 0.5 * (vertices[1, 3] + vertices[1, 4])
        assert " L " in assert_same_svg(vertices, midpoints)
        assert_same_svg(np.array([[-0.5 + 0j, 0.5 + 0j]]), np.array([[0j, 0j]]))

    def test_widened_fields(self):
        # a side bent by about 0.01 px has a radius above 1e4 px: Python's
        # %.4f writes it, and every field of the block widens
        geom = build_geometry(OctagonParams(0.8, math.pi / 12))
        vertices = np.array([geom.vertices, geom.vertices])
        midpoints = np.array([geom.midpoints, geom.midpoints])
        chord = vertices[1, 4] - vertices[1, 3]
        midpoints[1, 3] = 0.5 * (vertices[1, 3] + vertices[1, 4]) + 2e-5j * chord / abs(chord)
        text = assert_same_svg(vertices, midpoints)
        radius = re.findall(r" A (\S+) ", text.splitlines()[-2])[3]
        assert float(radius) >= 1e4

    def test_no_cells(self):
        empty = np.empty((0, 8), complex)
        assert "<path" not in assert_same_svg(empty, empty)

    def test_blocks_join_seamlessly(self, monkeypatch):
        vertices, midpoints = tiling_arrays(0.95, 0.5, radius=3)
        monkeypatch.setattr(serialization, "_BLOCK", 100)
        assert_same_svg(vertices, midpoints)

    @settings(max_examples=8, deadline=None)
    @given(st.floats(-0.02, 0.02), st.floats(-0.08, 0.08))
    def test_points_near_the_regular_octagon(self, da, dat):
        assert_same_svg(*tiling_arrays(2.0**-0.25 + da, dat))

    @settings(max_examples=8, deadline=None)
    @given(st.floats(-0.01, 0.01), st.floats(-0.05, 0.05))
    def test_chord_heavy_points(self, da, dat):
        text = assert_same_svg(*tiling_arrays(0.95 + da, 0.5 + dat))
        assert text.count(" L ") > 1000

    def test_a_last_block_of_one_all_chord_cell(self):
        # a tiny octagon, 1e-3 px across, whose sides all bend less than
        # the collinearity bar, drawn alone in the second block
        vertices, midpoints = tiling_arrays(0.95, 0.5)
        turn = np.exp(2j * np.pi * np.arange(8) / 8)
        tiny = 0.3 + 0.2j + 1e-6 * turn
        mid = 0.3 + 0.2j + 1e-6 * np.cos(np.pi / 8) * turn * np.exp(1j * np.pi / 8)
        vertices = np.concatenate([vertices[:512], [tiny]])
        midpoints = np.concatenate([midpoints[:512], [mid]])
        assert len(vertices) == serialization._BLOCK + 1
        text = assert_same_svg(vertices, midpoints)
        last = text.splitlines()[-2]
        assert last.count(" L ") == 8 and " A " not in last


def g17(x: float) -> bytes:
    """The %.17g kernel's bytes for one value, padding dropped."""
    field = serialization._g17(np.array([x]))[0]
    return field[field != 0].tobytes()


# powers of ten from 1e-6 to 1e17, their float neighbours, and the 17th
# digit's exact half-way ties, which %.17g rounds to even
POWERS = [10.0**k for k in range(-6, 18)]
NEAR_POWERS = [np.nextafter(x, d) for x in POWERS for d in (-math.inf, math.inf)]
G17_TIES = [1.00000762939453125, 100000000000000.125, 100000000000000.375,
            1000000000000000.25, 1000000000000000.75, 10000000000000.0625]


class TestG17:
    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-2.2250738585072014e-308)
    @example(2.225073858507201e-308)
    @example(1e-4)
    @example(-1e-4)
    @example(9.999999999999999e-05)
    @example(0.00010000000000000002)
    @example(99999999999999999.0)
    @example(99999999999999984.0)
    @example(9999999999999998.0)
    @example(1e16)
    @example(2.0**53)
    @example(2.0**53 - 1)
    @example(2.0**53 + 2)
    @example(-(2.0**53) + 1)
    @example(1e308)
    @example(1.7976931348623157e308)
    @example(math.nan)
    @example(math.inf)
    @example(-math.inf)
    def test_matches_python(self, x):
        assert g17(x) == ("%.17g" % x).encode()

    def test_powers_of_ten_and_neighbours(self):
        # where log10 can be one off, and where the fixed form ends
        values = POWERS + NEAR_POWERS + [-x for x in POWERS + NEAR_POWERS]
        assert [g17(x) for x in values] == [("%.17g" % x).encode() for x in values]

    def test_ties_round_half_to_even(self):
        for x in G17_TIES:
            e = math.floor(math.log10(x))
            assert (Fraction(x) * 10 ** (16 - e)).denominator == 2  # an exact tie
        values = G17_TIES + [np.nextafter(x, d) for x in G17_TIES for d in (-math.inf, math.inf)]
        assert [g17(x) for x in values] == [("%.17g" % x).encode() for x in values]
        assert g17(1000000000000000.25) == b"1000000000000000.2"

    def test_no_double_rounds_up_to_the_next_power_of_ten(self):
        # the kernel has no carry: below 10**(E + 1), E = -4..16, the largest
        # double lies more than half a unit of the 17th digit away
        for e in range(-4, 17):
            power = Fraction(10) ** (e + 1)
            x = float(power)
            if Fraction(x) >= power:
                x = math.nextafter(x, 0.0)
            assert round(Fraction(x) * Fraction(10) ** (16 - e)) < 10**17

    def test_one_array_of_mixed_values(self):
        rng = np.random.default_rng(17)
        values = np.concatenate([
            rng.standard_normal(20000) * 10.0 ** rng.integers(-8, 20, 20000),
            rng.uniform(-1.0, 1.0, 20000),
            np.frombuffer(rng.bytes(8 * 20000), np.float64),
            rng.integers(-10**17, 10**17, 2000).astype(float),
            POWERS, NEAR_POWERS, G17_TIES,
            [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308],
        ])
        values = values[: len(values) // 2 * 2].reshape(2, -1)
        fields = serialization._g17(values)
        assert fields.shape == values.shape + (24,)
        got = [f[f != 0].tobytes().decode() for f in fields.reshape(-1, 24)]
        assert got == ["%.17g" % x for x in values.ravel().tolist()]

    @pytest.mark.parametrize("a, alpha_tilde", [(2.0**-0.25, 0.0), (0.85, 0.03), (0.8209, -0.08)])
    def test_python_formats_only_zeros_and_the_exponent_form(self, monkeypatch, a, alpha_tilde):
        # on the benchmark's ball dumps, about 1% of the values (2% at the
        # regular point) are zeros or below 1e-4
        b = ball(generators(OctagonParams(a, alpha_tilde)), 4)
        values = np.stack([b.u.real, b.u.imag, b.v.real, b.v.imag])
        formatted = []
        monkeypatch.setattr(serialization, "format_float", lambda x: formatted.append(x) or "%.17g" % x)
        serialization._g17(values)
        small = (np.abs(values) < 1e-4).sum()
        assert len(formatted) == small
        assert small / values.size < 0.025


def reference_csv_text(header, rows):
    """The row-wise writer csv_text replaced, kept as its byte oracle: cells
    formatted one at a time and written by the csv module.  Each row is
    written with a "\\r\\n" terminator, so that the csv module quotes a cell
    holding "\\r" as well as one holding "\\n", and then ended with "\\n"."""
    lines = []
    for row in [list(header)] + [
        [f"{float(x):.17g}" if isinstance(x, float) else str(x) for x in row] for row in rows
    ]:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines)


def assert_same_csv(header, columns):
    text = csv_text(header, columns)
    assert text == reference_csv_text(header, zip(*columns))
    return text


# Python cells of every kind csv_text meets, NUL and lone surrogates aside
CELL_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"))
PYTHON_CELLS = st.one_of(
    st.floats(), st.integers(), st.booleans(), st.none(), CELL_TEXT,
    st.sampled_from([",", '"', "\r", "\n", "a,b", 'say "hi"', "", "x\r\ny"]),
    st.floats(width=32).map(np.float32), st.floats().map(np.float64),
)


@st.composite
def tables(draw):
    rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.booleans(), max_size=4))
    header = draw(st.lists(CELL_TEXT, min_size=len(kinds), max_size=len(kinds)))
    columns = [
        np.array(draw(st.lists(st.floats(), min_size=rows, max_size=rows)), dtype=float)
        if array else draw(st.lists(PYTHON_CELLS, min_size=rows, max_size=rows))
        for array in kinds
    ]
    return header, columns


class TestCSVAgainstReference:
    @given(tables())
    def test_random_tables(self, table):
        assert_same_csv(*table)

    @pytest.mark.parametrize("cell", [",", '"', "\r", "\n", "a,b", 'a"b', "a\r\nb", "", " x "])
    def test_quoting(self, cell):
        assert_same_csv([cell, "x"], [[cell, "y", cell], np.array([0.5, -1.0, 1e-5])])
        assert_same_csv([cell], [[cell, "y", cell]])

    @pytest.mark.parametrize("floats", [False, True])
    def test_bare_carriage_return_reads_back(self, floats):
        # the csv module's "\\n"-terminated writer leaves this cell unquoted,
        # and csv.reader then refuses the file
        column = np.array([0.5]) if floats else ["z"]
        text = csv_text(("a", "b"), (["x\ry"], column))
        assert list(csv.reader(io.StringIO(text, newline=""))) == [
            ["a", "b"], ["x\ry", "0.5" if floats else "z"]]

    @pytest.mark.parametrize("words", [
        ["a", "é", "日本", "\U0001d538x", ""],
        ["a", "b,c", "", "d"],
        ['say "hi"', "é", "x"],
        ["a\rb", "c\nd", "e\r\nf", "日"],
    ])
    def test_str_columns(self, words):
        # a column of str cells, beside float columns and alone
        floats = np.linspace(-1.0, 1.0, len(words))
        assert_same_csv(["w", "x"], [words, floats])
        assert_same_csv(["w", "v", "x"], [tuple(words), words[::-1], floats])
        assert_same_csv(["w"], [words])
        with pytest.raises(ValueError, match="NUL"):
            csv_text(["w", "x"], [[*words[:-1], "a\0"], floats])
        with pytest.raises(ValueError, match="NUL"):
            csv_text(["w"], [["\0", *words]])

    def test_one_empty_cell_alone_in_its_row(self):
        assert assert_same_csv(["w"], [["", "a", ""]]) == 'w\n""\na\n""\n'
        assert assert_same_csv([""], [["a"]]) == '""\na\n'
        assert_same_csv(["w", "x"], [["", "a"], np.array([1.0, 2.0])])

    def test_cell_kinds(self):
        cells = [None, True, False, 3, -7, np.int64(5), np.float32(0.1), np.float64(0.1),
                 -0.0, 0.0, 1e-300, math.inf, math.nan, "text"]
        assert_same_csv(["cell", "x"], [cells, np.linspace(-1.0, 1.0, len(cells))])
        assert_same_csv(["cell"], [cells])

    def test_empty_tables(self):
        assert assert_same_csv([], []) == "\n"
        assert_same_csv(["a", "b"], [[], np.empty(0)])

    @pytest.mark.parametrize("a, alpha_tilde", [(2.0**-0.25, 0.0), (0.95, 0.5)])
    def test_ball_dump(self, a, alpha_tilde):
        b = ball(generators(OctagonParams(a, alpha_tilde)), 4)
        columns = (b.shortlex, b.u.real, b.u.imag, b.v.real, b.v.imag)
        text = assert_same_csv(("word", "u_re", "u_im", "v_re", "v_im"), columns)
        assert text.count("\n") == 3194

    def test_blocks_join_seamlessly(self, monkeypatch):
        b = ball(generators(OctagonParams(0.95, 0.5)), 3)
        monkeypatch.setattr(serialization, "_ROWS", 100)
        assert_same_csv(("word", "u_re", "v_im"), (b.shortlex, b.u.real, b.v.imag))
