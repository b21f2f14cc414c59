import json
import math
import re

import numpy as np
import pytest

from teich2.group import BALL_SIZES, ball, cells, generators
from teich2.octagon import OctagonParams, build_geometry
from teich2.serialization import (
    SCHEMA,
    csv_text,
    emit_csv,
    emit_json,
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
        assert csv_text(["a", "b"], []) == "a,b\n"

    def test_lf_endings_and_digits(self):
        text = csv_text(["x"], [[1.0 / 3.0]])
        assert "\r" not in text
        assert text == "x\n0.33333333333333331\n"

    def test_mixed_cell_types(self):
        text = csv_text(["w", "n", "x"], [["ab", 3, 0.5]])
        assert text.splitlines()[1] == "ab,3,0.5"

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(str(path), ["x", "y"], [[0.1, 0.2], [0.3, 0.4]])
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "x,y"
        assert [float(v) for v in lines[1].split(",")] == [0.1, 0.2]


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

    def test_file_write(self, tmp_path):
        path = tmp_path / "out.json"
        emit_json(str(path), {"a": 1})
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
        tiles = cells(ball(generators(self.params), 1), self.geom)
        text = svg_text(tiles.vertices, tiles.midpoints)
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
        tiles = cells(ball(generators(self.params), 1), self.geom)
        text = svg_text(tiles.vertices, tiles.midpoints)
        assert svg_text(tiles.vertices, tiles.midpoints) == text
