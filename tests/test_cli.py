import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import teich2
from teich2 import cli, group
from teich2.cli import run
from teich2.group import BALL_SIZES, GeneratorSet

A_ARGS = ["--a", "0.8", "--alpha-tilde", str(math.pi / 12)]


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOctagonCommand:
    def test_json_payload(self, capsys):
        code, out, _ = run_capture(capsys, ["octagon", *A_ARGS])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "teich2/v1"
        assert abs(doc["perimeter"]["closed_form"] - 27.023328706074827) < 1e-12
        assert abs(doc["params"]["b"] - 0.91506350946109662) < 1e-14
        assert len(doc["vertices"]) == 8

    def test_alpha_flag_equivalent(self, capsys):
        alpha = math.pi / 4 + math.pi / 12
        code, out, _ = run_capture(capsys, ["octagon", "--a", "0.8", "--alpha", str(alpha)])
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["params"]["alpha_tilde"] - math.pi / 12) < 1e-15

    def test_csv_format(self, capsys):
        code, out, _ = run_capture(capsys, ["octagon", *A_ARGS, "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("beta,1.146421674562") for line in lines)

    def test_svg_format(self, capsys):
        code, out, _ = run_capture(capsys, ["octagon", *A_ARGS, "--format", "svg"])
        assert code == 0
        assert out.startswith("<?xml")

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_capture(capsys, ["octagon", *A_ARGS])
        _, out2, _ = run_capture(capsys, ["octagon", *A_ARGS])
        assert out1 == out2


class TestErrorHandling:
    def test_domain_error_exit_3(self, capsys):
        code, out, err = run_capture(capsys, ["octagon", "--a", "0.5", "--alpha-tilde", "0"])
        assert code == 3
        assert "domain error" in err
        assert json.loads(out)["error"]["type"] == "OutOfDomainError"

    def test_domain_error_csv_has_no_json_object(self, capsys):
        code, out, _ = run_capture(
            capsys, ["octagon", "--a", "0.5", "--alpha-tilde", "0", "--format", "csv"]
        )
        assert code == 3
        assert out == ""

    def test_missing_angle_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["octagon", "--a", "0.8"])
        assert exc.value.code == 2

    def test_exclusive_angle_flags(self):
        with pytest.raises(SystemExit) as exc:
            run(["octagon", *A_ARGS, "--alpha", "1.0"])
        assert exc.value.code == 2

    def test_bad_tolerance_name_exits_2(self, capsys):
        code, _, err = run_capture(capsys, ["validate", "--tolerance", "bogus=1"])
        assert code == 2
        assert "argument error" in err

    def test_orbit_below_regular_exits_3(self, capsys):
        code, _, err = run_capture(capsys, ["orbit", "--P", "20"])
        assert code == 3
        assert "domain error" in err

    @pytest.mark.parametrize("p_min, p_max", [("500", "501"), ("200", "201")])
    def test_area_quadrature_breakdown_exits_5(self, capsys, p_min, p_max):
        # 500: the integrand overflows to inf; 201: quad does not converge
        code, out, err = run_capture(capsys, ["area", "--p-min", p_min, "--p-max", p_max])
        assert code == 5
        assert len(err.splitlines()) == 1
        assert err.startswith("teich2: numerical error:")
        assert "inf" not in out

    def test_area_overflow_stderr_is_one_line(self):
        # a fresh interpreter shows numpy's RuntimeWarnings, which pytest captures
        src = str(Path(teich2.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run(
            [sys.executable, "-m", "teich2", "area", "--p-min", "500", "--p-max", "501"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 5
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("teich2: numerical error:")


class TestGroupCommand:
    def test_json_payload(self, capsys):
        code, out, _ = run_capture(capsys, ["group", *A_ARGS, "--samples", "50"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["generators"]) == 4
        assert doc["relation"]["sign"] == 1
        assert doc["relation"]["defect"] < 1e-9
        assert doc["side_pairing"]["interior_violations"] == 0
        assert all(g["class"] == "hyperbolic" for g in doc["generators"])


class TestFnCommand:
    def test_json_payload(self, capsys):
        code, out, _ = run_capture(capsys, ["fn", *A_ARGS])
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["unprimed"]["lengths"][0] - 2.3558569217315251) < 1e-12
        assert abs(doc["primed"]["lengths"][0] - 4.6443080241811216) < 1e-12
        assert abs(doc["wp"]["coefficient"] - 91.517142985189263) < 1e-10
        assert doc["wp"]["fd_relative_error"] < 1e-5

    def test_dt_residuals_relative_near_boundary(self, capsys):
        # d_3 is about 2e4 here, off by 1.8e-7 absolute and ~1e-11 relative
        argv = ["fn", "--a", "0.995", "--alpha-tilde", "-0.33224804589778684"]
        code, out, _ = run_capture(capsys, argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["unprimed"]["d"][2] > 1e4
        for label in ("unprimed", "primed"):
            assert all(0.0 <= r <= 1e-9 for r in doc[label]["dt_residuals"])

    def test_fd_step_flag(self, capsys):
        code, out, _ = run_capture(capsys, ["fn", *A_ARGS, "--fd-step", "1e-6"])
        assert code == 0
        assert json.loads(out)["wp"]["fd_step"] == 1e-6


class TestOrbitCommand:
    def test_csv_rows(self, capsys):
        code, out, _ = run_capture(capsys, ["orbit", "--P", "25", "--samples", "16"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "phi,a,alpha_tilde,P_check"
        assert len(lines) == 17
        p_checks = [float(line.split(",")[3]) for line in lines[1:]]
        assert max(abs(p - 25.0) for p in p_checks) < 1e-7

    def test_large_perimeter_through_phi_zero(self, capsys):
        # at phi = 0 the orbit formula's denominator cancels to 0 at P = 200
        code, out, _ = run_capture(capsys, ["orbit", "--P", "200", "--samples", "4"])
        assert code == 0
        rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]
        assert len(rows) == 4
        assert rows[0][0] == 0.0 and rows[0][2] == 0.0
        assert abs(rows[0][3] - 200.0) / 200.0 < 1e-8
        # elsewhere b sits ~1e-11 below 1, so rounding of the point sets P_check
        assert max(abs(row[3] - 200.0) for row in rows) / 200.0 < 1e-6

    def test_default_perimeter_set(self, capsys):
        code, out, _ = run_capture(capsys, ["orbit", "--samples", "4", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert [o["p_target"] for o in doc["orbits"]] == [25.0, 27.0, 29.0, 31.0,
                                                          33.0, 35.0, 37.0, 39.0, 41.0]


class TestAreaCommand:
    def test_json_fit(self, capsys):
        code, out, _ = run_capture(
            capsys, ["area", "--p-max", "30", "--step", "1", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["fit"]["c2"] > 0
        assert doc["table"][0]["area"] < 1e-10

    def test_csv_table(self, capsys):
        code, out, err = run_capture(capsys, ["area", "--p-max", "27", "--step", "1"])
        assert code == 0
        assert out.splitlines()[0] == "P,area"
        assert "fit:" in err


class TestTilingCommand:
    def test_csv_ball(self, capsys):
        code, out, _ = run_capture(capsys, ["tiling", *A_ARGS, "-n", "1"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "word,u_re,u_im,v_re,v_im"
        assert len(lines) == 10

    def test_svg_tile_count(self, capsys):
        code, out, _ = run_capture(capsys, ["tiling", *A_ARGS, "-n", "2", "--format", "svg"])
        assert code == 0
        assert out.count("<path") == BALL_SIZES[2]

    def test_vertices_sidecar(self, capsys, tmp_path):
        path = tmp_path / "cells.csv"
        code, out, _ = run_capture(
            capsys, ["tiling", *A_ARGS, "-n", "1", "--vertices", str(path)]
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "word,k,x,y"
        assert len(lines) == 1 + 9 * 8

    def test_json_counts(self, capsys):
        code, out, _ = run_capture(capsys, ["tiling", *A_ARGS, "-n", "2", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == BALL_SIZES[2]
        assert doc["relation_sign"] == 1

    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    def test_ball_built_once(self, capsys, monkeypatch, tmp_path, fmt):
        calls = []
        real_ball = group.ball
        counted = lambda gens, n: calls.append(n) or real_ball(gens, n)  # noqa: E731
        monkeypatch.setattr(cli, "ball", counted)
        monkeypatch.setattr(group, "ball", counted)  # what cells() calls
        code, _, _ = run_capture(
            capsys,
            ["tiling", *A_ARGS, "-n", "1", "--format", fmt,
             "--vertices", str(tmp_path / "cells.csv")],
        )
        assert code == 0
        assert calls == [1]

    def test_radius_five_whole_ball(self, capsys):
        code, out, _ = run_capture(
            capsys, ["tiling", "--a", "0.8", "--alpha-tilde", "0.2", "-n", "5"]
        )
        assert code == 0
        assert len(out.splitlines()) == 1 + BALL_SIZES[5]

    @pytest.mark.parametrize(
        "point, radius, needle",
        [
            (["--a", "0.8", "--alpha-tilde", "0.2"], "-1", "radius must be in 0..6"),
            (["--a", "0.8", "--alpha-tilde", "0.2"], "7", "radius must be in 0..6"),
            (["--a", "0.9905482311121936", "--alpha-tilde", "-0.7527861665680812"], "4",
             "radius-4 ball at a=0.9905482311121936, alpha_tilde=-0.7527861665680812: |u| = "),
        ],
    )
    def test_refusals_exit_2(self, capsys, monkeypatch, point, radius, needle):
        if radius != "4":
            # the radius bound is checked before any product is formed
            monkeypatch.setattr(GeneratorSet, "letters", lambda self: pytest.fail("enumerated"))
        code, out, err = run_capture(capsys, ["tiling", *point, "-n", radius])
        assert code == 2
        assert out == ""
        assert err.startswith("teich2: argument error: ")
        assert needle in err
        assert len(err.splitlines()) == 1


class TestValidateCommand:
    def test_small_grid_passes(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, err = run_capture(
            capsys, ["validate", "--grid", "4", "4", "-o", str(path)]
        )
        assert code == 0
        report = json.loads(path.read_text())
        assert report["passed"]
        assert report["points"] == 16
        assert "relation_defect" in err

    def test_tolerance_override_can_fail(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["validate", "--grid", "3", "3",
             "--tolerance", "orbit_constancy=1e-30"],
        )
        assert code == 4
        assert not json.loads(out)["passed"]
