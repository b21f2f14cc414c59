import hashlib
import json
import math
import re

import pytest
from conftest import run_fresh
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import teich2
from teich2 import cli, group
from teich2 import isoperimetric as iso
from teich2.cli import run
from teich2.group import BALL_SIZES
from teich2.octagon import _domain_error, lower_a
from teich2.validation import DEFAULT_TOLERANCES

A_ARGS = ["--a", "0.8", "--alpha-tilde", str(math.pi / 12)]


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# runs teich2.cli.run on each argv in a fresh interpreter; prints the exit
# codes, the scipy modules then loaded and whether wp_area's QUADPACK
# extension is loaded, as JSON
COLD_START = """
import json, os, sys
import teich2, teich2.cli
argvs = json.loads(sys.argv[1])
codes = [teich2.cli.run([*argv, "-o", os.devnull]) for argv in argvs]
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy, "quadpack": "teich2._quadpack" in sys.modules}))
"""


def cold_start(argvs):
    proc = run_fresh(["-c", COLD_START, json.dumps(argvs)])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


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


# one row per case: argv ({tmp} is a fresh directory), exit code, a regex the
# whole of stderr must match (so "." stays within one line), and what stdout
# holds: "payload" (a result), "error" (the JSON error object) or "" (nothing)
EXIT_CODES = [
    (["octagon", *A_ARGS], 0, "", "payload"),
    (["fn", "--a", "0.95", "--alpha-tilde", "0", "--margin", "0.04"], 0, "", "payload"),
    (["octagon", *A_ARGS, "-o", "{tmp}/missing/x.json"], 1,
     r"teich2: i/o error: .*No such file or directory.*\n", ""),
    (["octagon", "--a", "0.8"], 2,
     r"usage: (?s:.*)teich2 octagon: error: one of the arguments --alpha --alpha-tilde "
     r"is required\n", ""),
    (["orbit", "--samples", "0"], 2,
     r"teich2: argument error: need at least one sample, got 0\n", ""),
    (["group", *A_ARGS, "--samples", "-3"], 2,
     r"teich2: argument error: sample count must be >= 0, got -3\n", ""),
    (["octagon", *A_ARGS, "--margin", "0.5"], 2,
     r"teich2: argument error: margin must lie in \[0, 0.2\], got 0.5\n", ""),
    (["validate", "--tolerance", "bogus=1"], 2,
     r"teich2: argument error: unknown tolerance names: \['bogus'\]\n", ""),
    (["octagon", "--a", "0.5", "--alpha-tilde", "0"], 3,
     r"teich2: domain error: lower_a: value 0.5 violates bound 0.7071067811865475\n", "error"),
    (["octagon", "--a", "0.5", "--alpha-tilde", "0", "-o", "{tmp}/missing/x.json"], 3,
     r"teich2: domain error: lower_a: value 0.5 violates bound 0.7071067811865475\n", "error"),
    (["fn", "--a", "0.95", "--alpha-tilde", "0", "--margin", "0.06"], 3,
     r"teich2: domain error: upper_a: value 0.95 violates bound 0.94\n", "error"),
    (["octagon", "--a", "0.8", "--alpha", "1.55", "--margin", "0.05"], 3,
     r"teich2: domain error: alpha_range: value 0.7646018366025518 violates bound "
     r"0.7353981633974482\n", "error"),
    (["orbit", "--P", "20"], 3, r"teich2: domain error: .*\n", ""),
    (["validate", "--grid", "3", "3", "--tolerance", "orbit_constancy=1e-30"], 4,
     r"((ok  |FAIL) .*\n)+", "payload"),
    (["area", "--p-min", "500", "--p-max", "501"], 5,
     r"teich2: numerical error: .*\n", ""),
    (["fn", "--a", "0.7072", "--alpha-tilde", "1e-9"], 0, "", "payload"),
    (["area", "--step", "0"], 2,
     r"teich2: argument error: step must be finite and positive, got 0.0\n", ""),
    (["validate", "--grid", "2", "2", "--margin", "-0.1"], 2,
     r"teich2: argument error: margin must lie in \[0, 0.2\], got -0.1\n", ""),
    (["validate", "--grid", "2", "2", "--margin", "nan"], 2,
     r"teich2: argument error: margin must lie in \[0, 0.2\], got nan\n", ""),
    (["orbit", "--P", "nan"], 2,
     r"teich2: argument error: perimeter must be finite, got nan\n", ""),
    (["orbit", "--P", "inf"], 2,
     r"teich2: argument error: perimeter must be finite, got inf\n", ""),
    (["orbit", "--P", "10000", "--samples", "2"], 5,
     r"teich2: numerical error: E = 2\(cosh\(P/8\) \+ 1\) overflows at P = 10000.0\n", ""),
    (["orbit", "--P", "5000"], 5, r"teich2: numerical error: E\^2 overflows at E = .*\n", ""),
    (["octagon", "--a", "nan", "--alpha-tilde", "0"], 2,
     r"teich2: argument error: parameters must be finite, got nan, 0.0\n", ""),
    (["fn", "--a", "0.8", "--alpha-tilde", "inf"], 2,
     r"teich2: argument error: parameters must be finite, got 0.8, inf\n", ""),
    (["area", "--p-max", "inf"], 2,
     r"teich2: argument error: perimeters must be finite, got .*, inf\n", ""),
    (["validate", "--tolerance", "relation_defect=nan"], 2,
     r"teich2: argument error: tolerance relation_defect must be finite and >= 0, "
     r"got nan\n", ""),
    (["validate", "--tolerance", "relation_defect=-1"], 2,
     r"teich2: argument error: tolerance relation_defect must be finite and >= 0, "
     r"got -1.0\n", ""),
    # near the corner the relation word's residual measures its breakdown
    (["validate", "--margin", "1e-6"], 4,
     r"FAIL relation_defect .*\n((ok  |FAIL) .*\n)+", "payload"),
    # c^2 - 1 = 0 in dt_residuals
    (["fn", "--a", "0.7401651556654594", "--alpha-tilde", "0.3"], 5,
     r"teich2: numerical error: float division by zero "
     r"at --a 0\.7401651556654594 --alpha-tilde 0\.3\n", ""),
    (["orbit", "--P", "300", "--samples", "4"], 5,
     r"teich2: numerical error: orbit point at phi = 1.5707963267948966 rounds out of the "
     r"domain: lower_a: value 0.8660254037844385 violates bound 0.8660254037844385\n", ""),
    (["tiling", "--a", "0.995099525262749", "--alpha-tilde", "-0.7740075264130591", "-n", "4"], 2,
     r"teich2: argument error: radius-4 ball: element '[aAbBcCdD]{4}' is past the float64 "
     r"precision limit \(SU\(1,1\) pair: \|u\|\^2-\|v\|\^2 = \S+ has drifted from 1\)\n",
     ""),
    (["validate", "--grid", "-1", "5"], 2,
     r"teich2: argument error: grid -1 x 5 has no points\n", ""),
    # more rows than numpy can index (1e-300) or allocate (1e-17: about 71 PiB)
    (["area", "--p-min", "41", "--p-max", "41.1", "--step", "1e-300"], 2,
     r"teich2: argument error: step 1e-300 gives too many rows over \[41.0, 41.1\]\n", ""),
    (["area", "--p-min", "41", "--p-max", "41.1", "--step", "1e-17"], 2,
     r"teich2: argument error: step 1e-17 gives too many rows over \[41.0, 41.1\]\n", ""),
    # arrays of about 7 TiB, which numpy refuses at once
    (["orbit", "--samples", "1000000000000", "-o", "{tmp}/missing"], 2,
     r"teich2: argument error: Unable to allocate .*\n", ""),
    (["validate", "--grid", "1000000", "1000000", "-o", "{tmp}/missing"], 2,
     r"teich2: argument error: Unable to allocate .*\n", ""),
    # at the corner a = 1, alpha_tilde = pi/4, 1 - |omega+|^2 rounds below 0
    (["octagon", "--a", "0.999999", "--alpha-tilde", "0.7853961633914485"], 5,
     r"teich2: numerical error: side midpoints: 1 - \|omega\|\^2 = -\S+ is not > 0 "
     r"at --a 0\.999999 --alpha-tilde 0\.7853961633914485\n", ""),
    (["validate", "--tolerance", "relation_defect"], 2,
     r"teich2: argument error: expected NAME=VALUE, got 'relation_defect'\n", ""),
    # one ulp above the lower bound of a, 2a^2 cos^2(at) - 1 rounds to 0
    (["octagon", "--a", "0.8567505974692862", "--alpha-tilde", "0.6"], 5,
     r"teich2: numerical error: float division by zero "
     r"at --a 0\.8567505974692862 --alpha-tilde 0\.6\n", ""),
    (["tiling", "--a", "0.7214885163659666", "--alpha-tilde", "-0.2", "-n", "1"], 5,
     r"teich2: numerical error: sqrt\(-\S+\): math domain error "
     r"at --a 0\.7214885163659666 --alpha-tilde -0\.2\n", ""),
    # there the conjugate point's b rounds to 1
    (["fn", "--a", "0.7214885163659666", "--alpha-tilde", "-0.2"], 5,
     r"teich2: numerical error: [^\n]+ at --a 0\.7214885163659666 --alpha-tilde -0\.2\n", ""),
    # 2a/(1 + a^2) rounds to 1, and the half turn about it has no value
    (["fn", "--a", "0.999999999", "--alpha", str(math.pi / 4)], 5,
     r"teich2: numerical error: half turn: 1 - \|omega\|\^2 = 0\.0 is not > 0 "
     r"at --a 0\.999999999 --alpha 0\.7853981633974483\n", ""),
    # 2a/(1 + a^2) rounds to 1 at the grid's last a, and its half turn has no value
    (["validate", "--margin", "1e-9"], 5,
     r"teich2: numerical error: point_block at grid point a=0\.999999999, "
     r"alpha_tilde=-?0\.\d+: half turn: 1 - \|omega\|\^2 = 0\.0 is not > 0\n", ""),
    (["validate", "--margin", "1e-12"], 5,
     r"teich2: numerical error: point_block at grid point a=0\.999999999999, "
     r"alpha_tilde=-?0\.\d+: half turn: 1 - \|omega\|\^2 = 0\.0 is not > 0\n", ""),
    (["validate", "--margin", "0"], 2,
     r"teich2: argument error: margin 0\.0 puts a grid row's first a, lower_a \+ margin, on "
     r"the excluded bound lower_a\n", ""),
    # below half an ulp of lower_a, lower_a + margin rounds back onto the bound
    (["validate", "--margin", "5e-17"], 2,
     r"teich2: argument error: margin 5e-17 puts a grid row's first a, lower_a \+ margin, on "
     r"the excluded bound lower_a\n", ""),
]


@pytest.mark.parametrize(
    "argv, code, err, out", EXIT_CODES,
    ids=[f"{code}-{argv[0]}-{k}" for k, (argv, code, _, _) in enumerate(EXIT_CODES)],
)
def test_exit_code_table(capsys, tmp_path, argv, code, err, out):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    try:
        got = run(argv)
    except SystemExit as exc:  # argparse reports bad flags itself
        got = exc.code
    captured = capsys.readouterr()
    assert got == code
    assert re.fullmatch(err, captured.err), captured.err
    if out == "error":
        doc = json.loads(captured.out)
        assert set(doc) == {"schema", "error"}
        assert doc["error"]["type"] == "OutOfDomainError"
        assert f'teich2: domain error: {doc["error"]["message"]}\n' == captured.err
    elif out == "payload":
        assert "error" not in json.loads(captured.out)
    else:
        assert captured.out == ""
    assert not (tmp_path / "missing").exists()


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

    def test_margin_checks_the_given_point_only(self, capsys):
        # the conjugate (0.744.., 0) of (0.95, 0) is nearer the boundary than 0.04
        base = ["fn", "--a", "0.95", "--alpha-tilde", "0"]
        for fmt in ("json", "csv"):
            plain = run_capture(capsys, [*base, "--format", fmt])
            with_margin = run_capture(capsys, [*base, "--margin", "0.04", "--format", fmt])
            assert plain[0] == 0
            assert with_margin == plain

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
        proc = run_fresh(["-m", "teich2", "area", "--p-min", "500", "--p-max", "501"])
        assert proc.returncode == 5
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("teich2: numerical error:")


def _edge_a(at, edge):
    """a one or two ulps above its lower bound, one ulp below 1, or at 1 - 1e-9."""
    up = math.nextafter(lower_a(at), 1.0)
    return {"lower+1": up, "lower+2": math.nextafter(up, 1.0),
            "upper-1": math.nextafter(1.0, 0.0), "upper-1e-9": 1.0 - 1e-9}[edge]


EDGE_COMMANDS = (("octagon",), ("group",), ("fn",),
                 ("tiling", "-n", "2", "--format", "csv"),
                 ("tiling", "-n", "2", "--format", "svg"))


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.floats(-math.pi / 4, math.pi / 4), st.sampled_from(("lower+1", "lower+2",
       "upper-1", "upper-1e-9")), st.sampled_from(EDGE_COMMANDS))
@example(0.6, "lower+1", ("octagon",))
@example(-0.2, "lower+1", ("fn",))
@example(0.0, "upper-1e-9", ("fn",))
@example(-0.2, "lower+1", ("tiling", "-n", "2", "--format", "csv"))  # a math domain error
@example(0.3, "lower+1", ("fn",))  # a product of SU(1,1) maps that rounding broke
def test_edge_points_print_numbers_or_a_typed_error(capsys, at, edge, command):
    # at in-domain points next to the boundary the float forms can divide by
    # a rounded 0 or meet a math domain error: exit 5, never a traceback
    a = _edge_a(at, edge)
    if _domain_error(a, at, 0.0) is not None:
        return
    code, out, err = run_capture(capsys, [*command, "--a", repr(a), f"--alpha-tilde={at!r}"])
    if code == 0:
        assert err == ""
        return
    assert out == "" and len(err.splitlines()) == 1, err
    if code == 2:  # the ball's documented refusal past float64 precision
        assert command[0] == "tiling" and "past the float64 precision limit" in err, err
    else:
        assert code == 5 and err.startswith("teich2: numerical error: "), err
        assert err.endswith(f" at --a {a!r} --alpha-tilde {at!r}\n"), err


class TestRepeatedRuns:
    """Many run calls in one process share one parser and leak no state."""

    def test_tolerance_override_does_not_stick(self, capsys):
        code, _, _ = run_capture(
            capsys, ["validate", "--grid", "3", "3", "--tolerance", "orbit_constancy=1e-30"]
        )
        assert code == 4
        code, out, _ = run_capture(capsys, ["validate", "--grid", "3", "3"])
        assert code == 0
        tols = {c["name"]: c["tolerance"] for c in json.loads(out)["checks"]}
        assert tols["orbit_constancy"] == DEFAULT_TOLERANCES["orbit_constancy"]

    def test_perimeters_do_not_stick(self, capsys):
        code, _, _ = run_capture(capsys, ["orbit", "--P", "30", "--samples", "4"])
        assert code == 0
        code, out, _ = run_capture(capsys, ["orbit", "--samples", "4"])
        assert code == 0
        p_checks = [float(line.split(",")[3]) for line in out.splitlines()[1:]]
        assert tuple(round(p, 6) for p in p_checks[::4]) == iso._ORBIT_PERIMETERS

    def test_query_after_argparse_rejection_matches_cold_run(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["octagon", "--alpha-tilde", "0"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(["octagon", *A_ARGS, "-o", str(tmp_path / "warm.json")]) == 0
        proc = run_fresh(["-m", "teich2", "octagon", *A_ARGS, "-o", str(tmp_path / "cold.json")])
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "warm.json").read_bytes() == (tmp_path / "cold.json").read_bytes()

    def test_run_does_not_rebuild_the_parser(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_build_parser", lambda: pytest.fail("parser rebuilt"))
        code, out, _ = run_capture(capsys, ["octagon", *A_ARGS])
        assert code == 0
        assert len(json.loads(out)["vertices"]) == 8


class TestColdStart:
    def test_query_commands_do_not_load_scipy(self):
        # only the area quadrature needs scipy, for its QUADPACK extension
        argvs = [["octagon", *A_ARGS], ["group", *A_ARGS], ["fn", *A_ARGS],
                 ["orbit"], ["tiling", *A_ARGS, "-n", "3"]]
        result = cold_start(argvs)
        assert result == {"codes": [0] * len(argvs), "scipy": [], "quadpack": False}

    def test_import_does_not_load_the_quadrature(self):
        assert cold_start([]) == {"codes": [], "scipy": [], "quadpack": False}

    def test_area_and_validate_do_not_load_scipy_integrate(self):
        # wp_area loads QUADPACK's extension on first use, by its file;
        # scipy.integrate would map about 355 scipy modules
        result = cold_start([["area", "--p-max", "30"], ["validate"]])
        assert result["codes"] == [0, 0]
        assert result["quadpack"]
        heavy = ("scipy.integrate", "scipy.special", "scipy.sparse", "scipy.linalg")
        assert [m for m in result["scipy"] if m.startswith(heavy)] == []


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

    def test_generator_pairs_written_as_complex(self, capsys):
        # at one point the closed forms give g0 a real u, a float; the payload
        # writes each u and v as a complex number all the same
        argv = ["group", "--a", "0.95", "--alpha-tilde", "-0.5", "--samples", "0"]
        assert type(group.generators(teich2.OctagonParams(0.95, -0.5))[0][0]) is float
        code, out, _ = run_capture(capsys, argv)
        assert code == 0
        for g in json.loads(out)["generators"]:
            assert all(isinstance(g[part], list) and len(g[part]) == 2 for part in "uv")
        code, out, _ = run_capture(capsys, [*argv, "--format", "csv"])
        assert code == 0
        keys = {line.split(",")[0] for line in out.splitlines()}
        assert {f"generators[{k}].{part}.{c}" for k in range(4) for part in "uv"
                for c in ("re", "im")} <= keys


class TestFnCommand:
    def test_json_payload(self, capsys):
        code, out, _ = run_capture(capsys, ["fn", *A_ARGS])
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["unprimed"]["lengths"][0] - 2.3558569217315251) < 1e-12
        assert abs(doc["primed"]["lengths"][0] - 4.6443080241811216) < 1e-12
        assert abs(doc["wp"]["coefficient"] - 91.517142985189263) < 1e-10
        assert doc["wp"]["fd_relative_error"] < 1e-14

    def test_dt_residuals_relative_near_boundary(self, capsys):
        # d_3 is about 2e4 here, off by 1.8e-7 absolute and ~1e-11 relative
        argv = ["fn", "--a", "0.995", "--alpha-tilde", "-0.33224804589778684"]
        code, out, _ = run_capture(capsys, argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["unprimed"]["d"][2] > 1e4
        for label in ("unprimed", "primed"):
            assert all(0.0 <= r <= 1e-9 for r in doc[label]["dt_residuals"])


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
        code, _, _ = run_capture(
            capsys,
            ["tiling", *A_ARGS, "-n", "1", "--format", fmt,
             "--vertices", str(tmp_path / "cells.csv")],
        )
        assert code == 0
        assert calls == [1]

    def test_svg_golden_digest(self, capsys):
        # sha256 of the SVG written by the element-by-element tiling on x86-64
        # Linux; the batched arcs and templates must keep every byte
        code, out, _ = run_capture(
            capsys,
            ["tiling", "--a", "0.85", "--alpha-tilde", "0.03", "-n", "3", "--format", "svg"],
        )
        assert code == 0
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == "d42e39008858be64ff05cfb6ce12b653cc1abe3fb47d18550edec53ae2c1f3aa"

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
        ],
    )
    def test_refusals_exit_2(self, capsys, monkeypatch, point, radius, needle):
        # the radius bound is checked before any word is enumerated
        monkeypatch.setattr(group._TREE, "grow", lambda n: pytest.fail("enumerated"))
        code, out, err = run_capture(capsys, ["tiling", *point, "-n", radius])
        assert code == 2
        assert out == ""
        assert err.startswith("teich2: argument error: ")
        assert needle in err
        assert len(err.splitlines()) == 1


POINT = ["--a", "0.8", "--alpha-tilde", "0.2618"]
CONJUGATE_SIDE = ["--a", "0.95", "--alpha-tilde", "-0.5"]


@pytest.mark.parametrize("argv, digest", [
    (["octagon", *POINT, "--format", "json"],
     "57db4a72961d09209cddbf63b47a3149212f231904c03e4310180ed34d801e37"),
    (["octagon", *POINT, "--format", "csv"],
     "ec45e4d9683ca8fadb311c40920dfef9805a5a1b41053df40c37115250d2ac57"),
    (["group", *POINT, "--samples", "37", "--seed", "3", "--format", "json"],
     "e2f91856b842b099c6818524b421152878c87df025032705cdd7d69572c06802"),
    (["group", *POINT, "--format", "csv"],
     "df9b4d22e6e9ddcc2239a381938f809607440fc7d652403df621382384d0363a"),
    (["fn", *POINT, "--format", "json"],
     "98edea451b70e4f6f57a3827e9b712e97c7bababb6161042451a422ada9ecb1f"),
    (["fn", *POINT, "--format", "csv"],
     "bdc06a5f68097de25d17d8615a63e63b04bce44264f0fbeb4a5e9d3c4b34d8e5"),
    (["fn", *CONJUGATE_SIDE, "--format", "json"],
     "e825d8dc62516a645e34b6db8ee401520ea826726ba332ad50b9586892bcdd81"),
    (["fn", *CONJUGATE_SIDE, "--format", "csv"],
     "772b7a0d5441614e970bcc0e3f4436028f61ee7fc1b3e3f58ce8fb5daf0468fa"),
])
def test_point_query_golden_digest(capsys, argv, digest):
    # sha256 of the one-point octagon, group and fn outputs on x86-64 Linux;
    # a change in how the CLI reaches the forms must keep every byte
    code, out, err = run_capture(capsys, argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


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
