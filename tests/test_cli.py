import argparse
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

    def test_csv_format(self, capsys):
        code, out, _ = run_capture(capsys, ["octagon", *A_ARGS, "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("beta,1.146421674562") for line in lines)

    def test_svg_format(self, capsys):
        # the octagon is drawn as the radius-0 tiling, the identity cell alone
        with pytest.raises(SystemExit) as exc:
            run(["octagon", *A_ARGS, "--format", "svg"])
        assert exc.value.code == 2 and "invalid choice: 'svg'" in capsys.readouterr().err
        code, out, _ = run_capture(
            capsys, ["tiling", "--a", "0.8", "--alpha-tilde", "0.2618", "-n", "0", "--format", "svg"])
        assert code == 0
        # sha256 of the octagon SVG at this point: no ball arithmetic at radius 0
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == "2638710a60ff528a0b1165f2c15219a89baaf8e4b9836852e5de5b8de0a722ec"

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_capture(capsys, ["octagon", *A_ARGS])
        _, out2, _ = run_capture(capsys, ["octagon", *A_ARGS])
        assert out1 == out2


# validate's one message for a margin outside [0, (1 - 1/sqrt2)/2), less its value
MARGIN_BOUND = (r"teich2: argument error: margin must lie in "
                r"\[0, \(1 - 1/sqrt2\)/2 = 0\.14644660940672627\), got ")

# one row per case: argv ({tmp} is a fresh directory), exit code, a regex the
# whole of stderr must match (so "." stays within one line), and what stdout
# holds: "payload" (a result), "error" (the JSON error object) or "" (nothing)
EXIT_CODES = [
    (["octagon", *A_ARGS], 0, "", "payload"),
    # the conjugate (0.744.., 0) lies nearer the boundary, and is not checked
    (["fn", "--a", "0.95", "--alpha-tilde", "0"], 0, "", "payload"),
    (["octagon", *A_ARGS, "-o", "{tmp}/missing/x.json"], 1,
     r"teich2: i/o error: .*No such file or directory.*\n", ""),
    (["octagon", "--a", "0.8"], 2,
     r"usage: (?s:.*)teich2 octagon: error: the following arguments are required: "
     r"--alpha-tilde\n", ""),
    (["orbit", "--samples", "0"], 2,
     r"teich2: argument error: need at least one sample, got 0\n", ""),
    (["group", *A_ARGS, "--samples", "-3"], 2,
     r"teich2: argument error: sample count must be >= 0, got -3\n", ""),
    # no second spelling of the angle, and --alpha is not read as a prefix of --alpha-tilde
    (["octagon", "--a", "0.9", "--alpha", "0.5"], 2,
     r"usage: (?s:.*)teich2 octagon: error: the following arguments are required: "
     r"--alpha-tilde\n", ""),
    (["validate", "--grid", "3", "3", "--tolerance", "orbit_constancy=1e-30"], 2,
     r"usage: (?s:.*)teich2: error: unrecognized arguments: --tolerance "
     r"orbit_constancy=1e-30\n", ""),
    (["octagon", "--a", "0.5", "--alpha-tilde", "0"], 3,
     r"teich2: domain error: lower_a: value 0.5 violates bound 0.7071067811865475\n", "error"),
    (["octagon", "--a", "0.5", "--alpha-tilde", "0", "-o", "{tmp}/missing/x.json"], 3,
     r"teich2: domain error: lower_a: value 0.5 violates bound 0.7071067811865475\n", "error"),
    (["fn", "--a", "1.0", "--alpha-tilde", "0"], 3,
     r"teich2: domain error: upper_a: value 1.0 violates bound 1.0\n", "error"),
    (["octagon", "--a", "0.8", "--alpha-tilde", "0.8"], 3,
     r"teich2: domain error: alpha_range: value 0.8 violates bound "
     r"0.7853981633974483\n", "error"),
    (["orbit", "--P", "20"], 3, r"teich2: domain error: .*\n", ""),
    # at margin 1e-3 only the relation word misses its bar
    (["validate", "--margin", "1e-3"], 4,
     r"FAIL relation_defect .*\n(ok  .*\n)+", "payload"),
    (["area", "--p-min", "500", "--p-max", "501"], 5,
     r"teich2: numerical error: .*\n", ""),
    (["fn", "--a", "0.7072", "--alpha-tilde", "1e-9"], 0, "", "payload"),
    (["area", "--step", "0"], 2,
     r"teich2: argument error: step must be finite and positive, got 0.0\n", ""),
    (["validate", "--grid", "2", "2", "--margin", "-0.1"], 2,
     MARGIN_BOUND + r"-0\.1\n", ""),
    (["validate", "--grid", "2", "2", "--margin", "nan"], 2,
     MARGIN_BOUND + r"nan\n", ""),
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
    (["validate", "--grid", "3", "3", "--tol", "orbit_constancy=1e-30"], 2,
     r"usage: (?s:.*)teich2: error: unrecognized arguments: --tol orbit_constancy=1e-30\n",
     ""),
    (["validate", "--margin", "0.5"], 2,
     MARGIN_BOUND + r"0\.5\n", ""),
    # near the corner the relation word's residual measures its breakdown
    (["validate", "--margin", "1e-6"], 4,
     r"FAIL relation_defect .*\n((ok  |FAIL) .*\n)+", "payload"),
    # an ulp above lower_a: the half turns' scales s/U keep c1^2 - 1 > 0 in
    # dt_residuals, where the rounded 1 - |omega|^2 once left it at 0
    (["fn", "--a", "0.7401651556654594", "--alpha-tilde", "0.3"], 0, "", "payload"),
    (["orbit", "--P", "300", "--samples", "4"], 5,
     r"teich2: numerical error: orbit point at phi = 1.5707963267948966 rounds out of the "
     r"domain: lower_a: value 0.8660254037844385 violates bound 0.8660254037844385\n", ""),
    (["tiling", "--a", "0.995099525262749", "--alpha-tilde", "-0.7740075264130591", "-n", "4"], 5,
     r"teich2: numerical error: radius-4 ball: element '[aAbBcCdD]{4}' is past the float64 "
     r"precision limit \(SU\(1,1\) pair: \|u\|\^2-\|v\|\^2 = \S+ has drifted from 1\) "
     r"at --a 0\.995099525262749 --alpha-tilde -0\.7740075264130591\n", ""),
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
    # next to the corner a = 1, alpha_tilde = pi/4 the forms have values:
    # 1 - |omega-|^2 = X/U1^2 = 2.0e-12 is a scale s/U1, never a difference
    (["octagon", "--a", "0.999999", "--alpha-tilde", "0.7853961633914485"], 0, "", "payload"),
    (["validate", "--margin", "0.2"], 2,
     MARGIN_BOUND + r"0\.2\n", ""),
    # one ulp above the lower bound of a, X > 0 but b rounds to 1, and the
    # closed-form perimeter divides by 1 - b^2 = 0
    (["octagon", "--a", "0.8567505974692862", "--alpha-tilde", "0.6"], 5,
     r"teich2: numerical error: float division by zero "
     r"at --a 0\.8567505974692862 --alpha-tilde 0\.6\n", ""),
    (["tiling", "--a", "0.7214885163659666", "--alpha-tilde", "-0.2", "-n", "1"], 5,
     r"teich2: numerical error: sqrt\(-\S+\): math domain error "
     r"at --a 0\.7214885163659666 --alpha-tilde -0\.2\n", ""),
    # there the conjugate point's b rounds to 1
    (["fn", "--a", "0.7214885163659666", "--alpha-tilde", "-0.2"], 5,
     r"teich2: numerical error: [^\n]+ at --a 0\.7214885163659666 --alpha-tilde -0\.2\n", ""),
    # omega4 = 2a/(1 + a^2) rounds to 1, and its half turn's scale is
    # (1 - a)(1 + a)/(1 + a^2) = 1e-9, not 1 - omega4^2 = 0
    (["fn", "--a", "0.999999999", "--alpha-tilde", "0.0"], 0, "", "payload"),
    # from margin 3e-8 down, the probe point's radius-2 ball is past the float64
    # precision limit: ball_counts fails, and validate still writes its report
    (["validate", "--margin", "1e-9"], 4,
     r"((ok  |FAIL) .*\n)+FAIL ball_counts .*\n", "payload"),
    (["validate", "--margin", "1e-12"], 4,
     r"((ok  |FAIL) .*\n)+FAIL ball_counts .*\n", "payload"),
    (["validate", "--margin", "0"], 2,
     r"teich2: argument error: margin 0\.0 puts a grid row's first a, lower_a \+ margin, on "
     r"the excluded bound lower_a\n", ""),
    # below half an ulp of lower_a, lower_a + margin rounds back onto the bound
    (["validate", "--margin", "5e-17"], 2,
     r"teich2: argument error: margin 5e-17 puts a grid row's first a, lower_a \+ margin, on "
     r"the excluded bound lower_a\n", ""),
    # one ulp above lower_a, the forms' X still rounds to 0 or below on 6 rows
    (["validate", "--margin", "6e-17"], 2,
     r"teich2: argument error: margin 6e-17 puts a grid row's first a, lower_a \+ margin, on "
     r"the excluded bound lower_a\n", ""),
    (["validate", "--margin", "1e-16"], 2,
     r"teich2: argument error: margin 1e-16 puts a grid row's first a, lower_a \+ margin, on "
     r"the excluded bound lower_a\n", ""),
    # an ulp above lower_a the generators' kappa is 4.8e16
    (["group", "--a", "0.8567505974692862", "--alpha-tilde", "0.6"], 5,
     r"teich2: numerical error: generators: kappa\^2 = \S+ is past 1/\(16 eps\) "
     r"at --a 0\.8567505974692862 --alpha-tilde 0\.6\n", ""),
    (["octagon", "--a", "0.9", "--alpha-t", "0.5"], 2,
     r"usage: (?s:.*)teich2 octagon: error: the following arguments are required: "
     r"--alpha-tilde\n", ""),
    # a point command takes no margin: only validate's grid has one
    (["fn", "--a", "0.95", "--alpha-tilde", "0", "--margin", "0.04"], 2,
     r"usage: (?s:.*)teich2: error: unrecognized arguments: --margin 0\.04\n", ""),
    # tiling refuses those generators before it builds the forms or the ball
    (["tiling", "--a", "0.8567505974692862", "--alpha-tilde", "0.6", "-n", "1"], 5,
     r"teich2: numerical error: generators: kappa\^2 = \S+ is past 1/\(16 eps\) "
     r"at --a 0\.8567505974692862 --alpha-tilde 0\.6\n", ""),
    # past the bound, the a-interval [lower_a + margin, 1 - margin] is empty at every angle
    (["validate", "--margin", "0.15"], 2, MARGIN_BOUND + r"0\.15\n", ""),
    # next to the corner X rounds below 0 (a^2 - tan(alpha_tilde) to 0 as well)
    (["octagon", "--a", "0.9999999949849345", "--alpha-tilde", "0.7853981583823828"], 5,
     r"teich2: numerical error: X = \(1 - a\^2\)\(2a\^2 - 1 - t\^2\) = -\S+ is not > 0 "
     r"at --a 0\.9999999949849345 --alpha-tilde 0\.7853981583823828\n", ""),
    # octagon prints this point, but its generators' kappa is 1.0e12, past the
    # 1.7e7 whose square ball allows: the relation defect would read 397
    (["group", "--a", "0.999999", "--alpha-tilde", "0.7853961633914485"], 5,
     r"teich2: numerical error: generators: kappa\^2 = \S+ is past 1/\(16 eps\) "
     r"at --a 0\.999999 --alpha-tilde 0\.7853961633914485\n", ""),
    (["tiling", "--a", "0.999999", "--alpha-tilde", "0.7853961633914485", "-n", "1"], 5,
     r"teich2: numerical error: generators: kappa\^2 = \S+ is past 1/\(16 eps\) "
     r"at --a 0\.999999 --alpha-tilde 0\.7853961633914485\n", ""),
    # where fn prints at a = 1 - 1e-9, the generators' kappa = |u|^2 + |v|^2 is
    # 1e9, and group and tiling refuse
    (["group", "--a", "0.999999999", "--alpha-tilde", "0.0"], 5,
     r"teich2: numerical error: generators: kappa\^2 = \S+ is past 1/\(16 eps\) "
     r"at --a 0\.999999999 --alpha-tilde 0\.0\n", ""),
    (["tiling", "--a", "0.999999999", "--alpha-tilde", "0.0", "-n", "1"], 5,
     r"teich2: numerical error: generators: kappa\^2 = \S+ is past 1/\(16 eps\) "
     r"at --a 0\.999999999 --alpha-tilde 0\.0\n", ""),
    # ball_counts fails at margin 1e-8 as at 1e-9 and 1e-12
    (["validate", "--margin", "1e-8"], 4,
     r"((ok  |FAIL) .*\n)+FAIL ball_counts .*\n", "payload"),
    # inside the domain and within the kappa guard, but the radius-4 ball's
    # products lose |u|^2 - |v|^2 = 1 to rounding: a numerical error at the point
    (["tiling", "--a", "0.9905482311121936", "--alpha-tilde", "-0.7527861665680812", "-n", "4"], 5,
     r"teich2: numerical error: radius-4 ball: element 'cccc' is past the float64 precision "
     r"limit \(SU\(1,1\) pair: \|u\|\^2-\|v\|\^2 = \S+ has drifted from 1\) "
     r"at --a 0\.9905482311121936 --alpha-tilde -0\.7527861665680812\n", ""),
    # the forms lose every digit at the grid's first a: inf and NaN residuals
    # fail their checks with no numpy warning (tier-1 makes warnings errors)
    (["validate", "--margin", "1e-15"], 4,
     r"((ok  |FAIL) .*\n)+", "payload"),
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


def test_group_refuses_a_point_whose_relation_breaks_down(capsys):
    code, out, _ = run_capture(
        capsys, ["group", "--a", "0.9999999991113031", "--alpha-tilde", "0.7853980619178006"])
    assert not (code == 0 and
                json.loads(out)["relation"]["defect"] > DEFAULT_TOLERANCES["relation_defect"])


def _flag_values(action: argparse.Action) -> list[str]:
    """Values that parse for the flag of ``action``."""
    if action.nargs == 0:
        return []
    value = action.choices[0] if action.choices else {int: "3", float: "0.05"}.get(action.type, "x")
    return [str(value)] * (action.nargs if isinstance(action.nargs, int) else 1)


def test_no_flag_is_read_from_a_prefix(capsys):
    # every long flag of every parser, less its last letter, with the required
    # flags and values that would parse under the full name, is refused
    (commands,) = (a.choices for a in cli._PARSER._actions
                   if isinstance(a, argparse._SubParsersAction))
    checked = 0
    for command, parser in [(None, cli._PARSER), *commands.items()]:
        flags = [a for a in parser._actions if a.option_strings]
        for target in flags:
            name = max(target.option_strings, key=len)
            if len(name) < 4:  # --a and --P: their only prefix is "--"
                continue
            argv = []
            for action in flags:
                if action is target:
                    argv += [name[:-1], *_flag_values(action)]
                elif action.required:
                    argv += [action.option_strings[0], *_flag_values(action)]
            with pytest.raises(SystemExit) as exc:
                # a top-level flag goes before a command that needs no flag
                cli._PARSER.parse_args([*argv, "area"] if command is None else [command, *argv])
            assert exc.value.code == 2, argv
            assert name[:-1] in capsys.readouterr().err, argv
            checked += 1
    assert checked == 35


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
    if _domain_error(a, at) is not None:
        return
    code, out, err = run_capture(capsys, [*command, "--a", repr(a), f"--alpha-tilde={at!r}"])
    if code == 0:
        assert err == ""
        return
    assert out == "" and len(err.splitlines()) == 1, err
    assert code == 5 and err.startswith("teich2: numerical error: "), err
    assert err.endswith(f" at --a {a!r} --alpha-tilde {at!r}\n"), err


class TestRepeatedRuns:
    """Many run calls in one process share one parser and leak no state."""

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

    def test_vertices_format(self, capsys):
        code, out, _ = run_capture(capsys, ["tiling", *A_ARGS, "-n", "1", "--format", "vertices"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "word,k,x,y"
        assert len(lines) == 1 + 9 * 8

    def test_vertices_flag_is_gone(self, capsys, tmp_path):
        # one output per run: the cell vertices are --format vertices
        path = tmp_path / "cells.csv"
        with pytest.raises(SystemExit) as exc:
            run(["tiling", *A_ARGS, "-n", "1", "--vertices", str(path)])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments: --vertices" in captured.err
        assert not path.exists()

    def test_json_counts(self, capsys):
        code, out, _ = run_capture(capsys, ["tiling", *A_ARGS, "-n", "2", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == BALL_SIZES[2]
        assert doc["relation_sign"] == 1

    @pytest.mark.parametrize("fmt", ["csv", "json", "svg", "vertices"])
    def test_ball_built_once(self, capsys, monkeypatch, fmt):
        calls = []
        real_ball = group.ball
        counted = lambda gens, n: calls.append(n) or real_ball(gens, n)  # noqa: E731
        monkeypatch.setattr(cli, "ball", counted)
        code, _, _ = run_capture(capsys, ["tiling", *A_ARGS, "-n", "1", "--format", fmt])
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

    def test_vertices_golden_digest(self, capsys):
        # sha256 of the cell-vertex CSV on x86-64 Linux, with the odd vertex
        # ((1 - t) + i (1 + t))/(2a) of the forms' chart
        code, out, _ = run_capture(
            capsys,
            ["tiling", "--a", "0.85", "--alpha-tilde", "0.03", "-n", "3", "--format", "vertices"],
        )
        assert code == 0
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == "801678aca82143566353b0f0d1e47808792d388169ce8db2183acf72f8936eab"

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
     "f683ead80fdb59d06cbf82010507c63a98b4eb47e2a161e75365372185b557fa"),
    (["octagon", *POINT, "--format", "csv"],
     "26a9d14ac719bb27a1a822c24871430daad5a35cec71478f5710425ea5979f2b"),
    (["group", *POINT, "--samples", "37", "--seed", "3", "--format", "json"],
     "ab4ea7c0431631bd96b8e2b468ad1bc1b8999cddaa46ffeb5cc59d218962ea9c"),
    (["group", *POINT, "--format", "csv"],
     "4d443cd58d58292bf6bc5742bd2ba7619abf1796b2219387bab772b45a7406aa"),
    (["fn", *POINT, "--format", "json"],
     "f3657ab0618a97071ce97f13816b20681cb4f5ae7bc671f752bb2f20c4f158f2"),
    (["fn", *POINT, "--format", "csv"],
     "f299c3c646a5d4f14ca4ed724e43367c7b7b933d212daa2c58f372e9d1439ca1"),
    (["fn", *CONJUGATE_SIDE, "--format", "json"],
     "64373d4280c700aa59bf0c4f4ee3b9a35d60a61ac30ceeac4e743414b8da2c5d"),
    (["fn", *CONJUGATE_SIDE, "--format", "csv"],
     "47bf7ef293e9d0679e082b1332a7d2e96fbef07908d29d71075c76fe1b7139c9"),
    (["area", "--p-max", "60", "--step", "3", "--format", "csv"],
     "3266db9b3589c8defcad13152719e9f5b6493c091b52ee8ac8fb0cf0f97d81cd"),
    # the JSON float tables, recorded while every float went through repr
    (["orbit", "--P", "30", "--P", "55", "--samples", "256", "--format", "json"],
     "697ffa08b43fa506abab088c1337cb8b0b03cc7aee7fb5a23207bfafa2b84016"),
    (["orbit", "--samples", "64", "--format", "json"],
     "cf777f517dec0058de3a1a62117cff503517091cb5217831cbe3ebb95feb6759"),
    (["area", "--p-max", "120", "--step", "3", "--format", "json"],
     "fa8acf9366fd7e576c9a664e8acd52398f5d2b04261b1c2a8a5284254304d4a2"),
])
def test_point_query_golden_digest(capsys, argv, digest):
    # sha256 of stdout then stderr of the one-point octagon, group and fn
    # queries, whose stderr is empty, and of an area table with its fit line
    # on stderr, on x86-64 Linux; a change in how the CLI reaches the forms or
    # the fit must keep every byte
    code, out, err = run_capture(capsys, argv)
    assert code == 0
    assert hashlib.sha256((out + err).encode("utf-8")).hexdigest() == digest


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
        assert {c["name"]: c["tolerance"] for c in report["checks"]} == DEFAULT_TOLERANCES
