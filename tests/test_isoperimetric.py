import csv
import importlib.machinery
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import run_fresh
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from teich2 import _elementwise as ew
from teich2 import fenchel_nielsen
from teich2 import isoperimetric as iso
from teich2.errors import DomainError, NumericalError
from teich2.isoperimetric import (
    A_REG,
    E_REG,
    P_REG,
    AreaResult,
    a_extremes,
    asymptotic_orbit,
    e_of_p,
    orbit_forms,
    parabola_fit,
    wp_area,
    wp_area_contour,
)
from teich2.octagon import OctagonParams, b_of, perimeter_ab

P0 = 27.023328706074827  # perimeter at (0.8, pi/12)
E0 = 31.343747228912957
A_MINUS_0 = 0.77003246675109076
A_PLUS_0 = 0.91828177605284836
PHI_TO_A08 = 2.2446964410497214

AREAS = {25.0: 1.4494758684, 30.0: 16.2768188212, 35.0: 33.8652285730,
         41.0: 58.7677554327}

EPS = np.finfo(float).eps

# the area-table benchmark's oracle: its reference rows and relative bar
AREA_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "area_reference.csv"
AREA_RELATIVE = 1e-10

# 40-digit mpmath quadrature of the area integral where wp_area's quad is
# 1.2e-12 and 3.0e-12 off, within its 1e-10 tolerance
AREAS_MP = {49.125: 99.310537045170165464, 49.21147184377696: 99.784947912362175134}

# 30-digit mpmath areas from P = 41 to 161, written by make_wp_area_mpmath.py;
# wp_area meets QUAD_TOLERANCE below P ~ 99.5 and misses it above by up to
# 2.1e-7 relative
AREAS_MPMATH = Path(__file__).resolve().parent / "data" / "wp_area_mpmath.csv"
QUAD_MISS_FROM = 99.5
QUAD_MISS = 3e-7


def _arctanh(x):
    """np.arctanh on arrays; on floats math.atanh, with numpy's values at the
    edges, where math.atanh raises: +-inf at +-1, NaN beyond."""
    if isinstance(x, np.ndarray):
        return np.arctanh(x)
    if -1.0 < x < 1.0:
        return math.atanh(x)
    if x == 1.0 or x == -1.0:
        return math.copysign(math.inf, x)
    return math.nan


def area_integrand(a, e_star: float):
    """WP area density at a, integrated over the orbit's a-interval; elementwise over a.

    The bit oracle of isoperimetric._area_density: the formula written with
    the elementwise helpers, in the closure's operation order.
    """
    one_minus_a2 = 1.0 - a * a
    two_a2 = 2.0 * a * a - 1.0
    ratio = (e_star - 4.0) * one_minus_a2 / (e_star * one_minus_a2 - 4.0)
    e_of_a = 4.0 * a * a / ((1.0 - a * a) * (2.0 * a * a - 1.0))
    one_minus_e = ew.maximum(1.0 - e_of_a / e_star, 0.0)
    f = ew.sqrt(ratio * one_minus_e)
    return 16.0 * a / (one_minus_a2 * ew.sqrt(two_a2)) * _arctanh(f)


def area_density(p_star: float):
    """wp_area's integrand in t on [0, 1] by the oracle, or None where the orbit is a point."""
    e_star = e_of_p(max(p_star, P_REG))
    lo, hi = a_extremes(e_star)
    width = hi - lo
    if width <= 0.0:
        return None
    return lambda t: width * area_integrand(lo + width * t, e_star)


def tight_quad_area(p_star: float) -> float:
    """wp_area's integral with quad pushed to its floor, 2e-14 relative."""
    g = area_density(p_star)
    if g is None:
        return 0.0
    return quad(g, 0.0, 1.0, epsabs=0.0, epsrel=2e-14, limit=500, full_output=True)[0]


def quad_outcome(p_star: float):
    """(area, error estimate, evaluations, message) of scipy.integrate.quad
    with wp_area's arguments; message is quad's text for a nonzero ier, else None."""
    g = area_density(p_star)
    if g is None:
        return 0.0, 0.0, 0, None
    area, err, info, *message = quad(
        g, 0.0, 1.0, epsabs=iso.QUAD_TOLERANCE, epsrel=iso.QUAD_TOLERANCE,
        limit=200, full_output=True,
    )
    return area, err, info["neval"], (message[0] if message else None)


# in a fresh interpreter, wp_area and scipy.integrate.quad of the oracle
# area_integrand at a few perimeters, in the order argv[1] names; prints both
# as JSON of hex floats
IMPORT_ORDER = """
import json, math, sys
import numpy as np
from teich2 import _elementwise as ew
from teich2 import isoperimetric as iso
P = (25.0, 41.0, 99.58, 161.0)
""" + inspect.getsource(_arctanh) + inspect.getsource(area_integrand) + """

def wp_area():
    return [[r.area.hex(), r.quad_error_estimate.hex(), r.evaluations]
            for r in map(iso.wp_area, P)]

def quad():
    from scipy.integrate import quad
    rows = []
    for p in P:
        e = iso.e_of_p(p)
        lo, hi = iso.a_extremes(e)
        w = hi - lo
        area, err, info = quad(
            lambda t: w * area_integrand(lo + w * t, e), 0.0, 1.0,
            epsabs=iso.QUAD_TOLERANCE, epsrel=iso.QUAD_TOLERANCE, limit=200,
            full_output=True,
        )[:3]
        rows.append([area.hex(), err.hex(), info["neval"]])
    return rows

first, second = (wp_area, quad) if sys.argv[1] == "wp_area" else (quad, wp_area)
print(json.dumps({first.__name__: first(), second.__name__: second()}))
"""


class TestAuxiliaryQuantity:
    def test_regular_constants(self):
        assert_allclose(E_REG, 12.0 + 8.0 * math.sqrt(2.0), rtol=1e-15)
        assert_allclose(P_REG, 8.0 * math.acosh(5.0 + 4.0 * math.sqrt(2.0)),
                        rtol=1e-15)
        assert_allclose(e_of_p(P_REG), E_REG, rtol=1e-14)
        assert_allclose(A_REG, 2.0 ** -0.25, rtol=1e-16)

    def test_reference_point(self):
        assert_allclose(e_of_p(P0), E0, rtol=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(42)
        for p in rng.uniform(10.0, 120.0, 100):
            assert_allclose(8.0 * math.acosh(e_of_p(p) / 2.0 - 1.0), p, rtol=1e-12)

    def test_asymptotic_growth(self):
        # E approaches exp(P/8) for large P
        assert_allclose(e_of_p(400.0) / math.exp(50.0), 1.0, rtol=1e-12)

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            e_of_p(0.0)
        # a non-finite input is a bad argument, not a point outside the domain
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="must be finite") as exc:
                e_of_p(bad)
            assert not isinstance(exc.value, DomainError)


class TestAExtremes:
    def test_reference_values(self):
        lo, hi = a_extremes(E0)
        assert_allclose(lo, A_MINUS_0, rtol=1e-14)
        assert_allclose(hi, A_PLUS_0, rtol=1e-14)

    def test_back_substitution(self):
        # both extremes lie on alpha_tilde = 0, where the closed-form perimeter
        # in (a, b) is an independent route to P*
        rng = np.random.default_rng(1)
        for e in rng.uniform(E_REG + 0.5, 400.0, 40):
            p_star = 8.0 * math.acosh(e / 2.0 - 1.0)
            for a in a_extremes(e):
                assert_allclose(perimeter_ab(a, b_of(a, 0.0)), p_star, rtol=1e-9)

    def test_degenerate_at_regular_value(self):
        lo, hi = a_extremes(E_REG)
        assert_allclose(lo, A_REG, rtol=1e-7)
        assert_allclose(hi, A_REG, rtol=1e-7)

    def test_below_regular_rejected(self):
        with pytest.raises(DomainError):
            a_extremes(E_REG - 0.01)


class TestOrbit:
    def test_inverts_reference_point(self):
        a, at = orbit_forms(E0, PHI_TO_A08)
        assert_allclose(a, 0.8, rtol=1e-13)
        assert_allclose(at, math.pi / 12, rtol=1e-13)

    def test_endpoints(self):
        lo, hi = a_extremes(E0)
        a0, at0 = orbit_forms(E0, 0.0)
        a_pi, at_pi = orbit_forms(E0, math.pi)
        assert_allclose(a0, hi, rtol=1e-14)
        assert_allclose(a_pi, lo, rtol=1e-14)
        assert at0 == 0.0
        assert_allclose(at_pi, 0.0, atol=1e-15)

    def test_phi_zero_at_large_perimeter(self):
        # E - 12 - sqrt(disc) cancels to 0 here; sin(phi) = 0 decides alpha_tilde
        a, at = orbit_forms(e_of_p(200.0), 0.0)
        assert at == 0.0
        p = OctagonParams(a, at)
        assert abs(perimeter_ab(p.a, b_of(p.a, p.alpha_tilde)) - 200.0) / 200.0 < 1e-8

    def test_perimeter_constant_along_orbit(self):
        for p_target in (25.0, 41.0):
            e = e_of_p(p_target)
            a, at = orbit_forms(e, iso._phases(64))
            for x, y in zip(a.tolist(), at.tolist()):
                p = OctagonParams(x, y)
                dev = abs(perimeter_ab(p.a, b_of(p.a, p.alpha_tilde)) - p_target) / p_target
                assert dev < 1e-10

    def test_mirror_symmetry(self):
        e = e_of_p(29.0)
        for phi in (0.3, 1.1, 2.9):
            a1, at1 = orbit_forms(e, phi)
            a2, at2 = orbit_forms(e, 2.0 * math.pi - phi)
            assert abs(a1 - a2) < 1e-12
            assert abs(at1 + at2) < 1e-12

    def test_samples_in_domain(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            e = e_of_p(rng.uniform(24.6, 90.0))
            OctagonParams(*orbit_forms(e, rng.uniform(0.0, 2.0 * math.pi)))  # must not raise

    @settings(max_examples=60, deadline=None)
    @given(st.floats(E_REG, e_of_p(200.0), exclude_min=True),
           st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=16))
    def test_orbit_forms_array_call_is_its_float_calls(self, e, phis):
        # the float route (math) against the array route (numpy)
        points = []
        for phi in phis:
            try:
                points.append(orbit_forms(e, phi))
            except NumericalError:
                points.append(None)
        if None in points:
            with pytest.raises(NumericalError) as exc:
                orbit_forms(e, np.array(phis))
            assert exc.value.index == points.index(None)
        else:
            a, at = orbit_forms(e, np.array(phis))
            assert all(type(x) is float for point in points for x in point)
            assert a.tolist() == [x for x, _ in points]
            ulp = np.spacing([abs(y) for _, y in points])
            assert np.all(abs(at - [y for _, y in points]) <= 4.0 * ulp)
        assert a_extremes(e) == tuple(orbit_forms(e, np.array([math.pi, 0.0]))[0])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(P_REG, 200.0, exclude_min=True), min_size=1, max_size=6),
           st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=16))
    @example([30.0, 200.0], [0.5, 1e-9])
    @example([200.0, 30.0, 200.0], [3.0, 1e-9])
    def test_orbit_forms_over_an_e_column_is_its_float_e_calls(self, perimeters, phis):
        # one row per E, each the float-E call over the phi array bit for bit;
        # a refusal is the first row's, at its flat (row, column) position
        e, phi = [e_of_p(p) for p in perimeters], np.array(phis)
        rows = []
        for x in e:
            try:
                rows.append(orbit_forms(x, phi))
            except NumericalError as exc:
                rows.append(exc)
        refused = [j for j, row in enumerate(rows) if isinstance(row, NumericalError)]
        if refused:
            with pytest.raises(NumericalError) as exc:
                orbit_forms(np.array(e)[:, None], phi)
            j = refused[0]
            assert str(exc.value) == str(rows[j])
            assert exc.value.index == j * phi.size + rows[j].index
        else:
            a, at = orbit_forms(np.array(e)[:, None], phi)
            assert a.tobytes() == np.array([x for x, _ in rows]).tobytes()
            assert at.tobytes() == np.array([y for _, y in rows]).tobytes()

    def test_e_refusals_name_the_first_e(self):
        phi = iso._phases(4)
        with pytest.raises(NumericalError, match=r"^E\^2 overflows at E = 7\.251547794405553e\+162$") as exc:
            orbit_forms(np.array([[e_of_p(30.0)], [e_of_p(3000.0)], [e_of_p(3100.0)]]), phi)
        assert exc.value.index == 4
        with pytest.raises(DomainError, match=f"^E = {e_of_p(20.0)!r} lies below") as exc:
            orbit_forms(np.array([e_of_p(30.0), e_of_p(20.0), e_of_p(10.0)]), 0.5)
        assert exc.value.index == 1

    def test_cancellation_names_its_phi(self):
        # cos(1e-9) rounds to 1, where E - 12 - sqrt(disc) cancels to 0 at P = 200
        phi = np.array([0.0, 1.0, 1e-9, 2.0])
        with pytest.raises(NumericalError, match=r"at phi = 1e-09$") as exc:
            orbit_forms(e_of_p(200.0), phi)
        assert exc.value.index == 2

    def test_sample_count_guard(self):
        with pytest.raises(ValueError):
            iso._phases(0)


class TestAsymptotics:
    def test_special_angles(self):
        a, at = asymptotic_orbit(math.pi)
        assert_allclose(a, 1.0 / math.sqrt(2.0), rtol=1e-15)
        assert_allclose(at, 0.0, atol=1e-16)
        a, at = asymptotic_orbit(math.pi / 2.0)
        assert_allclose(a, math.sqrt(3.0) / 2.0, rtol=1e-15)
        assert_allclose(at, 0.61547970867038734, rtol=1e-14)

    def test_corner_limit_at_zero(self):
        a, at = asymptotic_orbit(0.0)
        assert a == 1.0
        assert_allclose(at, math.pi / 4.0, rtol=1e-15)

    def test_orbit_converges_at_large_perimeter(self):
        e = e_of_p(200.0)
        for j in range(32):
            phi = (j + 0.5) * 2.0 * math.pi / 32.0
            a, at = orbit_forms(e, phi)
            a_inf, at_inf = asymptotic_orbit(phi)
            assert abs(a - a_inf) < 1e-3
            assert abs(at - at_inf) < 1e-3


class TestWPArea:
    def test_zero_at_regular_perimeter(self):
        res = wp_area(P_REG)
        assert isinstance(res, AreaResult)
        assert abs(res.area) < 1e-10

    @pytest.mark.parametrize("delta", [1e-3, 1e-4])
    def test_slope_at_regular_perimeter(self, delta):
        # dA/dP at P_reg is 2 pi / sqrt(det H) with H the Hessian of P in the
        # Darboux coordinates (l1, tau1), and det H = 4 sqrt2: pi 2^(-1/4).
        # The difference quotient is off by c1 delta, c1 = 0.052.
        slope = wp_area(P_REG + delta).area / delta
        assert abs(slope - math.pi * 2.0 ** -0.25) <= 0.1 * delta

    def test_reference_values(self):
        for p_star, ref in AREAS.items():
            res = wp_area(p_star)
            assert_allclose(res.area, ref, rtol=1e-8)
            assert res.quad_error_estimate < 1e-6
            assert res.evaluations > 0

    def test_monotone_in_perimeter(self):
        areas = [wp_area(p).area for p in np.arange(P_REG, 41.0, 2.0)]
        assert all(x < y for x, y in zip(areas, areas[1:]))

    @pytest.mark.parametrize("p_star, ier, quad_message", [
        # 201: no convergence
        pytest.param(201.0, "ier 4: roundoff error in the extrapolation table",
                     "Roundoff error is detected\n  in the extrapolation table", id="201.0"),
        # 300: all 200 subintervals used, which a smaller limit would change
        pytest.param(300.0, "ier 1: subdivision limit reached",
                     "The maximum number of subdivisions (200) has been achieved", id="300.0"),
        # 400: the integrand overflows and QUADPACK returns inf, flagging nothing
        pytest.param(400.0, "ier 0: no failure flagged, but the integrand is not finite",
                     None, id="400.0"),
    ])
    def test_breakdown_raises(self, p_star, ier, quad_message):
        area, err, neval, message = quad_outcome(p_star)
        with pytest.raises(NumericalError) as exc:
            wp_area(p_star)
        assert f"estimate {area!r}, error {err!r}, {neval} evaluations" in str(exc.value)
        assert f"QUADPACK {ier}" in str(exc.value)
        if quad_message is None:
            assert message is None
        else:
            assert quad_message in message

    def test_below_regular_rejected(self):
        with pytest.raises(DomainError):
            wp_area(P_REG - 0.01)
        with pytest.raises(DomainError):
            wp_area_contour(20.0)

    def test_contour_agrees_with_quadrature(self):
        for p_star in [*np.arange(24.5, 41.01, 0.25), 50.0, 60.0]:
            q = wp_area(float(p_star)).area
            assert abs(wp_area_contour(float(p_star)) - q) / q <= 1e-12, p_star

    def test_contour_matches_mpmath_where_quad_drifts(self):
        for p_star, ref in AREAS_MP.items():
            assert abs(wp_area_contour(p_star) - ref) / ref <= 1e-14, p_star

    @settings(max_examples=30, deadline=None)
    @given(st.floats(P_REG, 60.0))
    def test_contour_matches_quadrature_property(self, p_star):
        # at the scale max(1, area): both routes read a small orbit's area off
        # points rounded to absolute precision, so tiny areas agree absolutely
        ref = tight_quad_area(p_star)
        assert abs(wp_area_contour(p_star) - ref) <= 1e-12 * max(1.0, ref)

    def test_contour_zero_at_regular(self):
        assert wp_area_contour(P_REG) == 0.0
        with pytest.raises(DomainError):
            wp_area_contour(P_REG - 1e-9)

    @pytest.mark.parametrize("p_star", [80.0, 200.0, 400.0])
    def test_contour_breakdown_raises(self, p_star):
        # 80: no agreement by 2^16 nodes; 200 and 400: orbit points round
        # past the domain edge, which must not warn (warnings are errors here)
        with pytest.raises(NumericalError):
            wp_area_contour(p_star)

    @pytest.mark.parametrize("p_star", [25.0, 33.3, 41.0, 60.0, 77.0])
    def test_contour_evaluates_new_nodes_only(self, p_star):
        # the reference evaluates all n nodes at every doubling; reusing the
        # previous samples as the even-indexed half changes no bit
        e_star = e_of_p(p_star)
        previous = math.nan
        for n in [2**k for k in range(5, 17)]:
            l1, _, tau1, _ = fenchel_nielsen._fn_forms(*orbit_forms(e_star, iso._phases(n)))
            spec = np.fft.rfft(tau1) * (1j * np.arange(n // 2 + 1))
            spec[-1] = 0.0
            dtau1 = np.fft.irfft(spec, n)
            area = abs(float(np.dot(l1 - l1.mean(), dtau1))) * 2.0 * math.pi / n
            change, previous = abs(area - previous), area
            if change <= 1e-13 * max(1.0, area):
                break
        assert wp_area_contour(p_star) == area

    @pytest.mark.parametrize("p_star, area", [
        (25.0, "0x1.7310d9bb0399dp+0"),
        (30.0, "0x1.046dd9928258dp+4"),
        (41.0, "0x1.d6245cf5d7884p+5"),
        (60.0, "0x1.4c564bfb7816fp+7"),
    ])
    def test_contour_bits_held(self, p_star, area):
        # recorded while every level up to 256 nodes evaluated its own orbit
        # points; the strided views of one 256-node sample move no bit
        assert float.hex(wp_area_contour(p_star)) == area

    def test_contour_route_independent_of_wp_density(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("contour route used the WP density")

        monkeypatch.setattr(iso, "_area_density", refuse)
        monkeypatch.setattr(fenchel_nielsen, "wp_coefficient_raw", refuse)
        assert_allclose(wp_area_contour(30.0), AREAS[30.0], rtol=1e-10)

    @pytest.mark.parametrize("p_star", [25.0, 99.58, 161.0])
    def test_integrand_float_route_is_array_route(self, p_star):
        # quad calls the closure one node at a time: it is the oracle on floats
        # bit for bit, and its numpy evaluation up to libm's and numpy's atanh,
        # which may differ in the last bit
        e_star = e_of_p(p_star)
        lo, hi = a_extremes(e_star)
        width = hi - lo
        g = iso._area_density(lo, width, e_star)
        t = np.concatenate([np.linspace(0.0, 1.0, 401)[1:-1], np.logspace(-14, -1, 27)])
        t = np.concatenate([t, 1.0 - t])
        closure = [g(x) for x in t.tolist()]
        assert all(type(x) is float for x in closure)
        assert closure == [width * area_integrand(lo + width * x, e_star) for x in t.tolist()]
        batched = width * area_integrand(lo + width * t, e_star)
        assert np.isfinite(batched).all()
        assert_allclose(closure, batched, rtol=4 * EPS, atol=0.0)

    def test_integrand_inf_where_f_rounds_to_one(self):
        # at P = 400 f rounds to 1 inside the a-interval: the closure and the
        # oracle's numpy evaluation give inf, where math.atanh would raise
        e_star = e_of_p(400.0)
        lo, hi = a_extremes(e_star)
        width = hi - lo
        assert iso._area_density(lo, width, e_star)(0.5) == math.inf
        with np.errstate(divide="ignore"):
            assert width * area_integrand(np.array([lo + width * 0.5]), e_star)[0] == math.inf

    def test_arctanh_float_route_matches_numpy_at_the_edges(self):
        # with lo = 0 and width = 1 the closure is the density at a = t; the
        # points give f = 0 (clamped), 0 < f < 1, f = 1 (P = 400), f > 1
        # (E* < 0) and f = NaN (E* = inf): numpy's values, where math.atanh raises
        e400 = e_of_p(400.0)
        lo, hi = a_extremes(e400)
        points = [(A_MINUS_0, E0), (0.8, E0), (lo + (hi - lo) * 0.5, e400),
                  (0.8, -1.0), (0.8, math.inf)]
        closure = [iso._area_density(0.0, 1.0, e)(a) for a, e in points]
        with np.errstate(all="ignore"):
            numpy = [float(area_integrand(np.array([a]), e)[0]) for a, e in points]
        assert_allclose(closure, numpy, rtol=4 * EPS, atol=0.0)
        assert closure[0] == 0.0 and math.isfinite(closure[1])
        assert closure[2] == math.inf
        assert math.isnan(closure[3]) and math.isnan(closure[4])

    def test_reference_table_within_oracle_bar(self):
        # every 8th row of the area-table benchmark's reference; a change to the
        # integrand or the quad call that would fail its oracle fails here first
        with open(AREA_REFERENCE, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))[::8]
        assert len(rows) > 100
        for row in rows:
            p_star, ref = float(row["P"]), float(row["area"])
            area = wp_area(p_star).area
            if row["k"] == "0":  # P_reg, where the oracle's bar is absolute
                assert abs(area) <= AREA_RELATIVE, p_star
            else:
                assert abs(area - ref) <= AREA_RELATIVE * abs(ref), p_star

    def test_matches_quad_bit_for_bit(self):
        # every 8th reference row: the directly loaded QUADPACK gives quad's
        # area, error estimate and evaluation count, also above P ~ 99.6,
        # where QUADPACK flags roundoff but its estimate passes wp_area's bar
        with open(AREA_REFERENCE, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))[::8]
        for row in rows:
            p_star = float(row["P"])
            res = wp_area(p_star)
            area, err, neval, _ = quad_outcome(p_star)
            assert (res.area.hex(), res.quad_error_estimate.hex(), res.evaluations) == (
                area.hex(), err.hex(), neval), p_star

    @pytest.mark.parametrize("first", ["wp_area", "quad"])
    def test_import_order_does_not_matter(self, first):
        # the extension is loaded twice in one process when scipy.integrate
        # is also imported, once under each name
        proc = run_fresh(["-c", IMPORT_ORDER, first])
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert next(iter(result)) == first
        assert result["wp_area"] == result["quad"]
        assert result["wp_area"] == [
            [r.area.hex(), r.quad_error_estimate.hex(), r.evaluations]
            for r in map(wp_area, (25.0, 41.0, 99.58, 161.0))
        ]

    def test_quadpack_not_found_is_a_typed_error(self, monkeypatch, tmp_path):
        iso._quadpack.cache_clear()  # the next call searches again
        monkeypatch.setattr(iso.importlib.util, "find_spec", lambda name: None)
        with pytest.raises(ModuleNotFoundError, match="scipy is not installed"):
            wp_area(30.0)
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(iso.importlib.util, "find_spec", lambda name: spec)
        with pytest.raises(ModuleNotFoundError) as exc:
            wp_area(30.0)
        assert "scipy" in str(exc.value)
        assert repr(str(tmp_path / "integrate")) in str(exc.value)
        monkeypatch.undo()
        assert_allclose(wp_area(30.0).area, AREAS[30.0], rtol=1e-10)

    def test_matches_mpmath_to_documented_accuracy(self):
        with open(AREAS_MPMATH, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            p_star, ref = float(row["P"]), float(row["area"])
            bar = iso.QUAD_TOLERANCE if p_star < QUAD_MISS_FROM else QUAD_MISS
            assert abs(wp_area(p_star).area - ref) <= bar * ref, p_star

    def test_integrand_reduction_identity(self):
        # f = sqrt((E*-4)(1-a^2)/(E*(1-a^2)-4)) sqrt(1-E/E*) equals
        # tan(alpha_tilde)/sqrt(2a^2-1) at orbit points
        e_star = e_of_p(31.0)
        a_s, at_s = orbit_forms(e_star, iso._phases(16))
        for a, at in zip(a_s[1:8].tolist(), at_s[1:8].tolist()):
            e_of_a = 4.0 * a * a / ((1.0 - a * a) * (2.0 * a * a - 1.0))
            f1 = math.sqrt(
                (e_star - 4.0) * (1.0 - a * a) / (e_star * (1.0 - a * a) - 4.0)
            ) * math.sqrt(max(0.0, 1.0 - e_of_a / e_star))
            f2 = abs(math.tan(at)) / math.sqrt(2.0 * a * a - 1.0)
            assert abs(f1 - f2) < 1e-9


class TestParabolaFit:
    def test_fit_near_reference_coefficients(self):
        c1, c2, residual_norm, p_values, areas = parabola_fit(P_REG, 41.0, 1.0)
        assert abs(c1 - 0.05622) / 0.05622 < 0.10
        assert abs(c2 - 2.62132) / 2.62132 < 0.03
        assert residual_norm < 0.5
        assert len(p_values) == len(areas)

    def test_sample_guards(self):
        with pytest.raises(ValueError):
            parabola_fit(P_REG, P_REG + 0.5, 0.5)
        with pytest.raises(ValueError):
            parabola_fit(30.0, 29.0, 0.5)
        for step in (0.0, -0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="step must be finite and positive"):
                parabola_fit(P_REG, 41.0, step)
