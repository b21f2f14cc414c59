import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from teich2.errors import NumericalError, OutOfDomainError
from teich2.hyperbolic import dist
from teich2.octagon import (
    ALPHA_TILDE_MAX,
    OctagonParams,
    _domain_error,
    b_of,
    build_geometry,
    grid_arrays,
    in_octagon,
    lower_a,
    octagon_forms,
    perimeter_ab,
    vertex_angles,
    vertex_sum,
)

A0 = 0.8
AT0 = math.pi / 12

# reference values for (a, alpha_tilde) = (0.8, pi/12)
B0 = 0.91506350946109662
T_PLUS = 0.90794919243112271
T_MINUS = 0.37205080756887729
R_PLUS = 0.61044672936235032
R_MINUS = 0.32356763892278825
PHI_PLUS = 0.50562401620204859
PHI_MINUS = 1.3477119800842571
BETA = 1.1464216745624323
PERIMETER0 = 27.023328706074827
OMEGA_PLUS = 0.63528856829700261 + 0.61471143170299739j
OMEGA_MINUS = 0.3549038105676658 + 0.8950961894323342j
OMEGA4 = 0.97560975609756098


def random_params(rng, n, margin=0.01):
    out = []
    while len(out) < n:
        at = rng.uniform(-math.pi / 4 + 0.05, math.pi / 4 - 0.05)
        lo = lower_a(at)
        a = rng.uniform(lo + margin, 1.0 - margin)
        if a > lo:
            out.append(OctagonParams(float(a), float(at)))
    return out


class TestParams:
    def test_domain_bounds(self):
        with pytest.raises(OutOfDomainError):
            OctagonParams(0.70, 0.0)  # below 1/sqrt(2)
        with pytest.raises(OutOfDomainError):
            OctagonParams(1.0, 0.0)
        with pytest.raises(OutOfDomainError):
            OctagonParams(0.9, 0.8)  # alpha_tilde beyond pi/4
        OctagonParams(0.75, 0.0)

    @pytest.mark.parametrize("margin", [-0.01, 0.21, 0.5, math.nan])
    def test_margin_outside_range_rejected(self, margin):
        # the validate grid's margin is the only one, checked before any point is built
        with pytest.raises(ValueError, match=r"margin must lie in \[0, \(1 - 1/sqrt2\)/2 = "):
            grid_arrays(2, 2, margin)

    @pytest.mark.parametrize("a, at", [(math.nan, AT0), (A0, math.inf), (-math.inf, 0.0)])
    def test_non_finite_parameters_rejected(self, a, at):
        with pytest.raises(ValueError, match="parameters must be finite") as exc:
            OctagonParams(a, at)
        assert not isinstance(exc.value, OutOfDomainError)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_domain_check_elementwise(self, data):
        # alpha_tilde values inside, outside and on the bounds; a on the
        # bounds of its column or anywhere near the domain
        bounds = st.sampled_from([-ALPHA_TILDE_MAX, ALPHA_TILDE_MAX])
        ats = data.draw(st.lists(st.one_of(st.floats(-0.9, 0.9), bounds), min_size=1, max_size=5))
        column = st.integers(0, len(ats) - 1)
        a = st.one_of(st.floats(0.6, 1.05),
                      column.map(lambda j: lower_a(ats[j])), st.just(1.0))
        rows = data.draw(st.lists(a, min_size=1, max_size=5))
        # rows of a against columns of alpha_tilde: C order runs along a row
        found = _domain_error(np.array(rows)[:, None], np.array(ats))
        first = None
        for k, (x, y) in enumerate((x, y) for x in rows for y in ats):
            try:
                OctagonParams(x, y)
            except OutOfDomainError as exc:
                first = k, (exc.which, exc.bound, exc.value)
                break
        if first is None:
            assert found is None
        else:
            k, err = found
            assert (k, (err.which, err.bound, err.value)) == first

    def test_b_value_and_involution(self):
        p = OctagonParams(A0, AT0)
        b = b_of(p.a, p.alpha_tilde)
        assert_allclose(b, B0, rtol=1e-14)
        q = OctagonParams(b, -p.alpha_tilde)  # the image lies in the domain
        assert_allclose(q.a, B0, rtol=1e-14)
        assert_allclose(q.alpha_tilde, -AT0, rtol=1e-15)
        assert_allclose(b_of(q.a, q.alpha_tilde), A0, rtol=1e-13)

    def test_b_of_array(self):
        a = np.array([0.8, 0.85])
        b = b_of(a, np.array([AT0, 0.0]))
        assert b.shape == (2,)
        assert_allclose(b[0], B0, rtol=1e-14)


class TestGeometryClosedForms:
    def setup_method(self):
        self.geom = build_geometry(OctagonParams(A0, AT0))

    def test_arc_data(self):
        assert_allclose(self.geom.t_plus, T_PLUS, rtol=1e-14)
        assert_allclose(self.geom.t_minus, T_MINUS, rtol=1e-14)
        assert_allclose(self.geom.r_plus, R_PLUS, rtol=1e-14)
        assert_allclose(self.geom.r_minus, R_MINUS, rtol=1e-14)
        assert_allclose(self.geom.phi_plus, PHI_PLUS, rtol=1e-14)
        assert_allclose(self.geom.phi_minus, PHI_MINUS, rtol=1e-14)
        assert_allclose(self.geom.beta, BETA, rtol=1e-14)

    def test_omegas(self):
        assert_allclose(self.geom.omega_plus, OMEGA_PLUS, rtol=1e-14)
        assert_allclose(self.geom.omega_minus, OMEGA_MINUS, rtol=1e-14)
        assert_allclose(self.geom.omega4, OMEGA4, rtol=1e-14)

    def test_first_vertices(self):
        assert_allclose(self.geom.vertices[0], A0 + 0j, rtol=1e-15)
        assert_allclose(
            self.geom.vertices[1],
            B0 * cmath.exp(1j * (math.pi / 4 + AT0)),
            rtol=1e-14,
        )

    def test_quarter_turn_symmetry(self):
        # multiplying by i is exact, so the quarter turn holds bit for bit
        for x in (self.geom.vertices, self.geom.midpoints, self.geom.centres):
            for k in range(8):
                assert x[(k + 2) % 8] == 1j * x[k], k

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 60), st.floats(1e-3, 0.14))
    def test_quarter_turn_symmetry_on_grids(self, n_a, n_alpha, margin):
        f = octagon_forms(*grid_arrays(n_a, n_alpha, margin))
        for x in (f.vertices, f.midpoints, f.centres):
            for k in range(8):
                assert np.array_equal(x[(k + 2) % 8], 1j * x[k]), k


@st.composite
def corner_points(draw):
    """In-domain (a, alpha_tilde) within 1e-6 of a corner a = 1, |alpha_tilde| = pi/4.

    Both are drawn from open intervals inside the domain: hypothesis favours
    the ends of an interval, and with the domain's bounds among them it
    filtered out too many lists of up to six points for its health check.
    """
    at = draw(st.floats(ALPHA_TILDE_MAX - 1e-6, ALPHA_TILDE_MAX, exclude_max=True))
    lo = lower_a(at)
    assume(lo < math.nextafter(1.0, 0.0))  # some a lies strictly between lo and 1
    a = draw(st.floats(lo, 1.0, exclude_min=True, exclude_max=True))
    at *= draw(st.sampled_from([1.0, -1.0]))
    assume(_domain_error(a, at) is None)
    return a, at


class TestCorner:
    # 1 - |omega|^2 rounds to 0 or below at about half of these points, and
    # the midpoint formula p = omega/(1 + sqrt(1 - |omega|^2)) has no value
    # there; next to the lower bound of a, 2a^2 cos^2(at) - 1 of beta can too,
    # 1 - b^2 of the vertex modulus where b rounds to 1, and a^2 - tan(at) of
    # the side angle phi-
    @settings(max_examples=60, deadline=None)
    @given(st.lists(corner_points(), min_size=1, max_size=6))
    @example([(0.999999, 0.7853961633914485)])
    @example([(0.999999999999999, 0.7853981633974473)])  # 2a^2 cos^2(at) - 1 = 0
    @example([(0.9999999860643383, 0.7853981494617862)])  # b rounds to 1
    @example([(0.9999999949849345, 0.7853981583823828)])  # a^2 - tan(at) rounds to 0
    def test_midpoints_in_disk_or_numerical_error(self, points):
        a, at = (np.array(x) for x in zip(*points))
        for args in [*points, (a, at)]:
            try:
                p = np.array(octagon_forms(*args).midpoints)
            except NumericalError as exc:
                assert str(exc).startswith(("side midpoints: 1 - |omega|^2 = ",
                                            "beta: 2a^2 cos^2(alpha_tilde) - 1 = ",
                                            "vertex modulus: 1 - b^2 = ",
                                            "side angle: a^2 - tan(alpha_tilde) = "))
                assert str(exc).endswith(" is not > 0")
                if isinstance(args[0], np.ndarray):  # the index names a point that breaks
                    x, y = points[exc.index]
                    with pytest.raises(NumericalError):
                        octagon_forms(np.array([x]), np.array([y]))
                continue
            assert np.isfinite(p).all() and (abs(p) < 1.0).all(), args

    def test_array_error_names_the_first_failing_point(self):
        points = [(A0, AT0), (0.999999, 0.7853961633914485)] * 2
        with pytest.raises(NumericalError) as info:
            octagon_forms(*(np.array(x) for x in zip(*points)))
        assert info.value.index == 1


class TestSides:
    def test_vertices_lie_on_side_arcs(self):
        rng = np.random.default_rng(42)
        for p in random_params(rng, 10):
            geom = build_geometry(p)
            for k in range(8):
                c, r = geom.centres[k], (geom.r_plus, geom.r_minus)[k % 2]
                for v in (geom.vertices[k], geom.vertices[(k + 1) % 8]):
                    assert abs(abs(v - c) - r) < 1e-10

    def test_midpoints_bisect_sides(self):
        rng = np.random.default_rng(1)
        for p in random_params(rng, 10):
            geom = build_geometry(p)
            for k in range(8):
                m = geom.midpoints[k]
                d1 = dist(geom.vertices[k], m)
                d2 = dist(m, geom.vertices[(k + 1) % 8])
                assert_allclose(d1, d2, rtol=1e-10)

    def test_sides_alternate_two_lengths(self):
        geom = build_geometry(OctagonParams(A0, AT0))
        lengths = [
            dist(geom.vertices[k], geom.vertices[(k + 1) % 8]) for k in range(8)
        ]
        assert_allclose(lengths[0::2], [lengths[0]] * 4, rtol=1e-12)
        assert_allclose(lengths[1::2], [lengths[1]] * 4, rtol=1e-12)
        assert abs(lengths[0] - lengths[1]) > 1e-3


class TestPerimeter:
    def test_reference_value(self):
        p = OctagonParams(A0, AT0)
        # one point is evaluated by math, as a Python float
        perimeter = perimeter_ab(p.a, b_of(p.a, p.alpha_tilde))
        assert type(perimeter) is float
        assert_allclose(perimeter, PERIMETER0, rtol=1e-14)

    def test_closed_form_equals_vertex_sum(self):
        rng = np.random.default_rng(42)
        for p in random_params(rng, 25):
            geom = build_geometry(p)
            assert_allclose(perimeter_ab(p.a, geom.b), vertex_sum(geom.vertices), rtol=1e-10)

    def test_perimeter_ab_array(self):
        vals = perimeter_ab(np.array([A0, A0]), np.array([B0, B0]))
        assert_allclose(vals, PERIMETER0, rtol=1e-14)

    def test_involution_preserves_perimeter(self):
        rng = np.random.default_rng(9)
        for p in random_params(rng, 15):
            b = b_of(p.a, p.alpha_tilde)
            assert_allclose(perimeter_ab(p.a, b), perimeter_ab(b, b_of(b, -p.alpha_tilde)),
                            rtol=1e-12)


class TestAngles:
    def test_numeric_angles_match_beta(self):
        geom = build_geometry(OctagonParams(A0, AT0))
        a0, a1 = (vertex_angles(geom.vertices, geom.centres, k) for k in (0, 1))
        assert_allclose(a0, BETA, atol=1e-10)
        assert_allclose(a1, math.pi / 2 - BETA, atol=1e-10)

    def test_angle_sum_is_two_pi(self):
        rng = np.random.default_rng(21)
        for p in random_params(rng, 10):
            geom = build_geometry(p)
            a0, a1 = (vertex_angles(geom.vertices, geom.centres, k) for k in (0, 1))
            assert_allclose(4 * (a0 + a1), 2 * math.pi, rtol=1e-10)


class TestInOctagon:
    def test_origin_inside_vertices_outside(self):
        geom = build_geometry(OctagonParams(A0, AT0))
        assert in_octagon(geom, 0j, shrink=0.0)
        for v in geom.vertices:
            assert not in_octagon(geom, 1.0001 * v, shrink=0.0)
        for m in geom.midpoints:
            # side midpoints sit on the boundary circles
            assert not in_octagon(geom, m, shrink=1e-12)

    def test_scaled_vertices_inside(self):
        geom = build_geometry(OctagonParams(A0, AT0))
        for v in geom.vertices:
            assert in_octagon(geom, 0.8 * v, shrink=0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_array_is_the_scalar_call_at_every_element(self, data):
        # points within 1e-12 of the shrunk side circles, mostly about the
        # side's midpoint, and of the unit circle, where a modulus one bit
        # off would flip a comparison
        at = data.draw(st.floats(-0.7, 0.7))
        a = lower_a(at) + data.draw(st.floats(0.01, 0.99)) * (1.0 - lower_a(at))
        geom = build_geometry(OctagonParams(a, at))
        shrink = data.draw(st.sampled_from([0.0, 1e-4, -1e-7]))
        circles = [(c, (geom.r_plus if k % 2 == 0 else geom.r_minus) + shrink,
                    cmath.phase(geom.midpoints[k] - c)) for k, c in enumerate(geom.centres)]
        circles.append((0j, 1.0, 0.0))
        near = st.tuples(st.sampled_from(circles),
                         st.one_of(st.floats(-0.2, 0.2), st.floats(-math.pi, math.pi)),
                         st.floats(-1e-12, 1e-12))
        z = [c + (r + d) * cmath.exp(1j * (phi + dphi)) for (c, r, phi), dphi, d in
             data.draw(st.lists(near, min_size=1, max_size=40))]
        z += [complex(x, y) for x, y in data.draw(st.lists(
            st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), max_size=20))]
        inside = in_octagon(geom, np.array(z), shrink=shrink)
        assert inside.dtype == bool and inside.shape == (len(z),)
        assert inside.tolist() == [in_octagon(geom, w, shrink=shrink) for w in z]


class TestDomainGrid:
    def test_points_valid_and_counted(self):
        a, at = grid_arrays(6, 5, margin=0.02)
        assert a.shape == at.shape == (30,)
        # every point keeps (nearly) the margin from each bound
        assert np.all((a > lower_a(at) + 0.015) & (a < 1.0 - 0.015)
                      & (abs(at) < ALPHA_TILDE_MAX - 0.015))

    def test_excessive_margin_rejected(self):
        # (1 - 1/sqrt2)/2 is the one bound: the float below it leaves a grid
        bound = (1.0 - 1.0 / math.sqrt(2.0)) / 2.0
        a, at = grid_arrays(5, 5, margin=math.nextafter(bound, 0.0))
        assert a.shape == at.shape == (25,)
        for margin in (bound, 0.15, 0.18):
            with pytest.raises(ValueError, match=rf"= {bound!r}\), got {margin!r}$"):
                grid_arrays(5, 5, margin=margin)
