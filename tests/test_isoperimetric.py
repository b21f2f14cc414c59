import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from teich2 import isoperimetric as iso
from teich2.errors import DomainError, NumericalError
from teich2.isoperimetric import (
    A_REG,
    E_REG,
    P_REG,
    AreaResult,
    a_extremes,
    asymptotic_orbit,
    e_of_a,
    e_of_p,
    orbit_point,
    orbit_samples,
    p_of_e,
    parabola_fit,
    wp_area,
    wp_area_grid,
)
from teich2.octagon import OctagonParams, b_of, perimeter, perimeter_ab

P0 = 27.023328706074827  # perimeter at (0.8, pi/12)
E0 = 31.343747228912957
A_MINUS_0 = 0.77003246675109076
A_PLUS_0 = 0.91828177605284836
PHI_TO_A08 = 2.2446964410497214

AREAS = {25.0: 1.4494758684, 30.0: 16.2768188212, 35.0: 33.8652285730,
         41.0: 58.7677554327}


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
            assert_allclose(p_of_e(e_of_p(p)), p, rtol=1e-12)

    def test_asymptotic_growth(self):
        # E approaches exp(P/8) for large P
        assert_allclose(e_of_p(400.0) / math.exp(50.0), 1.0, rtol=1e-12)

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            e_of_p(0.0)
        with pytest.raises(DomainError):
            p_of_e(4.0)


class TestAExtremes:
    def test_reference_values(self):
        lo, hi = a_extremes(E0)
        assert_allclose(lo, A_MINUS_0, rtol=1e-14)
        assert_allclose(hi, A_PLUS_0, rtol=1e-14)

    def test_back_substitution(self):
        rng = np.random.default_rng(1)
        for e in rng.uniform(E_REG + 0.5, 400.0, 40):
            lo, hi = a_extremes(e)
            assert_allclose(e_of_a(lo), e, rtol=1e-9)
            assert_allclose(e_of_a(hi), e, rtol=1e-9)

    def test_degenerate_at_regular_value(self):
        lo, hi = a_extremes(E_REG)
        assert_allclose(lo, A_REG, rtol=1e-7)
        assert_allclose(hi, A_REG, rtol=1e-7)

    def test_below_regular_rejected(self):
        with pytest.raises(DomainError):
            a_extremes(E_REG - 0.01)


class TestOrbit:
    def test_inverts_reference_point(self):
        s = orbit_point(E0, PHI_TO_A08)
        assert_allclose(s.a, 0.8, rtol=1e-13)
        assert_allclose(s.alpha_tilde, math.pi / 12, rtol=1e-13)

    def test_endpoints(self):
        lo, hi = a_extremes(E0)
        s0 = orbit_point(E0, 0.0)
        spi = orbit_point(E0, math.pi)
        assert_allclose(s0.a, hi, rtol=1e-14)
        assert_allclose(spi.a, lo, rtol=1e-14)
        assert s0.alpha_tilde == 0.0
        assert_allclose(spi.alpha_tilde, 0.0, atol=1e-15)

    def test_phi_zero_at_large_perimeter(self):
        # E - 12 - sqrt(disc) cancels to 0 here; sin(phi) = 0 decides alpha_tilde
        s = orbit_point(e_of_p(200.0), 0.0)
        assert s.alpha_tilde == 0.0
        assert abs(perimeter(s.params) - 200.0) / 200.0 < 1e-8

    def test_perimeter_constant_along_orbit(self):
        for p_target in (25.0, 41.0):
            e = e_of_p(p_target)
            for s in orbit_samples(e, 64):
                dev = abs(perimeter(s.params) - p_target) / p_target
                assert dev < 1e-10

    def test_mirror_symmetry(self):
        e = e_of_p(29.0)
        for phi in (0.3, 1.1, 2.9):
            s1 = orbit_point(e, phi)
            s2 = orbit_point(e, 2.0 * math.pi - phi)
            assert abs(s1.a - s2.a) < 1e-12
            assert abs(s1.alpha_tilde + s2.alpha_tilde) < 1e-12

    def test_samples_in_domain(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            e = e_of_p(rng.uniform(24.6, 90.0))
            s = orbit_point(e, rng.uniform(0.0, 2.0 * math.pi))
            OctagonParams(s.a, s.alpha_tilde)  # must not raise

    def test_sample_count_guard(self):
        with pytest.raises(ValueError):
            orbit_samples(E0, 0)


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
            s = orbit_point(e, phi)
            a_inf, at_inf = asymptotic_orbit(phi)
            assert abs(s.a - a_inf) < 1e-3
            assert abs(s.alpha_tilde - at_inf) < 1e-3


class TestWPArea:
    def test_zero_at_regular_perimeter(self):
        res = wp_area(P_REG)
        assert isinstance(res, AreaResult)
        assert abs(res.area) < 1e-10

    def test_reference_values(self):
        for p_star, ref in AREAS.items():
            res = wp_area(p_star)
            assert_allclose(res.area, ref, rtol=1e-8)
            assert res.quad_error_estimate < 1e-6
            assert res.evaluations > 0

    def test_monotone_in_perimeter(self):
        areas = [wp_area(p).area for p in np.arange(P_REG, 41.0, 2.0)]
        assert all(x < y for x, y in zip(areas, areas[1:]))

    @pytest.mark.parametrize("p_star", [201.0, 400.0])
    def test_breakdown_raises(self, p_star):
        # 201: no convergence; 400: the integrand overflows and quad returns inf
        with pytest.raises(NumericalError):
            wp_area(p_star)

    def test_below_regular_rejected(self):
        with pytest.raises(DomainError):
            wp_area(P_REG - 0.01)
        with pytest.raises(DomainError):
            wp_area_grid(20.0)

    def test_grid_integration_agrees(self):
        for p_star in (24.5, 25.0, 30.0, 35.0, 41.0):
            q = wp_area(p_star).area
            assert abs(wp_area_grid(p_star) - q) / q <= 1e-11, p_star

    def test_grid_zero_at_regular(self):
        assert wp_area_grid(P_REG) == 0.0
        with pytest.raises(DomainError):
            wp_area_grid(P_REG - 1e-9)

    def test_grid_quiet_where_boundary_meets_domain_edge(self):
        # past P ~ 300 bisection reaches points where b rounds to 1
        assert math.isfinite(wp_area_grid(400.0))

    def test_grid_route_independent_of_orbit_formulas(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("grid route used the orbit closed forms")

        for name in ("e_of_p", "a_extremes", "orbit_point"):
            monkeypatch.setattr(iso, name, refuse)
        assert wp_area_grid(30.0) > 0.0

    def test_perimeter_increases_in_alpha_tilde_on_columns(self):
        # wp_area_grid takes each column inside the orbit as [-t, t]
        for a in np.linspace(2.0 ** -0.5, 1.0, 41)[1:-1]:
            edge = math.acos(1.0 / (math.sqrt(2.0) * a))
            at = edge * np.linspace(0.0, 1.0, 400)[:-1]
            p = perimeter_ab(a, b_of(a, at))
            assert np.all(np.diff(p) > 0.0), a
            assert np.allclose(perimeter_ab(a, b_of(a, -at)), p, rtol=1e-14)

    def test_symmetric_perimeter_monotone_each_side_of_regular(self):
        # wp_area_grid bisects P(a, 0) = p_star on each side of A_REG
        left = np.linspace(2.0 ** -0.5, A_REG, 400)[1:]
        right = np.linspace(A_REG, 1.0, 400)[:-1]
        assert np.all(np.diff(perimeter_ab(left, b_of(left, 0.0))) < 0.0)
        assert np.all(np.diff(perimeter_ab(right, b_of(right, 0.0))) > 0.0)

    def test_integrand_reduction_identity(self):
        # f = sqrt((E*-4)(1-a^2)/(E*(1-a^2)-4)) sqrt(1-E/E*) equals
        # tan(alpha_tilde)/sqrt(2a^2-1) at orbit points
        e_star = e_of_p(31.0)
        for s in orbit_samples(e_star, 16)[1:8]:
            a = s.a
            f1 = math.sqrt(
                (e_star - 4.0) * (1.0 - a * a) / (e_star * (1.0 - a * a) - 4.0)
            ) * math.sqrt(max(0.0, 1.0 - e_of_a(a) / e_star))
            f2 = abs(math.tan(s.alpha_tilde)) / math.sqrt(2.0 * a * a - 1.0)
            assert abs(f1 - f2) < 1e-9


class TestParabolaFit:
    def test_fit_near_reference_coefficients(self):
        fit = parabola_fit(P_REG, 41.0, 1.0)
        assert abs(fit.c1 - 0.05622) / 0.05622 < 0.10
        assert abs(fit.c2 - 2.62132) / 2.62132 < 0.03
        assert fit.residual_norm < 0.5
        assert len(fit.p_values) == len(fit.areas)

    def test_sample_guards(self):
        with pytest.raises(ValueError):
            parabola_fit(P_REG, P_REG + 0.5, 0.5)
        with pytest.raises(ValueError):
            parabola_fit(30.0, 29.0, 0.5)
