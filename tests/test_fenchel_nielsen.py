import math

import mpmath as mp
import numpy as np
from numpy.testing import assert_allclose

from teich2.fenchel_nielsen import (
    _fn_forms,
    d_closed_forms,
    dt_residuals,
    lt_forms,
    pants_forms,
    trace_forms,
    wolpert_forms,
    wp_coefficient_raw,
)
from teich2.group import half_turns
from teich2.hyperbolic import dist
from teich2.octagon import OctagonParams, b_of, build_geometry, lower_a, octagon_forms

A_REG = 2.0 ** -0.25
P0 = OctagonParams(0.8, math.pi / 12)

L1_0 = 2.3558569217315251
L3_0 = 4.3944491546724388  # = 4 ln 3
TAU1_0 = 1.1156889642222689
L1_REG = 3.0571418389619963  # = P_reg / 8
L1_PRIMED = 4.6443080241811216
C3_0 = 41.0 / 9.0
D12_0 = 68.3093254768544 - 1.0
D3_0 = 15.432098765432099 - 1.0
WP_0 = 91.517142985189263
WP_REG = 55.449656048184171


def pants(a, at):
    """The decomposition at (a, alpha_tilde), from the half turns of its octagon."""
    return pants_forms(a, at, half_turns(octagon_forms(a, at)))


def conjugate(a, at):
    """The involution image (b, -alpha_tilde) of (a, alpha_tilde)."""
    return b_of(a, at), -at


def random_params(rng, n, margin=0.02):
    out = []
    while len(out) < n:
        at = rng.uniform(-math.pi / 4 + 0.06, math.pi / 4 - 0.06)
        a = rng.uniform(lower_a(at) + margin, 1.0 - margin)
        if a > lower_a(at):
            out.append(OctagonParams(float(a), float(at)))
    return out


class TestLengths:
    def test_reference_values(self):
        l1, l2, l3 = pants(P0.a, P0.alpha_tilde).lengths
        assert l1 == l2
        assert_allclose(l1, L1_0, rtol=1e-14)
        assert_allclose(l3, L3_0, rtol=1e-14)
        assert_allclose(l3, 4.0 * math.log(3.0), rtol=1e-14)

    def test_regular_length_is_perimeter_over_eight(self):
        l1 = pants(A_REG, 0.0).lengths[0]
        assert_allclose(l1, L1_REG, rtol=1e-14)
        assert_allclose(l1, 2.0 * math.acosh(1.0 + math.sqrt(2.0)), rtol=1e-14)

    def test_distance_oracles(self):
        rng = np.random.default_rng(42)
        for p in random_params(rng, 12):
            geom = build_geometry(p)
            l1, _, l3 = pants(p.a, p.alpha_tilde).lengths
            assert_allclose(l1, 2.0 * dist(geom.midpoints[0], geom.midpoints[1]), rtol=1e-11)
            assert_allclose(l3, 2.0 * dist(0.0, p.a), rtol=1e-13)


class TestTwists:
    def test_reference_value_and_tau3(self):
        data = pants(P0.a, P0.alpha_tilde)
        t1, t2, t3 = data.twists
        assert t1 == t2
        assert_allclose(t1, TAU1_0, rtol=1e-13)
        assert_allclose(t3, 0.5 * data.lengths[2], rtol=1e-15)

    def test_sign_follows_alpha_tilde(self):
        plus = pants(0.8, 0.2).twists[0]
        minus = pants(0.8, -0.2).twists[0]
        assert plus > 0.0
        assert_allclose(minus, -plus, rtol=1e-15)

    def test_zero_on_symmetric_locus(self):
        assert pants(0.9, 0.0).twists[0] == 0.0
        assert pants(A_REG, 0.0).twists[0] == 0.0


class TestTraceParams:
    def test_reference_values(self):
        c, d = trace_forms(half_turns(build_geometry(P0)))
        assert_allclose(c[2], C3_0, rtol=1e-12)
        assert_allclose(d[0], D12_0, rtol=1e-11)
        assert_allclose(d[1], D12_0, rtol=1e-11)
        assert_allclose(d[2], D3_0, rtol=1e-11)

    def test_c_equals_cosh_half_length(self):
        rng = np.random.default_rng(1)
        for p in random_params(rng, 10):
            data = pants(p.a, p.alpha_tilde)
            for k in range(3):
                assert abs(data.c[k] - math.cosh(0.5 * data.lengths[k])) < 1e-9

    def test_trace_route_equals_closed_forms(self):
        rng = np.random.default_rng(2)
        for p in random_params(rng, 10):
            _, d = trace_forms(half_turns(build_geometry(p)))
            ref = d_closed_forms(p.a, p.alpha_tilde)
            for k in range(3):
                assert abs(d[k] - ref[k]) < 1e-9

    def test_c3_closed_form(self):
        a = P0.a
        assert_allclose(C3_0, (1 + a * a) / (1 - a * a), rtol=1e-15)


class TestPantsData:
    def test_dt_identity(self):
        rng = np.random.default_rng(3)
        for p in random_params(rng, 10):
            res = dt_residuals(pants(p.a, p.alpha_tilde))
            assert max(abs(r) for r in res) < 1e-9

    def test_primed_is_conjugate_evaluation(self):
        data_p = pants(*conjugate(P0.a, P0.alpha_tilde))
        assert_allclose(data_p.lengths[0], L1_PRIMED, rtol=1e-13)

    def test_primed_twists_flip_sign(self):
        rng = np.random.default_rng(4)
        for p in random_params(rng, 10):
            if p.alpha_tilde == 0.0:
                continue
            t = pants(p.a, p.alpha_tilde).twists[0]
            tp = pants(*conjugate(p.a, p.alpha_tilde)).twists[0]
            assert t * tp < 0.0

    def test_primed_involution(self):
        base = pants(P0.a, P0.alpha_tilde)
        again = pants(*conjugate(*conjugate(P0.a, P0.alpha_tilde)))
        assert_allclose(again.lengths, base.lengths, rtol=1e-12)
        assert_allclose(again.twists, base.twists, rtol=1e-12)

    def test_primed_length_distance_oracle(self):
        rng = np.random.default_rng(5)
        for p in random_params(rng, 8):
            geom = build_geometry(p)
            lp = pants(*conjugate(p.a, p.alpha_tilde)).lengths[0]
            assert_allclose(
                lp, 2.0 * dist(1j * geom.midpoints[0], geom.midpoints[1]),
                rtol=1e-10,
            )


class TestLTRelations:
    def test_l3_relation_is_algebraic(self):
        rep = lt_forms(P0.a, P0.alpha_tilde)
        assert abs(rep.residual_l3) < 1e-12
        assert abs(rep.residual_tau3) < 1e-15

    def test_residuals_relative_near_boundary(self):
        # L'1 is about 1186 here; the absolute L'1 residual was 6.4e-10
        rep = lt_forms(0.7118741777658835, -0.11211394611724779)
        assert rep.max_residual <= 1e-12
        residuals = (rep.residual_l3, rep.residual_tau3,
                     rep.residual_l1_primed, rep.residual_t1_primed)
        assert rep.max_residual == max(map(abs, residuals))

    def test_all_residuals_on_random_points(self):
        rng = np.random.default_rng(6)
        for p in random_params(rng, 25):
            assert lt_forms(p.a, p.alpha_tilde).max_residual < 1e-9


class TestWPForm:
    def test_coefficient_reference_values(self):
        assert_allclose(wp_coefficient_raw(P0.a, P0.alpha_tilde), WP_0, rtol=1e-13)
        assert_allclose(wp_coefficient_raw(A_REG, 0.0), WP_REG, rtol=1e-13)

    def test_coefficient_positive_and_array_safe(self):
        vals = wp_coefficient_raw(np.array([0.8, A_REG]), np.array([0.1, 0.0]))
        assert vals.shape == (2,)
        assert (vals > 0).all()

    def test_fd_matches_closed_form(self):
        summands = wolpert_forms(P0.a, P0.alpha_tilde)[0]
        assert abs(sum(summands) - WP_0) / WP_0 < 1e-14
        assert summands[0] == summands[1]
        assert summands[2] == 0.0

    def test_fd_primed_matches_unprimed(self):
        rng = np.random.default_rng(7)
        for p in random_params(rng, 5):
            coeff = wp_coefficient_raw(p.a, p.alpha_tilde)
            for summands in wolpert_forms(p.a, p.alpha_tilde):
                assert abs(sum(summands) - coeff) / coeff < 1e-13
                assert summands[2] == 0.0


EPS = 2.0**-52
DELTA = 1e-6


def _reference_points():
    """Points within DELTA of each domain boundary and within 1e-12 of at = 0."""
    # tau1 at (0.8, 1e-8) is 3.78e-8; the arccosh form gave 0
    points = [(0.8, 1e-8), (0.8, math.pi / 12), (A_REG, 0.0), (A_REG, 1e-12)]
    for at in (0.0, 1e-12, -1e-12, 1e-8, 0.3, -0.5,
               math.pi / 4 - DELTA, -(math.pi / 4 - DELTA)):
        lo = lower_a(at)
        for a in (lo + DELTA, 0.5 * (lo + 1.0), 1.0 - DELTA):
            if lo < a < 1.0:
                points.append((a, at))
    return points


def test_closed_forms_match_mpmath():
    """Lengths, twists, d_k, the complex-step Wolpert value and the WP
    coefficient against 50-digit mpmath evaluations of the defining formulas
    at the same floats.

    Bar: relative error <= max(1e-14, 8 eps kappa) with kappa the condition
    number 1/(2a^2 cos^2(at) - 1) of the point.  It is 1e-14 except near the
    lower-a boundary, where every quantity inherits the rounding of
    2a^2 cos^2(at) - 1.  The primed Wolpert route evaluates the forms at the
    conjugate point (b, -at), so its kappa also takes the conjugate's
    1/(2b^2 cos^2(at) - 1) = a^2/(1 - a^2), large near a = 1.
    """
    with mp.workdps(50):
        for a, at in _reference_points():
            A, T = mp.mpf(a), mp.mpf(at)
            q = 2 * A * A * mp.cos(T) ** 2 - 1
            b = 1 / (mp.sqrt(2) * A * mp.cos(T))
            l1 = 2 * mp.acosh(A * A / (1 - A * A))
            l3 = 2 * mp.log((1 + A) / (1 - A))
            tau1 = mp.sign(T) * mp.acosh((2 * A * A - 1) / (A * A * (1 - b * b)) - 1)
            d12 = 4 / ((1 - A * A) * (1 - b * b)) - 1
            coeff = 8 * A / ((1 - A * A) * q)
            kappa = float(1 / q)
            kappa_primed = max(kappa, float(A * A / (1 - A * A)))
            # the closed forms alone: pants_forms also takes the half-turn
            # traces, which raise NumericalError near the corner
            got_l1, got_l3, got_tau1, got_tau3 = _fn_forms(a, at)
            summands, summands_primed = wolpert_forms(a, at)
            cases = [
                ((got_l1, got_l3), (l1, l3), kappa),
                ((got_tau1, got_tau3), (tau1, l3 / 2), kappa),
                (d_closed_forms(a, at), (d12, d12, 2 / (1 - A * A) ** 2 - 1), kappa),
                ((sum(summands),), (coeff,), kappa),
                ((sum(summands_primed),), (coeff,), kappa_primed),
                ((wp_coefficient_raw(a, at),), (coeff,), kappa),
            ]
            for got, ref, k in cases:
                bar = max(1e-14, 8.0 * EPS * k)
                for x, r in zip(got, ref):
                    assert type(x) is float
                    err = abs(mp.mpf(x) - r) / abs(r) if r else abs(x)
                    assert err <= bar, (a, at, x, r, bar)
