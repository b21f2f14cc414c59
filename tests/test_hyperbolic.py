import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from teich2.errors import NumericalError
from teich2.group import generators
from teich2.hyperbolic import (
    MobiusTransform,
    dist,
    half_turn_pair,
    rotation,
    su_act,
    su_check,
    su_gap,
    su_inverse,
    su_mul,
    translation_pair,
)
from teich2.octagon import OctagonParams

IDENTITY = (1.0 + 0.0j, 0.0j)


def random_disk_points(rng, n, rmax=0.95):
    r = rmax * np.sqrt(rng.uniform(0.0, 1.0, n))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    return r * np.exp(1j * theta)


def h_pair(p):
    """The pair of H(p) at one point p."""
    return translation_pair(complex(p))


def r_pair(phi):
    """The pair of the rotation z -> e^{i phi} z."""
    r = rotation(phi)
    return r.u, r.v


class TestDist:
    def test_radial_closed_form(self):
        rng = np.random.default_rng(42)
        for a in rng.uniform(0.01, 0.99, 50):
            assert_allclose(dist(0.0, a), math.log((1 + a) / (1 - a)), rtol=1e-13)

    def test_symmetry(self):
        rng = np.random.default_rng(42)
        zs = random_disk_points(rng, 30)
        ws = random_disk_points(rng, 30)
        for z, w in zip(zs, ws):
            assert_allclose(dist(z, w), dist(w, z), rtol=1e-14)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(7)
        pts = random_disk_points(rng, 90).reshape(30, 3)
        for z, w, x in pts:
            assert dist(z, w) <= dist(z, x) + dist(x, w) + 1e-12

    def test_mobius_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            z, w, p = random_disk_points(rng, 3, rmax=0.8)
            t = su_mul(h_pair(p), r_pair(rng.uniform(0, 2 * math.pi)))
            assert_allclose(dist(su_act(*t, z), su_act(*t, w)), dist(z, w),
                            rtol=1e-11, atol=1e-13)

    def test_rejects_boundary_and_exterior(self):
        for z in (1.0 + 0.0j, 0.8 + 0.7j):
            for call in (lambda: dist(z, 0.0), lambda: dist(0.0, z)):
                with pytest.raises(ValueError, match="not strictly inside the unit disk"):
                    call()


class TestMobiusTransform:
    """The SU(1,1) pair functions; MobiusTransform is the record of one pair."""

    def test_identity_and_call(self):
        assert su_mul(IDENTITY, IDENTITY) == IDENTITY
        assert su_check(*IDENTITY) == 1.0
        assert su_act(*IDENTITY, 0.25 + 0.1j) == 0.25 + 0.1j
        assert abs(2.0 * IDENTITY[0].real) == 2.0  # |Tr| = 2: parabolic

    def test_su11_defect_rejected(self):
        with pytest.raises(NumericalError):
            su_check(1.0 + 1e-6, 0.0)
        # the record's constructor is su_check
        with pytest.raises(NumericalError):
            MobiusTransform(1.0 + 1e-6, 0.0)

    def test_small_defect_kept_as_given(self):
        # a defect within the bar passes, and no pair is rescaled
        assert su_check(1.0 + 3e-10, 0.0) == (1.0 + 3e-10) ** 2
        t = MobiusTransform(1.0 + 3e-10, 0.0)
        assert (t.u, t.v) == (1.0 + 3e-10, 0.0)

    def test_defect_measured_against_entry_size(self):
        # at |v| = 1e6 the bar is 1e-9 (|u|^2 + |v|^2) = 2e3
        v = 1e6
        u = math.sqrt(v * v + 1.0 + 1e2)
        assert su_check(u, v) == u * u + v * v
        with pytest.raises(NumericalError):
            su_check(math.sqrt(v * v + 1.0 + 1e4), v)

    def test_nonpositive_det_rejected(self):
        for u, v in ((1e9, 1e9), (1e9, 1e9 + 1.0)):
            with pytest.raises(NumericalError):
                su_check(u, v)

    def test_non_finite_product_rejected(self):
        # su_mul returns the product as computed; su_check rejects it.
        # |u|^2 - |v|^2 is NaN here, which compares false both ways
        with pytest.raises(NumericalError, match="= nan has drifted from 1") as info:
            su_check(*su_mul((math.inf, 0.0), (1.0, 0.0)))
        assert info.value.index == 0
        # and inf here, within any bar relative to |u|^2 + |v|^2 = inf
        with pytest.raises(NumericalError, match="= inf has drifted from 1"):
            su_check(math.inf, 0.0)
        fine = (np.full(3, 1.25), np.full(3, 0.75 + 0j))
        for bad in (math.inf, math.nan):
            x = (np.array([1.25, bad, 1.25]), fine[1])
            with np.errstate(invalid="ignore"):
                product = su_mul(fine, x)
                with pytest.raises(NumericalError, match="has drifted from 1") as info:
                    su_check(*product)
            assert info.value.index == 1

    def test_unrenormalizable_product_is_numerical_error(self):
        # each factor is valid, but the product's |u|^2 - |v|^2 rounds to 0:
        # su_mul returns it as computed, and su_check rejects it
        r = 1.0 - 1e-7
        u, v = su_mul(h_pair(r), h_pair(1j * r))
        assert abs(abs(u) ** 2 - abs(v) ** 2 - 1.0) > 0.5
        with pytest.raises(NumericalError, match="has drifted from 1"):
            su_check(u, v)

    def test_compose_matches_sequential_action(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            p, q, z = random_disk_points(rng, 3, rmax=0.7)
            s, t = h_pair(p), h_pair(q)
            assert_allclose(su_act(*su_mul(s, t), z), su_act(*s, su_act(*t, z)),
                            rtol=1e-11, atol=1e-13)

    def test_inverse(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p, z = random_disk_points(rng, 2, rmax=0.7)
            t = su_mul(h_pair(p), r_pair(0.7))
            assert_allclose(su_act(*su_inverse(t), su_act(*t, z)), z, rtol=1e-11, atol=1e-13)
            assert su_gap(su_mul(t, su_inverse(t)), IDENTITY) < 1e-12

    def test_canonical_sign(self):
        # ball's canonical sign negates a pair where Re u < 0: a hyperbolic pair
        # has |Re u| = |Tr|/2 > 1, so the negated pair has Re u > 1
        t = (-2.0, complex(math.sqrt(3.0)))
        assert abs(2.0 * t[0].real) > 2.0 and t[0].real < -1.0
        c = (-t[0], -t[1])
        assert c[0].real > 1.0
        assert su_gap(c, t) == 0.0

    def test_canonical_negates_exactly(self):
        # the radius-4 element aCAA at this point has |u| ~ 3e7, where
        # |u|^2 - |v|^2 of the pair rounds far from 1 (0.75 here, 0.0 on
        # another lift): renormalizing the negated pair would move it by 15% or
        # reject it, so the canonical sign (ball's) is a plain negation, and
        # Re u of the negated pair is far from the rule's threshold 0
        gens = generators(OctagonParams(0.8832031542650554, -0.6409572070710325))
        a, big_a, big_c = gens[0], su_inverse(gens[0]), su_inverse(gens[2])
        t = su_mul(su_mul(su_mul(a, big_c), big_a), (-big_a[0], -big_a[1]))
        assert t[0].real < -1.0 and abs(t[0]) > 1e7
        assert -t[0].real > 1.0 and su_gap((-t[0], -t[1]), t) == 0.0

    def test_su_gap_ignores_sign(self):
        t = h_pair(0.3 + 0.2j)
        assert su_gap(t, (-t[0], -t[1])) == 0.0
        assert su_gap(t, r_pair(1.0)) > 0.1


class TestPrimitives:
    def test_rotation_action(self):
        t = rotation(1.1)
        assert_allclose(su_act(t.u, t.v, 0.5 + 0.2j), cmath.exp(1.1j) * (0.5 + 0.2j),
                        rtol=1e-14)

    def test_translation_maps_minus_p_to_p(self):
        rng = np.random.default_rng(11)
        for p in random_disk_points(rng, 20, rmax=0.9):
            t = h_pair(p)
            assert_allclose(su_act(*t, -p), p, rtol=1e-12, atol=1e-14)
            # the origin moves by twice dist(0, p) along the axis
            assert_allclose(dist(0, su_act(*t, 0)), 2 * dist(0, p), rtol=1e-12)

    def test_half_turn_pair_is_involution(self):
        rng = np.random.default_rng(13)
        for w in random_disk_points(rng, 20, rmax=0.9):
            m = half_turn_pair(complex(w))
            assert_allclose(2.0 * m[0].real, 0.0, atol=1e-15)
            # M(omega)^2 = -identity
            assert_allclose(su_mul(m, m), (-1.0, 0.0), atol=1e-12)
            fixed = w / (1 + math.sqrt(1 - abs(w) ** 2))
            assert_allclose(su_act(*m, fixed), fixed, rtol=1e-12, atol=1e-14)


class TestPairArrays:
    def test_product_matches_maps(self):
        rng = np.random.default_rng(17)
        ps, qs = random_disk_points(rng, 20, rmax=0.8), random_disk_points(rng, 20, rmax=0.8)
        maps = [(h_pair(p), su_mul(h_pair(q), r_pair(1.3))) for p, q in zip(ps, qs)]
        x = tuple(np.array(part) for part in zip(*(s for s, _ in maps)))
        y = tuple(np.array(part) for part in zip(*(t for _, t in maps)))
        u, v = su_mul(x, y)
        for k, (s, t) in enumerate(maps):
            su, sv = su_mul(s, t)
            # numpy's complex rounding differs from Python's in the last bit of
            # terms that |u|^2 + |v|^2 bounds here
            size = abs(su) ** 2 + abs(sv) ** 2
            assert_allclose((u[k], v[k]), (su, sv), rtol=4 * np.finfo(float).eps * size)

    def test_action_matches_maps(self):
        rng = np.random.default_rng(19)
        maps = [su_mul(h_pair(p), r_pair(0.4)) for p in random_disk_points(rng, 20, rmax=0.95)]
        u, v = (np.array(part) for part in zip(*maps))
        z = random_disk_points(rng, 7, rmax=0.99)
        images = [[su_act(*t, w) for w in z.tolist()] for t in maps]
        assert_allclose(su_act(u[:, None], v[:, None], z), images, rtol=1e-13)

    def test_breakdown_names_the_first_failing_element(self):
        # as in test_unrenormalizable_product_is_numerical_error, at positions 2 and 4
        r = 1.0 - 1e-7
        h, hi, fine = h_pair(r), h_pair(1j * r), h_pair(0.3)
        x = tuple(np.array(part, complex) for part in zip(fine, fine, h, fine, h))
        y = tuple(np.array(part, complex) for part in zip(fine, fine, hi, fine, hi))
        with pytest.raises(NumericalError, match="SU\\(1,1\\) pair: .* has drifted from 1") as info:
            su_check(*su_mul(x, y))
        assert info.value.index == 2
        with pytest.raises(NumericalError, match="has drifted from 1") as info:
            su_check(np.array([1.0, 1.0 + 1e-6]), np.zeros(2))
        assert info.value.index == 1

    def test_dist_elementwise(self):
        rng = np.random.default_rng(23)
        z, w = random_disk_points(rng, 30), random_disk_points(rng, 30)
        d = dist(z, w)
        assert d.shape == (30,)
        assert_allclose(d, [dist(complex(p), complex(q)) for p, q in zip(z, w)], rtol=1e-14)
        with pytest.raises(ValueError, match=r"point \(0\.8\+0\.7j\) is not strictly inside"):
            dist(np.array([0.1, 0.8 + 0.7j]), 0.0)
