import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from teich2.errors import NumericalError
from teich2.group import generators
from teich2.hyperbolic import (
    GeodesicArc,
    MobiusTransform,
    dist,
    m_half_turn,
    projective_gap,
    rotation,
    su_act,
    su_mul,
    su_normalize,
    su_sign_flip,
    translation,
)
from teich2.octagon import OctagonParams


def random_disk_points(rng, n, rmax=0.95):
    r = rmax * np.sqrt(rng.uniform(0.0, 1.0, n))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    return r * np.exp(1j * theta)


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
            t = translation(p) @ rotation(rng.uniform(0, 2 * math.pi))
            assert_allclose(dist(t(z), t(w)), dist(z, w), rtol=1e-11, atol=1e-13)

    def test_rejects_boundary_and_exterior(self):
        # dist, the action of a transform and translation share this check
        for z in (1.0 + 0.0j, 0.8 + 0.7j):
            for call in (lambda: dist(z, 0.0), lambda: dist(0.0, z),
                         lambda: rotation(0.3)(z), lambda: translation(z)):
                with pytest.raises(ValueError, match="not strictly inside the unit disk"):
                    call()


class TestGeodesicArc:
    def test_circular_points_lie_on_center_circle(self):
        arc = GeodesicArc(0.61, 0.5)
        center = math.sqrt(1 + 0.61**2) * cmath.exp(0.5j)
        assert_allclose(complex(arc.center), center, rtol=1e-15)
        for s in np.linspace(-2.0, 2.0, 17):
            z = arc.point(s)
            assert abs(z) < 1.0
            assert_allclose(abs(z - center), 0.61, rtol=1e-12)

    def test_arclength_parametrization(self):
        # parameter differences are hyperbolic distances along the arc
        arc = GeodesicArc(0.3236, 1.3477)
        for s1, s2 in [(-1.0, 0.5), (0.0, 2.0), (-2.0, -0.5)]:
            assert_allclose(dist(arc.point(s1), arc.point(s2)), abs(s2 - s1),
                            rtol=1e-11)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            GeodesicArc(-0.2, 0.0)


class TestMobiusTransform:
    def test_identity_and_call(self):
        t = MobiusTransform.identity()
        assert t(0.25 + 0.1j) == 0.25 + 0.1j
        assert t.trace == 2.0

    def test_su11_defect_rejected(self):
        with pytest.raises(ValueError):
            MobiusTransform(1.0 + 1e-6, 0.0)

    def test_small_defect_renormalized(self):
        t = MobiusTransform(1.0 + 3e-10, 0.0)
        assert_allclose(abs(t.u) ** 2 - abs(t.v) ** 2, 1.0, rtol=1e-15)

    def test_defect_measured_against_entry_size(self):
        # at |v| = 1e6 the bar is 1e-9 (|u|^2 + |v|^2) = 2e3
        v = 1e6
        t = MobiusTransform(math.sqrt(v * v + 1.0 + 1e2), v)
        assert abs(abs(t.u) ** 2 - abs(t.v) ** 2 - 1.0) < 1e-3
        with pytest.raises(ValueError):
            MobiusTransform(math.sqrt(v * v + 1.0 + 1e4), v)

    def test_nonpositive_det_rejected(self):
        for u, v in ((1e9, 1e9), (1e9, 1e9 + 1.0)):
            with pytest.raises(ValueError):
                MobiusTransform(u, v)

    def test_unrenormalizable_product_is_numerical_error(self):
        # each factor is valid, but the product's |u|^2 - |v|^2 rounds to 0
        r = 1.0 - 1e-7
        with pytest.raises(NumericalError, match="not renormalizable"):
            translation(r) @ translation(1j * r)
        # a pair that is passed in stays a bad argument
        with pytest.raises(ValueError, match="not renormalizable"):
            translation(1.0 - 1e-8)

    def test_compose_matches_sequential_action(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            p, q, z = random_disk_points(rng, 3, rmax=0.7)
            s, t = translation(p), translation(q)
            assert_allclose((s @ t)(z), s(t(z)), rtol=1e-11, atol=1e-13)

    def test_inverse(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p, z = random_disk_points(rng, 2, rmax=0.7)
            t = translation(p) @ rotation(0.7)
            assert_allclose(t.inverse()(t(z)), z, rtol=1e-11, atol=1e-13)
            assert projective_gap(t @ t.inverse(), MobiusTransform.identity()) < 1e-12

    def test_classify(self):
        assert rotation(0.8).classify() == "elliptic"
        assert translation(0.4).classify() == "hyperbolic"
        assert MobiusTransform(1.0 + 0.3j, 0.3j).classify() == "parabolic"

    def test_canonical_sign(self):
        t = MobiusTransform(-2.0, complex(math.sqrt(3.0)))
        c = t.canonical()
        assert c.u.real > 0
        assert projective_gap(c, t) == 0.0

    def test_canonical_negates_exactly(self):
        # the radius-4 element aCAA at this point has |u| ~ 3e7, where
        # |u|^2 - |v|^2 of the renormalized pair rounds far from 1 (0.75 here,
        # 0.0 on another lift): renormalizing the negated pair again moved it
        # by 15% or rejected it, so canonical() must negate exactly
        gens = generators(OctagonParams(0.8832031542650554, -0.6409572070710325))
        letters = dict(gens.letters())
        a, big_c, big_a = letters["a"], letters["C"], letters["A"]
        t = a @ big_c @ big_a @ MobiusTransform(-big_a.u, -big_a.v)
        assert t.u.real < 0.0
        c = t.canonical()
        assert (c.u, c.v) == (-t.u, -t.v)
        assert c.canonical() is c

    def test_projective_gap_ignores_sign(self):
        t = translation(0.3 + 0.2j)
        neg = MobiusTransform(-t.u, -t.v)
        assert projective_gap(t, neg) == 0.0
        assert projective_gap(t, rotation(1.0)) > 0.1


class TestPrimitives:
    def test_rotation_action(self):
        t = rotation(1.1)
        assert_allclose(t(0.5 + 0.2j), cmath.exp(1.1j) * (0.5 + 0.2j), rtol=1e-14)

    def test_translation_maps_minus_p_to_p(self):
        rng = np.random.default_rng(11)
        for p in random_disk_points(rng, 20, rmax=0.9):
            t = translation(p)
            assert_allclose(t(-p), p, rtol=1e-12, atol=1e-14)
            # the origin moves by twice dist(0, p) along the axis
            assert_allclose(dist(0, t(0)), 2 * dist(0, p), rtol=1e-12)

    def test_m_half_turn_is_involution(self):
        rng = np.random.default_rng(13)
        for w in random_disk_points(rng, 20, rmax=0.9):
            m = m_half_turn(w)
            assert_allclose(m.trace, 0.0, atol=1e-15)
            assert projective_gap(m @ m, MobiusTransform.identity()) < 1e-12
            fixed = w / (1 + math.sqrt(1 - abs(w) ** 2))
            assert_allclose(m(fixed), fixed, rtol=1e-12, atol=1e-14)


class TestPairArrays:
    def test_product_matches_maps(self):
        rng = np.random.default_rng(17)
        ps, qs = random_disk_points(rng, 20, rmax=0.8), random_disk_points(rng, 20, rmax=0.8)
        maps = [(translation(p), translation(q) @ rotation(1.3)) for p, q in zip(ps, qs)]
        x = tuple(np.array([getattr(s, f) for s, _ in maps]) for f in ("u", "v"))
        y = tuple(np.array([getattr(t, f) for _, t in maps]) for f in ("u", "v"))
        u, v = su_mul(x, y)
        for k, (s, t) in enumerate(maps):
            st = s @ t
            # numpy's complex rounding differs from Python's in the last bit, and
            # renormalization scales that by |u|^2 + |v|^2
            size = abs(st.u) ** 2 + abs(st.v) ** 2
            assert_allclose((u[k], v[k]), (st.u, st.v), rtol=4 * np.finfo(float).eps * size)

    def test_action_matches_maps(self):
        rng = np.random.default_rng(19)
        maps = [translation(p) @ rotation(0.4) for p in random_disk_points(rng, 20, rmax=0.95)]
        u, v = np.array([t.u for t in maps]), np.array([t.v for t in maps])
        z = random_disk_points(rng, 7, rmax=0.99)
        images = [[t(w) for w in z.tolist()] for t in maps]
        assert_allclose(su_act(u[:, None], v[:, None], z), images, rtol=1e-13)

    def test_sign_flip_elementwise(self):
        u = np.array([-2.0, 1e-12 - 1j, 1e-12 + 1e-12j, 0j])
        v = np.array([1.0, 0j, -3.0, 0j])
        assert su_sign_flip(u, v).tolist() == [True, True, True, False]
        assert [bool(su_sign_flip(a, b)) for a, b in zip(u.tolist(), v.tolist())] == [
            True, True, True, False]

    def test_breakdown_names_the_first_failing_element(self):
        # as in test_unrenormalizable_product_is_numerical_error, at positions 2 and 4
        r = 1.0 - 1e-7
        h, hi = translation(r), translation(1j * r)
        fine = translation(0.3)
        x = np.array([fine.u, fine.u, h.u, fine.u, h.u]), \
            np.array([fine.v, fine.v, h.v, fine.v, h.v])
        y = np.array([fine.u] * 2 + [hi.u] + [fine.u] + [hi.u]), \
            np.array([fine.v] * 2 + [hi.v] + [fine.v] + [hi.v])
        with pytest.raises(NumericalError, match="product of SU\\(1,1\\) maps: .* not renormalizable") as info:
            su_mul(x, y)
        assert info.value.index == 2
        # the constructor's test on arrays stays a bad argument
        with pytest.raises(ValueError, match="not renormalizable"):
            su_normalize(np.array([1.0, 1.0 + 1e-6]), np.zeros(2))

    def test_dist_elementwise(self):
        rng = np.random.default_rng(23)
        z, w = random_disk_points(rng, 30), random_disk_points(rng, 30)
        d = dist(z, w)
        assert d.shape == (30,)
        assert_allclose(d, [dist(complex(p), complex(q)) for p, q in zip(z, w)], rtol=1e-14)
        with pytest.raises(ValueError, match=r"point \(0\.8\+0\.7j\) is not strictly inside"):
            dist(np.array([0.1, 0.8 + 0.7j]), 0.0)
