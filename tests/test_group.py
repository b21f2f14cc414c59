import cmath
import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from conftest import domain_points
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from teich2 import group
from teich2.errors import NumericalError
from teich2.group import (
    BALL_SIZES,
    LETTERS,
    _letter_maps,
    _times,
    ball,
    cells,
    crossing_violations,
    generator_pairs,
    generators,
    half_turns,
    pairing_residuals,
    relation_defect,
    side_pairing_check,
)
from teich2.hyperbolic import (
    dist,
    half_turn_pair,
    su_act,
    su_check,
    su_gap,
    su_inverse,
    su_mul,
    translation_pair,
)
from teich2.octagon import OctagonParams, build_geometry, grid_arrays, in_octagon, lower_a

A_REG = 2.0 ** -0.25
P0 = OctagonParams(0.8, math.pi / 12)

# regular-octagon generator g0 and its trace
U0_REG = -(1.0 + math.sqrt(2.0))
V0_REG = -2.0301035302564356 - 0.84089641525371454j
TRACE_REG = 4.8284271247461901

# points of grid_arrays(10, 10, 0.005) where a dedup with absolute entry
# tolerances raised at radius 4
MARGIN_005_POINTS = [
    OctagonParams(0.8953176833583073, -0.634291723986684),
    OctagonParams(0.8286353908466143, -0.4933380075451987),
    OctagonParams(0.9161338114692945, -0.3523842911037134),
]
# whole-domain points whose radius-4 balls the float orbit-point comparison
# refused: at the first the exact words give the whole radius-3 ball, and
# radius 4 passes ball's size bound; at both a radius-4 product's
# |u|^2 - |v|^2 is lost to roundoff altogether
PAST_PRECISION = [
    OctagonParams(0.9905482311121936, -0.7527861665680812),
    OctagonParams(0.995099525262749, -0.7740075264130591),
]
EPS = np.finfo(float).eps
IDENTITY = (1.0 + 0.0j, 0.0j)
# Z[zeta] row (c0..c3) of c0 + c1 zeta + c2 zeta^2 + c3 zeta^3 -> complex
ZETA = np.exp(0.25j * np.pi * np.arange(4))


def _norm(t) -> float:
    return math.sqrt(abs(t[0]) ** 2 + abs(t[1]) ** 2)


def _conditioning(a, at):
    """1/q + 1/(1 - a^2), q = 2 a^2 cos^2(at) - 1: how the closed-form g0 and
    g1 magnify the rounding of their inputs near the lower-a edge and a = 1."""
    return 1.0 / (2.0 * a * a * np.cos(at) ** 2 - 1.0) + 1.0 / (1.0 - a * a)


def _letters(gens):
    """The letters a, A, b, B, ... of ball: each generator pair and its inverse."""
    return dict(zip(LETTERS, (x for g in gens for x in (g, su_inverse(g)))))


def shrinking_block_probe(geom, gens, samples, seed):
    """(samples drawn, violations) of side_pairing_check's probe
    drawn in shrinking blocks: each pass draws as many candidates as samples
    are missing, and every sample and every image is one in_octagon call."""
    rng = np.random.default_rng(seed)
    bound = max(geom.vertices[0].real, geom.b)
    gu, gv = (np.array(part)[:, None] for part in zip(*gens))
    drawn = violations = 0
    while drawn < samples:
        block = rng.uniform(-bound, bound, (samples - drawn, 2)).view(complex)[:, 0]
        inside = [z for z in block.tolist() if in_octagon(geom, z, shrink=1e-4)]
        drawn += len(inside)
        images = su_act(gu, gv, np.array(inside, complex))
        violations += sum(in_octagon(geom, w, shrink=-1e-7) for w in images.ravel().tolist())
    return drawn, violations


def full_image_test(geom, gens, samples, seed):
    """Interior violations of side_pairing_check's probe with every image
    tested against the disk and all eight side circles, in one (8, 4, samples)
    array expression, as the probe counted them before it settled each image
    by its own side's circle first."""
    rng = np.random.default_rng(seed)
    bound = max(geom.vertices[0].real, geom.b)
    inside = []
    while len(inside) < samples:
        block = rng.uniform(-bound, bound, (samples, 2)).view(complex)[:, 0].tolist()
        inside += [z for z in block if in_octagon(geom, z, shrink=1e-4)]
    gu, gv = (np.array(part)[:, None] for part in zip(*gens))
    images = su_act(gu, gv, np.array(inside[:samples]))
    d = images - np.array(geom.centres)[:, None, None]
    radius = np.array([geom.r_plus, geom.r_minus] * 4)[:, None, None] - 1e-7
    outside = (np.hypot(d.real, d.imag) > radius).all(axis=0)
    hit = (np.hypot(images.real, images.imag) < 1.0) & outside
    return int(np.count_nonzero(hit))


class TestGenerators:
    def test_regular_point_values(self):
        gens = generators(OctagonParams(A_REG, 0.0))
        u0, v0 = gens[0]
        assert_allclose(u0, U0_REG, rtol=1e-14)
        assert_allclose(v0, V0_REG, rtol=1e-14)
        for u, _ in gens:
            assert_allclose(abs(2.0 * u.real), TRACE_REG, rtol=1e-13)

    def test_all_hyperbolic_in_domain(self):
        # |tr g_k| = 2|u_k| >= 2 sqrt2 at every point of the domain, proven
        # (tests/test_certificates.py)
        rng = np.random.default_rng(42)
        for _ in range(15):
            at = rng.uniform(-0.6, 0.6)
            a = rng.uniform(1.0 / (math.sqrt(2.0) * math.cos(at)) + 0.02, 0.98)
            gens = generators(OctagonParams(a, at))
            for u, _ in gens:
                assert abs(u) ** 2 >= 2.0
                assert abs(2.0 * u.real) >= 2.0 * math.sqrt(2.0)

    @pytest.mark.parametrize("margin", [0.02, 1e-3])
    def test_closed_forms_match_mpmath(self, margin):
        # g0 and g1 are in SU(1,1) by construction and are not renormalized, so
        # they carry only the rounding of their closed forms.  Bar, relative to
        # their size: 2 eps _conditioning(a, at), at most 98 eps at margin 0.02
        # and 2000 eps at 1e-3 on this grid.  Measured: 5.2 eps and 222 eps;
        # renormalizing them made it 139 eps and 4364 eps
        a, at = grid_arrays(20, 20, margin)
        g = generator_pairs(a, at)
        with mp.workdps(50):
            for i, (x, y) in enumerate(zip(a.tolist(), at.tolist())):
                A, T = mp.mpf(x), mp.mpf(y)
                a2, tn = A * A, mp.tan(T)
                norm = -mp.cos(T) / mp.sqrt((1 - a2) * (2 * a2 * mp.cos(T) ** 2 - 1))
                exact = ((norm * A * (1 - tn), norm * ((a2 - tn) + 1j * (1 - a2))),
                         (norm * A * (1 + tn), norm * ((1 - a2) + 1j * (a2 + tn))))
                bar = 2.0 * EPS * _conditioning(x, y)
                for k, (u_ref, v_ref) in enumerate(exact):
                    size = mp.sqrt(abs(u_ref) ** 2 + abs(v_ref) ** 2)
                    for u, v in ((g[k][0][i], g[k][1][i]), generator_pairs(x, y)[k]):
                        err = max(abs(complex(u) - u_ref), abs(complex(v) - v_ref)) / size
                        assert err <= bar, (x, y, k, float(err / EPS))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(domain_points(0.02), domain_points(1e-3), domain_points(1e-6)),
           st.floats(0.0, 13.0), st.floats(0.0, 2.0 * math.pi))
    def test_pairs_in_su11_by_construction(self, params, digits, angle):
        # g0, g1, the half turns M(w) of half_turns and the translations H(w)
        # are used as computed, not renormalized, so |u|^2 - |v|^2 = 1 must
        # hold to c kappa eps, kappa = |u|^2 + |v|^2: c = 2 _conditioning(a, at)
        # for g0 and g1, whose closed form magnifies their rounding, and c = 4
        # for M(w) and H(w) with 1 - |w| down to 1e-13.  Measured: 0.38
        # _conditioning(a, at) on 1e5 points down to margin 1e-6, and 2.0 and
        # 3.0 on 2e5 points of the disk
        a, at = params.a, params.alpha_tilde
        g0, g1, _, _ = generator_pairs(a, at)
        w = (1.0 - 10.0 ** -digits) * cmath.exp(1j * angle)
        c_g = 2.0 * _conditioning(a, at)
        for (u, v), c in ((g0, c_g), (g1, c_g), (half_turn_pair(w), 4.0),
                          (translation_pair(w), 4.0)):
            uu, vv = abs(u) ** 2, abs(v) ** 2
            assert abs(uu - vv - 1.0) <= c * (uu + vv) * EPS, (params, w, u, v)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(domain_points(0.02), domain_points(1e-6)))
    def test_generators_are_the_pairs_of_their_point(self, params):
        # repr tells every float bit apart, -0.0 from 0.0, and float from complex
        g = generators(params)
        assert len(g) == 4
        assert repr(g) == repr(generator_pairs(params.a, params.alpha_tilde))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(domain_points(0.02), domain_points(1e-3)))
    def test_quarter_turn_conjugates_are_exact(self, params):
        # R g R^-1 by the pi/2 rotation R is (u, i v) exactly; as computed
        # products, g2 and g3 lie within 4 eps of their size of it.  Measured:
        # 1.1 eps on 60 x 60 grids at margins 0.02, 1e-3 and 1e-6
        g0, g1, g2, g3 = generators(params)
        for (u, v), (cu, cv) in ((g0, g2), (g1, g3)):
            assert max(abs(cu - u), abs(cv - 1j * v)) <= 4.0 * EPS * _norm((u, v)), params

    def test_rotation_conjugation_pairs(self):
        # g2, g3 are the quarter-turn conjugates of g0, g1: u fixed, v times i
        gens = generators(P0)
        for k in (0, 1):
            assert_allclose(gens[k + 2][0], gens[k][0], rtol=1e-13)
            assert_allclose(gens[k + 2][1], 1j * gens[k][1], rtol=1e-13)

    def test_letters_order_and_inverses(self):
        # the radius-1 ball holds the letters in order: g_k, then its inverse
        gens = generators(P0)
        b = ball(gens, 1)
        assert b.shortlex[1:] == tuple(LETTERS) == ("a", "A", "b", "B", "c", "C", "d", "D")
        for k, g in enumerate(gens):
            assert su_gap((b.u[2 * k + 1], b.v[2 * k + 1]), g) < 1e-13
            assert su_gap(su_mul(g, (b.u[2 * k + 2], b.v[2 * k + 2])), IDENTITY) < 1e-13


class TestTripleConstruction:
    def test_generators_match_matrix_products_and_translations(self):
        geom = build_geometry(P0)
        gens = generators(P0)
        m = half_turns(geom)
        for k in range(4):
            assert su_gap(gens[k], su_mul(m[k], m[5])) < 1e-12
            h = translation_pair(geom.midpoints[k])
            assert su_gap(gens[k], h) < 1e-12


class TestRelation:
    def test_defect(self):
        # the word is +identity at every point (tests/test_certificates.py)
        assert relation_defect(generators(P0)) < 1e-12

    def test_defect_across_domain(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            at = rng.uniform(-0.7, 0.7)
            a = rng.uniform(1.0 / (math.sqrt(2.0) * math.cos(at)) + 0.02, 0.98)
            defect = relation_defect(generators(OctagonParams(a, at)))
            assert defect < 1e-9


class TestSidePairing:
    def test_residuals_and_containment(self):
        geom = build_geometry(P0)
        endpoint, midpoint, violations = side_pairing_check(
            geom, generators(P0), samples=300, seed=1)
        assert endpoint < 1e-12
        assert midpoint < 1e-12
        assert violations == 0

    def test_endpoint_residual_is_the_distance_to_the_proven_vertex(self):
        # g_k carries v_{k+4}, v_{k+5} onto v_{k+1}, v_k, proven.  Next to the
        # +pi/4 corner side 1 is 1.42e-7 long, and g1, rounded at |u|^2 ~ 5.6e15,
        # carries v6 to 1.429e-7 from v1 and 1.405e-9 from v2, the side's other end
        point = OctagonParams(0.9999999991113031, 0.7853980619178006)
        geom, gens = build_geometry(point), generators(point)
        endpoint, _ = pairing_residuals(geom.vertices, geom.midpoints, gens)
        assert endpoint == pytest.approx(1.429e-7, rel=1e-3)

    def test_seed_reproducible(self):
        geom = build_geometry(P0)
        gens = generators(P0)
        r1 = side_pairing_check(geom, gens, samples=100, seed=7)
        r2 = side_pairing_check(geom, gens, samples=100, seed=7)
        assert r1 == r2

    def test_negative_sample_count_rejected(self):
        with pytest.raises(ValueError, match="sample count must be >= 0, got -3"):
            side_pairing_check(build_geometry(P0), generators(P0), samples=-3, seed=0)

    # interior violations for seeds 0..4, recorded when
    # each candidate was drawn on its own; drawing the stream in blocks must
    # keep them.  Generators of another point make the violation counts
    # sensitive to the accepted samples.
    @pytest.mark.parametrize("point, gens_point, samples, counts", [
        ((0.8, 0.1), (0.8, 0.1), 500, [0] * 5),
        ((0.86, -0.3), (0.86, -0.3), 500, [0] * 5),
        ((0.72, 0.02), (0.72, 0.02), 500, [0] * 5),
        ((0.8, 0.1), (0.9, 0.3), 200, [15, 20, 11, 16, 17]),
        ((0.86, -0.3), (0.8, -0.35), 200, [12, 10, 10, 15, 11]),
        ((0.72, 0.02), (0.8, -0.1), 200, [26, 26, 33, 21, 26]),
    ])
    def test_interior_counts_pinned_per_seed(self, point, gens_point, samples, counts):
        geom = build_geometry(OctagonParams(*point))
        gens = generators(OctagonParams(*gens_point))
        reps = [side_pairing_check(geom, gens, samples=samples, seed=s) for s in range(5)]
        assert [r[2] for r in reps] == counts

    @settings(max_examples=25, deadline=None)
    @given(domain_points(), domain_points(), st.booleans(), st.sampled_from([1, 37, 500]),
           st.integers(0, 2**32 - 1))
    @example(OctagonParams(0.8, 0.1), OctagonParams(0.9, 0.3), True, 37, 0)
    @example(OctagonParams(0.72, 0.02), OctagonParams(0.8, -0.1), True, 500, 3)
    def test_matches_shrinking_block_probe(self, point, other, paired, samples, seed):
        geom = build_geometry(point)
        gens = generators(other if paired else point)
        _, _, violations = side_pairing_check(geom, gens, samples=samples, seed=seed)
        assert (samples, violations) == shrinking_block_probe(geom, gens, samples, seed)

    @settings(max_examples=25, deadline=None)
    @given(domain_points(), st.integers(0, 2**32 - 1))
    @example(OctagonParams(0.8, 0.1), 0)
    def test_own_generators_match_full_image_test(self, point, seed):
        geom, gens = build_geometry(point), generators(point)
        count = full_image_test(geom, gens, 300, seed)
        assert side_pairing_check(geom, gens, samples=300, seed=seed)[2] == count == 0

    @settings(max_examples=25, deadline=None)
    @given(domain_points(), domain_points(), st.integers(0, 2**32 - 1))
    @example(OctagonParams(0.72, 0.02), OctagonParams(0.8, -0.1), 3)
    def test_other_generators_match_full_image_test(self, point, other, seed):
        # images that leave side k's circle are tested against all eight
        geom, gens = build_geometry(point), generators(other)
        count = full_image_test(geom, gens, 300, seed)
        assume(count > 0)
        assert side_pairing_check(geom, gens, samples=300, seed=seed)[2] == count

    @pytest.mark.parametrize("samples", [1, 37, 500])
    def test_shrinking_block_probe_counts_violations(self, samples):
        # the oracle above sees violations, so the match is not 0 == 0
        geom = build_geometry(OctagonParams(0.72, 0.02))
        gens = generators(OctagonParams(0.8, -0.1))
        counts = [shrinking_block_probe(geom, gens, samples, s)[1] for s in range(5)]
        assert sum(counts) > 0

    def test_probe_maps_the_samples_with_one_action(self, monkeypatch):
        geom, gens = build_geometry(P0), generators(P0)
        acts, calls = [], []
        act, inside = group.su_act, group.in_octagon

        def counted_act(u, v, z):
            acts.append(np.shape(z))
            return act(u, v, z)

        def counted_inside(g, z, shrink):
            calls.append((shrink, isinstance(z, np.ndarray)))
            return inside(g, z, shrink)

        monkeypatch.setattr(group, "su_act", counted_act)
        monkeypatch.setattr(group, "in_octagon", counted_inside)
        side_pairing_check(geom, gens, samples=500, seed=2)
        # pairing_residuals maps single points; the probe maps all samples once
        assert [shape for shape in acts if shape] == [(500,)]
        # one scalar call per candidate, and one array call for the images
        # their own side's circle leaves unsettled
        assert calls.count((1e-4, False)) > 500
        assert calls.count((-1e-7, True)) == 1
        assert len(calls) == calls.count((1e-4, False)) + 1

    @pytest.mark.xfail(strict=True, reason="the probe's absolute 1e-7 slack reaches the "
                       "images of samples next to the lower edge of a")
    def test_no_false_violations_next_to_the_lower_edge(self):
        point = OctagonParams(lower_a(0.0) + 1e-7, 0.0)
        geom, gens = build_geometry(point), generators(point)
        assert crossing_violations(geom.centres, geom.r_plus, geom.r_minus, gens) == 0
        assert side_pairing_check(geom, gens, samples=500, seed=0)[2] == 0

    @settings(max_examples=100, deadline=None)
    @given(domain_points(margin=1e-6))
    @example(OctagonParams(lower_a(0.0) + 1e-7, 0.0))
    def test_crossing_margins_match_closed_forms(self, point):
        # with t = tan(at) and q = 2a^2 - 1 - t^2 (> 0 in the domain):
        # r_k^2 - |g_k(0) - c_k|^2 = r_k^2 - |g_k^-1(0) - c_{k+4}|^2
        #   = (1 - a^2) q / (a^2 (1 -+ t)^2), and |u_k|^2 - 1
        #   = ((1 - a^2)^2 + (a^2 -+ t)^2) / ((1 - a^2) q) for g0, g1 (- for
        # even k); each holds to 8 kappa eps of its size, kappa the largest
        # |u|^2 + |v|^2, and the margins are > 0 on the whole open domain
        a, at = point.a, point.alpha_tilde
        try:
            geom = build_geometry(point)
        except NumericalError:  # side midpoints or phi- lost next to the corner
            reject()
        gens = generators(point)
        t, a2 = math.tan(at), a * a
        q = 2.0 * a2 - 1.0 - t * t
        kappa = max(abs(u) ** 2 + abs(v) ** 2 for u, v in gens)
        for k, (u, v) in enumerate(gens):
            sign = -1.0 if k % 2 == 0 else 1.0
            r = geom.r_plus if k % 2 == 0 else geom.r_minus
            margin = (1.0 - a2) * q / (a2 * (1.0 + sign * t) ** 2)
            assert margin > 0.0
            pairs = [(r * r - abs(v / u.conjugate() - geom.centres[k]) ** 2, margin),
                     (r * r - abs(-v / u - geom.centres[k + 4]) ** 2, margin)]
            if k < 2:
                pairs.append((abs(u) ** 2 - 1.0,
                              ((1.0 - a2) ** 2 + (a2 + sign * t) ** 2) / ((1.0 - a2) * q)))
            for x, closed in pairs:
                assert abs(x - closed) <= 8.0 * kappa * EPS * closed, (k, x, closed)

    def test_no_samples_builds_no_generator(self, monkeypatch):
        geom, gens = build_geometry(P0), generators(P0)
        full = side_pairing_check(geom, gens, samples=20, seed=0)

        def refuse(*args):
            raise AssertionError("random generator built for zero samples")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert side_pairing_check(geom, gens, samples=0, seed=0) == (*full[:2], 0)


class TestBall:
    def test_counts(self):
        gens = generators(P0)
        assert [len(ball(gens, n)) for n in range(4)] == list(BALL_SIZES[:4])

    def test_radius_one_words(self):
        words = ball(generators(P0), 1).shortlex
        assert words == ("", "a", "A", "b", "B", "c", "C", "d", "D")

    def test_deterministic_rerun(self):
        gens = generators(P0)
        b1, b2 = ball(gens, 3), ball(gens, 3)
        assert b1.shortlex == b2.shortlex
        assert np.all(su_gap((b1.u, b1.v), (b2.u, b2.v)) == 0)

    @settings(max_examples=20, deadline=None)
    @given(domain_points())
    @example(P0)
    def test_elements_carry_canonical_sign(self, params):
        # every element but the identity is hyperbolic, |Re u| > 1, so the
        # canonical sign Re u > 0 is never decided by rounding
        try:
            b = ball(generators(params), 3)
        except ValueError as exc:
            assert "precision limit" in str(exc)
            return
        assert (b.u.real > 0).all()
        assert (b.u[1:].real > 1.0).all()

    @settings(max_examples=20, deadline=None)
    @given(domain_points())
    # ball(3) had accepted this point with eps (|u|^2 + |v|^2) = 1.38, where the
    # CPython chain's |u|^2 - |v|^2 of word bbb rounds to 0
    @example(OctagonParams(0.9894248434212368, 0.7736177932882728))
    def test_batched_ball_matches_product_chain(self, params):
        gens = generators(params)
        try:
            b = ball(gens, 3)
        except ValueError as exc:
            assert "precision limit" in str(exc)
            return
        letters = _letters(gens)
        # the shortlex chain, one canonical product at a time in CPython's
        # arithmetic, and the forward error bound B of numpy's products against
        # it, in units of 8 eps: the parent's error carried by the letter g,
        # plus this product's rounding
        chain, bound = {"": IDENTITY}, {"": 0.0}
        for word, u, v in zip(b.shortlex, b.u.tolist(), b.v.tolist()):
            if word:
                parent, g = chain[word[:-1]], letters[word[-1]]
                pu, pv = su_mul(parent, g)
                chain[word] = (-pu, -pv) if pu.real < 0.0 else (pu, pv)
                bound[word] = (bound[word[:-1]] + _norm(parent)) * _norm(g)
            tu, tv = chain[word]
            assert max(abs(u - tu), abs(v - tv)) <= 8.0 * EPS * bound[word], word
            assert u.real > 0.0, word

    def test_elements_pairwise_distinct(self):
        b = ball(generators(P0), 2)
        gap = su_gap((b.u[:, None], b.v[:, None]), (b.u, b.v))
        np.fill_diagonal(gap, np.inf)
        assert np.all(gap > 1e-6)

    def test_counts_at_regular_point(self):
        gens = generators(OctagonParams(A_REG, 0.0))
        assert len(ball(gens, 2)) == BALL_SIZES[2]

    def test_exact_counts_on_grid(self):
        for a, at in zip(*(x.tolist() for x in grid_arrays(5, 5, 0.02))):
            params = OctagonParams(a, at)
            assert len(ball(generators(params), 4)) == BALL_SIZES[4], params

    def test_exact_counts_near_boundary(self):
        for params in MARGIN_005_POINTS:
            assert len(ball(generators(params), 4)) == BALL_SIZES[4], params
        assert len(ball(generators(MARGIN_005_POINTS[0]), 5)) == BALL_SIZES[5]

    @settings(max_examples=40, deadline=None)
    @given(domain_points())
    def test_orbit_points_twice_the_inradius_apart(self, params):
        # the octagon holds the disk of radius r about 0 (r its distance to the
        # nearest side geodesic), so orbit points of distinct elements lie >= 2r
        # apart: a geometric check of the exact words at every point
        gens = generators(params)
        try:
            b = ball(gens, 3)
        except ValueError as exc:
            # refused only where float64 may not hold the element: a word of
            # length L has |u|^2 + |v|^2 <= (2 max|u_k|)^(2L), and ball refuses
            # once eps (|u|^2 + |v|^2) passes 1/16, before |u|^2 - |v|^2 = 1 is
            # lost (near the corner a = 1, alpha_tilde = pi/4)
            word = re.search(r"element '(\w+)' is past the float64 precision limit", str(exc))
            u_max = max(abs(u) for u, _ in gens)
            assert (2.0 * u_max) ** (2 * len(word[1])) > group._MAX_SIZE
            return
        assert len(b) == BALL_SIZES[3]
        u, v = b.u, b.v
        # sinh(d/2) for d = dist(g(0), h(0)) is |v| of g^-1 h, rounded to ~eps |u_g| |u_h|
        half = np.abs(u.conj()[:, None] * v - v[:, None] * u.conj())
        slack = 4.0 * np.finfo(float).eps * np.abs(u)[:, None] * np.abs(u)
        np.fill_diagonal(half, np.inf)
        # the side circle about c with radius R comes nearest 0 at (|c| - R) c/|c|
        geom = build_geometry(params)
        r = min(dist(0.0, (abs(c) - radius) * c / abs(c))
                for c, radius in zip(geom.centres[:2], (geom.r_plus, geom.r_minus)))
        assert np.all(half >= math.sinh(r) - slack)

    def test_radius_bound_checked_before_enumeration(self, monkeypatch):
        gens = generators(P0)

        def fail(n):
            raise AssertionError("ball enumerated past its radius bound")

        monkeypatch.setattr(group._TREE, "grow", fail)
        with pytest.raises(ValueError, match="ball radius must be in 0..6"):
            ball(gens, len(BALL_SIZES))

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            ball(generators(P0), -1)

    def test_unnormalizable_product_reported_as_precision_limit(self, monkeypatch):
        def lost(u, v):
            raise NumericalError("SU(1,1) pair: |u|^2-|v|^2 = 0.0 has drifted from 1", 0)

        gens = generators(P0)
        monkeypatch.setattr(group, "su_check", lost)
        with pytest.raises(ValueError, match="precision limit"):
            ball(gens, 1)

    def test_exact_count_where_orbit_points_were_refused(self):
        # radius 3 has eps (|u|^2 + |v|^2) <= 8.7e-5 here; radius 4 reaches 1.08
        assert len(ball(generators(PAST_PRECISION[0]), 3)) == BALL_SIZES[3]

    def test_size_bound_refuses_before_the_determinant_is_lost(self):
        # sphere 4 at this point has eps (|u|^2 + |v|^2) up to 0.15, and every
        # product's |u|^2 - |v|^2 still reads 0.94 to 1.06
        with pytest.raises(ValueError) as info:
            ball(generators(OctagonParams(0.9905393738467303, 0.7405532617230149)), 4)
        assert re.fullmatch(
            r"radius-4 ball: element '[aAbBcCdD]{4}' is past the float64 precision limit "
            r"\(\|u\|\^2\+\|v\|\^2 = \S+ is past 1/\(16 eps\)\)", str(info.value))

    def test_precision_limit(self):
        # which word of sphere 4 breaks first depends on the last bits of
        # numpy's complex loops, which it chooses by CPU; the message names it
        for params in PAST_PRECISION:
            gens = generators(params)
            with pytest.raises(ValueError) as info:
                ball(gens, 4)
            msg = str(info.value)
            assert re.fullmatch(
                r"radius-4 ball: element '[aAbBcCdD]{4}' is past the float64 precision limit "
                r"\(SU\(1,1\) pair: \|u\|\^2-\|v\|\^2 = \S+ has drifted from 1\)", msg)
            assert len(ball(gens, 3)) == BALL_SIZES[3]


class TestExactWords:
    def test_letters_match_float_generators_at_regular_point(self):
        gens = generators(OctagonParams(A_REG, 0.0))
        scale = math.sqrt(2.0 + 2.0 * math.sqrt(2.0)) * np.exp(0.125j * np.pi)
        for t, m in zip(_letters(gens).values(), _letter_maps()):
            row = m[0]  # the letter itself: the identity (1, 0) times it
            exact = row[:4] @ ZETA, scale * (row[4:] @ ZETA)
            assert su_gap(exact, t) <= 1e-14

    def test_ball_matches_exact_words_at_regular_point(self):
        # each element is an exact Z[zeta] row, the letter rows multiplied along
        # the word tree; Re u = c0 + (c1 - c3)/sqrt2 is cosh(l/2) of its axis.
        # Products taken as computed keep |Re u| within 200 eps of it
        # (measured 36 eps, word abAA)
        b = ball(generators(OctagonParams(A_REG, 0.0)), 4)
        maps = np.stack(_letter_maps())
        rows = [np.eye(1, 8, dtype=np.int64)]
        for parent, letter in group._TREE.spheres[:4]:
            rows.append(np.einsum("ni,nij->nj", rows[-1][parent], maps[letter]))
        with mp.workdps(30):
            exact = [abs(mp.mpf(int(c0)) + mp.mpf(int(c1 - c3)) / mp.sqrt(2))
                     for c0, c1, _, c3 in np.concatenate(rows)[:, :4].tolist()]
        for word, u, ref in zip(b.shortlex, b.u.tolist(), exact):
            assert abs(abs(u.real) - ref) <= 200.0 * EPS * ref, word

    def test_relator_is_exact_identity(self):
        maps = _letter_maps()
        row = np.eye(1, 8, dtype=np.int64)[0]
        for letter in "aBcDAbCd":  # g0 g1^-1 g2 g3^-1 g0^-1 g1 g2^-1 g3
            row = row @ maps["aAbBcCdD".index(letter)]
        assert row.tolist() == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_times_is_the_product_in_z_zeta(self):
        # x @ _times(b) against x b in Z[zeta]/(zeta^4 + 1), by polynomial
        # multiplication with zeta^(4 + m) = -zeta^m
        rng = np.random.default_rng(11)
        for x, b in rng.integers(-50, 51, (200, 2, 4)):
            product = [0] * 4
            for i in range(4):
                for j in range(4):
                    sign = 1 if i + j < 4 else -1
                    product[(i + j) % 4] += sign * int(x[i]) * int(b[j])
            assert (x @ _times(b)).tolist() == product

    @pytest.mark.parametrize("n", range(len(BALL_SIZES)))
    def test_word_counts_match_ball_sizes(self, n):
        group._TREE.grow(n)
        spheres = group._TREE.spheres[:n]
        assert [len(p) for p, _ in spheres] == np.diff(BALL_SIZES[: n + 1]).tolist()
        # every parent index names an element of the previous sphere
        sizes = [1] + [len(p) for p, _ in spheres]
        assert all(0 <= p.min() and p.max() < size for (p, _), size in zip(spheres, sizes))


class TestWordTree:
    @pytest.fixture
    def tree(self, monkeypatch):
        # a fresh, empty tree, and a count of the grow calls that build spheres
        fresh = group._WordTree()
        monkeypatch.setattr(group, "_TREE", fresh)
        builds = []
        maps = group._letter_maps
        monkeypatch.setattr(group, "_letter_maps", lambda: builds.append(1) or maps())
        return fresh, builds

    @pytest.mark.parametrize("order", [(2, 4), (4, 2)])
    def test_smaller_ball_is_prefix(self, tree, order):
        gens = generators(P0)
        balls = {n: ball(gens, n) for n in order}
        small, large = balls[2], balls[4]
        size = BALL_SIZES[2]
        assert small.shortlex == large.shortlex[:size]
        assert np.array_equal(small.u, large.u[:size])
        assert np.array_equal(small.v, large.v[:size])

    def test_radius_shares_one_word_tuple(self):
        first = ball(generators(P0), 3)
        second = ball(generators(OctagonParams(0.95, -0.5)), 3)
        assert first.shortlex is second.shortlex

    def test_second_ball_builds_no_sphere(self, tree):
        fresh, builds = tree
        gens = generators(P0)
        ball(gens, 1)
        ball(gens, 2)  # extends the radius-1 tree by one sphere
        assert len(builds) == 2 and len(fresh.spheres) == 2
        ball(gens, 4)
        spheres = list(fresh.spheres)
        for n in (4, 2, 0):
            ball(gens, n)
        assert len(builds) == 3
        assert all(x is y for x, y in zip(fresh.spheres, spheres))

    def test_tree_grown_in_steps_is_tree_grown_at_once(self, tree):
        fresh, _ = tree
        for n in range(1, 6):
            fresh.grow(n)
        at_once = group._WordTree()
        at_once.grow(5)
        assert fresh.words == at_once.words
        for (p1, k1), (p2, k2) in zip(fresh.spheres, at_once.spheres):
            assert np.array_equal(p1, p2) and np.array_equal(k1, k2)

    def test_index_arrays_read_only(self):
        group._TREE.grow(3)
        for parent, letter in group._TREE.spheres[:3]:
            for array in (parent, letter):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0


class TestCells:
    def test_cell_count_matches_ball(self):
        gens = generators(P0)
        b = ball(gens, 2)
        vertices, midpoints = cells(b, build_geometry(P0))
        assert len(b) == BALL_SIZES[2]
        assert vertices.shape == midpoints.shape == (BALL_SIZES[2], 8)

    def test_identity_cell_is_base_octagon(self):
        geom = build_geometry(P0)
        b = ball(generators(P0), 0)
        vertices, _ = cells(b, geom)
        assert b.shortlex == ("",)
        assert_allclose(vertices[0], geom.vertices, rtol=1e-15)

    @settings(max_examples=20, deadline=None)
    @given(domain_points())
    def test_images_match_maps(self, params):
        # the batched action is the scalar one up to numpy's rounding, which
        # the map's size |u|^2 + |v|^2 scales
        geom = build_geometry(params)
        try:
            b = ball(generators(params), 3)
        except ValueError as exc:
            assert "precision limit" in str(exc)
            return
        vertices, midpoints = cells(b, geom)
        for k, (u, v) in enumerate(zip(b.u.tolist(), b.v.tolist())):
            bar = 4.0 * EPS * (abs(u) ** 2 + abs(v) ** 2)
            for images, points in ((vertices, geom.vertices), (midpoints, geom.midpoints)):
                assert np.all(abs(images[k] - [su_act(u, v, z) for z in points]) <= bar)

    def test_neighbor_cells_share_paired_side(self):
        geom = build_geometry(P0)
        gens = generators(P0)
        b = ball(gens, 1)
        vertices, _ = cells(b, geom)
        row = vertices[b.shortlex.index("a")]
        # g0 maps side 4 onto side 0, so the image octagon touches side 0
        image = {round(v.real, 9) + 1j * round(v.imag, 9) for v in row.tolist()}
        for v in (geom.vertices[0], geom.vertices[1]):
            assert round(v.real, 9) + 1j * round(v.imag, 9) in image
