import math
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from teich2.errors import NumericalError
from teich2.group import (
    _BIN,
    BALL_SIZES,
    ORBIT_GAP,
    GeneratorSet,
    _probe_keys,
    ball,
    cells,
    generators,
    m_matrices,
    omega_table,
    relation_defect,
    side_pairing_check,
)
from teich2.hyperbolic import MobiusTransform, dist, projective_gap, translation
from teich2.octagon import OctagonParams, build_geometry, domain_grid

A_REG = 2.0 ** -0.25
P0 = OctagonParams(0.8, math.pi / 12)

# regular-octagon generator g0 and its trace
U0_REG = -(1.0 + math.sqrt(2.0))
V0_REG = -2.0301035302564356 - 0.84089641525371454j
TRACE_REG = 4.8284271247461901

# points of domain_grid(10, 10, 0.005) where a dedup with absolute entry
# tolerances raised at radius 4
MARGIN_005_POINTS = [
    OctagonParams(0.8953176833583073, -0.634291723986684),
    OctagonParams(0.8286353908466143, -0.4933380075451987),
    OctagonParams(0.9161338114692945, -0.3523842911037134),
]
# whole-domain points whose radius-4 balls pass the float64 precision limit;
# at the second, a product's |u|^2 - |v|^2 is lost to roundoff altogether
PAST_PRECISION = [
    OctagonParams(0.9905482311121936, -0.7527861665680812),
    OctagonParams(0.995099525262749, -0.7740075264130591),
]


def domain_probe_points(seed):
    """The benchmark's jittered whole-domain points (perfbench/workloads.py)."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    if perfbench not in sys.path:
        sys.path.append(perfbench)
    import workloads

    return [OctagonParams(a, at) for a, at in workloads.domain_probe_points(seed)]


class TestGenerators:
    def test_regular_point_values(self):
        gens = generators(OctagonParams(A_REG, 0.0))
        g0 = gens.g[0]
        assert_allclose(g0.u, U0_REG, rtol=1e-14)
        assert_allclose(g0.v, V0_REG, rtol=1e-14)
        for g in gens.g:
            assert_allclose(abs(g.trace), TRACE_REG, rtol=1e-13)

    def test_all_hyperbolic_in_domain(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            at = rng.uniform(-0.6, 0.6)
            a = rng.uniform(1.0 / (math.sqrt(2.0) * math.cos(at)) + 0.02, 0.98)
            gens = generators(OctagonParams(a, at))
            for g in gens.g:
                assert g.classify() == "hyperbolic"
                assert abs(g.trace) > 2.0

    def test_rotation_conjugation_pairs(self):
        # g2, g3 are the quarter-turn conjugates of g0, g1: u fixed, v times i
        gens = generators(P0)
        for k in (0, 1):
            assert_allclose(gens.g[k + 2].u, gens.g[k].u, rtol=1e-13)
            assert_allclose(gens.g[k + 2].v, 1j * gens.g[k].v, rtol=1e-13)

    def test_letters_order_and_inverses(self):
        gens = generators(P0)
        labels = [label for label, _ in gens.letters()]
        assert labels == ["a", "A", "b", "B", "c", "C", "d", "D"]
        ident = MobiusTransform.identity()
        letters = [t for _, t in gens.letters()]
        for k, g in enumerate(gens.g):
            assert letters[2 * k] is g
            assert projective_gap(g @ letters[2 * k + 1], ident) < 1e-13


class TestTripleConstruction:
    def test_generators_match_matrix_products_and_translations(self):
        geom = build_geometry(P0)
        gens = generators(P0)
        mm = m_matrices(geom)
        omegas = omega_table(geom)
        for k in range(4):
            pk = omegas[k] / (1.0 + math.sqrt(1.0 - abs(omegas[k]) ** 2))
            assert projective_gap(gens.g[k], mm[k] @ mm[5]) < 1e-12
            assert projective_gap(gens.g[k], translation(pk)) < 1e-12


class TestRelation:
    def test_defect_and_sign(self):
        rep = relation_defect(generators(P0))
        assert rep.defect < 1e-12
        assert rep.sign == 1

    def test_defect_across_domain(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            at = rng.uniform(-0.7, 0.7)
            a = rng.uniform(1.0 / (math.sqrt(2.0) * math.cos(at)) + 0.02, 0.98)
            rep = relation_defect(generators(OctagonParams(a, at)))
            assert rep.defect < 1e-9


class TestSidePairing:
    def test_residuals_and_containment(self):
        geom = build_geometry(P0)
        rep = side_pairing_check(geom, generators(P0), samples=300, seed=1)
        assert rep.endpoint_residual < 1e-12
        assert rep.midpoint_residual < 1e-12
        assert rep.interior_samples == 300
        assert rep.interior_violations == 0

    def test_seed_reproducible(self):
        geom = build_geometry(P0)
        gens = generators(P0)
        r1 = side_pairing_check(geom, gens, samples=100, seed=7)
        r2 = side_pairing_check(geom, gens, samples=100, seed=7)
        assert r1 == r2

    def test_negative_sample_count_rejected(self):
        with pytest.raises(ValueError, match="sample count must be >= 0, got -3"):
            side_pairing_check(build_geometry(P0), generators(P0), samples=-3)

    def test_no_samples_builds_no_generator(self, monkeypatch):
        geom, gens = build_geometry(P0), generators(P0)
        full = side_pairing_check(geom, gens, samples=20)

        def refuse(*args):
            raise AssertionError("random generator built for zero samples")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        rep = side_pairing_check(geom, gens, samples=0)
        assert (rep.interior_samples, rep.interior_violations) == (0, 0)
        assert rep.endpoint_residual == full.endpoint_residual
        assert rep.midpoint_residual == full.midpoint_residual


class TestBall:
    def test_counts(self):
        gens = generators(P0)
        assert [len(ball(gens, n)) for n in range(4)] == list(BALL_SIZES[:4])

    def test_radius_one_words(self):
        words = ball(generators(P0), 1).words()
        assert words == ["", "a", "A", "b", "B", "c", "C", "d", "D"]

    def test_deterministic_rerun(self):
        gens = generators(P0)
        b1, b2 = ball(gens, 3), ball(gens, 3)
        assert b1.words() == b2.words()
        for e1, e2 in zip(b1.elements, b2.elements):
            assert projective_gap(e1.transform, e2.transform) == 0.0

    def test_elements_carry_canonical_sign(self):
        for el in ball(generators(P0), 3).elements:
            assert el.transform.canonical() == el.transform

    def test_probe_keys_cover_the_margin(self):
        # a point within the margin of z in each coordinate lies in a bin
        # that z probes, also across bin edges and corners
        rng = np.random.default_rng(5)
        margin = 1e-3 * _BIN
        for _ in range(2000):
            corner = complex(*(np.round(rng.uniform(-0.9, 0.9, 2) / _BIN) + 0.5)) * _BIN
            z = corner + complex(*rng.uniform(-margin, margin, 2))
            w = z + complex(*rng.uniform(-margin, margin, 2))
            assert _probe_keys(w, margin)[0] in _probe_keys(z, margin)
        assert len(_probe_keys(0.25 * _BIN * (1 + 1j), margin)) == 1

    def test_elements_pairwise_distinct(self):
        b = ball(generators(P0), 2)
        els = [e.transform for e in b.elements]
        rng = np.random.default_rng(42)
        for _ in range(200):
            i, j = rng.integers(0, len(els), 2)
            if i != j:
                assert projective_gap(els[i], els[j]) > 1e-6

    def test_counts_at_regular_point(self):
        gens = generators(OctagonParams(A_REG, 0.0))
        assert len(ball(gens, 2)) == BALL_SIZES[2]

    def test_exact_counts_on_grid(self):
        for params in domain_grid(5, 5, 0.02):
            assert len(ball(generators(params), 4)) == BALL_SIZES[4], params

    def test_exact_counts_near_boundary(self):
        for params in MARGIN_005_POINTS:
            assert len(ball(generators(params), 4)) == BALL_SIZES[4], params
        assert len(ball(generators(MARGIN_005_POINTS[0]), 5)) == BALL_SIZES[5]

    def test_orbit_gap_reason(self):
        # the octagon holds the disk of radius r about 0 (r its distance to
        # the nearest side geodesic), so orbit points of distinct elements
        # lie >= 2r apart; sinh of half that stays far above ORBIT_GAP
        points = domain_grid(10, 10, 0.001) + domain_probe_points(1)
        closest = two_r = math.inf
        for params in points:
            b = ball(generators(params), 3)
            assert len(b) == BALL_SIZES[3]
            near = min(2.0 * math.asinh(abs(e.transform.v)) for e in b.elements[1:])
            geom = build_geometry(params)
            r = min(dist(0.0, arc.point(0.0)) for arc in (geom.arc_plus, geom.arc_minus))
            assert 2.0 * r <= near + 1e-12
            closest, two_r = min(closest, near), min(two_r, 2.0 * r)
        assert closest >= 1.8
        assert math.sinh(0.5 * two_r) > 3.0 * ORBIT_GAP

    def test_radius_bound_checked_before_enumeration(self, monkeypatch):
        gens = generators(P0)

        def fail(self):
            raise AssertionError("ball enumerated past its radius bound")

        monkeypatch.setattr(GeneratorSet, "letters", fail)
        with pytest.raises(ValueError, match="ball radius must be in 0..6"):
            ball(gens, len(BALL_SIZES))

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            ball(generators(P0), -1)

    def test_unnormalizable_product_reported_as_precision_limit(self, monkeypatch):
        def lost(self, other):
            raise NumericalError("|u|^2-|v|^2 = 0.0 is not renormalizable to 1")

        gens = generators(P0)
        monkeypatch.setattr(MobiusTransform, "__matmul__", lost)
        with pytest.raises(ValueError, match="precision limit"):
            ball(gens, 1)

    @pytest.mark.parametrize("params", PAST_PRECISION)
    def test_precision_limit(self, params):
        with pytest.raises(ValueError) as info:
            ball(generators(params), 4)
        msg = str(info.value)
        assert f"radius-4 ball at a={params.a!r}, alpha_tilde={params.alpha_tilde!r}" in msg
        assert "|u| = " in msg and "precision limit" in msg


class TestCells:
    def test_cell_count_matches_ball(self):
        gens = generators(P0)
        tiles = cells(ball(gens, 2), build_geometry(P0))
        assert len(tiles) == BALL_SIZES[2]

    def test_identity_cell_is_base_octagon(self):
        geom = build_geometry(P0)
        tile = cells(ball(generators(P0), 0), geom)[0]
        assert tile.word == ""
        assert_allclose(tile.vertices, geom.vertices, rtol=1e-15)

    def test_neighbor_cells_share_paired_side(self):
        geom = build_geometry(P0)
        gens = generators(P0)
        tile = [c for c in cells(ball(gens, 1), geom) if c.word == "a"][0]
        # g0 maps side 4 onto side 0, so the image octagon touches side 0
        image = {round(v.real, 9) + 1j * round(v.imag, 9) for v in tile.vertices}
        for v in (geom.vertices[0], geom.vertices[1]):
            assert round(v.real, 9) + 1j * round(v.imag, 9) in image
