"""The batched per-point kernel: one pass over arrays of parameter points.

validate evaluates every per-point identity over arrays (a, alpha_tilde) of
the whole grid; the scalar API evaluates the same forms at one point.  These
tests hold the two to each other and check properties of the batch itself.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from teich2.errors import NumericalError
from teich2.fenchel_nielsen import (
    _fn_forms,
    pants_forms,
    wolpert_forms,
    wp_coefficient_raw,
)
from teich2.group import (
    crossing_violations,
    generator_pairs,
    generators,
    half_turns,
    relation_defect,
)
from teich2.hyperbolic import su_check, su_inverse, su_mul
from teich2.octagon import (
    OctagonParams,
    b_of,
    build_geometry,
    grid_arrays,
    lower_a,
    octagon_forms,
    perimeter_ab,
)
from teich2 import validation
from teich2.validation import CHECKS, DEFAULT_TOLERANCES, point_block, run_validation

EPS = np.finfo(float).eps


def domain_arrays(draw, margin, size):
    """Arrays (a, alpha_tilde) of points at least ``margin`` from the boundary."""
    at_max = math.acos(1.0 / (math.sqrt(2.0) * (1.0 - 2.0 * margin)))
    ats = draw(st.lists(st.floats(-at_max, at_max), min_size=size[0], max_size=size[1]))
    ts = draw(st.lists(st.floats(0.0, 1.0), min_size=len(ats), max_size=len(ats)))
    lo = np.array([lower_a(at) + margin for at in ats])
    return lo + np.array(ts) * (1.0 - margin - lo), np.array(ats)


@st.composite
def batches(draw, margin=1e-3, size=(1, 24)):
    return domain_arrays(draw, margin, size)


def _grid_rows(n_a, n_alpha, margin):
    """grid_arrays built one a-row at a time: the oracle of its one linspace."""
    at_max = math.acos(1.0 / (math.sqrt(2.0) * (1.0 - 2.0 * margin)))
    alphas = np.linspace(-at_max, at_max, n_alpha + 2)[1:-1]
    rows = [np.linspace(lower_a(float(at)) + margin, 1.0 - margin, n_a) for at in alphas]
    return np.concatenate(rows), np.repeat(alphas, n_a)


@pytest.mark.parametrize("n_a, n_alpha, margin", [
    (1, 1, 0.02), (1, 9, 0.1), (9, 1, 0.005), (2, 3, 0.14), (20, 20, 0.02),
    (40, 41, 0.0068), (11, 11, 0.0446), (200, 200, 0.005), (3, 1000, 1e-4),
])
def test_grid_arrays_match_the_row_loop(n_a, n_alpha, margin):
    a, at = grid_arrays(n_a, n_alpha, margin)
    ref_a, ref_at = _grid_rows(n_a, n_alpha, margin)
    assert a.tobytes() == ref_a.tobytes() and at.tobytes() == ref_at.tobytes()


def test_grid_arrays_refuse_margin_0():
    # margin 0 would put each row's first a on the lower bound itself
    with pytest.raises(ValueError, match=r"margin 0\.0 puts a grid row's first a, "
                       r"lower_a \+ margin, on the excluded bound lower_a"):
        grid_arrays(4, 4, 0.0)


def test_grid_arrays_check_the_domain():
    # a margin below half an ulp of lower_a still puts the first a on the
    # bound, and one or two ulps above it octagon_forms' 2a^2 cos^2(at) - 1
    # still rounds to 0 or below on some rows: each is refused as margin 0
    # is; from 2e-16 on, every row's first a lies above the bound, where
    # 2a^2 cos^2(at) - 1 > 0, and every point in the domain
    for margin in (5e-17, 6e-17, 1e-16, 1.2e-16):
        with pytest.raises(ValueError, match=f"margin {margin!r} puts a grid row's first a"):
            grid_arrays(9, 9, margin)
    for margin in (2e-16, 1e-15, 1e-9):
        a, at = grid_arrays(9, 9, margin)
        assert np.all(a > lower_a(at))
        assert np.all(2.0 * (a * a) * np.cos(at) ** 2 - 1.0 > 0.0)
        for x, y in zip(a.tolist(), at.tolist()):
            OctagonParams(x, y)


@pytest.mark.parametrize("n_a, n_alpha", [(5, -1), (3, 0)])
def test_grid_arrays_need_positive_sides(n_a, n_alpha):
    with pytest.raises(ValueError, match=f"grid {n_a} x {n_alpha} has no points"):
        grid_arrays(n_a, n_alpha, 0.02)


def test_octagon_forms_match_build_geometry():
    # numpy's complex arithmetic and Python's differ in the last bit; the
    # midpoints take 1 - |omega|^2, which spreads that over a few bits
    a, at = grid_arrays(6, 6, 0.02)
    f = octagon_forms(a, at)
    assert f.vertices.shape == f.midpoints.shape == f.centres.shape == (8, 36)
    for k, (x, y) in enumerate(zip(a.tolist(), at.tolist())):
        geom = build_geometry(OctagonParams(x, y))
        for name in f._fields:
            batch, point = getattr(f, name)[..., k], getattr(geom, name)
            assert_allclose(batch, point, rtol=(16 if name == "midpoints" else 4) * EPS,
                            err_msg=name)


def test_scalar_views_match_the_batch():
    a, at = grid_arrays(6, 6, 0.02)
    g = generator_pairs(a, at)
    lengths, twists, c, _, _ = pants_forms(a, at, half_turns(octagon_forms(a, at)))
    summands = wolpert_forms(a, at)[1]
    for k, (x, y) in enumerate(zip(a.tolist(), at.tolist())):
        params = OctagonParams(x, y)
        gens = generators(params)
        for (u, v), (tu, tv) in zip(g, gens):
            # numpy's and math's last bits differ, and the closed forms of g0
            # and g1 magnify that, within |u|^2 + |v|^2 here
            tol = 8 * EPS * (abs(tu) ** 2 + abs(tv) ** 2)
            assert_allclose([u[k], v[k]], [tu, tv], rtol=tol)
        view = pants_forms(x, y, half_turns(octagon_forms(x, y)))
        assert_allclose([x[k] for x in lengths + twists], view[0] + view[1], rtol=4 * EPS)
        assert_allclose([x[k] for x in c], view[2], rtol=1e-12)
        # wolpert_forms on floats against its array call
        assert_allclose([s[k] for s in summands], wolpert_forms(params.a, params.alpha_tilde)[1],
                        rtol=8 * EPS)


@settings(max_examples=60, deadline=None)
@given(batches(margin=1e-3))
def test_side_pairing_under_its_bar(batch):
    res = CHECKS["side_pairing"](point_block(*batch))
    assert np.max(res["side_pairing"]) <= DEFAULT_TOLERANCES["side_pairing"]
    # every g_k carries the octagon across side k at every point
    assert not np.any(res["side_pairing_interior"])


def test_crossing_counts_every_inverted_generator():
    # g_k^-1 carries the octagon across side k+4, never across side k, so
    # inverting every generator fails all eight crossings at every point
    a, at = grid_arrays(30, 30, 1e-3)
    f = octagon_forms(a, at)
    g = generator_pairs(a, at)
    assert not np.any(crossing_violations(f.centres, f.r_plus, f.r_minus, g))
    inverted = [su_inverse(x) for x in g]
    assert np.all(crossing_violations(f.centres, f.r_plus, f.r_minus, inverted) == 8)


# At margin 1e-3 the relation defect exceeds its absolute 1e-9 bar near the
# corner a = 1, alpha_tilde = pi/4 (about 5e-7, where |u|^2 + |v|^2 ~ 8e5);
# over the whole domain the bar holds from margin ~0.01, and the default 0.02
# is tested here.
@settings(max_examples=60, deadline=None)
@given(batches(margin=0.02))
def test_relation_defect_under_its_bar(batch):
    res = CHECKS["relation_defect"](point_block(*batch))
    assert np.max(res["relation_defect"]) <= DEFAULT_TOLERANCES["relation_defect"]
    assert np.max(res["generator_traces"]) <= DEFAULT_TOLERANCES["generator_traces"]


@settings(max_examples=60, deadline=None)
@given(batches(margin=1e-3))
def test_conjugation_is_an_involution(batch):
    a, at = batch
    assert_allclose(b_of(b_of(a, at), -at), a, rtol=6 * EPS, atol=0.0)
    for x, y in zip(a.tolist(), at.tolist()):
        conj = OctagonParams(b_of(x, y), -y)  # the image lies in the domain too
        back = OctagonParams(b_of(conj.a, conj.alpha_tilde), -conj.alpha_tilde)
        assert back.alpha_tilde == y
        assert abs(back.a - x) <= 6 * EPS * x


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60), st.floats(-6.0, -1.0), st.data())
@example(137, 91, -9.0, None)
@example(137, 91, -6.0, None)
@example(137, 91, -3.0, None)
@example(137, 91, math.log10(0.02), None)
def test_mirror_identities_hold_to_the_bit(n_a, n_alpha, log_margin, data):
    # the octagon at (a, -at) mirrors the one at (a, at): b, the perimeter,
    # the lengths, tau3 and the WP density are even in alpha_tilde, and tau1
    # is odd; cos is even and sin, asinh odd in every arithmetic used here
    a, at = grid_arrays(n_a, n_alpha, 10.0**log_margin)
    k = data.draw(st.integers(0, a.size - 1)) if data is not None else a.size // 2
    for x, y in ((a, at), (a[k].item(), at[k].item())):  # arrays and floats
        assert _bits(perimeter_ab(x, b_of(x, y))) == _bits(perimeter_ab(x, b_of(x, -y)))
        (l1, l3, tau1, tau3), (l1_m, l3_m, tau1_m, tau3_m) = _fn_forms(x, y), _fn_forms(x, -y)
        assert _bits([l1, l3, tau3]) == _bits([l1_m, l3_m, tau3_m])
        assert _bits(tau1_m) == _bits(0.0 - tau1)  # 0.0 - 0.0 is 0.0, as tau1 at -0.0
        assert _bits(wp_coefficient_raw(x, y)) == _bits(wp_coefficient_raw(x, -y))


@settings(max_examples=25, deadline=None)
@given(batches(margin=1e-3, size=(2, 24)), st.data())
def test_batch_invariance(batch, data):
    a, at = batch
    k = data.draw(st.integers(0, len(a) - 1))
    for key, fn in CHECKS.items():
        together, alone = fn(point_block(a, at)), fn(point_block(a[k:k + 1], at[k:k + 1]))
        for name, residual in together.items():
            x, y = alone[name][0], residual[k]
            assert abs(x - y) <= 1e-15 * abs(y), (key, name, x, y)


def test_blocks_do_not_change_the_report(monkeypatch):
    whole = run_validation(6, 5, 0.02, 0)
    monkeypatch.setattr(validation, "_BLOCK", 7)
    assert run_validation(6, 5, 0.02, 0) == whole


@pytest.mark.parametrize("block", [None, 7])
def test_breakdown_names_the_grid_point_and_check(monkeypatch, block):
    # the relation form with ball's breakdown test on its word: near the
    # corner at margin 1e-6 the word's |u|^2 - |v|^2 drifts past the bar
    def checked(g):
        g0, g1, g2, g3 = g
        word = g0
        for x in (su_inverse(g1), g2, su_inverse(g3), su_inverse(g0), g1, su_inverse(g2), g3):
            word = su_mul(word, x)
        su_check(*word)
        return relation_defect(g)

    monkeypatch.setattr(validation, "relation_defect", checked)
    if block is not None:
        monkeypatch.setattr(validation, "_BLOCK", block)
    with pytest.raises(NumericalError) as info:
        run_validation(20, 20, 1e-6, 0)
    message = str(info.value)
    assert message.startswith("relation_defect at grid point a=")
    assert message.endswith("has drifted from 1")
    a, at = grid_arrays(20, 20, 1e-6)
    k = info.value.index
    assert (f"a={float(a[k])!r}, alpha_tilde={float(at[k])!r}: "
            "SU(1,1) pair: |u|^2-|v|^2 = ") in message


@pytest.mark.parametrize("block", [None, 7])
def test_breakdown_in_the_forms_names_point_block(monkeypatch, block):
    # at a = 1 - 1e-9, 2a/(1 + a^2) rounds to 1 and its half turn has no value
    if block is not None:
        monkeypatch.setattr(validation, "_BLOCK", block)
    a, at = grid_arrays(4, 4, 0.02)
    a[9] = 1.0 - 1e-9
    with pytest.raises(NumericalError) as info:
        validation._per_point_worst(a, at)
    assert info.value.index == 9
    assert str(info.value) == (f"point_block at grid point a=0.999999999, "
                               f"alpha_tilde={float(at[9])!r}: "
                               "half turn: 1 - |omega|^2 = 0.0 is not > 0")
