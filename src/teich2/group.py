"""The Fuchsian group of the octagon: generators, relation, tiling balls.

Four generators g0..g3 pair opposite octagon sides (g_k maps side k+4 onto
side k) and satisfy the single genus-2 relation

    g0 g1^-1 g2 g3^-1 g0^-1 g1 g2^-1 g3 = identity   (up to sign in SU(1,1)).

Each generator is realized three independent ways: the explicit closed-form
matrix, the product M_k M_5 of trace-zero half turns, and the half-turn
composition H(p_k) about the side midpoint.

A group element is its SU(1,1) pair (u, v).  The generators, the relation
word and the side-pairing residuals are written once, over (u, v) pairs of
arrays (one map per parameter point); ``generators``, ``relation_defect``
and ``side_pairing_check`` are their views at one point.  A ball is its
shortlex words and the (u, v) arrays of its elements: it is multiplied out
one sphere at a time, and its tiles are drawn with one action over the
arrays of the whole ball.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _elementwise as ew
from .errors import NumericalError
from .hyperbolic import (
    _require_in_disk,
    half_turn_pair,
    rotation,
    su_act,
    su_inverse,
    su_mul,
    su_normalize,
    su_sign_flip,
)
from .octagon import OctagonForms, OctagonParams, in_octagon

__all__ = [
    "BALL_SIZES",
    "GeneratorSet",
    "GroupBall",
    "Cells",
    "RelationReport",
    "SidePairingReport",
    "generator_pairs",
    "generators",
    "omega_forms",
    "half_turn_pairs",
    "relation_pairs",
    "relation_defect",
    "pairing_residuals",
    "crossing_violations",
    "side_pairing_check",
    "ball",
    "cells",
]

# exact ball sizes of the genus-2 surface group, radius 0..6 (Cannon 1984)
BALL_SIZES = (1, 9, 65, 457, 3193, 22289, 155577)

# letter order fixes the deterministic (shortest-lex) word ordering
LETTERS = "aAbBcCdD"
# ball elements per su_act pass in cells: a whole radius-4 ball, and bounded
# temporaries for the 155577 elements of radius 6
_CELL_BLOCK = 4096
# |u|^2 - |v|^2 = 1 holds to about eps (|u|^2 + |v|^2): ball refuses past 1/16 of
# 1/eps, before a product's |u|^2 - |v|^2 rounds to 0 in one arithmetic and not another
_MAX_SIZE = 1.0 / (16.0 * np.finfo(float).eps)


@dataclass(frozen=True)
class GeneratorSet:
    """The (u, v) pairs of the four side-pairing generators g0..g3 at ``params``."""

    params: OctagonParams
    g: tuple[tuple[complex, complex], ...]


def generator_pairs(a, alpha_tilde):
    """(u, v) pairs of g0..g3 at parameter arrays: the closed-form g0, g1 and
    their conjugates R g R^-1 by the pi/2 rotation R."""
    a2 = a * a
    tn = ew.tan(alpha_tilde)
    cos2 = ew.cos(alpha_tilde) ** 2
    norm = -ew.cos(alpha_tilde) / ew.sqrt((1.0 - a2) * (2.0 * a2 * cos2 - 1.0))
    g0 = su_normalize(norm * a * (1.0 - tn), norm * ((a2 - tn) + 1j * (1.0 - a2)))
    g1 = su_normalize(norm * a * (1.0 + tn), norm * ((1.0 - a2) + 1j * (a2 + tn)))
    rot = rotation(math.pi / 2)
    r = (rot.u, rot.v)
    ri = su_inverse(r)
    return g0, g1, su_mul(su_mul(r, g0), ri), su_mul(su_mul(r, g1), ri)


def generators(params: OctagonParams) -> GeneratorSet:
    """The generator_pairs of one point."""
    return GeneratorSet(params, generator_pairs(params.a, params.alpha_tilde))


def omega_forms(omega_plus, omega_minus, omega4):
    """(omega_0..omega_5) = (omega+, omega-, i omega+, i omega-, 2a/(1+a^2), 0); array-safe."""
    return (omega_plus, omega_minus, 1j * omega_plus, 1j * omega_minus, omega4 + 0j, 0j)


def half_turn_pairs(omegas):
    """(u, v) pairs of the trace-zero half turns M_k = M(omega_k) for an omega
    table of arrays, elementwise."""
    return tuple(su_normalize(*half_turn_pair(w)) for w in omegas)


def relation_pairs(g):
    """(defect, sign) of the relation word over generator pairs g, elementwise.

    The word g0 g1^-1 g2 g3^-1 g0^-1 g1 g2^-1 g3 is multiplied left to right
    and compared with +identity and -identity; the realized lift sign is
    measured, not assumed.
    """
    g0, g1, g2, g3 = g
    word = g0
    for x in (su_inverse(g1), g2, su_inverse(g3), su_inverse(g0), g1, su_inverse(g2), g3):
        word = su_mul(word, x)
    u, v = word
    plus = ew.maximum(abs(u - 1.0), abs(v))
    minus = ew.maximum(abs(u + 1.0), abs(v))
    return ew.minimum(plus, minus), ew.where(plus <= minus, 1, -1)


@dataclass(frozen=True)
class RelationReport:
    defect: float
    sign: int


def relation_defect(gens: GeneratorSet) -> RelationReport:
    """Defect of g0 g1^-1 g2 g3^-1 g0^-1 g1 g2^-1 g3 against +-identity (relation_pairs)."""
    defect, sign = relation_pairs(gens.g)
    return RelationReport(float(defect), int(sign))


@dataclass(frozen=True)
class SidePairingReport:
    endpoint_residual: float
    midpoint_residual: float
    interior_samples: int
    interior_violations: int


def pairing_residuals(vertices, midpoints, g):
    """(endpoint, midpoint) residuals of the side pairing, elementwise.

    g_k must carry the endpoints of side k+4 onto the endpoint pair of side
    k (as a set) and the opposite midpoint -p_k onto p_k.  ``vertices`` and
    ``midpoints`` are indexed by k first, as in OctagonForms.
    """
    endpoint = midpoint = 0.0
    for k, (u, v) in enumerate(g):
        t0, t1 = vertices[k], vertices[(k + 1) % 8]
        for src in (vertices[(k + 4) % 8], vertices[(k + 5) % 8]):
            img = su_act(u, v, src)
            endpoint = ew.maximum(endpoint, ew.minimum(abs(img - t0), abs(img - t1)))
        p = midpoints[k]
        midpoint = ew.maximum(midpoint, abs(su_act(u, v, -p) - p))
    return endpoint, midpoint


def crossing_violations(centres, r_plus, r_minus, g):
    """How many of the eight maps g_k, g_k^-1 fail to carry the octagon
    across their side, from 0 to 8; elementwise.

    The octagon lies outside its eight side circles and contains 0, and g_k
    maps side k+4 onto side k, so g_k carries it across side k exactly when
    g_k(0) = v_k/conj(u_k) lies strictly inside side k's circle, and g_k^-1
    carries it across side k+4 exactly when g_k^-1(0) = -v_k/u_k lies
    strictly inside that side's circle.  ``centres`` is indexed by side
    first, as in OctagonForms; sides k and k+4 have radius ``r_plus`` for k
    even and ``r_minus`` for k odd.
    """
    count = 0
    for k, (u, v) in enumerate(g):
        radius = r_plus if k % 2 == 0 else r_minus
        for image, centre in ((v / u.conjugate(), centres[k]), (-v / u, centres[k + 4])):
            # a NaN distance counts as a failure
            count = count + ew.where(abs(image - centre) < radius, 0, 1)
    return count


def side_pairing_check(
    geom: OctagonForms, gens: GeneratorSet, samples: int = 1000, seed: int = 0
) -> SidePairingReport:
    """Verify that g_k carries side k+4 onto side k.

    Besides the pairing_residuals, images of interior sample points must
    leave the octagon (weak disjointness of g_k[F] and F).  The samples are
    the first ``samples`` points of the seeded uniform stream of (x, y) in
    the bounding square that lie in the octagon shrunk by 1e-4, and an image
    violates where it lies in the octagon grown by 1e-7.  Raises ValueError
    for a negative sample count.
    """
    if samples < 0:
        raise ValueError(f"sample count must be >= 0, got {samples!r}")
    g = gens.g
    endpoint, midpoint = pairing_residuals(geom.vertices, geom.midpoints, g)
    if samples == 0:
        return SidePairingReport(endpoint, midpoint, 0, 0)

    rng = np.random.default_rng(seed)
    bound = max(geom.vertices[0].real, geom.b)  # vertex 0 is a + 0j
    inside: list[complex] = []
    while len(inside) < samples:
        # uniform() fills values in sequence, so blocks of any size draw the
        # same stream.  Each candidate is one scalar in_octagon call: the
        # benchmark's tracer test counts more than `samples` of them per
        # group query (perfbench/test_perfbench.py), and an elementwise
        # in_octagon would cost 1.8 times as much per scalar call
        block = rng.uniform(-bound, bound, (samples, 2)).view(complex)[:, 0].tolist()
        accept = (z for z in block if in_octagon(geom, z, shrink=1e-4))
        inside += itertools.islice(accept, samples - len(inside))
    # row k: the images under g_k
    gu, gv = (np.array(part)[:, None] for part in zip(*g))
    images = su_act(gu, gv, np.array(inside))
    # in_octagon(geom, w, shrink=-1e-7) of every image w: inside the disk and
    # outside every side circle.  np.hypot is the libm hypot of Python's
    # complex abs; numpy's complex abs can differ in the last bit
    d = images - np.array(geom.centres)[:, None, None]
    radius = np.array([geom.r_plus, geom.r_minus] * 4)[:, None, None] - 1e-7
    outside = (np.hypot(d.real, d.imag) > radius).all(axis=0)
    hit = (np.hypot(images.real, images.imag) < 1.0) & outside
    return SidePairingReport(endpoint, midpoint, samples, int(np.count_nonzero(hit)))


@dataclass(frozen=True, eq=False)
class GroupBall:
    """Ball elements in shortlex order: word ``shortlex[i]`` is the map (u[i], v[i])."""

    shortlex: tuple[str, ...]
    u: np.ndarray
    v: np.ndarray

    def __len__(self) -> int:
        return len(self.shortlex)


# row j, column i of _times: zeta^j b has b[(i - j) % 4] at zeta^i, negated
# where it wrapped past zeta^4 = -1 (i < j)
_SHIFT = (np.arange(4) - np.arange(4)[:, None]) % 4
_WRAP = np.where(np.arange(4) < np.arange(4)[:, None], -1, 1)


def _times(b: np.ndarray) -> np.ndarray:
    """Matrix of x -> x b on rows (c0..c3) of c0 + c1 zeta + c2 zeta^2 + c3 zeta^3."""
    return b[_SHIFT] * _WRAP


def _letter_maps() -> list[np.ndarray]:
    """Integer 8x8 matrices of (u, w) -> (u, w) g for the letters g = a, A, ..., D.

    At the regular octagon an element is (u, lambda e^{i pi/8} w) with u, w in
    Z[zeta], zeta = e^{i pi/4}, lambda^2 = 2 + 2 sqrt2: g_k has u = -(1 + sqrt2),
    w = -zeta^k, and a product is (u1 u2 + lambda^2 w1 conj(w2), u1 w2 + w1 conj(u2)).
    """
    u = _times(np.array([-1, -1, 0, 1]))  # -(1 + sqrt2), sqrt2 = zeta - zeta^3: real
    lam2 = _times(np.array([2, 2, 0, -2]))
    maps = []
    for k in range(4):
        for w in (-np.eye(4, dtype=np.int64)[k], np.eye(4, dtype=np.int64)[k]):  # g_k, g_k^-1
            w_conj = np.array([w[0], -w[3], -w[2], -w[1]])  # zeta^j -> -zeta^(4-j)
            maps.append(np.block([[u, _times(w)], [_times(w_conj @ lam2), u]]))
    return maps


def _ball_words(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per sphere 1..n, the (parent, letter) index arrays of its shortlex words.

    Element i of sphere r is element ``parent[i]`` of sphere r - 1 times the
    letter ``LETTERS[letter[i]]``.  All points share one group presentation,
    so words are compared once, exactly, as the int64 rows of
    ``_letter_maps`` (entries below 1.2e4 up to radius 7).
    """
    step = np.concatenate(_letter_maps(), axis=1)  # a row (u, w) times all 8 letters at once
    prev, sphere = np.empty((0, 8), np.int64), np.eye(1, 8, dtype=np.int64)
    spheres = []
    for _ in range(n):
        cand = (sphere @ step).reshape(-1, 8)  # parent-major, letter-minor: shortlex
        # first nonzero integer positive: one sign per PSU(1,1) element
        cand *= np.sign(cand[np.arange(len(cand)), (cand != 0).argmax(axis=1)])[:, None]
        # word length has the relator's even parity, so a candidate can only
        # repeat an element of the previous sphere or an earlier candidate
        both = np.concatenate([prev, cand])
        _, first = np.unique(both.view(np.dtype((np.void, 64))).ravel(), return_index=True)
        new = np.sort(first[first >= len(prev)]) - len(prev)
        spheres.append((new // 8, new % 8))
        prev, sphere = sphere, cand[new]
    return spheres


def ball(gens: GeneratorSet, n: int) -> GroupBall:
    """Ball of radius n in shortlex order: ``_ball_words`` multiplied out at gens.

    Each sphere is one su_mul of its parents' pairs by its letters' pairs, in
    numpy's complex arithmetic, and each element keeps its canonical sign
    (su_sign_flip).  Raises ValueError for n outside 0..6, and past the
    float64 precision limit: where rounding breaks a product, or an element's
    |u|^2 + |v|^2 passes 1/(16 eps), naming the first such word in shortlex
    order.
    """
    if not 0 <= n < len(BALL_SIZES):
        raise ValueError(f"ball radius must be in 0..{len(BALL_SIZES) - 1}, got {n!r}")
    letters = [x for g in gens.g for x in (g, su_inverse(g))]  # a, A, b, B, ...
    lu, lv = (np.array(part, complex) for part in zip(*letters))
    words, us, vs = [("",)], [np.ones(1, complex)], [np.zeros(1, complex)]
    for parent, letter in _ball_words(n):
        sphere = [words[-1][p] + LETTERS[k] for p, k in zip(parent.tolist(), letter.tolist())]
        try:
            u, v = su_mul((us[-1][parent], vs[-1][parent]), (lu[letter], lv[letter]))
            size = abs(u) ** 2 + abs(v) ** 2
            k = ew.first_true(size > _MAX_SIZE)
            if k is not None:
                raise NumericalError(f"|u|^2+|v|^2 = {float(size[k])!r} is past 1/(16 eps)", k)
        except NumericalError as exc:  # |u|^2 - |v|^2 lost, or about to be, to roundoff
            p = gens.params
            raise ValueError(
                f"radius-{n} ball at a={p.a!r}, alpha_tilde={p.alpha_tilde!r}: element "
                f"{sphere[exc.index]!r} is past the float64 precision limit ({exc})"
            ) from None
        flip = su_sign_flip(u, v)
        words.append(tuple(sphere))
        us.append(np.where(flip, -u, u))
        vs.append(np.where(flip, -v, v))
    shortlex = tuple(w for sphere in words for w in sphere)
    return GroupBall(shortlex, np.concatenate(us), np.concatenate(vs))


@dataclass(frozen=True, eq=False)
class Cells:
    """Tiles of the disk tiling: row i holds the images of the octagon's
    vertices and side midpoints under ball element ``words[i]``."""

    words: tuple[str, ...]
    vertices: np.ndarray  # (N, 8) complex
    midpoints: np.ndarray  # (N, 8) complex

    def __len__(self) -> int:
        return len(self.words)


def cells(group_ball: GroupBall, geom: OctagonForms) -> Cells:
    """Images of the octagon ``geom`` under every element of ``group_ball``:
    one su_act over the ball's arrays, in blocks of _CELL_BLOCK elements."""
    points = _require_in_disk(np.array([*geom.vertices, *geom.midpoints]))
    u, v = group_ball.u[:, None], group_ball.v[:, None]
    images = np.concatenate([
        su_act(u[start:start + _CELL_BLOCK], v[start:start + _CELL_BLOCK], points)
        for start in range(0, len(u), _CELL_BLOCK)
    ])
    return Cells(group_ball.shortlex, images[:, :8], images[:, 8:])
