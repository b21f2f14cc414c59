"""The Fuchsian group of the octagon: generators, relation, tiling balls.

Four generators g0..g3 pair opposite octagon sides (g_k maps side k+4 onto
side k) and satisfy the single genus-2 relation

    g0 g1^-1 g2 g3^-1 g0^-1 g1 g2^-1 g3 = +identity, proven.

Each generator is realized three ways: the explicit closed-form matrix,
the product M_k M_5 of trace-zero half turns, and the half-turn
composition H(p_k) about the side midpoint; the three are equal, sign
included, and every generator is hyperbolic, |trace| >= 2 sqrt2, at every
(a, alpha_tilde), proven (tests/test_certificates.py).  The half turns
M_0..M_5 of ``half_turns`` also give the Fenchel-Nielsen trace parameters.

A group element is its SU(1,1) pair (u, v).  The generators, the relation
word and the side-pairing residuals are written once, over (u, v) pairs of
arrays (one map per parameter point) or over the number pairs of one
point; ``generators`` is ``generator_pairs`` at one ``OctagonParams``, and
``ball`` and ``side_pairing_check`` take its four pairs.  Every pair, the
products included, is used as computed; only ``ball``, which multiplies
its products further and keeps them, tests them for a breakdown.
A ball is its shortlex words and the (u, v) arrays of its elements.
Which words name distinct elements, and in which order, does not depend
on the point: the word tree is built once per process, one sphere at a
time as radii are asked for, and every ball multiplies it out at its
point.  A ball's tiles are mapped one block of elements at a time, each
block with one action over its arrays.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
from dataclasses import dataclass

from . import _elementwise as ew
from ._elementwise import np
from .errors import NumericalError
from .hyperbolic import (
    _require_in_disk,
    rotation,
    su_act,
    su_check,
    su_inverse,
    su_mul,
)
from .octagon import OctagonForms, OctagonParams, in_octagon

__all__ = [
    "BALL_SIZES",
    "GroupBall",
    "generator_pairs",
    "generators",
    "half_turns",
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
# ball elements per block of cells, which is also one pass of the SVG path
# kernel, whose byte arrays grow with it, and one part of the cell-vertex
# CSV: a tiling writes each block before the next is mapped, so a radius-5
# SVG peaks at 37.5 MB RSS (60.2 MB with the document held whole), and a
# radius-4 tiling job runs about 20% slower in blocks of 4096 on a 2-core
# x86-64 VM
_CELL_BLOCK = 512
# |u|^2 - |v|^2 = 1 holds to about eps (|u|^2 + |v|^2): ball refuses past 1/16 of
# 1/eps, before a product's |u|^2 - |v|^2 rounds to 0 in one arithmetic and not another
_MAX_SIZE = 1.0 / (16.0 * sys.float_info.epsilon)


def generator_pairs(a, alpha_tilde):
    """(u, v) pairs of g0..g3 at parameter arrays: the closed-form g0, g1 and
    their conjugates R g R^-1 by the pi/2 rotation R.

    g0 and g1 are in SU(1,1) by construction (``norm`` is their
    normalization), and every pair is returned as computed.
    """
    a2 = a * a
    tn = ew.tan(alpha_tilde)
    cos2 = ew.cos(alpha_tilde) ** 2
    norm = -ew.cos(alpha_tilde) / ew.sqrt((1.0 - a2) * (2.0 * a2 * cos2 - 1.0))
    g0 = norm * a * (1.0 - tn), norm * ((a2 - tn) + 1j * (1.0 - a2))
    g1 = norm * a * (1.0 + tn), norm * ((1.0 - a2) + 1j * (a2 + tn))
    rot = rotation(math.pi / 2)
    r = (rot.u, rot.v)
    ri = su_inverse(r)
    return g0, g1, su_mul(su_mul(r, g0), ri), su_mul(su_mul(r, g1), ri)


def generators(params: OctagonParams):
    """The generator_pairs of one point: the (u, v) pairs of g0..g3."""
    return generator_pairs(params.a, params.alpha_tilde)


def half_turns(forms: OctagonForms):
    """(u, v) pairs of the half turns M(omega_k) = (i/r, -i omega_k/r) of ``forms``,
    elementwise, with the forms' scales r, r^2 + |omega_k|^2 = 1, and
    (omega_0..omega_5) = (omega+, omega-, i omega+, i omega-, 2a/(1+a^2), 0)."""
    w_plus, w_minus = forms.omega_plus, forms.omega_minus
    r_plus, r_minus, r4 = forms.turn_scales
    turns = ((w_plus, r_plus), (w_minus, r_minus), (1j * w_plus, r_plus),
             (1j * w_minus, r_minus), (forms.omega4 + 0j, r4), (0j, 1.0))
    return tuple((1j / r, -(1j / r) * w) for w, r in turns)


def relation_defect(g):
    """max(|u - 1|, |v|) of the relation word over generator pairs g, elementwise.

    The word g0 g1^-1 g2 g3^-1 g0^-1 g1 g2^-1 g3 is multiplied left to right
    and compared with +identity, which it equals at every (a, alpha_tilde)
    (tests/test_certificates.py), so the defect measures rounding only.
    """
    g0, g1, g2, g3 = g
    word = g0
    for x in (su_inverse(g1), g2, su_inverse(g3), su_inverse(g0), g1, su_inverse(g2), g3):
        word = su_mul(word, x)
    u, v = word
    return ew.maximum(abs(u - 1.0), abs(v))


def pairing_residuals(vertices, midpoints, g):
    """(endpoint, midpoint) residuals of the side pairing, elementwise.

    g_k must carry the endpoints v_{k+4}, v_{k+5} of side k+4 onto v_{k+1},
    v_k of side k, in that order, proven (tests/test_certificates.py), and
    the opposite midpoint -p_k onto p_k.  ``vertices`` and ``midpoints`` are
    indexed by k first, as in OctagonForms.
    """
    endpoint = midpoint = 0.0
    for k, (u, v) in enumerate(g):
        for src, target in ((k + 4, k + 1), (k + 5, k)):
            img = su_act(u, v, vertices[src % 8])
            endpoint = ew.maximum(endpoint, abs(img - vertices[target % 8]))
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


def side_pairing_check(geom: OctagonForms, g, samples: int, seed: int):
    """Verify that the generator pairs g carry side k+4 onto side k.

    Returns (endpoint, midpoint, violations): the pairing_residuals, and how
    many images of interior sample points fail to leave the octagon (weak
    disjointness of g_k[F] and F).  The samples are the first ``samples``
    points of the seeded uniform stream of (x, y) in the bounding square
    that lie in the octagon shrunk by 1e-4, and an image violates where it
    lies in the octagon grown by 1e-7.  Raises ValueError for a negative
    sample count.
    """
    if samples < 0:
        raise ValueError(f"sample count must be >= 0, got {samples!r}")
    endpoint, midpoint = pairing_residuals(geom.vertices, geom.midpoints, g)
    if samples == 0:
        return endpoint, midpoint, 0

    rng = np.random.default_rng(seed)
    bound = max(geom.vertices[0].real, geom.b)  # vertex 0 is a + 0j
    inside: list[complex] = []
    while len(inside) < samples:
        # uniform() fills values in sequence, so blocks of any size draw the
        # same stream.  Each candidate is one scalar in_octagon call: the
        # benchmark's tracer test counts more than `samples` of them per
        # group query (perfbench/test_perfbench.py)
        block = rng.uniform(-bound, bound, (samples, 2)).view(complex)[:, 0].tolist()
        accept = (z for z in block if in_octagon(geom, z, shrink=1e-4))
        inside += itertools.islice(accept, samples - len(inside))
    # row k: the images under g_k
    gu, gv = (np.array(part)[:, None] for part in zip(*g))
    images = su_act(gu, gv, np.array(inside))
    # g_k carries the octagon across side k, so an image under g_k inside side
    # k's circle is settled as no violation; only the others take in_octagon
    radius = np.array([geom.r_plus, geom.r_minus] * 2)[:, None] - 1e-7
    d = images - np.array(geom.centres[:4])[:, None]
    hit = in_octagon(geom, images[np.hypot(d.real, d.imag) > radius], shrink=-1e-7)
    return endpoint, midpoint, int(np.count_nonzero(hit))


@dataclass(frozen=True, eq=False)
class GroupBall:
    """Ball elements in shortlex order: word ``shortlex[i]`` is the map (u[i], v[i])."""

    shortlex: tuple[str, ...]
    u: np.ndarray
    v: np.ndarray

    def __len__(self) -> int:
        return len(self.shortlex)


def _times(b: np.ndarray) -> np.ndarray:
    """Matrix of x -> x b on rows (c0..c3) of c0 + c1 zeta + c2 zeta^2 + c3 zeta^3."""
    # row j, column i: zeta^j b has b[(i - j) % 4] at zeta^i, negated where it
    # wrapped past zeta^4 = -1 (i < j)
    i, j = np.arange(4), np.arange(4)[:, None]
    return b[(i - j) % 4] * np.where(i < j, -1, 1)


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


class _WordTree:
    """The shortlex word tree of the presentation, grown outward on demand.

    All points share one group presentation, so the tree is one constant of
    the process: ``spheres[r - 1]`` holds sphere r's read-only (parent,
    letter) index arrays and ``words[r]`` its words.  Words are compared
    exactly, as the int64 rows of ``_letter_maps`` (entries below 1.2e4 up to
    radius 7), and growing needs only the rows of the two outermost spheres,
    which are dropped once the tree reaches the largest radius.
    """

    def __init__(self) -> None:
        self.spheres: list[tuple[np.ndarray, np.ndarray]] = []
        self.words: list[tuple[str, ...]] = [("",)]
        self._shortlex: dict[int, tuple[str, ...]] = {}
        self._rows: tuple[np.ndarray, np.ndarray] | None = None
        self._lock = threading.Lock()

    def grow(self, n: int) -> None:
        """Build spheres up to radius n, 0 <= n < len(BALL_SIZES)."""
        if len(self.spheres) >= n:
            return
        with self._lock:
            if len(self.spheres) >= n:
                return
            step = np.concatenate(_letter_maps(), axis=1)  # a row (u, w) times all 8 letters
            if self.spheres:
                prev, sphere = self._rows
            else:
                prev, sphere = np.empty((0, 8), np.int64), np.eye(1, 8, dtype=np.int64)
            while len(self.spheres) < n:
                cand = (sphere @ step).reshape(-1, 8)  # parent-major, letter-minor: shortlex
                # first nonzero integer positive: one sign per PSU(1,1) element
                cand *= np.sign(cand[np.arange(len(cand)), (cand != 0).argmax(axis=1)])[:, None]
                # word length has the relator's even parity, so a candidate can only
                # repeat an element of the previous sphere or an earlier candidate
                both = np.concatenate([prev, cand])
                _, first = np.unique(both.view(np.dtype((np.void, 64))).ravel(), return_index=True)
                new = np.sort(first[first >= len(prev)]) - len(prev)
                parent, letter = new // 8, new % 8
                parent.flags.writeable = letter.flags.writeable = False
                outer = self.words[-1]
                words = tuple([outer[p] + LETTERS[k]
                               for p, k in zip(parent.tolist(), letter.tolist())])
                prev, sphere = sphere, cand[new]
                # spheres last: grow's unlocked test reads its length
                self.words.append(words)
                self._rows = (prev, sphere)
                self.spheres.append((parent, letter))
            if n == len(BALL_SIZES) - 1:
                self._rows = None

    def shortlex(self, n: int) -> tuple[str, ...]:
        """The words of radius n, 0 <= n <= len(spheres), as one shared tuple."""
        flat = self._shortlex.get(n)
        if flat is None:
            flat = self._shortlex.setdefault(n, tuple(itertools.chain(*self.words[: n + 1])))
        return flat


_TREE = _WordTree()


class _PrecisionLimit(NumericalError, ValueError):
    """ball's refusal of an element past the float64 precision limit: a
    numerical error at the point, and a ValueError for the callers that
    probe how far a point's ball can grow."""


def ball(g, n: int) -> GroupBall:
    """Ball of radius n in shortlex order: the word tree multiplied out at the
    generator pairs g.

    Element i of sphere r is element ``parent[i]`` of sphere r - 1 times the
    letter ``LETTERS[letter[i]]``, by the (parent, letter) arrays of the
    process's one word tree, which the first ball of a radius grows.  Each
    sphere is one su_mul of its parents' pairs by its letters' pairs, in
    numpy's complex arithmetic, kept as computed, and each element keeps its
    canonical sign, Re u > 0: every element but the identity is hyperbolic,
    so |Re u| > 1.  Balls of one radius share one ``shortlex`` tuple.  Raises
    ValueError for n outside 0..6, and a NumericalError that is a ValueError
    too past the float64 precision limit: where su_check finds a product
    broken by rounding, or an element's |u|^2 + |v|^2 passes 1/(16 eps),
    naming the radius and the first such word in shortlex order, whose
    position in the ball is its ``index``.
    """
    if not 0 <= n < len(BALL_SIZES):
        raise ValueError(f"ball radius must be in 0..{len(BALL_SIZES) - 1}, got {n!r}")
    _TREE.grow(n)
    letters = [x for pair in g for x in (pair, su_inverse(pair))]  # a, A, b, B, ...
    lu, lv = (np.array(part, complex) for part in zip(*letters))
    us, vs = [np.ones(1, complex)], [np.zeros(1, complex)]
    for r, (parent, letter) in enumerate(_TREE.spheres[:n], 1):
        u, v = su_mul((us[-1][parent], vs[-1][parent]), (lu[letter], lv[letter]))
        try:
            size = su_check(u, v)
            found = ew.first_true(size > _MAX_SIZE, size)
            if found is not None:
                k, (size_k,) = found
                raise NumericalError(f"|u|^2+|v|^2 = {size_k!r} is past 1/(16 eps)", k)
        except NumericalError as exc:  # |u|^2 - |v|^2 lost, or about to be, to roundoff
            raise _PrecisionLimit(
                f"radius-{n} ball: element {_TREE.words[r][exc.index]!r} "
                f"is past the float64 precision limit ({exc})", BALL_SIZES[r - 1] + exc.index,
            ) from None
        flip = u.real < 0.0
        us.append(np.where(flip, -u, u))
        vs.append(np.where(flip, -v, v))
    return GroupBall(_TREE.shortlex(n), np.concatenate(us), np.concatenate(vs))


def cells(group_ball: GroupBall, geom: OctagonForms):
    """Images of the octagon ``geom`` under the elements of ``group_ball``,
    one su_act per block of _CELL_BLOCK elements.

    Checks the octagon's points, then returns an iterator over the blocks
    in shortlex order: each is a pair (vertices, midpoints) of (n, 8)
    complex arrays, whose row i holds the images under the block's i-th
    element.
    """
    points = np.array([*geom.vertices, *geom.midpoints])
    _require_in_disk(points)
    u, v = group_ball.u[:, None], group_ball.v[:, None]
    blocks = (su_act(u[start:start + _CELL_BLOCK], v[start:start + _CELL_BLOCK], points)
              for start in range(0, len(u), _CELL_BLOCK))
    return ((images[:, :8], images[:, 8:]) for images in blocks)
