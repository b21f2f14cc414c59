"""The Fuchsian group of the octagon: generators, relation, tiling balls.

Four generators g0..g3 pair opposite octagon sides (g_k maps side k+4 onto
side k) and satisfy the single genus-2 relation

    g0 g1^-1 g2 g3^-1 g0^-1 g1 g2^-1 g3 = identity   (up to sign in SU(1,1)).

Each generator is realized three independent ways: the explicit closed-form
matrix, the product M_k M_5 of trace-zero half turns, and the half-turn
composition H(p_k) about the side midpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .hyperbolic import MobiusTransform, m_half_turn, rotation
from .octagon import OctagonGeometry, OctagonParams, in_octagon

__all__ = [
    "BALL_SIZES",
    "GeneratorSet",
    "GroupBall",
    "BallElement",
    "Cell",
    "RelationReport",
    "SidePairingReport",
    "generators",
    "omega_table",
    "m_matrices",
    "relation_defect",
    "side_pairing_check",
    "ball",
    "cells",
]

# exact ball sizes of the genus-2 surface group, radius 0..6 (Cannon 1984)
BALL_SIZES = (1, 9, 65, 457, 3193, 22289, 155577)

# letter order fixes the deterministic (shortest-lex) word ordering
LETTERS = "aAbBcCdD"


@dataclass(frozen=True)
class GeneratorSet:
    """The four side-pairing generators with their rotation structure."""

    params: OctagonParams
    g: tuple[MobiusTransform, MobiusTransform, MobiusTransform, MobiusTransform]

    def letters(self) -> list[tuple[str, MobiusTransform]]:
        """(label, transform) pairs in the canonical a,A,b,B,... order."""
        out = []
        for k, t in enumerate(self.g):
            out.append((LETTERS[2 * k], t))
            out.append((LETTERS[2 * k + 1], t.inverse()))
        return out


def generators(params: OctagonParams) -> GeneratorSet:
    """Closed-form g0, g1 and their pi/2-rotation conjugates g2, g3."""
    a, at = params.a, params.alpha_tilde
    a2 = a * a
    tn = math.tan(at)
    cos2 = math.cos(at) ** 2
    norm = -math.cos(at) / math.sqrt((1.0 - a2) * (2.0 * a2 * cos2 - 1.0))
    g0 = MobiusTransform(norm * a * (1.0 - tn), norm * ((a2 - tn) + 1j * (1.0 - a2)))
    g1 = MobiusTransform(norm * a * (1.0 + tn), norm * ((1.0 - a2) + 1j * (a2 + tn)))
    r = rotation(math.pi / 2)
    ri = r.inverse()
    return GeneratorSet(params, (g0, g1, r @ g0 @ ri, r @ g1 @ ri))


def omega_table(geom: OctagonGeometry) -> tuple[complex, ...]:
    """(omega_0..omega_5) = (omega+, omega-, i omega+, i omega-, 2a/(1+a^2), 0)."""
    op, om = geom.omega_plus, geom.omega_minus
    return (op, om, 1j * op, 1j * om, complex(geom.omega4), 0j)


def m_matrices(geom: OctagonGeometry) -> tuple[MobiusTransform, ...]:
    """Trace-zero half turns M_k = M(omega_k) for the table above."""
    return tuple(m_half_turn(w) for w in omega_table(geom))


@dataclass(frozen=True)
class RelationReport:
    defect: float
    sign: int


def relation_defect(gens: GeneratorSet) -> RelationReport:
    """Defect of g0 g1^-1 g2 g3^-1 g0^-1 g1 g2^-1 g3 against +-identity.

    The realized lift sign is measured, not assumed.
    """
    g0, g1, g2, g3 = gens.g
    word = g0 @ g1.inverse() @ g2 @ g3.inverse() @ g0.inverse() @ g1 @ g2.inverse() @ g3
    plus = max(abs(word.u - 1.0), abs(word.v))
    minus = max(abs(word.u + 1.0), abs(word.v))
    if plus <= minus:
        return RelationReport(plus, +1)
    return RelationReport(minus, -1)


@dataclass(frozen=True)
class SidePairingReport:
    endpoint_residual: float
    midpoint_residual: float
    interior_samples: int
    interior_violations: int


def side_pairing_check(
    geom: OctagonGeometry, gens: GeneratorSet, samples: int = 1000, seed: int = 0
) -> SidePairingReport:
    """Verify that g_k carries side k+4 onto side k.

    Endpoints of side k+4 must land on the endpoint pair of side k (as a
    set), the opposite midpoint -p_k must map to p_k, and images of
    interior sample points must leave the octagon (weak disjointness of
    g_k[F] and F).  Raises ValueError for a negative sample count.
    """
    if samples < 0:
        raise ValueError(f"sample count must be >= 0, got {samples!r}")
    v = geom.vertices
    endpoint_res = 0.0
    midpoint_res = 0.0
    for k, g in enumerate(gens.g):
        targets = (v[k], v[(k + 1) % 8])
        for src in (v[(k + 4) % 8], v[(k + 5) % 8]):
            img = g(src)
            endpoint_res = max(endpoint_res, min(abs(img - t) for t in targets))
        p = geom.midpoints[k]
        midpoint_res = max(midpoint_res, abs(g(-p) - p))

    violations = 0
    drawn = 0
    if samples > 0:
        rng = np.random.default_rng(seed)
        bound = max(geom.params.a, geom.b)
        while drawn < samples:
            z = complex(*rng.uniform(-bound, bound, 2))
            if not in_octagon(geom, z, shrink=1e-4):
                continue
            drawn += 1
            for g in gens.g:
                if in_octagon(geom, g(z), shrink=-1e-7):
                    violations += 1
    return SidePairingReport(endpoint_res, midpoint_res, drawn, violations)


@dataclass(frozen=True)
class BallElement:
    word: str
    transform: MobiusTransform


@dataclass(frozen=True)
class GroupBall:
    radius: int
    elements: tuple[BallElement, ...]
    relation_sign: int

    def __len__(self) -> int:
        return len(self.elements)

    def words(self) -> list[str]:
        return [e.word for e in self.elements]


def _times(b: np.ndarray) -> np.ndarray:
    """Matrix of x -> x b on rows (c0..c3) of c0 + c1 zeta + c2 zeta^2 + c3 zeta^3."""
    # row j is zeta^j b: b shifted up j places, the wrapped ones negated (zeta^4 = -1)
    return np.array([np.roll(b, j) * np.where(np.arange(4) < j, -1, 1) for j in range(4)])


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


def _ball_words(n: int) -> list[tuple[int, int]]:
    """(parent index, letter index) of the shortest-lex word of every ball element.

    Ball element k + 1 is element ``parent`` times ``gens.letters()[letter]``.  All
    points share one group presentation, so words are compared once, exactly, as
    the int64 rows of ``_letter_maps`` (entries below 1.2e4 up to radius 7).
    """
    step = np.concatenate(_letter_maps(), axis=1)  # a row (u, w) times all 8 letters at once
    prev, sphere = np.empty((0, 8), np.int64), np.eye(1, 8, dtype=np.int64)
    words: list[tuple[int, int]] = []
    for _ in range(n):
        cand = (sphere @ step).reshape(-1, 8)  # parent-major, letter-minor: shortlex
        # first nonzero integer positive: one sign per PSU(1,1) element
        cand *= np.sign(cand[np.arange(len(cand)), (cand != 0).argmax(axis=1)])[:, None]
        # word length has the relator's even parity, so a candidate can only
        # repeat an element of the previous sphere or an earlier candidate
        both = np.concatenate([prev, cand])
        _, first = np.unique(both.view(np.dtype((np.void, 64))).ravel(), return_index=True)
        new = np.sort(first[first >= len(prev)]) - len(prev)
        # the sphere is the last len(sphere) of the len(words) + 1 elements so far
        words += zip((len(words) + 1 - len(sphere) + new // 8).tolist(), (new % 8).tolist())
        prev, sphere = sphere, cand[new]
    return words


def ball(gens: GeneratorSet, n: int) -> GroupBall:
    """Ball of radius n in shortlex order: ``_ball_words`` multiplied out at gens.

    Each element keeps its canonical sign.  Raises ValueError for n outside
    0..6, and where float64 rounding breaks a product (the precision limit).
    """
    if not 0 <= n < len(BALL_SIZES):
        raise ValueError(f"ball radius must be in 0..{len(BALL_SIZES) - 1}, got {n!r}")
    letters = gens.letters()
    elements = [BallElement("", MobiusTransform.identity())]
    for parent, k in _ball_words(n):
        label, gen = letters[k]
        word = elements[parent].word + label
        try:
            kept = (elements[parent].transform @ gen).canonical()
        except (NumericalError, ValueError) as exc:  # |u|^2 - |v|^2 lost to roundoff
            p = gens.params
            raise ValueError(
                f"radius-{n} ball at a={p.a!r}, alpha_tilde={p.alpha_tilde!r}: element "
                f"{word!r} is past the float64 precision limit ({exc})"
            ) from None
        elements.append(BallElement(word, kept))
    return GroupBall(n, tuple(elements), relation_defect(gens).sign)


@dataclass(frozen=True)
class Cell:
    """One tile of the disk tiling: a ball element applied to the octagon."""

    word: str
    vertices: tuple[complex, ...]
    midpoints: tuple[complex, ...]


def cells(group_ball: GroupBall, geom: OctagonGeometry) -> list[Cell]:
    """Images of the octagon ``geom`` under every element of ``group_ball``."""
    return [
        Cell(el.word, tuple(map(el.transform, geom.vertices)),
             tuple(map(el.transform, geom.midpoints)))
        for el in group_ball.elements
    ]
