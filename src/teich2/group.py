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
# ball() merges g and h when sinh(d/2) = |z - w| |u_g| |u_h| < ORBIT_GAP for
# their orbit points z = g(0) = v/conj(u) and w = h(0).  Distinct elements sit
# at d >= twice the octagon's inradius about 0, >= 1.77 (tests/test_group.py);
# roundoff in sinh(d/2) is about eps |u|^2, so |u|^2 > _U2_LIMIT is refused.
ORBIT_GAP = 0.25
_U2_LIMIT = 1e14
_BIN = 2.0**-20  # bin width of the orbit-point hash

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


def _probe_keys(z: complex, margin: float) -> list[tuple[int, int]]:
    """Hash bins holding every point within min(margin, _BIN/2) of z, own bin first."""
    axes = []
    for x in (z.real / _BIN, z.imag / _BIN):
        k = round(x)
        near_edge = 0.5 - abs(x - k) <= margin / _BIN
        axes.append((k, k + 1 if x > k else k - 1) if near_edge else (k,))
    return [(i, j) for i in axes[0] for j in axes[1]]


def ball(gens: GeneratorSet, n: int) -> GroupBall:
    """Shortest-word BFS ball of radius n, deduplicated by orbit point.

    Deterministic: the frontier is expanded in (length, word) lexicographic
    order over the letters a,A,b,B,c,C,d,D, and the first (shortest-lex)
    word reaching an element is kept, with its canonical sign.  Raises
    ValueError for n outside 0..6, and past the float64 limit |u|^2 <= 1e14.
    """
    if not 0 <= n < len(BALL_SIZES):
        raise ValueError(f"ball radius must be in 0..{len(BALL_SIZES) - 1}, got {n!r}")
    letters = gens.letters()
    ident = MobiusTransform.identity()
    bins: dict[tuple[int, int], list[tuple[complex, float]]] = {(0, 0): [(0j, 1.0)]}
    elements = [BallElement("", ident)]
    frontier = [("", ident)]
    for _ in range(n):
        next_frontier: list[tuple[str, MobiusTransform]] = []
        for word, t in frontier:
            back = word[-1:].swapcase()
            for label, gen in letters:
                if label == back:
                    continue  # free reduction: skip immediate backtracking
                try:
                    cand = t @ gen
                except NumericalError:  # |u|^2 - |v|^2 lost to roundoff
                    cand = None
                size = abs(t.u) * abs(gen.u) if cand is None else abs(cand.u)
                if cand is None or size * size > _U2_LIMIT:
                    p = gens.params
                    raise ValueError(
                        f"radius-{n} ball at a={p.a!r}, alpha_tilde={p.alpha_tilde!r}: "
                        f"|u| = {size:.3g} at word length {len(word) + 1} exceeds the "
                        f"float64 precision limit |u|^2 <= {_U2_LIMIT:g}"
                    )
                z = cand.v / cand.u.conjugate()
                keys = _probe_keys(z, ORBIT_GAP / (size * size))
                if any(
                    abs(z - w) * size * w_size < ORBIT_GAP
                    for key in keys
                    for w, w_size in bins.get(key, ())
                ):
                    continue
                bins.setdefault(keys[0], []).append((z, size))
                kept = cand.canonical()
                new_word = word + label
                elements.append(BallElement(new_word, kept))
                next_frontier.append((new_word, kept))
        frontier = next_frontier
    return GroupBall(n, tuple(elements), relation_defect(gens).sign)


@dataclass(frozen=True)
class Cell:
    """One tile of the disk tiling: a ball element applied to the octagon."""

    word: str
    vertices: tuple[complex, ...]
    midpoints: tuple[complex, ...]


def cells(group_ball: GroupBall, geom: OctagonGeometry) -> list[Cell]:
    """Images of the octagon ``geom`` under every element of ``group_ball``."""
    out = []
    for el in group_ball.elements:
        t = el.transform
        out.append(
            Cell(
                el.word,
                tuple(t(v) for v in geom.vertices),
                tuple(t(p) for p in geom.midpoints),
            )
        )
    return out
