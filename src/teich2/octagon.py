"""The two-parameter family of symmetric hyperbolic octagons.

An octagon is fixed by (a, alpha_tilde) with alpha_tilde = alpha - pi/4:
vertices alternate between a e^{i k pi/2} and b e^{i(alpha + k pi/2)} with
b = 1/(sqrt(2) a cos alpha_tilde), and the sides are geodesic arcs of two
alternating radii R+-.  Admissible region:

    -pi/4 < alpha_tilde < pi/4,   1/(sqrt(2) cos alpha_tilde) < a < 1.

Gluing opposite sides yields a genus-2 surface of hyperbolic area 4 pi.

The closed forms are written once, elementwise over arrays of parameters
or at one float point: ``octagon_forms``, ``b_of`` and the perimeter
``perimeter_ab`` (symmetric in a and b).  ``OctagonParams`` is the checked
pair (a, alpha_tilde); the involution (a, at) -> (b_of(a, at), -at) swaps
the vertex moduli.  ``build_geometry`` is ``octagon_forms`` at one
``OctagonParams``.  Next to the boundary a float form can divide by a
rounded 0, as ``perimeter_ab`` does where b rounds to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _elementwise as ew
from .errors import OutOfDomainError
from .hyperbolic import arc_center, dist

__all__ = [
    "OctagonParams",
    "OctagonForms",
    "validate_params",
    "lower_a",
    "octagon_forms",
    "build_geometry",
    "perimeter_ab",
    "b_of",
    "in_octagon",
    "grid_arrays",
]

ALPHA_TILDE_MAX = math.pi / 4


def lower_a(alpha_tilde: float) -> float:
    """Lower admissible bound 1/(sqrt(2) cos alpha_tilde) for a; elementwise."""
    return 1.0 / (math.sqrt(2.0) * ew.cos(alpha_tilde))


def b_of(a, alpha_tilde):
    """Second vertex modulus b = 1/(sqrt(2) a cos alpha_tilde); array-safe."""
    return 1.0 / (math.sqrt(2.0) * a * ew.cos(alpha_tilde))


def _check_margin(margin: float) -> None:
    if not 0.0 <= margin <= 0.2:
        raise ValueError(f"margin must lie in [0, 0.2], got {margin!r}")


def _item(x, shape, k: int):
    """Element k (C order) of x broadcast to ``shape``, as a Python number."""
    return np.broadcast_to(x, shape).flat[k].item()


def _domain_error(a, at, m: float) -> tuple[int, OutOfDomainError] | None:
    """The first point (C order) outside the admissible region shrunk by m, as
    its flat index and the OutOfDomainError of the first inequality it
    violates (alpha_range, lower_a, upper_a), or None; elementwise over
    numbers or arrays, which broadcast together."""
    hi = ALPHA_TILDE_MAX - m
    in_range = (-hi < at) & (at < hi)
    lo = lower_a(ew.where(in_range, at, 0.0)) + m  # alpha_range is reported first
    above, below = a > lo, a < 1.0 - m
    # "not inside" by where, since ~ negates a Python bool to a nonzero int
    k = ew.first_true(ew.where(in_range & above & below, False, True))
    if k is None:
        return None
    shape = np.broadcast_shapes(np.shape(a), np.shape(at))
    a_k, at_k = _item(a, shape, k), _item(at, shape, k)
    if not _item(in_range, shape, k):
        return k, OutOfDomainError("alpha_range", math.copysign(hi, at_k), at_k)
    if not _item(above, shape, k):
        return k, OutOfDomainError("lower_a", _item(lo, shape, k), a_k)
    return k, OutOfDomainError("upper_a", 1.0 - m, a_k)


def _check_domain(a, at, m: float) -> None:
    """Raise the _domain_error of (a, at), if any."""
    found = _domain_error(a, at, m)
    if found is not None:
        raise found[1]


@dataclass(frozen=True)
class OctagonParams:
    """Octagon parameters (a, alpha_tilde) inside the admissible region.

    Construction raises OutOfDomainError naming the violated inequality.
    """

    a: float
    alpha_tilde: float

    def __post_init__(self):
        _check_domain(self.a, self.alpha_tilde, 0.0)


def validate_params(a: float, alpha_tilde: float, margin: float = 0.0) -> OctagonParams:
    """Parameters that keep at least ``margin`` from every domain boundary.

    Only the given point is checked, not derived points such as its
    conjugate.  Raises ValueError for a non-finite parameter or a margin
    outside [0, 0.2], and OutOfDomainError naming the violated inequality
    and its shifted bound.
    """
    a, alpha_tilde, margin = float(a), float(alpha_tilde), float(margin)
    if not (math.isfinite(a) and math.isfinite(alpha_tilde)):
        raise ValueError(f"parameters must be finite, got {a!r}, {alpha_tilde!r}")
    _check_margin(margin)
    _check_domain(a, alpha_tilde, margin)
    return OctagonParams(a, alpha_tilde)


# i^k, k = 0..3: the quarter turns that carry vertices, midpoints and side
# circles, exact in floating point; complex, so that vertex 0 is complex too
_ROT = (1 + 0j, 1j, -1 + 0j, -1j)


def _alternate(even, odd):
    """even[k] at 2k and odd[k] at 2k + 1, k = 0..3: a tuple of 8 numbers, or
    an (8,) + S array for arrays of shape S."""
    out = [x for pair in zip(even, odd) for x in pair]
    return np.stack(out) if isinstance(out[0], np.ndarray) else tuple(out)


class OctagonForms(NamedTuple):
    """The closed forms of ``octagon_forms`` at parameters of shape S.

    Scalars have shape S; ``vertices``, ``midpoints`` and the side circles'
    ``centres`` have shape (8,) + S.  At one point they are numbers and
    tuples.  ``vertices[k]`` runs counterclockwise: v0 = a, v1 = b e^{i alpha},
    v2 = i a, ...; side k joins vertices k and k+1 (mod 8) and lies on the
    circle of radius ``r_plus`` (k even) or ``r_minus`` (k odd) about
    ``centres[k]``, at angle ``phi_plus``/``phi_minus`` + (k//2) pi/2;
    ``midpoints[k]`` is the hyperbolic midpoint of side k.
    """

    b: np.ndarray
    beta: np.ndarray
    t_plus: np.ndarray
    t_minus: np.ndarray
    r_plus: np.ndarray
    r_minus: np.ndarray
    phi_plus: np.ndarray
    phi_minus: np.ndarray
    omega_plus: np.ndarray
    omega_minus: np.ndarray
    omega4: np.ndarray
    vertices: np.ndarray
    midpoints: np.ndarray
    centres: np.ndarray


def octagon_forms(a, alpha_tilde) -> OctagonForms:
    """Sides, angles, vertices and midpoints, elementwise over parameter arrays.

    The parameters are taken as given: callers keep them in the domain.
    Raises NumericalError, with the index, where 2a^2 cos^2(at) - 1 rounds
    to 0 or below, a few ulps above the lower bound of a, or where 1 -
    |omega|^2 of a side midpoint does, as it can within about 2.4e-6 of the
    boundary near the corner a = 1, |alpha_tilde| = pi/4.
    """
    at = alpha_tilde
    b = b_of(a, at)
    a2 = a * a
    b2 = b * b
    tn = ew.tan(at)
    cos2 = ew.cos(at) ** 2

    t_plus = a2 + tn
    t_minus = a2 - tn
    r_plus = ew.sqrt(t_plus**2 + (1.0 - a2) ** 2) / (2.0 * a)
    r_minus = ew.sqrt(t_minus**2 + (1.0 - a2) ** 2) / (2.0 * a)
    phi_plus = ew.arctan(t_plus / (1.0 + a2))
    phi_minus = ew.arctan((1.0 + a2) / t_minus)
    q = ew.require_positive(2.0 * a2 * cos2 - 1.0, "beta: 2a^2 cos^2(alpha_tilde) - 1")
    beta = ew.arctan((1.0 - a2) * 2.0 * a2 * cos2 / q)

    den = 1.0 - a2 * b2
    w = b * ew.exp(1j * (at + math.pi / 4))  # the vertex b e^{i alpha}
    omega_plus = (w * (1.0 - a2) + a * (1.0 - b2)) / den
    omega_minus = (w * (1.0 - a2) + 1j * a * (1.0 - b2)) / den
    gap_plus, gap_minus = 1.0 - abs(omega_plus) ** 2, 1.0 - abs(omega_minus) ** 2
    # NaN wins the minimum, and is not > 0
    ew.require_positive(ew.minimum(gap_plus, gap_minus), "side midpoints: 1 - |omega|^2")
    p_plus = omega_plus / (1.0 + ew.sqrt(gap_plus))
    p_minus = omega_minus / (1.0 + ew.sqrt(gap_minus))
    c_plus, c_minus = arc_center(r_plus, phi_plus), arc_center(r_minus, phi_minus)
    return OctagonForms(
        b=b,
        beta=beta,
        t_plus=t_plus,
        t_minus=t_minus,
        r_plus=r_plus,
        r_minus=r_minus,
        phi_plus=phi_plus,
        phi_minus=phi_minus,
        omega_plus=omega_plus,
        omega_minus=omega_minus,
        omega4=2.0 * a / (1.0 + a2),
        vertices=_alternate([a * r for r in _ROT], [w * r for r in _ROT]),
        midpoints=_alternate([p_plus * r for r in _ROT], [p_minus * r for r in _ROT]),
        centres=_alternate([c_plus * r for r in _ROT], [c_minus * r for r in _ROT]),
    )


def build_geometry(params: OctagonParams) -> OctagonForms:
    """octagon_forms at one point."""
    return octagon_forms(params.a, params.alpha_tilde)


def _tangent_toward(v, w, center):
    # unit Euclidean tangent of the arc at v, oriented toward the chord to w
    t = 1j * (v - center)
    t = ew.where((t.conjugate() * (w - v)).real < 0.0, -t, t)
    return t / abs(t)


def vertex_angles(vertices, centres, k: int):
    """Interior angle at vertex k from Euclidean arc tangents.

    ``vertices`` and the side-circle ``centres`` are indexed by k first:
    tuples of one octagon, or (8,) + S arrays for many.  The disk metric is
    conformal, so Euclidean angles between tangent directions equal
    hyperbolic ones.
    """
    v = vertices[k]
    t1 = _tangent_toward(v, vertices[(k - 1) % 8], centres[(k - 1) % 8])
    t2 = _tangent_toward(v, vertices[(k + 1) % 8], centres[k])
    return ew.arccos(ew.minimum(ew.maximum((t1.conjugate() * t2).real, -1.0), 1.0))


def perimeter_ab(a, b):
    """Closed-form perimeter 8 arccosh[...] in terms of (a, b); elementwise."""
    a2 = a * a
    b2 = b * b
    num = 1.0 - a2 * b2 + ew.sqrt((1.0 - a2) ** 2 + (1.0 - b2) ** 2)
    return 8.0 * ew.arccosh(num / ((1.0 - a2) * (1.0 - b2)))


def vertex_sum(vertices):
    """Sum of the 8 vertex-to-vertex hyperbolic distances (vertices indexed by k first)."""
    return sum(dist(vertices[k], vertices[(k + 1) % 8]) for k in range(8))


def in_octagon(geom: OctagonForms, z: complex, shrink: float = 0.0) -> bool:
    """True if z lies in the octagon interior, shrunk by ``shrink``.

    The octagon is the locus outside all eight side circles, so membership
    is |z - center_k| > R_k (+ shrink) for every side.
    """
    if abs(z) >= 1.0:
        return False
    r_plus, r_minus = geom.r_plus + shrink, geom.r_minus + shrink
    c = geom.centres
    return (abs(z - c[0]) > r_plus and abs(z - c[1]) > r_minus
            and abs(z - c[2]) > r_plus and abs(z - c[3]) > r_minus
            and abs(z - c[4]) > r_plus and abs(z - c[5]) > r_minus
            and abs(z - c[6]) > r_plus and abs(z - c[7]) > r_minus)


def grid_arrays(
    n_a: int = 20, n_alpha: int = 20, margin: float = 0.02
) -> tuple[np.ndarray, np.ndarray]:
    """Tensor grid of in-domain points at distance >= margin from the boundary.

    alpha_tilde spans the interior of the band where the a-interval
    [lower_a + margin, 1 - margin] is nonempty; each row then carries n_a
    equally spaced a values.  Returns the arrays (a, alpha_tilde), row by
    row.  Raises ValueError for a margin outside [0, 0.2], as
    validate_params does, for one that leaves no grid, for one that rounds
    away when added to a row's lower_a (0, or below about half an ulp of
    lower_a), which would put that row's first a on the excluded bound, for
    a side n_a or n_alpha below 1, and OutOfDomainError at the first point
    outside the domain.
    """
    _check_margin(margin)
    # lower_a(at) + margin <= 1 - margin pins |at| <= acos(1/(sqrt2 (1-2 margin)))
    arg = 1.0 / (math.sqrt(2.0) * (1.0 - 2.0 * margin))
    if arg >= 1.0:
        raise ValueError(f"margin {margin!r} leaves no admissible grid")
    at_max = math.acos(arg)
    if n_a < 1 or n_alpha < 1:
        raise ValueError(f"grid {n_a} x {n_alpha} has no points")
    alphas = np.linspace(-at_max, at_max, n_alpha + 2)[1:-1]
    lo = lower_a(alphas)
    if np.any(lo + margin == lo):
        raise ValueError(f"margin {margin!r} puts a grid row's first a, lower_a + margin, "
                         "on the excluded bound lower_a")
    a = np.linspace(lo + margin, 1.0 - margin, n_a, axis=1).ravel()
    at = np.repeat(alphas, n_a)
    _check_domain(a, at, 0.0)
    return a, at
