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
from .hyperbolic import dist

__all__ = [
    "OctagonParams",
    "OctagonForms",
    "lower_a",
    "octagon_forms",
    "build_geometry",
    "perimeter_ab",
    "b_of",
    "in_octagon",
    "grid_arrays",
]

ALPHA_TILDE_MAX = math.pi / 4


def b_of(a, alpha_tilde):
    """Second vertex modulus b = 1/(sqrt(2) a cos alpha_tilde); array-safe."""
    return 1.0 / (math.sqrt(2.0) * a * ew.cos(alpha_tilde))


def lower_a(alpha_tilde: float) -> float:
    """Lower admissible bound 1/(sqrt(2) cos alpha_tilde) for a, b_of(1, at); elementwise."""
    return b_of(1.0, alpha_tilde)


def _item(x, shape, k: int):
    """Element k (C order) of x broadcast to ``shape``, as a Python number."""
    return np.broadcast_to(x, shape).flat[k].item()


def _domain_error(a, at) -> tuple[int, OutOfDomainError] | None:
    """The first point (C order) outside the admissible region, as its flat
    index and the OutOfDomainError of the first inequality it violates
    (alpha_range, lower_a, upper_a), or None; elementwise over numbers or
    arrays, which broadcast together."""
    in_range = (-ALPHA_TILDE_MAX < at) & (at < ALPHA_TILDE_MAX)
    lo = lower_a(ew.where(in_range, at, 0.0))  # alpha_range is reported first
    above, below = a > lo, a < 1.0
    # "not inside" by where, since ~ negates a Python bool to a nonzero int
    k = ew.first_true(ew.where(in_range & above & below, False, True))
    if k is None:
        return None
    shape = np.broadcast_shapes(np.shape(a), np.shape(at))
    a_k, at_k = _item(a, shape, k), _item(at, shape, k)
    if not _item(in_range, shape, k):
        return k, OutOfDomainError("alpha_range", math.copysign(ALPHA_TILDE_MAX, at_k), at_k)
    if not _item(above, shape, k):
        return k, OutOfDomainError("lower_a", _item(lo, shape, k), a_k)
    return k, OutOfDomainError("upper_a", 1.0, a_k)


def _check_domain(a, at) -> None:
    """Raise the _domain_error of (a, at), if any."""
    found = _domain_error(a, at)
    if found is not None:
        raise found[1]


@dataclass(frozen=True)
class OctagonParams:
    """Octagon parameters (a, alpha_tilde) inside the admissible region.

    Only the given point is checked, not derived points such as its
    conjugate.  Construction raises ValueError for a non-finite parameter,
    and OutOfDomainError naming the violated inequality and its bound.
    """

    a: float
    alpha_tilde: float

    def __post_init__(self):
        a, at = self.a, self.alpha_tilde
        if not (math.isfinite(a) and math.isfinite(at)):
            raise ValueError(f"parameters must be finite, got {a!r}, {at!r}")
        _check_domain(a, at)


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
    ``centres[k]``, at angle ``phi_plus``/``phi_minus`` + (k//2) pi/2:
    c0 = (1 + a^2 + i t_plus)/(2a), c1 = (t_minus + i (1 + a^2))/(2a) and
    c_{k+2} = i c_k, each orthogonal to the unit circle, |c|^2 - R^2 = 1
    (proven in tests/test_certificates.py); ``midpoints[k]`` is the
    hyperbolic midpoint of side k.
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
    Raises NumericalError, with the index, where 2a^2 cos^2(at) - 1 or
    1 - b^2 rounds to 0 or below, a few ulps above the lower bound of a, or
    where a^2 - tan(at) or 1 - |omega|^2 of a side midpoint does, as they
    can within about 2.4e-6 of the boundary near the corner a = 1,
    |alpha_tilde| = pi/4.
    """
    at = alpha_tilde
    b = b_of(a, at)
    a2 = a * a
    b2 = b * b
    tn = ew.tan(at)
    cos2 = ew.cos(at) ** 2

    q = ew.require_positive(2.0 * a2 * cos2 - 1.0, "beta: 2a^2 cos^2(alpha_tilde) - 1")
    t_plus = a2 + tn
    # a^2 - tan(at) = (a^2 - 1/(2 cos^2 at)) + (1 - sin 2at)/(2 cos^2 at) > 0
    # in the domain, and it can round to 0 next to the corner
    t_minus = ew.require_positive(a2 - tn, "side angle: a^2 - tan(alpha_tilde)")
    r_plus = ew.sqrt(t_plus**2 + (1.0 - a2) ** 2) / (2.0 * a)
    r_minus = ew.sqrt(t_minus**2 + (1.0 - a2) ** 2) / (2.0 * a)
    phi_plus = ew.arctan(t_plus / (1.0 + a2))
    phi_minus = ew.arctan((1.0 + a2) / t_minus)
    beta = ew.arctan((1.0 - a2) * 2.0 * a2 * cos2 / q)

    ew.require_positive(1.0 - b2, "vertex modulus: 1 - b^2")
    den = 1.0 - a2 * b2
    w = b * ew.exp(1j * (at + math.pi / 4))  # the vertex b e^{i alpha}
    omega_plus = (w * (1.0 - a2) + a * (1.0 - b2)) / den
    omega_minus = (w * (1.0 - a2) + 1j * a * (1.0 - b2)) / den
    gap_plus, gap_minus = 1.0 - abs(omega_plus) ** 2, 1.0 - abs(omega_minus) ** 2
    # NaN wins the minimum, and is not > 0
    ew.require_positive(ew.minimum(gap_plus, gap_minus), "side midpoints: 1 - |omega|^2")
    p_plus = omega_plus / (1.0 + ew.sqrt(gap_plus))
    p_minus = omega_minus / (1.0 + ew.sqrt(gap_minus))
    c_plus = (1.0 + a2 + 1j * t_plus) / (2.0 * a)
    c_minus = (t_minus + 1j * (1.0 + a2)) / (2.0 * a)
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


def in_octagon(geom: OctagonForms, z, shrink: float):
    """True where z lies in the interior of the octagon ``geom`` (one point),
    shrunk by ``shrink``; elementwise over an array z.

    The octagon is the locus in the disk outside all eight side circles, so
    membership is |z| < 1 and |z - center_k| > R_k + shrink for every side.
    An array takes each modulus by np.hypot, the libm hypot of Python's
    complex abs, so every element is the bool of the scalar call.
    """
    # a Python complex, the common case of one point, tested first
    if type(z) is complex or not isinstance(z, np.ndarray):
        if abs(z) >= 1.0:
            return False
        r_plus, r_minus = geom.r_plus + shrink, geom.r_minus + shrink
        c = geom.centres
        return (abs(z - c[0]) > r_plus and abs(z - c[1]) > r_minus
                and abs(z - c[2]) > r_plus and abs(z - c[3]) > r_minus
                and abs(z - c[4]) > r_plus and abs(z - c[5]) > r_minus
                and abs(z - c[6]) > r_plus and abs(z - c[7]) > r_minus)
    centres = np.reshape(geom.centres, (8,) + (1,) * z.ndim)
    radius = np.reshape((geom.r_plus + shrink, geom.r_minus + shrink) * 4, centres.shape)
    d = z - centres
    return (np.hypot(z.real, z.imag) < 1.0) & (np.hypot(d.real, d.imag) > radius).all(axis=0)


def grid_arrays(n_a: int, n_alpha: int, margin: float) -> tuple[np.ndarray, np.ndarray]:
    """Tensor grid of in-domain points at distance >= margin from the boundary.

    alpha_tilde spans the interior of the band where the a-interval
    [lower_a + margin, 1 - margin] is nonempty; each row then carries n_a
    equally spaced a values.  Returns the arrays (a, alpha_tilde), row by
    row.  Raises ValueError for a margin outside [0, (1 - 1/sqrt2)/2), the
    margins that leave a band, for one that puts a row's first a on the
    excluded bound as the forms see it (a margin that rounds away on
    lower_a, as 0 and those below about half an ulp of lower_a do, or one
    that leaves 2a^2 cos^2(at) - 1 at 0 or below there, as 6e-17 and 1e-16
    do on the 20 x 20 grid), for a side n_a or n_alpha below 1, and
    OutOfDomainError at the first point outside the domain.
    """
    # lower_a(at) + margin <= 1 - margin pins |at| <= acos(1/(sqrt2 (1-2 margin))),
    # a band only below (1 - 1/sqrt2)/2, half the domain's width in a at at = 0
    bound = (1.0 - 1.0 / math.sqrt(2.0)) / 2.0
    if not 0.0 <= margin < bound:
        raise ValueError(f"margin must lie in [0, (1 - 1/sqrt2)/2 = {bound!r}), got {margin!r}")
    at_max = math.acos(1.0 / (math.sqrt(2.0) * (1.0 - 2.0 * margin)))
    if n_a < 1 or n_alpha < 1:
        raise ValueError(f"grid {n_a} x {n_alpha} has no points")
    alphas = np.linspace(-at_max, at_max, n_alpha + 2)[1:-1]
    lo = lower_a(alphas)
    first = lo + margin
    # a first a that rounds onto lower_a, or one an ulp or two above it where
    # octagon_forms' 2a^2 cos^2(at) - 1 rounds to 0 or below, is on the bound
    if np.any((first == lo) | ~(2.0 * (first * first) * ew.cos(alphas) ** 2 - 1.0 > 0.0)):
        raise ValueError(f"margin {margin!r} puts a grid row's first a, lower_a + margin, "
                         "on the excluded bound lower_a")
    a = np.linspace(first, 1.0 - margin, n_a, axis=1).ravel()
    at = np.repeat(alphas, n_a)
    _check_domain(a, at)
    return a, at
