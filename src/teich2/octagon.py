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
``OctagonParams``.  The forms are the proven rational chart of (a, tan at),
whose one refusal is X <= 0, but next to the boundary a float form can
still divide by a rounded 0, as ``perimeter_ab`` does where b rounds to 1.
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


def _domain_error(a, at) -> OutOfDomainError | None:
    """The OutOfDomainError of the first inequality (alpha_range, lower_a,
    upper_a) that the first point (C order) outside the domain violates, with
    its flat index, or None; elementwise over numbers or arrays, which broadcast."""
    in_range = (-ALPHA_TILDE_MAX < at) & (at < ALPHA_TILDE_MAX)
    lo = lower_a(ew.where(in_range, at, 0.0))  # alpha_range is reported first
    above, below = a > lo, a < 1.0
    # "not inside" by where, since ~ negates a Python bool to a nonzero int
    found = ew.first_true(ew.where(in_range & above & below, False, True),
                          a, at, lo, in_range, above)
    if found is None:
        return None
    k, (a_k, at_k, lo_k, in_range_k, above_k) = found
    if not in_range_k:
        return OutOfDomainError("alpha_range", math.copysign(ALPHA_TILDE_MAX, at_k), at_k, k)
    if not above_k:
        return OutOfDomainError("lower_a", lo_k, a_k, k)
    return OutOfDomainError("upper_a", 1.0, a_k, k)


def _check_domain(a, at) -> None:
    """Raise the _domain_error of (a, at), if any."""
    exc = _domain_error(a, at)
    if exc is not None:
        raise exc


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
    hyperbolic midpoint of side k; ``turn_scales`` is the 3-tuple of scales
    r, r^2 + |omega|^2 = 1, of omega_plus, omega_minus and omega4.
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
    turn_scales: tuple
    vertices: np.ndarray
    midpoints: np.ndarray
    centres: np.ndarray


def _edge(a, t):
    """X = (1 - a)(1 + a)(2a^2 - 1 - t^2), t = tan(alpha_tilde): X > 0 exactly
    on the domain, and the forms and ``grid_arrays`` refuse where it is not."""
    return (1.0 - a) * (1.0 + a) * (2.0 * (a * a) - 1.0 - t * t)


def _chart(a, t):
    """The forms but b at (a, t = tan(alpha_tilde)), elementwise, as proven in
    a, t and s = sqrt(X) (tests/test_certificates.py): omega = V/U, midpoints
    V/(U + s) and half-turn scales s/U, with U0 = a(1 - t), U1 = a(1 + t),
    V0 = (a^2 - t) + i p, V1 = p + i(a^2 + t), p = 1 - a^2.  NumericalError,
    with the index, where X rounds to 0 or below."""
    x = ew.require_positive(_edge(a, t), "X = (1 - a^2)(2a^2 - 1 - t^2)")
    s = ew.sqrt(x)
    a2 = a * a
    p = (1.0 - a) * (1.0 + a)
    # X > 0 keeps a^2 - t > 0 in floats: 2a^2 - 1 > fl(t^2) >= 2t - 1, a float
    t_plus, t_minus = a2 + t, a2 - t
    u0, u1 = a * (1.0 - t), a * (1.0 + t)
    v0, v1 = t_minus + 1j * p, p + 1j * t_plus
    w = ((1.0 - t) + 1j * (1.0 + t)) / (2.0 * a)  # the vertex b e^{i alpha}
    c_plus = (1.0 + a2 + 1j * t_plus) / (2.0 * a)
    c_minus = (t_minus + 1j * (1.0 + a2)) / (2.0 * a)
    return dict(
        beta=ew.arctan(2.0 * a2 * p * p / x),
        t_plus=t_plus,
        t_minus=t_minus,
        r_plus=ew.sqrt(t_plus**2 + (1.0 - a2) ** 2) / (2.0 * a),
        r_minus=ew.sqrt(t_minus**2 + (1.0 - a2) ** 2) / (2.0 * a),
        phi_plus=ew.arctan(t_plus / (1.0 + a2)),
        phi_minus=ew.arctan((1.0 + a2) / t_minus),
        omega_plus=v0 / u0,
        omega_minus=v1 / u1,
        omega4=2.0 * a / (1.0 + a2),
        turn_scales=(s / u0, s / u1, p / (1.0 + a2)),
        vertices=_alternate([a * r for r in _ROT], [w * r for r in _ROT]),
        midpoints=_alternate([v0 / (u0 + s) * r for r in _ROT], [v1 / (u1 + s) * r for r in _ROT]),
        centres=_alternate([c_plus * r for r in _ROT], [c_minus * r for r in _ROT]),
    )


def octagon_forms(a, alpha_tilde) -> OctagonForms:
    """b_of and the _chart at t = tan(alpha_tilde), elementwise over parameter
    arrays taken as given: callers keep them in the domain.  NumericalError
    where X rounds to 0 or below, a few ulps above the lower bound of a or
    next to the corner a = 1, |alpha_tilde| = pi/4."""
    return OctagonForms(b=b_of(a, alpha_tilde), **_chart(a, ew.tan(alpha_tilde)))


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
    """Sum of the 8 vertex-to-vertex hyperbolic distances (vertices indexed by
    k first); NumericalError where the odd vertices round onto |z| = 1."""
    ew.require_positive(1.0 - abs(vertices[1]), "vertex_sum: 1 - |v1|")
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
    that leaves the forms' X = (1 - a^2)(2a^2 - 1 - tan^2(at)) at 0 or below
    there), for a side n_a or n_alpha below 1, and
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
    # the forms' X rounds to 0 or below, is on the bound
    if np.any((first == lo) | ~(_edge(first, ew.tan(alphas)) > 0.0)):
        raise ValueError(f"margin {margin!r} puts a grid row's first a, lower_a + margin, "
                         "on the excluded bound lower_a")
    a = np.linspace(first, 1.0 - margin, n_a, axis=1).ravel()
    at = np.repeat(alphas, n_a)
    _check_domain(a, at)
    return a, at
