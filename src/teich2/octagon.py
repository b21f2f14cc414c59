"""The two-parameter family of symmetric hyperbolic octagons.

An octagon is fixed by (a, alpha_tilde) with alpha_tilde = alpha - pi/4:
vertices alternate between a e^{i k pi/2} and b e^{i(alpha + k pi/2)} with
b = 1/(sqrt(2) a cos alpha_tilde), and the sides are geodesic arcs of two
alternating radii R+-.  Admissible region:

    -pi/4 < alpha_tilde < pi/4,   1/(sqrt(2) cos alpha_tilde) < a < 1.

Gluing opposite sides yields a genus-2 surface of hyperbolic area 4 pi.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfDomainError
from .hyperbolic import GeodesicArc, dist

__all__ = [
    "OctagonParams",
    "OctagonGeometry",
    "validate_params",
    "lower_a",
    "build_geometry",
    "interior_angles_numeric",
    "vertex_angle",
    "perimeter",
    "perimeter_ab",
    "b_of",
    "perimeter_numeric",
    "in_octagon",
    "domain_grid",
]

ALPHA_TILDE_MAX = math.pi / 4


def lower_a(alpha_tilde: float) -> float:
    """Lower admissible bound 1/(sqrt(2) cos alpha_tilde) for a."""
    return 1.0 / (math.sqrt(2.0) * math.cos(alpha_tilde))


def b_of(a, alpha_tilde):
    """Second vertex modulus b = 1/(sqrt(2) a cos alpha_tilde); array-safe."""
    return 1.0 / (np.sqrt(2.0) * a * np.cos(alpha_tilde))


def _check_margin(margin: float) -> None:
    if not 0.0 <= margin <= 0.2:
        raise ValueError(f"margin must lie in [0, 0.2], got {margin!r}")


def _check_domain(a: float, at: float, m: float) -> None:
    # the admissible region shrunk by m, one OutOfDomainError per inequality
    hi = ALPHA_TILDE_MAX - m
    if not -hi < at < hi:
        raise OutOfDomainError("alpha_range", math.copysign(hi, at), at)
    lo = lower_a(at) + m
    if not a > lo:
        raise OutOfDomainError("lower_a", lo, a)
    if not a < 1.0 - m:
        raise OutOfDomainError("upper_a", 1.0 - m, a)


@dataclass(frozen=True)
class OctagonParams:
    """Octagon parameters (a, alpha_tilde) inside the admissible region.

    Construction raises OutOfDomainError naming the violated inequality.
    """

    a: float
    alpha_tilde: float

    def __post_init__(self):
        _check_domain(self.a, self.alpha_tilde, 0.0)

    @property
    def alpha(self) -> float:
        return self.alpha_tilde + math.pi / 4

    @property
    def b(self) -> float:
        return float(b_of(self.a, self.alpha_tilde))

    def conjugate(self) -> "OctagonParams":
        """The involution image (b, -alpha_tilde); applying it twice returns (a, alpha_tilde)."""
        return OctagonParams(self.b, -self.alpha_tilde)


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


@dataclass(frozen=True)
class OctagonGeometry:
    """All derived octagon data for one parameter point.

    ``vertices[k]`` runs counterclockwise: v0 = a, v1 = b e^{i alpha},
    v2 = i a, ...; side k joins vertices k and k+1 (mod 8) and is the arc
    of ``arc_plus``/``arc_minus`` rotated by (k//2) pi/2; ``midpoints[k]``
    is the hyperbolic midpoint of side k.
    """

    params: OctagonParams
    b: float
    beta: float
    t_plus: float
    t_minus: float
    arc_plus: GeodesicArc
    arc_minus: GeodesicArc
    omega_plus: complex
    omega_minus: complex
    omega4: float
    vertices: tuple[complex, ...] = field(repr=False)
    midpoints: tuple[complex, ...] = field(repr=False)

    @property
    def p_plus(self) -> complex:
        return self.midpoints[0]

    @property
    def p_minus(self) -> complex:
        return self.midpoints[1]

    def side_arc(self, k: int) -> GeodesicArc:
        """Geodesic arc carrying side k (center angle phi+- + (k//2) pi/2)."""
        base = self.arc_plus if k % 2 == 0 else self.arc_minus
        return GeodesicArc(base.radius, base.phi + (k // 2) * math.pi / 2)


def build_geometry(params: OctagonParams) -> OctagonGeometry:
    """Evaluate the closed forms for sides, angles, vertices and midpoints."""
    a, at = params.a, params.alpha_tilde
    alpha = params.alpha
    b = params.b
    a2 = a * a
    b2 = b * b
    tn = math.tan(at)
    cos2 = math.cos(at) ** 2

    t_plus = a2 + tn
    t_minus = a2 - tn
    r_plus = math.sqrt(t_plus**2 + (1.0 - a2) ** 2) / (2.0 * a)
    r_minus = math.sqrt(t_minus**2 + (1.0 - a2) ** 2) / (2.0 * a)
    phi_plus = math.atan(t_plus / (1.0 + a2))
    phi_minus = math.atan((1.0 + a2) / t_minus)
    beta = math.atan((1.0 - a2) * 2.0 * a2 * cos2 / (2.0 * a2 * cos2 - 1.0))

    den = 1.0 - a2 * b2
    omega_plus = (b * cmath.exp(1j * alpha) * (1.0 - a2) + a * (1.0 - b2)) / den
    omega_minus = (b * cmath.exp(1j * alpha) * (1.0 - a2) + 1j * a * (1.0 - b2)) / den
    p_plus = omega_plus / (1.0 + math.sqrt(1.0 - abs(omega_plus) ** 2))
    p_minus = omega_minus / (1.0 + math.sqrt(1.0 - abs(omega_minus) ** 2))

    verts = []
    for k in range(4):
        rot = cmath.exp(1j * k * math.pi / 2)
        verts.append(a * rot)
        verts.append(b * cmath.exp(1j * alpha) * rot)
    mids = []
    for k in range(4):
        rot = cmath.exp(1j * k * math.pi / 2)
        mids.append(p_plus * rot)
        mids.append(p_minus * rot)

    return OctagonGeometry(
        params=params,
        b=b,
        beta=beta,
        t_plus=t_plus,
        t_minus=t_minus,
        arc_plus=GeodesicArc(r_plus, phi_plus),
        arc_minus=GeodesicArc(r_minus, phi_minus),
        omega_plus=omega_plus,
        omega_minus=omega_minus,
        omega4=2.0 * a / (1.0 + a2),
        vertices=tuple(verts),
        midpoints=tuple(mids),
    )


def _tangent_toward(v: complex, w: complex, center: complex) -> complex:
    # unit Euclidean tangent of the arc at v, oriented toward the chord to w
    t = 1j * (v - center)
    if (t.conjugate() * (w - v)).real < 0.0:
        t = -t
    return t / abs(t)


def vertex_angle(geom: OctagonGeometry, k: int) -> float:
    """Interior angle at vertex k from Euclidean arc tangents.

    The disk metric is conformal, so Euclidean angles between tangent
    directions equal hyperbolic ones.
    """
    v = geom.vertices[k]
    prev_arc = geom.side_arc((k - 1) % 8)
    next_arc = geom.side_arc(k)
    t1 = _tangent_toward(v, geom.vertices[(k - 1) % 8], prev_arc.center)
    t2 = _tangent_toward(v, geom.vertices[(k + 1) % 8], next_arc.center)
    return math.acos(max(-1.0, min(1.0, (t1.conjugate() * t2).real)))


def interior_angles_numeric(geom: OctagonGeometry) -> tuple[float, float]:
    """(angle at an a-vertex, angle at a b-vertex) from the tangent oracle."""
    return vertex_angle(geom, 0), vertex_angle(geom, 1)


def perimeter_ab(a, b):
    """Closed-form perimeter 8 arccosh[...] in terms of (a, b); array-safe."""
    a2 = np.square(a)
    b2 = np.square(b)
    num = 1.0 - a2 * b2 + np.sqrt((1.0 - a2) ** 2 + (1.0 - b2) ** 2)
    return 8.0 * np.arccosh(num / ((1.0 - a2) * (1.0 - b2)))


def perimeter(params: OctagonParams) -> float:
    """Octagon perimeter from the closed form (symmetric in a and b)."""
    return float(perimeter_ab(params.a, params.b))


def perimeter_numeric(geom: OctagonGeometry) -> float:
    """Perimeter as the sum of the 8 vertex-to-vertex hyperbolic distances."""
    v = geom.vertices
    return sum(dist(v[k], v[(k + 1) % 8]) for k in range(8))


def in_octagon(geom: OctagonGeometry, z: complex, shrink: float = 0.0) -> bool:
    """True if z lies in the octagon interior, shrunk by ``shrink``.

    The octagon is the locus outside all eight side circles, so membership
    is |z - center_k| > R_k (+ shrink) for every side.
    """
    if abs(z) >= 1.0:
        return False
    for k in range(8):
        arc = geom.side_arc(k)
        if abs(z - arc.center) <= arc.radius + shrink:
            return False
    return True


def domain_grid(n_a: int = 20, n_alpha: int = 20, margin: float = 0.02) -> list[OctagonParams]:
    """Tensor grid of in-domain points at distance >= margin from the boundary.

    alpha_tilde spans the interior of the band where the a-interval
    [lower_a + margin, 1 - margin] is nonempty; each row then carries n_a
    equally spaced a values.  Raises ValueError for a margin outside
    [0, 0.2], as validate_params does, or one that leaves no grid.
    """
    _check_margin(margin)
    # lower_a(at) + margin <= 1 - margin pins |at| <= acos(1/(sqrt2 (1-2 margin)))
    arg = 1.0 / (math.sqrt(2.0) * (1.0 - 2.0 * margin))
    if arg >= 1.0:
        raise ValueError(f"margin {margin!r} leaves no admissible grid")
    at_max = math.acos(arg)
    alphas = np.linspace(-at_max, at_max, n_alpha + 2)[1:-1]
    grid = []
    for at in alphas:
        a_lo = lower_a(float(at)) + margin
        for a in np.linspace(a_lo, 1.0 - margin, n_a):
            grid.append(OctagonParams(float(a), float(at)))
    return grid
