"""Poincare-disk primitives: distance, geodesic arcs, SU(1,1) Mobius maps.

The model is the open unit disk |z| < 1 carrying the metric
4(dx^2+dy^2)/(1-x^2-y^2)^2 of curvature -1.  Orientation-preserving
isometries act as z -> (u z + v)/(conj(v) z + conj(u)) with
|u|^2 - |v|^2 = 1; the pair (u, v) and its negative give the same map,
so group equality is always taken up to global sign.

The formulas for the action, the product and the renormalization test are
written once, elementwise, in ``su_normalize``, ``su_mul``, ``su_inverse``,
``su_act`` and ``su_sign_flip`` over (u, v) pairs of numbers or of numpy
arrays, one map per element; ``MobiusTransform`` is their view at one pair.
Numbers are multiplied in CPython's complex arithmetic and arrays in
numpy's complex loops, which may fuse multiply-adds depending on the CPU, so
a product or an image computed over arrays can differ from the one computed
one pair at a time by a relative amount of order eps (|u|^2 + |v|^2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _elementwise as ew
from .errors import NumericalError

__all__ = [
    "GeodesicArc",
    "MobiusTransform",
    "dist",
    "arc_center",
    "translation",
    "translation_pair",
    "m_half_turn",
    "half_turn_pair",
    "rotation",
    "projective_gap",
    "su_normalize",
    "su_mul",
    "su_inverse",
    "su_gap",
    "su_act",
    "su_sign_flip",
]

# constructors reject SU(1,1) pairs with |det - 1| above this times |u|^2+|v|^2
SU_DEFECT_TOLERANCE = 1e-9
# |Tr| within this band of 2 classifies as parabolic
PARABOLIC_BAND = 1e-9
# components below this are treated as zero by the canonical-sign rule
_SIGN_EPS = 1e-9


def _require_in_disk(z):
    """z itself, or ValueError naming the first point (C order) with |z| >= 1."""
    if isinstance(z, np.ndarray):
        k = ew.first_true(abs(z) >= 1.0)
        if k is not None:
            _require_in_disk(complex(z.flat[k]))
    elif abs(z) >= 1.0:
        raise ValueError(f"point {z!r} is not strictly inside the unit disk")
    return z


def dist(z, w):
    """Hyperbolic distance arccosh(1 + 2|z-w|^2 / ((1-|z|^2)(1-|w|^2))).

    Elementwise on arrays, which broadcast together; a float for two points.
    """
    _require_in_disk(z)
    _require_in_disk(w)
    return ew.arccosh(1.0 + 2.0 * abs(z - w) ** 2 / ((1.0 - abs(z) ** 2) * (1.0 - abs(w) ** 2)))


def arc_center(radius, phi):
    """Euclidean center sqrt(1+R^2) e^{i phi} of a geodesic circle; array-safe."""
    return ew.sqrt(1.0 + radius**2) * ew.exp(1j * phi)


@dataclass(frozen=True)
class GeodesicArc:
    """A complete geodesic off the origin: a circle orthogonal to the boundary.

    Stores the Euclidean radius ``radius`` > 0 and the angle ``phi`` of the
    Euclidean center, which sits at sqrt(1+R^2) e^{i phi}.  No octagon side
    is a diameter, so diameters are not represented.
    """

    radius: float
    phi: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError(f"arc radius must be positive, got {self.radius!r}")

    @property
    def center(self) -> complex:
        """Euclidean center sqrt(1+R^2) e^{i phi}."""
        return complex(arc_center(self.radius, self.phi))

    def point(self, s: float) -> complex:
        """Unit-speed point at arc length s from the point nearest the origin.

        Evaluates (cosh s + i R sinh s) / (sqrt(1+R^2) cosh s + R) * e^{i phi},
        which traces the circle of radius R about sqrt(1+R^2) e^{i phi}.
        """
        r = self.radius
        ch, sh = math.cosh(s), math.sinh(s)
        w = (ch + 1j * r * sh) / (math.sqrt(1.0 + r * r) * ch + r)
        return w * cmath.exp(1j * self.phi)


def su_act(u, v, z):
    """The image (u z + v)/(conj(v) z + conj(u)) of z under the pair (u, v); elementwise."""
    return (u * z + v) / (v.conjugate() * z + u.conjugate())


def _su_product(u1, v1, u2, v2):
    """(u, v) of the matrix product of two SU(1,1) pairs; elementwise on arrays."""
    return u1 * u2 + v1 * v2.conjugate(), u1 * v2 + v1 * u2.conjugate()


def su_normalize(u, v, product: bool = False):
    """The constructor of MobiusTransform on (u, v) numbers or arrays, which
    broadcast together.

    Returns the pairs scaled to |u|^2 - |v|^2 = 1.  At the first pair in C
    order that the constructor would reject it raises ValueError, or for a
    ``product`` NumericalError whose ``index`` is that pair's flat position.
    """
    uu, vv = abs(u) ** 2, abs(v) ** 2
    det = uu - vv
    k = ew.first_true((det <= 0.0) | (abs(det - 1.0) > SU_DEFECT_TOLERANCE * (uu + vv)))
    if k is not None:
        message = f"|u|^2-|v|^2 = {float(np.ravel(det)[k])!r} is not renormalizable to 1"
        if product:
            raise NumericalError(f"product of SU(1,1) maps: {message}", k)
        raise ValueError(message)
    scale = 1.0 / ew.sqrt(det)
    return u * scale, v * scale


def su_mul(x, y):
    """``x @ y`` on (u, v) pairs of numbers or arrays: the renormalized product."""
    return su_normalize(*_su_product(*x, *y), product=True)


def su_inverse(x):
    """``x.inverse()`` on a (u, v) pair of numbers or arrays."""
    return su_normalize(x[0].conjugate(), -x[1])


def su_sign_flip(u, v):
    """Whether the canonical-sign rule negates (u, v): the first of (Re u, Im u,
    Re v, Im v) with |c| > _SIGN_EPS is negative; elementwise, as numpy bools."""
    flip = decided = np.zeros(np.shape(u), bool)
    for c in (np.real(u), np.imag(u), np.real(v), np.imag(v)):
        big = ~decided & (abs(c) > _SIGN_EPS)
        flip, decided = flip | (big & (c < 0.0)), decided | big
    return flip


def su_gap(x, y):
    """Sup-norm distance between (u, v) pairs, minimized over the global sign; elementwise."""
    (u1, v1), (u2, v2) = x, y
    plus = ew.maximum(abs(u1 - u2), abs(v1 - v2))
    return ew.minimum(plus, ew.maximum(abs(u1 + u2), abs(v1 + v2)))


@dataclass(frozen=True)
class MobiusTransform:
    """SU(1,1) matrix [[u, v], [conj(v), conj(u)]] acting on the disk.

    Construction is su_normalize: it renormalizes |u|^2 - |v|^2 to exactly 1
    when its defect is below SU_DEFECT_TOLERANCE * (|u|^2 + |v|^2) and rejects
    the pair otherwise, with ValueError; a product of two maps (su_mul) raises
    NumericalError instead.
    """

    u: complex
    v: complex

    def __post_init__(self):
        u, v = su_normalize(complex(self.u), complex(self.v))
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @classmethod
    def _normalized(cls, u: complex, v: complex) -> "MobiusTransform":
        # a pair already at |u|^2 - |v|^2 = 1 (from su_normalize, or a negated
        # map): the constructor's test and scaling would only add rounding
        t = object.__new__(cls)
        object.__setattr__(t, "u", complex(u))
        object.__setattr__(t, "v", complex(v))
        return t

    @classmethod
    def identity(cls) -> "MobiusTransform":
        return cls(1.0 + 0.0j, 0.0j)

    def __call__(self, z: complex) -> complex:
        return su_act(self.u, self.v, _require_in_disk(complex(z)))

    def __matmul__(self, other: "MobiusTransform") -> "MobiusTransform":
        return MobiusTransform._normalized(*su_mul((self.u, self.v), (other.u, other.v)))

    def inverse(self) -> "MobiusTransform":
        return MobiusTransform._normalized(*su_inverse((self.u, self.v)))

    @property
    def trace(self) -> float:
        return 2.0 * self.u.real

    def classify(self) -> str:
        """elliptic / parabolic / hyperbolic by |Tr| vs 2 (band 1e-9)."""
        t = abs(self.trace)
        if abs(t - 2.0) <= PARABOLIC_BAND:
            return "parabolic"
        return "hyperbolic" if t > 2.0 else "elliptic"

    def canonical(self) -> "MobiusTransform":
        """Sign representative by su_sign_flip: first nonzero of (Re u, Im u, Re v, Im v) > 0.

        Negation is exact, so the negated pair skips the constructor's test
        and renormalization, which could reject it or move it by rounding.
        """
        if su_sign_flip(self.u, self.v):
            return MobiusTransform._normalized(-self.u, -self.v)
        return self


def projective_gap(a: MobiusTransform, b: MobiusTransform) -> float:
    """Sup-norm distance between (u,v) pairs, minimized over the global sign."""
    return float(su_gap((a.u, a.v), (b.u, b.v)))


def rotation(phi: float) -> MobiusTransform:
    """R_phi = diag(e^{i phi/2}, e^{-i phi/2}); acts as z -> e^{i phi} z."""
    return MobiusTransform(cmath.exp(0.5j * phi), 0.0j)


def translation_pair(p):
    """(u, v) of H(p) = -1/(1-|p|^2) [[1+|p|^2, 2p], [2 conj(p), 1+|p|^2]]; array-safe."""
    scale = -1.0 / (1.0 - abs(p) ** 2)
    return scale * (1.0 + abs(p) ** 2), scale * 2.0 * p


def translation(p: complex) -> MobiusTransform:
    """H(p), the map of translation_pair.

    Acts as the half turn about the origin followed by the half turn about
    p, so H(p)[-p] = p; a hyperbolic translation for p != 0.
    """
    return MobiusTransform(*translation_pair(_require_in_disk(complex(p))))


def half_turn_pair(omega):
    """(u, v) of M(omega) = i/sqrt(1-|omega|^2) [[1, -omega], [conj(omega), -1]]; array-safe."""
    scale = 1j / ew.sqrt(1.0 - abs(omega) ** 2)
    return scale, -scale * omega


def m_half_turn(omega: complex) -> MobiusTransform:
    """M(omega), the map of half_turn_pair.

    Trace-zero (a half turn about the disk point mapped from omega);
    M(omega)^2 = -identity.
    """
    return MobiusTransform(*half_turn_pair(_require_in_disk(complex(omega))))
