"""Poincare-disk primitives: distance, geodesic arcs, SU(1,1) Mobius maps.

The model is the open unit disk |z| < 1 carrying the metric
4(dx^2+dy^2)/(1-x^2-y^2)^2 of curvature -1.  Orientation-preserving
isometries act as z -> (u z + v)/(conj(v) z + conj(u)) with
|u|^2 - |v|^2 = 1; the pair (u, v) and its negative give the same map,
so group equality is always taken up to global sign.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import NumericalError

__all__ = [
    "GeodesicArc",
    "MobiusTransform",
    "dist",
    "translation",
    "m_half_turn",
    "rotation",
    "projective_gap",
]

# constructors reject SU(1,1) pairs with |det - 1| above this times |u|^2+|v|^2
SU_DEFECT_TOLERANCE = 1e-9
# |Tr| within this band of 2 classifies as parabolic
PARABOLIC_BAND = 1e-9
# components below this are treated as zero by the canonical-sign rule
_SIGN_EPS = 1e-9


def _require_in_disk(z: complex) -> complex:
    if abs(z) >= 1.0:
        raise ValueError(f"point {z!r} is not strictly inside the unit disk")
    return z


def dist(z: complex, w: complex) -> float:
    """Hyperbolic distance arccosh(1 + 2|z-w|^2 / ((1-|z|^2)(1-|w|^2)))."""
    zc = _require_in_disk(complex(z))
    wc = _require_in_disk(complex(w))
    num = 2.0 * abs(zc - wc) ** 2
    den = (1.0 - abs(zc) ** 2) * (1.0 - abs(wc) ** 2)
    return math.acosh(1.0 + num / den)


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
        return math.sqrt(1.0 + self.radius**2) * cmath.exp(1j * self.phi)

    def point(self, s: float) -> complex:
        """Unit-speed point at arc length s from the point nearest the origin.

        Evaluates (cosh s + i R sinh s) / (sqrt(1+R^2) cosh s + R) * e^{i phi},
        which traces the circle of radius R about sqrt(1+R^2) e^{i phi}.
        """
        r = self.radius
        ch, sh = math.cosh(s), math.sinh(s)
        w = (ch + 1j * r * sh) / (math.sqrt(1.0 + r * r) * ch + r)
        return w * cmath.exp(1j * self.phi)


@dataclass(frozen=True)
class MobiusTransform:
    """SU(1,1) matrix [[u, v], [conj(v), conj(u)]] acting on the disk.

    Construction renormalizes |u|^2 - |v|^2 to exactly 1 when its defect is
    below SU_DEFECT_TOLERANCE * (|u|^2 + |v|^2) and rejects the pair otherwise,
    with ValueError; a product of two maps raises NumericalError instead.
    """

    u: complex
    v: complex

    def __post_init__(self):
        u, v = complex(self.u), complex(self.v)
        uu, vv = abs(u) ** 2, abs(v) ** 2
        det = uu - vv
        if det <= 0.0 or abs(det - 1.0) > SU_DEFECT_TOLERANCE * (uu + vv):
            raise ValueError(f"|u|^2-|v|^2 = {det!r} is not renormalizable to 1")
        scale = 1.0 / math.sqrt(det)
        object.__setattr__(self, "u", u * scale)
        object.__setattr__(self, "v", v * scale)

    @classmethod
    def identity(cls) -> "MobiusTransform":
        return cls(1.0 + 0.0j, 0.0j)

    def __call__(self, z: complex) -> complex:
        zc = _require_in_disk(complex(z))
        return (self.u * zc + self.v) / (self.v.conjugate() * zc + self.u.conjugate())

    def __matmul__(self, other: "MobiusTransform") -> "MobiusTransform":
        try:
            return MobiusTransform(
                self.u * other.u + self.v * other.v.conjugate(),
                self.u * other.v + self.v * other.u.conjugate(),
            )
        except ValueError as exc:  # both factors are valid: a rounding breakdown
            raise NumericalError(f"product of SU(1,1) maps: {exc}") from None

    def inverse(self) -> "MobiusTransform":
        return MobiusTransform(self.u.conjugate(), -self.v)

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
        """Sign representative: first nonzero of (Re u, Im u, Re v, Im v) > 0."""
        for c in (self.u.real, self.u.imag, self.v.real, self.v.imag):
            if abs(c) > _SIGN_EPS:
                if c < 0.0:
                    return MobiusTransform(-self.u, -self.v)
                return self
        return self


def projective_gap(a: MobiusTransform, b: MobiusTransform) -> float:
    """Sup-norm distance between (u,v) pairs, minimized over the global sign."""
    plus = max(abs(a.u - b.u), abs(a.v - b.v))
    minus = max(abs(a.u + b.u), abs(a.v + b.v))
    return min(plus, minus)


def rotation(phi: float) -> MobiusTransform:
    """R_phi = diag(e^{i phi/2}, e^{-i phi/2}); acts as z -> e^{i phi} z."""
    return MobiusTransform(cmath.exp(0.5j * phi), 0.0j)


def translation(p: complex) -> MobiusTransform:
    """H(p) = -1/(1-|p|^2) [[1+|p|^2, 2p], [2 conj(p), 1+|p|^2]].

    Acts as the half turn about the origin followed by the half turn about
    p, so H(p)[-p] = p; a hyperbolic translation for p != 0.
    """
    pc = _require_in_disk(complex(p))
    scale = -1.0 / (1.0 - abs(pc) ** 2)
    return MobiusTransform(scale * (1.0 + abs(pc) ** 2), scale * 2.0 * pc)


def m_half_turn(omega: complex) -> MobiusTransform:
    """M(omega) = i/sqrt(1-|omega|^2) [[1, -omega], [conj(omega), -1]].

    Trace-zero (a half turn about the disk point mapped from omega);
    M(omega)^2 = -identity.
    """
    oc = _require_in_disk(complex(omega))
    scale = 1j / math.sqrt(1.0 - abs(oc) ** 2)
    return MobiusTransform(scale, -scale * oc)
