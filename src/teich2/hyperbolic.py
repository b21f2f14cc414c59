"""Poincare-disk primitives: distance, geodesic circle centres, SU(1,1) maps.

The model is the open unit disk |z| < 1 carrying the metric
4(dx^2+dy^2)/(1-x^2-y^2)^2 of curvature -1.  Orientation-preserving
isometries act as z -> (u z + v)/(conj(v) z + conj(u)) with
|u|^2 - |v|^2 = 1; the pair (u, v) and its negative give the same map,
so group equality is always taken up to global sign.

The formulas for the action, the product and the renormalization test are
written once, elementwise, in ``su_normalize``, ``su_mul``, ``su_inverse``
and ``su_act`` over (u, v) pairs of numbers or of numpy arrays, one map per
element: a group element is its pair.  Only a computed product is
renormalized.  A pair that is in SU(1,1) by construction, such as an
inverse, ``translation_pair`` or ``half_turn_pair``, is returned as
computed: rescaling it by 1/sqrt(|u|^2 - |v|^2) would add error of order
eps (|u|^2 + |v|^2) and remove none.
``MobiusTransform`` is the record of one pair that ``rotation`` returns.
Numbers are multiplied in CPython's complex arithmetic and arrays in
numpy's complex loops, which may fuse multiply-adds depending on the CPU, so
a product or an image computed over arrays can differ from the one computed
one pair at a time by a relative amount of order eps (|u|^2 + |v|^2).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import _elementwise as ew
from .errors import NumericalError

__all__ = [
    "MobiusTransform",
    "dist",
    "arc_center",
    "translation_pair",
    "half_turn_pair",
    "rotation",
    "classify",
    "su_normalize",
    "su_mul",
    "su_inverse",
    "su_gap",
    "su_act",
]

# su_normalize rejects products with |det - 1| above this times |u|^2+|v|^2
SU_DEFECT_TOLERANCE = 1e-9
# |Tr| within this band of 2 classifies as parabolic
PARABOLIC_BAND = 1e-9


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


def su_act(u, v, z):
    """The image (u z + v)/(conj(v) z + conj(u)) of z under the pair (u, v); elementwise."""
    return (u * z + v) / (v.conjugate() * z + u.conjugate())


def _su_product(u1, v1, u2, v2):
    """(u, v) of the matrix product of two SU(1,1) pairs; elementwise on arrays."""
    return u1 * u2 + v1 * v2.conjugate(), u1 * v2 + v1 * u2.conjugate()


def su_normalize(u, v):
    """Computed (u, v) products of numbers or arrays, which broadcast
    together, scaled to |u|^2 - |v|^2 = 1.

    Raises NumericalError at the first pair in C order whose |u|^2 - |v|^2
    is not a finite positive number within SU_DEFECT_TOLERANCE (|u|^2 + |v|^2)
    of 1, NaN included; its ``index`` is that pair's flat position.
    """
    uu, vv = abs(u) ** 2, abs(v) ** 2
    det = uu - vv
    ok = (det > 0.0) & (det < np.inf) & (abs(det - 1.0) <= SU_DEFECT_TOLERANCE * (uu + vv))
    k = ew.first_true(ew.where(ok, False, True))
    if k is not None:
        raise NumericalError(
            f"product of SU(1,1) maps: |u|^2-|v|^2 = {float(np.ravel(det)[k])!r} "
            "is not renormalizable to 1", k)
    scale = 1.0 / ew.sqrt(det)
    return u * scale, v * scale


def su_mul(x, y):
    """The product x y of (u, v) pairs of numbers or arrays, renormalized."""
    return su_normalize(*_su_product(*x, *y))


def su_inverse(x):
    """The inverse (conj(u), -v) of a (u, v) pair of numbers or arrays; its
    |u|^2 - |v|^2 is the pair's own, bit for bit."""
    return x[0].conjugate(), -x[1]


def su_gap(x, y):
    """Sup-norm distance between (u, v) pairs, minimized over the global sign; elementwise."""
    (u1, v1), (u2, v2) = x, y
    plus = ew.maximum(abs(u1 - u2), abs(v1 - v2))
    return ew.minimum(plus, ew.maximum(abs(u1 + u2), abs(v1 + v2)))


def classify(u) -> str:
    """elliptic / parabolic / hyperbolic by |Tr| = |2 Re u| of a pair against 2 (band 1e-9)."""
    t = abs(2.0 * u.real)
    if abs(t - 2.0) <= PARABOLIC_BAND:
        return "parabolic"
    return "hyperbolic" if t > 2.0 else "elliptic"


@dataclass(frozen=True)
class MobiusTransform:
    """SU(1,1) matrix [[u, v], [conj(v), conj(u)]]: one (u, v) pair as a record.

    Construction is su_normalize: it renormalizes |u|^2 - |v|^2 to exactly 1
    when its defect is below SU_DEFECT_TOLERANCE * (|u|^2 + |v|^2) and rejects
    the pair otherwise, with NumericalError.
    """

    u: complex
    v: complex

    def __post_init__(self):
        u, v = su_normalize(complex(self.u), complex(self.v))
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)


def rotation(phi: float) -> MobiusTransform:
    """R_phi = diag(e^{i phi/2}, e^{-i phi/2}); acts as z -> e^{i phi} z."""
    return MobiusTransform(cmath.exp(0.5j * phi), 0.0j)


def translation_pair(p):
    """(u, v) of H(p) = -1/(1-|p|^2) [[1+|p|^2, 2p], [2 conj(p), 1+|p|^2]]; array-safe.

    H(p) is the half turn about the origin followed by the half turn about
    p, so H(p)[-p] = p; a hyperbolic translation for p != 0.
    """
    scale = -1.0 / (1.0 - abs(p) ** 2)
    return scale * (1.0 + abs(p) ** 2), scale * 2.0 * p


def half_turn_pair(omega):
    """(u, v) of M(omega) = i/sqrt(1-|omega|^2) [[1, -omega], [conj(omega), -1]]; array-safe.

    M(omega) is the trace-zero half turn about the disk point
    omega / (1 + sqrt(1 - |omega|^2)), so M(omega)^2 = -identity.  NumericalError
    where 1 - |omega|^2 rounds to 0 or below, as for omega = 2a/(1 + a^2) near a = 1.
    """
    scale = 1j / ew.sqrt(ew.require_positive(1.0 - abs(omega) ** 2, "half turn: 1 - |omega|^2"))
    return scale, -scale * omega
