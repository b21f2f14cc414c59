"""Poincare-disk primitives: distance and SU(1,1) maps.

The model is the open unit disk |z| < 1 carrying the metric
4(dx^2+dy^2)/(1-x^2-y^2)^2 of curvature -1.  Orientation-preserving
isometries act as z -> (u z + v)/(conj(v) z + conj(u)) with
|u|^2 - |v|^2 = 1; the pair (u, v) and its negative give the same map,
so group equality is always taken up to global sign.

The formulas for the action, the product and the breakdown test are
written once, elementwise, in ``su_mul``, ``su_inverse``, ``su_act`` and
``su_check`` over (u, v) pairs of numbers or of numpy arrays, one map per
element: a group element is its pair.  No pair, a product included, is
rescaled to |u|^2 - |v|^2 = 1: that difference cancels, so a rescale would
add error of order eps (|u|^2 + |v|^2).  ``su_check`` tests for a breakdown
where products are multiplied further and kept, in ``group.ball``.
``MobiusTransform`` is the record of one pair that ``rotation`` returns;
the octagon's half turns are ``group.half_turns``, from the forms' scales.
Numbers are multiplied in CPython's complex arithmetic and arrays in
numpy's complex loops, which may fuse multiply-adds depending on the CPU, so
a product or an image computed over arrays can differ from the one computed
one pair at a time by a relative amount of order eps (|u|^2 + |v|^2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import _elementwise as ew
from .errors import NumericalError

__all__ = [
    "MobiusTransform",
    "dist",
    "translation_pair",
    "rotation",
    "su_check",
    "su_mul",
    "su_inverse",
    "su_gap",
    "su_act",
]

# su_check rejects pairs with |det - 1| above this times |u|^2+|v|^2
SU_DEFECT_TOLERANCE = 1e-9


def _require_in_disk(z):
    """|z| by ew.modulus, after a ValueError naming the first point (C order)
    with |z| >= 1: an array point is refused, and measured, as its number is."""
    modulus = ew.modulus(z)
    found = ew.first_true(modulus >= 1.0, z)
    if found is not None:
        raise ValueError(f"point {found[1][0]!r} is not strictly inside the unit disk")
    return modulus


def dist(z, w):
    """Hyperbolic distance arccosh(1 + 2|z-w|^2 / ((1-|z|^2)(1-|w|^2))).

    Elementwise on arrays, which broadcast together; a float for two points.
    Every modulus is ew.modulus, so a point that passes the disk test has
    1 - |z|^2 > 0 on arrays as on numbers.
    """
    return _dist(z, w, _require_in_disk(z), _require_in_disk(w))


def _dist(z, w, z_modulus, w_modulus):
    """dist's formula, given the ew.modulus of z and of w, both below 1."""
    den = (1.0 - z_modulus ** 2) * (1.0 - w_modulus ** 2)
    return ew.arccosh(1.0 + 2.0 * ew.modulus(z - w) ** 2 / den)


def su_act(u, v, z):
    """The image (u z + v)/(conj(v) z + conj(u)) of z under the pair (u, v); elementwise."""
    return (u * z + v) / (v.conjugate() * z + u.conjugate())


def su_check(u, v):
    """|u|^2 + |v|^2 of (u, v) pairs of numbers or arrays, which broadcast
    together, after testing them for a breakdown; no pair is changed.

    Raises NumericalError at the first pair in C order whose |u|^2 - |v|^2
    is not a finite positive number within SU_DEFECT_TOLERANCE (|u|^2 + |v|^2)
    of 1, NaN included; its ``index`` is that pair's flat position.
    """
    uu, vv = abs(u) ** 2, abs(v) ** 2
    det, size = uu - vv, uu + vv
    ok = (det > 0.0) & (det < math.inf) & (abs(det - 1.0) <= SU_DEFECT_TOLERANCE * size)
    found = ew.first_true(ew.where(ok, False, True), det)
    if found is not None:
        k, (det_k,) = found
        raise NumericalError(f"SU(1,1) pair: |u|^2-|v|^2 = {det_k!r} has drifted from 1", k)
    return size


def su_mul(x, y):
    """The product x y of (u, v) pairs of numbers or arrays, as computed:
    (u1 u2 + v1 conj(v2), u1 v2 + v1 conj(u2)), elementwise."""
    (u1, v1), (u2, v2) = x, y
    return u1 * u2 + v1 * v2.conjugate(), u1 * v2 + v1 * u2.conjugate()


def su_inverse(x):
    """The inverse (conj(u), -v) of a (u, v) pair of numbers or arrays; its
    |u|^2 - |v|^2 is the pair's own, bit for bit."""
    return x[0].conjugate(), -x[1]


def su_gap(x, y):
    """Sup-norm distance between (u, v) pairs, minimized over the global sign; elementwise."""
    (u1, v1), (u2, v2) = x, y
    plus = ew.maximum(abs(u1 - u2), abs(v1 - v2))
    return ew.minimum(plus, ew.maximum(abs(u1 + u2), abs(v1 + v2)))


@dataclass(frozen=True)
class MobiusTransform:
    """SU(1,1) matrix [[u, v], [conj(v), conj(u)]]: one (u, v) pair as a record.

    Construction is su_check: the pair is stored as given, and rejected with
    NumericalError where its |u|^2 - |v|^2 is not 1 within
    SU_DEFECT_TOLERANCE * (|u|^2 + |v|^2).
    """

    u: complex
    v: complex

    def __post_init__(self):
        su_check(self.u, self.v)


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
