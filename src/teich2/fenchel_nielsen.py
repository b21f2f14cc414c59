"""Fenchel-Nielsen data of the genus-2 surface: pants lengths, twists,
trace parameters, the primed decomposition, and the Weil-Petersson form.

The surface carries a pants decomposition along three disjoint simple closed
geodesics with lengths ``l1 = l2`` and ``l3`` and twists ``tau1 = tau2`` and
``tau3``.  Lengths and twists are available in closed form; the trace
parameters ``c_k`` and ``d_k`` are defined through products of the half-turn
matrices and tie the two routes together:

    c_k = cosh(l_k / 2),
    d_k = p_aux / (c_k^2 - 1) * (1 + cosh tau_k) - 1,

with ``p_aux = c1^2 + c2^2 + c3^2 + 2 c1 c2 c3 - 1``.

Twists are signed by ``sgn(alpha_tilde)`` so that Wolpert's expression
``1/2 sum_k dl_k ^ dtau_k`` reproduces the closed-form coefficient of
``da ^ dalpha_tilde`` with a plus sign on the whole domain.  The primed
decomposition is the evaluation at the conjugate parameters ``(b, -at)``,
which automatically carries the opposite twist sign.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .group import m_matrices
from .octagon import OctagonParams, b_of, build_geometry

__all__ = [
    "PantsData",
    "LTReport",
    "fn_lengths",
    "fn_twists",
    "trace_params",
    "d_closed",
    "pants_data",
    "dt_residuals",
    "lt_relations_check",
    "wp_coefficient",
    "wp_coefficient_raw",
    "wolpert_summands",
]


def _fn_forms(a, alpha_tilde):
    """Closed-form (l1, l3, tau1, tau3); l2 = l1 and tau2 = tau1.

    Accepts floats, complex numbers and arrays.  The forms are analytic on
    the domain and free of cancellation: l1 = 2 arccosh(a^2/(1-a^2)) and
    cosh tau1 - 1 = 2 sin^2(at) / (2a^2 cos^2(at) - 1) are taken through
    arccosh x = 2 asinh sqrt((x - 1)/2), with 1 - a^2 as (1 - a)(1 + a).
    """
    q = 2.0 * a * a * np.cos(alpha_tilde) ** 2 - 1.0
    l1 = 4.0 * np.arcsinh(np.sqrt((2.0 * a * a - 1.0) / (2.0 * (1.0 - a) * (1.0 + a))))
    # + 0.0 turns the -0.0 of the conjugate of alpha_tilde = 0 into 0.0
    tau1 = 2.0 * np.arcsinh(np.sin(alpha_tilde) / np.sqrt(q)) + 0.0
    tau3 = np.log((1.0 + a) / (1.0 - a))
    return l1, 2.0 * tau3, tau1, tau3


def _fn_data(params: OctagonParams):
    # (lengths, twists) as plain floats, which repr without numpy's wrapper
    l1, l3, tau1, tau3 = map(float, _fn_forms(params.a, params.alpha_tilde))
    return (l1, l1, l3), (tau1, tau1, tau3)


def fn_lengths(params: OctagonParams) -> tuple[float, float, float]:
    """Geodesic lengths (l1, l2, l3) of the pants curves, l1 = l2."""
    return _fn_data(params)[0]


def fn_twists(params: OctagonParams) -> tuple[float, float, float]:
    """Signed twists (tau1, tau2, tau3); tau1 = tau2, tau3 = l3 / 2.

    tau1 = 2 asinh(sin(at) / sqrt(2a^2 cos^2(at) - 1)) carries the sign of
    alpha_tilde and vanishes on the symmetric locus.
    """
    return _fn_data(params)[1]


def trace_params(
    params: OctagonParams,
) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """Trace parameters ((c1,c2,c3), (d1,d2,d3)) from half-turn products.

    c_k are minus half-traces of M0 M1, M2 M3, M4 M5; d_k are half of the
    squared traces of M0 M4 M5, M2 M1 M0, M5 M3 M2, each minus one.
    """
    m = m_matrices(build_geometry(params))
    c = (
        -0.5 * (m[0] @ m[1]).trace,
        -0.5 * (m[2] @ m[3]).trace,
        -0.5 * (m[4] @ m[5]).trace,
    )
    d = (
        0.5 * (m[0] @ m[4] @ m[5]).trace ** 2 - 1.0,
        0.5 * (m[2] @ m[1] @ m[0]).trace ** 2 - 1.0,
        0.5 * (m[5] @ m[3] @ m[2]).trace ** 2 - 1.0,
    )
    return c, d


def d_closed(params: OctagonParams) -> tuple[float, float, float]:
    """Closed forms of d_k: d1 = d2 = 4/((1-a^2)(1-b^2)) - 1, d3 = 2/(1-a^2)^2 - 1.

    1 - b^2 is taken as (2a^2 cos^2(at) - 1)/(2a^2 cos^2(at)) and 1 - a^2 as
    (1 - a)(1 + a), which do not cancel near b = 1 or a = 1.
    """
    a = params.a
    two_a2c2 = 2.0 * a * a * math.cos(params.alpha_tilde) ** 2
    one_minus_a2 = (1.0 - a) * (1.0 + a)
    d12 = 4.0 * two_a2c2 / (one_minus_a2 * (two_a2c2 - 1.0)) - 1.0
    return (d12, d12, 2.0 / one_minus_a2**2 - 1.0)


@dataclass(frozen=True)
class PantsData:
    """Full Fenchel-Nielsen record of one pants decomposition."""

    lengths: tuple[float, float, float]
    twists: tuple[float, float, float]
    c: tuple[float, float, float]
    d: tuple[float, float, float]
    p_aux: float


def pants_data(params: OctagonParams) -> PantsData:
    """Assemble lengths, twists and trace parameters for one decomposition.

    The primed decomposition is ``pants_data(params.conjugate())``.
    """
    c, d = trace_params(params)
    p_aux = c[0] ** 2 + c[1] ** 2 + c[2] ** 2 + 2.0 * c[0] * c[1] * c[2] - 1.0
    return PantsData(*_fn_data(params), c, d, p_aux)


def _rel(x: float, ref: float) -> float:
    """Signed residual (x - ref) / max(1, |ref|), at the scale of the quantity."""
    return (x - ref) / max(1.0, abs(ref))


def dt_residuals(data: PantsData) -> tuple[float, float, float]:
    """Residuals of d_k = p_aux/(c_k^2 - 1) * (1 + cosh tau_k) - 1.

    Each is |d_k - rhs_k| / max(1, |rhs_k|): d_k grows without bound near the
    domain boundary, so the identity is judged relatively there.
    """
    return tuple(
        abs(_rel(d, data.p_aux / (c**2 - 1.0) * (1.0 + math.cosh(tau)) - 1.0))
        for c, d, tau in zip(data.c, data.d, data.twists)
    )


@dataclass(frozen=True)
class LTReport:
    """Residuals of the relations among L = cosh(l/2) and T = cosh(tau/2)."""

    residual_l3: float
    residual_tau3: float
    residual_l1_primed: float
    residual_t1_primed: float

    @property
    def max_residual(self) -> float:
        return max(map(abs, astuple(self)))


def lt_relations_check(params: OctagonParams) -> LTReport:
    """Check L3 = 2 L1 + 1, tau3 = l3/2, and the primed L'1, T'1 relations.

    L and T denote cosh of half-lengths and half-twists; the primed pair is
    computed from the conjugate parameters and compared against the rational
    expressions in the unprimed (L1, T1).  Residuals are relative, as in
    dt_residuals: L'1 grows without bound near the domain boundary.
    """
    lengths, twists = _fn_data(params)
    l1 = math.cosh(0.5 * lengths[0])
    l3 = math.cosh(0.5 * lengths[2])
    t1 = math.cosh(0.5 * twists[0])
    primed = params.conjugate()
    lengths_p, twists_p = _fn_data(primed)
    l1p = math.cosh(0.5 * lengths_p[0])
    t1p = math.cosh(0.5 * twists_p[0])
    lhs_l1p = t1 * t1 * 2.0 * l1 / (l1 - 1.0) - 1.0
    num = l1 * l1 * t1 * t1 + l1 * t1 * t1 - l1 * l1 + 1.0
    den = 2.0 * l1 * t1 * t1 - l1 + 1.0
    lhs_t1p = math.sqrt(num / den)
    return LTReport(
        residual_l3=_rel(l3, 2.0 * l1 + 1.0),
        residual_tau3=_rel(twists[2], 0.5 * lengths[2]),
        residual_l1_primed=_rel(l1p, lhs_l1p),
        residual_t1_primed=_rel(t1p, lhs_t1p),
    )


def wp_coefficient_raw(a, alpha_tilde):
    """Array-safe Weil-Petersson density 8a/((1-a)(1+a)(2a^2 cos^2(at) - 1))."""
    a = np.asarray(a, dtype=float)
    at = np.asarray(alpha_tilde, dtype=float)
    out = 8.0 * a / ((1.0 - a) * (1.0 + a) * (2.0 * a * a * np.cos(at) ** 2 - 1.0))
    if out.ndim == 0:
        return float(out)
    return out


def wp_coefficient(params: OctagonParams) -> float:
    """Coefficient of da ^ dalpha_tilde in the Weil-Petersson form."""
    return wp_coefficient_raw(params.a, params.alpha_tilde)


def wolpert_summands(
    params: OctagonParams, primed: bool = False
) -> tuple[float, float, float]:
    """Summands 1/2 [d_a l_k d_at tau_k - d_at l_k d_a tau_k], k = 1, 2, 3, of
    Wolpert's form 1/2 sum_k dl_k ^ dtau_k in (a, alpha_tilde).

    Their sum is the coefficient of da ^ dalpha_tilde and the k = 3 summand
    vanishes, because l3 and tau3 depend on a alone.  The derivatives are
    complex steps, f'(x) = Im f(x + ih) / h (Squire and Trapp, SIAM Rev. 40,
    1998): with no difference to cancel they are exact to rounding, and the
    step stays far inside the domain.  ``primed`` differentiates the forms of
    the conjugate decomposition at (b(a, at), -at).  The route is independent
    of ``wp_coefficient_raw``.
    """
    h = 1e-30
    a, at = params.a, params.alpha_tilde
    if primed:
        steps = (_fn_forms(b_of(a + 1j * h, at), -at),
                 _fn_forms(b_of(a, at + 1j * h), -at - 1j * h))
    else:
        steps = (_fn_forms(a + 1j * h, at), _fn_forms(a, at + 1j * h))
    (l1_a, l3_a, tau1_a, tau3_a), (l1_at, l3_at, tau1_at, tau3_at) = (
        [float(x.imag) / h for x in forms] for forms in steps
    )
    s1 = 0.5 * (l1_a * tau1_at - l1_at * tau1_a)
    return (s1, s1, 0.5 * (l3_a * tau3_at - l3_at * tau3_a))
