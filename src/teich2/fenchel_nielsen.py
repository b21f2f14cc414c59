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
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StepTooLargeError
from .group import m_matrices
from .octagon import OctagonParams, build_geometry

__all__ = [
    "ACOSH_CLAMP",
    "FD_STEP",
    "PantsData",
    "LTReport",
    "WolpertCheck",
    "fn_lengths",
    "fn_twists",
    "trace_params",
    "d_closed",
    "pants_data",
    "dt_residuals",
    "lt_relations_check",
    "wp_coefficient",
    "wp_coefficient_raw",
    "wp_fd_check",
]

# arccosh arguments may dip below 1 by roundoff at symmetric points
ACOSH_CLAMP = 1e-12

# central-difference step for the Wolpert form check
FD_STEP = 1e-5


def _acosh_guarded(x: float, what: str) -> float:
    if x < 1.0 - ACOSH_CLAMP:
        raise DomainError(f"arccosh argument for {what} is {x!r} < 1")
    return math.acosh(max(x, 1.0))


def fn_lengths(params: OctagonParams) -> tuple[float, float, float]:
    """Geodesic lengths (l1, l2, l3) of the pants curves, l1 = l2."""
    a = params.a
    l12 = 2.0 * _acosh_guarded(a * a / (1.0 - a * a), "l1")
    l3 = 2.0 * math.log((1.0 + a) / (1.0 - a))
    return (l12, l12, l3)


def fn_twists(params: OctagonParams) -> tuple[float, float, float]:
    """Signed twists (tau1, tau2, tau3); tau1 = tau2, tau3 = l3 / 2.

    The magnitude of tau1 is arccosh((2a^2-1)/(a^2(1-b^2)) - 1) and its sign
    is the sign of alpha_tilde, vanishing on the symmetric locus.
    """
    a, b = params.a, params.b
    arg = (2.0 * a * a - 1.0) / (a * a * (1.0 - b * b)) - 1.0
    t12 = math.copysign(_acosh_guarded(arg, "tau1"), params.alpha_tilde)
    if params.alpha_tilde == 0.0:
        t12 = 0.0
    t3 = math.log((1.0 + a) / (1.0 - a))
    return (t12, t12, t3)


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
    """Closed forms of d_k: d1 = d2 = 4/((1-a^2)(1-b^2)) - 1, d3 = 2/(1-a^2)^2 - 1."""
    a, b = params.a, params.b
    d12 = 4.0 / ((1.0 - a * a) * (1.0 - b * b)) - 1.0
    return (d12, d12, 2.0 / (1.0 - a * a) ** 2 - 1.0)


@dataclass(frozen=True)
class PantsData:
    """Full Fenchel-Nielsen record of one pants decomposition.

    ``primed`` marks the image decomposition; its numbers are those of the
    unprimed record evaluated at the conjugate parameters (b, -alpha_tilde).
    """

    lengths: tuple[float, float, float]
    twists: tuple[float, float, float]
    c: tuple[float, float, float]
    d: tuple[float, float, float]
    p_aux: float
    primed: bool = False


def pants_data(params: OctagonParams, primed: bool = False) -> PantsData:
    """Assemble lengths, twists and trace parameters for one decomposition."""
    at = params.conjugate() if primed else params
    c, d = trace_params(at)
    p_aux = c[0] ** 2 + c[1] ** 2 + c[2] ** 2 + 2.0 * c[0] * c[1] * c[2] - 1.0
    return PantsData(fn_lengths(at), fn_twists(at), c, d, p_aux, primed)


def dt_residuals(data: PantsData) -> tuple[float, float, float]:
    """Residuals of d_k = p_aux/(c_k^2 - 1) * (1 + cosh tau_k) - 1.

    Each is |d_k - rhs_k| / max(1, |rhs_k|): d_k grows without bound near the
    domain boundary, so the identity is judged relatively there.
    """
    out = []
    for k in range(3):
        rhs = data.p_aux / (data.c[k] ** 2 - 1.0) * (1.0 + math.cosh(data.twists[k])) - 1.0
        out.append(abs(data.d[k] - rhs) / max(1.0, abs(rhs)))
    return tuple(out)


@dataclass(frozen=True)
class LTReport:
    """Residuals of the relations among L = cosh(l/2) and T = cosh(tau/2)."""

    l1: float
    t1: float
    l1_primed: float
    t1_primed: float
    residual_l3: float
    residual_tau3: float
    residual_l1_primed: float
    residual_t1_primed: float

    @property
    def max_residual(self) -> float:
        return max(
            abs(self.residual_l3),
            abs(self.residual_tau3),
            abs(self.residual_l1_primed),
            abs(self.residual_t1_primed),
        )


def lt_relations_check(params: OctagonParams) -> LTReport:
    """Check L3 = 2 L1 + 1, tau3 = l3/2, and the primed L'1, T'1 relations.

    L and T denote cosh of half-lengths and half-twists; the primed pair is
    computed from the conjugate parameters and compared against the rational
    expressions in the unprimed (L1, T1).
    """
    lengths = fn_lengths(params)
    twists = fn_twists(params)
    l1 = math.cosh(0.5 * lengths[0])
    l3 = math.cosh(0.5 * lengths[2])
    t1 = math.cosh(0.5 * twists[0])
    primed = params.conjugate()
    lengths_p = fn_lengths(primed)
    twists_p = fn_twists(primed)
    l1p = math.cosh(0.5 * lengths_p[0])
    t1p = math.cosh(0.5 * twists_p[0])
    lhs_l1p = t1 * t1 * 2.0 * l1 / (l1 - 1.0) - 1.0
    num = l1 * l1 * t1 * t1 + l1 * t1 * t1 - l1 * l1 + 1.0
    den = 2.0 * l1 * t1 * t1 - l1 + 1.0
    lhs_t1p = math.sqrt(num / den)
    return LTReport(
        l1=l1,
        t1=t1,
        l1_primed=l1p,
        t1_primed=t1p,
        residual_l3=l3 - (2.0 * l1 + 1.0),
        residual_tau3=twists[2] - 0.5 * lengths[2],
        residual_l1_primed=l1p - lhs_l1p,
        residual_t1_primed=t1p - lhs_t1p,
    )


def wp_coefficient_raw(a, alpha_tilde):
    """Array-safe Weil-Petersson density 8a/((1-a^2)(2a^2 cos^2(at) - 1))."""
    a = np.asarray(a, dtype=float)
    at = np.asarray(alpha_tilde, dtype=float)
    out = 8.0 * a / ((1.0 - a * a) * (2.0 * a * a * np.cos(at) ** 2 - 1.0))
    if out.ndim == 0:
        return float(out)
    return out


def wp_coefficient(params: OctagonParams) -> float:
    """Coefficient of da ^ dalpha_tilde in the Weil-Petersson form."""
    return wp_coefficient_raw(params.a, params.alpha_tilde)


@dataclass(frozen=True)
class WolpertCheck:
    """Finite-difference value of 1/2 sum_k dl_k ^ dtau_k and its summands."""

    value: float
    summands: tuple[float, float, float]
    step: float
    primed: bool


def wp_fd_check(
    params: OctagonParams, h: float = FD_STEP, primed: bool = False
) -> WolpertCheck:
    """Evaluate Wolpert's form by central differences of the closed-form
    lengths and twists in (a, alpha_tilde).

    Returns the sum 1/2 sum_k [da l_k dat tau_k - dat l_k da tau_k] together
    with the individual summands; the k = 3 summand must vanish because l3
    and tau3 depend on a alone.  Raises StepTooLargeError when any of the
    four shifted evaluations leaves the admissible domain.
    """
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h!r}")
    a0, at0 = params.a, params.alpha_tilde

    def eval_at(a: float, at: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
        try:
            q = OctagonParams(a, at)
        except DomainError as exc:
            raise StepTooLargeError(
                f"step {h!r} leaves the domain at ({a!r}, {at!r})"
            ) from exc
        if primed:
            q = q.conjugate()
        return fn_lengths(q), fn_twists(q)

    l_a_plus, tau_a_plus = eval_at(a0 + h, at0)
    l_a_minus, tau_a_minus = eval_at(a0 - h, at0)
    l_t_plus, tau_t_plus = eval_at(a0, at0 + h)
    l_t_minus, tau_t_minus = eval_at(a0, at0 - h)
    summands = []
    for k in range(3):
        dl_da = (l_a_plus[k] - l_a_minus[k]) / (2.0 * h)
        dl_dat = (l_t_plus[k] - l_t_minus[k]) / (2.0 * h)
        dtau_da = (tau_a_plus[k] - tau_a_minus[k]) / (2.0 * h)
        dtau_dat = (tau_t_plus[k] - tau_t_minus[k]) / (2.0 * h)
        summands.append(0.5 * (dl_da * dtau_dat - dl_dat * dtau_da))
    return WolpertCheck(sum(summands), tuple(summands), h, primed)
