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

Every form is written once, elementwise over arrays (a, alpha_tilde) of
parameter points, and takes floats as well: ``pants_forms`` gives lengths,
twists and traces (from the caller's ``group.half_turns`` of the octagon),
``d_closed_forms`` the closed-form d_k, ``lt_forms`` the L/T relations,
``wp_coefficient_raw`` the closed-form WP coefficient and ``wolpert_forms``
Wolpert's summands.  One decomposition at one point is
``pants_forms(a, at, half_turns(octagon_forms(a, at)))``, and the primed one
is the same call at ``(b_of(a, at), -at)``, unchecked: where b rounds to 1
or past it, the forms divide by 0 or take the square root of a negative.
"""

from __future__ import annotations

from . import _elementwise as ew
from .hyperbolic import su_mul
from .octagon import b_of

__all__ = [
    "trace_forms",
    "d_closed_forms",
    "pants_forms",
    "dt_residuals",
    "lt_forms",
    "wp_coefficient_raw",
    "wolpert_forms",
]


def _fn_forms(a, alpha_tilde):
    """Closed-form (l1, l3, tau1, tau3); l2 = l1 and tau2 = tau1.

    Accepts floats, complex numbers and arrays.  The forms are analytic on
    the domain and free of cancellation: l1 = 2 arccosh(a^2/(1-a^2)) and
    cosh tau1 - 1 = 2 sin^2(at) / (2a^2 cos^2(at) - 1) are taken through
    arccosh x = 2 asinh sqrt((x - 1)/2), with 1 - a^2 as (1 - a)(1 + a).
    tau1 carries the sign of alpha_tilde and vanishes on the symmetric
    locus; tau3 = l3 / 2.
    """
    q = 2.0 * a * a * ew.cos(alpha_tilde) ** 2 - 1.0
    l1 = 4.0 * ew.arcsinh(ew.sqrt((2.0 * a * a - 1.0) / (2.0 * (1.0 - a) * (1.0 + a))))
    # + 0.0 turns the -0.0 of the conjugate of alpha_tilde = 0 into 0.0
    tau1 = 2.0 * ew.arcsinh(ew.sin(alpha_tilde) / ew.sqrt(q)) + 0.0
    tau3 = ew.log((1.0 + a) / (1.0 - a))
    return l1, 2.0 * tau3, tau1, tau3


def _trace(x):
    # trace 2 Re u of a (u, v) pair
    return 2.0 * x[0].real


def trace_forms(m):
    """Trace parameters ((c1,c2,c3), (d1,d2,d3)) from half turns m = half_turns(forms).

    c_k are minus half-traces of M0 M1, M2 M3, M4 M5; d_k are half of the
    squared traces of M0 M4 M5, M2 M1 M0, M5 M3 M2, each minus one.
    """
    c = tuple(-0.5 * _trace(su_mul(m[i], m[j])) for i, j in ((0, 1), (2, 3), (4, 5)))
    d = tuple(
        0.5 * _trace(su_mul(su_mul(m[i], m[j]), m[k])) ** 2 - 1.0
        for i, j, k in ((0, 4, 5), (2, 1, 0), (5, 3, 2))
    )
    return c, d


def d_closed_forms(a, alpha_tilde):
    """Closed forms of d_k: d1 = d2 = 4/((1-a^2)(1-b^2)) - 1, d3 = 2/(1-a^2)^2 - 1.

    1 - b^2 is taken as (2a^2 cos^2(at) - 1)/(2a^2 cos^2(at)) and 1 - a^2 as
    (1 - a)(1 + a), which do not cancel near b = 1 or a = 1.  Elementwise.
    """
    two_a2c2 = 2.0 * a * a * ew.cos(alpha_tilde) ** 2
    one_minus_a2 = (1.0 - a) * (1.0 + a)
    d12 = 4.0 * two_a2c2 / (one_minus_a2 * (two_a2c2 - 1.0)) - 1.0
    return (d12, d12, 2.0 / one_minus_a2**2 - 1.0)


def pants_forms(a, alpha_tilde, m):
    """(lengths, twists, c, d, p_aux) of one decomposition, elementwise: the
    lengths (l1, l2, l3), twists (tau1, tau2, tau3) and trace parameters
    (c1, c2, c3), (d1, d2, d3) from m, the half_turns of the octagon."""
    l1, l3, tau1, tau3 = _fn_forms(a, alpha_tilde)
    c, d = trace_forms(m)
    p_aux = c[0] ** 2 + c[1] ** 2 + c[2] ** 2 + 2.0 * c[0] * c[1] * c[2] - 1.0
    return (l1, l1, l3), (tau1, tau1, tau3), c, d, p_aux


def _rel(x, ref):
    """Signed residual (x - ref) / max(1, |ref|), at the scale of the quantity; elementwise."""
    return (x - ref) / ew.maximum(1.0, abs(ref))


def dt_residuals(pants) -> tuple[float, float, float]:
    """Residuals of d_k = p_aux/(c_k^2 - 1) * (1 + cosh tau_k) - 1, given
    pants = pants_forms(...).

    Each is |d_k - rhs_k| / max(1, |rhs_k|): d_k grows without bound near the
    domain boundary, so the identity is judged relatively there.  Elementwise
    for forms of arrays; floats for forms of floats.
    """
    _, twists, c, d, p_aux = pants
    return tuple(
        abs(_rel(d_k, p_aux / (c_k**2 - 1.0) * (1.0 + ew.cosh(tau)) - 1.0))
        for c_k, d_k, tau in zip(c, d, twists)
    )


def lt_forms(a, alpha_tilde):
    """Check L3 = 2 L1 + 1, tau3 = l3/2, and the primed L'1, T'1 relations.

    L and T denote cosh of half-lengths and half-twists; the primed pair is
    computed from the conjugate parameters and compared against the rational
    expressions in the unprimed (L1, T1).  Residuals are relative, as in
    dt_residuals: L'1 grows without bound near the domain boundary.  Returns
    the signed (residual_l3, residual_tau3, residual_l1_primed,
    residual_t1_primed), elementwise over the parameter arrays.
    """
    l1_len, l3_len, tau1, tau3 = _fn_forms(a, alpha_tilde)
    l1p_len, _, tau1p, _ = _fn_forms(b_of(a, alpha_tilde), -alpha_tilde)
    l1 = ew.cosh(0.5 * l1_len)
    l3 = ew.cosh(0.5 * l3_len)
    t1 = ew.cosh(0.5 * tau1)
    l1p = ew.cosh(0.5 * l1p_len)
    t1p = ew.cosh(0.5 * tau1p)
    lhs_l1p = t1 * t1 * 2.0 * l1 / (l1 - 1.0) - 1.0
    num = l1 * l1 * t1 * t1 + l1 * t1 * t1 - l1 * l1 + 1.0
    den = 2.0 * l1 * t1 * t1 - l1 + 1.0
    lhs_t1p = ew.sqrt(num / den)
    return (
        _rel(l3, 2.0 * l1 + 1.0),
        _rel(tau3, 0.5 * l3_len),
        _rel(l1p, lhs_l1p),
        _rel(t1p, lhs_t1p),
    )


def wp_coefficient_raw(a, alpha_tilde):
    """Weil-Petersson density 8a/((1-a)(1+a)(2a^2 cos^2(at) - 1)), the
    coefficient of da ^ dalpha_tilde in the WP form; elementwise."""
    return 8.0 * a / ((1.0 - a) * (1.0 + a) * (2.0 * a * a * ew.cos(alpha_tilde) ** 2 - 1.0))


def wolpert_forms(a, alpha_tilde):
    """Summands 1/2 [d_a l_k d_at tau_k - d_at l_k d_a tau_k], k = 1, 2, 3, of
    Wolpert's form 1/2 sum_k dl_k ^ dtau_k in (a, alpha_tilde), as (summands,
    primed_summands); the primed ones differentiate the forms of the
    conjugate decomposition at (b(a, at), -at).

    Each sum is the coefficient of da ^ dalpha_tilde and the k = 3 summand
    vanishes, because l3 and tau3 depend on a alone.  The derivatives are
    complex steps, f'(x) = Im f(x + ih) / h (Squire and Trapp, SIAM Rev. 40,
    1998): with no difference to cancel they are exact to rounding, and the
    step stays far inside the domain.  The route is independent of
    ``wp_coefficient_raw``.  Elementwise over the parameter arrays.
    """
    h = 1e-30
    at = alpha_tilde
    out = []
    for steps in ((_fn_forms(a + 1j * h, at), _fn_forms(a, at + 1j * h)),
                  (_fn_forms(b_of(a + 1j * h, at), -at),
                   _fn_forms(b_of(a, at + 1j * h), -at - 1j * h))):
        (l1_a, l3_a, tau1_a, tau3_a), (l1_at, l3_at, tau1_at, tau3_at) = (
            [x.imag / h for x in forms] for forms in steps
        )
        s1 = 0.5 * (l1_a * tau1_at - l1_at * tau1_a)
        out.append((s1, s1, 0.5 * (l3_a * tau3_at - l3_at * tau3_a)))
    return tuple(out)
