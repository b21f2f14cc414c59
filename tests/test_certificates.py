"""Symbolic certificates: identities of the closed forms, proven for every
(a, alpha_tilde) by sympy, and float tests that tie the library's copies to
the proven expressions.

With t = tan(alpha_tilde) and X = (1 - a^2)(2a^2 - 1 - t^2), the closed-form
generators of ``group.generator_pairs`` are g0 = n (U0, V0), g1 = n (U1, V1),

    U0 = a (1 - t),  V0 = (a^2 - t) + i (1 - a^2),
    U1 = a (1 + t),  V1 = (1 - a^2) + i (a^2 + t),

with n = -cos(alpha_tilde) / sqrt((1 - a^2)(2 a^2 cos^2(alpha_tilde) - 1)),
and g2, g3 are their conjugates by the quarter turn R.  A pair (u, v) is the
matrix [[u, v], [conj(v), conj(u)]], and the inverse of a pair of
determinant 1 is its adjugate.  The entries are written over a symbol A2 for
a^2, which the float tests evaluate as a * a, as ``generator_pairs`` does;
the proofs substitute a^2.  Proven here:

1. U Ubar - V Vbar = X for both pairs, and n^2 X = 1, so g0 and g1 lie in
   SU(1,1) exactly;
2. R (u, v) R^-1 = (u, i v) for R = diag(e^{i pi/4}, e^{-i pi/4});
3. the relation word g0 g1^-1 g2 g3^-1 g0^-1 g1 g2^-1 g3, multiplied from the
   unscaled entries with adjugates for inverses, is X^4 I.  Since n^8 = X^-4
   it is +I at every (a, alpha_tilde), so ``relation_defect`` measures
   rounding only;
4. the paper's WP coefficient is Goldman's bracket of the generator traces
   (Goldman, Invent. Math. 85, 1986);
5. the side circles: with t+- = a^2 +- t, side 0 lies on the circle about
   c0 = (1 + a^2 + i t+)/(2a) of radius r+ and side 1 on the circle about
   c1 = (t- + i (1 + a^2))/(2a) of radius r-, r+-^2 = (t+-^2 + (1 - a^2)^2)/(4a^2),
   the forms of ``octagon.octagon_forms``.  |c|^2 - r^2 = 1, so both are
   orthogonal to the unit circle; v0 = a and v1 = ((1 - t) + i (1 + t))/(2a)
   = b e^{i alpha} lie on side 0's circle, v1 and v2 = i a on side 1's; and
   the crossing margins r+^2 - |g0(0) - c0|^2 = X/(a^2 (1 - t)^2) and
   r-^2 - |g1(0) - c1|^2 = X/(a^2 (1 + t)^2) are positive exactly on the
   domain, where |t| < 1 and X > 0.  The quarter turn carries sides k, their
   circles and, by fact 2, g_k(0) to those of k + 2, and the half turn
   z -> -z carries g_k(0) and c_k to g_k^-1(0) = -v/u and c_{k+4};
6. each side's image: g_k(v_{k+4}) = v_{k+1} and g_k(v_{k+5}) = v_k for
   k = 0..3, with v_{k+2} = i v_k, which ``group.pairing_residuals`` measures;
7. the generators' class: with p = 1 - a^2, n^2 |V0|^2 = |u0|^2 - 1 =
   (p^2 + (a^2 - t)^2)/X, and p^2 + (a^2 - t)^2 - X = 4 (p - (1 - t)(3 + t)/8)^2
   + (1 - t)^3 (7 + t)/16, and the same for g1 with -t.  For |t| < 1 that
   is positive, so |u_k|^2 > 2, |tr g_k| = 2 |u_k| > 2 sqrt2, and every
   generator is hyperbolic, with translation length above 2 ln(1 + sqrt2);
8. the triple construction, with sign +1: the side midpoints' parameters
   omega+ = (w (1 - a^2) + a (1 - b^2))/(1 - a^2 b^2) and omega- the same
   with i a (1 - b^2), where w = v1 and b^2 = (1 + t^2)/(2a^2), are
   g0(0) = V0/U0 and g1(0) = V1/U1, 1 - |omega+-|^2 = X/(a^2 (1 -+ t)^2),
   and with n = -1/sqrt(X), M(omega_k) M(0) = H(p_k) = g_k for k = 0..3,
   where p_k = omega_k / (1 + sqrt(1 - |omega_k|^2)) and omega_{k+2} = i omega_k.
   H(p) carries -p onto p, so g_k(-p_k) = p_k.  So ``octagon_forms`` computes
   omega+- = V/U, the scales sqrt(1 - |omega+-|^2) = sqrt(X)/U of the half
   turns M(omega) = (i, -i omega)/sqrt(1 - |omega|^2) and the midpoints
   p = V/(U + sqrt(X)), none by a difference that cancels.
"""

import math

import numpy as np
import pytest
from conftest import domain_points
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from teich2.errors import NumericalError
from teich2.fenchel_nielsen import wp_coefficient_raw
from teich2.group import generator_pairs, half_turns
from teich2.hyperbolic import su_act, su_gap, su_mul, translation_pair
from teich2.isoperimetric import A_REG
from teich2.octagon import OctagonParams, _domain_error, b_of, lower_a, octagon_forms

sp = pytest.importorskip("sympy")
mp = pytest.importorskip("mpmath")  # a dependency of sympy

EPS = np.finfo(float).eps

a, t, A2, C = sp.symbols("a t A2 C", real=True)
I = sp.I
X = (1 - a**2) * (2 * a**2 - 1 - t**2)
# the unscaled entries of g0 and g1, and their scale n over A2 = a^2 and C = cos(alpha_tilde)
U0, V0 = a * (1 - t), (A2 - t) + I * (1 - A2)
U1, V1 = a * (1 + t), (1 - A2) + I * (A2 + t)
NORM = -C / sp.sqrt((1 - A2) * (2 * A2 * C**2 - 1))
# Goldman's intersection signs of the generator axes, (eps01, eps03, eps21, eps23)
GOLDMAN_SIGNS = (1, 1, -1, 1)
GOLDMAN_PAIRS = ((0, 1), (0, 3), (2, 1), (2, 3))
# the paper's WP coefficient, wp_coefficient_raw, with cos^2(alpha_tilde) = 1/(1 + t^2)
WP_COEFFICIENT = 8 * a / ((1 - a**2) * (2 * a**2 / (1 + t**2) - 1))
# the side circles' centres and squared radii of octagon_forms, and the odd vertex
T_PLUS, T_MINUS = a**2 + t, a**2 - t
CENTRES = ((1 + a**2 + I * T_PLUS) / (2 * a), (T_MINUS + I * (1 + a**2)) / (2 * a))
RADII2 = tuple((s**2 + (1 - a**2) ** 2) / (4 * a**2) for s in (T_PLUS, T_MINUS))
V_ODD = ((1 - t) + I * (1 + t)) / (2 * a)


def _at_a(expr):
    return expr.subs(A2, a**2)


def _quarter_turn(u, v):
    """R (u, v) R^-1, by fact 2."""
    return u, I * v


def _pairs():
    """The unscaled (u, v) of g0..g3 over (a, t)."""
    g0, g1 = (_at_a(U0), _at_a(V0)), (_at_a(U1), _at_a(V1))
    return g0, g1, _quarter_turn(*g0), _quarter_turn(*g1)


def _matrix(u, v):
    return sp.Matrix([[u, v], [sp.conjugate(v), sp.conjugate(u)]])


def _adjugate(m):
    return sp.Matrix([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


def _abs2(z):
    return z * sp.conjugate(z)


def _vanishes(expr):
    return sp.cancel(expr) == 0


def _vertices():
    """v0..v7 over (a, t), with v_{k+2} = i v_k."""
    return [I ** (k // 2) * (a if k % 2 == 0 else V_ODD) for k in range(8)]


def test_generators_lie_in_su11():
    for u, v in _pairs()[:2]:
        assert sp.expand(u * sp.conjugate(u) - v * sp.conjugate(v) - X) == 0
    # cos(alpha_tilde) = 1/sqrt(1 + t^2) > 0 for |alpha_tilde| < pi/4
    n2 = (NORM**2).subs({A2: a**2, C: 1 / sp.sqrt(1 + t**2)})
    assert sp.cancel(n2 * X) == 1


def test_quarter_turn_conjugation():
    u, v, w, z = sp.symbols("u v w z")
    r = sp.diag(sp.exp(I * sp.pi / 4), sp.exp(-I * sp.pi / 4))
    conjugated = r * sp.Matrix([[u, v], [w, z]]) * r.inv()
    u2, v2 = _quarter_turn(u, v)
    assert sp.simplify(conjugated - sp.Matrix([[u2, v2], [-I * w, z]])) == sp.zeros(2)


def test_relation_word_is_x4_identity():
    g0, g1, g2, g3 = (_matrix(u, v) for u, v in _pairs())
    word = g0
    for m in (_adjugate(g1), g2, _adjugate(g3), _adjugate(g0), g1, _adjugate(g2), g3):
        word = (word * m).applyfunc(sp.expand)
    assert (word - sp.expand(X**4) * sp.eye(2)).applyfunc(sp.expand) == sp.zeros(2)


def test_goldman_bracket_is_the_wp_coefficient():
    # positive lifts G_k = n (U_k, V_k) with n = X^(-1/2) > 0; n stays a
    # symbol, with dn = -n^3 dX / 2, and n^2 = 1/X is set at the end
    n = sp.symbols("n", positive=True)
    lifts = [(n * u, n * v) for u, v in _pairs()]
    traces = [2 * sp.re(u) for u, _ in lifts]
    assert sp.expand(traces[0] - 2 * a * n * (1 - t)) == 0
    assert sp.expand(traces[1] - 2 * a * n * (1 + t)) == 0
    assert traces[2:] == traces[:2]

    def d(f, x):
        # d/d alpha_tilde = (1 + t^2) d/dt
        df = sp.diff(f, x) - sp.diff(f, n) * n**3 * sp.diff(X, x) / 2
        return df if x is a else (1 + t**2) * df

    t0, t1 = traces[:2]
    jacobian = d(t0, a) * d(t1, t) - d(t0, t) * d(t1, a)
    bracket = 0
    for sign, (j, k) in zip(GOLDMAN_SIGNS, GOLDMAN_PAIRS):
        (uj, vj), (uk, vk) = lifts[j], lifts[k]
        product_trace = 2 * sp.re(sp.expand(uj * uk + vj * sp.conjugate(vk)))
        bracket += sign * (product_trace - t0 * t1 / 2)
    claim = sp.Poly(sp.expand(4 * jacobian + WP_COEFFICIENT * bracket), n)
    reduced = sum(coeff * X ** -(k // 2) * n ** (k % 2) for (k,), coeff in claim.terms())
    assert sp.cancel(sp.together(reduced)) == 0


def test_odd_vertex_is_b_e_i_alpha():
    al = sp.symbols("alpha_tilde", real=True)
    w = sp.exp(I * (al + sp.pi / 4)) / (sp.sqrt(2) * a * sp.cos(al))
    assert sp.simplify(sp.expand_complex(w - V_ODD.subs(t, sp.tan(al)))) == 0


def test_side_circles():
    vertices = _vertices()
    for k, ((u, v), centre, r2) in enumerate(zip(_pairs(), CENTRES, RADII2)):
        assert _vanishes(_abs2(centre) - r2 - 1)
        assert _vanishes(_abs2(vertices[k] - centre) - r2)
        assert _vanishes(_abs2(vertices[k + 1] - centre) - r2)
        # g_k(0) = v / conj(u), and u is real; 1 - t for g0, 1 + t for g1
        crossing = X / (a**2 * (1 - (-1) ** k * t) ** 2)
        assert _vanishes(r2 - _abs2(v / u - centre) - crossing)


def test_each_side_maps_onto_its_proven_image():
    vertices = _vertices()
    for k, (u, v) in enumerate(_pairs()):
        for src, target in ((k + 4, k + 1), (k + 5, k)):
            assert _vanishes(su_act(u, v, vertices[src % 8]) - vertices[target % 8]), (k, src)


def test_every_generator_is_hyperbolic():
    p = 1 - a**2
    for (u, v), s in zip(_pairs(), (t, -t)):
        assert sp.expand(_abs2(v) - (p**2 + (a**2 - s) ** 2)) == 0
        squares = 4 * (p - (1 - s) * (3 + s) / 8) ** 2 + (1 - s) ** 3 * (7 + s) / 16
        assert sp.expand(p**2 + (a**2 - s) ** 2 - X - squares) == 0
        # so |u|^2 - 2 = squares / X after scaling by n^2 = 1/X
        assert sp.expand(_abs2(u) - 2 * X - squares) == 0


def test_triple_construction_has_sign_plus_one():
    # s = sqrt(X) > 0 on the domain, and root = sqrt(1 - |omega|^2)
    s, root = sp.symbols("s root", positive=True)
    n = -1 / s
    b2 = (1 + t**2) / (2 * a**2)  # b^2 = 1/(2 a^2 cos^2(alpha_tilde))
    den = 1 - a**2 * b2
    omega_plus = (V_ODD * (1 - a**2) + a * (1 - b2)) / den
    omega_minus = (V_ODD * (1 - a**2) + I * a * (1 - b2)) / den
    omegas = (omega_plus, omega_minus, I * omega_plus, I * omega_minus)
    for k, ((u, v), omega) in enumerate(zip(_pairs(), omegas)):
        assert _vanishes(omega - v / u)
        side = a * (1 - (-1) ** k * t)  # > 0 for |t| < 1
        assert _vanishes(1 - _abs2(omega) - X / side**2)
        half_turn = (I / root, -I * omega / root)
        p2 = (1 - root**2) / (1 + root) ** 2  # |p_k|^2
        translation = (-(1 + p2) / (1 - p2), -2 * omega / ((1 + root) * (1 - p2)))
        for x, y in (su_mul(half_turn, (I, sp.S.Zero)), translation):
            x, y = (z.subs(root, s / side) for z in (x, y))
            assert _vanishes(x - n * u) and _vanishes(y - n * v), k
    # H(p) is (1 + |p|^2, 2p) times a real scale, which cancels in the action
    x, y = sp.symbols("x y", real=True)
    p = x + I * y
    assert _vanishes(su_act(1 + _abs2(p), 2 * p, -p) - p)


_ENTRIES = sp.lambdify((a, A2, t), [U0, V0, U1, V1], modules="math")
_NORM = sp.lambdify((A2, C), NORM, modules="math")
_WP_COEFFICIENT = sp.lambdify((a, t), WP_COEFFICIENT, modules="math")


POINTS = st.one_of(domain_points(0.02), domain_points(1e-3), domain_points(1e-6))


def _condition(x, at):
    """1/q + 1/(1 - a^2), q = 2a^2 cos^2(alpha_tilde) - 1: how the closed forms
    magnify the rounding of their inputs next to the lower edge and a = 1."""
    return 1.0 / (2.0 * x * x * math.cos(at) ** 2 - 1.0) + 1.0 / (1.0 - x * x)


@settings(max_examples=200, deadline=None)
@given(POINTS)
@example(OctagonParams(A_REG, 0.0))
def test_generator_pairs_are_the_proven_forms(point):
    # the proven entries times their scale, in floats, within 4 eps of the
    # pair's size (at most 1.06 eps at 40 000 uniform points, 65% bit-equal)
    x, at = point.a, point.alpha_tilde
    u0, v0, u1, v1 = _ENTRIES(x, x * x, math.tan(at))
    n = _NORM(x * x, math.cos(at))
    for (u, v), (su, sv) in zip(generator_pairs(x, at)[:2], ((n * u0, n * v0), (n * u1, n * v1))):
        size = math.sqrt(abs(u) ** 2 + abs(v) ** 2)
        assert max(abs(u - su), abs(v - sv)) <= 4.0 * EPS * size, (u, su, v, sv)


@settings(max_examples=200, deadline=None)
@given(POINTS)
@example(OctagonParams(A_REG, 0.0))
def test_wp_coefficient_is_the_proven_form(point):
    # relative to its condition 1/q + 1/(1 - a^2), q = 2a^2 cos^2(alpha_tilde) - 1,
    # which t = tan(alpha_tilde) and 1 - a^2 in place of (1 - a)(1 + a)
    # magnify (at most 2.0 at 60 000 uniform points)
    x, at = point.a, point.alpha_tilde
    c = wp_coefficient_raw(x, at)
    assert abs(c - _WP_COEFFICIENT(x, math.tan(at))) <= 8.0 * EPS * _condition(x, at) * c


@settings(max_examples=200, deadline=None)
@given(POINTS)
@example(OctagonParams(A_REG, 0.0))
def test_side_circles_are_the_proven_forms(point):
    # |c|^2 - r^2 = 1 within 8 eps of |c|^2 + r^2, and |v - c| = r at both
    # ends of each side within 8 eps of |c| + r (at most 3.0 eps and 2.4 eps
    # at 36 000 points down to margin 1e-6, half of them next to |alpha_tilde| = pi/4)
    try:
        f = octagon_forms(point.a, point.alpha_tilde)
    except NumericalError:  # X rounds to 0 or below next to the edge
        reject()
    for k, c in enumerate(f.centres):
        r = f.r_plus if k % 2 == 0 else f.r_minus
        assert abs(abs(c) ** 2 - r * r - 1.0) <= 8.0 * EPS * (abs(c) ** 2 + r * r), k
        for z in (f.vertices[k], f.vertices[(k + 1) % 8]):
            assert abs(abs(z - c) - r) <= 8.0 * EPS * (abs(c) + r), k


@settings(max_examples=200, deadline=None)
@given(POINTS)
@example(OctagonParams(A_REG, 0.0))
def test_generator_traces_are_at_least_2_sqrt2(point):
    # |u_k|^2 = 2 + squares/X by fact 7; in floats (|u|^2/2 - 1)/eps stayed
    # above 4.7e11 at the same 36 000 points
    for u, _ in generator_pairs(point.a, point.alpha_tilde):
        assert abs(u) ** 2 >= 2.0


# complex step of the traces' derivatives
H = 1e-30


def _lift_traces(x, at):
    """T0 = -2 u0 and T1 = -2 u1, the traces of the positive lifts: the n of
    generator_pairs is negative."""
    g = generator_pairs(x, at)
    return -2.0 * g[0][0], -2.0 * g[1][0]


@settings(max_examples=200, deadline=None)
@given(POINTS)
@example(OctagonParams(A_REG, 0.0))
def test_goldman_bracket_holds_in_floats(point):
    # fact 4 in floats: 4 dT0 ^ dT1 = -c sum eps_jk (tr(g_j g_k) - T_j T_k / 2),
    # the derivatives by complex step and the products by su_mul, where the
    # two lifts' sign flips cancel.  The residual is held to eps times the
    # sum of the terms' moduli, times the condition 1/q + 1/(1 - a^2) of the
    # closed forms (at most 0.11 at 36 000 points down to margin 1e-6; without
    # the condition, 1.8e4 next to the corner)
    x, at = point.a, point.alpha_tilde
    d_a = [tr.imag / H for tr in _lift_traces(complex(x, H), at)]
    d_at = [tr.imag / H for tr in _lift_traces(x, complex(at, H))]
    jacobian = (d_a[0] * d_at[1], d_at[0] * d_a[1])
    g = generator_pairs(x, at)
    traces = [-2.0 * u.real for u, _ in g]
    terms = [(sign, 2.0 * su_mul(g[j], g[k])[0].real, traces[j] * traces[k] / 2.0)
             for sign, (j, k) in zip(GOLDMAN_SIGNS, GOLDMAN_PAIRS)]
    c = wp_coefficient_raw(x, at)
    residual = 4.0 * (jacobian[0] - jacobian[1]) + c * sum(s * (p - q) for s, p, q in terms)
    size = 4.0 * (abs(jacobian[0]) + abs(jacobian[1])) + c * sum(
        abs(p) + abs(q) for _, p, q in terms)
    assert abs(residual) <= EPS * _condition(x, at) * size


@settings(max_examples=200, deadline=None)
@given(POINTS)
@example(OctagonParams(A_REG, 0.0))
@example(OctagonParams(0.999999, 0.7853961633914485))
def test_half_turns_and_midpoints_are_the_proven_forms(point):
    # fact 8 in floats, within eps times the condition 1/q + 1/(1 - a^2) of
    # the sizes (measured at most 0.57 for |omega|^2 + r^2 = 1, 0.38 for
    # omega = g(0), 0.90 for the triple, 0.32 for M^2 = -I and 0.07 for the
    # fixed point, and 1.8 eps for p (1 + r) = omega and 2.0 eps for |w| = b,
    # at 100 000 points down to margin 1e-6, half of them next to
    # |alpha_tilde| = pi/4); the half turns' traces are 0 exactly
    x, at = point.a, point.alpha_tilde
    try:
        f = octagon_forms(x, at)
    except NumericalError:  # X rounds to 0 or below next to the edge
        reject()
    c = _condition(x, at)
    m = half_turns(f)
    for w, r in zip((f.omega_plus, f.omega_minus, f.omega4), f.turn_scales):
        assert abs(abs(w) ** 2 + r * r - 1.0) <= 2.0 * EPS * c, (w, r)
    omegas = (f.omega_plus, f.omega_minus, 1j * f.omega_plus, 1j * f.omega_minus)
    for k, (u, v) in enumerate(generator_pairs(x, at)):
        omega, p = omegas[k], f.midpoints[k]
        size = math.sqrt(abs(u) ** 2 + abs(v) ** 2)
        assert abs(v / u.conjugate() - omega) <= 2.0 * EPS * c, k
        assert abs(p * (1.0 + f.turn_scales[k % 2]) - omega) <= 4.0 * EPS * abs(omega), k
        assert su_gap((u, v), su_mul(m[k], m[5])) <= 2.0 * EPS * c * size, k
        assert su_gap((u, v), translation_pair(p)) <= 2.0 * EPS * c * size, k
        mu, mv = m[k]
        m_size = abs(mu) ** 2 + abs(mv) ** 2
        square = su_mul(m[k], m[k])
        assert mu.real == 0.0, k
        assert max(abs(square[0] + 1.0), abs(square[1])) <= EPS * c * m_size, k
        assert abs(su_act(mu, mv, p) - p) <= EPS * c * m_size, k
    assert abs(abs(f.vertices[1]) - b_of(x, at)) <= 4.0 * EPS


def _midpoints_60(a, at):
    """p+ = V0/(U0 + sqrt(X)) and p- = V1/(U1 + sqrt(X)) in 60-digit mpmath."""
    t, a2 = mp.tan(at), a * a
    s = mp.sqrt((1 - a2) * (2 * a2 - 1 - t * t))
    return (mp.mpc(a2 - t, 1 - a2) / (a * (1 - t) + s),
            mp.mpc(1 - a2, a2 + t) / (a * (1 + t) + s))


@st.composite
def corner_strata(draw):
    """In-domain points with |alpha_tilde| = pi/4 - 10^-u, u in [1, 9], and a
    at 10^-v of the way from lower_a to 1 or from 1 to lower_a, v in [0, 8]."""
    at = draw(st.sampled_from((1.0, -1.0))) * (math.pi / 4 - 10.0 ** -draw(st.floats(1.0, 9.0)))
    lo = lower_a(at)
    f = 10.0 ** -draw(st.floats(0.0, 8.0))
    a = lo + (1.0 - lo) * draw(st.sampled_from((f, 1.0 - f)))
    if _domain_error(a, at) is not None:
        reject()
    return a, at


@settings(max_examples=100, deadline=None)
@given(corner_strata())
@example((0.9986991591073666, 0.7807639413512338))  # 8457 ulp off by the cancelling route
@example((0.9939712825714683, 0.7793143192634621))  # 6.3e5 ulp off, at condition 7.0e4
def test_midpoints_within_their_condition_of_60_digits(point):
    # the relative error of each float midpoint against 60-digit mpmath at the
    # same float (a, alpha_tilde), in units of eps, is at most 4 times its
    # condition: 1 plus the relative change of p under relative perturbations
    # of a and alpha_tilde, by central differences at 60 digits (measured at
    # most 0.44 of the condition at 1800 points stratified toward the corner;
    # the route through 1 - |omega|^2 reached 3.9e10 at 300 of them)
    x, at = point
    try:
        f = octagon_forms(x, at)
    except NumericalError:  # X rounds to 0 or below next to the edge
        reject()
    with mp.workdps(60):
        a_mp, at_mp, h = mp.mpf(x), mp.mpf(at), mp.mpf(10) ** -25
        exact = _midpoints_60(a_mp, at_mp)
        d_a = [(p - q) / (2 * h) for p, q in zip(_midpoints_60(a_mp * (1 + h), at_mp),
                                                 _midpoints_60(a_mp * (1 - h), at_mp))]
        d_at = [(p - q) / (2 * h) for p, q in zip(_midpoints_60(a_mp, at_mp * (1 + h)),
                                                  _midpoints_60(a_mp, at_mp * (1 - h)))]
        for k in range(2):
            condition = 1 + (abs(d_a[k]) + abs(d_at[k])) / abs(exact[k])
            error = abs(mp.mpc(f.midpoints[k]) - exact[k]) / abs(exact[k])
            assert error <= 4 * condition * EPS, (k, float(error / EPS), float(condition))
