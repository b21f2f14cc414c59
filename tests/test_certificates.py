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
   (Goldman, Invent. Math. 85, 1986).
"""

import math

import numpy as np
import pytest
from conftest import domain_points
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teich2.fenchel_nielsen import wp_coefficient_raw
from teich2.group import generator_pairs
from teich2.isoperimetric import A_REG
from teich2.octagon import OctagonParams

sp = pytest.importorskip("sympy")

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
# the paper's WP coefficient, wp_coefficient_raw, with cos^2(alpha_tilde) = 1/(1 + t^2)
WP_COEFFICIENT = 8 * a / ((1 - a**2) * (2 * a**2 / (1 + t**2) - 1))


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
    for sign, (j, k) in zip(GOLDMAN_SIGNS, ((0, 1), (0, 3), (2, 1), (2, 3))):
        (uj, vj), (uk, vk) = lifts[j], lifts[k]
        product_trace = 2 * sp.re(sp.expand(uj * uk + vj * sp.conjugate(vk)))
        bracket += sign * (product_trace - t0 * t1 / 2)
    claim = sp.Poly(sp.expand(4 * jacobian + WP_COEFFICIENT * bracket), n)
    reduced = sum(coeff * X ** -(k // 2) * n ** (k % 2) for (k,), coeff in claim.terms())
    assert sp.cancel(sp.together(reduced)) == 0


_ENTRIES = sp.lambdify((a, A2, t), [U0, V0, U1, V1], modules="math")
_NORM = sp.lambdify((A2, C), NORM, modules="math")
_WP_COEFFICIENT = sp.lambdify((a, t), WP_COEFFICIENT, modules="math")


POINTS = st.one_of(domain_points(0.02), domain_points(1e-3), domain_points(1e-6))


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
    condition = 1.0 / (2.0 * x * x * math.cos(at) ** 2 - 1.0) + 1.0 / (1.0 - x * x)
    assert abs(c - _WP_COEFFICIENT(x, math.tan(at))) <= 8.0 * EPS * condition * c
