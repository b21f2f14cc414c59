"""One refusal route: an array refusal is the refusal of its first failing element.

Every elementwise refusal finds its element, and reads the values its message
names there, by ``_elementwise.first_true``.  So an array call must raise
the error of the float call at its first failing element (C order): the same
type and message, with ``index`` that element's flat position, where the
float call's is 0.
"""

import cmath
import math
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from conftest import domain_points
from hypothesis import given, settings
from hypothesis import strategies as st

from teich2 import _elementwise as ew
from teich2 import group
from teich2.errors import NumericalError
from teich2.group import ball, generators
from teich2.hyperbolic import dist, su_check
from teich2.isoperimetric import E_REG, P_REG, e_of_p, orbit_forms
from teich2.octagon import ALPHA_TILDE_MAX, _check_domain, lower_a


class Site(NamedTuple):
    """A refusal site: ``call`` takes an element's parts, numbers or arrays of
    one shape; ``passing`` and ``failing`` draw elements as tuples of parts."""

    call: object
    passing: st.SearchStrategy
    failing: st.SearchStrategy


def _domain_point(at, s):
    lo = lower_a(at)
    return lo + (0.01 + 0.98 * s) * (1.0 - lo), at


_ANGLE = st.floats(-math.pi, math.pi)
_IN_RANGE = st.floats(-0.7, 0.7)
# E on orbits up to P = 150, where no angle from 0.05 to 2 pi - 0.05 cancels
_PASSING_E = st.floats(P_REG, 150.0).map(e_of_p)
# points within 0.99 of 0, and at 1 or beyond; a complex point is drawn
# clear of the circle, where numpy's modulus can round apart from CPython's
# (test_array_refusal_at_the_unit_circle_is_the_float_refusal)
_INSIDE, _OUTSIDE = st.floats(0.0, 0.99), st.floats(1.0, 1e10)

SITES = {
    "require_positive": Site(
        lambda x: ew.require_positive(x, "x"),
        st.tuples(st.floats(1e-300, 1e300)),
        st.tuples(st.sampled_from([0.0, -0.0, -1.0, -1e-300, -math.inf, math.nan])),
    ),
    "su_check": Site(
        su_check,
        st.builds(lambda t, x, y: (cmath.rect(math.cosh(t), x), cmath.rect(math.sinh(t), y)),
                  st.floats(0.0, 5.0), _ANGLE, _ANGLE),
        st.sampled_from([(1 + 0j, 1 + 0j), (2 + 0j, 0j), (1 + 0j, 0.5j), (complex(math.nan), 0j),
                         (complex(math.inf), 0j), (0j, 1 + 0j)]),
    ),
    # a real array is refused with its real element, as dist(1.0, 0.0) is
    "dist_real": Site(
        lambda z: dist(z, 0.0),
        st.tuples(st.one_of(_INSIDE, _INSIDE.map(float.__neg__))),
        st.tuples(st.one_of(_OUTSIDE, _OUTSIDE.map(float.__neg__), st.just(math.inf))),
    ),
    "dist_complex": Site(
        lambda z: dist(z, 0.0),
        st.tuples(st.builds(cmath.rect, _INSIDE, _ANGLE)),
        st.tuples(st.builds(cmath.rect, st.floats(1.0 + 1e-12, 1e10), _ANGLE)),
    ),
    # E^2 - 24E + 16 < 0 (E from 12 - 8 sqrt2 to E_reg) is a DomainError, and
    # its overflow a NumericalError
    "discriminant": Site(
        lambda e: orbit_forms(e, 0.5),
        st.tuples(st.one_of(_PASSING_E, st.just(E_REG))),
        st.tuples(st.one_of(st.floats(0.7, E_REG - 1e-9), st.floats(1.4e154, 1e300))),
    ),
    # E - 12 - cos(phi) sqrt(disc) cancels next to phi = 0 from P ~ 180
    "cancellation": Site(
        orbit_forms,
        st.tuples(_PASSING_E, st.floats(0.05, 2.0 * math.pi - 0.05)),
        st.tuples(st.sampled_from([180.0, 200.0, 250.0, 400.0]).map(e_of_p),
                  st.sampled_from([1e-10, 1e-9, -1e-9, 2.0 * math.pi - 1e-9])),
    ),
    # each of the three inequalities, alpha_range tested first
    "domain": Site(
        _check_domain,
        st.builds(_domain_point, _IN_RANGE, st.floats(0.0, 1.0)),
        st.one_of(
            st.builds(lambda at: (0.9, at), st.one_of(st.floats(ALPHA_TILDE_MAX, 2.0),
                                                      st.floats(-2.0, -ALPHA_TILDE_MAX))),
            st.builds(lambda at, s: (lower_a(at) * s, at), _IN_RANGE, st.floats(0.5, 1.0)),
            st.builds(lambda at, a: (a, at), _IN_RANGE, st.floats(1.0, 2.0)),
        ),
    ),
}


@pytest.mark.parametrize("name", SITES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_array_refusal_is_the_float_refusal_of_its_first_failing_element(name, data):
    site = SITES[name]
    n = data.draw(st.integers(1, 12), label="n")
    elements = data.draw(st.lists(site.passing, min_size=n, max_size=n), label="passing")
    for k in data.draw(st.sets(st.integers(0, n - 1), max_size=3), label="failing at"):
        elements[k] = data.draw(site.failing, label=f"failing {k}")
    rows = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]), label="rows")
    arrays = [np.array(part).reshape(rows, n // rows) for part in zip(*elements)]

    first = None
    for k, element in enumerate(elements):
        try:
            site.call(*element)
        except (ValueError, NumericalError) as exc:
            first = k, exc
            break
    if first is None:
        site.call(*arrays)
        return
    k, expected = first
    with pytest.raises((ValueError, NumericalError)) as exc:
        site.call(*arrays)
    assert type(exc.value) is type(expected)
    assert str(exc.value) == str(expected)
    if name.startswith("dist"):  # a plain ValueError, with no index
        assert not hasattr(expected, "index")
    else:
        assert (expected.index, exc.value.index) == (0, k)


@settings(max_examples=20, deadline=None)
@given(point=domain_points(0.05), j=st.integers(1, 64))
def test_ball_refuses_the_first_word_past_its_size_bound(point, j):
    # a bound just below the size of element j refuses the first element in
    # shortlex order past it, found on its sphere by first_true
    g = generators(point)
    b = ball(g, 2)
    size = abs(b.u) ** 2 + abs(b.v) ** 2
    bound = float(np.nextafter(size[j], 0.0))
    i = int(np.argmax(size > bound))
    with mock.patch.object(group, "_MAX_SIZE", bound), pytest.raises(NumericalError) as exc:
        ball(g, 2)
    assert exc.value.index == i
    assert str(exc.value) == (
        f"radius-2 ball: element {b.shortlex[i]!r} is past the float64 precision limit "
        f"(|u|^2+|v|^2 = {float(size[i])!r} is past 1/(16 eps))"
    )


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "_require_in_disk tests |z| >= 1 by abs, and numpy's complex modulus can round "
    "apart from CPython's within an ulp of the circle"))
def test_array_refusal_at_the_unit_circle_is_the_float_refusal():
    zs = [cmath.rect(1.0, t) for t in np.linspace(-math.pi, math.pi, 10001)]
    split = [z for z, m in zip(zs, np.abs(np.array(zs))) if (abs(z) >= 1.0) != (m >= 1.0)]
    if not split:
        pytest.skip("numpy's complex moduli are CPython's at every sampled point")

    def refusal(z):
        try:
            dist(z, 0.0)
        except ValueError as exc:
            return str(exc)
        return None

    assert refusal(np.array(split[:1])) == refusal(split[0])
