"""Isoperimetric orbits and Weil-Petersson areas in the parameter domain.

An orbit is a level set of the octagon perimeter P.  With the auxiliary
quantity E = 2(cosh(P/8) + 1) the orbit through perimeter P is an oval in
the (a, alpha_tilde) domain parametrized by an angle phi, degenerating to
the point (2^{-1/4}, 0) at the regular perimeter P_reg.  That curve is
written once, elementwise over E and phi (an E column gives one orbit per
row), in ``orbit_forms``, which takes floats as well; the extremes of a are
its view.  The WP area enclosed by an orbit reduces to a single integral
over a in [a_minus, a_plus], taken by QUADPACK one node at a time through a
float closure built once per orbit (``_area_density``), and cross-checked
here by Wolpert's form over the orbit as a graph in (l1, tau1).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass

from . import _elementwise as ew
from ._elementwise import np
from .errors import DomainError, NumericalError
from .fenchel_nielsen import _fn_forms

__all__ = ["A_REG", "E_REG", "P_REG", "QUAD_TOLERANCE", "AreaResult", "e_of_p", "a_extremes",
           "orbit_forms", "asymptotic_orbit", "wp_area", "wp_area_fn", "parabola_fit"]

A_REG = 2.0 ** -0.25
E_REG = 12.0 + 8.0 * math.sqrt(2.0)
P_REG = 8.0 * math.acosh(5.0 + 4.0 * math.sqrt(2.0))

# tolerance requested of the area quadrature; for P >~ 99.6 quad misses it,
# by up to 2.1e-7 relative, while its own error estimate passes
QUAD_TOLERANCE = 1e-10

# the orbits of `teich2 orbit` without --P, which validate's orbit checks use too
_ORBIT_PERIMETERS = (25.0, 27.0, 29.0, 31.0, 33.0, 35.0, 37.0, 39.0, 41.0)

# discriminant E^2 - 24E + 16 may round slightly negative at E_reg
_DISC_CLAMP = 1e-12

# why QUADPACK's qagse stopped, by its ier code; with ier 0 the check below
# fails only on a non-finite estimate, which qagse does not flag
_QAGSE_IER = {
    0: "no failure flagged, but the integrand is not finite",
    1: "subdivision limit reached",
    2: "roundoff error",
    3: "bad integrand behaviour",
    4: "roundoff error in the extrapolation table",
    5: "divergent or slowly convergent",
}


def e_of_p(p: float) -> float:
    """Auxiliary quantity E = 2(cosh(P/8) + 1)."""
    if not math.isfinite(p):
        raise ValueError(f"perimeter must be finite, got {p!r}")
    if p <= 0.0:
        raise DomainError(f"perimeter must be positive, got {p!r}")
    try:
        return 2.0 * (math.cosh(p / 8.0) + 1.0)
    except OverflowError:
        raise NumericalError(f"E = 2(cosh(P/8) + 1) overflows at P = {p!r}") from None


def _discriminant(e, phi=0.0):
    """E^2 - 24E + 16, clamped at 0; elementwise over E.  NumericalError where it
    overflows and DomainError where E lies below E_reg, at the first such E (C
    order) of E broadcast with the angles phi, whose flat position is the index."""
    disc = ew.square(e) - 24.0 * e + 16.0
    found = ew.first_true((disc == math.inf) | (disc < -_DISC_CLAMP), e, disc, phi)
    if found is not None:
        k, (e_k, disc_k, _) = found
        if disc_k == math.inf:
            raise NumericalError(f"E^2 overflows at E = {e_k!r}", k)
        raise DomainError(f"E = {e_k!r} lies below the regular value {E_REG!r}", k)
    return ew.maximum(disc, 0.0)


def a_extremes(e: float) -> tuple[float, float]:
    """Minimal and maximal a on the orbit of E, at phi = pi and 0, where alpha_tilde = 0."""
    return orbit_forms(e, math.pi)[0], orbit_forms(e, 0.0)[0]


def orbit_forms(e, phi):
    """(a, alpha_tilde) of the orbits of E at angles phi; elementwise over E
    and phi, which broadcast: an E column and a phi row give one orbit per row.

    phi = 0 and pi give the extremes a_plus and a_minus.  E is refused by
    _discriminant, then NumericalError where sin(phi) != 0 and E - 12 - cos(phi)
    sqrt(disc) cancels to <= 0, each at the first failing (E, phi), C order.
    """
    disc = _discriminant(e, phi)
    root = ew.sqrt(disc)
    phi = phi % (2.0 * math.pi)
    c, s = ew.cos(phi), ew.sin(phi)
    a = ew.sqrt(3.0 * e - 4.0 + c * root) / (2.0 * ew.sqrt(e))
    inner = e - 12.0 - c * root
    # (E-12)^2 exceeds the discriminant by 128, so inner > 0 for E > E_reg
    on_axis = s == 0.0
    found = ew.first_true(ew.where(on_axis | (inner > 0.0), False, True), e, inner, phi)
    if found is not None:
        k, (e_k, inner_k, phi_k) = found
        raise NumericalError(f"orbit of E = {e_k!r} cancels to {inner_k!r} at phi = {phi_k!r}", k)
    # on the axis sin(phi) = 0 zeroes the numerator, and at large E inner
    # cancels to 0 there too: alpha_tilde = 0 is set there, not divided out
    num = ew.sqrt((e - 4.0) * disc) * ew.where(on_axis, 1.0, s)
    den = math.sqrt(2.0) * e * ew.sqrt(ew.where(on_axis, 1.0, inner))
    return a, ew.where(on_axis, 0.0, ew.arctan(num / den))


def _phases(n: int) -> np.ndarray:
    """The n equally spaced angles phi = 2 pi j / n, j = 0 .. n-1."""
    if n < 1:
        raise ValueError(f"need at least one sample, got {n!r}")
    return 2.0 * math.pi * np.arange(n) / n


def asymptotic_orbit(phi: float) -> tuple[float, float]:
    """Large-P limit (a, alpha_tilde) of the orbit point at angle phi; elementwise.

    a tends to sqrt(3 + cos phi)/2 and alpha_tilde to
    arctan(sin phi / sqrt(2(1 - cos phi))), which equals arctan(cos(phi/2))
    on (0, 2 pi); the phi = 0 value is the limiting corner pi/4.
    """
    phi = phi % (2.0 * math.pi)
    return 0.5 * ew.sqrt(3.0 + ew.cos(phi)), ew.arctan(ew.cos(0.5 * phi))


def _area_density(lo: float, width: float, e_star: float):
    """wp_area's integrand in t on [0, 1], width times the WP area density at
    a = lo + width t, as one ``math`` closure for qagse's one-node calls: numpy's
    arctanh values where math.atanh raises (inf at f = 1, NaN beyond), and the
    elementwise formula's operation order, which the tests hold g to bit for bit."""
    sqrt, atanh, inf, nan = math.sqrt, math.atanh, math.inf, math.nan
    e_minus_4 = e_star - 4.0

    def g(t: float) -> float:
        a = lo + width * t
        one_minus_a2 = 1.0 - a * a
        two_a2 = 2.0 * a * a - 1.0
        # E*(1-a^2) - 4 = (E - 12 -+ sqrt(disc))/4 > 0 on the whole a-interval
        ratio = e_minus_4 * one_minus_a2 / (e_star * one_minus_a2 - 4.0)
        # 1 - E(a)/E* with E(a) = 4a^2/((1-a^2)(2a^2-1)), clamped at 0 (NaN stays)
        one_minus_e = 1.0 - 4.0 * a * a / (one_minus_a2 * two_a2) / e_star
        f = sqrt(ratio * (0.0 if one_minus_e <= 0.0 else one_minus_e))
        h = atanh(f) if f < 1.0 else inf if f == 1.0 else nan
        return width * (16.0 * a / (one_minus_a2 * sqrt(two_a2)) * h)

    return g


@dataclass(frozen=True)
class AreaResult:
    """WP area enclosed by an orbit, with QUADPACK's error estimate and work."""

    area: float
    quad_error_estimate: float
    evaluations: int


@functools.cache
def _quadpack():
    """scipy's QUADPACK extension module, loaded from its file on first use.

    Importing ``scipy.integrate`` for ``quad`` maps about 355 scipy modules,
    most of a cold ``validate`` or ``area``; ``_qagse`` needs only this
    extension, which imports scipy's light callback helpers.  It registers
    itself in ``sys.modules`` as ``teich2._quadpack``.  ModuleNotFoundError
    if scipy or the extension is not found.
    """
    spec = importlib.util.find_spec("scipy")  # for a top-level name, imports nothing
    if spec is None or not spec.submodule_search_locations:
        raise ModuleNotFoundError(
            "wp_area needs scipy's QUADPACK extension, and scipy is not installed "
            "(searched sys.path)", name="scipy",
        )
    here = os.path.join(spec.submodule_search_locations[0], "integrate")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(here, "_quadpack" + suffix)
        if os.path.isfile(path):
            # the name's last part must be _quadpack, the extension's PyInit symbol
            ext = importlib.util.spec_from_file_location("teich2._quadpack", path)
            module = importlib.util.module_from_spec(ext)
            ext.loader.exec_module(module)
            return module
    raise ModuleNotFoundError(
        f"wp_area needs scipy's QUADPACK extension, and no _quadpack extension "
        f"is in scipy's directory {here!r}", name="scipy.integrate._quadpack",
    )


def wp_area(p_star: float) -> AreaResult:
    """WP area inside the orbit P = p_star by adaptive quadrature.

    The integral over a in [a_minus, a_plus] is taken in the normalized
    variable t with a = a_minus + (a_plus - a_minus) t, which regularizes
    the square-root vanishing of the integrand at both endpoints, by
    QUADPACK's qagse with the arguments of scipy's ``quad``.  qagse asks
    for one node at a time, and each is one call of the ``math`` closure
    that ``_area_density`` builds for the orbit (under a microsecond).
    scipy's QUADPACK extension is loaded on the first call, without
    ``scipy.integrate``, so that importing teich2 loads no scipy.
    NumericalError where qagse does not converge, as from P ~ 200, or the
    integrand overflows: from P ~ 302 f rounds to 1 and arctanh(f) = inf;
    its message names qagse's ier code.  Past that test ier is not read: from
    P ~ 99.6 qagse flags ier 2, 3 or 4 on many rows, whose areas are good
    only to about 2e-7 relative, not to QUAD_TOLERANCE.
    """
    if p_star < P_REG - 1e-12:
        raise DomainError(f"p_star = {p_star!r} lies below P_reg = {P_REG!r}")
    e_star = e_of_p(max(p_star, P_REG))
    lo, hi = a_extremes(e_star)
    width = hi - lo
    if width <= 0.0:
        return AreaResult(0.0, 0.0, 0)

    # quad's call for finite limits a < b: (func, a, b, args, full_output,
    # epsabs, epsrel, limit); epsabs > 0 and limit > 0, so ier 6 cannot occur
    area, err, info, ier = _quadpack()._qagse(
        _area_density(lo, width, e_star), 0.0, 1.0, (), 1,
        QUAD_TOLERANCE, QUAD_TOLERANCE, 200,
    )
    if not (math.isfinite(area) and err <= 1e-6 * max(1.0, abs(area))):
        raise NumericalError(
            f"area quadrature did not converge at p_star = {p_star!r}: "
            f"estimate {area!r}, error {err!r}, {info['neval']} evaluations; "
            f"QUADPACK ier {ier}: {_QAGSE_IER[ier]}"
        )
    return AreaResult(area, err, int(info["neval"]))


def wp_area_fn(p_star):
    """WP area inside the orbit P = p_star by Wolpert's form dl1 ^ dtau1 in
    Fenchel-Nielsen coordinates; elementwise, and a sequence gives an array.

    The orbit is the graph |tau1| <= tau*(l1) on [l1(a_minus), l1(a_plus)]:
    with K = cosh(P/8), C = cosh(l1/2), A = 1/(1 + C), m = KA + A - 1 and
    B = 2Am/(m^2 - 1), cosh tau* = 2 sinh^2(l1/4)/(C B) - 1, clamped at 1.
    The area 2 int tau* dl1, in l1 = mid - half cos(theta), is a trapezoid sum
    at theta_j = pi j/n, converging geometrically (Trefethen and Weideman, SIAM
    Rev. 56, 2014).  n doubles from 256, each time evaluating only the new
    odd-indexed nodes, and each p_star takes the first sum that agrees with
    its even-indexed half's to 1e-13 max(1, area).  NumericalError past 2^16
    nodes (from P ~ 130) or where a sum is not finite, as where a_plus rounds
    to 1 (from P ~ 305).
    """
    flat = np.asarray(p_star, dtype=float).reshape(-1)
    found = ew.first_true(~(flat >= P_REG - 1e-12), flat)
    if found is not None:
        k, (p_k,) = found
        raise DomainError(f"p_star = {p_k!r} lies below P_reg = {P_REG!r}", k)
    with np.errstate(all="ignore"):  # a sum that is not finite is refused below
        k_star = np.cosh(np.maximum(flat, P_REG) / 8.0)
        # a_extremes in one call, as rows, so that a refusal's index is its perimeter's
        ends = orbit_forms(2.0 * (k_star + 1.0), np.array([[math.pi], [0.0]]))[0]
        lo, hi = _fn_forms(ends, 0.0)[0]
        mid, half, k_star = (0.5 * (hi + lo))[:, None], 0.5 * (hi - lo), k_star[:, None]

        def tau_sin(theta):  # tau* sin(theta) at the angles theta, a row per p_star
            l1 = mid - half[:, None] * np.cos(theta)
            c = np.cosh(0.5 * l1)
            big_a = 1.0 / (1.0 + c)
            m = k_star * big_a + big_a - 1.0
            cosh_tau = np.sinh(0.25 * l1) ** 2 * (m * m - 1.0) / (c * big_a * m) - 1.0
            return np.arccosh(np.maximum(cosh_tau, 1.0)) * np.sin(theta)

        n, area, open_ = 256, np.zeros(flat.shape), flat > P_REG
        nodes = tau_sin(np.pi * np.arange(1, n) / n)
        previous = 4.0 * np.pi / n * half * nodes[:, 1::2].sum(axis=1)
        while True:
            estimate = 2.0 * np.pi / n * half * nodes.sum(axis=1)
            change = abs(estimate - previous)
            done = open_ & (change <= 1e-13 * np.maximum(1.0, estimate))
            area[done], open_ = estimate[done], open_ & ~done
            found = ew.first_true(open_ & ((n == 2**16) | ~np.isfinite(estimate)),
                                  flat, estimate, change)
            if found is not None:
                k, (p_k, area_k, change_k) = found
                raise NumericalError(f"FN area at p_star = {p_k!r} is not finite or not "
                                     f"converged: {area_k!r} at {n} nodes, {change_k!r} "
                                     f"from {n // 2}", k)
            if not open_.any():
                return area.reshape(np.shape(p_star)) if np.ndim(p_star) else float(area[0])
            # the even-indexed half of 2n nodes is the n-node sample
            previous, old, n = estimate, nodes, 2 * n
            nodes = np.empty((flat.size, n - 1))
            nodes[:, 0::2], nodes[:, 1::2] = tau_sin(np.pi * np.arange(1, n, 2) / n), old


def parabola_fit(p_min: float, p_max: float, step: float):
    """Fit the quadrature areas over [p_min, p_max] to a parabola through 0.

    Returns (c1, c2, residual_norm, p_values, areas): the least-squares
    area = c1 (P - P_reg)^2 + c2 (P - P_reg), the norm of its residual, and
    the perimeters and areas it was fitted to, as tuples of floats.
    """
    if not (math.isfinite(p_min) and math.isfinite(p_max)):
        raise ValueError(f"perimeters must be finite, got {p_min!r}, {p_max!r}")
    if not p_min < p_max:
        raise ValueError(f"need p_min < p_max, got {p_min!r}, {p_max!r}")
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be finite and positive, got {step!r}")
    try:
        ps = np.arange(p_min, p_max + 0.5 * step, step)
    except (ValueError, MemoryError):  # more rows than numpy can allocate
        raise ValueError(
            f"step {step!r} gives too many rows over [{p_min!r}, {p_max!r}]"
        ) from None
    if ps.size < 3:
        raise ValueError(f"need at least 3 samples, got {ps.size}")
    areas = np.array([wp_area(float(p)).area for p in ps])
    dp = ps - P_REG
    design = np.column_stack([dp * dp, dp])
    coeffs, _, _, _ = np.linalg.lstsq(design, areas, rcond=None)
    resid = float(np.linalg.norm(design @ coeffs - areas))
    return (
        float(coeffs[0]), float(coeffs[1]), resid,
        tuple(float(p) for p in ps), tuple(float(x) for x in areas),
    )
