"""Invariant suite over a parameter grid, backing the validate subcommand.

Every cross-check stated by the library modules is exercised here: group
relation and discreteness margins, the triple construction of the
generators, side pairings, Fenchel-Nielsen consistency, the Wolpert form,
L/T relations, both perimeter routes with interior angles, isoperimetric
orbit behavior, and the two independent area routes.  Each identity
is written once, in the per-point ``CHECKS`` table or in ``_ONCE_CHECKS``,
which the acceptance tests call too.  The per-point identities take the
whole grid at once, as numpy arrays, through the same closed forms that the
scalar API evaluates at one point; each block of points computes its
octagon forms, half turns and generators once, in a ``PointBlock`` that its
checks share; a check that refuses a block reads inf there.  The result is
a JSON-ready report with one entry per check.

By Poincare's polygon theorem (Maskit, Adv. Math. 7, 1971; Beardon, The
Geometry of Discrete Groups, 1983, sec. 9.8) the octagon is a fundamental
domain of the group its side pairings generate when three conditions hold,
and each is checked exactly at every grid point: g_k maps side k+4 onto
side k (``side_pairing``), the vertex cycle's angles sum to 2 pi
(``interior_angles``), and g_k carries the octagon across side k
(``side_pairing_interior``, which counts the maps g_k, g_k^-1 whose image of
the centre 0 is not strictly inside the side circle it must cross).

Five checks judge identities proven for every point of the domain
(tests/test_certificates.py), so their residuals measure rounding only:
``relation_defect``, ``side_pairing``, ``side_pairing_interior``,
``triple_agreement`` (M_k M_5 = H(p_k) = g_k with one sign, so ``su_gap``'s
minimum over the global sign always takes its + branch) and
``generator_traces`` (|tr g_k| >= 2 sqrt2); ``triple_agreement`` measures
the rounding of the forms' chart, with no vertex-based omega route.  Three
checks test the code against itself: ``wolpert_k3`` and the tau3 entry of
``lt_relations`` are 0.0 at every point, as ``_fn_forms`` gives l3 = 2 tau3
exactly, and ``ball_counts`` can fail only by ``ball`` refusing at its
probe point.  The rest are numerical.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import isoperimetric as iso
from .errors import NumericalError
from .fenchel_nielsen import (
    _fn_forms,
    _rel,
    d_closed_forms,
    dt_residuals,
    lt_forms,
    pants_forms,
    wolpert_forms,
    wp_coefficient_raw,
)
from .group import (
    BALL_SIZES,
    ball,
    crossing_violations,
    generator_pairs,
    half_turns,
    pairing_residuals,
    relation_defect,
)
from .hyperbolic import dist, su_gap, su_mul, translation_pair
from .octagon import (
    OctagonForms,
    b_of,
    grid_arrays,
    octagon_forms,
    perimeter_ab,
    vertex_angles,
    vertex_sum,
)

__all__ = ["CHECKS", "DEFAULT_TOLERANCES", "PointBlock", "point_block", "run_validation"]

DEFAULT_TOLERANCES: dict[str, float] = {
    "relation_defect": 1e-9,
    "generator_traces": 0.0,
    "triple_agreement": 1e-9,
    "side_pairing": 1e-9,
    "side_pairing_interior": 0.0,
    "fn_consistency": 1e-9,
    "wolpert_relative": 1e-10,
    "wolpert_k3": 1e-9,
    "lt_relations": 1e-9,
    "perimeter_routes": 1e-8,
    "interior_angles": 1e-8,
    "orbit_constancy": 1e-8,
    "orbit_mirror": 1e-12,
    "orbit_asymptote": 1e-3,
    "area_regular": 1e-10,
    "area_cross_check": 1e-12,
    "ball_counts": 0.0,
}

# perimeters at which validate compares the quadrature and contour areas
_AREA_P_STARS = (25.0, 41.0)

# grid points per pass through the per-point checks, one pass up to 45 x 45:
# its arrays take about 1.2 kB per point at their peak, 2.4 MB at 2048 points
_BLOCK = 2048


class PointBlock(NamedTuple):
    """Grid points (a, alpha_tilde) and the forms the per-point checks share."""

    a: np.ndarray
    at: np.ndarray
    forms: OctagonForms
    g: tuple
    m: tuple


def point_block(a: np.ndarray, at: np.ndarray) -> PointBlock:
    """The octagon_forms, generator_pairs and half_turns of (a, at), computed once."""
    forms = octagon_forms(a, at)
    return PointBlock(a, at, forms, generator_pairs(a, at), half_turns(forms))


def _relation(p: PointBlock) -> dict[str, np.ndarray]:
    min_trace = np.min([abs(2.0 * u.real) for u, _ in p.g], axis=0)
    return {
        "relation_defect": relation_defect(p.g),
        "generator_traces": np.maximum(0.0, 2.0 - min_trace),
    }


def _triple_agreement(p: PointBlock) -> dict[str, np.ndarray]:
    f, g, m = p.forms, p.g, p.m
    triple = 0.0
    for k in range(4):
        triple = np.maximum(triple, su_gap(g[k], su_mul(m[k], m[5])))
        triple = np.maximum(triple, su_gap(g[k], translation_pair(f.midpoints[k])))
    return {"triple_agreement": triple}


def _side_pairing(p: PointBlock) -> dict[str, np.ndarray]:
    f = p.forms
    endpoint, midpoint = pairing_residuals(f.vertices, f.midpoints, p.g)
    return {
        "side_pairing": np.maximum(endpoint, midpoint),
        "side_pairing_interior": crossing_violations(f.centres, f.r_plus, f.r_minus, p.g),
    }


def _fn_consistency(p: PointBlock) -> dict[str, np.ndarray]:
    a, at, f = p.a, p.at, p.forms
    pants = pants_forms(a, at, p.m)
    lengths, _, c, d, _ = pants
    p_plus, p_minus = f.midpoints[0], f.midpoints[1]
    pairs = [(c_k, np.cosh(0.5 * length)) for c_k, length in zip(c, lengths)]
    pairs += zip(d, d_closed_forms(a, at))
    pairs += [
        (lengths[0], 2.0 * dist(p_plus, p_minus)),
        (lengths[2], 2.0 * dist(0.0, a)),
        (_fn_forms(f.b, -at)[0], 2.0 * dist(1j * p_plus, p_minus)),
    ]
    # judged as |x - ref| / max(1, |ref|), as dt_residuals judges its identity
    res = [abs(_rel(x, ref)) for x, ref in pairs]
    return {"fn_consistency": np.max(res + list(dt_residuals(pants)), axis=0)}


def _wolpert(p: PointBlock) -> dict[str, np.ndarray]:
    coeff = wp_coefficient_raw(p.a, p.at)
    s, s_p = wolpert_forms(p.a, p.at)
    return {
        "wolpert_relative": np.maximum(abs(sum(s) - coeff), abs(sum(s_p) - coeff)) / coeff,
        "wolpert_k3": np.maximum(abs(s[2]), abs(s_p[2])) / coeff,
    }


def _lt_relations(p: PointBlock) -> dict[str, np.ndarray]:
    return {"lt_relations": np.abs(lt_forms(p.a, p.at)).max(axis=0)}


def _perimeter_and_angles(p: PointBlock) -> dict[str, np.ndarray]:
    f = p.forms
    ang0, ang1 = (vertex_angles(f.vertices, f.centres, k) for k in (0, 1))
    return {
        "perimeter_routes": abs(perimeter_ab(p.a, f.b) - vertex_sum(f.vertices)),
        "interior_angles": np.max([
            abs(ang0 - f.beta),
            abs(ang1 - (0.5 * math.pi - f.beta)),
            abs(4.0 * (ang0 + ang1) - 2.0 * math.pi),
        ], axis=0),
    }


def _orbit_constancy() -> dict[str, float]:
    # the nine orbits in one pass: a row of 256 samples per perimeter
    p_targets = np.array(iso._ORBIT_PERIMETERS)[:, None]
    e = np.array([iso.e_of_p(p) for p in iso._ORBIT_PERIMETERS])[:, None]
    a, at = iso.orbit_forms(e, iso._phases(256))
    p_check = perimeter_ab(a, b_of(a, at))
    constancy = float(np.max(np.max(abs(p_check - p_targets), axis=1) / p_targets[:, 0]))
    # sample j mirrors sample 256 - j across alpha_tilde = 0
    mirror = max(float(np.max(abs(a[:, 1:] - a[:, :0:-1]))),
                 float(np.max(abs(at[:, 1:] + at[:, :0:-1]))))
    return {"orbit_constancy": constancy, "orbit_mirror": mirror}


def _orbit_asymptote() -> dict[str, float]:
    phi = (np.arange(256) + 0.5) * 2.0 * math.pi / 256.0
    a, at = iso.orbit_forms(iso.e_of_p(200.0), phi)
    a_inf, at_inf = iso.asymptotic_orbit(phi)
    return {"orbit_asymptote": float(np.max(np.maximum(abs(a - a_inf), abs(at - at_inf))))}


def _area_regular() -> dict[str, float]:
    return {"area_regular": abs(iso.wp_area(iso.P_REG).area)}


def _area_cross_check(p_stars: tuple[float, ...] = _AREA_P_STARS) -> dict[str, float]:
    dev = 0.0
    for p_star in p_stars:
        quad_area = iso.wp_area(p_star).area
        contour_area = iso.wp_area_contour(p_star)
        dev = max(dev, abs(contour_area - quad_area) / quad_area)
    return {"area_cross_check": dev}


# Each entry is keyed by the first DEFAULT_TOLERANCES name its function
# reports and returns {name: residual} for the one or two next names.  CHECKS take
# the point_block of grid points in the domain and return one residual array
# per name; _ONCE_CHECKS run once, and area_cross_check takes the perimeters
# to compare at (_AREA_P_STARS by default).  The probe-point check
# ball_counts lives in run_validation.
CHECKS = {
    "relation_defect": _relation,
    "triple_agreement": _triple_agreement,
    "side_pairing": _side_pairing,
    "fn_consistency": _fn_consistency,
    "wolpert_relative": _wolpert,
    "lt_relations": _lt_relations,
    "perimeter_routes": _perimeter_and_angles,
}
_ONCE_CHECKS = {
    "orbit_constancy": _orbit_constancy,
    "orbit_asymptote": _orbit_asymptote,
    "area_regular": _area_regular,
    "area_cross_check": _area_cross_check,
}


def _reported(key: str) -> list[str]:
    """The names the CHECKS entry ``key`` reports: DEFAULT_TOLERANCES from
    ``key`` up to the key of the next entry of CHECKS or _ONCE_CHECKS."""
    names = list(DEFAULT_TOLERANCES)[list(DEFAULT_TOLERANCES).index(key):]
    ends = [k for k, name in enumerate(names) if k and (name in CHECKS or name in _ONCE_CHECKS)]
    return names[:ends[0]]


def _per_point_worst(a: np.ndarray, at: np.ndarray) -> dict[str, float]:
    """Largest residual of each per-point check over the grid points (a, at).

    The points go through CHECKS in blocks of _BLOCK, which bounds the
    arrays held at once, and the checks of a block share its point_block.  A
    check's NumericalError sets every name it reports to inf for the block.
    One with an index from point_block, where the block's forms broke, is
    raised again naming the grid point before the form's own message.
    """
    worst: dict[str, list] = {}
    for start in range(0, a.size, _BLOCK):
        # where the forms lose every digit, as at margins of 1e-14 and
        # below, a residual is inf or NaN and fails its check, silently
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            try:
                block = point_block(a[start:start + _BLOCK], at[start:start + _BLOCK])
            except NumericalError as exc:
                if exc.index is None:
                    raise
                k = start + exc.index
                raise NumericalError(f"point_block at grid point a={float(a[k])!r}, "
                                     f"alpha_tilde={float(at[k])!r}: {exc}", k) from None
            for key, check in CHECKS.items():
                try:
                    residuals = {name: r.max() for name, r in check(block).items()}
                except NumericalError:  # as vertex_sum's odd vertex on |z| = 1
                    residuals = dict.fromkeys(_reported(key), math.inf)
                for name, r in residuals.items():
                    worst.setdefault(name, []).append(r)
    # np.max, unlike max(), lets a NaN residual through to fail its check
    return {name: float(np.max(values)) for name, values in worst.items()}


def run_validation(n_a: int, n_alpha: int, margin: float, seed: int) -> dict:
    """Run every invariant check against DEFAULT_TOLERANCES on the n_a x
    n_alpha grid_arrays at ``margin``, and return a JSON-ready report.  A
    ``ball`` refusal at the probe point fails ``ball_counts``.

    ``seed`` is echoed in the report and used by no check: it stays for the
    teich2/v1 report schema.
    """
    a, at = grid_arrays(n_a, n_alpha, margin)
    results = _per_point_worst(a, at)

    for check in _ONCE_CHECKS.values():
        results.update(check())

    probe = generator_pairs(float(a[a.size // 2]), float(at[a.size // 2]))
    try:  # ball refuses an element past the float64 precision limit
        counts_ok = (len(ball(generator_pairs(iso.A_REG, 0.0), 1)) == BALL_SIZES[1]
                     and len(ball(probe, 2)) == BALL_SIZES[2])
    except ValueError:
        counts_ok = False
    results["ball_counts"] = 0.0 if counts_ok else 1.0

    checks = [
        {"name": name, "max_residual": results[name], "tolerance": tol,
         "passed": bool(results[name] <= tol)}
        for name, tol in DEFAULT_TOLERANCES.items()
    ]
    return {
        "grid": {"n_a": n_a, "n_alpha": n_alpha, "margin": margin},
        "points": int(a.size),
        "seed": seed,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
