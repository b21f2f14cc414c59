"""Invariant suite over a parameter grid, backing the validate subcommand.

Every cross-check stated by the library modules is exercised here: group
relation and discreteness margins, the triple construction of the
generators, side pairings, Fenchel-Nielsen consistency, the Wolpert form,
L/T relations, both perimeter routes with interior angles, isoperimetric
orbit behavior, and the two independent area integrations.  Each identity
is written once, in the ``CHECKS`` table, which the acceptance tests call
too.  The result is a JSON-ready report with one entry per check.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from . import isoperimetric as iso
from .fenchel_nielsen import (
    d_closed,
    dt_residuals,
    lt_relations_check,
    pants_data,
    wp_coefficient,
    wp_fd_check,
)
from .group import (
    BALL_SIZES,
    GeneratorSet,
    ball,
    generators,
    m_matrices,
    omega_table,
    relation_defect,
    side_pairing_check,
)
from .hyperbolic import dist, translation
from .octagon import (
    OctagonGeometry,
    OctagonParams,
    build_geometry,
    domain_grid,
    interior_angles_numeric,
    perimeter,
    perimeter_numeric,
)

__all__ = ["CHECKS", "DEFAULT_TOLERANCES", "run_validation"]

DEFAULT_TOLERANCES: dict[str, float] = {
    "relation_defect": 1e-9,
    "generator_traces": 0.0,
    "triple_agreement": 1e-9,
    "side_pairing": 1e-9,
    "side_pairing_interior": 0.0,
    "fn_consistency": 1e-9,
    "wolpert_relative": 1e-5,
    "wolpert_k3": 1e-9,
    "lt_relations": 1e-9,
    "perimeter_routes": 1e-8,
    "interior_angles": 1e-8,
    "orbit_constancy": 1e-8,
    "orbit_mirror": 1e-12,
    "orbit_asymptote": 1e-3,
    "area_regular": 1e-10,
    "area_cross_check": 1e-9,
    "ball_counts": 0.0,
}

# perimeters at which validate compares the quadrature and grid areas
_AREA_P_STARS = (25.0, 41.0)


def _relation(
    params: OctagonParams, geom: OctagonGeometry, gens: GeneratorSet
) -> dict[str, float]:
    return {
        "relation_defect": relation_defect(gens).defect,
        "generator_traces": max(0.0, 2.0 - min(abs(g.trace) for g in gens.g)),
    }


def _triple_agreement(
    params: OctagonParams, geom: OctagonGeometry, gens: GeneratorSet
) -> dict[str, float]:
    mm = m_matrices(geom)
    omegas = omega_table(geom)
    triple = 0.0
    for k in range(4):
        pk = omegas[k] / (1.0 + math.sqrt(1.0 - abs(omegas[k]) ** 2))
        triple = max(triple, gens.g[k].projective_gap(mm[k] @ mm[5]))
        triple = max(triple, gens.g[k].projective_gap(translation(pk)))
    return {"triple_agreement": triple}


def _side_pairing(
    params: OctagonParams, geom: OctagonGeometry, gens: GeneratorSet
) -> dict[str, float]:
    sp = side_pairing_check(geom, gens, samples=0)
    return {"side_pairing": max(sp.endpoint_residual, sp.midpoint_residual)}


def _fn_consistency(
    params: OctagonParams, geom: OctagonGeometry, gens: GeneratorSet
) -> dict[str, float]:
    data, data_p = pants_data(params), pants_data(params, primed=True)
    p_plus, p_minus = complex(geom.p_plus), complex(geom.p_minus)
    pairs = [(c, math.cosh(0.5 * length)) for c, length in zip(data.c, data.lengths)]
    pairs += zip(data.d, d_closed(params))
    pairs += [
        (data.lengths[0], 2.0 * dist(p_plus, p_minus)),
        (data.lengths[2], 2.0 * dist(0.0, params.a)),
        (data_p.lengths[0], 2.0 * dist(1j * p_plus, p_minus)),
    ]
    # judged as |x - ref| / max(1, |ref|), as dt_residuals judges its identity
    res = [abs(x - ref) / max(1.0, abs(ref)) for x, ref in pairs]
    return {"fn_consistency": max(res + list(dt_residuals(data)))}


def _wolpert(
    params: OctagonParams, geom: OctagonGeometry, gens: GeneratorSet
) -> dict[str, float]:
    coeff = wp_coefficient(params)
    chk = wp_fd_check(params)
    chk_p = wp_fd_check(params, primed=True)
    return {
        "wolpert_relative": max(
            abs(chk.value - coeff) / coeff, abs(chk_p.value - coeff) / coeff
        ),
        "wolpert_k3": max(abs(chk.summands[2]), abs(chk_p.summands[2])),
    }


def _lt_relations(
    params: OctagonParams, geom: OctagonGeometry, gens: GeneratorSet
) -> dict[str, float]:
    return {"lt_relations": lt_relations_check(params).max_residual}


def _perimeter_and_angles(
    params: OctagonParams, geom: OctagonGeometry, gens: GeneratorSet
) -> dict[str, float]:
    ang0, ang1 = interior_angles_numeric(geom)
    return {
        "perimeter_routes": abs(perimeter(params) - perimeter_numeric(geom)),
        "interior_angles": max(
            abs(ang0 - geom.beta),
            abs(ang1 - (0.5 * math.pi - geom.beta)),
            abs(4.0 * (ang0 + ang1) - 2.0 * math.pi),
        ),
    }


def _orbit_constancy() -> dict[str, float]:
    constancy = 0.0
    mirror = 0.0
    for p_target in range(25, 42, 2):
        e = iso.e_of_p(float(p_target))
        samples = iso.orbit_samples(e, 256)
        for s in samples:
            constancy = max(
                constancy, abs(perimeter(s.params) - p_target) / p_target
            )
        for j in range(1, 129):
            left, right = samples[j], samples[256 - j]
            mirror = max(
                mirror,
                abs(left.a - right.a),
                abs(left.alpha_tilde + right.alpha_tilde),
            )
    return {"orbit_constancy": constancy, "orbit_mirror": mirror}


def _orbit_asymptote() -> dict[str, float]:
    e200 = iso.e_of_p(200.0)
    sup = 0.0
    for j in range(256):
        phi = (j + 0.5) * 2.0 * math.pi / 256.0
        s = iso.orbit_point(e200, phi)
        a_inf, at_inf = iso.asymptotic_orbit(phi)
        sup = max(sup, abs(s.a - a_inf), abs(s.alpha_tilde - at_inf))
    return {"orbit_asymptote": sup}


def _area_regular() -> dict[str, float]:
    return {"area_regular": abs(iso.wp_area(iso.P_REG).area)}


def _area_cross_check(p_stars: tuple[float, ...]) -> dict[str, float]:
    dev = 0.0
    for p_star in p_stars:
        quad_area = iso.wp_area(p_star).area
        grid_area = iso.wp_area_grid(p_star)
        dev = max(dev, abs(grid_area - quad_area) / quad_area)
    return {"area_cross_check": dev}


class _Check(NamedTuple):
    per_point: bool
    fn: Callable[..., dict[str, float]]


# Each entry is keyed by the first DEFAULT_TOLERANCES name its function
# reports and returns {name: residual} for one or two names.  Per-point
# functions take (params, geom, gens) of one grid point; the others run once,
# and area_cross_check takes the perimeters to compare at.  The probe-point
# checks side_pairing_interior and ball_counts live in run_validation.
CHECKS: dict[str, _Check] = {
    "relation_defect": _Check(True, _relation),
    "triple_agreement": _Check(True, _triple_agreement),
    "side_pairing": _Check(True, _side_pairing),
    "fn_consistency": _Check(True, _fn_consistency),
    "wolpert_relative": _Check(True, _wolpert),
    "lt_relations": _Check(True, _lt_relations),
    "perimeter_routes": _Check(True, _perimeter_and_angles),
    "orbit_constancy": _Check(False, _orbit_constancy),
    "orbit_asymptote": _Check(False, _orbit_asymptote),
    "area_regular": _Check(False, _area_regular),
    "area_cross_check": _Check(False, _area_cross_check),
}


def run_validation(
    n_a: int = 20,
    n_alpha: int = 20,
    margin: float = 0.02,
    seed: int = 0,
    tolerances: dict[str, float] | None = None,
) -> dict:
    """Run every invariant check and return a JSON-ready report."""
    tols = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(tols)
        if unknown:
            raise ValueError(f"unknown tolerance names: {sorted(unknown)}")
        tols.update(tolerances)

    grid = domain_grid(n_a, n_alpha, margin)
    if not grid:
        raise ValueError(f"grid {n_a} x {n_alpha} has no points")
    point_checks = [c.fn for c in CHECKS.values() if c.per_point]
    results: dict[str, float] = {}
    for params in grid:
        geom = build_geometry(params)
        gens = generators(params)
        for fn in point_checks:
            for name, residual in fn(params, geom, gens).items():
                results[name] = max(results.get(name, residual), residual)

    probe = grid[len(grid) // 2]
    sp = side_pairing_check(
        build_geometry(probe), generators(probe), samples=500, seed=seed
    )
    results["side_pairing_interior"] = float(sp.interior_violations)

    results.update(CHECKS["orbit_constancy"].fn())
    results.update(CHECKS["orbit_asymptote"].fn())
    results.update(CHECKS["area_regular"].fn())
    results.update(CHECKS["area_cross_check"].fn(_AREA_P_STARS))

    reg = OctagonParams(iso.A_REG, 0.0)
    counts_ok = (
        len(ball(generators(reg), 1)) == BALL_SIZES[1]
        and len(ball(generators(probe), 2)) == BALL_SIZES[2]
    )
    results["ball_counts"] = 0.0 if counts_ok else 1.0

    checks = []
    for name in DEFAULT_TOLERANCES:
        residual = results[name]
        tol = tols[name]
        checks.append(
            {
                "name": name,
                "max_residual": residual,
                "tolerance": tol,
                "passed": bool(residual <= tol),
            }
        )
    return {
        "grid": {"n_a": n_a, "n_alpha": n_alpha, "margin": margin},
        "points": len(grid),
        "seed": seed,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
