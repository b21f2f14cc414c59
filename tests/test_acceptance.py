"""Acceptance gate: twelve numbered criteria, one test per criterion.

Each test times its own workload, records a PASS/FAIL line for the
terminal summary, and asserts. Grid criteria share the 20 x 20
margin-0.02 parameter grid from conftest.
"""

import math
import time

import numpy as np
from conftest import record

from teich2.fenchel_nielsen import pants_forms
from teich2.group import BALL_SIZES, ball, generators, half_turns
from teich2.hyperbolic import su_gap
from teich2.isoperimetric import A_REG, E_REG, P_REG, e_of_p, parabola_fit
from teich2.octagon import OctagonParams, b_of, octagon_forms, perimeter_ab
from teich2.validation import _ONCE_CHECKS, CHECKS, point_block

C1_COEFF = 0.05622
C2_COEFF = 2.62132


def grid_worst(grid, name):
    """Largest residual of each name the CHECKS entry reports over the grid
    arrays (a, alpha_tilde), evaluated in one batch as validate does."""
    return {key: float(np.max(r)) for key, r in CHECKS[name](point_block(*grid)).items()}


def test_criterion_01_regular_constants():
    desc = "regular octagon constants (P, E, a, twist), < 1 s"
    t0 = time.perf_counter()
    reg = OctagonParams(A_REG, 0.0)
    residuals = {
        "P": abs(P_REG - 24.45713),
        "P_closed": abs(perimeter_ab(reg.a, b_of(reg.a, reg.alpha_tilde)) - P_REG),
        "E": abs(E_REG - (12.0 + 8.0 * math.sqrt(2.0))),
        # E = 4a^2/((1-a^2)(2a^2-1)) on the locus alpha_tilde = 0
        "E_of_a": abs(4.0 * A_REG**2 / ((1.0 - A_REG**2) * (2.0 * A_REG**2 - 1.0)) - E_REG),
        "E_of_P": abs(e_of_p(P_REG) - E_REG),
        "a": abs(A_REG - 2.0 ** -0.25),
        "tau1": abs(pants_forms(reg.a, reg.alpha_tilde,
                                half_turns(octagon_forms(reg.a, reg.alpha_tilde)))[1][0]),
    }
    elapsed = time.perf_counter() - t0
    ok = (
        residuals["P"] <= 1e-4
        and residuals["P_closed"] <= 1e-9
        and residuals["E"] <= 1e-9
        and residuals["E_of_a"] <= 1e-9
        and residuals["E_of_P"] <= 1e-9
        and residuals["a"] <= 1e-12
        and residuals["tau1"] <= 1e-9
        and elapsed < 1.0
    )
    record(1, desc, ok, f"dP={residuals['P']:.2e} t={elapsed:.2f}s")
    assert ok, residuals


def test_criterion_02_relation_and_traces(acceptance_grid):
    desc = "group relation defect <= 1e-9, all traces hyperbolic, < 5 s"
    t0 = time.perf_counter()
    worst_defect = grid_worst(acceptance_grid, "relation_defect")["relation_defect"]
    min_excess = math.inf
    for a, at in zip(*(x.tolist() for x in acceptance_grid)):
        gens = generators(OctagonParams(a, at))
        min_excess = min(min_excess, min(abs(2.0 * u.real) for u, _ in gens) - 2.0)
    elapsed = time.perf_counter() - t0
    ok = worst_defect <= 1e-9 and min_excess > 0.0 and elapsed < 5.0
    record(2, desc, ok, f"defect={worst_defect:.2e} t={elapsed:.2f}s")
    assert ok, (worst_defect, min_excess, elapsed)


def test_criterion_03_triple_construction(acceptance_grid):
    desc = "generators match product and half-turn routes, <= 1e-9"
    t0 = time.perf_counter()
    worst = grid_worst(acceptance_grid, "triple_agreement")["triple_agreement"]
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9
    record(3, desc, ok, f"gap={worst:.2e} t={elapsed:.2f}s")
    assert ok, worst


def test_criterion_04_side_pairing(acceptance_grid):
    desc = "side pairing: endpoints and opposite midpoints, <= 1e-9; crossing exact"
    t0 = time.perf_counter()
    worst = grid_worst(acceptance_grid, "side_pairing")
    worst_res, crossing = worst["side_pairing"], worst["side_pairing_interior"]
    elapsed = time.perf_counter() - t0
    ok = worst_res <= 1e-9 and crossing == 0
    record(4, desc, ok, f"res={worst_res:.2e} crossing={crossing:.0f} t={elapsed:.2f}s")
    assert ok, (worst_res, crossing)


def test_criterion_05_fn_consistency(acceptance_grid):
    desc = "half-trace, d-param, and twist identities, <= 1e-9"
    t0 = time.perf_counter()
    worst = grid_worst(acceptance_grid, "fn_consistency")["fn_consistency"]
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9
    record(5, desc, ok, f"res={worst:.2e} t={elapsed:.2f}s")
    assert ok, worst


def test_criterion_06_wolpert_form(acceptance_grid):
    desc = "symplectic sum matches 8a/((1-a^2)(2a^2cos^2-1)), rel <= 1e-10"
    t0 = time.perf_counter()
    worst = grid_worst(acceptance_grid, "wolpert_relative")
    worst_rel, worst_k3 = worst["wolpert_relative"], worst["wolpert_k3"]
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-10 and worst_k3 <= 1e-9
    record(6, desc, ok, f"rel={worst_rel:.2e} k3={worst_k3:.2e} t={elapsed:.2f}s")
    assert ok, (worst_rel, worst_k3)


def test_criterion_07_lt_relations(acceptance_grid):
    desc = "L/T polynomial relations across the pair, <= 1e-9"
    t0 = time.perf_counter()
    worst = grid_worst(acceptance_grid, "lt_relations")["lt_relations"]
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9
    record(7, desc, ok, f"res={worst:.2e} t={elapsed:.2f}s")
    assert ok, worst


def test_criterion_08_orbit_constancy():
    desc = "orbit perimeter constancy rel <= 1e-8, mirror <= 1e-12, < 5 s"
    t0 = time.perf_counter()
    res = _ONCE_CHECKS["orbit_constancy"]()
    worst_rel, worst_mirror = res["orbit_constancy"], res["orbit_mirror"]
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-8 and worst_mirror <= 1e-12 and elapsed < 5.0
    record(8, desc, ok, f"rel={worst_rel:.2e} mir={worst_mirror:.2e} t={elapsed:.2f}s")
    assert ok, (worst_rel, worst_mirror, elapsed)


def test_criterion_09_orbit_asymptote():
    desc = "P=200 orbit within 1e-3 of its limit curve"
    t0 = time.perf_counter()
    worst = _ONCE_CHECKS["orbit_asymptote"]()["orbit_asymptote"]
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3
    record(9, desc, ok, f"sup={worst:.2e} t={elapsed:.2f}s")
    assert ok, worst


def test_criterion_10_wp_areas():
    desc = "areas: zero at P_reg, quad vs contour rel <= 1e-12, parabola fit, < 60 s"
    t0 = time.perf_counter()
    at_reg = _ONCE_CHECKS["area_regular"]()["area_regular"]
    worst_rel = _ONCE_CHECKS["area_cross_check"]((25.0, 30.0, 35.0, 41.0))[
        "area_cross_check"
    ]
    c1, c2, *_ = parabola_fit(P_REG, 41.0, 0.5)
    c1_rel = abs(c1 - C1_COEFF) / C1_COEFF
    c2_rel = abs(c2 - C2_COEFF) / C2_COEFF
    elapsed = time.perf_counter() - t0
    ok = (
        at_reg <= 1e-10
        and worst_rel <= 1e-12
        and c1_rel <= 0.10
        and c2_rel <= 0.03
        and elapsed < 60.0
    )
    record(
        10,
        desc,
        ok,
        f"rel={worst_rel:.2e} c1={c1_rel:.1%} c2={c2_rel:.1%} t={elapsed:.2f}s",
    )
    assert ok, (at_reg, worst_rel, c1_rel, c2_rel, elapsed)


def test_criterion_11_ball_counts():
    desc = "ball sizes 9 and 65, deterministic rerun, ball(4) < 10 s"
    gens = generators(OctagonParams(A_REG, 0.0))
    b1 = ball(gens, 1)
    b2 = ball(gens, 2)
    rerun = ball(gens, 2)
    t0 = time.perf_counter()
    b4 = ball(gens, 4)
    elapsed = time.perf_counter() - t0
    ok = (
        len(b1) == BALL_SIZES[1]
        and len(b2) == BALL_SIZES[2]
        and b2.shortlex == rerun.shortlex
        and np.all(su_gap((b2.u, b2.v), (rerun.u, rerun.v)) == 0)
        and elapsed < 10.0
    )
    record(11, desc, ok, f"|ball(4)|={len(b4)} t={elapsed:.2f}s")
    assert ok, (len(b1), len(b2), len(b4), elapsed)


def test_criterion_12_perimeter_and_angles(acceptance_grid):
    desc = "perimeter routes and interior angles agree, <= 1e-8"
    t0 = time.perf_counter()
    worst = grid_worst(acceptance_grid, "perimeter_routes")
    worst_p, worst_ang = worst["perimeter_routes"], worst["interior_angles"]
    elapsed = time.perf_counter() - t0
    ok = worst_p <= 1e-8 and worst_ang <= 1e-8
    record(12, desc, ok, f"dP={worst_p:.2e} dang={worst_ang:.2e} t={elapsed:.2f}s")
    assert ok, (worst_p, worst_ang)
