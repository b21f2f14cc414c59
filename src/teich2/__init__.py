"""Two-parameter family of genus-2 hyperbolic octagons.

Poincare-disk geometry of a symmetric hyperbolic octagon, its side-pairing
Fuchsian group, Fenchel-Nielsen coordinates with the Weil-Petersson form,
and isoperimetric orbits with enclosed WP areas.  Every derived quantity is
exposed through at least two independent computation routes so the library
can cross-check itself; the ``validate`` CLI subcommand runs the full suite.
"""

from __future__ import annotations

from .errors import DomainError, NumericalError, OutOfDomainError
from .fenchel_nielsen import (
    PantsData,
    fn_lengths,
    fn_twists,
    lt_relations_check,
    pants_data,
    trace_params,
    wolpert_summands,
    wp_coefficient,
)
from .group import (
    GeneratorSet,
    GroupBall,
    ball,
    cells,
    generators,
    relation_defect,
    side_pairing_check,
)
from .hyperbolic import dist
from .isoperimetric import (
    A_REG,
    E_REG,
    P_REG,
    a_extremes,
    asymptotic_orbit,
    e_of_p,
    orbit_point,
    orbit_samples,
    p_of_e,
    parabola_fit,
    wp_area,
    wp_area_contour,
)
from .octagon import (
    OctagonForms,
    OctagonParams,
    build_geometry,
    in_octagon,
    perimeter,
)
from .validation import run_validation

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "A_REG",
    "E_REG",
    "P_REG",
    "DomainError",
    "GeneratorSet",
    "GroupBall",
    "NumericalError",
    "OctagonForms",
    "OctagonParams",
    "OutOfDomainError",
    "PantsData",
    "a_extremes",
    "asymptotic_orbit",
    "ball",
    "build_geometry",
    "cells",
    "dist",
    "e_of_p",
    "fn_lengths",
    "fn_twists",
    "generators",
    "in_octagon",
    "lt_relations_check",
    "orbit_point",
    "orbit_samples",
    "p_of_e",
    "pants_data",
    "parabola_fit",
    "perimeter",
    "relation_defect",
    "run_validation",
    "side_pairing_check",
    "trace_params",
    "wolpert_summands",
    "wp_area",
    "wp_area_contour",
    "wp_coefficient",
]
