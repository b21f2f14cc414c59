"""Two-parameter family of genus-2 hyperbolic octagons.

Poincare-disk geometry of a symmetric hyperbolic octagon, its side-pairing
Fuchsian group, Fenchel-Nielsen coordinates with the Weil-Petersson form,
and isoperimetric orbits with enclosed WP areas.  Every derived quantity is
exposed through at least two independent computation routes so the library
can cross-check itself; the ``validate`` CLI subcommand runs the full suite.
"""

from __future__ import annotations

from .errors import DomainError, NumericalError, OutOfDomainError
from .group import GroupBall, ball, cells, generators, side_pairing_check
from .hyperbolic import dist
from .isoperimetric import (
    A_REG,
    E_REG,
    P_REG,
    a_extremes,
    asymptotic_orbit,
    e_of_p,
    parabola_fit,
    wp_area,
    wp_area_fn,
)
from .octagon import (
    OctagonForms,
    OctagonParams,
    build_geometry,
    in_octagon,
)
from .validation import run_validation

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "A_REG",
    "E_REG",
    "P_REG",
    "DomainError",
    "GroupBall",
    "NumericalError",
    "OctagonForms",
    "OctagonParams",
    "OutOfDomainError",
    "a_extremes",
    "asymptotic_orbit",
    "ball",
    "build_geometry",
    "cells",
    "dist",
    "e_of_p",
    "generators",
    "in_octagon",
    "parabola_fit",
    "run_validation",
    "side_pairing_check",
    "wp_area",
    "wp_area_fn",
]
