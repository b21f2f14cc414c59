"""Exception types shared across the library.

Their ``index`` follows one rule: a refusal that ``_elementwise.first_true``
found carries the flat index (C order) of its element in the tested arrays
broadcast together, 0 for a number (for ``group.ball``, the word's position
in the ball); it is None only where no elementwise test raised: ``e_of_p``,
``wp_area``, a math domain error of one number, and the CLI's kappa guard and
orbit-point message.
"""

from __future__ import annotations

__all__ = [
    "DomainError",
    "OutOfDomainError",
    "NumericalError",
]


class _Indexed(Exception):
    """An error with a message and an ``index``, by the module's rule."""

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        super().__init__(message)


class DomainError(_Indexed, ValueError):
    """A quantity left the region where the formulas hold, at the module's ``index``."""


class OutOfDomainError(DomainError):
    """Octagon parameters violate the admissible region.

    ``which`` names the violated inequality (``lower_a``, ``upper_a`` or
    ``alpha_range``); ``bound`` is the offending bound and ``value`` the
    rejected input, at the module's ``index``.
    """

    def __init__(self, which: str, bound: float, value: float, index: int | None = None):
        self.which = which
        self.bound = bound
        self.value = value
        super().__init__(f"{which}: value {value!r} violates bound {bound!r}", index)


class NumericalError(_Indexed, RuntimeError):
    """Numerical breakdown (no convergence, overflow, cancellation) at the module's ``index``."""
