"""Exception types shared across the library."""

from __future__ import annotations

__all__ = [
    "DomainError",
    "OutOfDomainError",
    "NumericalError",
]


class DomainError(ValueError):
    """A quantity left the region where the defining formulas are valid."""


class OutOfDomainError(DomainError):
    """Octagon parameters violate the admissible region.

    ``which`` names the violated inequality (``lower_a``, ``upper_a`` or
    ``alpha_range``); ``bound`` is the offending bound and ``value`` the
    rejected input.
    """

    def __init__(self, which: str, bound: float, value: float):
        self.which = which
        self.bound = bound
        self.value = value
        super().__init__(f"{which}: value {value!r} violates bound {bound!r}")


class NumericalError(RuntimeError):
    """A computation broke down numerically: no convergence, overflow, or cancellation.

    ``index`` is the flat position of the first failing element when the
    computation ran over an array, and None otherwise.
    """

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        super().__init__(message)
