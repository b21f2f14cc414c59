"""Elementary functions for closed forms written once, for one point and for arrays.

Each function takes numpy arrays, evaluated elementwise by numpy, or
Python numbers (and numpy scalars), evaluated by ``math`` and ``cmath``.
A form written with them is thus one pass over the arrays of a whole
parameter grid, and at one point a plain-Python computation of a few
microseconds, which keeps the scalar API as cheap as hand-written scalar
code.  The two evaluations agree to rounding: numpy's and the C library's
transcendental functions can differ in the last bit.  Complex products,
quotients and moduli are the operators, CPython's on numbers and numpy's
loops on arrays; numpy chooses its loops by CPU at run time, and they may
fuse multiply-adds, so array results can move in the last bits between
machines.  A math or cmath domain error, as from a square root of a
rounded negative number, is raised as NumericalError.  A form's error says
what broke and, over arrays, its flat ``index``; the caller names the point.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import NumericalError

__all__ = [
    "sqrt", "cos", "sin", "tan", "arctan", "arccos", "arcsinh", "arccosh", "cosh",
    "exp", "log", "maximum", "minimum", "where", "first_true", "require_positive",
]


def _unary(real, complex_, array):
    def fn(x):
        try:
            if type(x) is float:  # the common case of one point, tested first
                return real(x)
            if isinstance(x, np.ndarray):
                return array(x)
            if isinstance(x, complex):
                return complex_(x)
            return real(x)
        except ValueError as exc:  # math and cmath: an argument outside the domain
            raise NumericalError(f"{fn.__name__}({x!r}): {exc}") from None

    fn.__name__ = array.__name__
    return fn


sqrt = _unary(math.sqrt, cmath.sqrt, np.sqrt)
cos = _unary(math.cos, cmath.cos, np.cos)
sin = _unary(math.sin, cmath.sin, np.sin)
tan = _unary(math.tan, cmath.tan, np.tan)
arctan = _unary(math.atan, cmath.atan, np.arctan)
arccos = _unary(math.acos, cmath.acos, np.arccos)
arcsinh = _unary(math.asinh, cmath.asinh, np.arcsinh)
arccosh = _unary(math.acosh, cmath.acosh, np.arccosh)
cosh = _unary(math.cosh, cmath.cosh, np.cosh)
exp = _unary(math.exp, cmath.exp, np.exp)
log = _unary(math.log, cmath.log, np.log)


def maximum(x, y):
    """Elementwise larger value; NaN wins, as with np.maximum."""
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.maximum(x, y)
    return x if x > y or x != x else y


def minimum(x, y):
    """Elementwise smaller value; NaN wins, as with np.minimum."""
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.minimum(x, y)
    return x if x < y or x != x else y


def where(cond, x, y):
    """x where cond holds, else y."""
    if isinstance(cond, np.ndarray) or isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.where(cond, x, y)
    return x if cond else y


def first_true(mask) -> int | None:
    """Flat index of the first true element of mask (C order), or None."""
    if isinstance(mask, np.ndarray):
        return int(np.argmax(mask)) if mask.any() else None
    return 0 if mask else None


def require_positive(x, name: str):
    """x, or NumericalError naming ``name`` and the value at the first element
    (C order) that is not > 0, NaN included, with that element's index."""
    k = first_true(where(x > 0.0, False, True))
    if k is not None:
        raise NumericalError(f"{name} = {np.ravel(x)[k].item()!r} is not > 0", k)
    return x
