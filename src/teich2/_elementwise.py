"""Elementary functions for closed forms written once, for one point and for arrays.

Each function takes numpy arrays, evaluated elementwise by numpy, or
Python numbers (and numpy scalars), evaluated by ``math`` and ``cmath``.
A form written with them is thus one pass over the arrays of a whole
parameter grid, and at one point a plain-Python computation of a few
microseconds, which keeps the scalar API as cheap as hand-written scalar
code.  The two evaluations agree to rounding: numpy's and the C library's
transcendental functions can differ in the last bit.

Complex arithmetic comes in two kinds, passed to a formula as an
``Arithmetic`` of (mul, div, abs2).  ``NATIVE`` is the operators: CPython's
rounding on numbers and numpy's complex loops on arrays, the fast choice.
numpy's loops fuse multiply-adds and have their own modulus, which moves the
last bit of about 40% of results.  ``CPYTHON`` evaluates arrays in CPython's
own complex arithmetic (textbook products, Smith's quotient, hypot then
pow) through real numpy operations, about ten times slower than ``NATIVE``,
and gives bit for bit what the numbers one at a time give.
"""

from __future__ import annotations

import cmath
import math
import operator
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "sqrt", "cos", "sin", "tan", "arctan", "arccos", "arcsinh", "arccosh", "cosh",
    "exp", "log", "maximum", "minimum", "where", "first_true", "Arithmetic", "NATIVE",
    "CPYTHON",
]


def _unary(real, complex_, array):
    def fn(x):
        if type(x) is float:  # the common case of one point, tested first
            return real(x)
        if isinstance(x, np.ndarray):
            return array(x)
        if isinstance(x, complex):
            return complex_(x)
        return real(x)

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


def _is_array(*xs) -> bool:
    return any(isinstance(x, np.ndarray) for x in xs)


def maximum(x, y):
    """Elementwise larger value; NaN wins, as with np.maximum."""
    if _is_array(x, y):
        return np.maximum(x, y)
    return x if x > y or x != x else y


def minimum(x, y):
    """Elementwise smaller value; NaN wins, as with np.minimum."""
    if _is_array(x, y):
        return np.minimum(x, y)
    return x if x < y or x != x else y


def where(cond, x, y):
    """x where cond holds, else y."""
    if _is_array(cond, x, y):
        return np.where(cond, x, y)
    return x if cond else y


def first_true(mask) -> int | None:
    """Flat index of the first true element of mask (C order), or None."""
    if isinstance(mask, np.ndarray):
        return int(np.argmax(mask)) if mask.any() else None
    return 0 if mask else None


def _parts(x):
    return np.real(x), np.imag(x)


def _complex_array(x, y) -> bool:
    return _is_array(x, y) and (np.iscomplexobj(x) or np.iscomplexobj(y))


def _complex(re, im) -> np.ndarray:
    # assembled from the parts, since re + 1j * im could flip the sign of a zero
    out = np.empty(np.broadcast(re, im).shape, complex)
    out.real, out.imag = re, im
    return out


def _mul(x, y):
    """x * y; arrays by CPython's (a + bi)(c + di) = (ac - bd) + (ad + bc)i."""
    if not _complex_array(x, y):
        return x * y
    (xr, xi), (yr, yi) = _parts(x), _parts(y)
    return _complex(xr * yr - xi * yi, xr * yi + xi * yr)


def _div(x, y):
    """x / y; arrays by CPython's Smith quotient, scaled by the larger part of y."""
    if not _complex_array(x, y):
        return x / y
    (xr, xi), (yr, yi) = _parts(x), _parts(y)
    wide = abs(yr) >= abs(yi)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(wide, yi / yr, yr / yi)
        denom = np.where(wide, yr + yi * ratio, yr * ratio + yi)
        re = np.where(wide, xr + xi * ratio, xr * ratio + xi) / denom
        im = np.where(wide, xi - xr * ratio, xi * ratio - xr) / denom
    return _complex(re, im)


def _abs2(x):
    """abs(x) ** 2 as operators compute it."""
    return abs(x) ** 2


def _abs2_cpython(x):
    """abs(x) ** 2; arrays by hypot, then pow, as CPython rounds them."""
    if not isinstance(x, np.ndarray):
        return abs(x) ** 2
    return np.float_power(np.hypot(*_parts(x)), 2.0)


class Arithmetic(NamedTuple):
    """Complex product, quotient and squared modulus for one formula."""

    mul: Callable
    div: Callable
    abs2: Callable


NATIVE = Arithmetic(operator.mul, operator.truediv, _abs2)
CPYTHON = Arithmetic(_mul, _div, _abs2_cpython)
