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
machines.  ``modulus`` is the one modulus that is the same on both: libm's
hypot, which is CPython's complex abs.  A math or cmath domain error, as from a square root of a
rounded negative number, is raised as NumericalError.  A refusal finds and
reads its element by ``first_true`` and says what broke there; the caller names the point.

numpy is loaded on first use: ``np`` is the module that every other module
of the package takes, and on Python numbers no function here touches it.
Each tests for a Python number by ``type(x) in _NUMBERS`` first; an array
or a numpy scalar exists only once numpy is loaded, so the tests after that
cost nothing.  ``import teich2`` and the point commands ``octagon`` and
``fn`` thus never run numpy's import, and a first array call does.  On
Python 3.11 the lazy module does not guard two threads that make their
first array call at once, so a threaded caller makes one before it starts
its threads.
"""

from __future__ import annotations

import cmath
import importlib.util
import math
import sys

from .errors import NumericalError

__all__ = [
    "sqrt", "cos", "sin", "tan", "arctan", "arccos", "arcsinh", "arccosh", "cosh",
    "log", "square", "modulus", "maximum", "minimum", "where", "first_true",
    "require_positive",
]


def _lazy(name: str):
    """The module ``name``, itself if it is imported already, else a module
    in ``sys.modules`` that runs its import on its first attribute access:
    the lazy import recipe of the importlib documentation.  Another module's
    ``import name`` reads the module's ``__spec__``, which runs the import."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy("numpy")

# the types of the Python numbers that the scalar routes take without numpy
_NUMBERS = (float, complex, int, bool)


def _unary(real, complex_, name):
    def fn(x):
        try:
            t = type(x)
            if t is float or t is int:  # the common case of one point, tested first
                return real(x)
            if t is complex:
                return complex_(x)
            if isinstance(x, np.ndarray):
                return getattr(np, name)(x)
            if isinstance(x, complex):
                return complex_(x)
            return real(x)
        except ValueError as exc:  # math and cmath: an argument outside the domain
            raise NumericalError(f"{name}({x!r}): {exc}") from None

    fn.__name__ = name
    return fn


sqrt = _unary(math.sqrt, cmath.sqrt, "sqrt")
cos = _unary(math.cos, cmath.cos, "cos")
sin = _unary(math.sin, cmath.sin, "sin")
tan = _unary(math.tan, cmath.tan, "tan")
arctan = _unary(math.atan, cmath.atan, "arctan")
arccos = _unary(math.acos, cmath.acos, "arccos")
arcsinh = _unary(math.asinh, cmath.asinh, "arcsinh")
arccosh = _unary(math.acosh, cmath.acosh, "arccosh")
cosh = _unary(math.cosh, cmath.cosh, "cosh")
log = _unary(math.log, cmath.log, "log")


def square(x):
    """x * x; inf where it overflows, for the caller to refuse."""
    if type(x) in _NUMBERS:
        return x * x
    with np.errstate(over="ignore"):
        return x * x


def modulus(z):
    """|z|: abs on numbers, and np.hypot of the parts on arrays, the libm hypot
    of CPython's complex abs, where numpy's own complex modulus can round
    apart from it; so every element is the modulus of its number."""
    if type(z) in _NUMBERS:
        return abs(z)
    return np.hypot(z.real, z.imag)


def maximum(x, y):
    """Elementwise larger value; NaN wins, as with np.maximum."""
    if (type(x) in _NUMBERS and type(y) in _NUMBERS
            or not isinstance(x, np.ndarray) and not isinstance(y, np.ndarray)):
        return x if x > y or x != x else y
    return np.maximum(x, y)


def minimum(x, y):
    """Elementwise smaller value; NaN wins, as with np.minimum."""
    if (type(x) in _NUMBERS and type(y) in _NUMBERS
            or not isinstance(x, np.ndarray) and not isinstance(y, np.ndarray)):
        return x if x < y or x != x else y
    return np.minimum(x, y)


def where(cond, x, y):
    """x where cond holds, else y."""
    if (type(cond) in _NUMBERS and type(x) in _NUMBERS and type(y) in _NUMBERS
            or not any(isinstance(v, np.ndarray) for v in (cond, x, y))):
        return x if cond else y
    return np.where(cond, x, y)


def first_true(mask, *values):
    """None if no element of mask is true, else (k, items): k is the flat index
    (C order) of the first true element of mask broadcast with ``values``, 0 for
    numbers, and items holds each value's element at k, as a Python number."""
    if type(mask) in _NUMBERS:
        if not mask:
            return None
        if all(type(x) in _NUMBERS for x in values):
            return 0, values
    elif not (mask.any() if isinstance(mask, np.ndarray) else mask):
        return None
    shape = np.broadcast_shapes(np.shape(mask), *map(np.shape, values))
    k = int(np.argmax(np.broadcast_to(mask, shape)))
    return k, tuple(np.broadcast_to(x, shape).flat[k].item() for x in values)


def require_positive(x, name: str):
    """x, or NumericalError naming ``name`` and the value at the first element
    (C order) that is not > 0, NaN included, with that element's index."""
    found = first_true(where(x > 0.0, False, True), x)
    if found is not None:
        k, (x_k,) = found
        raise NumericalError(f"{name} = {x_k!r} is not > 0", k)
    return x
