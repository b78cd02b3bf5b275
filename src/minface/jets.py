"""Truncated third-order jets: exact derivatives without symbolic algebra.

A ``Jet3`` carries a function value together with its first three derivatives
with respect to one real parameter. Arithmetic propagates derivatives by the
Leibniz and Faa di Bruno rules truncated at order three, which is enough for
every quantity this package needs (velocities, accelerations, the third-order
determinant tests at singular points) while staying allocation-cheap inside
tracing loops.

Every operation validates its output: NaN or +-inf raises ``NonFiniteResult``
instead of propagating silently. Computing an outer derivative can overflow
a float ``**`` or divide by a zero that underflowed; that raises the bare
OverflowError or ZeroDivisionError before the check, and ``minface.expr``
maps both to ``NonFiniteResult``.

Each rule is written once, as the module function of its name (``add``,
``sin``, ...; ``OPS`` keys them as ``minface.expr`` names the operations).
A slot is a float or a float64 array holding one jet per element. Only five
primitives (``**``, the libm functions, the finiteness test, ``any`` and
``first``) branch on the slot they are given, and each gives the same value
either way, so each array element is bit-identical to the float rule at
that element.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from math import isfinite

import numpy as np
from numpy import ndarray

from .errors import DivisionByZero, DomainError, NonFiniteResult


@dataclass(slots=True)
class Jet3:
    """Value and first three derivatives of a scalar function at a point."""

    value: float
    d1: float
    d2: float
    d3: float

    def as_tuple(self):
        return (self.value, self.d1, self.d2, self.d3)

    # Operator sugar; mixed operands coerce floats/ints to constant jets.
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, n):
        return int_pow(self, n)


def constant(c: float) -> Jet3:
    return Jet3(float(c), 0.0, 0.0, 0.0)


def lift_variable(x: float) -> Jet3:
    """The identity function u -> u seen as a jet at the point x."""
    return Jet3(float(x), 1.0, 0.0, 0.0)


def _coerce(x) -> Jet3:
    if isinstance(x, Jet3):
        return x
    if isinstance(x, (int, float)):
        return constant(x)
    raise TypeError(f"cannot mix Jet3 with {type(x).__name__}")


# --- the five primitives -------------------------------------------------------
#
# In an array evaluation, constants and the variable's d1 keep float slots.
# Floats stay because they cost an order of magnitude less per point than
# one-element arrays. Callers run array rules under np.errstate(all=
# "ignore"): a non-finite element fails the finiteness test, not a warning.

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "atan", "sinh", "cosh")


def elementwise(fn, nin: int = 1):
    """fn applied to each element (as Python floats), as a float64 array.

    Exceptions fn raises propagate, so e.g. ``elementwise(operator.pow, 2)``
    overflows exactly where the float ``**`` does.
    """
    ufunc = np.frompyfunc(fn, nin, 1)
    return lambda *xs: np.asarray(ufunc(*xs), dtype=np.float64)


float_pow = elementwise(operator.pow, 2)


def _pow(x, n):
    # numpy's own power differs from libm by ulps
    return float_pow(x, n) if isinstance(x, ndarray) else x ** n


def _libm(fn: str):
    """math.fn on a float; elementwise libm on an array (numpy's exp, log,
    ... differ from libm by ulps), except sqrt, which rounds exactly. An
    overflow (exp, sinh, cosh) or +-inf (sin, cos, tan) raises an error named
    after fn, so each rule calls the function it is named after first."""
    scalar = getattr(math, fn)
    array = np.sqrt if fn == "sqrt" else elementwise(scalar)

    def at(x):
        try:
            return array(x) if isinstance(x, ndarray) else scalar(x)
        except OverflowError:
            raise NonFiniteResult(f"non-finite result in jet {fn}") from None
        except ValueError:
            raise DomainError(fn, _first(x, abs(x) == math.inf)) from None

    return at


_sin, _cos, _tan, _exp, _log, _sqrt, _atan, _sinh, _cosh = map(_libm,
                                                                FUNCTIONS)


def finite(v, d1=0.0, d2=0.0, d3=0.0) -> bool:
    """Whether every element of v..d3 is finite. v picks the test: a float
    value only ever comes with float slots."""
    if isinstance(v, ndarray):
        return (np.isfinite(v).all() and np.isfinite(d1).all()
                and np.isfinite(d2).all() and np.isfinite(d3).all())
    return isfinite(v) and isfinite(d1) and isfinite(d2) and isfinite(d3)


def _any(mask) -> bool:
    return mask.any() if isinstance(mask, ndarray) else bool(mask)


def _first(values, mask) -> float:
    """The first of values where mask holds; a float is its own first."""
    return float(values[mask][0]) if isinstance(values, ndarray) else values


# --- the jet rules -------------------------------------------------------------


def _out(v, d1, d2, d3, op):
    if not finite(v, d1, d2, d3):
        raise NonFiniteResult(f"non-finite result in jet {op}")
    return Jet3(v, d1, d2, d3)


def add(a, b):
    return _out(a.value + b.value, a.d1 + b.d1, a.d2 + b.d2, a.d3 + b.d3,
                "add")


def sub(a, b):
    return _out(a.value - b.value, a.d1 - b.d1, a.d2 - b.d2, a.d3 - b.d3,
                "sub")


def neg(a):
    return Jet3(-a.value, -a.d1, -a.d2, -a.d3)


def mul(a, b):
    # Leibniz rule through order 3.
    return _out(
        a.value * b.value,
        a.d1 * b.value + a.value * b.d1,
        a.d2 * b.value + 2.0 * a.d1 * b.d1 + a.value * b.d2,
        a.d3 * b.value + 3.0 * a.d2 * b.d1 + 3.0 * a.d1 * b.d2
        + a.value * b.d3,
        "mul",
    )


def div(a, b):
    """Quotient jet; solves a = r*b order by order."""
    if _any(b.value == 0.0):
        raise DivisionByZero()
    r0 = a.value / b.value
    r1 = (a.d1 - r0 * b.d1) / b.value
    r2 = (a.d2 - 2.0 * r1 * b.d1 - r0 * b.d2) / b.value
    r3 = (a.d3 - 3.0 * r2 * b.d1 - 3.0 * r1 * b.d2 - r0 * b.d3) / b.value
    return _out(r0, r1, r2, r3, "div")


def int_pow(a, n):
    """a**n for integer n (negative allowed away from zero); 0**0 is 1."""
    if not isinstance(n, int):
        raise TypeError("int_pow exponent must be an int")
    if n == 0:
        return constant(1.0)
    x = a.value
    if n < 0 and _any(x == 0.0):
        raise DivisionByZero("zero raised to a negative power")
    c1 = float(n)
    c2 = float(n * (n - 1))
    c3 = float(n * (n - 1) * (n - 2))
    # For n >= 1 every term with a negative exponent has a zero
    # coefficient, so x == 0 never hits 0**negative below.
    f0 = _pow(x, n)
    f1 = c1 * _pow(x, n - 1) if c1 != 0.0 else 0.0
    f2 = c2 * _pow(x, n - 2) if c2 != 0.0 else 0.0
    f3 = c3 * _pow(x, n - 3) if c3 != 0.0 else 0.0
    return _compose(a, f0, f1, f2, f3, "int_pow")


def _compose(a, f0, f1, f2, f3, op):
    """Faa di Bruno through order 3 for outer derivatives f0..f3."""
    return _out(
        f0,
        f1 * a.d1,
        f2 * a.d1 * a.d1 + f1 * a.d2,
        f3 * _pow(a.d1, 3) + 3.0 * f2 * a.d1 * a.d2 + f1 * a.d3,
        op,
    )


def sin(a):
    s, c = _sin(a.value), _cos(a.value)
    return _compose(a, s, c, -s, -c, "sin")


def cos(a):
    c, s = _cos(a.value), _sin(a.value)
    return _compose(a, c, -s, -c, s, "cos")


def tan(a):
    x = a.value
    t = _tan(x)
    zero = _cos(x) == 0.0
    if _any(zero):
        raise DomainError("tan", _first(x, zero))
    sec2 = 1.0 + t * t
    return _compose(a, t, sec2, 2.0 * t * sec2, sec2 * (2.0 + 6.0 * t * t),
                    "tan")


def exp(a):
    e = _exp(a.value)
    return _compose(a, e, e, e, e, "exp")


def log(a):
    x = a.value
    bad = x <= 0.0
    if _any(bad):
        raise DomainError("log", _first(x, bad))
    return _compose(a, _log(x), 1.0 / x, -1.0 / (x * x), 2.0 / _pow(x, 3),
                    "log")


def sqrt(a):
    x = a.value
    bad = x <= 0.0
    if _any(bad):
        raise DomainError("sqrt", _first(x, bad))
    r = _sqrt(x)
    return _compose(a, r, 0.5 / r, -0.25 / (x * r), 0.375 / (_pow(x, 2) * r),
                    "sqrt")


def atan(a):
    x = a.value
    q = 1.0 + x * x
    return _compose(a, _atan(x), 1.0 / q, -2.0 * x / (q * q),
                    (6.0 * x * x - 2.0) / _pow(q, 3), "atan")


def sinh(a):
    s, c = _sinh(a.value), _cosh(a.value)
    return _compose(a, s, c, s, c, "sinh")


def cosh(a):
    c, s = _cosh(a.value), _sinh(a.value)
    return _compose(a, c, s, c, s, "cosh")


# The rules keyed as ``expr`` names the operations.
OPS = {"+": add, "-": sub, "*": mul, "/": div, "neg": neg, "^": int_pow,
       "sin": sin, "cos": cos, "tan": tan, "exp": exp, "log": log,
       "sqrt": sqrt, "atan": atan, "sinh": sinh, "cosh": cosh}


def shift_derivative(a: Jet3) -> Jet3:
    """Jet of the derivative of the function a represents.

    The top slot of the shifted jet is unknowable from a third-order jet and is
    filled with 0; callers must not rely on the shifted d3. Used where a
    quantity like g1' needs to be differentiated twice more (a = g1'/(g1^2 w1):
    value, d1, d2 of the result stay exact).
    """
    return Jet3(a.d1, a.d2, a.d3, 0.0)
