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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _out(v, d1, d2, d3, op) -> Jet3:
    if not (math.isfinite(v) and math.isfinite(d1) and math.isfinite(d2)
            and math.isfinite(d3)):
        raise NonFiniteResult(f"non-finite result in jet {op}")
    return Jet3(v, d1, d2, d3)


# --- arithmetic ---------------------------------------------------------------


def add(a: Jet3, b: Jet3) -> Jet3:
    return _out(a.value + b.value, a.d1 + b.d1, a.d2 + b.d2, a.d3 + b.d3, "add")


def sub(a: Jet3, b: Jet3) -> Jet3:
    return _out(a.value - b.value, a.d1 - b.d1, a.d2 - b.d2, a.d3 - b.d3, "sub")


def neg(a: Jet3) -> Jet3:
    return Jet3(-a.value, -a.d1, -a.d2, -a.d3)


def mul(a: Jet3, b: Jet3) -> Jet3:
    # Leibniz rule through order 3.
    return _out(
        a.value * b.value,
        a.d1 * b.value + a.value * b.d1,
        a.d2 * b.value + 2.0 * a.d1 * b.d1 + a.value * b.d2,
        a.d3 * b.value + 3.0 * a.d2 * b.d1 + 3.0 * a.d1 * b.d2 + a.value * b.d3,
        "mul",
    )


def div(a: Jet3, b: Jet3) -> Jet3:
    """Quotient jet; solves a = r*b order by order."""
    if b.value == 0.0:
        raise DivisionByZero()
    r0 = a.value / b.value
    r1 = (a.d1 - r0 * b.d1) / b.value
    r2 = (a.d2 - 2.0 * r1 * b.d1 - r0 * b.d2) / b.value
    r3 = (a.d3 - 3.0 * r2 * b.d1 - 3.0 * r1 * b.d2 - r0 * b.d3) / b.value
    return _out(r0, r1, r2, r3, "div")


def int_pow(a: Jet3, n: int) -> Jet3:
    """a**n for integer n (negative allowed away from zero). 0**0 is taken as 1."""
    if not isinstance(n, int):
        raise TypeError("int_pow exponent must be an int")
    if n == 0:
        return constant(1.0)
    x = a.value
    if x == 0.0 and n < 0:
        raise DivisionByZero("zero raised to a negative power")
    c1 = float(n)
    c2 = float(n * (n - 1))
    c3 = float(n * (n - 1) * (n - 2))
    # For n >= 1 every term with a negative exponent has a zero coefficient,
    # so x == 0 never hits 0**negative below.
    f0 = x ** n
    f1 = c1 * x ** (n - 1) if c1 != 0.0 else 0.0
    f2 = c2 * x ** (n - 2) if c2 != 0.0 else 0.0
    f3 = c3 * x ** (n - 3) if c3 != 0.0 else 0.0
    return _compose(a, f0, f1, f2, f3, "int_pow")


# --- elementary functions -----------------------------------------------------


def _compose(a: Jet3, f0, f1, f2, f3, op) -> Jet3:
    """Faa di Bruno through order 3 for outer derivatives f0..f3 at a.value."""
    return _out(
        f0,
        f1 * a.d1,
        f2 * a.d1 * a.d1 + f1 * a.d2,
        f3 * a.d1 ** 3 + 3.0 * f2 * a.d1 * a.d2 + f1 * a.d3,
        op,
    )


def sin(a: Jet3) -> Jet3:
    s, c = math.sin(a.value), math.cos(a.value)
    return _compose(a, s, c, -s, -c, "sin")


def cos(a: Jet3) -> Jet3:
    s, c = math.sin(a.value), math.cos(a.value)
    return _compose(a, c, -s, -c, s, "cos")


def tan(a: Jet3) -> Jet3:
    if math.cos(a.value) == 0.0:
        raise DomainError("tan", a.value)
    t = math.tan(a.value)
    sec2 = 1.0 + t * t
    return _compose(a, t, sec2, 2.0 * t * sec2, sec2 * (2.0 + 6.0 * t * t), "tan")


def exp(a: Jet3) -> Jet3:
    try:
        e = math.exp(a.value)
    except OverflowError:
        raise NonFiniteResult("non-finite result in jet exp") from None
    return _compose(a, e, e, e, e, "exp")


def log(a: Jet3) -> Jet3:
    if a.value <= 0.0:
        raise DomainError("log", a.value)
    x = a.value
    return _compose(a, math.log(x), 1.0 / x, -1.0 / (x * x), 2.0 / (x ** 3), "log")


def sqrt(a: Jet3) -> Jet3:
    if a.value <= 0.0:
        raise DomainError("sqrt", a.value)
    r = math.sqrt(a.value)
    return _compose(a, r, 0.5 / r, -0.25 / (a.value * r), 0.375 / (a.value ** 2 * r),
                    "sqrt")


def atan(a: Jet3) -> Jet3:
    x = a.value
    q = 1.0 + x * x
    return _compose(a, math.atan(x), 1.0 / q, -2.0 * x / (q * q),
                    (6.0 * x * x - 2.0) / (q ** 3), "atan")


def sinh(a: Jet3) -> Jet3:
    try:
        s, c = math.sinh(a.value), math.cosh(a.value)
    except OverflowError:
        raise NonFiniteResult("non-finite result in jet sinh") from None
    return _compose(a, s, c, s, c, "sinh")


def cosh(a: Jet3) -> Jet3:
    try:
        s, c = math.sinh(a.value), math.cosh(a.value)
    except OverflowError:
        raise NonFiniteResult("non-finite result in jet cosh") from None
    return _compose(a, c, s, c, s, "cosh")


ELEMENTARY = {
    "sin": sin, "cos": cos, "tan": tan, "exp": exp, "log": log,
    "sqrt": sqrt, "atan": atan, "sinh": sinh, "cosh": cosh,
}


def shift_derivative(a: Jet3) -> Jet3:
    """Jet of the derivative of the function a represents.

    The top slot of the shifted jet is unknowable from a third-order jet and is
    filled with 0; callers must not rely on the shifted d3. Used where a
    quantity like g1' needs to be differentiated twice more (a = g1'/(g1^2 w1):
    value, d1, d2 of the result stay exact).
    """
    return Jet3(a.d1, a.d2, a.d3, 0.0)
