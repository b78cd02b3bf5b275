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

Each rule is written once, in ``_rules``, and instantiated twice: over float
slots (``SCALAR_OPS``, also bound to the module names ``add``, ``sin``, ...)
and over float64-array slots holding one jet per element (``ARRAY_OPS``),
each element bit-identical to the scalar rule at that element.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

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


# --- the jet rules -------------------------------------------------------------
#
# Each rule is written once, over slots that are floats (SCALAR_OPS) or
# float64 arrays holding one jet per element (ARRAY_OPS; constants keep float
# slots and broadcast). The two tables differ only in the primitives passed
# to _rules. + - * / and sqrt round exactly as the float operations do, and
# every ** and other math function runs elementwise through libm on arrays,
# because numpy's own power, exp and log differ from libm by ulps; so each
# array element is bit-identical to the scalar rule at that element. Guards
# test a whole array and name its first offending element. Callers run the
# array rules under np.errstate(all="ignore"): a non-finite element fails the
# finiteness test, it does not warn.

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "atan", "sinh", "cosh")


def _rules(pow_, lib, finite, any_, first) -> dict:
    """The jet operations over one kind of slot, keyed as ``expr`` names them.

    pow_ is the ``**``, lib the nine functions by name, finite(s) whether
    every element of a slot is finite, any_(mask) whether some element holds,
    and first(values, mask) the first value where mask holds.
    """
    sin_, cos_, tan_, exp_, log_, sqrt_, atan_, sinh_, cosh_ = (
        lib[f] for f in FUNCTIONS)

    def out(v, d1, d2, d3, op):
        if not (finite(v) and finite(d1) and finite(d2) and finite(d3)):
            raise NonFiniteResult(f"non-finite result in jet {op}")
        return Jet3(v, d1, d2, d3)

    def add(a, b):
        return out(a.value + b.value, a.d1 + b.d1, a.d2 + b.d2, a.d3 + b.d3,
                   "add")

    def sub(a, b):
        return out(a.value - b.value, a.d1 - b.d1, a.d2 - b.d2, a.d3 - b.d3,
                   "sub")

    def neg(a):
        return Jet3(-a.value, -a.d1, -a.d2, -a.d3)

    def mul(a, b):
        # Leibniz rule through order 3.
        return out(
            a.value * b.value,
            a.d1 * b.value + a.value * b.d1,
            a.d2 * b.value + 2.0 * a.d1 * b.d1 + a.value * b.d2,
            a.d3 * b.value + 3.0 * a.d2 * b.d1 + 3.0 * a.d1 * b.d2
            + a.value * b.d3,
            "mul",
        )

    def div(a, b):
        """Quotient jet; solves a = r*b order by order."""
        if any_(b.value == 0.0):
            raise DivisionByZero()
        r0 = a.value / b.value
        r1 = (a.d1 - r0 * b.d1) / b.value
        r2 = (a.d2 - 2.0 * r1 * b.d1 - r0 * b.d2) / b.value
        r3 = (a.d3 - 3.0 * r2 * b.d1 - 3.0 * r1 * b.d2 - r0 * b.d3) / b.value
        return out(r0, r1, r2, r3, "div")

    def int_pow(a, n):
        """a**n for integer n (negative allowed away from zero); 0**0 is 1."""
        if not isinstance(n, int):
            raise TypeError("int_pow exponent must be an int")
        if n == 0:
            return constant(1.0)
        x = a.value
        if n < 0 and any_(x == 0.0):
            raise DivisionByZero("zero raised to a negative power")
        c1 = float(n)
        c2 = float(n * (n - 1))
        c3 = float(n * (n - 1) * (n - 2))
        # For n >= 1 every term with a negative exponent has a zero
        # coefficient, so x == 0 never hits 0**negative below.
        f0 = pow_(x, n)
        f1 = c1 * pow_(x, n - 1) if c1 != 0.0 else 0.0
        f2 = c2 * pow_(x, n - 2) if c2 != 0.0 else 0.0
        f3 = c3 * pow_(x, n - 3) if c3 != 0.0 else 0.0
        return compose(a, f0, f1, f2, f3, "int_pow")

    def compose(a, f0, f1, f2, f3, op):
        """Faa di Bruno through order 3 for outer derivatives f0..f3."""
        return out(
            f0,
            f1 * a.d1,
            f2 * a.d1 * a.d1 + f1 * a.d2,
            f3 * pow_(a.d1, 3) + 3.0 * f2 * a.d1 * a.d2 + f1 * a.d3,
            op,
        )

    def infinite(fn, x):
        # math's sin, cos and tan raise ValueError only at +-inf
        return DomainError(fn, first(x, abs(x) == math.inf))

    def sin(a):
        x = a.value
        try:
            s, c = sin_(x), cos_(x)
        except ValueError:
            raise infinite("sin", x) from None
        return compose(a, s, c, -s, -c, "sin")

    def cos(a):
        x = a.value
        try:
            s, c = sin_(x), cos_(x)
        except ValueError:
            raise infinite("cos", x) from None
        return compose(a, c, -s, -c, s, "cos")

    def tan(a):
        x = a.value
        try:
            zero = cos_(x) == 0.0
        except ValueError:
            raise infinite("tan", x) from None
        if any_(zero):
            raise DomainError("tan", first(x, zero))
        t = tan_(x)
        sec2 = 1.0 + t * t
        return compose(a, t, sec2, 2.0 * t * sec2, sec2 * (2.0 + 6.0 * t * t),
                       "tan")

    def exp(a):
        try:
            e = exp_(a.value)
        except OverflowError:
            raise NonFiniteResult("non-finite result in jet exp") from None
        return compose(a, e, e, e, e, "exp")

    def log(a):
        x = a.value
        bad = x <= 0.0
        if any_(bad):
            raise DomainError("log", first(x, bad))
        return compose(a, log_(x), 1.0 / x, -1.0 / (x * x), 2.0 / pow_(x, 3),
                       "log")

    def sqrt(a):
        x = a.value
        bad = x <= 0.0
        if any_(bad):
            raise DomainError("sqrt", first(x, bad))
        r = sqrt_(x)
        return compose(a, r, 0.5 / r, -0.25 / (x * r),
                       0.375 / (pow_(x, 2) * r), "sqrt")

    def atan(a):
        x = a.value
        q = 1.0 + x * x
        return compose(a, atan_(x), 1.0 / q, -2.0 * x / (q * q),
                       (6.0 * x * x - 2.0) / pow_(q, 3), "atan")

    def sinh(a):
        try:
            s, c = sinh_(a.value), cosh_(a.value)
        except OverflowError:
            raise NonFiniteResult("non-finite result in jet sinh") from None
        return compose(a, s, c, s, c, "sinh")

    def cosh(a):
        try:
            s, c = sinh_(a.value), cosh_(a.value)
        except OverflowError:
            raise NonFiniteResult("non-finite result in jet cosh") from None
        return compose(a, c, s, c, s, "cosh")

    return {"+": add, "-": sub, "*": mul, "/": div, "neg": neg,
            "^": int_pow, "sin": sin, "cos": cos, "tan": tan, "exp": exp,
            "log": log, "sqrt": sqrt, "atan": atan, "sinh": sinh,
            "cosh": cosh}


def elementwise(fn, nin: int = 1):
    """fn applied to each element (as Python floats), as a float64 array.

    Exceptions fn raises propagate, so e.g. ``elementwise(operator.pow, 2)``
    overflows exactly where the float ``**`` does.
    """
    ufunc = np.frompyfunc(fn, nin, 1)
    return lambda *xs: np.asarray(ufunc(*xs), dtype=np.float64)


float_pow = elementwise(operator.pow, 2)


def _first(values, bad) -> float:
    return float(np.asarray(values)[bad][0])


SCALAR_OPS = _rules(operator.pow, {f: getattr(math, f) for f in FUNCTIONS},
                    math.isfinite, operator.truth, lambda values, bad: values)
ARRAY_OPS = _rules(
    float_pow,
    {**{f: elementwise(getattr(math, f)) for f in FUNCTIONS}, "sqrt": np.sqrt},
    lambda s: np.isfinite(s).all(), np.any, _first)

# The scalar rules by name, for Jet3's operators and direct callers.
add, sub, mul, div, neg, int_pow = (SCALAR_OPS[k]
                                    for k in ("+", "-", "*", "/", "neg", "^"))
sin, cos, tan, exp, log, sqrt, atan, sinh, cosh = (SCALAR_OPS[f]
                                                   for f in FUNCTIONS)


def shift_derivative(a: Jet3) -> Jet3:
    """Jet of the derivative of the function a represents.

    The top slot of the shifted jet is unknowable from a third-order jet and is
    filled with 0; callers must not rely on the shifted d3. Used where a
    quantity like g1' needs to be differentiated twice more (a = g1'/(g1^2 w1):
    value, d1, d2 of the result stay exact).
    """
    return Jet3(a.d1, a.d2, a.d3, 0.0)
