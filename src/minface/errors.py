"""Exception taxonomy shared across the package.

Numerical code raises typed errors instead of letting NaN/inf propagate or
leaking bare ZeroDivisionError from deep inside an evaluation. The CLI maps
these onto exit codes (spec-file problems -> 2, numeric/domain problems -> 3).
"""


class MinfaceError(Exception):
    """Base class for all library errors."""


# --- jet / expression arithmetic ---------------------------------------------


class DomainError(MinfaceError, ValueError):
    """An elementary function was evaluated outside its domain.

    Carries the function name and the offending value; when raised while
    evaluating a parsed expression, ``span`` locates the call in the source
    text as a (start, end) byte-offset pair.
    """

    def __init__(self, fn, value, span=None, message=None):
        self.fn = fn
        self.value = value
        self.span = span
        if message is None:
            message = f"{fn}({value!r}) is outside the function domain"
            if span is not None:
                message += f" at offset {span[0]}..{span[1]}"
        super().__init__(message)


class DivisionByZero(MinfaceError, ZeroDivisionError):
    """Division by a jet/number whose value is exactly zero."""

    def __init__(self, message="division by zero", span=None):
        self.span = span
        if span is not None:
            message += f" at offset {span[0]}..{span[1]}"
        super().__init__(message)


class NonFiniteResult(MinfaceError, ArithmeticError):
    """An operation produced NaN or +-inf; results are validated, never leaked.

    ``span`` locates the failing subexpression as DivisionByZero's does.
    """

    def __init__(self, message, span=None):
        self.span = span
        if span is not None:
            message += f" at offset {span[0]}..{span[1]}"
        super().__init__(message)


# --- expression language ------------------------------------------------------


class ExpressionSyntaxError(MinfaceError, ValueError):
    """Malformed expression text.

    ``offset`` is the byte offset of the first offending character and
    ``expected`` is a short hint of what the parser was looking for.
    """

    def __init__(self, offset, expected, found=None):
        self.offset = offset
        self.expected = expected
        self.found = found
        shown = f", found {found!r}" if found is not None else ""
        super().__init__(f"syntax error at offset {offset}: expected {expected}{shown}")


class NonIntegerExponent(MinfaceError, ValueError):
    """'^' was followed by anything other than an integer literal."""

    def __init__(self, offset, found):
        self.offset = offset
        self.found = found
        super().__init__(
            f"exponent at offset {offset} must be an integer literal, found {found!r}"
        )


class MultipleVariables(MinfaceError, ValueError):
    """An expression referenced more than one distinct variable name."""

    def __init__(self, names):
        self.names = tuple(sorted(names))
        super().__init__(
            "expression must use a single variable, found " + ", ".join(self.names)
        )


# --- surface data model -------------------------------------------------------


class SpecFileError(MinfaceError, ValueError):
    """Surface description file is malformed (unknown keys, wrong mode, ...)."""


class InvalidWeierstrassData(MinfaceError, ValueError):
    """Data functions violate a precondition (vanishing omega, g1*g2 == 1, ...)."""


class InvalidCurveData(MinfaceError, ValueError):
    """Null-curve input violates a precondition (non-null velocity, ...)."""


class DataConversionDegenerate(MinfaceError, ValueError):
    """Curve -> Weierstrass conversion hit a vanishing denominator.

    A rotation of the timelike axis (`theta`) usually removes the degeneracy;
    the error records the offending parameter value and axis.
    """

    def __init__(self, axis, param, message=None):
        self.axis = axis
        self.param = param
        if message is None:
            message = (
                f"curve-to-data conversion degenerates on the {axis} axis at "
                f"parameter {param!r}; retry with a nonzero rotation angle theta"
            )
        super().__init__(message)


class ModeUnsupported(MinfaceError, ValueError):
    """Operation requires Weierstrass data but the surface is raw-curve-backed."""


class QuadratureError(MinfaceError, ArithmeticError):
    """Adaptive quadrature failed to converge within the subdivision budget."""

    def __init__(self, interval, estimate, err):
        self.interval = interval
        self.estimate = estimate
        self.err = err
        super().__init__(
            f"quadrature did not converge on [{interval[0]!r}, {interval[1]!r}]: "
            f"estimate {estimate!r}, error bound {err!r}"
        )


class RootNotConverged(MinfaceError, ArithmeticError):
    """A one-dimensional root solve ran out of iterations before converging.

    Carries the bracketing interval it was given, its last iterate and the
    residual there.
    """

    def __init__(self, interval, t, residual):
        self.interval = interval
        self.t = t
        self.residual = residual
        super().__init__(
            f"root on [{interval[0]!r}, {interval[1]!r}] did not converge: "
            f"last iterate {t!r}, residual {residual!r}"
        )


# --- geometry preconditions ---------------------------------------------------


class OutsideDomain(MinfaceError, ValueError):
    """A parameter point lies outside the surface's domain rectangle."""


class SingularPoint(MinfaceError, ValueError):
    """A regular point was required but Lambda vanishes here."""


class SingularNeighborhood(MinfaceError, ValueError):
    """A finite-difference stencil straddles the singular set."""


class NotSingular(MinfaceError, ValueError):
    """A singular point was required but g1*g2 - 1 is not ~0 here."""


class NotCuspidalEdge(MinfaceError, ValueError):
    """Singular curvature only exists along cuspidal edges."""


class FlatPoint(MinfaceError, ValueError):
    """A non-flat point was required but a generating curve degenerates here."""


class DegenerateAtPoint(MinfaceError, ValueError):
    """Null curve has <gamma'', gamma''> = 0 at the queried parameter."""


class DegenerateSingular(MinfaceError, ValueError):
    """Both data derivatives vanish at a singular point; directions undefined."""
