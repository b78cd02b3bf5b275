"""Timelike minimal surfaces from real Weierstrass data or null-curve pairs.

A surface is the average f(u, v) = (phi(u) + psi(v)) / 2 of two null curves in
L^3. In Weierstrass mode the curve velocities come from four one-variable data
functions (g1(u), g2(v), w1(u), w2(v)), with

    phi'(u) = w1 * (-1 - g1^2, 1 - g1^2,  2*g1)
    psi'(v) = w2 * ( 1 + g2^2, 1 - g2^2, -2*g2)

so that f_u = phi'/2, f_v = psi'/2, the induced metric is 2*Lambda du dv with
Lambda = (w1*w2/2)(1 - g1*g2)^2, and the singular set is exactly
{g1*g2 = 1}. In raw-curve mode the two curves are given directly by position
expressions; they must be null and regular, and operations that need the data
functions (tracing, classification, closed-form curvature) are unavailable.

Positions integrate the velocities from a base parameter pair with adaptive
quadrature (absolute tolerance 1e-12, relative 1e-12 on large integrals)
behind per-axis prefix caches; raw-curve positions evaluate their expressions
directly.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Union

import numpy as np

from . import expr as expr_mod
from .errors import (DataConversionDegenerate, InvalidCurveData,
                     InvalidWeierstrassData, ModeUnsupported, SingularPoint,
                     SpecFileError)
from .expr import Expression, eval_array, eval_jet, eval_value, parse
from .jets import (Jet3, add, constant, float_pow, lift_variable, mul,
                   shift_derivative, sub)
from .lorentz import METRIC, enorm, mdot, vec3
from .quadrature import PrefixIntegral

QUAD_TOL = 1e-12
# A point is singular (no unit normal, no curvature) where Lambda, or the
# normal it induces, is at most this share of |f_u| |f_v|.
REGULAR_TOL = 1e-13
_VALIDATION_GRID = 64


@dataclass(frozen=True)
class Rect:
    """Closed parameter rectangle [u_min, u_max] x [v_min, v_max]."""

    u_min: float
    u_max: float
    v_min: float
    v_max: float

    def __post_init__(self):
        # a non-finite bound makes its width non-finite too
        if not (math.isfinite(self.u_max - self.u_min)
                and math.isfinite(self.v_max - self.v_min)):
            raise ValueError("domain bounds and widths must be finite")
        if not (self.u_min < self.u_max and self.v_min < self.v_max):
            raise ValueError("domain rectangle must have positive extent")

    def contains(self, u: float, v: float, pad: float = 0.0) -> bool:
        return (self.u_min - pad <= u <= self.u_max + pad
                and self.v_min - pad <= v <= self.v_max + pad)

    def u_grid(self, n: int) -> np.ndarray:
        return np.linspace(self.u_min, self.u_max, n)

    def v_grid(self, n: int) -> np.ndarray:
        return np.linspace(self.v_min, self.v_max, n)


@dataclass
class RealWeierstrassData:
    """The four data functions plus domain, base parameters, base position.

    Validation probes a 64x64 grid: w1 and w2 must be nonzero (and must not
    change sign, which would force an interior zero) and g1*g2 - 1 must not
    vanish identically.
    """

    g1: Expression
    g2: Expression
    w1: Expression
    w2: Expression
    domain: Rect
    base: tuple = (0.0, 0.0)
    f0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    _pair: Optional["NullCurvePair"] = field(default=None, repr=False,
                                             compare=False)

    @classmethod
    def from_strings(cls, g1: str, g2: str, w1: str, w2: str, domain: Rect,
                     base=(0.0, 0.0), f0=(0.0, 0.0, 0.0)):
        return cls(parse(g1), parse(g2), parse(w1), parse(w2), domain,
                   (float(base[0]), float(base[1])),
                   np.asarray(f0, dtype=float))

    def __post_init__(self):
        self.f0 = np.asarray(self.f0, dtype=float)
        if self.f0.shape != (3,) or not np.all(np.isfinite(self.f0)):
            raise InvalidWeierstrassData("f0 must be a finite 3-vector")
        for side, a, b in (("u", self.g1, self.w1), ("v", self.g2, self.w2)):
            names = {e.variable for e in (a, b) if e.variable is not None}
            if len(names) > 1:
                raise InvalidWeierstrassData(
                    f"{side}-side expressions disagree on the variable name: "
                    + ", ".join(sorted(names)))
        if not self.domain.contains(*self.base):
            raise InvalidWeierstrassData("base parameters outside the domain")
        us = self.domain.u_grid(_VALIDATION_GRID)
        vs = self.domain.v_grid(_VALIDATION_GRID)
        w1_vals = eval_array(self.w1, us).value
        w2_vals = eval_array(self.w2, vs).value
        for name, vals in (("w1", w1_vals), ("w2", w2_vals)):
            if np.any(vals == 0.0):
                raise InvalidWeierstrassData(f"{name} vanishes on the domain")
            if np.any(vals > 0) and np.any(vals < 0):
                raise InvalidWeierstrassData(
                    f"{name} changes sign on the domain (interior zero)")
        prod = np.outer(eval_array(self.g1, us).value,
                        eval_array(self.g2, vs).value) - 1.0
        if np.max(np.abs(prod)) == 0.0:
            raise InvalidWeierstrassData(
                "g1*g2 - 1 vanishes identically; the map is nowhere regular")

    # jet accessors ------------------------------------------------------

    def g1_jet(self, u: float) -> Jet3:
        return eval_jet(self.g1, lift_variable(u))

    def g2_jet(self, v: float) -> Jet3:
        return eval_jet(self.g2, lift_variable(v))

    def w1_jet(self, u: float) -> Jet3:
        return eval_jet(self.w1, lift_variable(u))

    def w2_jet(self, v: float) -> Jet3:
        return eval_jet(self.w2, lift_variable(v))

    def pair(self) -> "NullCurvePair":
        """The null-curve pair of this data, built once and cached."""
        if self._pair is None:
            self._pair = curves_from_data(self)
        return self._pair


@dataclass
class NullCurvePair:
    """The two generating null curves of a surface, held as expressions.

    ``exprs`` holds each curve's expressions, u's first: (g, w) in
    Weierstrass mode (``source`` 'weierstrass'), the three position
    components in raw-curve mode (``source`` 'curves'). ``curve_jets``
    evaluates them; ``phi_prime(u)`` returns the three component jets of
    phi'(u): values are phi', first derivatives phi'', second derivatives
    phi'''. A raw curve pair's positions are read from its expressions, not
    integrated.
    """

    exprs: tuple  # ((g1, w1), (g2, w2)) or (phi's three, psi's three)
    domain: Rect
    base: tuple
    f0: np.ndarray
    source: str  # 'weierstrass' | 'curves'
    _data: Optional[weakref.ref] = field(default=None, repr=False,
                                         compare=False)
    _prefixes: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def data(self) -> Optional[RealWeierstrassData]:
        """The Weierstrass data the pair was built from, while it exists.

        Held weakly: the data caches its pair, so a strong reference back
        would make every loaded surface a reference cycle.
        """
        return None if self._data is None else self._data()

    @property
    def position_exprs(self) -> Optional[tuple]:
        """A raw curve pair's position expressions (phi's, psi's), else None."""
        return self.exprs if self.source == "curves" else None

    def jets(self, axis: str, t) -> tuple:
        """``curve_jets`` of the u-curve (axis u) or the v-curve at t."""
        return curve_jets(self.source, self.exprs[axis == "v"], axis, t)

    def phi_prime(self, u: float) -> tuple:
        return self.jets("u", u)[0]

    def psi_prime(self, v: float) -> tuple:
        return self.jets("v", v)[0]

    def phi_prime_value(self, u: float) -> np.ndarray:
        return vec3(*(c.value for c in self.phi_prime(u)))

    def psi_prime_value(self, v: float) -> np.ndarray:
        return vec3(*(c.value for c in self.psi_prime(v)))

    def phi_delta(self, u: float) -> np.ndarray:
        """Integral of phi' from the base u to u."""
        return self._delta("u", u)

    def psi_delta(self, v: float) -> np.ndarray:
        return self._delta("v", v)

    def _delta(self, axis: str, t: float) -> np.ndarray:
        if self.source == "curves":
            k = axis == "v"
            return (_position(self.exprs[k], t)
                    - _position(self.exprs[k], self.base[k]))
        return self._prefix(axis)(t)

    def axis_deltas(self, rec) -> np.ndarray:
        """phi_delta (axis u) or psi_delta (axis v) at every parameter of rec,
        an array ``curvature.AxisSamples`` of this pair, each bit-identical
        to the one-point call and read from what rec evaluated: a raw curve
        pair subtracts the base position from rec's positions, any other
        pair queries its prefix integral with rec's velocities."""
        if self.source == "curves":
            k = rec.axis == "v"
            return rec.position - _position(self.exprs[k], self.base[k])
        return self._prefix(rec.axis).at(rec.ts, rec.vel)

    def _prefix(self, axis: str) -> PrefixIntegral:
        """The cached integral of phi' (axis u) or psi' (axis v)."""
        if axis not in self._prefixes:
            k = axis == "v"
            dom = self.domain
            lo, hi = (dom.v_min, dom.v_max) if k else (dom.u_min, dom.u_max)
            # the integrand holds the expressions, not the pair: no cycle
            self._prefixes[axis] = PrefixIntegral(
                partial(_velocity, self.source, self.exprs[k], axis),
                self.base[k], lo, hi, abs_tol=QUAD_TOL)
        return self._prefixes[axis]


Surface = Union[RealWeierstrassData, NullCurvePair]


def as_pair(surface: Surface) -> NullCurvePair:
    if isinstance(surface, RealWeierstrassData):
        return surface.pair()
    return surface


def get_data(surface: Surface) -> Optional[RealWeierstrassData]:
    if isinstance(surface, RealWeierstrassData):
        return surface
    return surface.data


def require_data(surface: Surface, what: str) -> RealWeierstrassData:
    d = get_data(surface)
    if d is None:
        raise ModeUnsupported(f"{what} requires Weierstrass data functions")
    return d


# --- the curve evaluator ----------------------------------------------------


_ONE, _MINUS_ONE = constant(1.0), constant(-1.0)
_TWO, _MINUS_TWO = constant(2.0), constant(-2.0)


def _phi_jets(g: Jet3, w: Jet3) -> tuple:
    """w (-1 - g^2, 1 - g^2, 2 g)."""
    gg = mul(g, g)
    return (mul(sub(_MINUS_ONE, gg), w), mul(sub(_ONE, gg), w),
            mul(mul(_TWO, g), w))


def _psi_jets(g: Jet3, w: Jet3) -> tuple:
    """w (1 + g^2, 1 - g^2, -2 g)."""
    gg = mul(g, g)
    return (mul(add(_ONE, gg), w), mul(sub(_ONE, gg), w),
            mul(mul(_MINUS_TWO, g), w))


def curve_jets(source: str, exprs: tuple, axis: str, t) -> tuple:
    """(velocity, own): one generating curve evaluated at t.

    The one evaluator of a generating curve. exprs are the curve's
    expressions as ``NullCurvePair.exprs`` holds them, and own their jets,
    each evaluated once, in order. velocity holds the three component jets
    of phi' (axis u) or psi' (axis v), so value, d1 and d2 are gamma',
    gamma'' and gamma''': in Weierstrass mode built from g and w, on a raw
    curve the position jets shifted (their top slot is 0). A float t is
    evaluated through ``eval_jet``, an array through ``eval_array``; each
    array element equals the float call at that element bit for bit.
    """
    one = not isinstance(t, np.ndarray)
    x = lift_variable(t) if one else t
    own = tuple((eval_jet if one else eval_array)(e, x) for e in exprs)
    if source == "curves":
        return tuple(shift_derivative(j) for j in own), own
    jets = _phi_jets if axis == "u" else _psi_jets
    if one:
        return jets(*own), own
    # a non-finite element fails the jet rules' finiteness test; numpy
    # must not warn about it first
    with np.errstate(all="ignore"):
        return jets(*own), own


def _velocity(source: str, exprs: tuple, axis: str, t) -> np.ndarray:
    """The velocity values of ``curve_jets`` at t, stacked on a trailing
    axis: a pair's prefix integrand, for a float t or an array."""
    j = curve_jets(source, exprs, axis, t)[0]
    return np.stack([j[0].value, j[1].value, j[2].value], axis=-1)


def _position(exprs: tuple, t: float) -> np.ndarray:
    """A raw curve's position at t: the values of its three expressions."""
    return vec3(*(eval_value(e, t) for e in exprs))


# --- constructors ---------------------------------------------------------


def curves_from_data(d: RealWeierstrassData) -> NullCurvePair:
    """The null curves determined by the data functions.

    The pair holds the four expressions, not d, and refers to d weakly, so
    d and its cached pair form no reference cycle.
    """
    return NullCurvePair(((d.g1, d.w1), (d.g2, d.w2)), d.domain, d.base,
                         d.f0.copy(), source="weierstrass",
                         _data=weakref.ref(d))


def pair_from_position_expressions(phi_exprs, psi_exprs, domain: Rect,
                                   base=(0.0, 0.0), f0=None,
                                   null_tol: float = 1e-10) -> NullCurvePair:
    """Raw-curve mode: three position expressions per curve.

    The velocities must be Lorentzian null and nonvanishing; probed on 64
    points per axis, and an error names the first failing point in
    ascending order. The base must lie in the domain, and f0 must be finite:
    it defaults to the true position (phi + psi)/2 at the base parameters so
    evaluate() agrees with the position expressions.
    """
    phi = tuple(e if isinstance(e, Expression) else parse(e)
                for e in phi_exprs)
    psi = tuple(e if isinstance(e, Expression) else parse(e)
                for e in psi_exprs)
    if len(phi) != 3 or len(psi) != 3:
        raise InvalidCurveData("each curve needs exactly three components")
    for side, comps in (("u", phi), ("v", psi)):
        names = {e.variable for e in comps if e.variable is not None}
        if len(names) > 1:
            raise InvalidCurveData(
                f"{side}-side curve components disagree on the variable name")

    for name, exprs, axis, grid in (
            ("phi", phi, "u", domain.u_grid(_VALIDATION_GRID)),
            ("psi", psi, "v", domain.v_grid(_VALIDATION_GRID))):
        vel = _velocity("curves", exprs, axis, grid)
        speed2 = np.sum(vel * vel, axis=-1)
        q = mdot(vel, vel)
        vanishes = speed2 == 0.0
        bad = vanishes | (np.abs(q) > null_tol * np.maximum(1.0, speed2))
        if bad.any():
            k = int(np.argmax(bad))
            t = float(grid[k])
            if vanishes[k]:
                raise InvalidCurveData(f"{name}' vanishes at parameter {t!r}")
            raise InvalidCurveData(f"{name}' is not null at parameter {t!r}: "
                                   f"<v,v> = {float(q[k])!r}")

    base = (float(base[0]), float(base[1]))
    if not domain.contains(*base):
        raise InvalidCurveData("base parameters outside the domain")
    f0 = (0.5 * (_position(phi, base[0]) + _position(psi, base[1]))
          if f0 is None else np.asarray(f0, dtype=float))
    if f0.shape != (3,) or not np.all(np.isfinite(f0)):
        raise InvalidCurveData("f0 must be a finite 3-vector")
    return NullCurvePair((phi, psi), domain, base, f0, source="curves")


@dataclass(frozen=True)
class RecoveredData:
    """Value-level Weierstrass data recovered from a null-curve pair.

    The callables return plain floats. Derivative jets of recovered data are
    deliberately not offered: position expressions only carry order-3 jets, so
    recovered derivatives would silently lose an order.
    """

    g1: Callable[[float], float]
    g2: Callable[[float], float]
    w1: Callable[[float], float]
    w2: Callable[[float], float]
    theta: float


def _recovered(axis: str, vel: np.ndarray, theta: float = 0.0,
               tol: float = 1e-12):
    """(g, w, ok): the data recovered from the velocities vel of the u- or
    v-curve, of shape (..., 3), and where w passes the degeneracy test."""
    if theta != 0.0:  # rotate about the timelike axis
        c, s = math.cos(theta), math.sin(theta)
        vel = np.stack([vel[..., 0], vel[..., 1] * c - vel[..., 2] * s,
                        vel[..., 1] * s + vel[..., 2] * c], axis=-1)
    with np.errstate(all="ignore"):
        if axis == "u":
            w = 0.5 * (vel[..., 1] - vel[..., 0])
            g = vel[..., 2] / (2.0 * w)
        else:
            w = 0.5 * (vel[..., 0] + vel[..., 1])
            g = -vel[..., 2] / (2.0 * w)
    return g, w, ~(np.abs(w) <= tol * np.fmax(1.0, enorm(vel)))


def data_from_curves(pair: NullCurvePair, theta: float = 0.0,
                     tol: float = 1e-12) -> RecoveredData:
    """Invert the Weierstrass assembly on a null-curve pair.

    After an optional rotation by theta about the timelike axis,
    w1 = (phi'^1 - phi'^0)/2 and g1 = phi'^2 / (2 w1); similarly
    w2 = (psi'^0 + psi'^1)/2 and g2 = -psi'^2 / (2 w2). A vanishing
    denominator raises DataConversionDegenerate with the offending parameter;
    a different theta usually removes the degeneracy.
    """

    def at(axis: str, slot: int) -> Callable[[float], float]:
        velocity = (pair.phi_prime_value if axis == "u"
                    else pair.psi_prime_value)

        def fn(t: float) -> float:
            recovered = _recovered(axis, velocity(t), theta, tol)
            if not recovered[2]:
                raise DataConversionDegenerate(axis, t)
            return float(recovered[slot])

        return fn

    return RecoveredData(at("u", 0), at("v", 0), at("u", 1), at("v", 1),
                         theta)


# --- evaluation -----------------------------------------------------------


def evaluate(surface: Surface, u: float, v: float) -> np.ndarray:
    """Position f(u, v) = (integral of phi' + integral of psi')/2 + f0."""
    pair = as_pair(surface)
    return 0.5 * (pair.phi_delta(u) + pair.psi_delta(v)) + pair.f0


@dataclass
class SurfaceJet:
    """Position and derivative data of the immersion at one parameter point.

    f_uv vanishes identically (the map separates into u- and v-parts), which
    is the mean-curvature-zero condition in null coordinates. ``nu`` is the
    unit spacelike Lorentzian normal, fixed so its spatial components align
    with the Euclidean unit normal ``n``; both are None where undefined
    (``nu`` at singular points, ``n`` in raw mode where f_u x f_v ~ 0; in
    Weierstrass mode n extends smoothly across the singular set).
    """

    u: float
    v: float
    f: np.ndarray
    f_u: np.ndarray
    f_v: np.ndarray
    f_uu: np.ndarray
    f_vv: np.ndarray
    f_uv: np.ndarray
    Lambda: float
    n: Optional[np.ndarray]
    nu: Optional[np.ndarray]
    Q: Optional[float]
    R: Optional[float]
    mode: str


def jets_at(surface: Surface, u: float, v: float,
            with_position: bool = True) -> SurfaceJet:
    """First and second derivative data plus normals at (u, v).

    Q = <f_uu, nu> and R = <f_vv, nu> are the two nonzero second-form
    coefficients in null coordinates; with this module's nu convention they
    equal -g1'*w1*s and g2'*w2*s where s = sign(1 - g1*g2).
    """
    pair = as_pair(surface)
    pj, own_u = pair.jets("u", u)
    qj, own_v = pair.jets("v", v)
    f_u = 0.5 * vec3(pj[0].value, pj[1].value, pj[2].value)
    f_v = 0.5 * vec3(qj[0].value, qj[1].value, qj[2].value)
    f_uu = 0.5 * vec3(pj[0].d1, pj[1].d1, pj[2].d1)
    f_vv = 0.5 * vec3(qj[0].d1, qj[1].d1, qj[2].d1)
    f = evaluate(surface, u, v) if with_position else np.zeros(3)
    d = get_data(surface)
    g = () if d is None else (own_u[0].value, own_v[0].value)
    n, has_n, nu, has_nu = _normals(f_u, f_v, *g)
    Q = R = None
    if has_nu:
        Q, R = mdot(f_uu, nu), mdot(f_vv, nu)
    return SurfaceJet(u, v, f, f_u, f_v, f_uu, f_vv, np.zeros(3),
                      mdot(f_u, f_v), n if has_n else None,
                      nu if has_nu else None, Q, R,
                      "curves" if d is None else "weierstrass")


def _normals(f_u, f_v, g1=None, g2=None):
    """(n, has_n, nu, has_nu): the Euclidean and the Lorentzian unit normal
    of jets_at at vectors or stacks, each with where it exists; from the
    data values g1, g2 in Weierstrass mode (there n always exists)."""
    with np.errstate(all="ignore"):
        if g1 is not None:
            gg = g1 * g2
            w = np.stack([-g1 - g2, g1 - g2, -1.0 - gg], axis=-1)
            denom = np.abs(1.0 - gg)
            nu = (np.stack([g1 + g2, g1 - g2, -1.0 - gg], axis=-1)
                  / denom[..., None])
            return (w / np.asarray(enorm(w))[..., None], True, nu,
                    denom > 1e-14 * (1.0 + np.abs(gg)))
        w_e = np.cross(f_u, f_v)
        size = REGULAR_TOL * np.maximum(enorm(f_u) * enorm(f_v), 1e-30)
        mag = enorm(w_e)
        w_l = w_e * METRIC
        s2 = mdot(w_l, w_l)
        return (w_e / np.asarray(mag)[..., None], mag > size,
                w_l / np.sqrt(s2)[..., None], s2 > float_pow(size, 2))


def normal_samples(su, sv):
    """``_normals`` of the u-record su and the v-record sv (AxisSamples)."""
    g = () if su.g is None else (su.g.value, sv.g.value)
    return _normals(0.5 * su.vel, 0.5 * sv.vel, *g)


def mean_curvature_residual(surface: Surface, u: float, v: float) -> float:
    """2<f_uv, nu>/Lambda at a regular point; zero for a minimal immersion."""
    sj = jets_at(surface, u, v, with_position=False)
    if sj.nu is None or sj.Lambda == 0.0:
        raise SingularPoint(f"({u!r}, {v!r}) is not a regular point")
    return 2.0 * mdot(sj.f_uv, sj.nu) / sj.Lambda


def conjugate_data(d: Surface) -> RealWeierstrassData:
    """The conjugate surface's data: (g1, g2, w1, -w2), same base and f0."""
    d = require_data(d, "conjugation")
    return RealWeierstrassData(d.g1, d.g2, d.w1, expr_mod.negated(d.w2),
                               d.domain, d.base, d.f0.copy())


# --- description files ------------------------------------------------------

_COMMON_KEYS = {"mode", "domain", "base", "f0"}
_W_KEYS = _COMMON_KEYS | {"g1", "g2", "w1", "w2"}
_C_KEYS = _COMMON_KEYS | {"phi", "psi"}


def _parse_field(text, name: str):
    try:
        return parse(text)
    except (TypeError,) as err:
        raise SpecFileError(f"field {name} must be an expression string") \
            from err
    except Exception as err:
        raise SpecFileError(f"field {name}: {err}") from err


def _numbers(value, n: int, key: str) -> tuple:
    """value, which must list exactly n numbers (not booleans), as floats."""
    if not (isinstance(value, (list, tuple)) and len(value) == n
            and all(isinstance(c, (int, float)) and not isinstance(c, bool)
                    for c in value)):
        raise SpecFileError(f"{key} must be a list of {n} numbers")
    try:
        return tuple(float(c) for c in value)
    except OverflowError as err:  # an integer beyond the float range
        raise SpecFileError(f"{key}: {err}") from None


def surface_from_dict(obj: dict) -> Surface:
    if not isinstance(obj, dict):
        raise SpecFileError("surface description must be a JSON object")
    mode = obj.get("mode")
    if mode not in ("weierstrass", "curves"):
        raise SpecFileError("mode must be 'weierstrass' or 'curves'")
    allowed = _W_KEYS if mode == "weierstrass" else _C_KEYS
    unknown = set(obj) - allowed
    if unknown:
        raise SpecFileError("unknown keys: " + ", ".join(sorted(unknown)))
    missing = (allowed - _COMMON_KEYS) - set(obj) | ({"domain"} - set(obj))
    if missing:
        raise SpecFileError("missing keys: " + ", ".join(sorted(missing)))
    dom = obj["domain"] if isinstance(obj["domain"], dict) else {}
    (u0, u1), (v0, v1) = (_numbers(dom.get(k), 2, f"bad domain: {k}")
                          for k in "uv")
    try:
        rect = Rect(u0, u1, v0, v1)
    except ValueError as err:
        raise SpecFileError(f"bad domain: {err}") from err
    base = (_numbers(obj["base"], 2, "base") if "base" in obj else
            (0.5 * (rect.u_min + rect.u_max), 0.5 * (rect.v_min + rect.v_max)))
    f0 = np.asarray(_numbers(obj.get("f0", (0, 0, 0)), 3, "f0"))
    try:
        if mode == "weierstrass":
            return RealWeierstrassData(
                *(_parse_field(obj[key], repr(key))
                  for key in ("g1", "g2", "w1", "w2")), rect, base, f0)
        phi, psi = obj["phi"], obj["psi"]
        if (not isinstance(phi, (list, tuple)) or len(phi) != 3
                or not isinstance(psi, (list, tuple)) or len(psi) != 3):
            raise SpecFileError("phi and psi must be 3-element lists")
        return pair_from_position_expressions(
            [_parse_field(c, f"'phi'[{k}]") for k, c in enumerate(phi)],
            [_parse_field(c, f"'psi'[{k}]") for k, c in enumerate(psi)],
            rect, base, f0)
    except (InvalidWeierstrassData, InvalidCurveData) as err:
        raise SpecFileError(str(err)) from err


def surface_to_dict(surface: Surface) -> dict:
    """The description of a surface, written from its pair's expressions."""
    pair = as_pair(surface)
    rect = pair.domain
    out = {
        "mode": pair.source,
        "domain": {"u": [rect.u_min, rect.u_max],
                   "v": [rect.v_min, rect.v_max]},
        "base": [pair.base[0], pair.base[1]],
        "f0": [float(c) for c in pair.f0],
    }
    u, v = ([expr_mod.to_string(e) for e in side] for side in pair.exprs)
    if pair.source == "weierstrass":
        out["g1"], out["g2"], out["w1"], out["w2"] = u[0], v[0], u[1], v[1]
    else:
        out["phi"], out["psi"] = u, v
    return out


def load_spec(path) -> Surface:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as err:
        raise SpecFileError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise SpecFileError(f"{path} is not valid JSON: {err}") from err
    return surface_from_dict(obj)


def save_spec(surface: Surface, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(surface_to_dict(surface), fh, indent=2)
        fh.write("\n")
