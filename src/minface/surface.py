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
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from . import expr as expr_mod
from .errors import (DataConversionDegenerate, InvalidCurveData,
                     InvalidWeierstrassData, ModeUnsupported, SingularPoint,
                     SpecFileError)
from .expr import Expression, eval_jet, eval_value, parse
from .jets import Jet3, lift_variable, shift_derivative
from .lorentz import enorm, mdot, vec3
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
        if not all(map(math.isfinite, (self.u_min, self.u_max,
                                       self.v_min, self.v_max))):
            raise ValueError("domain rectangle must have finite bounds")
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
        w1_vals = np.array([eval_value(self.w1, u) for u in us])
        w2_vals = np.array([eval_value(self.w2, v) for v in vs])
        for name, vals in (("w1", w1_vals), ("w2", w2_vals)):
            if np.any(vals == 0.0):
                raise InvalidWeierstrassData(f"{name} vanishes on the domain")
            if np.any(vals > 0) and np.any(vals < 0):
                raise InvalidWeierstrassData(
                    f"{name} changes sign on the domain (interior zero)")
        g1_vals = np.array([eval_value(self.g1, u) for u in us])
        g2_vals = np.array([eval_value(self.g2, v) for v in vs])
        prod = np.outer(g1_vals, g2_vals) - 1.0
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
        if self._pair is None:
            self._pair = curves_from_data(self)
        return self._pair


@dataclass
class NullCurvePair:
    """Velocity jets of the two generating null curves plus position prefixes.

    ``phi_prime(u)`` returns the three component jets of phi'(u): values are
    phi', first derivatives phi'', second derivatives phi'''. ``prime_order``
    records how many derivative slots beyond the value are trustworthy (3 in
    Weierstrass mode; 2 for raw position expressions, whose shifted jets fill
    the top slot with 0).
    """

    phi_prime: Callable[[float], tuple]
    psi_prime: Callable[[float], tuple]
    domain: Rect
    base: tuple
    f0: np.ndarray
    source: str  # 'weierstrass' | 'curves'
    prime_order: int = 3
    data: Optional[RealWeierstrassData] = None
    phi_position: Optional[Callable[[float], np.ndarray]] = None
    psi_position: Optional[Callable[[float], np.ndarray]] = None
    _phi_prefix: Optional[PrefixIntegral] = field(default=None, repr=False)
    _psi_prefix: Optional[PrefixIntegral] = field(default=None, repr=False)

    def phi_prime_value(self, u: float) -> np.ndarray:
        j = self.phi_prime(u)
        return vec3(j[0].value, j[1].value, j[2].value)

    def psi_prime_value(self, v: float) -> np.ndarray:
        j = self.psi_prime(v)
        return vec3(j[0].value, j[1].value, j[2].value)

    def phi_delta(self, u: float) -> np.ndarray:
        """Integral of phi' from the base u to u."""
        if self.phi_position is not None:
            return self.phi_position(u) - self.phi_position(self.base[0])
        if self._phi_prefix is None:
            self._phi_prefix = PrefixIntegral(
                self.phi_prime_value, self.base[0], self.domain.u_min,
                self.domain.u_max, abs_tol=QUAD_TOL)
        return self._phi_prefix(u)

    def psi_delta(self, v: float) -> np.ndarray:
        if self.psi_position is not None:
            return self.psi_position(v) - self.psi_position(self.base[1])
        if self._psi_prefix is None:
            self._psi_prefix = PrefixIntegral(
                self.psi_prime_value, self.base[1], self.domain.v_min,
                self.domain.v_max, abs_tol=QUAD_TOL)
        return self._psi_prefix(v)


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


# --- constructors ---------------------------------------------------------


def curves_from_data(d: RealWeierstrassData) -> NullCurvePair:
    """Velocity jets of the null curves determined by the data functions."""

    def phi_prime(u: float):
        g = d.g1_jet(u)
        w = d.w1_jet(u)
        gg = g * g
        return ((-1.0 - gg) * w, (1.0 - gg) * w, 2.0 * g * w)

    def psi_prime(v: float):
        g = d.g2_jet(v)
        w = d.w2_jet(v)
        gg = g * g
        return ((1.0 + gg) * w, (1.0 - gg) * w, -2.0 * g * w)

    return NullCurvePair(phi_prime, psi_prime, d.domain, d.base, d.f0.copy(),
                         source="weierstrass", prime_order=3, data=d)


def pair_from_position_expressions(phi_exprs, psi_exprs, domain: Rect,
                                   base=(0.0, 0.0), f0=None,
                                   null_tol: float = 1e-10) -> NullCurvePair:
    """Raw-curve mode: three position expressions per curve.

    The velocities must be Lorentzian null and nonvanishing; probed on 64
    points per axis. f0 defaults to the true position (phi + psi)/2 at the
    base parameters so evaluate() agrees with the position expressions.
    """
    phi = [e if isinstance(e, Expression) else parse(e) for e in phi_exprs]
    psi = [e if isinstance(e, Expression) else parse(e) for e in psi_exprs]
    if len(phi) != 3 or len(psi) != 3:
        raise InvalidCurveData("each curve needs exactly three components")
    for side, comps in (("u", phi), ("v", psi)):
        names = {e.variable for e in comps if e.variable is not None}
        if len(names) > 1:
            raise InvalidCurveData(
                f"{side}-side curve components disagree on the variable name")

    def phi_position(u: float) -> np.ndarray:
        return vec3(*(eval_value(e, u) for e in phi))

    def psi_position(v: float) -> np.ndarray:
        return vec3(*(eval_value(e, v) for e in psi))

    def phi_prime(u: float):
        return tuple(shift_derivative(eval_jet(e, lift_variable(u)))
                     for e in phi)

    def psi_prime(v: float):
        return tuple(shift_derivative(eval_jet(e, lift_variable(v)))
                     for e in psi)

    for name, fn, grid in (("phi", phi_prime, domain.u_grid(_VALIDATION_GRID)),
                           ("psi", psi_prime, domain.v_grid(_VALIDATION_GRID))):
        for t in grid:
            j = fn(t)
            vel = vec3(j[0].value, j[1].value, j[2].value)
            speed2 = float(vel @ vel)
            if speed2 == 0.0:
                raise InvalidCurveData(
                    f"{name}' vanishes at parameter {t!r}")
            if abs(mdot(vel, vel)) > null_tol * max(1.0, speed2):
                raise InvalidCurveData(
                    f"{name}' is not null at parameter {t!r}: "
                    f"<v,v> = {mdot(vel, vel)!r}")

    base = (float(base[0]), float(base[1]))
    if f0 is None:
        f0 = 0.5 * (phi_position(base[0]) + psi_position(base[1]))
    return NullCurvePair(phi_prime, psi_prime, domain, base,
                         np.asarray(f0, dtype=float), source="curves",
                         prime_order=2, phi_position=phi_position,
                         psi_position=psi_position)


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


def _rotate_time_axis(vel: np.ndarray, theta: float) -> np.ndarray:
    if theta == 0.0:
        return vel
    c, s = math.cos(theta), math.sin(theta)
    return vec3(vel[0], vel[1] * c - vel[2] * s, vel[1] * s + vel[2] * c)


def data_from_curves(pair: NullCurvePair, theta: float = 0.0,
                     tol: float = 1e-12) -> RecoveredData:
    """Invert the Weierstrass assembly on a null-curve pair.

    After an optional rotation by theta about the timelike axis,
    w1 = (phi'^1 - phi'^0)/2 and g1 = phi'^2 / (2 w1); similarly
    w2 = (psi'^0 + psi'^1)/2 and g2 = -psi'^2 / (2 w2). A vanishing
    denominator raises DataConversionDegenerate with the offending parameter;
    a different theta usually removes the degeneracy.
    """

    def w1_at(u: float) -> float:
        vel = _rotate_time_axis(pair.phi_prime_value(u), theta)
        w = 0.5 * (vel[1] - vel[0])
        if abs(w) <= tol * max(1.0, enorm(vel)):
            raise DataConversionDegenerate("u", u)
        return w

    def g1_at(u: float) -> float:
        vel = _rotate_time_axis(pair.phi_prime_value(u), theta)
        return vel[2] / (2.0 * w1_at(u))

    def w2_at(v: float) -> float:
        vel = _rotate_time_axis(pair.psi_prime_value(v), theta)
        w = 0.5 * (vel[0] + vel[1])
        if abs(w) <= tol * max(1.0, enorm(vel)):
            raise DataConversionDegenerate("v", v)
        return w

    def g2_at(v: float) -> float:
        vel = _rotate_time_axis(pair.psi_prime_value(v), theta)
        return -vel[2] / (2.0 * w2_at(v))

    return RecoveredData(g1_at, g2_at, w1_at, w2_at, theta)


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
    pj = pair.phi_prime(u)
    qj = pair.psi_prime(v)
    f_u = 0.5 * vec3(pj[0].value, pj[1].value, pj[2].value)
    f_v = 0.5 * vec3(qj[0].value, qj[1].value, qj[2].value)
    f_uu = 0.5 * vec3(pj[0].d1, pj[1].d1, pj[2].d1)
    f_vv = 0.5 * vec3(qj[0].d1, qj[1].d1, qj[2].d1)
    f_uv = np.zeros(3)
    lam = mdot(f_u, f_v)
    f = evaluate(surface, u, v) if with_position else np.zeros(3)

    d = get_data(surface)
    if d is not None:
        g1v = d.g1_jet(u).value
        g2v = d.g2_jet(v).value
        w = vec3(-g1v - g2v, g1v - g2v, -1.0 - g1v * g2v)
        n = w / enorm(w)  # never zero: needs g1=g2=0 and 1+g1*g2=0 at once
        denom = 1.0 - g1v * g2v
        if abs(denom) > 1e-14 * (1.0 + abs(g1v * g2v)):
            nu = vec3(g1v + g2v, g1v - g2v, -1.0 - g1v * g2v) / abs(denom)
            Q = mdot(f_uu, nu)
            R = mdot(f_vv, nu)
        else:
            nu = Q = R = None
        mode = "weierstrass"
    else:
        w_e = np.cross(f_u, f_v)
        scale = enorm(f_u) * enorm(f_v)
        mag = enorm(w_e)
        n = w_e / mag if mag > REGULAR_TOL * max(scale, 1e-30) else None
        w_l = vec3(-w_e[0], w_e[1], w_e[2])
        s2 = mdot(w_l, w_l)
        if s2 > (REGULAR_TOL * max(scale, 1e-30)) ** 2:
            nu = w_l / math.sqrt(s2)
            Q = mdot(f_uu, nu)
            R = mdot(f_vv, nu)
        else:
            nu = Q = R = None
        mode = "curves"
    return SurfaceJet(u, v, f, f_u, f_v, f_uu, f_vv, f_uv, lam, n, nu, Q, R,
                      mode)


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


def _parse_field(obj, key):
    try:
        return parse(obj[key])
    except (TypeError,) as err:
        raise SpecFileError(f"field {key!r} must be an expression string") \
            from err
    except Exception as err:
        raise SpecFileError(f"field {key!r}: {err}") from err


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
    dom = obj["domain"]
    try:
        rect = Rect(float(dom["u"][0]), float(dom["u"][1]),
                    float(dom["v"][0]), float(dom["v"][1]))
    except (KeyError, TypeError, IndexError, ValueError) as err:
        raise SpecFileError(f"bad domain: {err}") from err
    base = obj.get("base", (0.5 * (rect.u_min + rect.u_max),
                            0.5 * (rect.v_min + rect.v_max)))
    f0 = obj.get("f0", (0.0, 0.0, 0.0))
    try:
        base = (float(base[0]), float(base[1]))
        f0 = np.asarray([float(c) for c in f0], dtype=float)
        if f0.shape != (3,):
            raise ValueError("f0 needs three components")
    except (TypeError, IndexError, ValueError) as err:
        raise SpecFileError(f"bad base/f0: {err}") from err
    try:
        if mode == "weierstrass":
            return RealWeierstrassData(
                _parse_field(obj, "g1"), _parse_field(obj, "g2"),
                _parse_field(obj, "w1"), _parse_field(obj, "w2"),
                rect, base, f0)
        phi, psi = obj["phi"], obj["psi"]
        if (not isinstance(phi, (list, tuple)) or len(phi) != 3
                or not isinstance(psi, (list, tuple)) or len(psi) != 3):
            raise SpecFileError("phi and psi must be 3-element lists")
        return pair_from_position_expressions(
            [parse(c) for c in phi], [parse(c) for c in psi], rect, base, f0)
    except (InvalidWeierstrassData, InvalidCurveData) as err:
        raise SpecFileError(str(err)) from err


def surface_to_dict(surface: Surface) -> dict:
    d = get_data(surface)
    pair = as_pair(surface)
    rect = pair.domain
    out = {
        "mode": "weierstrass" if isinstance(surface, RealWeierstrassData)
                else pair.source,
        "domain": {"u": [rect.u_min, rect.u_max],
                   "v": [rect.v_min, rect.v_max]},
        "base": [pair.base[0], pair.base[1]],
        "f0": [float(c) for c in pair.f0],
    }
    if out["mode"] == "weierstrass":
        out["g1"] = expr_mod.to_string(d.g1)
        out["g2"] = expr_mod.to_string(d.g2)
        out["w1"] = expr_mod.to_string(d.w1)
        out["w2"] = expr_mod.to_string(d.w2)
    else:
        raise ModeUnsupported(
            "raw-curve surfaces do not retain their source expressions; "
            "write the original description instead")
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
