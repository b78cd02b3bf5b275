"""Gaussian curvature, flat-point classification, orientation and gauges.

Three independent curvature routes are provided and cross-checked in the
verification battery:

* closed    K = 4 g1' g2' / (w1 w2 (1 - g1 g2)^4) from the data functions
* extrinsic K = -Q R / Lambda^2 from the shape operator at the point
* intrinsic K = -(1/Lambda) d2/dudv log|Lambda| by finite differences

On a raw null-curve pair the closed route is unavailable and silently
delegates to the extrinsic one (same value, no data functions needed).

Each quantity is one formula over a u-record and a v-record
(``AxisSamples``); a per-point function runs it on the one-point records of
its (u, v) and raises the typed error where the formula's mask is False.

The second half of the module deals with the generating curves themselves:
orientation signs det(gamma', gamma'', gamma'''), the winding-rate signs of
the tangent indicatrices, and the energy gauge, whose data derivatives are
taken in the unit-acceleration gauge: the parameter s with
<gamma_ss, gamma_ss> = 1, reached at the rate t_s = <gamma'', gamma''>^(-1/4)
of ``AxisSamples.gauge_rate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Tuple

import numpy as np

from .errors import (DegenerateAtPoint, FlatPoint, NonFiniteResult,
                     SingularPoint, SingularNeighborhood)
from .jets import Jet3, elementwise, float_pow
from .lorentz import det3, enorm, mdot, vec3
from .surface import (REGULAR_TOL, Surface, SurfaceJet, as_pair, get_data,
                      normal_samples, require_data)

FD_STEP = 1e-3
# A curve counts as degenerate (flat) where its acceleration pseudo-norm is at
# most this share of the squared local jet size.
FLAT_TOL = 1e-9
# The unit-acceleration gauge exists where <gamma'', gamma''> exceeds this
# share of (1 + |gamma''|)^2.
_DEGENERACY_TOL = 1e-12

# A "curve" below is a callable t -> (Jet3, Jet3, Jet3): the velocity jets of
# a null curve, so value/d1/d2 of the components are gamma'/gamma''/gamma'''.
CurveFn = Callable[[float], Tuple[Jet3, Jet3, Jet3]]


def axis_curve(surface: Surface, axis: str) -> CurveFn:
    """Velocity-jet function of one generating curve of a surface."""
    pair = as_pair(surface)
    if axis == "u":
        return pair.phi_prime
    if axis == "v":
        return pair.psi_prime
    raise ValueError(f"axis must be 'u' or 'v', not {axis!r}")


def _unpack(jets) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    c1 = vec3(jets[0].value, jets[1].value, jets[2].value)
    c2 = vec3(jets[0].d1, jets[1].d1, jets[2].d1)
    c3 = vec3(jets[0].d2, jets[1].d2, jets[2].d2)
    return c1, c2, c3


def _orientation_det(vel, acc, jerk, tol: float = 1e-12):
    """det(gamma', gamma'', gamma''') of a null curve, and where it is not
    negligible against (1 + |gamma'|)(1 + |gamma''|)(1 + |gamma'''|)."""
    det = det3(vel, acc, jerk)
    scale = (1.0 + enorm(vel)) * (1.0 + enorm(acc)) * (1.0 + enorm(jerk))
    return det, ~(np.abs(det) <= tol * scale)


class AxisSamples:
    """One generating curve of a surface, sampled at every parameter of ts.

    Evaluates the curve once (``NullCurvePair.jets``) and keeps the
    velocity, acceleration and jerk, the data jets g and w (g1, w1 on axis
    u; None without live data) and a raw curve's ``position`` (else None);
    the per-axis arrays below derive from them on first use. A float ts
    makes a one-point record, each array element equal to it bit for bit,
    and every attribute and formula below runs on both. ts may have any
    shape: records on ``us[:, None]`` and ``vs[None, :]`` broadcast the
    two-variable formulas to a grid. Raises NonFiniteResult at the first
    parameter whose jets are too large to square, as the formulas do.
    """

    def __init__(self, surface: Surface, axis: str, ts):
        if axis not in ("u", "v"):
            raise ValueError(f"axis must be 'u' or 'v', not {axis!r}")
        self.surface, self.axis = surface, axis
        self.ts = np.asarray(ts, dtype=np.float64)
        one = self.ts.ndim == 0
        pair = as_pair(surface)
        jets, own = pair.jets(axis, self.ts.item() if one else self.ts)
        # np.array is the cheap way to one 3-vector
        stack = np.array if one else (lambda x: np.stack(x, axis=-1))
        self.g, self.w = own if get_data(surface) is not None else (None, None)
        self.position = (stack([j.value for j in own])
                         if pair.source == "curves" else None)
        self.vel, self.acc, self.jerk = (
            stack(x) for x in zip(*(j.as_tuple()[:3] for j in jets)))
        with np.errstate(over="ignore"):
            size = np.square(1.0 + enorm(self.vel) + enorm(self.acc)
                             + enorm(self.jerk))
        if not np.all(np.isfinite(size)):
            t = float(self.ts[~np.isfinite(size)][0])
            raise NonFiniteResult(f"{'phi' if axis == 'u' else 'psi'}' is "
                                  f"too large to square at parameter {t!r}")

    def shifted(self, step: float) -> "AxisSamples":
        """The record at ts + step."""
        return AxisSamples(self.surface, self.axis, self.ts + step)

    def flat(self, tol: float = FLAT_TOL) -> np.ndarray:
        """Where the curve degenerates, as flat_classify tests it at tol."""
        scale = (1.0 + enorm(self.vel) + enorm(self.acc)) ** 2
        return np.abs(mdot(self.acc, self.acc)) <= tol * scale

    @cached_property
    def orientation(self) -> Tuple[np.ndarray, np.ndarray]:
        """Signs of ``orientation`` at each t, and where it has one."""
        det, ok = _orientation_det(self.vel, self.acc, self.jerk)
        return np.where(det > 0, 1, -1), ok

    @cached_property
    def quartic_root(self) -> np.ndarray:
        """<gamma'', gamma''>^(1/4) at each t, 0 where not positive."""
        return float_pow(np.fmax(mdot(self.acc, self.acc), 0.0), 0.25)

    def winding_sign(self, step: float = 1e-5):
        """The sign of ``winding_signs`` at each t, and where it has one."""

        def angle(c1):
            fwd = c1 * np.where(c1[..., 0] > 0, 1.0, -1.0)[..., None]
            return _atan2(fwd[..., 2], fwd[..., 1])

        delta = (angle(self.shifted(step).vel)
                 - angle(self.shifted(-step).vel))
        delta = (delta + math.pi) % (2.0 * math.pi) - math.pi
        return (np.where(delta > 0, 1, -1)
                * np.where(self.vel[..., 0] > 0, 1, -1), delta != 0.0)

    def gaugeable(self) -> np.ndarray:
        """Where the unit-acceleration gauge exists at t."""
        return ~(mdot(self.acc, self.acc)
                 <= _DEGENERACY_TOL * float_pow(1.0 + enorm(self.acc), 2))

    def gauge_rate(self, fd_step: float = 1e-5):
        """t_s = <gamma'', gamma''>^(-1/4) at each t, and where the gauge
        exists at t, t + fd_step and t - fd_step."""
        ok = np.logical_and.reduce(
            [self.gaugeable(), self.shifted(fd_step).gaugeable(),
             self.shifted(-fd_step).gaugeable()])
        q4 = np.where(ok, mdot(self.acc, self.acc), 1.0)
        return 1.0 / float_pow(q4, 0.25), ok


def gathered(parts, index) -> AxisSamples:
    """The record at ts[index] of the parts' (one axis, one surface) joined
    parameters, sliced from them, not evaluated again."""

    def pick(arrays):
        return np.concatenate(arrays)[index]

    def jet(name):
        return None if parts[0].g is None else Jet3(*map(pick, zip(
            *(getattr(p, name).as_tuple() for p in parts))))

    out = object.__new__(AxisSamples)
    out.surface, out.axis = parts[0].surface, parts[0].axis
    out.ts, out.g, out.w = pick([p.ts for p in parts]), jet("g"), jet("w")
    out.position = (None if parts[0].position is None
                    else pick([p.position for p in parts]))
    out.vel, out.acc, out.jerk = (pick([getattr(p, name) for p in parts])
                                  for name in ("vel", "acc", "jerk"))
    return out


# Two-variable quantities at each (u, v) of a u-record su and a v-record sv,
# each with a mask of where the per-point function returns rather than
# raises; a masked element may hold inf or NaN.

_log = elementwise(math.log)
_atan2 = elementwise(math.atan2, 2)


def lambda_samples(su: AxisSamples, sv: AxisSamples):
    """Lambda = <phi', psi'> / 4, the metric coefficient <f_u, f_v>."""
    return 0.25 * mdot(su.vel, sv.vel)


def regular_samples(su: AxisSamples, sv: AxisSamples) -> np.ndarray:
    """Where Lambda is not negligible: off the singular set."""
    scale = enorm(su.vel) * enorm(sv.vel)
    return ~(np.abs(lambda_samples(su, sv))
             <= REGULAR_TOL * np.maximum(scale, 1e-300))


def _pow(x, n: int, what: str):
    """float_pow(x, n), or NonFiniteResult where the float ** overflows."""
    try:
        return float_pow(x, n)
    except OverflowError:
        raise NonFiniteResult(f"non-finite result in {what}") from None


def closed_k_samples(su: AxisSamples, sv: AxisSamples):
    """gaussian_curvature by its closed route (extrinsic on a raw pair);
    NonFiniteResult where the mask holds but K or its denominator is not
    finite (an overflowed denominator does not make K 0)."""
    if su.g is None:
        return extrinsic_k_samples(su, sv)
    with np.errstate(all="ignore"):
        gg = su.g.value * sv.g.value
        denom = su.w.value * sv.w.value * _pow(1.0 - gg, 4, "(1 - g1 g2)^4")
        k = 4.0 * su.g.d1 * sv.g.d1 / denom
        ok = (denom != 0.0) & ~(np.abs(1.0 - gg) < 1e-15 * (1.0 + np.abs(gg)))
    if np.any(ok & ~(np.isfinite(denom) & np.isfinite(k))):
        raise NonFiniteResult("non-finite result in the closed-form K")
    return k, ok


def area_density_samples(su: AxisSamples, sv: AxisSamples) -> np.ndarray:
    """The signed area density lambda of Weierstrass data,

        -(w1 w2 / 2)(1 - g1 g2) sqrt((1 - g1 g2)^2 + 2 (g1 + g2)^2).

    It vanishes exactly on the singular set, and its sign tells the two
    sides of the singular curve apart.
    """
    g1, g2 = su.g.value, sv.g.value
    with np.errstate(all="ignore"):
        one_m = 1.0 - g1 * g2
        return (-0.5 * su.w.value * sv.w.value * one_m
                * np.sqrt(_pow(one_m, 2, "(1 - g1 g2)^2")
                          + 2.0 * _pow(g1 + g2, 2, "(g1 + g2)^2")))


def _extrinsic_k(f_u, f_v, Q, R, has_nu=True):
    """K = -Q R / Lambda^2 with Lambda = <f_u, f_v>, and where Lambda is not
    negligible against |f_u| |f_v| and has_nu holds; NonFiniteResult where
    that holds but K is not finite."""
    with np.errstate(all="ignore"):
        lam = mdot(f_u, f_v)
        scale = enorm(f_u) * enorm(f_v)
        k = -Q * R / _pow(lam, 2, "Lambda^2")
        ok = (~(np.abs(lam) <= REGULAR_TOL * np.maximum(scale, 1e-300))
              & has_nu)
    if np.any(ok & ~np.isfinite(k)):
        raise NonFiniteResult("non-finite result in K = -Q R / Lambda^2")
    return k, ok


def extrinsic_k_samples(su: AxisSamples, sv: AxisSamples):
    """gaussian_curvature(method="extrinsic"): K = -Q R / Lambda^2."""
    _, _, nu, has_nu = normal_samples(su, sv)
    with np.errstate(all="ignore"):
        q, r = mdot(0.5 * su.acc, nu), mdot(0.5 * sv.acc, nu)
    return _extrinsic_k(0.5 * su.vel, 0.5 * sv.vel, q, r, has_nu)


def intrinsic_k_samples(su: AxisSamples, sv: AxisSamples, h: float = FD_STEP):
    """gaussian_curvature_intrinsic_fd on the stencil of half-width h."""
    # evaluated in the order the stencil corners first need them
    up, vp = su.shifted(h), sv.shifted(h)
    vm, um = sv.shifted(-h), su.shifted(-h)
    with np.errstate(all="ignore"):
        lam0 = lambda_samples(su, sv)
        corners = [lambda_samples(a, b)
                   for a, b in ((up, vp), (up, vm), (um, vp), (um, vm))]
        ok = np.not_equal(lam0, 0.0)
        for c in corners:
            ok = ok & (c != 0.0) & ((c > 0) == (lam0 > 0))
        pp, pm, mp, mm = (_log(np.where(ok, np.abs(c), 1.0))
                          for c in corners)
        mixed = (pp - pm - mp + mm) / (4.0 * h * h)
        return -mixed / lam0, ok


def sign_prediction_samples(su: AxisSamples, sv: AxisSamples):
    """``sign_prediction``: the product of the two curve orientations."""
    e_phi, ok_u = su.orientation
    e_psi, ok_v = sv.orientation
    return e_phi * e_psi, regular_samples(su, sv) & ok_u & ok_v


def energy_gauge_samples(su: AxisSamples, sv: AxisSamples):
    """``energy_gauge``: E = eps (1 - g1 g2)^2 / (4 g1~' g2~'), with eps
    the sign prediction and g~' = g' t_s the data derivatives in the
    unit-acceleration gauge."""
    eps, ok = sign_prediction_samples(su, sv)
    t_s_u, ok_u = su.gauge_rate()
    t_s_v, ok_v = sv.gauge_rate()
    with np.errstate(all="ignore"):
        e = (eps * _pow(1.0 - su.g.value * sv.g.value, 2, "(1 - g1 g2)^2")
             / (4.0 * (su.g.d1 * t_s_u) * (sv.g.d1 * t_s_v)))
    return e, ok & ok_u & ok_v


# --- the per-point functions: the formulas on one-point records --------------


def _records(surface: Surface, u: float, v: float):
    """The one-point u- and v-records of (u, v)."""
    return AxisSamples(surface, "u", u), AxisSamples(surface, "v", v)


def _singular_point(u: float, v: float) -> SingularPoint:
    return SingularPoint(f"({u!r}, {v!r}) lies on the singular set")


def _flat_point(u: float, v: float) -> FlatPoint:
    return FlatPoint(f"({u!r}, {v!r}) is a flat point; K has no sign there")


def gaussian_curvature_extrinsic(j: SurfaceJet) -> float:
    """K = -Q R / Lambda^2 from an already-computed surface jet."""
    ok = j.Q is not None and j.R is not None
    if ok:
        k, ok = _extrinsic_k(j.f_u, j.f_v, j.Q, j.R)
    if not ok:
        raise _singular_point(j.u, j.v)
    return float(k)


def gaussian_curvature_intrinsic_fd(d: Surface, u: float, v: float,
                                    h: float = FD_STEP) -> float:
    """K = -(1/Lambda) d2/dudv log|Lambda| by a mixed central difference.

    Uses the four stencil corners (u +- h, v +- h). Raises SingularPoint when
    Lambda vanishes at the center and SingularNeighborhood when it changes
    sign (or vanishes) across the stencil, where log|Lambda| is not smooth.
    """
    su, sv = _records(d, u, v)
    if lambda_samples(su, sv) == 0.0:  # before the stencil is evaluated
        raise _singular_point(u, v)
    k, ok = intrinsic_k_samples(su, sv, h)
    if not ok:
        raise SingularNeighborhood(
            f"Lambda changes sign within {h!r} of ({u!r}, {v!r})")
    return float(k)


def gaussian_curvature(surface: Surface, u: float, v: float,
                       method: str = "closed", h: float = FD_STEP) -> float:
    """Gaussian curvature at (u, v) by the requested route.

    Raises SingularPoint on the singular set (Lambda = 0 there, and every
    route divides by it); the intrinsic route additionally raises
    SingularNeighborhood when its stencil of half-width h straddles a sign
    change of Lambda, where log|Lambda| differentiation is meaningless.
    """
    if method == "intrinsic":
        return gaussian_curvature_intrinsic_fd(surface, u, v, h)
    if method not in ("closed", "extrinsic"):
        raise ValueError(f"unknown method {method!r}")
    k, ok = (closed_k_samples if method == "closed" else extrinsic_k_samples)(
        *_records(surface, u, v))
    if not ok:
        raise _singular_point(u, v)
    return float(k)


# --- flat points --------------------------------------------------------------


class FlatTag(Enum):
    """Nature of a point with respect to flatness (K = 0)."""

    NON_FLAT = "NonFlat"
    QUASI_UMBILIC = "QuasiUmbilic"
    UMBILIC = "Umbilic"

    @property
    def code(self) -> int:
        """Small integer for tabular export: 0 non-flat, 1 quasi, 2 umbilic."""
        return _FLAT_TAGS.index(self)


_FLAT_TAGS = (FlatTag.NON_FLAT, FlatTag.QUASI_UMBILIC, FlatTag.UMBILIC)


@dataclass(frozen=True)
class FlatClassification:
    """Acceleration pseudo-norms of the two generating curves at a point.

    ``q_norm2`` is <phi'', phi''> = 4 g1'^2 w1^2 and ``r_norm2`` the psi
    analogue, so each vanishes exactly where its curve degenerates. Both
    vanishing makes the point umbilic, exactly one makes it quasi-umbilic;
    the shape operator is then non-diagonalizable.
    """

    tag: FlatTag
    q_norm2: float
    r_norm2: float
    phi_flat: bool
    psi_flat: bool


def flat_classify(p: Surface, u: float, v: float,
                  tol: float = FLAT_TOL) -> FlatClassification:
    """Classify (u, v) as Umbilic / QuasiUmbilic / NonFlat.

    The squares are compared against tol scaled by the local jet magnitude.
    Raises SingularPoint off the regular set, where flatness is undefined.
    """
    su, sv = _records(p, u, v)
    if not regular_samples(su, sv):
        raise _singular_point(u, v)
    phi_flat, psi_flat = bool(su.flat(tol)), bool(sv.flat(tol))
    return FlatClassification(_FLAT_TAGS[phi_flat + psi_flat],
                              mdot(su.acc, su.acc), mdot(sv.acc, sv.acc),
                              phi_flat, psi_flat)


# --- orientation and sign bookkeeping ------------------------------------------


@dataclass(frozen=True)
class OrientationSign:
    """Sign (and value) of det(gamma', gamma'', gamma''') for a null curve."""

    sign: int
    determinant: float


def orientation(curve: CurveFn, t: float, tol: float = 1e-12) -> OrientationSign:
    """Orientation of a null curve at t from its velocity jets.

    The sign is invariant under orientation-preserving reparametrization
    (the determinant scales by the sixth power of the parameter rate).
    Raises DegenerateAtPoint where the determinant vanishes, which for a
    null curve happens exactly at its degenerate points.
    """
    det, ok = _orientation_det(*_unpack(curve(t)), tol)
    if not ok:
        raise DegenerateAtPoint(
            f"curve is degenerate at {t!r} (det = {det!r})")
    return OrientationSign(1 if det > 0 else -1, det)


def curve_orientation(surface: Surface, axis: str, t: float,
                      tol: float = 1e-12) -> OrientationSign:
    """Orientation of the u- or v-generating curve of a surface."""
    return orientation(axis_curve(surface, axis), t, tol)


def sign_prediction(d: Surface, u: float, v: float) -> int:
    """Predicted sign of K: the product of the two curve orientations.

    Raises SingularPoint off the regular set and FlatPoint where either
    curve degenerates (there K = 0 and no sign exists).
    """
    su, sv = _records(d, u, v)
    sign, ok = sign_prediction_samples(su, sv)
    if not ok:
        raise (_flat_point if regular_samples(su, sv) else _singular_point)(
            u, v)
    return int(sign)


# --- winding-rate signs ---------------------------------------------------------


@dataclass(frozen=True)
class WindingSigns:
    """Signs of the angle rates of the two tangent indicatrices.

    Each generating null curve has tangent rho (1, cos A, sin A) with
    rho its time component; ``s_phi`` is the sign of A' corrected by
    sign(rho) (that correction is what makes sign(s_phi) equal the curve's
    orientation sign), and likewise ``s_psi``. The product equals sign K.
    """

    s_phi: int
    s_psi: int

    @property
    def product(self) -> int:
        return self.s_phi * self.s_psi


def winding_signs(surface: Surface, u: float, v: float,
                  step: float = 1e-5) -> WindingSigns:
    signs = []
    for axis, t in (("u", u), ("v", v)):
        sign, ok = AxisSamples(surface, axis, t).winding_sign(step)
        if not ok:
            raise DegenerateAtPoint(f"tangent angle is stationary at {t!r}")
        signs.append(int(sign))
    return WindingSigns(*signs)


def milnor_sign_check(p: Surface, u: float, v: float,
                      step: float = 1e-5) -> bool:
    """Whether the winding-rate sign product agrees with the sign of K.

    The two sides are computed independently: the left from finite
    differences of the tangent angles of the generating curves, the right
    from the extrinsic curvature route. Raises FlatPoint where K = 0 (no
    sign to compare) and SingularPoint off the regular set.
    """
    k = gaussian_curvature(p, u, v, method="extrinsic")
    if k == 0.0:
        raise _flat_point(u, v)
    return winding_signs(p, u, v, step).product == (1 if k > 0 else -1)


def energy_gauge(surface: Surface, u: float, v: float) -> float:
    """E = eps_phi eps_psi (1 - g1 g2)^2 / (4 g1~' g2~') in the unit gauge.

    g~' are the data-function derivatives after both curves are repara-
    metrized to unit acceleration pseudo-norm; the identity K E^2 =
    eps_phi eps_psi makes E a square root of 1/|K| with the right sign
    bookkeeping. Requires Weierstrass data.
    """
    require_data(surface, "the energy gauge")
    sign_prediction(surface, u, v)  # raises off the regular set and at flats
    e, ok = energy_gauge_samples(*_records(surface, u, v))
    if not ok:
        # name the first parameter where gauge_rate's mask fails, u's first
        for axis, t in (("u", u), ("v", v)):
            for s in (t, t + 1e-5, t - 1e-5):
                if not AxisSamples(surface, axis, s).gaugeable():
                    raise DegenerateAtPoint(
                        f"curve is degenerate at {float(s)!r}")
    return float(e)
