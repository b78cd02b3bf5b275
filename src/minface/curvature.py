"""Gaussian curvature, flat-point classification, orientation and gauges.

Three independent curvature routes are provided and cross-checked in the
verification battery:

* closed    K = 4 g1' g2' / (w1 w2 (1 - g1 g2)^4) from the data functions
* extrinsic K = -Q R / Lambda^2 from the shape operator at the point
* intrinsic K = -(1/Lambda) d2/dudv log|Lambda| by finite differences

On a raw null-curve pair the closed route is unavailable and silently
delegates to the extrinsic one (same value, no data functions needed).

The second half of the module deals with the generating curves themselves:
orientation signs det(gamma', gamma'', gamma'''), the winding-rate signs of
the tangent indicatrices, and reparametrization by pseudo-arclength (the
parameter in which the curve's acceleration has unit pseudo-norm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Tuple

import numpy as np

from .errors import (DegenerateAtPoint, DegenerateOnInterval, FlatPoint,
                     SingularPoint, SingularNeighborhood)
from .expr import eval_array
from .jets import Jet3, elementwise, float_pow
from .lorentz import METRIC, det3, enorm, mdot, vec3
from .quadrature import adaptive_quad
from .surface import (REGULAR_TOL, Surface, SurfaceJet, _prime_array,
                      as_pair, get_data, jets_at)

FD_STEP = 1e-3
# A curve counts as degenerate (flat) where its acceleration pseudo-norm is at
# most this share of the squared local jet size.
FLAT_TOL = 1e-9

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


class AxisSamples:
    """One generating curve of a surface, sampled at every parameter of ts.

    Evaluates once the data jets g and w (g1, w1 on axis u; None on a raw
    curve pair) and the velocity, acceleration and jerk; the per-axis
    arrays below derive from them on first use. Each element equals the
    per-point function at that parameter bit for bit. ts may have any
    shape: records on ``us[:, None]`` and ``vs[None, :]`` broadcast the
    two-variable formulas below to a grid.
    """

    def __init__(self, surface: Surface, axis: str, ts):
        if axis not in ("u", "v"):
            raise ValueError(f"axis must be 'u' or 'v', not {axis!r}")
        self.surface, self.axis = surface, axis
        self.ts = np.asarray(ts, dtype=np.float64)
        d = get_data(surface)
        if d is None:
            pair = as_pair(surface)
            self.g = self.w = None
            jets = (pair.phi_prime_array if axis == "u"
                    else pair.psi_prime_array)(self.ts)
        else:
            self.g, self.w = (eval_array(e, self.ts) for e in (
                (d.g1, d.w1) if axis == "u" else (d.g2, d.w2)))
            jets = _prime_array(axis, self.g, self.w)
        self.vel, self.acc, self.jerk = (
            np.stack([getattr(j, slot) for j in jets], axis=-1)
            for slot in ("value", "d1", "d2"))

    def shifted(self, step: float) -> "AxisSamples":
        """The record at ts + step."""
        return AxisSamples(self.surface, self.axis, self.ts + step)

    @cached_property
    def flat(self) -> np.ndarray:
        """Where the curve degenerates, as flat_classify tests it."""
        scale = (1.0 + enorm(self.vel) + enorm(self.acc)) ** 2
        return np.abs(mdot(self.acc, self.acc)) <= FLAT_TOL * scale

    @cached_property
    def orientation(self) -> Tuple[np.ndarray, np.ndarray]:
        """Signs of ``orientation`` at each t, and where it has one."""
        det = det3(self.vel, self.acc, self.jerk)
        scale = ((1.0 + enorm(self.vel)) * (1.0 + enorm(self.acc))
                 * (1.0 + enorm(self.jerk)))
        return np.where(det > 0, 1, -1), ~(np.abs(det) <= 1e-12 * scale)

    @cached_property
    def quartic_root(self) -> np.ndarray:
        """<gamma'', gamma''>^(1/4) at each t, 0 where not positive."""
        return float_pow(np.fmax(mdot(self.acc, self.acc), 0.0), 0.25)

    def winding_sign(self, step: float = 1e-5):
        """``_angle_rate_sign`` at each t, and where it has one."""

        def angle(c1):
            fwd = c1 * np.where(c1[..., 0] > 0, 1.0, -1.0)[..., None]
            return _atan2(fwd[..., 2], fwd[..., 1])

        delta = (angle(self.shifted(step).vel)
                 - angle(self.shifted(-step).vel))
        delta = (delta + math.pi) % (2.0 * math.pi) - math.pi
        return (np.where(delta > 0, 1, -1)
                * np.where(self.vel[..., 0] > 0, 1, -1), delta != 0.0)

    def gauge_rate(self, fd_step: float = 1e-5):
        """t_s = 1/q of ``reparam_jet`` at each t, and where it has one."""
        accs = [self.acc, self.shifted(fd_step).acc,
                self.shifted(-fd_step).acc]
        q4s = [mdot(acc, acc) for acc in accs]
        ok = np.logical_and.reduce(
            [~(q4 <= _DEGENERACY_TOL * float_pow(1.0 + enorm(acc), 2))
             for q4, acc in zip(q4s, accs)])
        return 1.0 / float_pow(np.where(ok, q4s[0], 1.0), 0.25), ok


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
    out.vel, out.acc, out.jerk = (pick([getattr(p, name) for p in parts])
                                  for name in ("vel", "acc", "jerk"))
    return out


# Two-variable quantities at each (u, v) of a u-record su and a v-record sv,
# each with a mask of where the per-point function returns rather than
# raises; a masked element may hold inf or NaN.

_log = elementwise(math.log)
_atan2 = elementwise(math.atan2, 2)


def regular_samples(su: AxisSamples, sv: AxisSamples) -> np.ndarray:
    """Where ``_require_regular`` passes."""
    lam = 0.25 * mdot(su.vel, sv.vel)
    scale = enorm(su.vel) * enorm(sv.vel)
    return ~(np.abs(lam) <= REGULAR_TOL * np.maximum(scale, 1e-300))


def normal_samples(su: AxisSamples, sv: AxisSamples):
    """The unit normal nu of jets_at, by its formula and tests."""
    with np.errstate(all="ignore"):
        if su.g is not None:
            g1, g2 = su.g.value, sv.g.value
            gg = g1 * g2
            denom = np.abs(1.0 - gg)
            nu = (np.stack([g1 + g2, g1 - g2, -1.0 - gg], axis=-1)
                  / denom[..., None])
            return nu, denom > 1e-14 * (1.0 + np.abs(gg))
        f_u, f_v = 0.5 * su.vel, 0.5 * sv.vel
        w_l = np.cross(f_u, f_v) * METRIC
        s2 = mdot(w_l, w_l)
        scale = enorm(f_u) * enorm(f_v)
        return (w_l / np.sqrt(s2)[..., None],
                s2 > float_pow(REGULAR_TOL * np.maximum(scale, 1e-30), 2))


def closed_k_samples(su: AxisSamples, sv: AxisSamples):
    """gaussian_curvature by its closed route (extrinsic on a raw pair)."""
    if su.g is None:
        return extrinsic_k_samples(su, sv)
    with np.errstate(all="ignore"):
        gg = su.g.value * sv.g.value
        denom = su.w.value * sv.w.value * float_pow(1.0 - gg, 4)
        k = 4.0 * su.g.d1 * sv.g.d1 / denom
        return k, (denom != 0.0) & ~(np.abs(1.0 - gg)
                                     < 1e-15 * (1.0 + np.abs(gg)))


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
                * np.sqrt(float_pow(one_m, 2) + 2.0 * float_pow(g1 + g2, 2)))


def extrinsic_k_samples(su: AxisSamples, sv: AxisSamples):
    """gaussian_curvature(method="extrinsic"): K = -Q R / Lambda^2."""
    nu, has_nu = normal_samples(su, sv)
    f_u, f_v = 0.5 * su.vel, 0.5 * sv.vel
    with np.errstate(all="ignore"):
        lam = mdot(f_u, f_v)
        scale = enorm(f_u) * enorm(f_v)
        k = (-mdot(0.5 * su.acc, nu) * mdot(0.5 * sv.acc, nu)
             / float_pow(lam, 2))
        return k, has_nu & (np.abs(lam)
                            > REGULAR_TOL * np.maximum(scale, 1e-300))


def intrinsic_k_samples(su: AxisSamples, sv: AxisSamples, h: float = FD_STEP):
    """gaussian_curvature_intrinsic_fd on the stencil of half-width h."""
    up, um = su.shifted(h).vel, su.shifted(-h).vel
    vp, vm = sv.shifted(h).vel, sv.shifted(-h).vel
    with np.errstate(all="ignore"):
        lam0 = 0.25 * mdot(su.vel, sv.vel)
        corners = [0.25 * mdot(a, b)
                   for a, b in ((up, vp), (up, vm), (um, vp), (um, vm))]
        ok = lam0 != 0.0
        for c in corners:
            ok &= ~((c == 0.0) | ((c > 0) != (lam0 > 0)))
        pp, pm, mp, mm = (_log(np.where(ok, np.abs(c), 1.0))
                          for c in corners)
        mixed = (pp - pm - mp + mm) / (4.0 * h * h)
        return -mixed / lam0, ok


def sign_prediction_samples(su: AxisSamples, sv: AxisSamples):
    """``sign_prediction``: the product of the two curve orientations."""
    e_phi, ok_u = su.orientation
    e_psi, ok_v = sv.orientation
    return e_phi * e_psi, regular_samples(su, sv) & ok_u & ok_v


def _require_regular(surface: Surface, u: float, v: float) -> float:
    """Lambda at (u, v), raising SingularPoint where it is negligible."""
    pair = as_pair(surface)
    vel_u = pair.phi_prime_value(u)
    vel_v = pair.psi_prime_value(v)
    lam = 0.25 * mdot(vel_u, vel_v)
    scale = enorm(vel_u) * enorm(vel_v)
    if abs(lam) <= REGULAR_TOL * max(scale, 1e-300):
        raise SingularPoint(f"({u!r}, {v!r}) lies on the singular set")
    return lam


def _lambda_value(surface: Surface, u: float, v: float) -> float:
    pair = as_pair(surface)
    return 0.25 * mdot(pair.phi_prime_value(u), pair.psi_prime_value(v))


# --- the three curvature routes ----------------------------------------------


def gaussian_curvature_extrinsic(j: SurfaceJet) -> float:
    """K = -Q R / Lambda^2 from an already-computed surface jet."""
    scale = enorm(j.f_u) * enorm(j.f_v)
    if (j.Q is None or j.R is None
            or abs(j.Lambda) <= REGULAR_TOL * max(scale, 1e-300)):
        raise SingularPoint(f"({j.u!r}, {j.v!r}) lies on the singular set")
    return -j.Q * j.R / j.Lambda ** 2


def gaussian_curvature_intrinsic_fd(d: Surface, u: float, v: float,
                                    h: float = FD_STEP) -> float:
    """K = -(1/Lambda) d2/dudv log|Lambda| by a mixed central difference.

    Uses the four stencil corners (u +- h, v +- h). Raises SingularPoint when
    Lambda vanishes at the center and SingularNeighborhood when it changes
    sign (or vanishes) across the stencil, where log|Lambda| is not smooth.
    """
    lam0 = _lambda_value(d, u, v)
    if lam0 == 0.0:
        raise SingularPoint(f"({u!r}, {v!r}) lies on the singular set")
    corners = [_lambda_value(d, u + su * h, v + sv * h)
               for su, sv in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    if any(c == 0.0 or (c > 0) != (lam0 > 0) for c in corners):
        raise SingularNeighborhood(
            f"Lambda changes sign within {h!r} of ({u!r}, {v!r})")
    pp, pm, mp, mm = (math.log(abs(c)) for c in corners)
    mixed = (pp - pm - mp + mm) / (4.0 * h * h)
    return -mixed / lam0


def gaussian_curvature(surface: Surface, u: float, v: float,
                       method: str = "closed", h: float = FD_STEP) -> float:
    """Gaussian curvature at (u, v) by the requested route.

    Raises SingularPoint on the singular set (Lambda = 0 there, and every
    route divides by it); the intrinsic route additionally raises
    SingularNeighborhood when its stencil of half-width h straddles a sign
    change of Lambda, where log|Lambda| differentiation is meaningless.
    """
    if method == "closed":
        d = get_data(surface)
        if d is None:
            return gaussian_curvature(surface, u, v, method="extrinsic")
        g1 = d.g1_jet(u)
        g2 = d.g2_jet(v)
        w1v = d.w1_jet(u).value
        w2v = d.w2_jet(v).value
        denom = w1v * w2v * (1.0 - g1.value * g2.value) ** 4
        if denom == 0.0 or abs(1.0 - g1.value * g2.value) < 1e-15 * (
                1.0 + abs(g1.value * g2.value)):
            raise SingularPoint(f"({u!r}, {v!r}) lies on the singular set")
        return 4.0 * g1.d1 * g2.d1 / denom

    if method == "extrinsic":
        return gaussian_curvature_extrinsic(
            jets_at(surface, u, v, with_position=False))

    if method == "intrinsic":
        return gaussian_curvature_intrinsic_fd(surface, u, v, h)

    raise ValueError(f"unknown method {method!r}")


# --- flat points --------------------------------------------------------------


class FlatTag(Enum):
    """Nature of a point with respect to flatness (K = 0)."""

    NON_FLAT = "NonFlat"
    QUASI_UMBILIC = "QuasiUmbilic"
    UMBILIC = "Umbilic"

    @property
    def code(self) -> int:
        """Small integer for tabular export: 0 non-flat, 1 quasi, 2 umbilic."""
        return _FLAT_CODES[self]


_FLAT_CODES = {FlatTag.NON_FLAT: 0, FlatTag.QUASI_UMBILIC: 1,
               FlatTag.UMBILIC: 2}


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
    _require_regular(p, u, v)
    pair = as_pair(p)
    squares = {}
    for axis, t in (("u", u), ("v", v)):
        c1, c2, _ = _unpack(axis_curve(pair, axis)(t))
        acc2 = mdot(c2, c2)
        scale = (1.0 + enorm(c1) + enorm(c2)) ** 2
        squares[axis] = (acc2, abs(acc2) <= tol * scale)
    q_norm2, phi_flat = squares["u"]
    r_norm2, psi_flat = squares["v"]
    if phi_flat and psi_flat:
        tag = FlatTag.UMBILIC
    elif phi_flat or psi_flat:
        tag = FlatTag.QUASI_UMBILIC
    else:
        tag = FlatTag.NON_FLAT
    return FlatClassification(tag, q_norm2, r_norm2, phi_flat, psi_flat)


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
    c1, c2, c3 = _unpack(curve(t))
    det = det3(c1, c2, c3)
    scale = (1.0 + enorm(c1)) * (1.0 + enorm(c2)) * (1.0 + enorm(c3))
    if abs(det) <= tol * scale:
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
    _require_regular(d, u, v)
    pair = as_pair(d)
    try:
        e_phi = orientation(pair.phi_prime, u).sign
        e_psi = orientation(pair.psi_prime, v).sign
    except DegenerateAtPoint as exc:
        raise FlatPoint(
            f"({u!r}, {v!r}) is a flat point; K has no sign there") from exc
    return e_phi * e_psi


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


def _angle_rate_sign(curve: CurveFn, t: float, step: float) -> int:
    def angle(tt: float) -> float:
        c1, _, _ = _unpack(curve(tt))
        fwd = c1 * (1.0 if c1[0] > 0 else -1.0)
        return math.atan2(fwd[2], fwd[1])

    c1, _, _ = _unpack(curve(t))
    time_sign = 1 if c1[0] > 0 else -1
    delta = angle(t + step) - angle(t - step)
    delta = (delta + math.pi) % (2.0 * math.pi) - math.pi
    if delta == 0.0:
        raise DegenerateAtPoint(f"tangent angle is stationary at {t!r}")
    return (1 if delta > 0 else -1) * time_sign


def winding_signs(surface: Surface, u: float, v: float,
                  step: float = 1e-5) -> WindingSigns:
    pair = as_pair(surface)
    return WindingSigns(_angle_rate_sign(pair.phi_prime, u, step),
                        _angle_rate_sign(pair.psi_prime, v, step))


def milnor_sign_check(p: Surface, u: float, v: float,
                      step: float = 1e-5) -> bool:
    """Whether the winding-rate sign product agrees with the sign of K.

    The two sides are computed independently: the left from finite
    differences of the tangent angles of the generating curves, the right
    from the extrinsic curvature route. Raises FlatPoint where K = 0 (no
    sign to compare) and SingularPoint off the regular set.
    """
    pair = as_pair(p)
    k = gaussian_curvature_extrinsic(jets_at(pair, u, v, with_position=False))
    if k == 0.0:
        raise FlatPoint(f"({u!r}, {v!r}) is a flat point; K has no sign there")
    return winding_signs(pair, u, v, step).product == (1 if k > 0 else -1)


# --- pseudo-arclength -----------------------------------------------------------


_DEGENERACY_TOL = 1e-12


def _acc_quartic(curve: CurveFn, t: float) -> Tuple[float, float]:
    """(<gamma'', gamma''>, Euclidean size of gamma'') at t."""
    jets = curve(t)
    c2 = vec3(jets[0].d1, jets[1].d1, jets[2].d1)
    return mdot(c2, c2), enorm(c2)


def _q_checked(curve: CurveFn, t: float) -> float:
    q4, size = _acc_quartic(curve, t)
    if q4 <= _DEGENERACY_TOL * (1.0 + size) ** 2:
        raise DegenerateOnInterval(t)
    return q4 ** 0.25


@dataclass(frozen=True)
class ReparamJet:
    """Chain-rule data of the unit-acceleration reparametrization at one t.

    ``t_s``, ``t_ss``, ``t_sss`` are derivatives of the inverse parameter
    t(s) with respect to pseudo-arclength s; ``gamma_s`` etc. are the curve
    derivatives in the s parameter. <gamma_ss, gamma_ss> = 1 by construction.
    """

    t: float
    q: float
    t_s: float
    t_ss: float
    t_sss: float
    gamma_s: np.ndarray
    gamma_ss: np.ndarray
    gamma_sss: np.ndarray

    def jets(self) -> Tuple[Jet3, Jet3, Jet3]:
        """Velocity jets of the reparametrized curve (d3 slots unused)."""
        return tuple(Jet3(self.gamma_s[i], self.gamma_ss[i],
                          self.gamma_sss[i], 0.0) for i in range(3))


def _q_and_rate(curve: CurveFn, t: float):
    jets = curve(t)
    acc = vec3(jets[0].d1, jets[1].d1, jets[2].d1)
    jerk = vec3(jets[0].d2, jets[1].d2, jets[2].d2)
    q4 = mdot(acc, acc)
    if q4 <= _DEGENERACY_TOL * (1.0 + enorm(acc)) ** 2:
        raise DegenerateAtPoint(f"curve is degenerate at {t!r}")
    q = q4 ** 0.25
    # q = q4^(1/4)  =>  q' = <acc, jerk> / (2 q4^(3/4))
    q_rate = mdot(acc, jerk) / (2.0 * q4 ** 0.75)
    return jets, q, q_rate


def reparam_jet(curve: CurveFn, t: float, fd_step: float = 1e-5) -> ReparamJet:
    """Unit-acceleration gauge of a null curve at parameter t.

    Everything is exact from the jets except t_sss, which needs one more
    curve derivative than a jet carries; a central difference of the
    analytic q' supplies it.
    """
    jets, q, q_rate = _q_and_rate(curve, t)
    t_s = 1.0 / q
    t_ss = -q_rate / q ** 3
    _, _, qr_plus = _q_and_rate(curve, t + fd_step)
    _, _, qr_minus = _q_and_rate(curve, t - fd_step)
    q_rate2 = (qr_plus - qr_minus) / (2.0 * fd_step)
    t_sss = -q_rate2 / q ** 4 + 3.0 * q_rate ** 2 / q ** 5
    c1, c2, c3 = _unpack(jets)
    gamma_s = c1 * t_s
    gamma_ss = c2 * t_s ** 2 + c1 * t_ss
    gamma_sss = c3 * t_s ** 3 + 3.0 * c2 * t_s * t_ss + c1 * t_sss
    return ReparamJet(t, q, t_s, t_ss, t_sss, gamma_s, gamma_ss, gamma_sss)


def reparametrize(surface: Surface, axis: str, t: float,
                  fd_step: float = 1e-5) -> ReparamJet:
    """Unit-acceleration gauge of a surface's u- or v-curve at t."""
    return reparam_jet(axis_curve(surface, axis), t, fd_step)


@dataclass(frozen=True)
class PseudoArclengthTable:
    """Cumulative pseudo-arclength table s(t) over a parameter interval.

    ``ts`` and ``ss`` are parallel arrays with s(ts[i]) = ss[i] and
    ss[0] = 0; both are ascending and must not be mutated. ``resampled``
    is the reparametrized curve itself, as a velocity-jet function of s,
    with unit acceleration pseudo-norm everywhere.
    """

    curve: CurveFn = field(repr=False)
    ts: np.ndarray
    ss: np.ndarray
    fd_step: float = 1e-5

    @property
    def t0(self) -> float:
        return float(self.ts[0])

    @property
    def t1(self) -> float:
        return float(self.ts[-1])

    @property
    def length(self) -> float:
        """Total pseudo-arclength of the interval."""
        return float(self.ss[-1])

    def q(self, t: float) -> float:
        """ds/dt = <gamma'', gamma''>^(1/4) at t."""
        return _q_checked(self.curve, t)

    def s_of_t(self, t: float) -> float:
        pad = 1e-12 * (1.0 + abs(self.t0) + abs(self.t1))
        if not self.t0 - pad <= t <= self.t1 + pad:
            raise ValueError(f"t = {t!r} outside [{self.t0!r}, {self.t1!r}]")
        t = min(max(t, self.t0), self.t1)
        k = int(np.searchsorted(self.ts, t, side="right")) - 1
        k = min(max(k, 0), len(self.ts) - 2)
        return float(self.ss[k]) + adaptive_quad(self.q, float(self.ts[k]), t)

    def t_of_s(self, s: float) -> float:
        """Invert s(t) by safeguarded Newton on the bracketing segment."""
        pad = 1e-12 * (1.0 + self.length)
        if not -pad <= s <= self.length + pad:
            raise ValueError(f"s = {s!r} outside [0, {self.length!r}]")
        s = min(max(s, 0.0), self.length)
        k = int(np.searchsorted(self.ss, s, side="right")) - 1
        k = min(max(k, 0), len(self.ts) - 2)
        lo, hi = float(self.ts[k]), float(self.ts[k + 1])
        s_lo, s_hi = float(self.ss[k]), float(self.ss[k + 1])
        frac = (s - s_lo) / (s_hi - s_lo) if s_hi > s_lo else 0.5
        t = lo + (hi - lo) * frac
        blo, bhi = lo, hi
        for _ in range(60):
            resid = s_lo + adaptive_quad(self.q, lo, t) - s
            if abs(resid) <= 1e-13 * (1.0 + self.length):
                break
            if resid > 0:
                bhi = t
            else:
                blo = t
            t_next = t - resid / self.q(t)
            if not blo <= t_next <= bhi:
                t_next = 0.5 * (blo + bhi)
            if t_next == t:
                break
            t = t_next
        return t

    def resampled(self, s: float) -> Tuple[Jet3, Jet3, Jet3]:
        """Velocity jets of the unit-acceleration curve at pseudo-arclength s."""
        return reparam_jet(self.curve, self.t_of_s(s), self.fd_step).jets()

    def resampled_jet(self, s: float) -> ReparamJet:
        """Full chain-rule record of the resampled curve at s."""
        return reparam_jet(self.curve, self.t_of_s(s), self.fd_step)


def pseudo_arclength(curve: CurveFn, t0: float, t1: float,
                     n_samples: int = 33) -> PseudoArclengthTable:
    """Reparametrize a null curve by pseudo-arclength over [t0, t1].

    Integrates ds/dt = <gamma'', gamma''>^(1/4) cumulatively over a grid of
    n_samples points. The interval is prescanned in ascending order and
    DegenerateOnInterval is raised with the first grid parameter at which
    the acceleration pseudo-norm is negligible (the gauge does not exist
    across such a point).
    """
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0!r}, {t1!r}]")
    if n_samples < 2:
        raise ValueError(f"need n_samples >= 2, got {n_samples!r}")
    ts = np.linspace(t0, t1, n_samples)
    for t in ts:
        _q_checked(curve, float(t))
    ss = np.empty_like(ts)
    ss[0] = 0.0
    q = lambda t: _q_checked(curve, t)
    for i in range(1, len(ts)):
        ss[i] = ss[i - 1] + adaptive_quad(q, float(ts[i - 1]), float(ts[i]))
    return PseudoArclengthTable(curve, ts, ss)


def pseudo_arclength_axis(surface: Surface, axis: str, t0: float, t1: float,
                          n_samples: int = 33) -> PseudoArclengthTable:
    """Pseudo-arclength table for a surface's u- or v-generating curve."""
    return pseudo_arclength(axis_curve(surface, axis), t0, t1, n_samples)


def energy_gauge(surface: Surface, u: float, v: float) -> float:
    """E = eps_phi eps_psi (1 - g1 g2)^2 / (4 g1~' g2~') in the unit gauge.

    g~' are the data-function derivatives after both curves are repara-
    metrized to unit acceleration pseudo-norm; the identity K E^2 =
    eps_phi eps_psi makes E a square root of 1/|K| with the right sign
    bookkeeping. Requires Weierstrass data.
    """
    from .surface import require_data

    d = require_data(surface, "the energy gauge")
    eps = sign_prediction(surface, u, v)
    ru = reparametrize(surface, "u", u)
    rv = reparametrize(surface, "v", v)
    g1t = d.g1_jet(u).d1 * ru.t_s
    g2t = d.g2_jet(v).d1 * rv.t_s
    g1v = d.g1_jet(u).value
    g2v = d.g2_jet(v).value
    return eps * (1.0 - g1v * g2v) ** 2 / (4.0 * g1t * g2t)
