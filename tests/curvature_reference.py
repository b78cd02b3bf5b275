"""Per-point references for the curvature layer, independent of its records.

The scalar bodies below are the ones ``minface.curvature`` and
``minface.surface`` ran per point before each curvature quantity became one
formula over ``AxisSamples`` records: the three K routes, the flat
classification, the orientation, sign and winding bookkeeping, the
unit-acceleration gauge rate and the energy gauge, ``jets_at``'s own normal
formulas and the data recovery, and the point loop of
``check_data_roundtrip``. They read the curves through the
scalar jet closures only. Where a body evaluated one curve at one parameter
twice, its reference evaluates it once, in the same order: the same bits,
and the same first error. The tests compare the library against them bit
for bit.
"""

import math

import numpy as np

from minface.curvature import (FlatClassification, FlatTag, OrientationSign,
                               WindingSigns)
from minface.errors import (DataConversionDegenerate, DegenerateAtPoint,
                            FlatPoint, SingularNeighborhood, SingularPoint)
from minface.expr import eval_value
from minface.lorentz import det3, enorm, mdot, vec3
from minface.surface import (REGULAR_TOL, RecoveredData, SurfaceJet, as_pair,
                             evaluate, get_data, require_data)
from minface.verify import CheckResult


def _unpack(jets):
    return (vec3(jets[0].value, jets[1].value, jets[2].value),
            vec3(jets[0].d1, jets[1].d1, jets[2].d1),
            vec3(jets[0].d2, jets[1].d2, jets[2].d2))


def _singular_point(u, v):
    return SingularPoint(f"({u!r}, {v!r}) lies on the singular set")


def _curves(surface, u, v):
    """(gamma', gamma'', gamma''') of the u-curve at u and the v-curve at v,
    for the regularity test and the body that follows it."""
    pair = as_pair(surface)
    return _unpack(pair.phi_prime(u)), _unpack(pair.psi_prime(v))


def _require_regular(vel_u, vel_v, u, v):
    lam = 0.25 * mdot(vel_u, vel_v)
    scale = enorm(vel_u) * enorm(vel_v)
    if abs(lam) <= REGULAR_TOL * max(scale, 1e-300):
        raise _singular_point(u, v)


def _lambda_value(surface, u, v):
    pair = as_pair(surface)
    return 0.25 * mdot(pair.phi_prime_value(u), pair.psi_prime_value(v))


# --- surface jets and the three K routes -------------------------------------


def reference_jets_at(surface, u, v, with_position=True):
    pair = as_pair(surface)
    pj = pair.phi_prime(u)
    qj = pair.psi_prime(v)
    f_u = 0.5 * vec3(pj[0].value, pj[1].value, pj[2].value)
    f_v = 0.5 * vec3(qj[0].value, qj[1].value, qj[2].value)
    f_uu = 0.5 * vec3(pj[0].d1, pj[1].d1, pj[2].d1)
    f_vv = 0.5 * vec3(qj[0].d1, qj[1].d1, qj[2].d1)
    lam = mdot(f_u, f_v)
    f = evaluate(surface, u, v) if with_position else np.zeros(3)
    d = get_data(surface)
    if d is not None:
        g1v = d.g1_jet(u).value
        g2v = d.g2_jet(v).value
        w = vec3(-g1v - g2v, g1v - g2v, -1.0 - g1v * g2v)
        n = w / enorm(w)
        denom = 1.0 - g1v * g2v
        if abs(denom) > 1e-14 * (1.0 + abs(g1v * g2v)):
            nu = vec3(g1v + g2v, g1v - g2v, -1.0 - g1v * g2v) / abs(denom)
            Q, R = mdot(f_uu, nu), mdot(f_vv, nu)
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
            Q, R = mdot(f_uu, nu), mdot(f_vv, nu)
        else:
            nu = Q = R = None
        mode = "curves"
    return SurfaceJet(u, v, f, f_u, f_v, f_uu, f_vv, np.zeros(3), lam, n, nu,
                      Q, R, mode)


def reference_extrinsic(j):
    scale = enorm(j.f_u) * enorm(j.f_v)
    if (j.Q is None or j.R is None
            or abs(j.Lambda) <= REGULAR_TOL * max(scale, 1e-300)):
        raise _singular_point(j.u, j.v)
    return -j.Q * j.R / j.Lambda ** 2


def reference_intrinsic(surface, u, v, h=1e-3):
    lam0 = _lambda_value(surface, u, v)
    if lam0 == 0.0:
        raise _singular_point(u, v)
    # the corner velocities, each evaluated once, in the order the corners
    # (u + h, v + h), (u + h, v - h), (u - h, v + h), (u - h, v - h) need them
    pair = as_pair(surface)
    up, vp = pair.phi_prime_value(u + h), pair.psi_prime_value(v + h)
    vm, um = pair.psi_prime_value(v - h), pair.phi_prime_value(u - h)
    corners = [0.25 * mdot(a, b)
               for a, b in ((up, vp), (up, vm), (um, vp), (um, vm))]
    if any(c == 0.0 or (c > 0) != (lam0 > 0) for c in corners):
        raise SingularNeighborhood(
            f"Lambda changes sign within {h!r} of ({u!r}, {v!r})")
    pp, pm, mp, mm = (math.log(abs(c)) for c in corners)
    return -((pp - pm - mp + mm) / (4.0 * h * h)) / lam0


def reference_gaussian_curvature(surface, u, v, method="closed", h=1e-3):
    if method == "closed":
        d = get_data(surface)
        if d is None:
            return reference_gaussian_curvature(surface, u, v, "extrinsic")
        g1, g2 = d.g1_jet(u), d.g2_jet(v)
        w1v, w2v = d.w1_jet(u).value, d.w2_jet(v).value
        denom = w1v * w2v * (1.0 - g1.value * g2.value) ** 4
        if denom == 0.0 or abs(1.0 - g1.value * g2.value) < 1e-15 * (
                1.0 + abs(g1.value * g2.value)):
            raise _singular_point(u, v)
        return 4.0 * g1.d1 * g2.d1 / denom
    if method == "extrinsic":
        return reference_extrinsic(
            reference_jets_at(surface, u, v, with_position=False))
    if method == "intrinsic":
        return reference_intrinsic(surface, u, v, h)
    raise ValueError(f"unknown method {method!r}")


# --- flat points, orientation, signs ------------------------------------------


def reference_flat_classify(surface, u, v, tol=1e-9):
    curves = _curves(surface, u, v)
    _require_regular(curves[0][0], curves[1][0], u, v)
    squares = []
    for c1, c2, _ in curves:
        acc2 = mdot(c2, c2)
        scale = (1.0 + enorm(c1) + enorm(c2)) ** 2
        squares.append((acc2, abs(acc2) <= tol * scale))
    (q_norm2, phi_flat), (r_norm2, psi_flat) = squares
    if phi_flat and psi_flat:
        tag = FlatTag.UMBILIC
    elif phi_flat or psi_flat:
        tag = FlatTag.QUASI_UMBILIC
    else:
        tag = FlatTag.NON_FLAT
    return FlatClassification(tag, q_norm2, r_norm2, phi_flat, psi_flat)


def reference_orientation(curve, t, tol=1e-12):
    return _oriented(*_unpack(curve(t)), t, tol)


def _oriented(c1, c2, c3, t, tol=1e-12):
    det = det3(c1, c2, c3)
    scale = (1.0 + enorm(c1)) * (1.0 + enorm(c2)) * (1.0 + enorm(c3))
    if abs(det) <= tol * scale:
        raise DegenerateAtPoint(
            f"curve is degenerate at {t!r} (det = {det!r})")
    return OrientationSign(1 if det > 0 else -1, det)


def reference_sign_prediction(surface, u, v):
    curves = _curves(surface, u, v)
    _require_regular(curves[0][0], curves[1][0], u, v)
    try:
        e_phi = _oriented(*curves[0], u).sign
        e_psi = _oriented(*curves[1], v).sign
    except DegenerateAtPoint as exc:
        raise FlatPoint(
            f"({u!r}, {v!r}) is a flat point; K has no sign there") from exc
    return e_phi * e_psi


def reference_angle_rate_sign(curve, t, step=1e-5):
    def angle(tt):
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


def reference_winding_signs(surface, u, v, step=1e-5):
    pair = as_pair(surface)
    return WindingSigns(reference_angle_rate_sign(pair.phi_prime, u, step),
                        reference_angle_rate_sign(pair.psi_prime, v, step))


def reference_milnor_sign_check(surface, u, v, step=1e-5):
    pair = as_pair(surface)
    k = reference_extrinsic(reference_jets_at(pair, u, v,
                                              with_position=False))
    if k == 0.0:
        raise FlatPoint(f"({u!r}, {v!r}) is a flat point; K has no sign there")
    return (reference_winding_signs(pair, u, v, step).product
            == (1 if k > 0 else -1))


def _gauge_q(curve, t):
    _, acc, _ = _unpack(curve(t))
    q4 = mdot(acc, acc)
    if q4 <= 1e-12 * (1.0 + enorm(acc)) ** 2:
        raise DegenerateAtPoint(f"curve is degenerate at {t!r}")
    return q4 ** 0.25


def reference_gauge_rate(curve, t, fd_step=1e-5):
    """t_s = 1/q, q = <gamma'', gamma''>^(1/4), of the unit-acceleration
    gauge at t; raises where q vanishes at t, t + fd_step or t - fd_step."""
    q = _gauge_q(curve, t)
    _gauge_q(curve, t + fd_step)
    _gauge_q(curve, t - fd_step)
    return 1.0 / q


def reference_energy_gauge(surface, u, v):
    d = require_data(surface, "the energy gauge")
    eps = reference_sign_prediction(surface, u, v)
    pair = as_pair(surface)
    t_s_u = reference_gauge_rate(pair.phi_prime, u)
    t_s_v = reference_gauge_rate(pair.psi_prime, v)
    g1t = d.g1_jet(u).d1 * t_s_u
    g2t = d.g2_jet(v).d1 * t_s_v
    g1v = d.g1_jet(u).value
    g2v = d.g2_jet(v).value
    return eps * (1.0 - g1v * g2v) ** 2 / (4.0 * g1t * g2t)


# --- data recovery --------------------------------------------------------------


def _rotate_time_axis(vel, theta):
    if theta == 0.0:
        return vel
    c, s = math.cos(theta), math.sin(theta)
    return vec3(vel[0], vel[1] * c - vel[2] * s, vel[1] * s + vel[2] * c)


def reference_data_from_curves(pair, theta=0.0, tol=1e-12):
    def w1_at(u):
        vel = _rotate_time_axis(pair.phi_prime_value(u), theta)
        w = 0.5 * (vel[1] - vel[0])
        if abs(w) <= tol * max(1.0, enorm(vel)):
            raise DataConversionDegenerate("u", u)
        return w

    def g1_at(u):
        vel = _rotate_time_axis(pair.phi_prime_value(u), theta)
        return vel[2] / (2.0 * w1_at(u))

    def w2_at(v):
        vel = _rotate_time_axis(pair.psi_prime_value(v), theta)
        w = 0.5 * (vel[0] + vel[1])
        if abs(w) <= tol * max(1.0, enorm(vel)):
            raise DataConversionDegenerate("v", v)
        return w

    def g2_at(v):
        vel = _rotate_time_axis(pair.psi_prime_value(v), theta)
        return -vel[2] / (2.0 * w2_at(v))

    return RecoveredData(g1_at, g2_at, w1_at, w2_at, theta)


def reference_data_roundtrip(surface, n=100, tol=1e-10, seed=0):
    d = get_data(surface)
    rec = reference_data_from_curves(as_pair(surface))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        u = float(rng.uniform(d.domain.u_min, d.domain.u_max))
        v = float(rng.uniform(d.domain.v_min, d.domain.v_max))
        worst = max(
            worst,
            abs(rec.g1(u) - eval_value(d.g1, u)),
            abs(rec.w1(u) - eval_value(d.w1, u)),
            abs(rec.g2(v) - eval_value(d.g2, v)),
            abs(rec.w2(v) - eval_value(d.w2, v)))
    return CheckResult("data_roundtrip", worst < tol, worst, n)
