"""Per-point references for the singular layer, independent of its arrays.

The scalar bodies below are the ones ``minface.singular`` ran per point
before its classifier, directions, twist identity, area density and main
theorem check became one array formula each: the decision tree on one
``SingularData`` of floats, the five trace-based battery checks as loops
over the traced points' reports, and the CSV writer over those reports.
Surface jets and curvature come from the scalar references of
``curvature_reference``. The tests compare the library against them bit
for bit.
"""

import math

import numpy as np

from minface.errors import DegenerateSingular, NotSingular, SingularPoint
from minface.expr import eval_value
from minface.lorentz import det3
from minface.singular import (DEFAULT_TOL, MainTheoremReport,
                              SingularClassification, SingularDirections,
                              SingularPointReport, all_reports,
                              lambda_gradient_on_singular, singular_data,
                              trace_singular_set)
from minface.surface import conjugate_data, get_data, require_data
from minface.verify import CheckResult, _critical_params

from curvature_reference import reference_gaussian_curvature, reference_jets_at


def _require_singular(sd, tol):
    scale = 1.0 + abs(sd.g1 * sd.g2)
    if abs(sd.h) > tol * scale:
        raise NotSingular(
            f"({sd.u!r}, {sd.v!r}): g1*g2 - 1 = {sd.h!r} is not zero")


def _nondegenerate(sd, tol):
    gp_scale = 1.0 + abs(sd.g1p) + abs(sd.g2p)
    return max(abs(sd.g1p), abs(sd.g2p)) > tol * gp_scale


def reference_classify(sd, tol=DEFAULT_TOL):
    """The report of classify_singular from a SingularData of floats."""
    _require_singular(sd, tol)
    band = sd.band(tol)
    front = abs(sd.a_minus_b) > band
    nondeg = _nondegenerate(sd, tol)
    third_sw = sd.a_rate * (sd.g2p / sd.g2) - sd.b_rate * (sd.g1p / sd.g1)
    third_ccr = sd.a_rate * (sd.g2p / sd.g2) + sd.b_rate * (sd.g1p / sd.g1)
    third_band = tol * (1.0 + abs(sd.a_rate) + abs(sd.b_rate))
    kappa = None
    if not nondeg:
        tag = SingularClassification.DEGENERATE
    elif front:
        if abs(sd.a_plus_b) > band:
            tag = SingularClassification.CUSPIDAL_EDGE
            num = 2.0 * sd.g1p * sd.g2p / (sd.w1 * sd.w2
                                           * (sd.g1 + sd.g2) ** 2)
            kappa = num / abs(sd.a_plus_b)
        elif abs(third_sw) > third_band:
            tag = SingularClassification.SWALLOWTAIL
        else:
            tag = SingularClassification.UNRESOLVED
    else:
        if abs(sd.a_plus_b) > band and abs(third_ccr) > third_band:
            tag = SingularClassification.CUSPIDAL_CROSS_CAP
        else:
            tag = SingularClassification.UNRESOLVED
    grad = lambda_gradient_on_singular(sd)
    return SingularPointReport(
        u=sd.u, v=sd.v, a=sd.a, b=sd.b, a_minus_b=sd.a_minus_b,
        a_plus_b=sd.a_plus_b, third_sw=third_sw, third_ccr=third_ccr,
        is_front=front, is_nondegenerate=nondeg, tag=tag, kappa_s=kappa,
        lambda_gradient_norm=math.hypot(*grad))


def reference_is_front(surface, u, v, tol=DEFAULT_TOL):
    sd = singular_data(surface, u, v)
    _require_singular(sd, tol)
    return abs(sd.a_minus_b) > sd.band(tol)


def reference_is_nondegenerate(surface, u, v, tol=DEFAULT_TOL):
    sd = singular_data(surface, u, v)
    _require_singular(sd, tol)
    return _nondegenerate(sd, tol)


def reference_signed_area_density(surface, u, v):
    d = require_data(surface, "the signed area density")
    g1 = eval_value(d.g1, u)
    g2 = eval_value(d.g2, v)
    w1 = eval_value(d.w1, u)
    w2 = eval_value(d.w2, v)
    one_m = 1.0 - g1 * g2
    return -0.5 * w1 * w2 * one_m * math.sqrt(one_m ** 2
                                              + 2.0 * (g1 + g2) ** 2)


def reference_directions(surface, u, v, tol=DEFAULT_TOL):
    sd = singular_data(surface, u, v)
    _require_singular(sd, tol)
    if not _nondegenerate(sd, tol):
        raise DegenerateSingular(
            f"({u!r}, {v!r}): both data derivatives vanish; the singular "
            "set is not a regular curve here")
    eta = (1.0 / (sd.g1 * sd.w1), 1.0 / (sd.g2 * sd.w2))
    mu = (sd.g2p / sd.g2, sd.g1p / sd.g1)
    gamma_prime = (sd.g2p / sd.g2, -sd.g1p / sd.g1)
    det = gamma_prime[0] * eta[1] - gamma_prime[1] * eta[0]
    return SingularDirections(eta, mu, gamma_prime, det)


def reference_twist(surface, u, v, fd_step=1e-4):
    sd = singular_data(surface, u, v)
    dirs = reference_directions(surface, u, v)
    sj = reference_jets_at(surface, u, v, with_position=False)
    df_gamma = dirs.gamma_prime[0] * sj.f_u + dirs.gamma_prime[1] * sj.f_v

    def n_at(uu, vv):
        return reference_jets_at(surface, uu, vv, with_position=False).n

    eu, ev = dirs.eta
    size = math.hypot(eu, ev)
    eu, ev = eu / size, ev / size
    h = fd_step
    p1 = n_at(u + h * eu, v + h * ev)
    m1 = n_at(u - h * eu, v - h * ev)
    p2 = n_at(u + 2 * h * eu, v + 2 * h * ev)
    m2 = n_at(u - 2 * h * eu, v - 2 * h * ev)
    dn = size * (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * h)
    lhs = det3(df_gamma, sj.n, dn)
    alpha = -0.5 * sd.w1 * sd.w2 * sd.a_plus_b
    return lhs, alpha * sd.a_minus_b


# --- the trace-based checks, point by point ---------------------------------


def reference_identities(surface, grid_n=128, tol_det=1e-10, tol_twist=1e-8):
    curves = trace_singular_set(surface, grid_n)
    worst_det = worst_twist = 0.0
    flips_ok = True
    count = 0
    for rep in all_reports(curves):
        if not rep.is_nondegenerate:
            continue
        count += 1
        dirs = reference_directions(surface, rep.u, rep.v)
        worst_det = max(worst_det, abs(dirs.det_gamma_eta - rep.a_plus_b))
        lhs, rhs = reference_twist(surface, rep.u, rep.v)
        worst_twist = max(worst_twist, abs(lhs - rhs))
        sd = singular_data(surface, rep.u, rep.v)
        g = math.hypot(sd.h_u, sd.h_v)
        if g > 0:
            off = 1e-4
            lp = reference_signed_area_density(
                surface, rep.u + off * sd.h_u / g, rep.v + off * sd.h_v / g)
            lm = reference_signed_area_density(
                surface, rep.u - off * sd.h_u / g, rep.v - off * sd.h_v / g)
            flips_ok = flips_ok and (lp * lm < 0)
    passed = worst_det < tol_det and worst_twist < tol_twist and flips_ok
    detail = (f"det {worst_det:.2e}, twist {worst_twist:.2e}, "
              f"density flips {'ok' if flips_ok else 'BROKEN'}")
    if count == 0:
        return CheckResult("singular_identities", True, None, 0,
                           "no singular points in domain")
    return CheckResult("singular_identities", passed,
                       max(worst_det, worst_twist), count, detail)


_DUAL_TAG = {
    SingularClassification.CUSPIDAL_EDGE: SingularClassification.CUSPIDAL_EDGE,
    SingularClassification.SWALLOWTAIL:
        SingularClassification.CUSPIDAL_CROSS_CAP,
    SingularClassification.CUSPIDAL_CROSS_CAP:
        SingularClassification.SWALLOWTAIL,
    SingularClassification.DEGENERATE: SingularClassification.DEGENERATE,
}


def reference_duality(surface, grid_n=128):
    conj = conjugate_data(surface)
    curves = trace_singular_set(surface, grid_n)
    bad = 0
    count = 0
    for rep in all_reports(curves):
        expected = _DUAL_TAG.get(rep.tag)
        if expected is None:
            continue
        count += 1
        got = reference_classify(singular_data(conj, rep.u, rep.v)).tag
        if got is not expected:
            bad += 1
    if count == 0:
        return CheckResult("duality", True, None, 0,
                           "no singular points in domain")
    return CheckResult("duality", bad == 0, float(bad), count,
                       f"{bad} tag mismatches")


def reference_kappa_zero_locus(surface, grid_n=128, lo=1e-8, hi=1e-4):
    curves = trace_singular_set(surface, grid_n)
    bad = 0
    count = 0
    for rep in all_reports(curves):
        if rep.tag is not SingularClassification.CUSPIDAL_EDGE:
            continue
        count += 1
        sd = singular_data(surface, rep.u, rep.v)
        min_g = min(abs(sd.g1p), abs(sd.g2p))
        k = abs(rep.kappa_s)
        if (k < lo and min_g > hi) or (min_g < lo and k > hi):
            bad += 1
    if count == 0:
        return CheckResult("kappa_zero_locus", True, None, 0,
                           "no cuspidal edges in domain")
    return CheckResult("kappa_zero_locus", bad == 0, float(bad), count,
                       f"{bad} mismatches")


def reference_flat_accumulation(surface, grid_n=256, radius=1e-2):
    d = get_data(surface)
    crit_u = _critical_params(d, "u")
    crit_v = _critical_params(d, "v")
    curves = trace_singular_set(surface, grid_n)
    traced = [r for r in all_reports(curves) if r.is_nondegenerate]
    if not traced or (not crit_u and not crit_v):
        return CheckResult("flat_accumulation", True, None, 0,
                           "no flat locus meeting the singular set")
    coords = np.array([(r.u, r.v) for r in traced])
    bad = 0
    count = 0

    def nearest(u, v):
        dist = np.hypot(coords[:, 0] - u, coords[:, 1] - v)
        k = int(np.argmin(dist))
        return traced[k], float(dist[k])

    dom = d.domain
    for r0 in crit_u:
        for v in np.linspace(dom.v_min, dom.v_max, 101):
            if any(abs(v - rv) < 1e-6 for rv in crit_v):
                continue  # that would be umbilic, handled below
            rep, dist = nearest(r0, v)
            if dist <= radius:
                count += 1
                if rep.tag is not SingularClassification.CUSPIDAL_EDGE:
                    bad += 1
    for r0 in crit_v:
        for u in np.linspace(dom.u_min, dom.u_max, 101):
            if any(abs(u - ru) < 1e-6 for ru in crit_u):
                continue
            rep, dist = nearest(u, r0)
            if dist <= radius:
                count += 1
                if rep.tag is not SingularClassification.CUSPIDAL_EDGE:
                    bad += 1
    for ru in crit_u:
        for rv in crit_v:
            rep, dist = nearest(ru, rv)
            if dist <= radius:
                count += 1
                bad += 1  # an umbilic point next to a nondegenerate point
    return CheckResult("flat_accumulation", bad == 0, float(bad), count,
                       f"{bad} violations near {count} close encounters")


# --- the CSV, report by report -----------------------------------------------


def reference_write_singular_csv(reports, destination):
    """write_singular_csv as it wrote a list of reports."""
    text = "".join(
        ["u,v,tag,a,b,a_minus_b,a_plus_b,kappa_s,is_front,"
         "lambda_gradient_norm\r\n"]
        + ["%.17g,%.17g,%s,%.17g,%.17g,%.17g,%.17g,%s,%d,%.17g\r\n" % (
            r.u, r.v, r.tag.value, r.a, r.b, r.a_minus_b, r.a_plus_b,
            "" if r.kappa_s is None else "%.17g" % r.kappa_s,
            r.is_front, r.lambda_gradient_norm) for r in reports])
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# --- the main theorem, point by point ---------------------------------------


def reference_main_theorem(surface, u, v, radii=(1e-2, 1e-3, 1e-4),
                           tol=DEFAULT_TOL, kappa_exempt=1e-6):
    sd = singular_data(surface, u, v)
    report = reference_classify(sd, tol)
    grad = np.array([sd.h_u, sd.h_v])
    norm = float(np.hypot(*grad))
    if norm == 0.0:
        raise DegenerateSingular(
            f"({u!r}, {v!r}): h has a critical point; no transversal")
    grad /= norm
    samples = []
    for r in radii:
        for side in (1.0, -1.0):
            uu = u + side * r * grad[0]
            vv = v + side * r * grad[1]
            try:
                k = reference_gaussian_curvature(surface, uu, vv, "extrinsic")
            except SingularPoint:
                continue
            samples.append((r, side, k))
    checks = {}
    notes = []
    ks = [k for (_, _, k) in samples]
    if report.tag is SingularClassification.CUSPIDAL_EDGE:
        if abs(report.kappa_s) <= kappa_exempt:
            notes.append(
                "kappa_s = %.3e is below the exemption threshold; the "
                "curvature sign nearby is not controlled" % report.kappa_s)
        else:
            want_pos = report.kappa_s > 0
            checks["curvature_sign_matches_kappa_s"] = all(
                (k > 0) == want_pos for k in ks)
    elif report.is_front and report.tag in (
            SingularClassification.SWALLOWTAIL,
            SingularClassification.UNRESOLVED):
        checks["curvature_negative"] = all(k < 0 for k in ks)
        by_side = {}
        for r, side, k in samples:
            by_side.setdefault(side, []).append((r, abs(k)))
        grows = True
        for vals in by_side.values():
            vals.sort(reverse=True)  # decreasing r
            mags = [m for (_, m) in vals]
            grows = grows and all(m2 > m1 for m1, m2 in zip(mags, mags[1:]))
        checks["curvature_magnitude_grows"] = grows
    elif not report.is_front and report.is_nondegenerate:
        checks["curvature_positive"] = all(k > 0 for k in ks)
    else:
        notes.append("degenerate point: no curvature-sign prediction")
    if not samples:
        checks["sampled_nearby_curvature"] = False
    return MainTheoremReport(report, samples, checks, notes)


def reference_check_main_theorem(surface, grid_n=64, max_points=40):
    curves = trace_singular_set(surface, grid_n)
    reports = [r for r in all_reports(curves) if r.is_nondegenerate]
    if not reports:
        return CheckResult("main_theorem", True, None, 0,
                           "no singular points in domain")
    stride = max(1, len(reports) // max_points)
    bad = 0
    count = 0
    for rep in reports[::stride]:
        count += 1
        if not reference_main_theorem(surface, rep.u, rep.v).passed:
            bad += 1
    return CheckResult("main_theorem", bad == 0, float(bad), count,
                       f"{bad} failed points")


def same_bits(a, b):
    """Whether two floats (or nested tuples of floats) are bit-identical."""
    if isinstance(a, tuple):
        return (isinstance(b, tuple) and len(a) == len(b)
                and all(same_bits(x, y) for x, y in zip(a, b)))
    return np.float64(a).tobytes() == np.float64(b).tobytes()
