"""Numerical property battery: one CheckResult per verified statement.

Every check is deterministic given its seed and returns the worst error it
saw, so the CLI can print a table and exit nonzero on any failure. The same
functions back the acceptance test suite.

The point-sampled checks never evaluate a generating curve on their own:
the sampler evaluates one ``curvature.AxisSamples`` record per axis on its
candidates and hands each check the records of the points it kept, sliced
from those, and the checks read every quantity off them through the
two-variable formulas of ``curvature``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .curvature import (AxisSamples, area_density_samples, closed_k_samples,
                        energy_gauge_samples, extrinsic_k_samples, gathered,
                        intrinsic_k_samples, sign_prediction_samples)
from .errors import DataConversionDegenerate, MinfaceError
from .expr import eval_array
from .lorentz import enorm, mdot
from .singular import (_EDGE, DEFAULT_TOL, _classify_arrays, _directions,
                       _hypot, _main_theorem, _padded, _rows,
                       _singular_arrays, _twist_sides, trace_singular_set)
from .surface import (RealWeierstrassData, Rect, Surface, _recovered,
                      as_pair, conjugate_data, get_data, normal_samples,
                      require_data)


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_error: Optional[float]
    count: int
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        err = "" if self.max_error is None else \
            " max_err=%.3e" % self.max_error
        extra = f" ({self.detail})" if self.detail else ""
        return f"{status:4s}  {self.name:28s} n={self.count}{err}{extra}"


# --- point sampling ----------------------------------------------------------
#
# Each element the checks read off the records is bit-identical to the
# per-point function at that point, which stays the reference in the tests.


def _worst(errors) -> float:
    """max(worst, e) over the errors from worst = 0.0 (NaN never wins)."""
    return float(np.fmax.reduce(errors, initial=0.0))


def _regular_samples(surface: Surface, n: int, rng, nonflat: bool = True,
                     singular_margin: float = 0.05, flat_floor: float = 0.1):
    """The u- and v-records of the points sample_regular_points keeps."""
    dom = as_pair(surface).domain
    low, high = [dom.u_min, dom.v_min], [dom.u_max, dom.v_max]
    blocks, index = [], []  # the candidates' records, the kept candidates
    attempts = kept = 0
    while kept < n and attempts < 80 * n:
        # twice the points still missing: one block usually suffices where
        # more than half of the candidates pass
        k = min(80 * n - attempts, max(2 * (n - kept), 64))
        uv = rng.uniform(low, high, (k, 2))
        su = AxisSamples(surface, "u", uv[:, 0])
        sv = AxisSamples(surface, "v", uv[:, 1])
        if su.g is not None:
            prod = su.g.value * sv.g.value
            keep = ~(np.abs(1.0 - prod)
                     < singular_margin * (1.0 + np.abs(prod)))
        else:
            f_u, f_v = 0.5 * su.vel, 0.5 * sv.vel
            keep = ~(np.abs(mdot(f_u, f_v)) < singular_margin
                     * np.maximum(enorm(f_u) * enorm(f_v), 1e-30))
        if nonflat:
            keep &= ~((su.quartic_root < flat_floor)
                      | (sv.quartic_root < flat_floor))
        index.append(attempts + np.flatnonzero(keep)[:n - kept])
        blocks.append((su, sv))
        kept += len(index[-1])
        attempts += k
    if not blocks:  # n < 1
        return AxisSamples(surface, "u", []), AxisSamples(surface, "v", [])
    return tuple(gathered(parts, np.concatenate(index))
                 for parts in zip(*blocks))


def sample_regular_points(surface: Surface, n: int, rng,
                          nonflat: bool = True,
                          singular_margin: float = 0.05,
                          flat_floor: float = 0.1) -> List[Tuple[float, float]]:
    """Uniform domain points kept away from the singular set and flat locus.

    Regularity: |1 - g1 g2| >= margin * (1 + |g1 g2|) in Weierstrass mode,
    |Lambda| >= margin * |f_u||f_v| otherwise. Non-flatness: the acceleration
    pseudo-norm <gamma'', gamma''>^(1/4) of both generating curves must
    exceed flat_floor. Candidates are drawn as (u, v) pairs from rng, at
    most 80 n of them, and the first n that pass are returned (fewer if the
    budget runs out). Candidates are drawn and tested in blocks, so rng
    may advance past the last candidate used.
    """
    su, sv = _regular_samples(surface, n, rng, nonflat, singular_margin,
                              flat_floor)
    return list(zip(su.ts.tolist(), sv.ts.tolist()))


# --- per-surface checks -------------------------------------------------------


def check_null_generators(surface: Surface, n: int = 100,
                          tol: float = 1e-10, seed: int = 0) -> CheckResult:
    """Both generating curves must have lightlike velocity everywhere."""
    dom = as_pair(surface).domain
    rng = np.random.default_rng(seed)
    uv = rng.uniform([dom.u_min, dom.v_min], [dom.u_max, dom.v_max], (n, 2))
    worst = 0.0
    for axis, ts in (("u", uv[:, 0]), ("v", uv[:, 1])):
        vel = AxisSamples(surface, axis, ts).vel
        # vel @ vel row by row: numpy's dot, which a sum of squares can
        # differ from in the last bit
        speed2 = (vel[:, None, :] @ vel[:, :, None])[:, 0, 0]
        worst = max(worst, _worst(np.abs(mdot(vel, vel))
                                  / np.maximum(1.0, speed2)))
    return CheckResult("null_generators", worst < tol, worst, 2 * n)


def check_curvature_routes(surface: Surface, n: int = 1000, seed: int = 0,
                           h: float = 1e-3, rtol_pair: float = 1e-9,
                           rtol_fd: float = 1e-3) -> CheckResult:
    """Closed-form vs extrinsic vs intrinsic Gaussian curvature.

    The finite-difference route needs breathing room from the singular set
    (log|Lambda| derivatives blow up there), hence the wider margin.
    """
    su, sv = _regular_samples(surface, n, np.random.default_rng(seed),
                              singular_margin=0.1)
    kc, ok_c = closed_k_samples(su, sv)
    ke, ok_e = extrinsic_k_samples(su, sv)
    ki, ok_i = intrinsic_k_samples(su, sv, h)
    ok = ok_c & ok_e & ok_i
    kc, ke, ki = kc[ok], ke[ok], ki[ok]
    scale = np.maximum(np.maximum(np.abs(kc), np.abs(ke)), 1e-300)
    worst_pair = _worst(np.abs(kc - ke) / scale)
    worst_fd = _worst(np.abs(kc - ki) / np.maximum(np.abs(kc), 1e-300))
    # some point must survive the skips
    passed = worst_pair < rtol_pair and worst_fd < rtol_fd and kc.size > 0
    return CheckResult(
        "curvature_routes", passed, max(worst_pair, worst_fd), su.ts.size,
        f"pairwise {worst_pair:.2e}, finite-diff {worst_fd:.2e}")


def check_minimality(surface: Surface, n: int = 1000, seed: int = 0,
                     tol: float = 1e-10) -> CheckResult:
    """|2 <f_uv, nu> / Lambda| below tol at random regular points.

    f_uv vanishes identically in null coordinates, so this checks the
    assembly of nu and Lambda, not the positions.
    """
    su, sv = _regular_samples(surface, n, np.random.default_rng(seed),
                              nonflat=False)
    _, _, nu, has_nu = normal_samples(su, sv)
    lam = mdot(0.5 * su.vel, 0.5 * sv.vel)
    with np.errstate(all="ignore"):
        residual = 2.0 * mdot(np.zeros(3), nu) / lam
    worst = _worst(np.abs(residual[has_nu & (lam != 0.0)]))
    return CheckResult("minimality", worst < tol and su.ts.size > 0, worst,
                       su.ts.size)


def check_sign_theorem(surface: Surface, n: int = 200,
                       seed: int = 0) -> CheckResult:
    """sign K = (orientation of phi) * (orientation of psi), no exceptions."""
    su, sv = _regular_samples(surface, n, np.random.default_rng(seed))
    k, ok_k = closed_k_samples(su, sv)
    pred, ok_p = sign_prediction_samples(su, sv)
    bad = int(np.count_nonzero(ok_k & ok_p
                               & ((k == 0.0) | ((k > 0) != (pred > 0)))))
    return CheckResult("sign_theorem", bad == 0 and su.ts.size > 0,
                       float(bad), su.ts.size, f"{bad} exceptions")


def check_milnor(surface: Surface, n: int = 100,
                 seed: int = 0) -> CheckResult:
    """Product of tangent-winding signs equals the sign of K."""
    su, sv = _regular_samples(surface, n, np.random.default_rng(seed))
    k, ok = extrinsic_k_samples(su, sv)
    s_phi, ok_u = su.winding_sign()
    s_psi, ok_v = sv.winding_sign()
    ok &= (k != 0.0) & ok_u & ok_v
    bad = int(np.count_nonzero(ok & (s_phi * s_psi
                                     != np.where(k > 0, 1, -1))))
    return CheckResult("milnor_winding", bad == 0 and su.ts.size > 0,
                       float(bad), su.ts.size, f"{bad} disagreements")


def check_energy_gauge(surface: Surface, n: int = 50, seed: int = 0,
                       tol: float = 1e-8) -> CheckResult:
    """K E^2 equals the orientation product in the unit-acceleration gauge."""
    su, sv = _regular_samples(surface, n, np.random.default_rng(seed))
    require_data(surface, "the energy gauge")
    k, ok_k = closed_k_samples(su, sv)
    e, ok_e = energy_gauge_samples(su, sv)
    eps, _ = sign_prediction_samples(su, sv)
    with np.errstate(all="ignore"):
        error = np.abs(k * e * e - eps)
    worst = _worst(error[ok_k & ok_e])
    return CheckResult("energy_gauge", worst < tol and su.ts.size > 0, worst,
                       su.ts.size)


def check_data_roundtrip(surface: Surface, n: int = 100,
                         tol: float = 1e-10, seed: int = 0) -> CheckResult:
    """Recovering (g1, g2, w1, w2) from the generated curves reproduces them.

    The recovery is ``surface.data_from_curves``'s, on the velocities of n
    uniform points; DataConversionDegenerate names the first point, u
    before v, where it fails.
    """
    dom = get_data(surface).domain
    uv = np.random.default_rng(seed).uniform(
        [dom.u_min, dom.v_min], [dom.u_max, dom.v_max], (n, 2))
    errors, ok = [], np.empty((n, 2), dtype=bool)
    for col, axis in enumerate("uv"):
        s = AxisSamples(surface, axis, uv[:, col])
        g, w, ok[:, col] = _recovered(axis, s.vel)
        errors += [np.abs(g - s.g.value), np.abs(w - s.w.value)]
    if not ok.all():
        k, col = np.argwhere(~ok)[0]  # row-major: first point, u before v
        raise DataConversionDegenerate("uv"[col], uv[k, col].item())
    worst = _worst(np.concatenate(errors))
    return CheckResult("data_roundtrip", worst < tol, worst, n)


def _traced(surface: Surface, grid_n: int, keep):
    """How many traced vertices keep accepts, given the trace's classes, and
    their singular data and classes, padded as ``singular._padded`` pads."""
    curves = trace_singular_set(surface, grid_n)
    if not curves:
        return 0, None, None
    cls = _rows([c.classes for c in curves], slice(None))
    rows = np.flatnonzero(keep(cls))
    return (len(rows), _rows([c.data for c in curves], _padded(rows)),
            _rows([cls], _padded(rows)))


def check_identities(surface: Surface, grid_n: int = 128,
                     tol_det: float = 1e-10,
                     tol_twist: float = 1e-8) -> CheckResult:
    """The two determinant identities along the traced singular set.

    det(gamma', eta) = a + b, and det(df(gamma'), n, dn(eta)) =
    -(w1 w2/2)(a+b)(a-b); also checks that the signed area density changes
    sign across the curve at nondegenerate points.
    """
    count, sd, _ = _traced(surface, grid_n, lambda c: c.is_nondegenerate)
    if count == 0:
        return CheckResult("singular_identities", True, None, 0,
                           "no singular points in domain")
    worst_det = _worst(np.abs(_directions(sd).det_gamma_eta
                              - sd.a_plus_b)[:count])
    lhs, rhs = _twist_sides(surface, sd)
    worst_twist = _worst(np.abs(lhs - rhs)[:count])
    # lambda at 1e-4 on either side along grad h, where grad h != 0
    g = _hypot(sd.h_u, sd.h_v)
    moved = g > 0
    g = np.where(moved, g, 1.0)
    lp, lm = (area_density_samples(
        AxisSamples(surface, "u", sd.u + side * 1e-4 * sd.h_u / g),
        AxisSamples(surface, "v", sd.v + side * 1e-4 * sd.h_v / g))
        for side in (1.0, -1.0))
    flips_ok = bool(np.all(((lp * lm) < 0) | ~moved))
    passed = worst_det < tol_det and worst_twist < tol_twist and flips_ok
    detail = (f"det {worst_det:.2e}, twist {worst_twist:.2e}, "
              f"density flips {'ok' if flips_ok else 'BROKEN'}")
    return CheckResult("singular_identities", passed,
                       max(worst_det, worst_twist), count, detail)


# the conjugate's tag code at each tag code of singular._TAG_CODES, and -1
# at Unresolved, of which conjugation predicts nothing
_DUAL_CODE = np.array([0, 1, 3, 2, -1])


def check_duality(surface: Surface, grid_n: int = 128) -> CheckResult:
    """Conjugation swaps swallowtails and cross caps, keeps cuspidal edges."""
    conj = conjugate_data(surface)
    count, sd, cls = _traced(surface, grid_n,
                             lambda c: _DUAL_CODE[c.code] >= 0)
    if count == 0:
        return CheckResult("duality", True, None, 0,
                           "no singular points in domain")
    dual = _classify_arrays(_singular_arrays(conj, sd.u, sd.v), DEFAULT_TOL)
    bad = int(np.count_nonzero((_DUAL_CODE[cls.code] != dual.code)[:count]))
    return CheckResult("duality", bad == 0, float(bad), count,
                       f"{bad} tag mismatches")


def check_kappa_zero_locus(surface: Surface, grid_n: int = 128,
                           lo: float = 1e-8, hi: float = 1e-4) -> CheckResult:
    """kappa_s vanishes along a cuspidal-edge curve only where g1' or g2' does.

    Tested with a gray band: points with |kappa_s| < lo must have
    min(|g1'|, |g2'|) < hi and vice versa; the band between lo and hi is
    inconclusive and skipped.
    """
    count, sd, cls = _traced(surface, grid_n, lambda c: c.code == _EDGE)
    if count == 0:
        return CheckResult("kappa_zero_locus", True, None, 0,
                           "no cuspidal edges in domain")
    min_g = np.minimum(np.abs(sd.g1p), np.abs(sd.g2p))
    k = np.abs(cls.kappa_s)
    bad = int(np.count_nonzero((((k < lo) & (min_g > hi))
                                | ((min_g < lo) & (k > hi)))[:count]))
    return CheckResult("kappa_zero_locus", bad == 0, float(bad), count,
                       f"{bad} mismatches")


def check_main_theorem(surface: Surface, grid_n: int = 64,
                       max_points: int = 40) -> CheckResult:
    """Curvature sign/divergence predictions near traced singular points."""
    count, sd, cls = _traced(surface, grid_n, lambda c: c.is_nondegenerate)
    if count == 0:
        return CheckResult("main_theorem", True, None, 0,
                           "no singular points in domain")
    picked = np.arange(0, count, max(1, count // max_points))
    bad = sum(not all(checks.values()) for _, checks, _ in _main_theorem(
        surface, _rows([sd], picked), _rows([cls], picked)))
    return CheckResult("main_theorem", bad == 0, float(bad), len(picked),
                       f"{bad} failed points")


def check_flat_accumulation(surface: Surface, grid_n: int = 256,
                            radius: float = 1e-2) -> CheckResult:
    """Flat points pressing against the singular set force cuspidal edges.

    Quasi-umbilic points within ``radius`` of a traced nondegenerate singular
    point require that singular point to be a cuspidal edge; umbilic points
    must stay clear of all traced nondegenerate singular points.
    """
    d = get_data(surface)
    crit_u = _critical_params(d, "u")
    crit_v = _critical_params(d, "v")
    n, sd, cls = _traced(surface, grid_n, lambda c: c.is_nondegenerate)
    if n == 0 or (not crit_u and not crit_v):
        return CheckResult("flat_accumulation", True, None, 0,
                           "no flat locus meeting the singular set")
    cu, cv = np.array(crit_u), np.array(crit_v)
    # the scan points: 101 along each flat line, less the umbilic points
    # (cu x cv), which come last
    us, vs = (t[~(np.abs(t[:, None] - c) < 1e-6).any(axis=1)] for t, c in (
        (np.linspace(d.domain.u_min, d.domain.u_max, 101), cu),
        (np.linspace(d.domain.v_min, d.domain.v_max, 101), cv)))
    qu, qv = (np.concatenate([x.ravel() for x in grids]) for grids in zip(
        *(np.meshgrid(a, b) for a, b in ((cu, vs), (us, cv), (cu, cv)))))
    umbilic = np.arange(len(qu)) >= len(qu) - len(cu) * len(cv)
    # the nearest traced point of each scan point, the first of any ties,
    # 8192 distances (64 KiB) at a time: there may be thousands of scan points
    u, v, edge = sd.u[:n], sd.v[:n], cls.code[:n] == _EDGE
    step = max(1, 8192 // n)
    bad = count = 0
    for k in range(0, len(qu), step):
        at = slice(k, k + step)
        dist = np.hypot(u - qu[at, None], v - qv[at, None])
        close = dist.min(axis=1) <= radius
        count += int(np.count_nonzero(close))
        bad += int(np.count_nonzero(
            close & (umbilic[at] | ~edge[np.argmin(dist, axis=1)])))
    return CheckResult("flat_accumulation", bad == 0, float(bad), count,
                       f"{bad} violations near {count} close encounters")


def _critical_params(d: RealWeierstrassData, axis: str,
                     scan_n: int = 256) -> List[float]:
    """Zeros of g1' (axis u) or g2' (axis v) inside the domain."""
    if axis == "u":
        g, jet_fn, lo, hi = d.g1, d.g1_jet, d.domain.u_min, d.domain.u_max
    else:
        g, jet_fn, lo, hi = d.g2, d.g2_jet, d.domain.v_min, d.domain.v_max
    ts = np.linspace(lo, hi, scan_n + 1)
    vals = eval_array(g, ts).d1.tolist()
    roots = []
    for k in range(scan_n):
        va, vb = vals[k], vals[k + 1]
        if va == 0.0:
            roots.append(float(ts[k]))
            continue
        if (va > 0) == (vb > 0):
            continue
        a, b = float(ts[k]), float(ts[k + 1])
        fa = va
        for _ in range(80):
            m = 0.5 * (a + b)
            fm = jet_fn(m).d1
            if fm == 0.0:
                a = b = m
                break
            if (fm > 0) == (fa > 0):
                a, fa = m, fm
            else:
                b = m
        roots.append(0.5 * (a + b))
    if vals[-1] == 0.0:
        roots.append(float(ts[-1]))
    return roots


# --- batteries ----------------------------------------------------------------


def run_battery(surface: Surface, seed: int = 0) -> List[CheckResult]:
    """Every applicable check for one surface, acceptance-grade point counts."""
    results = [
        check_null_generators(surface, seed=seed),
        check_curvature_routes(surface, seed=seed),
        check_minimality(surface, seed=seed),
        check_sign_theorem(surface, seed=seed),
        check_milnor(surface, seed=seed),
    ]
    if get_data(surface) is not None:
        results += [
            check_energy_gauge(surface, seed=seed),
            check_data_roundtrip(surface, seed=seed),
            check_identities(surface),
            check_duality(surface),
            check_kappa_zero_locus(surface),
            check_main_theorem(surface),
            check_flat_accumulation(surface),
        ]
    return results


def format_results(results: List[CheckResult]) -> str:
    lines = [r.line() for r in results]
    failed = sum(1 for r in results if not r.passed)
    lines.append("all checks passed" if failed == 0
                 else f"{failed} of {len(results)} checks FAILED")
    return "\n".join(lines)


# --- randomized data ------------------------------------------------------------


def _poly_string(coeffs, var: str) -> str:
    terms = []
    for k, c in enumerate(coeffs):
        c = float(c)
        if c == 0.0:
            continue
        if k == 0:
            terms.append("(%r)" % c)
        elif k == 1:
            terms.append("(%r)*%s" % (c, var))
        else:
            terms.append("(%r)*%s^%d" % (c, var, k))
    return "+".join(terms) if terms else "0"


def make_random_poly_data(rng, max_degree: int = 3) -> RealWeierstrassData:
    """Random polynomial data functions with strictly one-signed densities.

    g1, g2 are random polynomials of degree <= max_degree on [-1, 1]^2; the
    densities take the form +-((0.4 + |c|) + (linear)^2), which is bounded
    away from zero, so the data is always admissible.
    """
    while True:
        deg1 = int(rng.integers(1, max_degree + 1))
        deg2 = int(rng.integers(1, max_degree + 1))
        g1 = _poly_string(rng.uniform(-1, 1, deg1 + 1), "u")
        g2 = _poly_string(rng.uniform(-1, 1, deg2 + 1), "v")

        def density(var: str) -> str:
            base = 0.4 + abs(float(rng.uniform(-1, 1)))
            a, b = (float(x) for x in rng.uniform(-1, 1, 2))
            sign = "-" if rng.uniform() < 0.5 else ""
            return "%s((%r) + ((%r)*%s + (%r))^2)" % (sign, base, a, var, b)

        try:
            return RealWeierstrassData.from_strings(
                g1, g2, density("u"), density("v"),
                Rect(-1.0, 1.0, -1.0, 1.0))
        except MinfaceError:
            continue


def make_accumulation_data(rng) -> RealWeierstrassData:
    """Quadratic-g1 data whose flat line crosses the singular curve.

    g1 = a (u - c)^2 + d has a critical line u = c of quasi-umbilic points;
    the linear g2 is arranged so that g1(c) g2(v) = 1 for some v inside the
    domain, making the accumulation property non-vacuous.
    """
    a = float(rng.uniform(0.5, 1.5))
    c = float(rng.uniform(-0.4, 0.4))
    dd = float(rng.uniform(0.6, 1.4))
    v_star = float(rng.uniform(-0.4, 0.4))
    e = float(rng.uniform(0.7, 1.3))
    f2 = 1.0 / dd - e * v_star
    g1 = "(%r)*(u-(%r))^2+(%r)" % (a, c, dd)
    g2 = "(%r)*v+(%r)" % (e, f2)
    return RealWeierstrassData.from_strings(
        g1, g2, "1", "1", Rect(-1.0, 1.0, -1.0, 1.0))
