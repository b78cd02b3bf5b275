"""Singular set: tracing, classification, singular curvature, main theorem.

Singular points of the surface are exactly the zeros of h = g1*g2 - 1. All
classification data reduces to two one-variable functions

    a(u) = g1'(u) / (g1(u)^2 w1(u)),   b(v) = g2'(v) / (g2(v)^2 w2(v))

evaluated on the singular curve: the surface is a front at a singular point
iff a - b != 0 there, a front point is a cuspidal edge iff additionally
a + b != 0, a swallowtail needs a + b = 0 with nonzero third-order data, and
a non-front point with a + b != 0 and nonzero third-order data is a cuspidal
cross cap. Everything here needs the data functions (raw curve pairs raise
ModeUnsupported).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Optional, TextIO, Tuple, Union

import numpy as np

from .errors import (DegenerateSingular, DivisionByZero, DomainError,
                     ModeUnsupported, NonFiniteResult, NotCuspidalEdge,
                     NotSingular, RootNotConverged, SingularPoint)
from .expr import eval_array, eval_value
from .jets import shift_derivative
from .lorentz import det3, enorm, vec3
from .surface import (RealWeierstrassData, Surface, jets_at, require_data)

DEFAULT_TOL = 1e-9


# --- pointwise data ---------------------------------------------------------


@dataclass(frozen=True)
class SingularData:
    """Values of h, a, b and their derivatives at one parameter point."""

    u: float
    v: float
    g1: float
    g2: float
    g1p: float
    g2p: float
    w1: float
    w2: float
    h: float
    h_u: float
    h_v: float
    a: float
    b: float
    a_rate: float
    b_rate: float

    @property
    def a_minus_b(self) -> float:
        return self.a - self.b

    @property
    def a_plus_b(self) -> float:
        return self.a + self.b

    def band(self, tol: float) -> float:
        return tol * (1.0 + abs(self.a) + abs(self.b))


def singular_data(surface: Surface, u: float, v: float) -> SingularData:
    d = require_data(surface, "singular analysis")
    g1 = d.g1_jet(u)
    g2 = d.g2_jet(v)
    w1 = d.w1_jet(u)
    w2 = d.w2_jet(v)
    if g1.value == 0.0 or g2.value == 0.0:
        # g1 g2 = 1 forces both data functions nonzero, so this point is
        # provably off the singular set.
        raise NotSingular(
            f"a data function vanishes at ({u!r}, {v!r}); the point cannot "
            "lie on the singular set")
    a_jet = shift_derivative(g1) / (g1 * g1 * w1)
    b_jet = shift_derivative(g2) / (g2 * g2 * w2)
    return SingularData(
        u=u, v=v, g1=g1.value, g2=g2.value, g1p=g1.d1, g2p=g2.d1,
        w1=w1.value, w2=w2.value,
        h=g1.value * g2.value - 1.0,
        h_u=g1.d1 * g2.value, h_v=g1.value * g2.d1,
        a=a_jet.value, b=b_jet.value,
        a_rate=a_jet.d1, b_rate=b_jet.d1)


def signed_area_density(surface: Surface, u: float, v: float) -> float:
    """lambda = -(w1 w2 / 2)(1 - g1 g2) sqrt((1-g1 g2)^2 + 2(g1+g2)^2).

    Vanishes exactly on the singular set; its sign flags which side of the
    singular curve the point is on.
    """
    d = require_data(surface, "the signed area density")
    g1 = eval_value(d.g1, u)
    g2 = eval_value(d.g2, v)
    w1 = eval_value(d.w1, u)
    w2 = eval_value(d.w2, v)
    one_m = 1.0 - g1 * g2
    return -0.5 * w1 * w2 * one_m * math.sqrt(one_m ** 2
                                              + 2.0 * (g1 + g2) ** 2)


def lambda_gradient_on_singular(sd: SingularData) -> Tuple[float, float]:
    """(d lambda/du, d lambda/dv) at a singular point, in closed form.

    On {g1 g2 = 1} the gradient reduces to
    (w1 w2 / sqrt(2)) |g1 + g2| (g1'/g1, g2'/g2).
    """
    factor = (sd.w1 * sd.w2 / math.sqrt(2.0)) * abs(sd.g1 + sd.g2)
    return (factor * sd.g1p / sd.g1, factor * sd.g2p / sd.g2)


# --- classification ----------------------------------------------------------


class SingularClassification(Enum):
    CUSPIDAL_EDGE = "CuspidalEdge"
    SWALLOWTAIL = "Swallowtail"
    CUSPIDAL_CROSS_CAP = "CuspidalCrossCap"
    DEGENERATE = "DegenerateSingular"
    UNRESOLVED = "Unresolved"


@dataclass(frozen=True)
class SingularPointReport:
    u: float
    v: float
    a: float
    b: float
    a_minus_b: float
    a_plus_b: float
    third_sw: float
    third_ccr: float
    is_front: bool
    is_nondegenerate: bool
    tag: SingularClassification
    kappa_s: Optional[float]
    lambda_gradient_norm: float


def _require_singular(sd: SingularData, tol: float) -> None:
    scale = 1.0 + abs(sd.g1 * sd.g2)
    if abs(sd.h) > tol * scale:
        raise NotSingular(
            f"({sd.u!r}, {sd.v!r}): g1*g2 - 1 = {sd.h!r} is not zero")


def is_front(surface: Surface, u: float, v: float,
             tol: float = DEFAULT_TOL) -> bool:
    """Whether the unit normal extends immersively: a - b != 0."""
    sd = singular_data(surface, u, v)
    _require_singular(sd, tol)
    return abs(sd.a_minus_b) > sd.band(tol)


def is_nondegenerate(surface: Surface, u: float, v: float,
                     tol: float = DEFAULT_TOL) -> bool:
    """Whether d(g1 g2) != 0: the singular set is a regular curve there."""
    sd = singular_data(surface, u, v)
    _require_singular(sd, tol)
    scale = 1.0 + abs(sd.g1p) + abs(sd.g2p)
    return max(abs(sd.g1p), abs(sd.g2p)) > tol * scale


def classify_singular(surface: Surface, u: float, v: float,
                      tol: float = DEFAULT_TOL) -> SingularPointReport:
    """Classify the singular point at (u, v).

    Decision tree on the a, b data (each comparison against the scaled band
    tol * (1 + |a| + |b|)):

    * a - b != 0, a + b != 0                 cuspidal edge
    * a - b != 0, a + b  = 0, third_sw != 0  swallowtail
    * a - b  = 0, a + b != 0, third_ccr != 0 cuspidal cross cap

    with third_sw = a'*(g2'/g2) - b'*(g1'/g1) and third_ccr the same with
    a plus sign. Points with g1' = g2' = 0 are DegenerateSingular; surviving
    borderline cases (criteria quantities inside the band) are Unresolved.
    """
    return _classify(singular_data(surface, u, v), tol)


def _classify(sd: SingularData, tol: float) -> SingularPointReport:
    _require_singular(sd, tol)
    band = sd.band(tol)
    front = abs(sd.a_minus_b) > band
    gp_scale = 1.0 + abs(sd.g1p) + abs(sd.g2p)
    nondeg = max(abs(sd.g1p), abs(sd.g2p)) > tol * gp_scale
    third_sw = sd.a_rate * (sd.g2p / sd.g2) - sd.b_rate * (sd.g1p / sd.g1)
    third_ccr = sd.a_rate * (sd.g2p / sd.g2) + sd.b_rate * (sd.g1p / sd.g1)
    third_band = tol * (1.0 + abs(sd.a_rate) + abs(sd.b_rate))
    kappa = None
    if not nondeg:
        tag = SingularClassification.DEGENERATE
    elif front:
        if abs(sd.a_plus_b) > band:
            tag = SingularClassification.CUSPIDAL_EDGE
            kappa = _kappa_s(sd)
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


def _kappa_s(sd: SingularData) -> float:
    num = 2.0 * sd.g1p * sd.g2p / (sd.w1 * sd.w2 * (sd.g1 + sd.g2) ** 2)
    return num / abs(sd.a_plus_b)


def singular_curvature(surface: Surface, u: float, v: float,
                       tol: float = DEFAULT_TOL) -> float:
    """Singular curvature kappa_s at a cuspidal edge point.

    kappa_s = [2 g1' g2' / (w1 w2 (g1+g2)^2)] / |a+b|. The absolute value in
    the last factor keeps the result independent of how the singular curve is
    oriented; its sign then matches the sign of K on nearby regular points.
    Raises NotCuspidalEdge anywhere else on the singular set.
    """
    report = classify_singular(surface, u, v, tol)
    if report.tag is not SingularClassification.CUSPIDAL_EDGE:
        raise NotCuspidalEdge(
            f"({u!r}, {v!r}) is {report.tag.value}, not a cuspidal edge")
    return report.kappa_s


# --- null and singular directions -------------------------------------------


@dataclass(frozen=True)
class SingularDirections:
    """Distinguished parameter-plane directions at a singular point.

    ``eta`` spans the kernel of df, ``mu`` is the normal-rotation direction,
    and ``gamma_prime`` is tangent to the singular curve; det(gamma',
    eta) = a + b, so eta turns tangent to the singular curve exactly at
    swallowtail candidates.
    """

    eta: Tuple[float, float]
    mu: Tuple[float, float]
    gamma_prime: Tuple[float, float]
    det_gamma_eta: float


def directions_at(surface: Surface, u: float, v: float,
                  tol: float = DEFAULT_TOL) -> SingularDirections:
    sd = singular_data(surface, u, v)
    _require_singular(sd, tol)
    gp_scale = 1.0 + abs(sd.g1p) + abs(sd.g2p)
    if max(abs(sd.g1p), abs(sd.g2p)) <= tol * gp_scale:
        raise DegenerateSingular(
            f"({u!r}, {v!r}): both data derivatives vanish; the singular "
            "set is not a regular curve here")
    eta = (1.0 / (sd.g1 * sd.w1), 1.0 / (sd.g2 * sd.w2))
    mu = (sd.g2p / sd.g2, sd.g1p / sd.g1)
    gamma_prime = (sd.g2p / sd.g2, -sd.g1p / sd.g1)
    det = gamma_prime[0] * eta[1] - gamma_prime[1] * eta[0]
    return SingularDirections(eta, mu, gamma_prime, det)


def normal_twist_identity(surface: Surface, u: float, v: float,
                          fd_step: float = 1e-4) -> Tuple[float, float]:
    """Both sides of det(df(gamma'), n, dn(eta)) = alpha (a - b).

    alpha = -(w1 w2 / 2)(a + b). The left side differentiates the Euclidean
    unit normal numerically along eta (fourth-order stencil along the unit
    direction, rescaled by |eta| afterwards, so the step is meaningful even
    where eta is long); the identity is insensitive to a global sign flip
    of n (n appears twice). Returns (lhs, rhs).
    """
    sd = singular_data(surface, u, v)
    dirs = directions_at(surface, u, v)
    sj = jets_at(surface, u, v, with_position=False)
    df_gamma = dirs.gamma_prime[0] * sj.f_u + dirs.gamma_prime[1] * sj.f_v

    def n_at(uu: float, vv: float) -> np.ndarray:
        return jets_at(surface, uu, vv, with_position=False).n

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


# --- tracing -----------------------------------------------------------------


@dataclass
class SingularCurve:
    """One connected polyline of the singular set, with classified points.

    ``residual_max`` is the largest |g1 g2 - 1| over the refined vertices.
    """

    points: List[SingularPointReport]
    residual_max: float
    closed: bool = False

    @property
    def coords(self) -> np.ndarray:
        return np.array([(p.u, p.v) for p in self.points])


def _edge_root(g_fn, g_other: float, lo: float, hi: float,
               jet_fn, tol: float = 1e-12) -> Optional[float]:
    """Root of g(t)*g_other - 1 on [lo, hi] by safeguarded Newton.

    None if h does not change sign on the edge; RootNotConverged if 60
    iterations leave |h| >= tol.
    """
    edge = (lo, hi)

    def h(t: float) -> float:
        return g_fn(t) * g_other - 1.0

    h_lo, h_hi = h(lo), h(hi)
    if h_lo == 0.0:
        return lo
    if h_hi == 0.0:
        return hi
    if (h_lo > 0) == (h_hi > 0):
        return None
    t_next = 0.5 * (lo + hi)
    for _ in range(60):
        t = t_next
        jt = jet_fn(t)
        ht = jt.value * g_other - 1.0
        if abs(ht) < tol:
            return t
        if (ht > 0) == (h_lo > 0):
            lo = t
        else:
            hi = t
        dh = jt.d1 * g_other
        if dh != 0.0:
            t_next = t - ht / dh
            if not (lo < t_next < hi):
                t_next = 0.5 * (lo + hi)
        else:
            t_next = 0.5 * (lo + hi)
    raise RootNotConverged(edge, t, ht)


# marching-squares connectivity: case index bits are the > 0 flags of the
# corners (i,j), (i+1,j), (i+1,j+1), (i,j+1); entries pair up the cell's
# crossed edges 0=bottom 1=right 2=top 3=left.
_MS_SEGMENTS = {
    0: [], 15: [],
    1: [(3, 0)], 14: [(3, 0)],
    2: [(0, 1)], 13: [(0, 1)],
    4: [(1, 2)], 11: [(1, 2)],
    8: [(2, 3)], 7: [(2, 3)],
    3: [(3, 1)], 12: [(3, 1)],
    6: [(0, 2)], 9: [(0, 2)],
    # 5 and 10 are the ambiguous saddles, resolved at runtime
}


def trace_singular_set(surface: Surface, grid_n: int = 256,
                       tol: float = DEFAULT_TOL) -> List[SingularCurve]:
    """Polyline trace of {g1 g2 = 1} over the domain grid.

    Marching squares on the signs of g1(u_i) g2(v_j) - 1 at the
    (grid_n+1)^2 grid nodes: the sign test is one numpy broadcast, and only
    the cells the curve crosses are visited, so the cost beyond that test is
    proportional to the number of crossed cells. Every crossing is sharpened
    to |h| < 1e-12 along its grid edge. Sign changes of a + b and a - b
    along each polyline are located by a two-dimensional Newton iteration on
    {h = 0, a +- b = 0} and the solutions are inserted as extra vertices, so
    swallowtail and cross-cap candidates appear as exact polyline points.
    """
    d = require_data(surface, "singular-set tracing")
    if grid_n < 16:
        raise ValueError("grid_n must be at least 16")
    us = d.domain.u_grid(grid_n + 1)
    vs = d.domain.v_grid(grid_n + 1)
    g1_vals = eval_array(d.g1, us).value
    g2_vals = eval_array(d.g2, vs).value
    # g1 g2 > 1 exactly when h = g1 g2 - 1 > 0, so no grid-sized float h
    # array is needed besides the product
    pos = np.multiply.outer(g1_vals, g2_vals) > 1.0
    p = pos.view(np.uint8)
    cases = (p[:-1, :-1] | p[1:, :-1] << 1 | p[1:, 1:] << 2
             | p[:-1, 1:] << 3)

    g1_fn = lambda t: eval_value(d.g1, t)
    g2_fn = lambda t: eval_value(d.g2, t)

    edge_points = {}

    def point_on(edge) -> Optional[Tuple[float, float]]:
        if edge in edge_points:
            return edge_points[edge]
        kind, i, j = edge
        if kind == "u":
            t = _edge_root(g1_fn, g2_vals[j], us[i], us[i + 1], d.g1_jet)
            pt = None if t is None else (t, vs[j])
        else:
            t = _edge_root(g2_fn, g1_vals[i], vs[j], vs[j + 1], d.g2_jet)
            pt = None if t is None else (us[i], t)
        edge_points[edge] = pt
        return pt

    segments = []
    # crossed cells in row-major order: stitching, and so the curve and
    # vertex order, depends on the order segments are found in
    for i, j in np.argwhere((cases != 0) & (cases != 15)).tolist():
        idx = int(cases[i, j])
        local = {0: ("u", i, j), 1: ("v", i + 1, j),
                 2: ("u", i, j + 1), 3: ("v", i, j)}
        if idx in (5, 10):
            uc = 0.5 * (us[i] + us[i + 1])
            vc = 0.5 * (vs[j] + vs[j + 1])
            center_pos = g1_fn(uc) * g2_fn(vc) - 1.0 > 0
            # saddle cell: corners 00/11 share a sign, 10/01 share the
            # other; the center decides which diagonal the contour splits
            corners_00_11_isolated = ((idx == 5 and not center_pos)
                                      or (idx == 10 and center_pos))
            if corners_00_11_isolated:
                pairs = [(3, 0), (1, 2)]
            else:
                pairs = [(0, 1), (2, 3)]
        else:
            pairs = _MS_SEGMENTS[idx]
        for e_a, e_b in pairs:
            pa, pb = point_on(local[e_a]), point_on(local[e_b])
            if pa is not None and pb is not None:
                segments.append((local[e_a], local[e_b]))

    # stitch segments into polylines by shared edge ids
    adjacency = {}
    for ea, eb in segments:
        adjacency.setdefault(ea, []).append(eb)
        adjacency.setdefault(eb, []).append(ea)
    visited = set()
    curves = []
    endpoints = [e for e, nb in adjacency.items() if len(nb) == 1]
    seeds = endpoints + list(adjacency)
    for seed in seeds:
        if seed in visited or seed not in adjacency:
            continue
        chain = [seed]
        visited.add(seed)
        closed = False
        while True:
            nxt = [e for e in adjacency[chain[-1]] if e not in visited]
            if not nxt:
                if (len(chain) > 2 and chain[0] in adjacency[chain[-1]]):
                    closed = True
                break
            chain.append(nxt[0])
            visited.add(nxt[0])
        pts = [edge_points[e] for e in chain if edge_points[e] is not None]
        if len(pts) >= 2:
            curves.append((pts, closed))

    out = []
    for pts, closed in curves:
        data = _insert_special_points(
            surface, [singular_data(surface, u, v) for u, v in pts])
        reports = [_classify(sd, tol) for sd in data]
        residual = max(abs(sd.h) for sd in data)
        out.append(SingularCurve(reports, residual, closed))
    return out


def _insert_special_points(surface: Surface,
                           data: List[SingularData]) -> List[SingularData]:
    """Insert Newton-refined zeros of a + b and a - b between polyline nodes."""
    enriched = []
    for k in range(len(data)):
        enriched.append(data[k])
        if k + 1 >= len(data):
            break
        s0, s1 = data[k], data[k + 1]
        for sign in (1.0, -1.0):  # a + sign*b
            c0 = s0.a + sign * s0.b
            c1 = s1.a + sign * s1.b
            if c0 == 0.0 or c1 == 0.0 or (c0 > 0) == (c1 > 0):
                continue
            refined = _newton_special(surface, 0.5 * (s0.u + s1.u),
                                      0.5 * (s0.v + s1.v), sign)
            if refined is not None:
                near_prev = (abs(refined.u - s0.u)
                             + abs(refined.v - s0.v)) < 1e-12
                near_next = (abs(refined.u - s1.u)
                             + abs(refined.v - s1.v)) < 1e-12
                if not near_prev and not near_next:
                    enriched.append(refined)
    return enriched


def _newton_special(surface: Surface, u: float, v: float, sign: float,
                    iters: int = 50) -> Optional[SingularData]:
    """Solve {h = 0, a + sign*b = 0} from (u, v) by a 2x2 Newton iteration.

    Returns the singular data at the solution, or None when the iteration
    does not converge or an iterate leaves the region where the data
    functions are defined and nonzero.
    """
    for _ in range(iters):
        try:
            sd = singular_data(surface, u, v)
        except (NotSingular, DomainError, DivisionByZero, NonFiniteResult):
            return None
        f0 = sd.h
        f1 = sd.a + sign * sd.b
        scale = 1.0 + abs(sd.a) + abs(sd.b)
        if abs(f0) < 1e-13 and abs(f1) < 1e-13 * scale:
            return sd
        jac = np.array([[sd.h_u, sd.h_v],
                        [sd.a_rate, sign * sd.b_rate]])
        try:
            step = np.linalg.solve(jac, np.array([f0, f1]))
        except np.linalg.LinAlgError:
            return None
        u -= step[0]
        v -= step[1]
        if not (math.isfinite(u) and math.isfinite(v)):
            return None
    return None


def all_reports(curves: List[SingularCurve]) -> List[SingularPointReport]:
    return [p for c in curves for p in c.points]


def write_singular_csv(curves_or_reports, destination) -> None:
    """CSV dump of classified singular points.

    Columns: u, v, tag, a, b, a_minus_b, a_plus_b, kappa_s, is_front,
    lambda_gradient_norm. kappa_s is empty off cuspidal edges.
    """
    if curves_or_reports and isinstance(curves_or_reports[0], SingularCurve):
        reports = all_reports(curves_or_reports)
    else:
        reports = list(curves_or_reports)

    def emit(fh: TextIO) -> None:
        writer = csv.writer(fh)
        writer.writerow(["u", "v", "tag", "a", "b", "a_minus_b", "a_plus_b",
                         "kappa_s", "is_front", "lambda_gradient_norm"])
        for r in reports:
            writer.writerow([
                "%.17g" % r.u, "%.17g" % r.v, r.tag.value,
                "%.17g" % r.a, "%.17g" % r.b,
                "%.17g" % r.a_minus_b, "%.17g" % r.a_plus_b,
                "" if r.kappa_s is None else "%.17g" % r.kappa_s,
                int(r.is_front), "%.17g" % r.lambda_gradient_norm])

    if hasattr(destination, "write"):
        emit(destination)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            emit(fh)


# --- main theorem check -------------------------------------------------------


@dataclass
class MainTheoremReport:
    """Outcome of the curvature-sign checks near one singular point."""

    point: SingularPointReport
    samples: List[Tuple[float, float, float]]  # (r, side, K)
    checks: dict
    notes: List[str]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def verify_main_theorem(surface: Surface, u: float, v: float,
                        radii=(1e-2, 1e-3, 1e-4),
                        tol: float = DEFAULT_TOL,
                        kappa_exempt: float = 1e-6) -> MainTheoremReport:
    """Check the curvature behaviour the classification predicts near (u, v).

    Samples K on both sides of the singular curve along the unit gradient of
    h at decreasing radii. Cuspidal edges must show sign(K) = sign(kappa_s)
    (skipped, with a note, when |kappa_s| <= kappa_exempt: the sign of K is
    then decided by terms the leading order does not control). Front points
    with a + b = 0 (swallowtail side) must show K < 0 blowing up as r drops;
    nondegenerate non-front points must show K > 0.
    """
    from .curvature import gaussian_curvature

    report = classify_singular(surface, u, v, tol)
    sd = singular_data(surface, u, v)
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
                k = gaussian_curvature(surface, uu, vv, method="extrinsic")
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
