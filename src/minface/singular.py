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

import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .curvature import AxisSamples, area_density_samples, extrinsic_k_samples
from .errors import (DegenerateSingular, DivisionByZero, DomainError,
                     NonFiniteResult, NotCuspidalEdge, NotSingular,
                     RootNotConverged)
from .expr import Expression, eval_array
from .jets import div, elementwise, float_pow, mul, shift_derivative
from .lorentz import det3
from .surface import RealWeierstrassData, Surface, normal_samples, require_data

DEFAULT_TOL = 1e-9


# --- pointwise data ---------------------------------------------------------


@dataclass(frozen=True)
class SingularData:
    """Values of h, a, b and their derivatives at one parameter point.

    ``_singular_arrays`` fills the fields with arrays instead, one element
    per point; the properties and ``band`` work elementwise on those.
    """

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
    g1, g2, w1, w2 = d.g1_jet(u), d.g2_jet(v), d.w1_jet(u), d.w2_jet(v)
    if g1.value == 0.0 or g2.value == 0.0:
        raise _vanishing_data(u, v)
    return _singular_body(u, v, g1, g2, w1, w2)


def _singular_arrays(d: RealWeierstrassData, u: np.ndarray,
                     v: np.ndarray) -> SingularData:
    """singular_data at every point (u[k], v[k]), as a SingularData of arrays.

    Each element equals singular_data at that point bit for bit, and a
    vanishing data function raises its NotSingular for the first such point.
    """
    g1, g2 = eval_array(d.g1, u), eval_array(d.g2, v)
    w1, w2 = eval_array(d.w1, u), eval_array(d.w2, v)
    zero = (g1.value == 0.0) | (g2.value == 0.0)
    if zero.any():
        k = int(np.argmax(zero))
        raise _vanishing_data(u[k].item(), v[k].item())
    with np.errstate(all="ignore"):
        return _singular_body(u, v, g1, g2, w1, w2)


def _singular_body(u, v, g1, g2, w1, w2) -> SingularData:
    """The singular data from the jets of the four data functions at (u, v):
    floats or arrays alike."""
    a_jet = div(shift_derivative(g1), mul(mul(g1, g1), w1))
    b_jet = div(shift_derivative(g2), mul(mul(g2, g2), w2))
    return SingularData(
        u=u, v=v, g1=g1.value, g2=g2.value, g1p=g1.d1, g2p=g2.d1,
        w1=w1.value, w2=w2.value,
        h=g1.value * g2.value - 1.0,
        h_u=g1.d1 * g2.value, h_v=g1.value * g2.d1,
        a=a_jet.value, b=b_jet.value,
        a_rate=a_jet.d1, b_rate=b_jet.d1)


def _rows(records, index):
    """The records (of floats or of arrays) laid end to end, at index."""
    return type(records[0])(*(
        np.hstack([getattr(r, f.name) for r in records])[index]
        for f in fields(records[0])))


def _vanishing_data(u: float, v: float) -> NotSingular:
    # g1 g2 = 1 forces both data functions nonzero, so such a point is
    # provably off the singular set.
    return NotSingular(
        f"a data function vanishes at ({u!r}, {v!r}); the point cannot "
        "lie on the singular set")


def signed_area_density(surface: Surface, u: float, v: float) -> float:
    """lambda = -(w1 w2 / 2)(1 - g1 g2) sqrt((1-g1 g2)^2 + 2(g1+g2)^2).

    Vanishes exactly on the singular set; its sign flags which side of the
    singular curve the point is on. ``curvature.area_density_samples`` on
    the one-point records of (u, v).
    """
    require_data(surface, "the signed area density")
    return float(area_density_samples(AxisSamples(surface, "u", u),
                                      AxisSamples(surface, "v", v)))


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


def is_front(surface: Surface, u: float, v: float,
             tol: float = DEFAULT_TOL) -> bool:
    """Whether the unit normal extends immersively: a - b != 0."""
    return classify_singular(surface, u, v, tol).is_front


def is_nondegenerate(surface: Surface, u: float, v: float,
                     tol: float = DEFAULT_TOL) -> bool:
    """Whether d(g1 g2) != 0: the singular set is a regular curve there."""
    return classify_singular(surface, u, v, tol).is_nondegenerate


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
    sd = _rows([singular_data(surface, u, v)], [0])
    return _reports(sd, _classify_arrays(sd, tol))[0]


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
    if not _classify_arrays(_rows([sd], [0]), tol).is_nondegenerate[0]:
        raise DegenerateSingular(
            f"({u!r}, {v!r}): both data derivatives vanish; the singular "
            "set is not a regular curve here")
    return _directions(sd)


def _directions(sd: SingularData) -> SingularDirections:
    """The directions at every point of sd, floats or arrays alike."""
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
    directions_at(surface, u, v)  # raises off the nondegenerate set
    lhs, rhs = _twist_sides(surface, singular_data(surface, u, v), fd_step)
    return float(lhs), float(rhs)


def _twist_sides(surface: Surface, sd: SingularData, fd_step: float = 1e-4):
    """normal_twist_identity at every point of sd, of floats or of arrays.

    The records of the points give f_u, f_v and n; the records of the four
    stencil points give n there.
    """
    dirs = _directions(sd)
    su, sv = AxisSamples(surface, "u", sd.u), AxisSamples(surface, "v", sd.v)
    gu, gv = (np.asarray(x)[..., None] for x in dirs.gamma_prime)
    df_gamma = gu * (0.5 * su.vel) + gv * (0.5 * sv.vel)
    eu, ev = dirs.eta
    size = _hypot(eu, ev)
    eu, ev = eu / size, ev / size
    h = fd_step
    p1, m1, p2, m2 = (
        normal_samples(AxisSamples(surface, "u", sd.u + s * eu),
                       AxisSamples(surface, "v", sd.v + s * ev))[0]
        for s in (h, -h, 2 * h, -2 * h))
    dn = size[..., None] * (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * h)
    lhs = det3(df_gamma, normal_samples(su, sv)[0], dn)
    alpha = -0.5 * sd.w1 * sd.w2 * sd.a_plus_b
    return lhs, alpha * sd.a_minus_b


# --- tracing -----------------------------------------------------------------


@dataclass
class SingularCurve:
    """One connected polyline of the singular set: the singular data and the
    classes of its vertices in polyline order, Newton-refined ones included,
    as arrays. ``residual_max`` is the largest |g1 g2 - 1| over them."""

    data: SingularData
    classes: Classified
    residual_max: float
    closed: bool = False

    @cached_property
    def points(self) -> List[SingularPointReport]:
        """The report of every vertex, built when first read."""
        return _reports(self.data, self.classes)

    @property
    def coords(self) -> np.ndarray:
        return np.column_stack([self.data.u, self.data.v])


# Array work on edges and vertices runs at lengths rounded up to a multiple
# of _CHUNK. Its many short-lived masks then come in a few sizes: numpy
# keeps up to seven freed buffers of every size below 1 KiB for reuse, so
# masks of every length a trace happens to produce would pin megabytes
# over a long run of traces.
_CHUNK = 128


def _padded(x: np.ndarray) -> np.ndarray:
    """x extended by copies of its last element to a multiple of _CHUNK."""
    n = len(x)
    out = np.empty(-(-n // _CHUNK) * _CHUNK, dtype=x.dtype)
    out[:n] = x
    out[n:] = x[-1] if n else 0
    return out


def _edge_roots(g: Expression, g_lo: np.ndarray, g_hi: np.ndarray,
                g_other: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                tol: float = 1e-12) -> np.ndarray:
    """Roots of g(t)*g_other - 1 on the edges [lo, hi], all at once.

    One element per edge: g_lo and g_hi are g at the ends, and h must change
    sign along every edge. Each element takes the steps of a scalar
    safeguarded Newton: an end where h = 0 is the root; otherwise start at
    the midpoint, accept at |h| < tol, keep the sign bracket, and bisect
    where h' = 0 or the Newton step leaves the bracket. The iterates of all
    edges are evaluated together by ``eval_array``. RootNotConverged names
    the first edge that 60 iterations leave at |h| >= tol.
    """
    n = len(lo)
    edge_lo, edge_hi = lo, hi
    g_lo, g_hi, g_other, lo, hi = map(_padded, (g_lo, g_hi, g_other, lo, hi))
    h_lo = g_lo * g_other - 1.0
    h_hi = g_hi * g_other - 1.0
    roots = np.where(h_lo == 0.0, lo, hi)
    todo = (h_lo != 0.0) & (h_hi != 0.0)
    lo_pos = h_lo > 0
    # a solved edge waits at a point already evaluated: its lower end if a
    # root is at an end, else the root it converged to
    t = np.where(todo, 0.5 * (lo + hi), lo)
    for _ in range(60):
        if not todo.any():
            return roots[:n]
        jt = eval_array(g, t)
        ht = jt.value * g_other - 1.0
        done = todo & (np.abs(ht) < tol)
        np.copyto(roots, t, where=done)
        todo &= ~done
        same = (ht > 0) == lo_pos
        lo = np.where(todo & same, t, lo)
        hi = np.where(todo & ~same, t, hi)
        dh = jt.d1 * g_other
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = t - ht / dh
        ok = (dh != 0.0) & (lo < newton) & (newton < hi)
        t_last = t
        t = np.where(todo, np.where(ok, newton, 0.5 * (lo + hi)), t)
    if not todo.any():
        return roots[:n]
    k = int(np.argmax(todo))
    raise RootNotConverged((edge_lo[k].item(), edge_hi[k].item()),
                           t_last[k].item(), ht[k].item())


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

# grid rows whose node signs are taken at a time
_SIGN_ROWS = 32


def trace_singular_set(surface: Surface, grid_n: int = 256,
                       tol: float = DEFAULT_TOL) -> List[SingularCurve]:
    """Polyline trace of {g1 g2 = 1} over the domain grid.

    Marching squares on the signs of g1(u_i) g2(v_j) - 1 at the
    (grid_n+1)^2 grid nodes: the sign test is a numpy broadcast, and only
    the cells the curve crosses are visited. Every grid edge whose end signs
    differ carries one vertex, sharpened to |h| < 1e-12 along the edge; the
    edges are solved together, so beyond the sign test the cost grows with
    the number of crossed edges. Sign changes of a + b and a - b along each
    polyline are located by a two-dimensional Newton iteration on
    {h = 0, a +- b = 0} and the solutions are inserted as extra vertices, so
    swallowtail and cross-cap candidates appear as exact polyline points.
    """
    d = require_data(surface, "singular-set tracing")
    if grid_n < 16:
        raise ValueError("grid_n must be at least 16")
    n = grid_n + 1
    us = d.domain.u_grid(n)
    vs = d.domain.v_grid(n)
    g1_vals = eval_array(d.g1, us).value
    g2_vals = eval_array(d.g2, vs).value
    # Node signs g1 g2 > 1 (exactly h > 0), a block of rows at a time, so
    # no grid-sized array is held. From them, as row-major flat indices:
    # the sign-changing u-edges, from node (i, j) to (i+1, j), and v-edges,
    # from (i, j) to (i, j+1), and the cells they cross, with each crossed
    # cell's case index.
    u_flat, v_flat, cells, cases = [], [], [], []
    for r in range(0, n, _SIGN_ROWS):
        pos = np.greater(np.multiply.outer(g1_vals[r:r + _SIGN_ROWS + 1],
                                           g2_vals), 1.0)
        own = min(_SIGN_ROWS, n - r)  # the next block's first row is shared
        u_cut = pos[:-1] != pos[1:]
        v_cut = pos[:, :-1] != pos[:, 1:]
        u_flat.append(r * n + np.flatnonzero(u_cut[:own]))
        v_flat.append(r * grid_n + np.flatnonzero(v_cut[:own]))
        crossed = np.flatnonzero(
            u_cut[:, :-1] | u_cut[:, 1:] | v_cut[:-1] | v_cut[1:])
        bi, bj = np.divmod(crossed, grid_n)
        p = pos.view(np.uint8)
        cells.append(r * grid_n + crossed)
        cases.append(p[bi, bj] | p[bi + 1, bj] << 1 | p[bi + 1, bj + 1] << 2
                     | p[bi, bj + 1] << 3)
    u_flat, v_flat = np.concatenate(u_flat), np.concatenate(v_flat)

    # every sign-changing edge carries one vertex
    ui, uj = np.divmod(u_flat, n)
    vi, vj = np.divmod(v_flat, grid_n)
    u_roots = _edge_roots(d.g1, g1_vals[ui], g1_vals[ui + 1], g2_vals[uj],
                          us[ui], us[ui + 1])
    v_roots = _edge_roots(d.g2, g2_vals[vj], g2_vals[vj + 1], g1_vals[vi],
                          vs[vj], vs[vj + 1])
    # an edge's id is its place among the u-edges, then the v-edges, in
    # row-major order; its vertex is (edge_u[id], edge_v[id])
    edge_u = np.concatenate([u_roots, us[vi]])
    edge_v = np.concatenate([vs[uj], v_roots])

    # crossed cells in row-major order: stitching, and so the curve and
    # vertex order, depends on the order segments are found in
    ci, cj = np.divmod(np.concatenate(cells), grid_n)
    idxs = np.concatenate(cases)
    center_pos = np.zeros(len(ci), dtype=bool)
    saddle = (idxs == 5) | (idxs == 10)
    if saddle.any():
        si, sj = ci[saddle], cj[saddle]
        center_pos[saddle] = (
            eval_array(d.g1, 0.5 * (us[si] + us[si + 1])).value
            * eval_array(d.g2, 0.5 * (vs[sj] + vs[sj + 1])).value - 1.0 > 0)
    # ids of each cell's edges 0=bottom 1=right 2=top 3=left; the ids of
    # edges the cell's case leaves uncrossed are never read
    n_u = len(u_flat)
    local = np.stack([
        np.searchsorted(u_flat, ci * n + cj),
        n_u + np.searchsorted(v_flat, (ci + 1) * grid_n + cj),
        np.searchsorted(u_flat, ci * n + cj + 1),
        n_u + np.searchsorted(v_flat, ci * grid_n + cj)], axis=1)
    segments = []
    for ids, idx, center in zip(local.tolist(), idxs.tolist(),
                                center_pos.tolist()):
        if idx in (5, 10):
            # saddle cell: corners 00/11 share a sign, 10/01 share the
            # other; the center decides which diagonal the contour splits
            corners_00_11_isolated = ((idx == 5 and not center)
                                      or (idx == 10 and center))
            if corners_00_11_isolated:
                pairs = [(3, 0), (1, 2)]
            else:
                pairs = [(0, 1), (2, 3)]
        else:
            pairs = _MS_SEGMENTS[idx]
        for e_a, e_b in pairs:
            segments.append((ids[e_a], ids[e_b]))

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
        if len(chain) < 2:
            continue
        data = _singular_arrays(d, _padded(edge_u[chain]),
                                _padded(edge_v[chain]))
        found = _special_points(surface, data)
        # the nodes and, each before the node it precedes, the found points
        order = np.insert(np.arange(len(chain)), [k for k, _ in found],
                          len(data.u) + np.arange(len(found)))
        data = _rows([data] + [sd for _, sd in found], _padded(order))
        keep = slice(len(order))
        curves.append(SingularCurve(
            _rows([data], keep), _rows([_classify_arrays(data, tol)], keep),
            float(np.max(np.abs(data.h))), closed))
    return curves


_TAG_CODES = (SingularClassification.DEGENERATE,
              SingularClassification.CUSPIDAL_EDGE,
              SingularClassification.SWALLOWTAIL,
              SingularClassification.CUSPIDAL_CROSS_CAP,
              SingularClassification.UNRESOLVED)
_EDGE = _TAG_CODES.index(SingularClassification.CUSPIDAL_EDGE)
_hypot = elementwise(math.hypot, 2)


@dataclass(frozen=True)
class Classified:
    """The classifier's arrays, one element per point: ``code`` indexes
    _TAG_CODES, and ``kappa_s`` is NaN wherever the code is no CuspidalEdge."""

    code: np.ndarray
    is_front: np.ndarray
    is_nondegenerate: np.ndarray
    third_sw: np.ndarray
    third_ccr: np.ndarray
    kappa_s: np.ndarray
    lambda_gradient_norm: np.ndarray


@np.errstate(all="ignore")
def _classify_arrays(sd: SingularData, tol: float) -> Classified:
    """classify_singular at every point of sd, a SingularData of arrays: the
    decision tree as masks.

    Raises NotSingular for the first point with |g1 g2 - 1| > tol (1 +
    |g1 g2|).
    """
    off = np.abs(sd.h) > tol * (1.0 + np.abs(sd.g1 * sd.g2))
    if off.any():
        k = int(np.argmax(off))
        raise NotSingular(f"({sd.u[k].item()!r}, {sd.v[k].item()!r}): "
                          f"g1*g2 - 1 = {sd.h[k].item()!r} is not zero")
    band = sd.band(tol)
    front = np.abs(sd.a_minus_b) > band
    gp1, gp2 = np.abs(sd.g1p), np.abs(sd.g2p)
    nondeg = np.maximum(gp1, gp2) > tol * (1.0 + gp1 + gp2)
    third_sw = sd.a_rate * (sd.g2p / sd.g2) - sd.b_rate * (sd.g1p / sd.g1)
    third_ccr = sd.a_rate * (sd.g2p / sd.g2) + sd.b_rate * (sd.g1p / sd.g1)
    third_band = tol * (1.0 + np.abs(sd.a_rate) + np.abs(sd.b_rate))
    edge_side = np.abs(sd.a_plus_b) > band
    codes = np.where(
        front, np.where(edge_side, 1, np.where(np.abs(third_sw) > third_band,
                                               2, 4)),
        np.where(edge_side & (np.abs(third_ccr) > third_band), 3, 4))
    codes[~nondeg] = 0
    # kappa_s = [2 g1' g2' / (w1 w2 (g1 + g2)^2)] / |a + b| on cuspidal edges
    edge = codes == _EDGE
    kappa = np.full(len(codes), np.nan)
    kappa[edge] = 2.0 * sd.g1p[edge] * sd.g2p[edge] / (
        sd.w1[edge] * sd.w2[edge] * float_pow(sd.g1[edge] + sd.g2[edge], 2)
    ) / np.abs(sd.a_plus_b[edge])
    return Classified(codes, front, nondeg, third_sw, third_ccr, kappa,
                      _hypot(*lambda_gradient_on_singular(sd)))


def _reports(sd: SingularData, cls: Classified) -> List[SingularPointReport]:
    """The report of every point of sd, classified as cls."""
    return [SingularPointReport(*row, _TAG_CODES[code],
                                kappa if code == _EDGE else None, grad)
            for *row, code, kappa, grad in zip(*(x.tolist() for x in (
                sd.u, sd.v, sd.a, sd.b, sd.a_minus_b, sd.a_plus_b,
                cls.third_sw, cls.third_ccr, cls.is_front,
                cls.is_nondegenerate, cls.code, cls.kappa_s,
                cls.lambda_gradient_norm)))]


def _special_points(surface: Surface,
                    data: SingularData) -> List[Tuple[int, SingularData]]:
    """Newton-refined zeros of a + b and a - b between polyline nodes.

    data holds the nodes in order, as arrays; copies of the last node may
    follow. Each zero comes with the index of the node it precedes, a + b's
    before a - b's.
    """
    changes = []
    for sign in (1.0, -1.0):  # a + sign*b
        c = data.a + sign * data.b
        changes.append((c[:-1] != 0.0) & (c[1:] != 0.0)
                       & ((c[:-1] > 0) != (c[1:] > 0)))
    found = []
    for k in np.flatnonzero(changes[0] | changes[1]).tolist():
        u0, u1 = data.u[k:k + 2].tolist()
        v0, v1 = data.v[k:k + 2].tolist()
        for sign, change in zip((1.0, -1.0), changes):
            if not change[k]:
                continue
            sd = _newton_special(surface, 0.5 * (u0 + u1), 0.5 * (v0 + v1),
                                 sign)
            if sd is not None:
                near_prev = (abs(sd.u - u0) + abs(sd.v - v0)) < 1e-12
                near_next = (abs(sd.u - u1) + abs(sd.v - v1)) < 1e-12
                if not near_prev and not near_next:
                    found.append((k + 1, sd))
    return found


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


def write_singular_csv(curves: List[SingularCurve], destination) -> None:
    """CSV dump of the classified vertices of curves.

    Columns: u, v, tag, a, b, a_minus_b, a_plus_b, kappa_s, is_front,
    lambda_gradient_norm. kappa_s is empty off cuspidal edges.
    """
    # the bytes csv.writer writes: no field needs quoting, lines end in CRLF
    rows = ["u,v,tag,a,b,a_minus_b,a_plus_b,kappa_s,is_front,"
            "lambda_gradient_norm\r\n"]
    for c in curves:
        columns = (c.data.u, c.data.v, c.classes.code, c.data.a, c.data.b,
                   c.data.a_minus_b, c.data.a_plus_b, c.classes.kappa_s,
                   c.classes.is_front, c.classes.lambda_gradient_norm)
        rows += ["%.17g,%.17g,%s,%.17g,%.17g,%.17g,%.17g,%s,%d,%.17g\r\n" % (
            u, v, _TAG_CODES[code].value, *ab,
            "%.17g" % kappa if code == _EDGE else "", front, grad)
            for u, v, code, *ab, kappa, front, grad in zip(
                *(x.tolist() for x in columns))]
    text = "".join(rows)
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


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
    sd = _singular_arrays(require_data(surface, "singular analysis"),
                          *(np.array([t], dtype=np.float64) for t in (u, v)))
    cls = _classify_arrays(sd, tol)
    outcome = _main_theorem(surface, sd, cls, radii, kappa_exempt)[0]
    return MainTheoremReport(_reports(sd, cls)[0], *outcome)


def _main_theorem(surface: Surface, sd: SingularData, cls: Classified,
                  radii=(1e-2, 1e-3, 1e-4), kappa_exempt: float = 1e-6):
    """The (samples, checks, notes) of verify_main_theorem at every point of
    sd, classified as cls, evaluated all at once; DegenerateSingular names
    the first point with no transversal."""
    us, vs, n = sd.u, sd.v, sd.u.size
    norm = np.hypot(sd.h_u, sd.h_v)
    if (norm == 0.0).any():
        k = int(np.argmax(norm == 0.0))
        raise DegenerateSingular(f"({us[k].item()!r}, {vs[k].item()!r}): "
                                 "h has a critical point; no transversal")
    # K at (u, v) + side r grad h / |grad h|, each point's samples in the
    # order (r, side) for r in radii for side in (1, -1)
    offsets = [(r, side) for r in radii for side in (1.0, -1.0)]
    steps = np.array([side * r for r, side in offsets])
    ks, sampled = extrinsic_k_samples(*(
        AxisSamples(surface, axis, _padded(
            (t[:, None] + steps * (h / norm)[:, None]).ravel()))
        for axis, t, h in (("u", us, sd.h_u), ("v", vs, sd.h_v))))
    ks, sampled = (x[:n * len(steps)].reshape(n, -1) for x in (ks, sampled))
    # each side's columns in order of decreasing r
    by_r = (2 * np.argsort(np.negative(radii), kind="stable")
            + np.array([[0], [1]]))
    out = []
    for k, got, code, front, nondeg, kappa in zip(ks, sampled, *(
            x.tolist() for x in (cls.code, cls.is_front, cls.is_nondegenerate,
                                 cls.kappa_s))):
        checks, notes = {}, []
        if code == _EDGE:
            if abs(kappa) <= kappa_exempt:
                notes.append(
                    "kappa_s = %.3e is below the exemption threshold; the "
                    "curvature sign nearby is not controlled" % kappa)
            else:
                checks["curvature_sign_matches_kappa_s"] = bool(
                    np.all(~got | ((k > 0) == (kappa > 0))))
        elif front and _TAG_CODES[code] in (
                SingularClassification.SWALLOWTAIL,
                SingularClassification.UNRESOLVED):
            checks["curvature_negative"] = bool(np.all(~got | (k < 0)))
            # |K| must exceed every |K| sampled at a larger r on its side
            m = np.where(got, np.abs(k), np.nan)[by_r]
            checks["curvature_magnitude_grows"] = bool(np.all(
                ~(m[:, 1:] <= np.fmax.accumulate(m, axis=1)[:, :-1])))
        elif not front and nondeg:
            checks["curvature_positive"] = bool(np.all(~got | (k > 0)))
        else:
            notes.append("degenerate point: no curvature-sign prediction")
        samples = [(r, side, kk) for (r, side), kk, ok in zip(
            offsets, k.tolist(), got.tolist()) if ok]
        if not samples:
            checks["sampled_nearby_curvature"] = False
        out.append((samples, checks, notes))
    return out
