"""Adaptive 1-D quadrature with prefix caching along a curve parameter.

The kernel integrates smooth vector-valued integrands with a pair of
Gauss-Legendre rules (10 and 20 points, not nested): each interval is
estimated by both, the difference serves as the error estimate, and an
interval is accepted when that error is within its share of the absolute
tolerance or within REL_TOL of its own estimate; otherwise it is bisected.
A hard subdivision budget turns non-convergence into a QuadratureError that
reports the interval that failed and its estimate instead of silently
returning.

Surface evaluation integrates the same two curve derivatives again and again
from a fixed base parameter, so PrefixIntegral caches cumulative integrals at
a ladder of node points: a query only ever integrates the short tail from the
nearest cached node, and an array query of points on nodes integrates
nothing. The ladder is built from one array evaluation of the
Gauss nodes of all its segments (in chunks of at most _CHUNK points), with
the first level of ``adaptive_quad`` run as vector operations in its own
order, so every segment gets the same bits as ``adaptive_quad`` gives it;
only segments that fail the first-level test run ``adaptive_quad`` itself.
"""

from __future__ import annotations

import numpy as np

from .errors import MinfaceError, QuadratureError

# An interval is also accepted when its error estimate is at most this share
# of its own integral estimate (needed where the integrand is large).
REL_TOL = 1e-12


def _gauss_legendre(nodes, weights):
    """Both halves of a symmetric rule from its positive nodes (ascending)."""
    return (np.array([-x for x in reversed(nodes)] + nodes),
            np.array(weights[::-1] + weights))


# The bits np.polynomial.legendre.leggauss(10) and (20) return (a test pins
# them). Stored, not computed: leggauss calls LAPACK, and that first call
# alone adds about 0.7 MB to the resident size of a process that makes no
# other.
_X10, _W10 = _gauss_legendre(
    [0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
     0.8650633666889845, 0.9739065285171717],
    [0.2955242247147528, 0.2692667193099965, 0.219086362515982,
     0.1494513491505804, 0.06667134430868814])
_X20, _W20 = _gauss_legendre(
    [0.07652652113349734, 0.22778585114164507, 0.37370608871541955,
     0.5108670019508271, 0.636053680726515, 0.7463319064601508,
     0.8391169718222188, 0.912234428251326, 0.9639719272779138,
     0.993128599185095],
    [0.15275338713072628, 0.14917298647260424, 0.1420961093183824,
     0.1316886384491769, 0.1181945319615186, 0.1019301198172407,
     0.08327674157670471, 0.06267204833410879, 0.040601429800386446,
     0.017614007139150893])
_XS = np.concatenate([_X10, _X20])
# Most points handed to an array integrand in one call: the integrand may
# build per-point temporaries, so this bounds their size.
_CHUNK = 1024


def _weighted(vals, ws):
    """A rule's weighted sum of vals over axis 0: w0*v0, then acc + wk*vk."""
    acc = ws[0] * vals[0]
    for k in range(1, len(ws)):
        acc = acc + ws[k] * vals[k]
    return acc


def _rule(fn, a: float, b: float, xs, ws):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = np.array([np.asarray(fn(mid + half * x), dtype=float) for x in xs])
    return half * _weighted(vals, ws)


def _accepted(coarse, fine, width, total_len, abs_tol):
    """adaptive_quad's test of an interval, or of a stack of them.

    width is the interval's width (or an array of them, one per leading row
    of coarse and fine); returns whether it passes and its error estimate.
    """
    rows = np.shape(width) + (-1,)
    err = np.max(np.abs(fine - coarse).reshape(rows), axis=-1)
    scale = np.max(np.abs(fine).reshape(rows), axis=-1)
    ok = ((err <= np.maximum(abs_tol * width / total_len, 1e-300))
          | (width < 1e-14 * total_len) | (err <= REL_TOL * scale))
    return ok, err


def adaptive_quad(fn, a: float, b: float, abs_tol: float = 1e-12,
                  max_intervals: int = 4096):
    """Integral of fn over [a, b]; fn returns a float or a 1-D array.

    Absolute tolerance is distributed over subintervals by length; an
    interval whose error is within REL_TOL of its estimate also passes.
    Raises QuadratureError, naming the last interval that failed, when the
    subdivision budget is exhausted.
    """
    if a == b:
        probe = np.asarray(fn(a), dtype=float)
        return probe * 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    total_len = b - a
    stack = [(a, b)]
    acc = None
    used = 0
    while stack:
        lo, hi = stack.pop()
        used += 1
        coarse = _rule(fn, lo, hi, _X10, _W10)
        fine = _rule(fn, lo, hi, _X20, _W20)
        ok, err = _accepted(coarse, fine, hi - lo, total_len, abs_tol)
        if ok:
            acc = fine if acc is None else acc + fine
        elif used >= max_intervals:
            raise QuadratureError((float(lo), float(hi)), fine.tolist(),
                                  float(err))
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid))
            stack.append((mid, hi))
    return sign * acc


class PrefixIntegral:
    """Cached cumulative integral t -> int_{t0}^{t} fn, fn vector-valued.

    fn takes a float or a 1-D array ts; on an array it returns its values
    at every point, stacked along a leading axis, each row bit-identical to
    fn at that point. The ladder is built from array calls, tails from
    float calls. A call queries one float, ``at`` an array.
    """

    def __init__(self, fn, t0: float, lo: float, hi: float,
                 n_cache: int = 256, abs_tol: float = 1e-12):
        if not (lo <= t0 <= hi):
            # Allow a base outside the declared window by widening it.
            lo, hi = min(lo, t0), max(hi, t0)
        self.fn = fn
        self.t0 = float(t0)
        self.abs_tol = abs_tol
        nodes = np.linspace(lo, hi, n_cache + 1)
        # Make sure the base parameter is itself a node so prefixes are exact.
        if not np.any(np.isclose(nodes, t0, rtol=0.0, atol=1e-15)):
            nodes = np.sort(np.append(nodes, t0))
        self.nodes = nodes
        self._cum = None

    def _segments(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """adaptive_quad(fn, a[k], b[k]) for every k, as rows.

        The first level of every segment is evaluated in batches of at most
        _CHUNK points and tested as adaptive_quad tests it; segments that
        fail rerun adaptive_quad itself, in order. Any MinfaceError of the
        batched evaluation reruns adaptive_quad on every segment in order,
        so the error raised is the one the scalar march raises.
        """
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        per = _CHUNK // len(_XS)
        coarse, fine = [], []
        try:
            for s in range(0, len(a), per):
                h = half[s:s + per]
                # node-major: row j holds Gauss point j of every segment
                ts = mid[s:s + per] + h * _XS[:, None]
                vals = np.asarray(self.fn(ts.ravel()), dtype=float)
                vals = vals.reshape(ts.shape + (-1,))
                coarse.append(h[:, None] * _weighted(vals[:len(_X10)], _W10))
                fine.append(h[:, None] * _weighted(vals[len(_X10):], _W20))
        except MinfaceError:
            return np.array([adaptive_quad(self.fn, x, y, self.abs_tol)
                             for x, y in zip(a, b)]).reshape(len(a), -1)
        coarse, fine = np.concatenate(coarse), np.concatenate(fine)
        width = hi - lo
        ok, _ = _accepted(coarse, fine, width, width, self.abs_tol)
        out = np.where(b < a, -1.0, 1.0)[:, None] * fine
        for k in np.flatnonzero(~ok):
            out[k] = adaptive_quad(self.fn, a[k], b[k], self.abs_tol)
        return out

    def _build(self):
        probe = np.asarray(self.fn(self.t0), dtype=float)
        nodes = self.nodes
        i0 = int(np.argmin(np.abs(nodes - self.t0)))
        # March outward from the base so each segment is integrated once:
        # up the ladder, then down it.
        up, down = np.arange(i0, len(nodes) - 1), np.arange(i0 - 1, -1, -1)
        segs = self._segments(np.concatenate([nodes[up], nodes[down + 1]]),
                              np.concatenate([nodes[up + 1], nodes[down]]))
        base = np.zeros((1, probe.size))
        # add.accumulate adds in sequence, as the march did
        cum_up = np.add.accumulate(np.concatenate([base, segs[:len(up)]]))
        cum_down = np.add.accumulate(np.concatenate([base, segs[len(up):]]))
        self._cum = np.concatenate([cum_down[:0:-1], cum_up]).reshape(
            (len(nodes),) + probe.shape)

    def _nearest(self, t):
        """Index of the ladder node nearest t (the lower one on a tie), for
        a float or elementwise for an array."""
        nodes = self.nodes
        i = np.clip(np.searchsorted(nodes, t) - 1, 0, len(nodes) - 2)
        return np.where(np.abs(t - nodes[i + 1]) < np.abs(t - nodes[i]),
                        i + 1, i)

    def __call__(self, t: float):
        if self._cum is None:
            self._build()
        t = float(t)
        i = int(self._nearest(t))
        # Integrate only the short tail from the nearest node.
        tail = adaptive_quad(self.fn, self.nodes[i], t, self.abs_tol)
        return self._cum[i] + tail

    def at(self, ts, values) -> np.ndarray:
        """self(t) at every element of ts, stacked along ts's shape.

        values holds fn at every t, stacked the same way: the caller has
        already evaluated them. A t on a ladder node reads its cumulative
        row plus values * 0.0, the zero-length tail self(t) adds, and
        evaluates nothing; any other t is self(t).
        """
        if self._cum is None:
            self._build()
        ts = np.asarray(ts, dtype=float)
        i = self._nearest(ts)
        out = self._cum[i] + np.asarray(values, dtype=float) * 0.0
        for k in zip(*np.nonzero(ts != self.nodes[i])):
            out[k] = self(ts[k])
        return out
