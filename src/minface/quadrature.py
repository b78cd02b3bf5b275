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
nearest cached node.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

# An interval is also accepted when its error estimate is at most this share
# of its own integral estimate (needed where the integrand is large).
REL_TOL = 1e-12

_X10, _W10 = np.polynomial.legendre.leggauss(10)
_X20, _W20 = np.polynomial.legendre.leggauss(20)


def _rule(fn, a: float, b: float, xs, ws):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    acc = None
    for x, w in zip(xs, ws):
        val = np.asarray(fn(mid + half * x), dtype=float)
        acc = w * val if acc is None else acc + w * val
    return half * acc


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
        err = float(np.max(np.abs(fine - coarse)))
        budget = abs_tol * (hi - lo) / total_len
        if (err <= max(budget, 1e-300) or (hi - lo) < 1e-14 * total_len
                or err <= REL_TOL * float(np.max(np.abs(fine)))):
            acc = fine if acc is None else acc + fine
        elif used >= max_intervals:
            raise QuadratureError((float(lo), float(hi)), fine.tolist(), err)
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid))
            stack.append((mid, hi))
    return sign * acc


class PrefixIntegral:
    """Cached cumulative integral t -> int_{t0}^{t} fn, fn vector-valued."""

    def __init__(self, fn, t0: float, lo: float, hi: float, n_cache: int = 256,
                 abs_tol: float = 1e-12):
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

    def _build(self):
        probe = np.asarray(self.fn(self.t0), dtype=float)
        cum = np.zeros((len(self.nodes),) + probe.shape)
        i0 = int(np.argmin(np.abs(self.nodes - self.t0)))
        # March outward from the base so each segment is integrated once.
        for i in range(i0 + 1, len(self.nodes)):
            cum[i] = cum[i - 1] + adaptive_quad(
                self.fn, self.nodes[i - 1], self.nodes[i], self.abs_tol)
        for i in range(i0 - 1, -1, -1):
            cum[i] = cum[i + 1] + adaptive_quad(
                self.fn, self.nodes[i + 1], self.nodes[i], self.abs_tol)
        self._cum = cum

    def __call__(self, t: float):
        if self._cum is None:
            self._build()
        t = float(t)
        i = int(np.clip(np.searchsorted(self.nodes, t) - 1, 0,
                        len(self.nodes) - 2))
        # Integrate only the short tail from the nearest node at or below t.
        if abs(t - self.nodes[i + 1]) < abs(t - self.nodes[i]):
            i = i + 1
        tail = adaptive_quad(self.fn, self.nodes[i], t, self.abs_tol)
        return self._cum[i] + tail
