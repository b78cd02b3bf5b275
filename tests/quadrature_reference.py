"""The scalar prefix march, independent of the batched ladder.

``ReferencePrefixIntegral`` is ``minface.quadrature.PrefixIntegral`` as it
ran before the ladder was built from array evaluations of its Gauss nodes:
one ``adaptive_quad`` call per ladder segment, marching outward from the
base (up the ladder, then down it), and one ``adaptive_quad`` call per
queried parameter. It reads the integrand through the scalar function only.
The tests compare the library against it bit for bit, errors included.
"""

import numpy as np

from minface.quadrature import adaptive_quad


class ReferencePrefixIntegral:
    """Cached cumulative integral t -> int_{t0}^{t} fn, one float at a time."""

    def __init__(self, fn, t0, lo, hi, n_cache=256, abs_tol=1e-12):
        if not (lo <= t0 <= hi):
            lo, hi = min(lo, t0), max(hi, t0)
        self.fn = fn
        self.t0 = float(t0)
        self.abs_tol = abs_tol
        nodes = np.linspace(lo, hi, n_cache + 1)
        if not np.any(np.isclose(nodes, t0, rtol=0.0, atol=1e-15)):
            nodes = np.sort(np.append(nodes, t0))
        self.nodes = nodes
        self._cum = None

    def _build(self):
        probe = np.asarray(self.fn(self.t0), dtype=float)
        cum = np.zeros((len(self.nodes),) + probe.shape)
        i0 = int(np.argmin(np.abs(self.nodes - self.t0)))
        for i in range(i0 + 1, len(self.nodes)):
            cum[i] = cum[i - 1] + adaptive_quad(
                self.fn, self.nodes[i - 1], self.nodes[i], self.abs_tol)
        for i in range(i0 - 1, -1, -1):
            cum[i] = cum[i + 1] + adaptive_quad(
                self.fn, self.nodes[i + 1], self.nodes[i], self.abs_tol)
        self._cum = cum

    def __call__(self, t):
        if self._cum is None:
            self._build()
        t = float(t)
        i = int(np.clip(np.searchsorted(self.nodes, t) - 1, 0,
                        len(self.nodes) - 2))
        if abs(t - self.nodes[i + 1]) < abs(t - self.nodes[i]):
            i = i + 1
        tail = adaptive_quad(self.fn, self.nodes[i], t, self.abs_tol)
        return self._cum[i] + tail
