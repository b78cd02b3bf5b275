"""Vector helpers for Lorentz-Minkowski 3-space L^3.

Points are numpy arrays (x0, x1, x2) with the scalar product
<a, b> = -a0*b0 + a1*b1 + a2*b2 (signature -, +, +). ``mdot`` and ``enorm``
also take stacks of vectors (a trailing axis of size 3) and broadcast;
``det3`` takes three stacks of one shape.
"""

from __future__ import annotations

import numpy as np

METRIC = np.array([-1.0, 1.0, 1.0])


def vec3(x0, x1, x2) -> np.ndarray:
    return np.array([float(x0), float(x1), float(x2)])


def mdot(a, b):
    """Minkowski scalar product; a float for two 3-vectors, else an array."""
    if getattr(a, "ndim", 1) == 1 == getattr(b, "ndim", 1):
        return float(-a[0] * b[0] + a[1] * b[1] + a[2] * b[2])
    return -a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def mcross(a, b) -> np.ndarray:
    """Lorentzian cross product: <mcross(a,b), c> = det(a, b, c) for all c."""
    c = np.cross(a, b)
    c[0] = -c[0]
    return c


def enorm(a):
    """Euclidean length; a float for a 3-vector, else an array."""
    if getattr(a, "ndim", 1) == 1:
        return float(np.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2]))
    return np.sqrt(a[..., 0] * a[..., 0] + a[..., 1] * a[..., 1]
                   + a[..., 2] * a[..., 2])


def det3(a, b, c):
    """Determinant of the matrix with columns a, b, c; a float for three
    3-vectors, else an array with one determinant per stacked triple."""
    det = np.linalg.det(np.stack([a, b, c], axis=-1))
    return float(det) if det.ndim == 0 else det
