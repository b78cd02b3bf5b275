"""The Lorentz-Minkowski inner product, cross product, and determinants."""

import numpy as np
import pytest

from minface.lorentz import det3, enorm, mcross, mdot, vec3


def test_metric_signature():
    e0, e1, e2 = vec3(1, 0, 0), vec3(0, 1, 0), vec3(0, 0, 1)
    assert mdot(e0, e0) == -1.0
    assert mdot(e1, e1) == 1.0
    assert mdot(e2, e2) == 1.0
    assert mdot(e0, e1) == mdot(e0, e2) == mdot(e1, e2) == 0.0


def test_euclidean_companions():
    a = vec3(3.0, 4.0, 12.0)
    assert enorm(a) == 13.0


def test_cross_product_defining_identity():
    """<a x b, c> equals det(a, b, c) for the metric cross product."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b, c = rng.normal(size=(3, 3))
        assert mdot(mcross(a, b), c) == pytest.approx(det3(a, b, c), rel=1e-12,
                                                      abs=1e-12)


def test_cross_product_is_metric_orthogonal():
    a = vec3(1.0, 2.0, -0.5)
    b = vec3(-0.3, 1.0, 2.0)
    w = mcross(a, b)
    assert mdot(w, a) == pytest.approx(0.0, abs=1e-14)
    assert mdot(w, b) == pytest.approx(0.0, abs=1e-14)


def test_det3_orientation():
    assert det3(vec3(1, 0, 0), vec3(0, 1, 0), vec3(0, 0, 1)) == 1.0
    assert det3(vec3(0, 1, 0), vec3(1, 0, 0), vec3(0, 0, 1)) == -1.0


def test_stacked_det3_equals_row_by_row_det3():
    rng = np.random.default_rng(8)
    a, b, c = rng.normal(size=(3, 500, 3)) * np.exp(rng.normal(size=(3, 500,
                                                                     1)))
    stacked = det3(a, b, c)
    assert stacked.shape == (500,)
    rows = [det3(*abc) for abc in zip(a, b, c)]
    assert all(type(x) is float for x in rows)
    assert stacked.tobytes() == np.array(rows).tobytes()
    grid = det3(*(x.reshape(20, 25, 3) for x in (a, b, c)))
    assert grid.tobytes() == stacked.tobytes()


def test_null_cross_null_for_weierstrass_frame():
    """f_u and f_v null with <f_u, f_v> = L: <f_u x f_v, f_u x f_v> = L^2."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        # Random null vectors: (cosh s, sinh s cos t, sinh s sin t) scaled
        s1, t1, s2, t2 = rng.normal(size=4)
        a = np.array([1.0, np.cos(t1), np.sin(t1)]) * np.exp(s1)
        b = np.array([1.0, np.cos(t2), np.sin(t2)]) * np.exp(s2)
        lam = mdot(a, b)
        w = mcross(a, b)
        assert mdot(w, w) == pytest.approx(lam * lam, rel=1e-10, abs=1e-12)
