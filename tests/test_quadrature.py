"""Adaptive quadrature and prefix integrals against closed forms."""

import math

import numpy as np
import pytest

from minface.errors import QuadratureError
from minface.quadrature import PrefixIntegral, adaptive_quad

from oracles import quad as mp_quad


def test_polynomial_exact():
    got = adaptive_quad(lambda t: 3 * t * t, 0.0, 2.0)
    assert got == pytest.approx(8.0, abs=1e-13)


def test_oscillatory_against_oracle():
    fn = lambda t: math.exp(-t) * math.sin(12 * t)
    want = float(mp_quad(lambda t: __import__("mpmath").exp(-t)
                         * __import__("mpmath").sin(12 * t), 0.0, 3.0))
    got = adaptive_quad(fn, 0.0, 3.0, abs_tol=1e-13)
    assert got == pytest.approx(want, abs=1e-12)


def test_reversed_limits():
    a = adaptive_quad(math.cos, 0.0, 1.5)
    b = adaptive_quad(math.cos, 1.5, 0.0)
    assert a == pytest.approx(math.sin(1.5), abs=1e-13)
    assert b == pytest.approx(-a, abs=1e-13)


def test_zero_width_interval():
    assert adaptive_quad(math.exp, 1.0, 1.0) == 0.0


def test_vector_valued_integrand():
    got = adaptive_quad(lambda t: np.array([1.0, 2 * t, 3 * t * t]), 0.0, 1.0)
    assert np.allclose(got, [1.0, 1.0, 1.0], atol=1e-13)


def test_nonconvergent_integrand_raises():
    # A genuinely rough integrand: noise with no smoothness to exploit.
    state = {"x": 1234567}

    def noise(t):
        state["x"] = (1103515245 * state["x"] + 12345) % (1 << 31)
        return state["x"] / float(1 << 31)

    with pytest.raises(QuadratureError):
        adaptive_quad(noise, 0.0, 1.0, abs_tol=1e-14)


def test_failure_names_a_failed_interval_in_plain_floats():
    state = {"x": 1234567}

    def noise(t):
        state["x"] = (1103515245 * state["x"] + 12345) % (1 << 31)
        return state["x"] / float(1 << 31)

    with pytest.raises(QuadratureError) as exc:
        adaptive_quad(noise, 0.0, 1.0, abs_tol=1e-14, max_intervals=64)
    lo, hi = exc.value.interval
    assert type(lo) is float and type(hi) is float and 0.0 <= lo < hi <= 1.0
    assert type(exc.value.estimate) is float
    assert exc.value.err > 1e-14 * (hi - lo)
    assert "np.float64" not in str(exc.value)


def test_relative_acceptance_for_large_integrands():
    # |integral| ~ 1e10: the absolute tolerance is below one ulp of it
    got = adaptive_quad(lambda t: math.exp(2 * t), 5.9, 12.0)
    want = 0.5 * (math.exp(24.0) - math.exp(11.8))
    assert got == pytest.approx(want, rel=1e-13)


def test_prefix_integral_matches_direct():
    fn = lambda t: np.array([math.sin(3 * t), math.cosh(t), t ** 4])
    pre = PrefixIntegral(fn, 0.5, -2.0, 2.0, abs_tol=1e-12)
    for x in (-2.0, -0.3, 0.5, 0.51, 1.99):
        direct = adaptive_quad(fn, 0.5, x, abs_tol=1e-13)
        assert np.allclose(pre(x), direct, atol=5e-12)


def test_prefix_integral_is_additive():
    fn = lambda t: np.array([math.exp(t)])
    pre = PrefixIntegral(fn, 0.0, -1.0, 1.0, abs_tol=1e-12)
    want = math.exp(0.75) - 1.0
    assert pre(0.75)[0] == pytest.approx(want, abs=1e-11)
