"""Adaptive quadrature and prefix integrals against closed forms."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from minface import gallery, quadrature
from minface.errors import DomainError, MinfaceError, QuadratureError
from minface.expr import eval_array, eval_value, parse
from minface.quadrature import PrefixIntegral, adaptive_quad
from minface.surface import QUAD_TOL, as_pair, surface_from_dict

from oracles import quad as mp_quad
from quadrature_reference import ReferencePrefixIntegral


@pytest.mark.parametrize("n", [10, 20])
def test_gauss_legendre_tables_are_leggauss_bit_for_bit(n):
    xs, ws = {10: (quadrature._X10, quadrature._W10),
              20: (quadrature._X20, quadrature._W20)}[n]
    want_x, want_w = np.polynomial.legendre.leggauss(n)
    assert xs.tobytes() == want_x.tobytes()
    assert ws.tobytes() == want_w.tobytes()


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


def _both(fn, array):
    """One integrand: fn on a float, array on an array."""
    return lambda t: array(t) if isinstance(t, np.ndarray) else fn(t)


def _pointwise(fn):
    """fn on a float, and on an array fn one point at a time."""
    return _both(fn, lambda ts: np.array([fn(t) for t in ts]))


def test_prefix_integral_matches_direct():
    fn = lambda t: np.array([math.sin(3 * t), math.cosh(t), t ** 4])
    pre = PrefixIntegral(_pointwise(fn), 0.5, -2.0, 2.0, abs_tol=1e-12)
    for x in (-2.0, -0.3, 0.5, 0.51, 1.99):
        direct = adaptive_quad(fn, 0.5, x, abs_tol=1e-13)
        assert np.allclose(pre(x), direct, atol=5e-12)


def test_prefix_integral_is_additive():
    fn = lambda t: np.array([math.exp(t)])
    pre = PrefixIntegral(_pointwise(fn), 0.0, -1.0, 1.0, abs_tol=1e-12)
    want = math.exp(0.75) - 1.0
    assert pre(0.75)[0] == pytest.approx(want, abs=1e-11)


# --- the batched ladder against the scalar march ---------------------------


def _spec_surface(kind, seed):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import specgen
    finally:
        sys.path.pop(0)
    return surface_from_dict(specgen.make_spec(kind, seed, 0, 0).doc)


def _same(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _assert_queries_equal(pre, ref, lo, hi, rng, n):
    """The ladder and queries of pre equal ref's, bit for bit."""
    ts = np.concatenate([np.linspace(lo, hi, n), rng.uniform(lo, hi, 4),
                         ref.nodes[[0, 1, -1]], [pre.t0]])
    _same(np.array([pre(t) for t in ts]), np.array([ref(t) for t in ts]))
    _same(pre._cum, ref._cum)


@pytest.mark.parametrize("name", ["enneper", "enneper-conj",
                                  "ce-quasiumbilic"])
def test_pair_prefixes_equal_the_scalar_march(name, rng):
    pair = as_pair(gallery.get(name))
    dom = pair.domain
    for delta, prime, t0, lo, hi in (
            (pair.phi_delta, pair.phi_prime_value, pair.base[0], dom.u_min,
             dom.u_max),
            (pair.psi_delta, pair.psi_prime_value, pair.base[1], dom.v_min,
             dom.v_max)):
        ref = ReferencePrefixIntegral(prime, t0, lo, hi, abs_tol=QUAD_TOL)
        ts = np.linspace(lo, hi, 25)
        _same(np.array([delta(t) for t in ts]), np.array([ref(t) for t in ts]))
        _assert_queries_equal(pair._prefix("u" if delta.__name__
                                           == "phi_delta" else "v"),
                              ref, lo, hi, rng, 9)


@pytest.mark.parametrize("kind", ["poly", "cross", "regular"])
@pytest.mark.parametrize("seed", range(6))
def test_batched_ladder_equals_the_scalar_march_on_generated_data(kind, seed,
                                                                  rng):
    # 36 segments or 37: a full chunk of 34 and a short one
    pair = as_pair(_spec_surface(kind, seed))
    dom = pair.domain
    for axis, prime, t0, lo, hi in (
            ("u", pair.phi_prime_value, pair.base[0], dom.u_min, dom.u_max),
            ("v", pair.psi_prime_value, pair.base[1], dom.v_min, dom.v_max)):
        # the pair's own integrand, on a shorter ladder
        pre = PrefixIntegral(pair._prefix(axis).fn, t0, lo, hi, n_cache=36,
                             abs_tol=QUAD_TOL)
        ref = ReferencePrefixIntegral(prime, t0, lo, hi, n_cache=36,
                                      abs_tol=QUAD_TOL)
        _assert_queries_equal(pre, ref, lo, hi, rng, 7)


def test_float_valued_integrand_equals_the_scalar_march(rng):
    pre = PrefixIntegral(_both(math.exp, np.exp), 0.1, -1.0, 2.0, n_cache=50)
    ref = ReferencePrefixIntegral(math.exp, 0.1, -1.0, 2.0, n_cache=50)
    _assert_queries_equal(pre, ref, -1.0, 2.0, rng, 13)
    assert pre(0.7).shape == ()


def _peak(t):
    # narrow peaks at 0.3 and -0.6
    return np.array([1.0 / (1e-6 + (t - 0.3) ** 2), math.cos(t),
                     1.0 / (1e-6 + (t + 0.6) ** 2)])


def _peak_array(ts):
    return np.stack([1.0 / (1e-6 + (ts - 0.3) ** 2), np.cos(ts),
                     1.0 / (1e-6 + (ts + 0.6) ** 2)], axis=-1)


def _count_fallbacks(monkeypatch):
    """The (a, b) of every adaptive_quad call the prefix code makes."""
    calls = []

    def counted(fn, a, b, *args):
        calls.append((a, b))
        return adaptive_quad(fn, a, b, *args)

    monkeypatch.setattr(quadrature, "adaptive_quad", counted)
    return calls


def test_segments_failing_the_first_level_rerun_adaptive_quad(monkeypatch,
                                                              rng):
    calls = _count_fallbacks(monkeypatch)
    pre = PrefixIntegral(_both(_peak, _peak_array), 0.0, -1.0, 1.0)
    ref = ReferencePrefixIntegral(_peak, 0.0, -1.0, 1.0)
    pre._build()
    # only the segments near the peaks fall back, in march order: up the
    # ladder from the base, then down it
    assert 0 < len(calls) < 40
    ups = [a < b for a, b in calls]
    assert ups == sorted(ups, reverse=True) and any(ups) and not all(ups)
    assert [a for a, b in calls] == sorted(a for a, b in calls if a < b) + \
        sorted((a for a, b in calls if a > b), reverse=True)
    _assert_queries_equal(pre, ref, -1.0, 1.0, rng, 25)


def test_a_segment_within_its_own_budget_does_not_fall_back(monkeypatch,
                                                            rng):
    # the kink puts one segment's first-level error above abs_tol times its
    # width, but within abs_tol: the whole budget of a segment on its own
    fn = lambda t: np.array([1e-3 * abs(t - 0.1234) ** 1.5])
    calls = _count_fallbacks(monkeypatch)
    pre = PrefixIntegral(_pointwise(fn), 0.0, -1.0, 1.0)
    pre._build()
    assert calls == []
    _assert_queries_equal(pre, ReferencePrefixIntegral(fn, 0.0, -1.0, 1.0),
                          -1.0, 1.0, rng, 9)


def test_chunks_hold_at_most_1024_points():
    sizes = []

    def array(ts):
        sizes.append(len(ts))
        return np.stack([np.sin(ts), np.exp(ts)], axis=-1)

    fn = lambda t: np.array([math.sin(t), math.exp(t)])
    pre = PrefixIntegral(_both(fn, array), 0.0, -1.0, 2.0)
    pre._build()
    assert max(sizes) <= 1024
    assert sum(sizes) == 30 * (len(pre.nodes) - 1)
    ref = ReferencePrefixIntegral(fn, 0.0, -1.0, 2.0)
    ref(0.5)
    _same(pre._cum, ref._cum)


def test_array_query_equals_the_one_point_queries(rng):
    # every node, the base (a node whose row is zero), the ends, points
    # between nodes, and a 2-D shape, as a grid axis record has
    fn = lambda t: np.array([math.cos(3 * t), -math.exp(t), t - 0.25])
    pre = PrefixIntegral(_pointwise(fn), 0.25, -1.0, 2.0, n_cache=40)
    ts = np.concatenate([pre.nodes, [0.25, -1.0, 2.0], rng.uniform(-1, 2, 9),
                         np.nextafter(pre.nodes[[3, 7]], 9.0)])
    values = np.array([fn(t) for t in ts])
    for shape in ((len(ts),), (1, len(ts)), (len(ts), 1)):
        got = pre.at(ts.reshape(shape), values.reshape(shape + (3,)))
        assert got.shape == shape + (3,)
        _same(got.reshape(-1, 3), np.array([pre(t) for t in ts]))


def test_array_query_evaluates_only_off_node_tails():
    calls = []

    def fn(t):
        calls.append(t)
        return np.array([math.sin(t), 1.0])

    pre = PrefixIntegral(_pointwise(fn), 0.0, -1.0, 1.0, n_cache=16)
    pre._build()
    calls.clear()
    # the zero-length tail is the values handed in times 0.0
    got = pre.at(pre.nodes, np.array([[-1.0, 2.0]] * len(pre.nodes)))
    assert calls == []
    _same(got, pre._cum)
    got = pre.at(np.array([0.5]), np.array([[np.nan, 1.0]]))
    assert calls == [] and np.isnan(got).tolist() == [[True, False]]
    off = np.array([0.03, 0.5])
    _same(pre.at(off, np.array([fn(t) for t in off])),
          np.array([pre(t) for t in off]))


def _failing_pair():
    # the scalar path fails first on log (at u >= 0.75), the array path,
    # which evaluates sqrt on every point first, on sqrt (at u > 0.76)
    e_log, e_sqrt = parse("log(0.75 - u)"), parse("sqrt(0.76 - u)")

    def fn(t):
        return np.array([eval_value(e_sqrt, t), eval_value(e_log, t)])

    def array(ts):
        return np.stack([eval_array(e_sqrt, ts).value,
                         eval_array(e_log, ts).value], axis=-1)

    return fn, array


def _error(call):
    with pytest.raises(MinfaceError) as exc:
        call()
    err = exc.value
    return type(err), str(err), getattr(err, "span", None)


def test_evaluation_error_is_the_scalar_marchs():
    fn, array = _failing_pair()
    # on its own, the array integrand names a different error
    points = np.linspace(0.74, 0.77, 31)
    assert _error(lambda: array(points)) != _error(
        lambda: [fn(t) for t in points])
    want = _error(lambda: ReferencePrefixIntegral(fn, 0.0, -1.0, 1.0)(0.0))
    assert want[0] is DomainError and "log" in want[1]
    pre = PrefixIntegral(_both(fn, array), 0.0, -1.0, 1.0)
    assert _error(lambda: pre(0.0)) == want


def test_quadrature_error_names_the_scalar_marchs_interval():
    def fn(t):
        return math.sin(1.0 / (t - 0.4321))

    with pytest.raises(QuadratureError) as want:
        ReferencePrefixIntegral(fn, 0.0, -1.0, 1.0, n_cache=16)(0.0)
    with pytest.raises(QuadratureError) as got:
        PrefixIntegral(_pointwise(fn), 0.0, -1.0, 1.0, n_cache=16)(0.0)
    assert got.value.interval == want.value.interval
    assert str(got.value) == str(want.value)


# --- the acceptance test at its thresholds ---------------------------------------


def test_relative_clause_scales_by_the_fine_estimate():
    # err = e just above REL_TOL * max|coarse| = REL_TOL, and within
    # REL_TOL * max|fine|; the budget and the width clause both fail
    e = np.nextafter(quadrature.REL_TOL * 1.0, 1.0)
    coarse, fine = np.array([1.0, 0.0]), np.array([1.0 + 2.0 ** -40, e])
    ok, err = quadrature._accepted(coarse, fine, 1.0, 1.0, 0.0)
    assert err == e and ok
    assert not quadrature._accepted(fine, coarse, 1.0, 1.0, 0.0)[0]


def test_budget_is_abs_tol_times_width_over_total_length():
    # the first draw where abs_tol*width/total_len rounds above
    # abs_tol*(width/total_len); err sits exactly on the larger one
    rng = np.random.default_rng(0)
    while True:
        abs_tol, width, total = 1e-12, *rng.uniform(0.1, 1.0, 2)
        budget = abs_tol * width / total
        if budget > abs_tol * (width / total):
            break
    for fine, want in ((budget, True), (np.nextafter(budget, 1.0), False)):
        ok, _ = quadrature._accepted(np.array([0.0]), np.array([fine]), width,
                                     total, abs_tol)
        assert ok == want


def test_intervals_below_the_width_floor_are_accepted():
    coarse, fine = np.array([0.0]), np.array([1.0])
    floor = 1e-14 * 3.0
    assert quadrature._accepted(coarse, fine, np.nextafter(floor, 0.0), 3.0,
                                1e-12)[0]
    assert not quadrature._accepted(coarse, fine, floor, 3.0, 1e-12)[0]
