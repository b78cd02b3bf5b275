"""The vectorized battery checks against per-point reference loops.

Each reference below is the per-point loop the check ran before it was
vectorized, written with the scalar per-point bodies of
``curvature_reference`` (the public per-point functions now run the checks'
own formulas). The vectorized check must return an equal CheckResult: the
same points, skips, counts and worst errors, bit for bit.
"""

import json
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from minface import cli, expr, gallery, singular, surface, verify
from minface.curvature import (AxisSamples, axis_curve, closed_k_samples,
                               extrinsic_k_samples, intrinsic_k_samples,
                               sign_prediction_samples)
from minface.errors import (DegenerateAtPoint, FlatPoint, SingularNeighborhood,
                            SingularPoint)
from minface.expr import eval_value
from minface.lorentz import enorm, mdot
from minface.mesh import sample_grid
from minface.singular import trace_singular_set
from minface.surface import RealWeierstrassData, Rect, as_pair, get_data
from minface.verify import (CheckResult, check_curvature_routes,
                            check_duality, check_energy_gauge,
                            check_flat_accumulation, check_identities,
                            check_kappa_zero_locus, check_main_theorem,
                            check_milnor, check_minimality,
                            check_null_generators, check_sign_theorem,
                            make_accumulation_data, make_random_poly_data,
                            run_battery, sample_regular_points)

import curvature_reference as ref
import singular_reference
from curvature_reference import (reference_angle_rate_sign,
                                 reference_gaussian_curvature,
                                 reference_sign_prediction)
from singular_reference import (reference_check_main_theorem,
                                reference_duality,
                                reference_flat_accumulation,
                                reference_identities,
                                reference_kappa_zero_locus)

SURFACES = {name: gallery.get(name) for name in gallery.names()}
SURFACES.update({f"poly-{s}": make_random_poly_data(np.random.default_rng(s))
                 for s in (3, 17, 29, 41)})
SURFACES.update({f"acc-{s}": make_accumulation_data(np.random.default_rng(s))
                 for s in (5, 8)})


# --- per-point references ------------------------------------------------------


def _acc_quartic_root(surf, axis, t):
    pair = as_pair(surf)
    j = pair.phi_prime(t) if axis == "u" else pair.psi_prime(t)
    acc = np.array([j[0].d1, j[1].d1, j[2].d1])
    q4 = mdot(acc, acc)
    return q4 ** 0.25 if q4 > 0 else 0.0


def reference_sampler(surf, n, rng, nonflat=True, singular_margin=0.05,
                      flat_floor=0.1):
    pair = as_pair(surf)
    d = get_data(surf)
    dom = pair.domain
    points = []
    attempts = 0
    while len(points) < n and attempts < 80 * n:
        attempts += 1
        u = float(rng.uniform(dom.u_min, dom.u_max))
        v = float(rng.uniform(dom.v_min, dom.v_max))
        if d is not None:
            prod = eval_value(d.g1, u) * eval_value(d.g2, v)
            if abs(1.0 - prod) < singular_margin * (1.0 + abs(prod)):
                continue
        else:
            f_u = 0.5 * pair.phi_prime_value(u)
            f_v = 0.5 * pair.psi_prime_value(v)
            lam = mdot(f_u, f_v)
            if abs(lam) < singular_margin * max(enorm(f_u) * enorm(f_v),
                                                1e-30):
                continue
        if nonflat:
            if (_acc_quartic_root(surf, "u", u) < flat_floor
                    or _acc_quartic_root(surf, "v", v) < flat_floor):
                continue
        points.append((u, v))
    return points


def reference_null_generators(surf, n=100, tol=1e-10, seed=0):
    pair = as_pair(surf)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        u = float(rng.uniform(pair.domain.u_min, pair.domain.u_max))
        v = float(rng.uniform(pair.domain.v_min, pair.domain.v_max))
        for vel in (pair.phi_prime_value(u), pair.psi_prime_value(v)):
            res = abs(mdot(vel, vel)) / max(1.0, float(vel @ vel))
            worst = max(worst, res)
    return CheckResult("null_generators", worst < tol, worst, 2 * n)


def reference_curvature_routes(surf, n=1000, seed=0, h=1e-3, rtol_pair=1e-9,
                               rtol_fd=1e-3):
    rng = np.random.default_rng(seed)
    pts = reference_sampler(surf, n, rng, singular_margin=0.1)
    worst_pair = worst_fd = 0.0
    skipped = 0
    for (u, v) in pts:
        try:
            kc = reference_gaussian_curvature(surf, u, v, "closed")
            ke = reference_gaussian_curvature(surf, u, v, "extrinsic")
            ki = reference_gaussian_curvature(surf, u, v, "intrinsic", h)
        except (SingularPoint, SingularNeighborhood):
            skipped += 1
            continue
        scale = max(abs(kc), abs(ke), 1e-300)
        worst_pair = max(worst_pair, abs(kc - ke) / scale)
        worst_fd = max(worst_fd, abs(kc - ki) / max(abs(kc), 1e-300))
    passed = (worst_pair < rtol_pair and worst_fd < rtol_fd
              and len(pts) > skipped)
    return CheckResult(
        "curvature_routes", passed, max(worst_pair, worst_fd), len(pts),
        f"pairwise {worst_pair:.2e}, finite-diff {worst_fd:.2e}")


def reference_minimality(surf, n=1000, seed=0, tol=1e-10):
    rng = np.random.default_rng(seed)
    pts = reference_sampler(surf, n, rng, nonflat=False)
    worst = 0.0
    for (u, v) in pts:
        # mean_curvature_residual on the scalar surface jet
        sj = ref.reference_jets_at(surf, u, v, with_position=False)
        if sj.nu is None or sj.Lambda == 0.0:
            continue
        worst = max(worst, abs(2.0 * mdot(sj.f_uv, sj.nu) / sj.Lambda))
    return CheckResult("minimality", worst < tol and bool(pts), worst,
                       len(pts))


def reference_sign_theorem(surf, n=200, seed=0):
    rng = np.random.default_rng(seed)
    pts = reference_sampler(surf, n, rng)
    bad = 0
    for (u, v) in pts:
        try:
            k = reference_gaussian_curvature(surf, u, v)
            pred = reference_sign_prediction(surf, u, v)
        except (SingularPoint, FlatPoint):
            continue
        if k == 0.0 or (k > 0) != (pred > 0):
            bad += 1
    return CheckResult("sign_theorem", bad == 0 and bool(pts), float(bad),
                       len(pts), f"{bad} exceptions")


def reference_milnor(surf, n=100, seed=0):
    rng = np.random.default_rng(seed)
    pts = reference_sampler(surf, n, rng)
    bad = 0
    for (u, v) in pts:
        try:
            if not ref.reference_milnor_sign_check(surf, u, v):
                bad += 1
        except (SingularPoint, FlatPoint, DegenerateAtPoint):
            continue
    return CheckResult("milnor_winding", bad == 0 and bool(pts), float(bad),
                       len(pts), f"{bad} disagreements")


def reference_energy_gauge(surf, n=50, seed=0, tol=1e-8):
    rng = np.random.default_rng(seed)
    pts = reference_sampler(surf, n, rng)
    worst = 0.0
    for (u, v) in pts:
        try:
            k = reference_gaussian_curvature(surf, u, v)
            e = ref.reference_energy_gauge(surf, u, v)
            pred = reference_sign_prediction(surf, u, v)
        except (SingularPoint, FlatPoint, DegenerateAtPoint):
            continue
        worst = max(worst, abs(k * e * e - pred))
    return CheckResult("energy_gauge", worst < tol and bool(pts), worst,
                       len(pts))


CHECKS = [
    (check_null_generators, reference_null_generators),
    (check_curvature_routes, reference_curvature_routes),
    (check_minimality, reference_minimality),
    (check_sign_theorem, reference_sign_theorem),
    (check_milnor, reference_milnor),
    (check_energy_gauge, reference_energy_gauge),
]


# --- equality ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_vectorized_checks_equal_per_point_loops(name):
    surf = SURFACES[name]
    for check, reference in CHECKS:
        if check is check_energy_gauge and get_data(surf) is None:
            continue
        seed = len(name)
        got, want = check(surf, seed=seed), reference(surf, seed=seed)
        assert got == want, (check.__name__, got, want)
        assert type(got.max_error) is float


TRACE_CHECKS = [
    (check_identities, reference_identities),
    (check_duality, reference_duality),
    (check_kappa_zero_locus, reference_kappa_zero_locus),
    (check_main_theorem, reference_check_main_theorem),
    (check_flat_accumulation, reference_flat_accumulation),
]


def umbilic_ring():
    """A singular circle of radius about 0.003 around the umbilic point
    (0, 0): the flat lines u = 0 and v = 0 cross it, and the umbilic point
    lies within flat_accumulation's radius of it."""
    return RealWeierstrassData.from_strings("1+u^2", "0.99999+v^2", "1", "1",
                                            Rect(-0.1, 0.1, -0.1, 0.1))


# the Weierstrass gallery surfaces, and generated ones whose singular set
# meets the domain
TRACED = {name: SURFACES[name] for name in ("enneper", "enneper-conj",
                                            "ce-quasiumbilic", "acc-5",
                                            "acc-8", "poly-29", "poly-41")}
TRACED.update({f"poly-{s}": make_random_poly_data(np.random.default_rng(s))
               for s in (4, 7)})
TRACED["umbilic-ring"] = umbilic_ring()


@pytest.mark.parametrize("name", sorted(TRACED))
def test_trace_checks_equal_per_point_loops(name):
    surf = TRACED[name]
    for check, reference in TRACE_CHECKS:
        got, want = check(surf), reference(surf)
        assert got == want, (check.__name__, got, want)
        # flat_accumulation needs a flat line that meets the singular set
        if check is not check_flat_accumulation:
            assert got.count > 0 and type(got.max_error) is float


@pytest.mark.parametrize("name, encounters, violations", [
    ("ce-quasiumbilic", 1, 0), ("acc-5", 1, 0), ("acc-8", 1, 0),
    ("poly-7", 1, 0), ("umbilic-ring", 25, 1)])
def test_flat_accumulation_reaches_its_close_encounters(name, encounters,
                                                        violations):
    # flat lines along u (acc, poly-7), along v (ce-quasiumbilic) and both,
    # with the umbilic point next to the singular set (umbilic-ring)
    got = check_flat_accumulation(TRACED[name])
    assert (got.count, got.max_error) == (encounters, float(violations))


def test_kappa_zero_locus_skips_its_gray_band():
    # on enneper |g1'| = |g2'| = 1 at every traced point and |kappa_s| runs
    # from 0.04 to 16: the points below lo = 0.5 are mismatches only once
    # min(|g1'|, |g2'|) = 1 lies above hi
    surf = TRACED["enneper"]
    assert check_kappa_zero_locus(surf, lo=0.5, hi=1.0).passed
    got = check_kappa_zero_locus(surf, lo=0.5, hi=np.nextafter(1.0, 0.0))
    want = reference_kappa_zero_locus(surf, lo=0.5,
                                      hi=np.nextafter(1.0, 0.0))
    assert got == want and got.max_error > 0


def test_flat_accumulation_counts_an_encounter_at_exactly_the_radius():
    # acc-5's flat line u = u0 (it has none along v) comes within 1e-2 of
    # one traced point: set the radius to that distance, as the check
    # computes it
    surf = TRACED["acc-5"]
    d = get_data(surf)
    (u0,) = verify._critical_params(d, "u")
    n, sd, _ = verify._traced(surf, 256, lambda c: c.is_nondegenerate)
    qv = np.linspace(d.domain.v_min, d.domain.v_max, 101)
    r = np.hypot(sd.u[:n] - u0, sd.v[:n] - qv[:, None]).min()
    assert 0.0 < r <= 1e-2
    for radius, count in ((r, 1), (np.nextafter(r, 0.0), 0)):
        got = check_flat_accumulation(surf, radius=radius)
        assert got == reference_flat_accumulation(surf, radius=radius)
        assert got.count == count


def test_trace_checks_without_singular_points_equal_per_point_loops():
    surf = SURFACES["poly-3"]
    for check, reference in TRACE_CHECKS:
        got = check(surf)
        assert got == reference(surf) and got.count == 0


def _draw(sampler, surf, n, seed, **kw):
    return sampler(surf, n, np.random.default_rng(seed), **kw)


@pytest.mark.parametrize("name, kw", [
    ("enneper", {}),
    ("enneper", {"nonflat": False, "singular_margin": 0.3}),
    ("ce-quasiumbilic", {"flat_floor": 0.9}),
    ("kchange", {"flat_floor": 0.5}),
    ("kchange", {"nonflat": False}),
    ("poly-17", {"singular_margin": 0.5}),
])
def test_sampler_equals_per_point_sampler(name, kw):
    for n, seed in ((1, 0), (37, 1), (400, 2)):
        got = _draw(sample_regular_points, SURFACES[name], n, seed, **kw)
        assert got == _draw(reference_sampler, SURFACES[name], n, seed, **kw)
        assert len(got) == n


@pytest.mark.parametrize("flat_floor, kept", [(1e9, 0), (2.73, 29)])
def test_sampler_stops_at_the_attempt_cap_like_per_point_sampler(flat_floor,
                                                                 kept):
    # both generating curves of kchange have q = 2 |t|^(1/2) on [-2, 2], so
    # a floor near its maximum 2^(3/2) keeps about 0.5% of the candidates
    surf = SURFACES["kchange"]
    got = _draw(sample_regular_points, surf, 60, 4, flat_floor=flat_floor)
    assert got == _draw(reference_sampler, surf, 60, 4, flat_floor=flat_floor)
    assert len(got) == kept


class _CountingRng:
    """A generator that counts the candidates (u, v) drawn from it."""

    def __init__(self, seed):
        self.rng, self.pairs = np.random.default_rng(seed), 0

    def uniform(self, low, high, size):
        self.pairs += size[0]
        return self.rng.uniform(low, high, size)


@pytest.mark.parametrize("n", [1, 7, 60])
def test_sampler_draws_at_most_80_n_candidates(n):
    rng = _CountingRng(3)
    assert sample_regular_points(SURFACES["kchange"], n, rng,
                                 flat_floor=1e9) == []
    assert rng.pairs == 80 * n


# --- the array helpers, point by point ------------------------------------------

# random points plus points on the singular set (enneper: u v = -1;
# ce-quasiumbilic: u (1 + v^2) = 1), within a finite-difference step of it,
# and on flat lines (ce-quasiumbilic: v = 0; kchange: u = 0 or v = 0)
EXTRA_POINTS = {"enneper": [(1.0, -1.0), (-2.0, 0.5), (1.0005, -1.0)],
                "enneper-conj": [(1.0, -1.0), (-2.0, 0.5), (1.0005, -1.0)],
                "ce-quasiumbilic": [(0.5, 0.0), (0.5, 1.0), (0.5004, 1.0)],
                "kchange": [(0.0, 0.7), (0.3, 0.0), (0.0, 0.0)]}


def _points(name):
    pts = _draw(sample_regular_points, SURFACES[name], 300, 9,
                nonflat=False, singular_margin=0.0)
    return pts + EXTRA_POINTS.get(name, [])


def _assert_same(got, ok, pts, per_point, errors):
    """got/ok from a record formula equal per_point(u, v) or its error."""
    for (u, v), g, o in zip(pts, got.tolist(), ok.tolist()):
        try:
            want = per_point(u, v)
        except errors:
            assert not o, (u, v)
            continue
        assert o, (u, v)
        assert np.float64(g).tobytes() == np.float64(want).tobytes(), (u, v)


@pytest.mark.parametrize("name", ["enneper", "ce-quasiumbilic", "kchange",
                                  "poly-17", "acc-5"])
def test_array_helpers_equal_per_point_functions(name):
    surf, pts = SURFACES[name], _points(name)
    us, vs = np.array(pts).T
    su, sv = AxisSamples(surf, "u", us), AxisSamples(surf, "v", vs)
    sing = (SingularPoint, SingularNeighborhood)
    flat = (SingularPoint, FlatPoint, DegenerateAtPoint)
    _assert_same(*closed_k_samples(su, sv), pts,
                 lambda u, v: reference_gaussian_curvature(surf, u, v), sing)
    _assert_same(*extrinsic_k_samples(su, sv), pts,
                 lambda u, v: reference_gaussian_curvature(surf, u, v,
                                                           "extrinsic"),
                 sing)
    _assert_same(*intrinsic_k_samples(su, sv, 1e-3), pts,
                 lambda u, v: reference_gaussian_curvature(surf, u, v,
                                                           "intrinsic"),
                 sing)
    _assert_same(*sign_prediction_samples(su, sv), pts,
                 lambda u, v: reference_sign_prediction(surf, u, v), flat)
    for axis, s in (("u", su), ("v", sv)):
        at = (lambda u, v: u) if axis == "u" else (lambda u, v: v)
        _assert_same(*s.winding_sign(), pts,
                     lambda u, v: reference_angle_rate_sign(
                         axis_curve(surf, axis), at(u, v)), flat)
        _assert_same(*s.gauge_rate(), pts,
                     lambda u, v: ref.reference_gauge_rate(
                         axis_curve(surf, axis), at(u, v)),
                     flat)
        _assert_same(s.quartic_root, np.ones(len(pts), bool), pts,
                     lambda u, v: _acc_quartic_root(surf, axis, at(u, v)), ())


# --- regression guard ------------------------------------------------------------


def _count_scalar_calls(monkeypatch):
    """Count calls of the scalar evaluators at every binding minface uses."""
    counts = {"calls": 0}
    for original in (expr.eval_jet, expr.eval_value, surface.jets_at):
        def counted(*args, _fn=original, **kwargs):
            counts["calls"] += 1
            return _fn(*args, **kwargs)
        _patch_everywhere(monkeypatch, original, counted)
    return counts


@pytest.mark.parametrize("name", ["enneper", "kchange"])
def test_vectorized_checks_make_no_per_point_scalar_calls(name, monkeypatch):
    surf = SURFACES[name]
    counts = _count_scalar_calls(monkeypatch)
    per_n = []
    for n in (100, 1000):
        counts["calls"] = 0
        sample_regular_points(surf, n, np.random.default_rng(0))
        for check, _ in CHECKS:
            if check is check_energy_gauge and get_data(surf) is None:
                continue
            check(surf, n=n)
        per_n.append(counts["calls"])
    assert per_n[0] == per_n[1]
    # the counter sees per-point calls: the reference loops make them
    reference_sign_theorem(surf, n=10)
    assert counts["calls"] > per_n[1]


def test_flat_accumulation_with_many_flat_lines_equals_per_point_loop():
    # g2' vanishes identically, so every v-node of the scan is a flat line
    # (257 of them, and 257 umbilic points); the singular set is the two
    # lines u = +-0.007 next to the flat line u = 0
    surf = RealWeierstrassData.from_strings("u^2+0.499951", "2", "1", "1",
                                            Rect(-1, 1, -1, 1))
    tracemalloc.start()
    try:
        got = check_flat_accumulation(surf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == reference_flat_accumulation(surf)
    assert (got.count, got.max_error) == (353, 257.0)
    # about 26,000 scan points and 514 traced points: the distances are
    # computed a block at a time, not as one 100 MB matrix
    assert peak < 16e6


def _curve(points):
    """A SingularCurve through the (u, v, tag code) points, all of them
    nondegenerate; its other columns are zeros."""
    u, v, code = (np.array(x) for x in zip(*points))
    zeros = np.zeros(len(u))
    return singular.SingularCurve(
        singular.SingularData(u, v, *[zeros] * 13),
        singular.Classified(code, zeros > 0, zeros == 0, zeros, zeros, zeros,
                            zeros), 0.0)


# two traced points at 0.005 from the scan point (0, 0) of the flat line
# u = 0: the first of them decides; a third lies far away
@pytest.mark.parametrize("points, violations", [
    ([(-0.005, 0.0, 1), (0.005, 0.0, 2), (0.9, 0.9, 2)], 0),
    ([(-0.005, 0.0, 2), (0.005, 0.0, 1), (0.9, 0.9, 1)], 1)])
def test_flat_accumulation_takes_the_first_nearest_point(points, violations,
                                                         monkeypatch):
    surf = RealWeierstrassData.from_strings("1+u^2", "2+v", "1", "1",
                                            Rect(-1, 1, -1, 1))
    curves = [_curve(points)]
    for mod in (verify, singular_reference):
        monkeypatch.setattr(mod, "trace_singular_set", lambda s, g: curves)
    got = check_flat_accumulation(surf)
    assert got == reference_flat_accumulation(surf)
    assert (got.count, got.max_error) == (1, float(violations))


@pytest.mark.parametrize("name", ["enneper", "enneper-conj", "poly-29"])
def test_trace_checks_make_no_per_point_calls(name, monkeypatch):
    """Past their trace, the first four checks evaluate no single point."""
    surf = TRACED[name]
    curves = verify.trace_singular_set(surf, 128)
    monkeypatch.setattr(verify, "trace_singular_set",
                        lambda surface, grid_n: curves)
    calls = Counter()
    for fn in (singular.singular_data, singular.classify_singular,
               singular.signed_area_density, surface.jets_at, expr.eval_jet,
               expr.eval_value):
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)
        _patch_everywhere(monkeypatch, fn, counted)
    # flat_accumulation's _critical_params bisects on scalar jets
    for check, _ in TRACE_CHECKS[:4]:
        assert check(surf).count > 0
    assert calls == Counter()
    # the counter sees per-point calls
    point = curves[0].points[0]
    singular.directions_at(surf, point.u, point.v)
    assert calls["singular_data"] == 1


@pytest.mark.parametrize("name", ["enneper", "cross"])
def test_battery_and_singular_command_build_no_reports(name, monkeypatch,
                                                        tmp_path):
    surf = SURFACES.get(name) or _generated(name)
    built = Counter()
    init = singular.SingularPointReport.__init__

    def counted(self, *args, **kwargs):
        built["reports"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(singular.SingularPointReport, "__init__", counted)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_generated_doc(name)))
    assert cli.main(["singular", "--spec", str(spec), "--grid", "128",
                     "--out", str(tmp_path / "out.csv")]) == 0
    assert all(r.passed for r in run_battery(surf))
    assert built == Counter()
    # the counter sees reports
    trace_singular_set(surf, 64)[0].points
    assert built["reports"] > 0


@pytest.mark.parametrize("name", ["enneper", "enneper-conj", "poly-29",
                                  "umbilic-ring", "cross"])
def test_trace_checks_evaluate_nothing_past_their_traces(name, monkeypatch):
    """Past their traces, the five checks evaluate and classify no singular
    data, except check_duality's classification of the conjugate."""
    surf = TRACED.get(name) or _generated(name)
    calls = Counter()
    inside = []
    for fn in (singular._singular_arrays, singular._classify_arrays,
               singular.trace_singular_set):
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__, bool(inside)] += 1
            inside.append(_fn)
            try:
                return _fn(*args, **kwargs)
            finally:
                inside.pop()
        _patch_everywhere(monkeypatch, fn, counted)
    for check, _ in TRACE_CHECKS:
        calls.clear()
        check(surf)
        outside = {k: n for (k, nested), n in calls.items() if not nested}
        want = {"trace_singular_set": 1}
        if check is check_duality:
            want.update(_singular_arrays=1, _classify_arrays=1)
        assert outside == want, check.__name__
        assert calls["_classify_arrays", True] > 0


def _patch_everywhere(monkeypatch, fn, replacement):
    """Replace fn at every binding of it in the minface modules."""
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "") or "").startswith("minface"):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, replacement)


def _generated_doc(name):
    """The shipped gallery description of name, or the seed-0 spec of the
    benchmark generator kind name."""
    if name in gallery.names():
        return gallery.spec_dict(name)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import specgen
    finally:
        sys.path.pop(0)
    return specgen.make_spec(name, 0, 0, 0).doc


def _generated(kind):
    """The seed-0 spec of a benchmark generator kind, loaded."""
    return surface.surface_from_dict(_generated_doc(kind))


@pytest.mark.parametrize("name", ["enneper", "kchange", "cross", "regular"])
def test_each_expression_is_evaluated_once_per_parameter_array(name,
                                                               monkeypatch):
    surf = SURFACES.get(name) or _generated(name)
    calls = Counter()
    original = expr.eval_array

    def counted(e, ts):
        calls[id(e), np.asarray(ts, dtype=np.float64).tobytes()] += 1
        return original(e, ts)

    _patch_everywhere(monkeypatch, original, counted)
    runs = [lambda: sample_grid(surf, 16, 16),
            lambda: sample_regular_points(surf, 100,
                                          np.random.default_rng(1))]
    runs += [lambda check=check: check(surf, n=100) for check, _ in CHECKS[1:]
             if check is not check_energy_gauge or get_data(surf) is not None]
    for run in runs:
        calls.clear()
        run()
        assert calls and max(calls.values()) == 1


@pytest.mark.parametrize("name, kw", [("kchange", {"flat_floor": 2.73}),
                                      ("poly-29", {"flat_floor": 1.1}),
                                      ("enneper", {"nonflat": False})])
def test_sampled_records_equal_records_evaluated_at_the_points(name, kw):
    # the first two draw many blocks of candidates, the last one
    rng = _CountingRng(4)
    su, sv = verify._regular_samples(SURFACES[name], 60, rng, **kw)
    assert su.ts.size > 0 and (rng.pairs > 120) == (name != "enneper")
    for s in (su, sv):
        fresh = AxisSamples(s.surface, s.axis, s.ts)
        for field in ("vel", "acc", "jerk"):
            assert (getattr(s, field).tobytes()
                    == getattr(fresh, field).tobytes())
        for field in ("g", "w"):
            got, want = getattr(s, field), getattr(fresh, field)
            assert (got is None) == (want is None)
            if got is not None:
                assert ([a.tobytes() for a in got.as_tuple()]
                        == [a.tobytes() for a in want.as_tuple()])
