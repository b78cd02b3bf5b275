"""The per-point functions are one-point calls of the record formulas.

Every public per-point function of the curvature layer, ``jets_at``, the
data recovery, ``signed_area_density`` and ``verify_main_theorem`` run the
two-variable formulas on one-point ``AxisSamples`` records (or, for the main
theorem, on all points at once). They must equal the scalar bodies they
replaced (``curvature_reference`` and ``singular_reference``): values bit
for bit, errors by type and message.
"""

import dataclasses
import sys
from collections import Counter

import numpy as np
import pytest

from minface import curvature, expr, gallery, singular, surface, verify
from minface.curvature import (AxisSamples, axis_curve, curve_orientation,
                               energy_gauge, flat_classify,
                               gaussian_curvature,
                               gaussian_curvature_extrinsic,
                               gaussian_curvature_intrinsic_fd,
                               milnor_sign_check, orientation,
                               sign_prediction, winding_signs)
from minface.errors import (DataConversionDegenerate, DegenerateAtPoint,
                            FlatPoint)
from minface.singular import (_main_theorem, all_reports, signed_area_density,
                              trace_singular_set, verify_main_theorem)
from minface.surface import (RealWeierstrassData, Rect, as_pair,
                             data_from_curves, get_data, jets_at)
from minface.verify import check_data_roundtrip, check_main_theorem

import curvature_reference as ref
from singular_reference import (reference_check_main_theorem,
                                reference_main_theorem,
                                reference_signed_area_density, same_bits)
from test_verify_arrays import SURFACES, TRACED, _patch_everywhere, _points


def _outcome(fn, *args):
    """fn(*args), or the type and message of the error it raises."""
    try:
        return fn(*args)
    except Exception as err:  # noqa: BLE001 - the error is the outcome
        return type(err), str(err)


def _same(got, want) -> bool:
    """Whether two outcomes agree: floats by their bits, arrays by their
    bytes, dataclasses field by field, everything else by type and ==."""
    if isinstance(want, tuple) and want and isinstance(want[0], type):
        return got == want
    if dataclasses.is_dataclass(want):
        return type(got) is type(want) and all(
            _same(getattr(got, f.name), getattr(want, f.name))
            for f in dataclasses.fields(want))
    if isinstance(want, np.ndarray):
        return (isinstance(got, np.ndarray) and got.shape == want.shape
                and got.tobytes() == want.tobytes())
    if isinstance(want, float):
        return isinstance(got, float) and same_bits(got, want)
    return type(got) is type(want) and got == want


def _pairs(surf):
    """(public, reference) per-point functions of (u, v)."""
    pair = as_pair(surf)
    rec, want_rec = data_from_curves(pair), ref.reference_data_from_curves(
        pair)
    out = [
        (lambda u, v, m=m: gaussian_curvature(surf, u, v, m),
         lambda u, v, m=m: ref.reference_gaussian_curvature(surf, u, v, m))
        for m in ("closed", "extrinsic", "intrinsic")]
    out += [
        (lambda u, v: gaussian_curvature_intrinsic_fd(surf, u, v, 2e-3),
         lambda u, v: ref.reference_intrinsic(surf, u, v, 2e-3)),
        (lambda u, v: jets_at(surf, u, v, with_position=False),
         lambda u, v: ref.reference_jets_at(surf, u, v, with_position=False)),
        (lambda u, v: gaussian_curvature_extrinsic(
            jets_at(surf, u, v, with_position=False)),
         lambda u, v: ref.reference_extrinsic(
            ref.reference_jets_at(surf, u, v, with_position=False))),
        (lambda u, v: flat_classify(surf, u, v),
         lambda u, v: ref.reference_flat_classify(surf, u, v)),
        (lambda u, v: flat_classify(surf, u, v, 1e-3),
         lambda u, v: ref.reference_flat_classify(surf, u, v, 1e-3)),
        (lambda u, v: curve_orientation(surf, "u", u),
         lambda u, v: ref.reference_orientation(axis_curve(surf, "u"), u)),
        (lambda u, v: orientation(axis_curve(surf, "v"), v, 1e-6),
         lambda u, v: ref.reference_orientation(axis_curve(surf, "v"), v,
                                                1e-6)),
        (lambda u, v: sign_prediction(surf, u, v),
         lambda u, v: ref.reference_sign_prediction(surf, u, v)),
        (lambda u, v: winding_signs(surf, u, v),
         lambda u, v: ref.reference_winding_signs(surf, u, v)),
        (lambda u, v: milnor_sign_check(surf, u, v),
         lambda u, v: ref.reference_milnor_sign_check(surf, u, v)),
        (lambda u, v: energy_gauge(surf, u, v),
         lambda u, v: ref.reference_energy_gauge(surf, u, v)),
        (lambda u, v: (rec.g1(u), rec.w1(u), rec.g2(v), rec.w2(v)),
         lambda u, v: tuple(float(x) for x in (
             want_rec.g1(u), want_rec.w1(u), want_rec.g2(v),
             want_rec.w2(v)))),
    ]
    if get_data(surf) is not None:
        out.append((lambda u, v: signed_area_density(surf, u, v),
                    lambda u, v: reference_signed_area_density(surf, u, v)))
    return out


@pytest.mark.parametrize("name", ["enneper", "enneper-conj",
                                  "ce-quasiumbilic", "kchange", "poly-17",
                                  "acc-5"])
def test_per_point_functions_equal_scalar_references(name):
    surf = SURFACES[name]
    pairs = _pairs(surf)
    raised = Counter()
    points = _points(name)
    for u, v in points[::4] + points[-3:]:
        for k, (got, want) in enumerate(pairs):
            g, w = _outcome(got, u, v), _outcome(want, u, v)
            assert _same(g, w), (k, u, v, g, w)
            if isinstance(w, tuple) and isinstance(w[0], type):
                raised[w[0].__name__] += 1
    # the extra points reach the error paths, not only the values
    if name in ("enneper", "enneper-conj", "ce-quasiumbilic"):
        assert raised["SingularPoint"] > 0
    if name in ("kchange", "ce-quasiumbilic"):
        assert raised["FlatPoint"] > 0 and raised["DegenerateAtPoint"] > 0


def test_float_records_equal_array_records():
    for name in ("enneper", "kchange", "poly-17"):
        surf = SURFACES[name]
        ts = np.array(_points(name)[:40]).ravel()
        for axis in ("u", "v"):
            many = AxisSamples(surf, axis, ts)
            for k, t in enumerate(ts.tolist()):
                one = AxisSamples(surf, axis, t)
                assert one.ts.shape == () and one.vel.shape == (3,)
                for slot in ("vel", "acc", "jerk"):
                    assert (getattr(one, slot).tobytes()
                            == getattr(many, slot)[k].tobytes())
                if many.g is not None:
                    for jet in ("g", "w"):
                        assert same_bits(
                            getattr(one, jet).as_tuple(),
                            tuple(x[k] for x in getattr(many, jet).as_tuple()))


# --- the main theorem ------------------------------------------------------------


def _same_reports(got, want) -> bool:
    """Equal main-theorem outcomes, with every sampled K bit for bit."""
    if not isinstance(want, singular.MainTheoremReport):
        return got == want
    return got == want and all(
        same_bits(a[2], b[2]) for a, b in zip(got.samples, want.samples))


@pytest.mark.parametrize("name", sorted(TRACED))
def test_main_theorem_reports_equal_reference_loop(name):
    """At every nondegenerate point of the grid-64 trace, one point at a
    time and all points in one kernel call."""
    surf = TRACED[name]
    curves = trace_singular_set(surf, 64)
    reports = [r for r in all_reports(curves) if r.is_nondegenerate]
    want = [reference_main_theorem(surf, r.u, r.v) for r in reports]
    sd, cls = (singular._rows([getattr(c, f) for c in curves], slice(None))
               for f in ("data", "classes"))
    rows = np.flatnonzero(cls.is_nondegenerate)
    got = _main_theorem(surf, singular._rows([sd], rows),
                        singular._rows([cls], rows))
    for report, outcome, w in zip(reports, got, want, strict=True):
        got = singular.MainTheoremReport(report, *outcome)
        assert _same_reports(got, w), (got, w)
    for r, w in list(zip(reports, want))[::4]:
        assert _same_reports(verify_main_theorem(surf, r.u, r.v), w)
    assert check_main_theorem(surf) == reference_check_main_theorem(surf)


@pytest.mark.parametrize("radii", [(1e-3, 1e-2, 1e-4), (1e-3, 1e-2, 1e-3),
                                   (0.5, 0.2)])
def test_main_theorem_rules_on_other_radii(radii):
    # enneper: swallowtails at (1, -1) and (-1, 1), a cuspidal edge at
    # (2, -0.5); enneper-conj: a cross cap at (1, -1)
    for name, (u, v) in (("enneper", (1.0, -1.0)), ("enneper", (-1.0, 1.0)),
                         ("enneper", (2.0, -0.5)),
                         ("enneper-conj", (1.0, -1.0))):
        surf = SURFACES[name]
        got = _outcome(verify_main_theorem, surf, u, v, radii)
        assert _same_reports(
            got, _outcome(reference_main_theorem, surf, u, v, radii))
    # two samples at one radius never count as growth
    assert not verify_main_theorem(SURFACES["enneper"], 1.0, -1.0,
                                   (1e-3, 1e-2, 1e-3)).passed


def test_main_theorem_errors_equal_reference():
    # singular set u = 0, along which grad h = (2u, 0) vanishes
    surf = RealWeierstrassData.from_strings("1+u^2", "1", "1", "1",
                                            Rect(-1, 1, -1, 1))
    u, v = 0.0, 0.3
    for point in ((u, v), (0.5, 0.0)):  # no transversal; not singular
        assert (_outcome(verify_main_theorem, surf, *point)
                == _outcome(reference_main_theorem, surf, *point))
    # on arrays, the classifier and _main_theorem name the first such point
    sd = singular._singular_arrays(get_data(surf), np.array([0.5, u, 0.0]),
                                   np.array([0.0, v, 0.0]))
    assert _outcome(singular._classify_arrays, sd, singular.DEFAULT_TOL) == (
        _outcome(reference_main_theorem, surf, 0.5, 0.0))
    rows = singular._rows([sd], slice(1, 3))
    assert _outcome(_main_theorem, surf, rows, singular._classify_arrays(
        rows, singular.DEFAULT_TOL)) == (
        _outcome(reference_main_theorem, surf, u, v))


# --- the data round trip ---------------------------------------------------------


@pytest.mark.parametrize("name", ["enneper", "enneper-conj",
                                  "ce-quasiumbilic", "poly-3", "poly-41",
                                  "acc-8"])
def test_data_roundtrip_equals_reference_loop(name):
    surf = SURFACES[name]
    for n, seed in ((100, 0), (37, 5), (1, 2), (0, 1)):
        got = check_data_roundtrip(surf, n=n, seed=seed)
        assert got == ref.reference_data_roundtrip(surf, n=n, seed=seed)
        assert same_bits(got.max_error, float(
            ref.reference_data_roundtrip(surf, n=n, seed=seed).max_error))


@pytest.mark.parametrize("w1, w2, axis", [("1e-13", "1", "u"),
                                          ("1", "1e-13", "v"),
                                          ("1e-13", "1e-13", "u")])
def test_data_roundtrip_names_the_first_degenerate_point(w1, w2, axis):
    surf = RealWeierstrassData.from_strings("u", "2+v", w1, w2,
                                            Rect(-1, 1, -1, 1))
    with pytest.raises(DataConversionDegenerate) as exc:
        check_data_roundtrip(surf, seed=3)
    want = _outcome(ref.reference_data_roundtrip, surf, 100, 1e-10, 3)
    assert (type(exc.value), str(exc.value)) == want
    assert exc.value.axis == axis


# --- no per-point work ---------------------------------------------------------


@pytest.mark.parametrize("name", ["enneper", "ce-quasiumbilic", "poly-29"])
def test_main_theorem_and_roundtrip_checks_make_no_per_point_calls(
        name, monkeypatch):
    """Past their trace, the two checks evaluate no single point."""
    surf = TRACED.get(name) or SURFACES[name]
    curves = trace_singular_set(surf, 64)
    monkeypatch.setattr(verify, "trace_singular_set",
                        lambda surface, grid_n: curves)
    calls = Counter()
    for fn in (curvature.gaussian_curvature, surface.jets_at,
               singular.singular_data, singular.verify_main_theorem,
               expr.eval_jet, expr.eval_value):
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "") or "").startswith("minface"):
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        monkeypatch.setattr(mod, attr, counted)
    assert check_main_theorem(surf).count > 0
    assert check_data_roundtrip(surf).count == 100
    assert calls == Counter()
    # the counter sees per-point calls
    curvature.gaussian_curvature(surf, 0.1, 0.2)
    assert calls["gaussian_curvature"] == 1 and calls["eval_jet"] > 0


# g1' and g2' vanish at -1e-5 and 1e-5 (to within 5e-9): there the
# unit-acceleration gauge does not exist.
_GAUGE_GAPS = RealWeierstrassData.from_strings(
    "1e7*(u^3/3 - 1e-10*u)", "1e7*(v^3/3 - 1e-10*v)", "1/2", "1/2",
    Rect(-1.0, 1.0, -1.0, 1.0))


@pytest.mark.parametrize("u, v, want", [
    (0.0, 0.1, "1e-05"),  # u + 1e-5 and u - 1e-5 fail: + first
    (2e-5, 0.1, "1e-05"),  # u - 1e-5 fails
    (-2e-5, 0.1, "-1e-05"),  # u + 1e-5 fails
    (0.1, 0.0, "1e-05"),
    (0.1, 2e-5, "1e-05"),
    (0.1, -2e-5, "-1e-05"),
    (2e-5, -2e-5, "1e-05"),  # u before v
    # at the parameter itself sign_prediction raises first
    (1e-5, 0.1, "(1e-05, 0.1) is a flat point; K has no sign there"),
])
def test_energy_gauge_names_the_first_failing_parameter(u, v, want):
    got = _outcome(energy_gauge, _GAUGE_GAPS, u, v)
    assert got == _outcome(ref.reference_energy_gauge, _GAUGE_GAPS, u, v)
    assert got[1].endswith(want)
    assert got[0] is (FlatPoint if "flat" in want else DegenerateAtPoint)
    if got[0] is DegenerateAtPoint:
        # the parameter prints as a float, not as np.float64(...)
        assert _outcome(energy_gauge, _GAUGE_GAPS, np.float64(u),
                        np.float64(v)) == got


def test_gauge_rate_masks_where_the_reference_raises():
    pair = as_pair(_GAUGE_GAPS)
    for axis, curve in (("u", pair.phi_prime), ("v", pair.psi_prime)):
        for t in (-1e-5, 0.0, 1e-5, 2e-5, 0.3):
            t_s, ok = AxisSamples(_GAUGE_GAPS, axis, t).gauge_rate()
            want = _outcome(ref.reference_gauge_rate, curve, t)
            if t == 0.3:
                assert ok and _same(float(t_s), want)
            else:
                assert not ok and want[0] is DegenerateAtPoint, (axis, t)


@pytest.mark.parametrize("name", ["enneper", "ce-quasiumbilic", "kchange"])
def test_jets_at_evaluates_each_expression_once(name, monkeypatch):
    surf = SURFACES[name]
    d = get_data(surf)
    want = ([d.g1, d.w1, d.g2, d.w2] if d is not None
            else [e for side in as_pair(surf).position_exprs for e in side])
    calls = Counter()
    original = expr.eval_jet

    def counted(e, x):
        calls[id(e)] += 1
        return original(e, x)

    _patch_everywhere(monkeypatch, original, counted)
    jets_at(surf, 0.3, -0.4, with_position=False)
    assert calls == Counter(id(e) for e in want)


def test_orphaned_pair_records_carry_no_data_jets():
    # a pair whose data has been collected: no g and w, the same curves
    doc = gallery.spec_dict("enneper")
    live = surface.surface_from_dict(doc)
    orphan = as_pair(surface.surface_from_dict(doc))
    assert orphan.data is None and get_data(orphan) is None
    for axis in ("u", "v"):
        for ts in (np.linspace(-2.0, 2.0, 9), 0.3):
            a, b = AxisSamples(live, axis, ts), AxisSamples(orphan, axis, ts)
            assert a.g is not None and b.g is None and b.w is None
            for field in ("vel", "acc", "jerk"):
                assert (getattr(a, field).tobytes()
                        == getattr(b, field).tobytes())
            if np.ndim(ts):
                assert (as_pair(live).axis_deltas(a).tobytes()
                        == orphan.axis_deltas(b).tobytes())
    got = jets_at(orphan, 0.3, -0.4)
    want = jets_at(live, 0.3, -0.4)
    assert got.mode == "curves" and want.mode == "weierstrass"
    for field in ("f", "f_u", "f_v", "f_uu", "f_vv"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
