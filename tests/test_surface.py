"""Surface construction: data model, evaluation, conversions, description files."""

import gc
import io
import json
import math
import weakref

import numpy as np
import pytest

from minface.errors import (
    DataConversionDegenerate,
    InvalidCurveData,
    InvalidWeierstrassData,
    ModeUnsupported,
    SingularPoint,
    SpecFileError,
)
from minface import gallery
from minface.curvature import AxisSamples, closed_k_samples
from minface.expr import eval_array
from minface.lorentz import mdot
from minface.mesh import export_fields_csv, export_obj, sample_grid
from minface.singular import (SingularClassification, all_reports,
                              classify_singular, trace_singular_set)
from minface.surface import (
    RealWeierstrassData,
    Rect,
    as_pair,
    conjugate_data,
    curves_from_data,
    data_from_curves,
    evaluate,
    jets_at,
    load_spec,
    mean_curvature_residual,
    pair_from_position_expressions,
    save_spec,
    surface_from_dict,
    surface_to_dict,
)
from minface.verify import make_random_poly_data

from oracles import position as oracle_position


def enneper_closed_form(u, v):
    """Antiderivative of the degree-one data surface, integrated by hand."""
    return np.array([
        0.25 * (-u - u ** 3 / 3 + v + v ** 3 / 3),
        0.25 * (u - u ** 3 / 3 + v - v ** 3 / 3),
        0.25 * (u * u + v * v),
    ])


def test_rect_validation():
    with pytest.raises(ValueError):
        Rect(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Rect(0.0, 1.0, 2.0, -2.0)
    r = Rect(-1.0, 1.0, 0.0, 2.0)
    assert r.contains(0.0, 1.0)
    assert not r.contains(1.5, 1.0)
    assert r.contains(1.05, 1.0, pad=0.1)


@pytest.mark.parametrize("bounds", [(0.0, math.inf, 0.0, 1.0),
                                    (-math.inf, 0.0, 0.0, 1.0),
                                    (0.0, 1.0, math.nan, 1.0)])
def test_rect_rejects_non_finite_bounds(bounds):
    with pytest.raises(ValueError):
        Rect(*bounds)


@pytest.mark.parametrize("bounds", [(-1e308, 1e308, 0.0, 1.0),
                                    (0.0, 1.0, -1e308, 1e308)])
def test_rect_rejects_a_width_that_overflows(bounds):
    with pytest.raises(ValueError):
        Rect(*bounds)


def test_large_integrand_matches_antiderivative():
    # phi' = (-1 - e^(2u), 1 - e^(2u), 2 e^u) reaches 2.6e10 at u = 12, where
    # an absolute tolerance alone cannot be met in floating point.
    d = RealWeierstrassData.from_strings("exp(u)", "v", "1", "1",
                                         Rect(-1.0, 12.0, -1.0, 1.0))

    def antiderivative(u):
        e = math.exp(u)
        return np.array([-u - 0.5 * e * e, u - 0.5 * e * e, 2.0 * e])

    pair = as_pair(d)
    for u in (-1.0, 3.7, 5.928, 11.3, 12.0):
        want = antiderivative(u) - antiderivative(0.0)
        assert np.allclose(pair.phi_delta(u), want, rtol=1e-13, atol=1e-13)


def test_degree_one_position_matches_closed_form(enneper, rng):
    for _ in range(50):
        u, v = rng.uniform(-3, 3, size=2)
        got = evaluate(enneper, u, v)
        assert np.max(np.abs(got - enneper_closed_form(u, v))) < 1e-10


def test_position_matches_independent_quadrature(enneper, rng):
    want = oracle_position("u", "-v", "1/2", "1/2", (0.0, 0.0),
                           (0.0, 0.0, 0.0), 1.7, -2.4)
    got = evaluate(enneper, 1.7, -2.4)
    assert np.max(np.abs(got - np.array([float(w) for w in want]))) < 1e-10


def test_surface_jet_spot_values(enneper):
    sj = jets_at(enneper, 0.0, 0.0)
    assert sj.Lambda == pytest.approx(0.125, abs=1e-15)
    assert np.allclose(sj.nu, [0.0, 0.0, -1.0])
    assert np.allclose(sj.n, [0.0, 0.0, -1.0])
    assert sj.Q == pytest.approx(-0.5, abs=1e-15)
    assert sj.R == pytest.approx(-0.5, abs=1e-15)
    assert np.allclose(sj.f_uv, 0.0)
    assert np.allclose(sj.f_u, [-0.25, 0.25, 0.0])
    assert np.allclose(sj.f_v, [0.25, 0.25, 0.0])


def test_generating_velocities_are_null(enneper, ce_quasi, rng):
    for surface in (enneper, ce_quasi):
        pair = as_pair(surface)
        dom = pair.domain
        for _ in range(25):
            u = rng.uniform(dom.u_min, dom.u_max)
            v = rng.uniform(dom.v_min, dom.v_max)
            pu = pair.phi_prime_value(u)
            pv = pair.psi_prime_value(v)
            assert abs(mdot(pu, pu)) < 1e-10 * max(1.0, float(pu @ pu))
            assert abs(mdot(pv, pv)) < 1e-10 * max(1.0, float(pv @ pv))


def test_minimality_residual_is_zero(enneper):
    assert mean_curvature_residual(enneper, 0.7, -1.2) == 0.0


def test_minimality_rejects_singular_point(enneper):
    with pytest.raises(SingularPoint):
        mean_curvature_residual(enneper, 1.0, -1.0)


def test_data_validation_rejects_vanishing_weight():
    with pytest.raises(InvalidWeierstrassData):
        RealWeierstrassData.from_strings("u", "v", "u", "1", Rect(-1, 1, -1, 1))


def test_data_validation_rejects_identically_singular():
    with pytest.raises(InvalidWeierstrassData):
        RealWeierstrassData.from_strings("2", "1/2", "1", "1",
                                         Rect(-1, 1, -1, 1))


def test_data_validation_rejects_base_outside_domain():
    with pytest.raises(InvalidWeierstrassData):
        RealWeierstrassData.from_strings("u", "-v", "1/2", "1/2",
                                         Rect(-1, 1, -1, 1), base=(2.0, 0.0))


def test_curve_mode_requires_null_velocities():
    with pytest.raises(InvalidCurveData):
        pair_from_position_expressions(
            ("u", "2*u", "0"), ("v", "v", "0"), Rect(-1, 1, -1, 1))


def test_curve_mode_rejects_vanishing_velocity():
    with pytest.raises(InvalidCurveData):
        pair_from_position_expressions(
            ("u^2/2", "u^2/2", "0"), ("v", "v", "0"), Rect(0, 2, -1, 1))


@pytest.mark.parametrize("phi, domain, message", [
    (("u", "2*u", "0"), Rect(-1, 1, -1, 1),
     "phi' is not null at parameter -1.0: <v,v> = 3.0"),
    # null at u = 0 only: the first failing grid point is the second
    (("u", "u", "u^2"), Rect(0, 1, -1, 1),
     "phi' is not null at parameter %r: <v,v> = "
     % np.linspace(0, 1, 64)[1].item()),
    # at u = 0 it vanishes (and is null); further on it is not null
    (("u^2/2", "u^2", "0"), Rect(0, 2, -1, 1),
     "phi' vanishes at parameter 0.0"),
])
def test_curve_mode_names_the_first_failing_point_as_a_float(phi, domain,
                                                             message):
    with pytest.raises(InvalidCurveData) as exc:
        pair_from_position_expressions(phi, ("v", "v", "0"), domain)
    assert str(exc.value).startswith(message)
    assert "np.float64" not in str(exc.value)


def test_curve_mode_checks_psi_after_phi():
    with pytest.raises(InvalidCurveData) as exc:
        pair_from_position_expressions(("u", "u", "0"), ("v", "0", "v/2"),
                                       Rect(-1, 1, -1, 1))
    assert str(exc.value) == "psi' is not null at parameter -1.0: " \
        "<v,v> = -0.75"


KCHANGE_CURVES = (("u+u^5/5", "2/3*u^3", "u-u^5/5"),
                  ("-v-v^5/5", "2/3*v^3", "v-v^5/5"))


@pytest.mark.parametrize("base, f0, message", [
    ((0.0, 0.0), (math.inf, 0.0, math.nan), "f0 must be a finite 3-vector"),
    ((0.0, 0.0), (0.0, 0.0), "f0 must be a finite 3-vector"),
    ((1.0, math.nan), None, "base parameters outside the domain"),
    ((50.0, 0.0), None, "base parameters outside the domain"),
])
def test_curve_mode_validates_base_and_f0(base, f0, message):
    with pytest.raises(InvalidCurveData) as exc:
        pair_from_position_expressions(*KCHANGE_CURVES, Rect(-2, 2, -2, 2),
                                       base, f0)
    assert str(exc.value) == message


def test_curve_mode_position_matches_expressions(kchange, rng):
    pair = as_pair(kchange)
    for _ in range(20):
        u = rng.uniform(-2, 2)
        v = rng.uniform(-2, 2)
        phi = np.array([u + u ** 5 / 5, 2 * u ** 3 / 3, u - u ** 5 / 5])
        psi = np.array([-v - v ** 5 / 5, 2 * v ** 3 / 3, v - v ** 5 / 5])
        got = evaluate(pair, u, v)
        assert np.max(np.abs(got - 0.5 * (phi + psi))) < 1e-12


def test_data_to_curves_to_data_round_trip(enneper, ce_quasi, rng):
    for surface in (enneper, ce_quasi):
        pair = as_pair(surface)
        rec = data_from_curves(pair)
        d = surface if isinstance(surface, RealWeierstrassData) else pair.data
        dom = pair.domain
        for _ in range(25):
            u = rng.uniform(dom.u_min, dom.u_max)
            v = rng.uniform(dom.v_min, dom.v_max)
            assert rec.g1(u) == pytest.approx(d.g1_jet(u).value, abs=1e-10)
            assert rec.g2(v) == pytest.approx(d.g2_jet(v).value, abs=1e-10)
            assert rec.w1(u) == pytest.approx(d.w1_jet(u).value, abs=1e-10)
            assert rec.w2(v) == pytest.approx(d.w2_jet(v).value, abs=1e-10)


def test_degenerate_conversion_names_parameter(kchange):
    rec = data_from_curves(as_pair(kchange))
    with pytest.raises(DataConversionDegenerate) as exc:
        rec.w1(1.0)
    assert exc.value.axis == "u"
    assert exc.value.param == 1.0


def test_rotation_angle_removes_conversion_degeneracy(kchange):
    pair = as_pair(kchange)
    theta = 0.3
    rec = data_from_curves(pair, theta=theta)
    c, s = math.cos(theta), math.sin(theta)
    for u in (-1.5, -1.0, 0.3, 1.0, 1.9):
        vel = pair.phi_prime_value(u)
        rot = np.array([vel[0], vel[1] * c - vel[2] * s,
                        vel[1] * s + vel[2] * c])
        g, w = rec.g1(u), rec.w1(u)
        rebuilt = np.array([-w * (1 + g * g), w * (1 - g * g), 2 * g * w])
        assert np.max(np.abs(rebuilt - rot)) < 1e-10 * max(1.0, float(rot @ rot))


def test_conjugate_negates_second_weight(enneper):
    conj = conjugate_data(enneper)
    for v in (-2.0, 0.4, 1.7):
        assert conj.w2_jet(v).value == -enneper.w2_jet(v).value
        assert conj.g2_jet(v).value == enneper.g2_jet(v).value


def test_conjugate_sum_is_independent_of_v(enneper):
    """f + f* = (integral of phi') + 2 f0 carries no v-dependence."""
    conj = conjugate_data(enneper)
    u = 0.8
    sums = [evaluate(enneper, u, v) + evaluate(conj, u, v)
            for v in (-2.0, 0.0, 1.3)]
    assert np.max(np.abs(sums[0] - sums[1])) < 1e-10
    assert np.max(np.abs(sums[0] - sums[2])) < 1e-10


_INVOLUTION = {name: gallery.get(name)
               for name in ("enneper", "enneper-conj", "ce-quasiumbilic")}
_INVOLUTION.update({f"poly-{s}": make_random_poly_data(
    np.random.default_rng(s)) for s in (6, 23)})


@pytest.mark.parametrize("name", sorted(_INVOLUTION))
def test_conjugation_is_an_involution(name):
    d = _INVOLUTION[name]
    back = conjugate_data(conjugate_data(d))
    us, vs = d.domain.u_grid(61), d.domain.v_grid(61)
    for field, ts in (("g1", us), ("g2", vs), ("w1", us), ("w2", vs)):
        want = eval_array(getattr(d, field), ts).as_tuple()
        got = eval_array(getattr(back, field), ts).as_tuple()
        assert [s.tobytes() for s in got] == [s.tobytes() for s in want]
    k, ok = closed_k_samples(AxisSamples(d, "u", us[:, None]),
                             AxisSamples(d, "v", vs[None, :]))
    k2, ok2 = closed_k_samples(AxisSamples(back, "u", us[:, None]),
                               AxisSamples(back, "v", vs[None, :]))
    assert ok.any() and np.array_equal(ok, ok2)
    assert k[ok].tobytes() == k2[ok].tobytes()


def test_conjugating_twice_maps_swallowtails_back(enneper):
    conj = conjugate_data(enneper)
    back = conjugate_data(conj)
    tips = [r for r in all_reports(trace_singular_set(enneper, 64))
            if r.tag is SingularClassification.SWALLOWTAIL]
    assert tips
    for r in tips:
        assert (classify_singular(conj, r.u, r.v).tag
                is SingularClassification.CUSPIDAL_CROSS_CAP)
        assert (classify_singular(back, r.u, r.v).tag
                is SingularClassification.SWALLOWTAIL)


def test_conjugation_requires_data_mode(kchange):
    with pytest.raises(ModeUnsupported):
        conjugate_data(as_pair(kchange))


# --- description files -----------------------------------------------------


def enneper_dict():
    return {
        "mode": "weierstrass",
        "g1": "u", "g2": "-v", "w1": "1/2", "w2": "1/2",
        "domain": {"u": [-3, 3], "v": [-3, 3]},
    }


def test_dict_round_trip(tmp_path):
    d = surface_from_dict(enneper_dict())
    path = tmp_path / "surf.json"
    save_spec(d, path)
    d2 = load_spec(path)
    assert np.allclose(evaluate(d, 1.1, -0.7), evaluate(d2, 1.1, -0.7))
    obj = json.loads(path.read_text())
    assert obj["mode"] == "weierstrass"
    assert obj["base"] == [0.0, 0.0]


def test_loaded_surface_is_freed_without_the_cycle_collector(tmp_path):
    """The data, its cached pair and the pair's prefixes form no cycle."""
    path = tmp_path / "surf.json"
    save_spec(surface_from_dict(enneper_dict()), path)
    gc.disable()
    try:
        d = load_spec(path)
        pair = as_pair(d)
        evaluate(d, 1.1, -0.7)  # builds both prefix integrals
        assert pair.data is d and pair is as_pair(d)
        data_ref, pair_ref = weakref.ref(d), weakref.ref(pair)
        del d
        assert data_ref() is None
        assert pair.data is None
        del pair
        assert pair_ref() is None
    finally:
        gc.enable()


def _sample_bytes(surface):
    """The OBJ and fields CSV of an 8x6 sample, as bytes."""
    m = sample_grid(surface, 8, 6)
    obj, fields = io.StringIO(newline=""), io.StringIO(newline="")
    export_obj(m, obj)
    export_fields_csv(m, fields)
    return obj.getvalue().encode(), fields.getvalue().encode()


@pytest.mark.parametrize("name", ["kchange", "enneper"])
def test_saved_spec_samples_like_the_loaded_one(name, tmp_path):
    # load, save, load again: a raw curve pair writes its position
    # expressions, a data pair whose data is gone writes its g and w
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(json.dumps(gallery.spec_dict(name)))
    surface = load_spec(first)
    pair = as_pair(load_spec(first))  # its data is freed at once
    assert pair.data is None
    save_spec(pair, second)
    assert json.loads(second.read_text())["mode"] == pair.source
    assert _sample_bytes(load_spec(second)) == _sample_bytes(surface)


def test_dict_base_defaults_to_domain_centre():
    obj = enneper_dict()
    obj["domain"] = {"u": [-1, 3], "v": [0, 1]}
    d = surface_from_dict(obj)
    assert d.base == (1.0, 0.5)
    # the base point is where the surface sits at f0
    assert np.array_equal(evaluate(d, 1.0, 0.5), np.zeros(3))


def test_dict_rejects_non_finite_domain():
    obj = enneper_dict()
    obj["domain"] = {"u": [0, 1e400], "v": [0, 1]}
    with pytest.raises(SpecFileError):
        surface_from_dict(obj)


def test_dict_rejects_unknown_keys():
    bad = enneper_dict()
    bad["gauss"] = "u"
    with pytest.raises(SpecFileError) as exc:
        surface_from_dict(bad)
    assert "gauss" in str(exc.value)


def test_dict_rejects_missing_and_bad_mode():
    with pytest.raises(SpecFileError):
        surface_from_dict({"mode": "weierstrass", "g1": "u",
                           "domain": {"u": [0, 1], "v": [0, 1]}})
    with pytest.raises(SpecFileError):
        surface_from_dict({"mode": "isothermal"})
    with pytest.raises(SpecFileError):
        surface_from_dict([1, 2, 3])


def test_dict_rejects_bad_domain_and_f0():
    bad = enneper_dict()
    bad["domain"] = {"u": [0, 1]}
    with pytest.raises(SpecFileError):
        surface_from_dict(bad)
    bad = enneper_dict()
    bad["f0"] = [0, 0]
    with pytest.raises(SpecFileError):
        surface_from_dict(bad)


def test_dict_wraps_expression_errors():
    bad = enneper_dict()
    bad["g1"] = "u + ("
    with pytest.raises(SpecFileError):
        surface_from_dict(bad)


def test_dict_curve_mode():
    obj = {
        "mode": "curves",
        "phi": ["u + u^5/5", "2/3*u^3", "u - u^5/5"],
        "psi": ["-v - v^5/5", "2/3*v^3", "v - v^5/5"],
        "domain": {"u": [-2, 2], "v": [-2, 2]},
        "base": [0, 0],
    }
    pair = surface_from_dict(obj)
    got = evaluate(pair, 1.0, 1.0)
    phi = np.array([1.2, 2.0 / 3.0, 0.8])
    psi = np.array([-1.2, 2.0 / 3.0, 0.8])
    assert np.allclose(got, 0.5 * (phi + psi), atol=1e-12)
    # written from the expressions the pair holds
    back = surface_from_dict(surface_to_dict(pair))
    assert surface_to_dict(back) == surface_to_dict(pair)
    assert evaluate(back, 1.0, 1.0).tobytes() == got.tobytes()


def test_dict_curve_mode_rejects_non_null():
    obj = {
        "mode": "curves",
        "phi": ["u", "2*u", "0"],
        "psi": ["v", "v", "0"],
        "domain": {"u": [-1, 1], "v": [-1, 1]},
    }
    with pytest.raises(SpecFileError):
        surface_from_dict(obj)


def test_load_spec_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{ not json")
    with pytest.raises(SpecFileError):
        load_spec(p)
    with pytest.raises(SpecFileError):
        load_spec(tmp_path / "missing.json")
