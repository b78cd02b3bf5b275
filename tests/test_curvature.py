"""Curvature routes, flat points, orientation signs, gauges."""

import math

import pytest

from minface.curvature import (
    AxisSamples,
    FlatTag,
    axis_curve,
    curve_orientation,
    energy_gauge,
    flat_classify,
    gaussian_curvature,
    milnor_sign_check,
    orientation,
    sign_prediction,
    winding_signs,
)
from minface.errors import (
    DegenerateAtPoint,
    FlatPoint,
    ModeUnsupported,
    SingularNeighborhood,
    SingularPoint,
)
from minface.lorentz import mdot
from minface.surface import RealWeierstrassData, Rect, as_pair

from oracles import extrinsic_curvature


def enneper_k(u, v):
    """Closed-form curvature of the degree-one data surface."""
    return -16.0 / (1.0 + u * v) ** 4


def ce_quasi_k(u, v):
    """Closed-form curvature of the quasi-umbilic example."""
    return 8.0 * v / (1.0 - u * (1.0 + v * v)) ** 4


def kchange_k(u, v):
    """Closed-form curvature of the raw-pair example."""
    return -16.0 * u * v / (1.0 + u * u * v * v) ** 4


# --- the three routes agree with each other, closed forms, and an oracle -------


@pytest.mark.parametrize("u,v", [(0.0, 0.0), (1.0, 1.0), (0.7, -0.4),
                                 (-2.0, 2.5), (1.5, 0.2)])
def test_enneper_curvature_three_routes(enneper, u, v):
    want = enneper_k(u, v)
    closed = gaussian_curvature(enneper, u, v, method="closed")
    ext = gaussian_curvature(enneper, u, v, method="extrinsic")
    intr = gaussian_curvature(enneper, u, v, method="intrinsic")
    assert closed == pytest.approx(want, rel=1e-12)
    assert ext == pytest.approx(closed, rel=1e-9)
    assert intr == pytest.approx(closed, rel=1e-3)


def test_enneper_origin_spot_value(enneper):
    assert gaussian_curvature(enneper, 0.0, 0.0) == pytest.approx(-16.0,
                                                                  abs=1e-12)
    assert gaussian_curvature(enneper, 1.0, 1.0) == pytest.approx(-1.0,
                                                                  abs=1e-12)


def test_curvature_against_independent_oracle(enneper, ce_quasi):
    want = float(extrinsic_curvature("u", "-v", "1/2", "1/2", 0.7, 1.1))
    got = gaussian_curvature(enneper, 0.7, 1.1)
    assert got == pytest.approx(want, rel=1e-9)
    want = float(extrinsic_curvature("u", "1+v^2", "1", "1", 0.2, 0.5))
    got = gaussian_curvature(ce_quasi, 0.2, 0.5)
    assert got == pytest.approx(want, rel=1e-9)
    assert got == pytest.approx(ce_quasi_k(0.2, 0.5), rel=1e-12)


def test_raw_pair_closed_route_delegates(kchange):
    for u, v in ((1.0, 1.0), (0.5, 0.5), (-1.0, 1.0), (1.3, -0.8)):
        got = gaussian_curvature(kchange, u, v, method="closed")
        ext = gaussian_curvature(kchange, u, v, method="extrinsic")
        assert got == ext
        assert got == pytest.approx(kchange_k(u, v), rel=1e-12)
    assert gaussian_curvature(kchange, 1.0, 1.0) == pytest.approx(-1.0,
                                                                  abs=1e-12)


def test_raw_pair_intrinsic_route(kchange):
    got = gaussian_curvature(kchange, 0.9, 0.7, method="intrinsic")
    assert got == pytest.approx(kchange_k(0.9, 0.7), rel=1e-3)


def test_curvature_is_exactly_zero_on_flat_axes(kchange):
    for t in (-1.5, -0.5, 0.5, 1.0, 2.0):
        assert gaussian_curvature(kchange, t, 0.0) == 0.0
        assert gaussian_curvature(kchange, 0.0, t) == 0.0


def test_singular_point_raises_all_routes(enneper):
    for method in ("closed", "extrinsic", "intrinsic"):
        with pytest.raises(SingularPoint):
            gaussian_curvature(enneper, 1.0, -1.0, method=method)


def test_unknown_method_rejected(enneper):
    with pytest.raises(ValueError):
        gaussian_curvature(enneper, 0.0, 0.0, method="spectral")


def test_intrinsic_stencil_near_singular_set():
    flat_strip = RealWeierstrassData.from_strings(
        "u", "1", "1", "1", Rect(0.0, 2.0, -1.0, 1.0))
    with pytest.raises(SingularPoint):
        gaussian_curvature(flat_strip, 1.0, 0.3, method="intrinsic")
    with pytest.raises(SingularNeighborhood):
        gaussian_curvature(flat_strip, 1.25, 0.0, method="intrinsic", h=0.25)
    # away from u = 1 the surface is genuinely flat and the stencil is exact
    assert gaussian_curvature(flat_strip, 0.5, 0.0, method="intrinsic") == 0.0


# --- flat-point classification ---------------------------------------------------


def test_enneper_has_no_flat_points(enneper):
    for u, v in ((0.0, 0.0), (2.0, 2.0), (-1.7, 0.3)):
        c = flat_classify(enneper, u, v)
        assert c.tag is FlatTag.NON_FLAT
        assert c.q_norm2 == pytest.approx(1.0, abs=1e-15)
        assert c.r_norm2 == pytest.approx(1.0, abs=1e-15)
        assert not c.phi_flat and not c.psi_flat


def test_flat_atlas_of_raw_pair(kchange):
    assert flat_classify(kchange, 0.0, 0.0).tag is FlatTag.UMBILIC
    for t in (0.5, -0.5, 1.5):
        cu = flat_classify(kchange, 0.0, t)
        assert cu.tag is FlatTag.QUASI_UMBILIC
        assert cu.phi_flat and not cu.psi_flat
        cv = flat_classify(kchange, t, 0.0)
        assert cv.tag is FlatTag.QUASI_UMBILIC
        assert cv.psi_flat and not cv.phi_flat
    assert flat_classify(kchange, 0.5, 0.5).tag is FlatTag.NON_FLAT


def test_flat_acceleration_quartics(kchange):
    c = flat_classify(kchange, 0.5, 1.0)
    assert c.q_norm2 == pytest.approx(16.0 * 0.25, rel=1e-12)
    assert c.r_norm2 == pytest.approx(16.0, rel=1e-12)


def test_flat_classify_rejects_singular(enneper):
    with pytest.raises(SingularPoint):
        flat_classify(enneper, 1.0, -1.0)


def test_flat_tag_codes():
    assert FlatTag.NON_FLAT.code == 0
    assert FlatTag.QUASI_UMBILIC.code == 1
    assert FlatTag.UMBILIC.code == 2
    assert FlatTag.UMBILIC.value == "Umbilic"
    assert FlatTag.QUASI_UMBILIC.value == "QuasiUmbilic"


# --- orientation signs ------------------------------------------------------------


def test_enneper_orientation_signs(enneper):
    o_u = curve_orientation(enneper, "u", 0.0)
    o_v = curve_orientation(enneper, "v", 0.0)
    assert o_u.sign == -1
    assert o_u.determinant == pytest.approx(-1.0, abs=1e-15)
    assert o_v.sign == 1
    assert o_v.determinant == pytest.approx(1.0, abs=1e-15)
    # the sign is constant along each curve
    for t in (-2.5, -0.4, 1.9):
        assert curve_orientation(enneper, "u", t).sign == -1
        assert curve_orientation(enneper, "v", t).sign == 1


def test_kchange_orientation_determinant(kchange):
    o = curve_orientation(kchange, "u", 1.0)
    assert o.determinant == pytest.approx(-64.0, rel=1e-12)
    assert o.sign == -1
    assert curve_orientation(kchange, "u", -1.0).sign == 1


def test_orientation_degenerate_point(kchange):
    with pytest.raises(DegenerateAtPoint):
        curve_orientation(kchange, "u", 0.0)


def test_axis_curve_validates_axis(enneper):
    with pytest.raises(ValueError):
        axis_curve(enneper, "w")


def test_sign_prediction_matches_curvature_sign(enneper, kchange):
    for u, v in ((0.0, 0.0), (1.0, 1.0), (-1.3, 0.8)):
        k = gaussian_curvature(enneper, u, v, method="extrinsic")
        assert sign_prediction(enneper, u, v) == (1 if k > 0 else -1)
    for u, v in ((1.0, 1.0), (-1.0, 1.0), (0.7, -0.6)):
        k = gaussian_curvature(kchange, u, v, method="extrinsic")
        assert sign_prediction(kchange, u, v) == (1 if k > 0 else -1)


def test_sign_prediction_flat_and_singular(enneper, kchange):
    with pytest.raises(FlatPoint):
        sign_prediction(kchange, 0.0, 1.0)
    with pytest.raises(SingularPoint):
        sign_prediction(enneper, 1.0, -1.0)


# --- winding-rate signs -----------------------------------------------------------


def test_winding_signs_match_orientations(enneper):
    w = winding_signs(enneper, 0.3, -0.2)
    assert w.s_phi == -1
    assert w.s_psi == 1
    assert w.product == -1


def test_milnor_agreement(enneper, ce_quasi, kchange):
    assert milnor_sign_check(enneper, 0.3, -0.2)
    assert milnor_sign_check(enneper, 1.2, 1.7)
    assert milnor_sign_check(ce_quasi, 0.4, 1.0)
    assert milnor_sign_check(ce_quasi, 0.4, -1.0)
    assert milnor_sign_check(kchange, 1.0, 1.0)
    assert milnor_sign_check(kchange, -1.0, 1.0)


def test_milnor_raises_at_flat_point(kchange):
    with pytest.raises(FlatPoint):
        milnor_sign_check(kchange, 0.0, 1.0)


# --- unit-acceleration gauge -------------------------------------------------------


def test_gauge_rate_is_the_unit_acceleration_rate(ce_quasi):
    """t_s = 1/q with q = <gamma'', gamma''>^(1/4) = sqrt(2) at u = 0.7, and
    <gamma_ss, gamma_ss> = t_s^4 <gamma'', gamma''> = 1 (gamma' is null)."""
    rec = AxisSamples(ce_quasi, "u", 0.7)
    t_s, ok = rec.gauge_rate()
    assert ok
    assert t_s == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    assert t_s ** 4 * mdot(rec.acc, rec.acc) == pytest.approx(1.0, abs=1e-12)


def test_gauge_rate_masks_degenerate_point(kchange):
    _, ok = AxisSamples(kchange, "u", 0.0).gauge_rate()
    assert not ok


def test_orientation_invariant_under_resampling(kchange):
    """In the unit-acceleration gauge the frame determinant,
    t_s^6 det(gamma', gamma'', gamma'''), is exactly -1 here."""
    for t in (0.5, 0.8, 1.0):
        t_s, _ = AxisSamples(kchange, "u", t).gauge_rate()
        o = orientation(axis_curve(kchange, "u"), t)
        assert o.sign == -1
        assert t_s ** 6 * o.determinant == pytest.approx(-1.0, abs=1e-9)


def test_unit_gauge_data_derivative_has_magnitude_half(enneper, ce_quasi):
    """|g1~' w1~| = 1/2 in the unit-acceleration gauge, for any data surface."""
    for surface, t in ((enneper, 0.9), (enneper, -1.4), (ce_quasi, 0.7)):
        t_s, _ = AxisSamples(surface, "u", t).gauge_rate()
        g1t = surface.g1_jet(t).d1 * t_s
        w1t = surface.w1_jet(t).value * t_s
        assert abs(g1t * w1t) == pytest.approx(0.5, rel=1e-12)


# --- energy gauge ----------------------------------------------------------------


def test_energy_gauge_spot_value(enneper):
    e = energy_gauge(enneper, 0.3, -0.2)
    assert e == pytest.approx(0.94 ** 2 / 4.0, rel=1e-12)


def test_energy_gauge_squares_to_inverse_curvature(enneper, ce_quasi):
    for surface, pts in ((enneper, ((0.3, -0.2), (1.0, 1.0), (-1.5, 0.4))),
                         (ce_quasi, ((0.3, 0.5), (0.2, -1.0)))):
        for u, v in pts:
            e = energy_gauge(surface, u, v)
            k = gaussian_curvature(surface, u, v)
            eps = sign_prediction(surface, u, v)
            assert k * e * e == pytest.approx(eps, rel=1e-9)


def test_energy_gauge_needs_data(kchange):
    with pytest.raises(ModeUnsupported):
        energy_gauge(kchange, 1.0, 1.0)
