"""Singular set: pointwise data, classification, tracing, main-theorem checks."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minface import gallery

from minface.errors import (
    DegenerateSingular,
    ModeUnsupported,
    NotCuspidalEdge,
    NotSingular,
)
from minface.expr import eval_value
from minface.singular import (
    MainTheoremReport,
    _newton_special,
    SingularClassification,
    all_reports,
    classify_singular,
    directions_at,
    is_front,
    is_nondegenerate,
    lambda_gradient_on_singular,
    normal_twist_identity,
    signed_area_density,
    singular_curvature,
    singular_data,
    trace_singular_set,
    verify_main_theorem,
    write_singular_csv,
)
from minface.surface import RealWeierstrassData, Rect, conjugate_data
from minface.verify import make_accumulation_data, make_random_poly_data

CE = SingularClassification.CUSPIDAL_EDGE
SW = SingularClassification.SWALLOWTAIL
CCR = SingularClassification.CUSPIDAL_CROSS_CAP


def degenerate_example():
    """Singular set {u = 0} along which both data derivatives vanish."""
    return RealWeierstrassData.from_strings("1+u^2", "1", "1", "1",
                                            Rect(-1, 1, -1, 1))


# --- pointwise quantities ----------------------------------------------------


def test_signed_area_density_spot(enneper):
    assert signed_area_density(enneper, 0.0, 0.0) == pytest.approx(-0.125,
                                                                   abs=1e-15)
    assert signed_area_density(enneper, 1.0, -1.0) == 0.0


def test_signed_area_density_changes_sign_across_curve(enneper):
    inside = signed_area_density(enneper, 0.9, -0.9)   # g1 g2 < 1
    outside = signed_area_density(enneper, 1.1, -1.1)  # g1 g2 > 1
    assert inside < 0 < outside


def test_singular_data_values(enneper):
    sd = singular_data(enneper, 2.0, -0.5)
    assert sd.a == pytest.approx(0.5, abs=1e-15)
    assert sd.b == pytest.approx(-8.0, abs=1e-13)
    assert sd.a_minus_b == pytest.approx(8.5, abs=1e-13)
    assert sd.a_plus_b == pytest.approx(-7.5, abs=1e-13)
    assert sd.h == pytest.approx(0.0, abs=1e-15)


def test_singular_data_rejects_vanishing_data_function(enneper):
    with pytest.raises(NotSingular):
        singular_data(enneper, 0.0, 0.7)


def test_lambda_gradient_matches_finite_differences(enneper):
    sd = singular_data(enneper, 1.0, -1.0)
    gu, gv = lambda_gradient_on_singular(sd)
    h = 1e-6
    fd_u = (signed_area_density(enneper, 1.0 + h, -1.0)
            - signed_area_density(enneper, 1.0 - h, -1.0)) / (2 * h)
    fd_v = (signed_area_density(enneper, 1.0, -1.0 + h)
            - signed_area_density(enneper, 1.0, -1.0 - h)) / (2 * h)
    assert gu == pytest.approx(fd_u, rel=1e-5)
    assert gv == pytest.approx(fd_v, rel=1e-5)
    assert math.hypot(gu, gv) == pytest.approx(0.5, rel=1e-12)


# --- classification ------------------------------------------------------------


def test_enneper_swallowtail_pair(enneper):
    for u, v in ((1.0, -1.0), (-1.0, 1.0)):
        r = classify_singular(enneper, u, v)
        assert r.tag is SW
        assert r.is_front
        assert r.a_plus_b == pytest.approx(0.0, abs=1e-13)
        assert abs(r.third_sw) == pytest.approx(8.0, rel=1e-12)
        assert r.kappa_s is None


def test_enneper_cuspidal_edge_and_curvature(enneper):
    r = classify_singular(enneper, 2.0, -0.5)
    assert r.tag is CE
    assert r.kappa_s == pytest.approx(-0.170666666666667, abs=1e-12)
    assert singular_curvature(enneper, 2.0, -0.5) == r.kappa_s


def test_conjugate_turns_swallowtails_into_cross_caps(enneper_conj):
    for u, v in ((1.0, -1.0), (-1.0, 1.0)):
        r = classify_singular(enneper_conj, u, v)
        assert r.tag is CCR
        assert not r.is_front
        assert r.a_minus_b == pytest.approx(0.0, abs=1e-13)
        assert abs(r.third_ccr) == pytest.approx(8.0, rel=1e-12)


def test_conjugate_preserves_cuspidal_edges(enneper, enneper_conj):
    for u in (0.5, 2.0, -3.0, 1.4):
        v = -1.0 / u
        assert classify_singular(enneper, u, v).tag is CE
        assert classify_singular(enneper_conj, u, v).tag is CE


def test_quasiumbilic_surface_edge_curvature(ce_quasi):
    r = classify_singular(ce_quasi, 0.5, 1.0)
    assert r.tag is CE
    assert r.kappa_s == pytest.approx(0.142222222222222, abs=1e-12)
    assert r.a == pytest.approx(4.0, rel=1e-13)
    assert r.b == pytest.approx(0.5, rel=1e-13)


def test_kappa_s_vanishes_where_one_derivative_does(ce_quasi):
    r = classify_singular(ce_quasi, 1.0, 0.0)
    assert r.tag is CE
    assert r.kappa_s == 0.0


def test_classify_rejects_non_singular(enneper):
    with pytest.raises(NotSingular):
        classify_singular(enneper, 2.0, 2.0)
    with pytest.raises(NotSingular):
        classify_singular(enneper, 0.0, 0.0)


def test_classify_needs_data_mode(kchange):
    with pytest.raises(ModeUnsupported):
        classify_singular(kchange, 1.0, 1.0)
    with pytest.raises(ModeUnsupported):
        trace_singular_set(kchange)


def test_degenerate_singular_point():
    d = degenerate_example()
    r = classify_singular(d, 0.0, 0.3)
    assert r.tag is SingularClassification.DEGENERATE
    assert not r.is_nondegenerate
    with pytest.raises(DegenerateSingular):
        directions_at(d, 0.0, 0.3)


def test_front_and_nondegenerate_predicates(enneper):
    assert is_front(enneper, 2.0, -0.5)
    assert is_front(enneper, 1.0, -1.0)
    assert is_nondegenerate(enneper, 1.0, -1.0)
    assert not is_front(degenerate_example(), 0.0, 0.0)


def test_not_cuspidal_edge_error(enneper):
    with pytest.raises(NotCuspidalEdge):
        singular_curvature(enneper, 1.0, -1.0)


# --- directions and the twist identity -------------------------------------------


def test_directions_at_swallowtail_are_tangent(enneper):
    d = directions_at(enneper, 1.0, -1.0)
    assert d.eta == pytest.approx((2.0, 2.0), abs=1e-13)
    assert d.gamma_prime == pytest.approx((-1.0, -1.0), abs=1e-13)
    assert d.det_gamma_eta == pytest.approx(0.0, abs=1e-13)


def test_directions_at_cuspidal_edge(enneper):
    d = directions_at(enneper, 2.0, -0.5)
    assert d.eta == pytest.approx((1.0, 4.0), abs=1e-13)
    assert d.gamma_prime == pytest.approx((-2.0, -0.5), abs=1e-13)
    sd = singular_data(enneper, 2.0, -0.5)
    assert d.det_gamma_eta == pytest.approx(sd.a_plus_b, abs=1e-12)


def test_twist_identity_both_sides(enneper):
    lhs, rhs = normal_twist_identity(enneper, 2.0, -0.5)
    assert rhs == pytest.approx(7.96875, abs=1e-12)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_twist_identity_on_quasiumbilic_curve(ce_quasi):
    lhs, rhs = normal_twist_identity(ce_quasi, 0.5, 1.0)
    assert lhs == pytest.approx(rhs, abs=1e-8 * (1.0 + abs(rhs)))


# --- tracing ---------------------------------------------------------------------


def test_trace_rejects_small_grid(enneper):
    with pytest.raises(ValueError):
        trace_singular_set(enneper, grid_n=8)


def test_trace_enneper_finds_both_branches(enneper):
    curves = trace_singular_set(enneper, grid_n=128)
    assert len(curves) == 2
    reports = all_reports(curves)
    tags = [r.tag for r in reports]
    assert tags.count(SW) == 2
    assert all(t in (CE, SW) for t in tags)
    sw_pts = sorted((r.u, r.v) for r in reports if r.tag is SW)
    assert sw_pts[0] == pytest.approx((-1.0, 1.0), abs=1e-9)
    assert sw_pts[1] == pytest.approx((1.0, -1.0), abs=1e-9)
    for c in curves:
        assert c.residual_max < 1e-10
        # vertices really lie on the hyperbola u v = -1
        for p in c.points:
            assert p.u * p.v == pytest.approx(-1.0, abs=1e-9)


def test_trace_conjugate_duality(enneper_conj):
    curves = trace_singular_set(enneper_conj, grid_n=128)
    reports = all_reports(curves)
    tags = [r.tag for r in reports]
    assert tags.count(CCR) == 2
    assert all(t in (CE, CCR) for t in tags)


def test_trace_quasiumbilic_single_edge_curve(ce_quasi):
    curves = trace_singular_set(ce_quasi, grid_n=128)
    assert len(curves) == 1
    reports = curves[0].points
    assert all(r.tag is CE for r in reports)
    assert curves[0].residual_max < 1e-10
    vs = [r.v for r in reports]
    assert min(vs) < -1.9 and max(vs) > 1.9


def test_csv_round_trip(enneper, tmp_path):
    curves = trace_singular_set(enneper, grid_n=64)
    out = io.StringIO()
    write_singular_csv(curves, out)
    lines = out.getvalue().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["u", "v", "tag", "a", "b", "a_minus_b", "a_plus_b",
                      "kappa_s", "is_front", "lambda_gradient_norm"]
    assert len(lines) == 1 + sum(len(c.points) for c in curves)
    assert any(",Swallowtail," in line for line in lines[1:])
    path = tmp_path / "sing.csv"
    write_singular_csv(all_reports(curves), path)
    assert path.read_text().splitlines()[0] == lines[0]


def _trace_surface(name):
    kind, _, seed = name.partition("-seed")
    if kind == "poly":
        return make_random_poly_data(np.random.default_rng(int(seed)))
    if kind == "accumulation":
        return make_accumulation_data(np.random.default_rng(int(seed)))
    return gallery.get(name)


# the random seeds are the first ones whose singular set meets the domain
@pytest.mark.parametrize("grid_n", [16, 33, 128])
@pytest.mark.parametrize("name", [
    "enneper", "enneper-conj", "ce-quasiumbilic",
    "poly-seed1", "poly-seed4", "poly-seed5", "poly-seed7",
    "accumulation-seed0", "accumulation-seed1"])
def test_trace_reports_equal_pointwise_classification(name, grid_n):
    surface = _trace_surface(name)
    curves = trace_singular_set(surface, grid_n)
    assert curves
    for c in curves:
        for r in c.points:
            assert r == classify_singular(surface, r.u, r.v)
        assert c.residual_max == max(abs(singular_data(surface, r.u, r.v).h)
                                     for r in c.points)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), grid_n=st.integers(16, 64))
def test_trace_vertices_match_separable_sign_changes(seed, grid_n):
    """Grid-line vertices are exactly the 1-D sign changes of g1 g2 - 1.

    On column u = us[i] the singular set is g2(v) = 1/g1(us[i]), a 1-D
    problem per grid line: each grid edge whose end signs differ must carry
    exactly one trace vertex. Newton-inserted vertices lie off the grid
    lines and drop out of the exact-equality matching.
    """
    d = make_random_poly_data(np.random.default_rng(seed))
    us, vs = d.domain.u_grid(grid_n + 1), d.domain.v_grid(grid_n + 1)
    positive = np.outer([eval_value(d.g1, u) for u in us],
                        [eval_value(d.g2, v) for v in vs]) - 1.0 > 0
    on_column = {u: i for i, u in enumerate(us.tolist())}
    on_row = {v: j for j, v in enumerate(vs.tolist())}
    column_hits = np.zeros((grid_n + 1, grid_n), dtype=int)
    row_hits = np.zeros((grid_n, grid_n + 1), dtype=int)
    for r in all_reports(trace_singular_set(d, grid_n)):
        if r.u in on_column:
            j = int(np.searchsorted(vs, r.v)) - 1
            assert vs[j] < r.v < vs[j + 1]
            column_hits[on_column[r.u], j] += 1
        elif r.v in on_row:
            i = int(np.searchsorted(us, r.u)) - 1
            assert us[i] < r.u < us[i + 1]
            row_hits[i, on_row[r.v]] += 1
    assert np.array_equal(column_hits, positive[:, :-1] != positive[:, 1:])
    assert np.array_equal(row_hits, positive[:-1, :] != positive[1:, :])


@pytest.mark.parametrize("data, u, v", [
    # g1(0) = 0: the first iterate is provably off the singular set
    (gallery.get("enneper"), 0.0, 0.5),
    # the first step lands at u < 0, outside the domain of sqrt
    (RealWeierstrassData.from_strings("sqrt(u)", "v", "1", "1",
                                      Rect(0.01, 2.0, -2.0, 2.0),
                                      base=(1.0, 0.0)), 0.01, 0.5),
])
def test_newton_special_gives_up_where_data_is_unusable(data, u, v):
    assert _newton_special(data, u, v, 1.0) is None


# --- main theorem ----------------------------------------------------------------


def test_main_theorem_at_swallowtail(enneper):
    rep = verify_main_theorem(enneper, 1.0, -1.0)
    assert isinstance(rep, MainTheoremReport)
    assert rep.checks["curvature_negative"]
    assert rep.checks["curvature_magnitude_grows"]
    assert rep.passed


def test_main_theorem_at_cuspidal_edge(enneper):
    rep = verify_main_theorem(enneper, 2.0, -0.5)
    assert rep.checks["curvature_sign_matches_kappa_s"]
    assert rep.passed
    assert all(k < 0 for (_, _, k) in rep.samples)


def test_main_theorem_at_cross_cap(enneper_conj):
    rep = verify_main_theorem(enneper_conj, 1.0, -1.0)
    assert rep.checks["curvature_positive"]
    assert rep.passed


def test_main_theorem_exemption_note(ce_quasi):
    rep = verify_main_theorem(ce_quasi, 1.0, 0.0)
    assert rep.passed
    assert any("exemption" in note for note in rep.notes)


def test_transversal_curvature_blowup(enneper):
    """K along the transversal at the swallowtail: -16 / t^4 exactly."""
    from minface.curvature import gaussian_curvature

    for t in (1e-1, 1e-2, 1e-3):
        k = gaussian_curvature(enneper, 1.0 + t, -1.0)
        assert k == pytest.approx(-16.0 / t ** 4, rel=1e-6)
