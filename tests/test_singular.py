"""Singular set: pointwise data, classification, tracing, main-theorem checks."""

import csv
import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minface import gallery

from minface.errors import (
    DegenerateSingular,
    MinfaceError,
    ModeUnsupported,
    NotCuspidalEdge,
    NotSingular,
    RootNotConverged,
)
from minface.expr import eval_jet, eval_value, parse
from minface.jets import lift_variable
from minface.singular import (
    MainTheoremReport,
    _directions,
    _edge_roots,
    _newton_special,
    _padded,
    _rows,
    _twist_sides,
    SingularClassification,
    SingularDirections,
    SingularPointReport,
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

from singular_reference import (reference_classify, reference_directions,
                                reference_is_front, reference_is_nondegenerate,
                                reference_signed_area_density,
                                reference_twist,
                                reference_write_singular_csv, same_bits)

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


@pytest.mark.parametrize("g1, g2", [("1+u^2", "1+v"), ("1+u", "1+v^2")])
def test_nondegeneracy_band_scales_with_both_derivatives(g1, g2):
    # at (0, 0) one of |g1'|, |g2'| is 0 and the other 1: with tol = 0.5
    # the band is 0.5 (1 + 0 + 1) = 1, which max(|g1'|, |g2'|) = 1 does not
    # exceed
    d = RealWeierstrassData.from_strings(g1, g2, "1", "1",
                                         Rect(-0.5, 0.5, -0.5, 0.5))
    assert not classify_singular(d, 0.0, 0.0, tol=0.5).is_nondegenerate
    assert not reference_is_nondegenerate(d, 0.0, 0.0, tol=0.5)
    assert classify_singular(d, 0.0, 0.0, tol=0.49).is_nondegenerate


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
    write_singular_csv(curves, path)
    assert path.read_text().splitlines()[0] == lines[0]


def reference_singular_csv(reports) -> str:
    """The CSV as csv.writer writes it, one row at a time."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["u", "v", "tag", "a", "b", "a_minus_b", "a_plus_b",
                     "kappa_s", "is_front", "lambda_gradient_norm"])
    for r in reports:
        writer.writerow([
            "%.17g" % r.u, "%.17g" % r.v, r.tag.value,
            "%.17g" % r.a, "%.17g" % r.b,
            "%.17g" % r.a_minus_b, "%.17g" % r.a_plus_b,
            "" if r.kappa_s is None else "%.17g" % r.kappa_s,
            int(r.is_front), "%.17g" % r.lambda_gradient_norm])
    return buf.getvalue()


@pytest.mark.parametrize("name", ["enneper", "enneper-conj",
                                  "ce-quasiumbilic", "unresolved"])
def test_csv_matches_per_row_writer(name, tmp_path):
    curves = trace_singular_set(_trace_surface(name), 64)
    want = reference_singular_csv(all_reports(curves))
    assert "\r\n" in want
    path = tmp_path / "sing.csv"
    write_singular_csv(curves, path)
    assert path.read_bytes() == want.encode("utf-8")
    buf = io.StringIO(newline="")
    write_singular_csv(curves, buf)
    assert buf.getvalue() == want


@pytest.mark.parametrize("name, grid_n", [
    ("enneper", 128), ("enneper-conj", 128), ("ce-quasiumbilic", 128),
    ("poly-seed1", 128), ("poly-seed4", 128), ("poly-seed5", 64),
    ("poly-seed7", 128), ("accumulation-seed0", 128),
    ("accumulation-seed1", 256), ("cross-seed0", 512), ("unresolved", 64),
    ("degenerate-line", 64)])
def test_csv_equals_report_writer(name, grid_n):
    """The columns give the bytes the report writer gives: kappa_s is empty
    exactly off cuspidal edges, Newton-refined rows sit in polyline order."""
    curves = trace_singular_set(_trace_surface(name), grid_n)
    got, want = io.StringIO(newline=""), io.StringIO(newline="")
    write_singular_csv(curves, got)
    reference_write_singular_csv(all_reports(curves), want)
    assert got.getvalue() == want.getvalue()


def test_curve_columns_and_reports(enneper):
    curves = trace_singular_set(enneper, 64)
    for c in curves:
        n = len(c.points)
        assert c.points is c.points  # built once
        assert all(len(getattr(c.data, f.name)) == n
                   for f in dataclasses.fields(c.data))
        assert all(len(getattr(c.classes, f.name)) == n
                   for f in dataclasses.fields(c.classes))
        assert c.coords.tolist() == [[r.u, r.v] for r in c.points]
    assert all_reports(curves) == curves[0].points + curves[1].points


def cross_data(seed):
    """A flat line u = c crossing the singular curve, with random densities.

    g1 = a (u - c)^2 + d and g2 = e v + f with g1(c) g2(v*) = 1, as
    make_accumulation_data, but with one-signed non-constant w1, w2.
    """
    rng = np.random.default_rng(seed)
    a, c, d = rng.uniform(0.5, 1.5), rng.uniform(-0.4, 0.4), rng.uniform(
        0.6, 1.4)
    v_star, e = rng.uniform(-0.4, 0.4), rng.uniform(0.7, 1.3)
    w = ["%s((%r) + ((%r)*%s + (%r))^2)" % (
        rng.choice(["", "-"]), 0.4 + rng.uniform(0, 1), rng.uniform(-1, 1),
        var, rng.uniform(-1, 1)) for var in "uv"]
    return RealWeierstrassData.from_strings(
        "(%r)*(u-(%r))^2+(%r)" % (a, c, d),
        "(%r)*v+(%r)" % (e, 1.0 / d - e * v_star), w[0], w[1],
        Rect(-1.0, 1.0, -1.0, 1.0))


# Singular sets whose traced points are all Unresolved or all degenerate:
# on u = v, g1 = u, g2 = 1/v, w2 = v^2 give a + b = 0 and third_sw = 0 at
# every point of a front; g1 = 1 + u^2, g2 = 1 has g1' = g2' = 0 on u = 0,
# and g1 g2 = 1 touches the grid node (0.25, -0.5) alone for the third.
SPECIAL = {
    "unresolved": lambda: RealWeierstrassData.from_strings(
        "u", "1/v", "1", "v^2", Rect(0.5, 2.0, 0.6, 1.9), base=(1.0, 1.0)),
    "degenerate-line": degenerate_example,
    "degenerate-node": lambda: RealWeierstrassData.from_strings(
        "(u-0.25)^2+2", "0.5+3*(v+0.5)^2", "1", "1", Rect(-1, 1, -1, 1)),
}


def _trace_surface(name):
    kind, _, seed = name.partition("-seed")
    if kind == "poly":
        return make_random_poly_data(np.random.default_rng(int(seed)))
    if kind == "accumulation":
        return make_accumulation_data(np.random.default_rng(int(seed)))
    if kind == "cross":
        return cross_data(int(seed))
    if name in SPECIAL:
        return SPECIAL[name]()
    return gallery.get(name)


# the random seeds are the first ones whose singular set meets the domain
@pytest.mark.parametrize("grid_n", [16, 33, 128])
@pytest.mark.parametrize("name", [
    "enneper", "enneper-conj", "ce-quasiumbilic",
    "poly-seed1", "poly-seed4", "poly-seed5", "poly-seed7",
    "accumulation-seed0", "accumulation-seed1"])
def test_trace_reports_equal_pointwise_classification(name, grid_n):
    _assert_reports_equal_pointwise(_trace_surface(name), grid_n)


# cross-seed0 carries a swallowtail and a cross cap; the special surfaces
# give Unresolved and DegenerateSingular points
@pytest.mark.parametrize("name", [
    "cross-seed0", "cross-seed1", "cross-seed2", "accumulation-seed1",
    "unresolved", "degenerate-line", "degenerate-node"])
def test_grid_512_reports_equal_pointwise_classification(name):
    tags = _assert_reports_equal_pointwise(_trace_surface(name), 512)
    if name in SPECIAL:
        assert tags == {"unresolved": {"Unresolved"}}.get(
            name, {"DegenerateSingular"})


def _assert_reports_equal_pointwise(surface, grid_n):
    """Each traced report is the scalar decision tree's at its point."""
    curves = trace_singular_set(surface, grid_n)
    assert curves
    for c in curves:
        for r in c.points:
            assert r == reference_classify(singular_data(surface, r.u, r.v))
        assert c.residual_max == max(abs(singular_data(surface, r.u, r.v).h)
                                     for r in c.points)
    return {r.tag.value for r in all_reports(curves)}


def _outcome(fn, *args):
    """fn(*args), or the type and message of the MinfaceError it raises."""
    try:
        return fn(*args)
    except MinfaceError as err:
        return type(err), str(err)


def _same_outcome(got, want):
    if isinstance(want, tuple) and isinstance(want[0], type):
        return got == want
    if isinstance(want, SingularDirections):
        return isinstance(got, SingularDirections) and same_bits(
            (got.eta, got.mu, got.gamma_prime, got.det_gamma_eta),
            (want.eta, want.mu, want.gamma_prime, want.det_gamma_eta))
    if isinstance(want, bool):
        return type(got) is bool and got == want
    if isinstance(want, SingularPointReport):
        return got == want
    return same_bits(got, want)


@pytest.mark.parametrize("name", [
    "enneper", "enneper-conj", "ce-quasiumbilic", "cross-seed0",
    "poly-seed4", "accumulation-seed1", "unresolved", "degenerate-line"])
def test_per_point_functions_equal_scalar_references(name):
    """Length-1 calls of the array formulas equal the scalar bodies.

    At every fifth traced point, its Newton-refined points and two points
    off the singular set: values bit for bit, errors by type and message.
    """
    surface = _trace_surface(name)
    reports = all_reports(trace_singular_set(surface, 64))
    picked = reports[::5] + [r for r in reports if r.tag in (SW, CCR)]
    points = [(r.u, r.v) for r in picked]
    points += [(r.u + 0.1, r.v) for r in picked[:2]]
    pairs = [
        (lambda u, v: classify_singular(surface, u, v),
         lambda u, v: reference_classify(singular_data(surface, u, v))),
        (lambda u, v: is_front(surface, u, v),
         lambda u, v: reference_is_front(surface, u, v)),
        (lambda u, v: is_nondegenerate(surface, u, v),
         lambda u, v: reference_is_nondegenerate(surface, u, v)),
        (lambda u, v: directions_at(surface, u, v),
         lambda u, v: reference_directions(surface, u, v)),
        (lambda u, v: normal_twist_identity(surface, u, v),
         lambda u, v: reference_twist(surface, u, v)),
        (lambda u, v: signed_area_density(surface, u, v),
         lambda u, v: reference_signed_area_density(surface, u, v)),
    ]
    for u, v in points:
        for got, want in pairs:
            g, w = _outcome(got, u, v), _outcome(want, u, v)
            assert _same_outcome(g, w), (u, v, g, w)


@pytest.mark.parametrize("name", ["enneper", "ce-quasiumbilic",
                                  "cross-seed0", "poly-seed4"])
def test_array_formulas_equal_references_at_every_traced_point(name):
    """Directions and both twist sides on arrays, point by point."""
    surface = _trace_surface(name)
    reports = [r for r in all_reports(trace_singular_set(surface, 128))
               if r.is_nondegenerate]
    sd = _rows([singular_data(surface, r.u, r.v) for r in reports],
               _padded(np.arange(len(reports))))
    dirs = _directions(sd)
    lhs, rhs = _twist_sides(surface, sd)
    for k, r in enumerate(reports):
        want = reference_directions(surface, r.u, r.v)
        assert same_bits((dirs.eta[0][k], dirs.eta[1][k],
                          dirs.gamma_prime[0][k], dirs.gamma_prime[1][k],
                          dirs.det_gamma_eta[k]),
                         want.eta + want.gamma_prime + (want.det_gamma_eta,))
        assert same_bits((lhs[k], rhs[k]), reference_twist(surface, r.u, r.v))


@pytest.mark.parametrize("name, grid_n", [("enneper", 128),
                                          ("enneper-conj", 512),
                                          ("cross-seed0", 512)])
def test_newton_refined_points_sit_between_their_nodes(name, grid_n):
    """a + b (or a - b) changes sign between the neighbours of each
    Newton-refined point, where the trace found that change."""
    curves = trace_singular_set(_trace_surface(name), grid_n)
    refined = 0
    for c in curves:
        for prev, r, nxt in zip(c.points, c.points[1:], c.points[2:]):
            if r.tag in (SW, CCR):
                refined += 1
                side = ("a_plus_b" if abs(r.a_plus_b) < abs(r.a_minus_b)
                        else "a_minus_b")
                assert (getattr(prev, side) > 0) != (getattr(nxt, side) > 0)
    assert refined >= 2


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


def reference_edge_root(g, g_other, lo, hi, tol=1e-12):
    """Root of g(t)*g_other - 1 on [lo, hi] by scalar safeguarded Newton.

    The per-edge solver the trace ran before its edges were batched. None
    if h does not change sign on the edge, and RootNotConverged if 60
    iterations leave |h| >= tol.
    """
    def h(t):
        return eval_value(g, t) * g_other - 1.0

    h_lo, h_hi = h(lo), h(hi)
    if h_lo == 0.0:
        return lo
    if h_hi == 0.0:
        return hi
    if (h_lo > 0) == (h_hi > 0):
        return None
    edge = (lo, hi)
    t_next = 0.5 * (lo + hi)
    for _ in range(60):
        t = t_next
        jt = eval_jet(g, lift_variable(t))
        ht = jt.value * g_other - 1.0
        if abs(ht) < tol:
            return t
        if (ht > 0) == (h_lo > 0):
            lo = t
        else:
            hi = t
        dh = jt.d1 * g_other
        if dh != 0.0:
            t_next = t - ht / dh
            if not (lo < t_next < hi):
                t_next = 0.5 * (lo + hi)
        else:
            t_next = 0.5 * (lo + hi)
    raise RootNotConverged(edge, t, ht)


def _solve_edges(g, g_other, lo, hi):
    """_edge_roots on edges given as lists of floats."""
    ends = [np.array([eval_value(g, t) for t in x]) for x in (lo, hi)]
    return _edge_roots(g, ends[0], ends[1], np.array(g_other, dtype=float),
                       np.array(lo, dtype=float), np.array(hi, dtype=float))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), grid_n=st.integers(16, 64),
       maker=st.sampled_from([make_random_poly_data, make_accumulation_data]))
def test_batched_edge_roots_equal_scalar_reference(seed, grid_n, maker):
    """Every sign-changing grid edge: the same root, bit for bit."""
    d = maker(np.random.default_rng(seed))
    us, vs = d.domain.u_grid(grid_n + 1), d.domain.v_grid(grid_n + 1)
    g1 = [eval_value(d.g1, u) for u in us]
    g2 = [eval_value(d.g2, v) for v in vs]
    pos = np.outer(g1, g2) - 1.0 > 0
    for g, ts, others, cut in ((d.g1, us, g2, pos[:-1] != pos[1:]),
                               (d.g2, vs, g1, (pos[:, :-1] != pos[:, 1:]).T)):
        edges = [(others[j], float(ts[i]), float(ts[i + 1]))
                 for i, j in zip(*np.nonzero(cut))]
        if not edges:
            continue
        roots = _solve_edges(g, *zip(*edges))
        assert roots.tolist() == [reference_edge_root(g, *e) for e in edges]


def test_edge_root_at_a_zero_end():
    # h = 0 exactly at t = 1 (g = 2t, g_other = 1/2): the end is the root
    g = parse("2*t")
    assert _solve_edges(g, [0.5, 0.5], [1.0, 0.25], [2.0, 1.0]).tolist() \
        == [1.0, 1.0]


def test_edge_root_that_cannot_converge_raises():
    # g g_other = 1 at t = 0.3 - 5e-18, between two floats: |h| >= 1e-12 at
    # every iterate. The edge before it converges; the error names this one.
    g = parse("1e17*(t-0.3)+1.5")
    with pytest.raises(RootNotConverged) as exc:
        _solve_edges(g, [1e-16, 1.0], [0.35, 0.0], [0.45, 1.0])
    assert exc.value.interval == (0.0, 1.0)
    assert abs(exc.value.residual) >= 1e-12
    assert "[0.0, 1.0]" in str(exc.value)
    with pytest.raises(RootNotConverged) as ref:
        reference_edge_root(g, 1.0, 0.0, 1.0)
    assert (exc.value.t, exc.value.residual) == (ref.value.t,
                                                 ref.value.residual)
