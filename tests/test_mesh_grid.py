"""The separable grid sampler against the per-point functions.

The reference below walks every vertex with the scalar per-point bodies of
the curvature route, the flat classification and the area density (the
references of ``curvature_reference`` and ``singular_reference``) and writes
the exports one row at a time with the csv module, as the mesh module once
did. ``mesh_reference`` holds the per-point position loop and the per-row
export bodies that the one-call-per-axis positions and the once-formatted
exports replaced.
"""

import csv
import io
from collections import Counter

import numpy as np
import pytest

from minface import expr, gallery
from minface.errors import MinfaceError, SingularNeighborhood, SingularPoint
from minface.lorentz import mdot
from minface.mesh import (MESH_SINGULAR_TOL, export_fields_csv, export_obj,
                          sample_grid)
from minface.surface import (RealWeierstrassData, Rect, as_pair, get_data,
                             pair_from_position_expressions)
from minface.verify import make_random_poly_data

from curvature_reference import (reference_flat_classify,
                                 reference_gaussian_curvature)
from mesh_reference import (reference_export_fields_csv, reference_export_obj,
                            reference_positions)
from singular_reference import reference_signed_area_density
from test_mesh import masking_example
from test_verify_arrays import _patch_everywhere

SIZES = ((64, 64), (24, 20), (2, 2))


def _surfaces():
    out = [(name, gallery.get(name)) for name in gallery.names()]
    rng = np.random.default_rng(314)
    out += [("poly%d" % i, make_random_poly_data(rng)) for i in range(3)]
    out.append(("masking", masking_example()))
    # a raw curve pair whose base parameters differ from each other
    spec = gallery.spec_dict("kchange")
    out.append(("kchange-based", pair_from_position_expressions(
        spec["phi"], spec["psi"], Rect(-2, 2, -2, 2), base=(0.5, -1.25))))
    return out


SURFACES = dict(_surfaces())


def reference_mesh(d, nu, nv):
    """Per-vertex fields from the per-point functions, in row-major order."""
    pair = as_pair(d)
    data = get_data(d)
    us = pair.domain.u_grid(nu + 1)
    vs = pair.domain.v_grid(nv + 1)
    phi = [pair.phi_delta(u) for u in us]
    psi = [pair.psi_delta(v) for v in vs]
    params, positions, proxies = [], [], []
    k_values, densities, tags = [], [], []
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            params.append((u, v))
            positions.append(0.5 * (phi[i] + psi[j]) + pair.f0)
            if data is not None:
                proxy = abs(data.g1_jet(u).value * data.g2_jet(v).value - 1.0)
                k = (None if proxy <= MESH_SINGULAR_TOL
                     else reference_gaussian_curvature(d, u, v))
                densities.append(reference_signed_area_density(d, u, v))
            else:
                proxy = abs(0.25 * mdot(pair.phi_prime_value(u),
                                        pair.psi_prime_value(v)))
                try:
                    k = reference_gaussian_curvature(d, u, v)
                except (SingularPoint, SingularNeighborhood):
                    k = None
                densities.append(None)
            proxies.append(proxy)
            k_values.append(k)
            try:
                tags.append(reference_flat_classify(d, u, v).tag.code)
            except SingularPoint:
                tags.append(None)
    faces = []
    for i in range(nu):
        for j in range(nv):
            v00 = i * (nv + 1) + j
            v10 = (i + 1) * (nv + 1) + j
            faces.append((v00, v10, v10 + 1))
            faces.append((v00, v10 + 1, v00 + 1))
    return dict(params=np.array(params), positions=np.array(positions),
                proxies=np.array(proxies), faces=np.array(faces, dtype=int),
                k_values=tuple(k_values), area_density=tuple(densities),
                flat_tags=tuple(tags))


def reference_obj(m) -> str:
    buf = io.StringIO()
    for x in m.positions:
        buf.write("v %.17g %.17g %.17g\n" % (x[0], x[1], x[2]))
    for f in m.faces:
        buf.write("f %d %d %d\n" % (f[0] + 1, f[1] + 1, f[2] + 1))
    return buf.getvalue()


def reference_csv(m) -> str:
    def fmt(x):
        return "" if x is None else "%.17g" % x

    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["u", "v", "x0", "x1", "x2", "K", "lambda", "flat_tag",
                     "sing_proxy"])
    for k in range(len(m.positions)):
        u, v = m.params[k]
        x = m.positions[k]
        tag = m.flat_tags[k]
        writer.writerow(["%.17g" % u, "%.17g" % v, "%.17g" % x[0],
                         "%.17g" % x[1], "%.17g" % x[2], fmt(m.k_values[k]),
                         fmt(m.area_density[k]),
                         "" if tag is None else str(tag),
                         "%.17g" % m.proxies[k]])
    return buf.getvalue()


def _bit_identical(got, want):
    assert [g is None for g in got] == [w is None for w in want]
    g = np.array([x for x in got if x is not None], dtype=float)
    w = np.array([x for x in want if x is not None], dtype=float)
    assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("size", SIZES, ids=lambda s: "%dx%d" % s)
@pytest.mark.parametrize("name", sorted(SURFACES))
def test_grid_matches_per_point_functions(name, size):
    d = SURFACES[name]
    m = sample_grid(d, *size)
    ref = reference_mesh(d, *size)
    for key in ("params", "positions", "proxies", "faces"):
        assert np.array_equal(getattr(m, key), ref[key]), key
    assert m.faces.dtype == ref["faces"].dtype
    assert m.flat_tags == ref["flat_tags"]
    _bit_identical(m.k_values, ref["k_values"])
    _bit_identical(m.area_density, ref["area_density"])
    assert all(type(x) is float for x in m.k_values if x is not None)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_exports_match_per_row_writer(name, tmp_path):
    m = sample_grid(SURFACES[name], 24, 20)
    obj, fields = tmp_path / "m.obj", tmp_path / "m.csv"
    export_obj(m, obj)
    export_fields_csv(m, fields)
    assert obj.read_bytes() == reference_obj(m).encode("utf-8")
    assert fields.read_bytes() == reference_csv(m).encode("utf-8")


@pytest.mark.parametrize("size", SIZES, ids=lambda s: "%dx%d" % s)
@pytest.mark.parametrize("name", sorted(SURFACES))
def test_positions_and_exports_equal_per_point_references(name, size,
                                                          tmp_path):
    d = SURFACES[name]
    m = sample_grid(d, *size)
    assert m.positions.tobytes() == reference_positions(d, *size).tobytes()
    obj, fields = tmp_path / "m.obj", tmp_path / "m.csv"
    export_obj(m, obj)
    export_fields_csv(m, fields)
    assert obj.read_bytes() == reference_export_obj(m).encode("utf-8")
    assert fields.read_bytes() == reference_export_fields_csv(m).encode(
        "utf-8")
    # each file alone, and the CSV first: the shared strings are the same
    for export, path in ((export_obj, obj), (export_fields_csv, fields)):
        buf = io.StringIO(newline="")
        export(sample_grid(d, *size), buf)
        assert buf.getvalue().encode("utf-8") == path.read_bytes()


def _scalar_evaluations(monkeypatch):
    """Counts of the scalar eval_jet and eval_value calls, by name."""
    calls = Counter()
    for fn in (expr.eval_jet, expr.eval_value):
        def counted(*args, fn=fn):
            calls[fn.__name__] += 1
            return fn(*args)

        _patch_everywhere(monkeypatch, fn, counted)
    return calls


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_grid_positions_make_no_per_point_scalar_evaluation(name,
                                                            monkeypatch):
    d = SURFACES[name]
    sample_grid(d, 2, 2)  # the position integrals are built
    calls = _scalar_evaluations(monkeypatch)
    sample_grid(d, 64, 64)
    # a raw curve pair reads its base position: three values per axis
    raw = get_data(d) is None
    assert calls == (Counter(eval_value=6) if raw else Counter())


def test_a_failing_grid_raises_what_the_per_point_positions_raise():
    # w1 fails at u = 0, g1 at u = 0.5: point by point, w1 fails first;
    # evaluated axis-wide, g1 (evaluated before w1) would
    d = RealWeierstrassData.from_strings("1/(u-0.5)", "v", "2+0*(1/u)", "1",
                                         Rect(-1, 1, -1, 1))
    for size in SIZES:
        with pytest.raises(MinfaceError) as want:
            reference_positions(d, *size)
        with pytest.raises(MinfaceError) as got:
            sample_grid(d, *size)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value) == (
            "division by zero at offset 4..9")
