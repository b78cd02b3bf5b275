"""The separable grid sampler against the per-point functions.

The reference below walks every vertex with the scalar per-point bodies of
the curvature route, the flat classification and the area density (the
references of ``curvature_reference`` and ``singular_reference``) and writes
the exports one row at a time with the csv module, as the mesh module once
did.
"""

import csv
import io

import numpy as np
import pytest

from minface import gallery
from minface.errors import SingularNeighborhood, SingularPoint
from minface.lorentz import mdot
from minface.mesh import (MESH_SINGULAR_TOL, export_fields_csv, export_obj,
                          sample_grid)
from minface.surface import as_pair, get_data
from minface.verify import make_random_poly_data

from curvature_reference import (reference_flat_classify,
                                 reference_gaussian_curvature)
from singular_reference import reference_signed_area_density
from test_mesh import masking_example

SIZES = ((64, 64), (24, 20), (2, 2))


def _surfaces():
    out = [(name, gallery.get(name)) for name in gallery.names()]
    rng = np.random.default_rng(314)
    out += [("poly%d" % i, make_random_poly_data(rng)) for i in range(3)]
    out.append(("masking", masking_example()))
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
