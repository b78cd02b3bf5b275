"""Grid sampling, vertex masking on the singular band, OBJ and CSV export."""

import csv
import io
import math

import numpy as np
import pytest

from minface.mesh import (MESH_SINGULAR_TOL, SurfaceMesh, export_fields_csv,
                          export_obj, sample_grid)
from minface.surface import RealWeierstrassData, Rect


@pytest.fixture(scope="module")
def small_mesh(ce_quasi):
    return sample_grid(ce_quasi, 4, 6)


@pytest.fixture(scope="module")
def masked_mesh():
    return sample_grid(masking_example(), 64, 64)


def masking_example():
    """Data whose singular set u v = -1 hits dyadic grid points exactly.

    On [-2, 2]^2 with 64 cells per axis the grid step is 1/16, and the six
    lattice points (±1/2, ∓2), (±1, ∓1), (±2, ∓1/2) satisfy u v = -1 in
    exact floating point.
    """
    return RealWeierstrassData.from_strings("u", "-v", "1/2", "1/2",
                                            Rect(-2, 2, -2, 2))


def test_grid_shapes(small_mesh):
    assert isinstance(small_mesh, SurfaceMesh)
    assert small_mesh.params.shape == (5 * 7, 2)
    assert small_mesh.positions.shape == (5 * 7, 3)
    assert small_mesh.faces.shape == (2 * 4 * 6, 3)
    assert len(small_mesh.k_values) == 35


def test_grid_is_row_major_and_faces_split_quads(ce_quasi):
    m = sample_grid(ce_quasi, 2, 2)
    assert len(m.positions) == 9
    assert len(m.faces) == 8
    # vertex (i, j) sits at flat index i*(nv+1)+j
    assert m.params[0] == pytest.approx((0.0, -2.0))
    assert m.params[3 * 1 + 2] == pytest.approx((1.0, 2.0))
    assert tuple(m.faces[0]) == (0, 3, 4)
    assert tuple(m.faces[1]) == (0, 4, 1)
    # every face references valid vertices
    assert m.faces.min() == 0 and m.faces.max() == 8


def test_rejects_degenerate_grid(ce_quasi):
    with pytest.raises(ValueError):
        sample_grid(ce_quasi, 1, 8)
    with pytest.raises(ValueError):
        sample_grid(ce_quasi, 8, 0)


def test_positions_match_direct_evaluation(ce_quasi):
    from minface.surface import evaluate

    m = sample_grid(ce_quasi, 4, 4)
    for k in (0, 7, 12, 24):
        u, v = m.params[k]
        assert m.positions[k] == pytest.approx(evaluate(ce_quasi, u, v),
                                               abs=1e-12)


def test_exactly_six_vertices_masked_on_singular_lattice(masked_mesh):
    m = masked_mesh
    masked = [k for k in range(len(m.positions))
              if m.k_values[k] is None]
    assert len(masked) == 6
    expected = {(0.5, -2.0), (1.0, -1.0), (2.0, -0.5),
                (-0.5, 2.0), (-1.0, 1.0), (-2.0, 0.5)}
    got = {tuple(m.params[k]) for k in masked}
    assert got == expected
    for k in masked:
        assert m.proxies[k] == 0.0
        assert m.flat_tags[k] is None
        # the signed area density is still defined: it vanishes there
        assert m.area_density[k] == 0.0
    unmasked_proxies = [float(m.proxies[k]) for k in range(len(m.positions))
                        if k not in set(masked)]
    assert min(unmasked_proxies) > 1e3 * MESH_SINGULAR_TOL


def test_data_mode_fields_are_populated_off_band():
    m = sample_grid(masking_example(), 8, 8)
    for k in range(len(m.positions)):
        if m.k_values[k] is not None:
            assert m.flat_tags[k] in (0, 1, 2)
            assert m.area_density[k] is not None
            assert m.proxies[k] > MESH_SINGULAR_TOL


def test_raw_pair_mesh_uses_area_proxy(kchange):
    m = sample_grid(kchange, 6, 6)
    assert all(d is None for d in m.area_density)
    assert all(k is not None for k in m.k_values)
    for k in range(len(m.positions)):
        u, v = m.params[k]
        # |Lambda| = (1 + u^2 v^2)^2 / 2 for this pair
        assert m.proxies[k] == pytest.approx((1 + (u * v) ** 2) ** 2 / 2,
                                             rel=1e-12)


def test_obj_round_trip(small_mesh, tmp_path):
    path = tmp_path / "mesh.obj"
    export_obj(small_mesh, path)
    verts = []
    faces = []
    for line in path.read_text().splitlines():
        parts = line.split()
        if parts[0] == "v":
            verts.append([float(x) for x in parts[1:]])
        elif parts[0] == "f":
            faces.append([int(x) for x in parts[1:]])
    assert len(verts) == len(small_mesh.positions)
    # %.17g makes the text round trip bit-exact
    assert np.array_equal(np.array(verts), small_mesh.positions)
    assert np.array_equal(np.array(faces) - 1, small_mesh.faces)
    assert min(min(f) for f in faces) == 1


def test_obj_accepts_file_object(small_mesh):
    buf = io.StringIO()
    export_obj(small_mesh, buf)
    assert buf.getvalue().startswith("v ")


def test_fields_csv(masked_mesh, tmp_path):
    m = masked_mesh
    path = tmp_path / "fields.csv"
    export_fields_csv(m, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["u", "v", "x0", "x1", "x2", "K", "lambda",
                       "flat_tag", "sing_proxy"]
    assert len(rows) == 1 + len(m.positions)
    blanks = [r for r in rows[1:] if r[5] == ""]
    assert len(blanks) == 6
    for r in blanks:
        assert r[7] == ""           # flat tag withheld with K
        assert float(r[6]) == 0.0   # lambda = 0 on the singular set
        assert float(r[8]) == 0.0
    full = next(r for r in rows[1:] if r[5] != "")
    assert math.isfinite(float(full[5]))
    assert full[7] in ("0", "1", "2")


def test_fields_csv_raw_pair_blank_lambda(kchange, tmp_path):
    m = sample_grid(kchange, 4, 4)
    path = tmp_path / "raw.csv"
    export_fields_csv(m, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(r[6] == "" for r in rows[1:])
    assert all(r[5] != "" for r in rows[1:])
