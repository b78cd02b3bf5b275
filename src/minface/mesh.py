"""Grid sampling with per-vertex fields, Wavefront OBJ and CSV export.

The mesh is a plain triangulated regular grid over the parameter rectangle.
Scalar fields (curvature, signed area density, flat tag, proximity to the
singular set) ride along with each vertex so exports need no recomputation.
Every field is built from one-variable functions of u and of v: each
generating curve is sampled once per grid axis (``curvature.AxisSamples``),
and the vertex fields are two-variable formulas broadcast over the records.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .curvature import (AxisSamples, area_density_samples, closed_k_samples,
                        extrinsic_k_samples, lambda_samples, regular_samples)
from .errors import MinfaceError
from .surface import Surface, as_pair

# A vertex counts as singular (its K cell is left absent) when the proximity
# proxy |g1 g2 - 1| falls below this.
MESH_SINGULAR_TOL = 1e-8


@dataclass(frozen=True)
class SurfaceMesh:
    """Triangulated regular grid over the parameter rectangle.

    Vertices are stored row-major: the vertex at grid indices (i, j) sits at
    flat index i*(nv+1)+j. Each grid quad is split along its (i, j) to
    (i+1, j+1) diagonal into two triangles. Per-vertex scalars are parallel
    to ``positions``; ``k_values`` and ``flat_tags`` hold None at vertices on
    the singular band, ``area_density`` is None throughout for raw curve
    pairs (it needs the data functions). ``proxies`` is |g1 g2 - 1| when data
    functions exist and |Lambda| otherwise; both vanish exactly on the
    singular set. Arrays are not to be mutated: the exports format the
    coordinates once, on first use, and keep the strings.
    """

    params: np.ndarray     # (N, 2) of (u, v)
    positions: np.ndarray  # (N, 3)
    k_values: Tuple[Optional[float], ...]
    area_density: Tuple[Optional[float], ...]
    flat_tags: Tuple[Optional[int], ...]
    proxies: np.ndarray    # (N,)
    faces: np.ndarray      # (M, 3) int, vertex indices
    nu: int
    nv: int
    singular_polylines: tuple = ()

    @cached_property
    def _xyz(self) -> list:
        """Each vertex's coordinates as one "x0,x1,x2" string (%.17g)."""
        return ("%.17g,%.17g,%.17g\n" * len(self.positions)
                % tuple(self.positions.ravel().tolist())).splitlines()


def _cells(values: np.ndarray, keep: np.ndarray) -> tuple:
    """Row-major tuple of the values, with None where keep is false."""
    return tuple(x if k else None
                 for x, k in zip(values.ravel().tolist(),
                                 keep.ravel().tolist()))


def sample_grid(d: Surface, nu: int, nv: int) -> SurfaceMesh:
    """Sample a surface on an (nu+1) x (nv+1) grid of its domain rectangle.

    Positions come from one call per axis (``NullCurvePair.axis_deltas``)
    on the axis records, which evaluate each curve once. The K cell is
    withheld (None) where the singular proxy is at most
    MESH_SINGULAR_TOL, and the flat tag likewise (flatness is undefined on
    the singular set). Values agree with the per-point functions
    (gaussian_curvature, flat_classify, signed_area_density) at each vertex.
    """
    if nu < 2 or nv < 2:
        raise ValueError(f"need nu, nv >= 2, got ({nu!r}, {nv!r})")
    pair = as_pair(d)
    us = pair.domain.u_grid(nu + 1)
    vs = pair.domain.v_grid(nv + 1)
    try:
        su = AxisSamples(d, "u", us[:, None])
        sv = AxisSamples(d, "v", vs[None, :])
    except MinfaceError:
        # the positions come first: raise what querying them point by point
        # raises, if anything, before the records' error
        for u in us:
            pair.phi_delta(u)
        for v in vs:
            pair.psi_delta(v)
        raise
    # the records broadcast: (nu+1, 1, 3) + (1, nv+1, 3)
    positions = 0.5 * (pair.axis_deltas(su) + pair.axis_deltas(sv)) + pair.f0
    params = np.column_stack([np.repeat(us, nv + 1), np.tile(vs, nu + 1)])
    tags = su.flat().astype(int) + sv.flat()
    if su.g is not None:
        with np.errstate(all="ignore"):
            proxies = np.abs(su.g.value * sv.g.value - 1.0)
        densities = tuple(area_density_samples(su, sv).ravel().tolist())
        # the closed route of gaussian_curvature, withheld on the band
        k, has_k = closed_k_samples(su, sv)
        has_k &= proxies > MESH_SINGULAR_TOL
    else:
        proxies = np.abs(lambda_samples(su, sv))
        densities = (None,) * proxies.size
        k, has_k = extrinsic_k_samples(su, sv)
    idx = np.arange(proxies.size).reshape(nu + 1, nv + 1)
    faces = np.stack([idx[:-1, :-1], idx[1:, :-1], idx[1:, 1:],
                      idx[:-1, :-1], idx[1:, 1:], idx[:-1, 1:]], axis=-1)
    return SurfaceMesh(params, positions.reshape(-1, 3), _cells(k, has_k),
                       densities, _cells(tags, regular_samples(su, sv)),
                       proxies.ravel(), faces.reshape(-1, 3), nu, nv)


def _write_text(destination, *parts: str) -> None:
    """Write the parts, in order, to a path or a file object."""
    if hasattr(destination, "write"):
        for part in parts:
            destination.write(part)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            for part in parts:
                fh.write(part)


def export_obj(m: SurfaceMesh, path) -> None:
    """Wavefront OBJ with full-precision vertices and 1-based face indices."""
    _write_text(path,
                ("v %s\n" * len(m._xyz) % tuple(m._xyz)).replace(",", " "),
                "f %d %d %d\n" * len(m.faces)
                % tuple((m.faces + 1).ravel().tolist()))


def export_fields_csv(m: SurfaceMesh, path) -> None:
    """Per-vertex scalar fields, one row per vertex in row-major grid order.

    Columns: u, v, x0, x1, x2, K, lambda, flat_tag, sing_proxy. Cells whose
    value is withheld on the mesh (K and flat_tag on the singular band,
    lambda for raw curve pairs) are left empty. Rows end in CRLF, as the
    csv module writes them.
    """

    def cell(x) -> str:
        return "" if x is None else "%.17g" % x

    # u and v formatted once per axis value: vertex (i, j) is (us[i], vs[j])
    us = ["%.17g," % u for u in m.params[::m.nv + 1, 0].tolist()]
    vs = ["%.17g," % v for v in m.params[:m.nv + 1, 1].tolist()]
    rows = zip([u + v for u in us for v in vs], m._xyz, m.k_values,
               m.area_density, m.flat_tags, m.proxies.tolist())
    _write_text(path, "u,v,x0,x1,x2,K,lambda,flat_tag,sing_proxy\r\n",
                "".join(["%s%s,%s,%s,%s,%.17g\r\n"
                         % (uv, x, cell(k), cell(lam),
                            "" if tag is None else tag, proxy)
                         for uv, x, k, lam, tag, proxy in rows]))
