"""Grid sampling with per-vertex fields, Wavefront OBJ and CSV export.

The mesh is a plain triangulated regular grid over the parameter rectangle.
Scalar fields (curvature, signed area density, flat tag, proximity to the
singular set) ride along with each vertex so exports need no recomputation.
Every field is built from one-variable functions of u and of v, so each
generating curve is evaluated once per grid axis and the vertex fields are
numpy broadcasts of those axis samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .curvature import FLAT_TOL
from .lorentz import METRIC, enorm, mdot
from .surface import REGULAR_TOL, Surface, as_pair, get_data

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
    singular set. Arrays are not to be mutated.
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

    @property
    def vertices(self):
        """Per-vertex records (position, K, lambda, flat_tag, proxy)."""
        return [(self.positions[i], self.k_values[i], self.area_density[i],
                 self.flat_tags[i], float(self.proxies[i]))
                for i in range(len(self.positions))]


def _axis_jets(curve, ts) -> Tuple[np.ndarray, np.ndarray]:
    """Velocity and acceleration of a null curve at each t, as (n, 3) arrays."""
    jets = [curve(t) for t in ts]
    return (np.array([[c.value for c in j] for j in jets]),
            np.array([[c.d1 for c in j] for j in jets]))


def _data_axis(g_jet, w_jet, ts):
    """g, g' and w of one side of the Weierstrass data at each t."""
    gs = [g_jet(t) for t in ts]
    return (np.array([g.value for g in gs]), np.array([g.d1 for g in gs]),
            np.array([w_jet(t).value for t in ts]))


def _curve_flat(vel: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """Per axis point, whether the curve degenerates (as flat_classify)."""
    scale = (1.0 + enorm(vel) + enorm(acc)) ** 2
    return np.abs(mdot(acc, acc)) <= FLAT_TOL * scale


def _cells(values: np.ndarray, keep: np.ndarray) -> tuple:
    """Row-major tuple of the values, with None where keep is false."""
    return tuple(x if k else None
                 for x, k in zip(values.ravel().tolist(),
                                 keep.ravel().tolist()))


def _extrinsic_k(vel_u, acc_u, vel_v, acc_v):
    """K = -Q R / Lambda^2 at every vertex of a raw curve pair.

    Follows jets_at and gaussian_curvature_extrinsic step by step; returns K
    and where it exists (where those raise SingularPoint it does not).
    """
    f_u, f_uu = 0.5 * vel_u[:, None, :], 0.5 * acc_u[:, None, :]
    f_v, f_vv = 0.5 * vel_v[None, :, :], 0.5 * acc_v[None, :, :]
    lam = mdot(f_u, f_v)
    scale = enorm(f_u) * enorm(f_v)
    w_l = np.cross(f_u, f_v) * METRIC
    s2 = mdot(w_l, w_l)
    nu = w_l / np.sqrt(s2)[..., None]
    k = -mdot(f_uu, nu) * mdot(f_vv, nu) / lam ** 2
    ok = ((s2 > (REGULAR_TOL * np.maximum(scale, 1e-30)) ** 2)
          & (np.abs(lam) > REGULAR_TOL * np.maximum(scale, 1e-300)))
    return k, ok


def sample_grid(d: Surface, nu: int, nv: int) -> SurfaceMesh:
    """Sample a surface on an (nu+1) x (nv+1) grid of its domain rectangle.

    Positions come from the curve integrals, cached once per axis. The K
    cell is withheld (None) where the singular proxy is at most
    MESH_SINGULAR_TOL, and the flat tag likewise (flatness is undefined on
    the singular set). Values agree with the per-point functions
    (gaussian_curvature, flat_classify, signed_area_density) at each vertex.
    """
    if nu < 2 or nv < 2:
        raise ValueError(f"need nu, nv >= 2, got ({nu!r}, {nv!r})")
    pair = as_pair(d)
    data = get_data(d)
    us = pair.domain.u_grid(nu + 1)
    vs = pair.domain.v_grid(nv + 1)
    # positions split into per-axis curve integrals, so sample each axis once
    phi = np.array([pair.phi_delta(u) for u in us])
    psi = np.array([pair.psi_delta(v) for v in vs])
    positions = 0.5 * (phi[:, None, :] + psi[None, :, :]) + pair.f0
    params = np.column_stack([np.repeat(us, nv + 1), np.tile(vs, nu + 1)])
    vel_u, acc_u = _axis_jets(pair.phi_prime, us)
    vel_v, acc_v = _axis_jets(pair.psi_prime, vs)
    lam = 0.25 * mdot(vel_u[:, None, :], vel_v[None, :, :])
    scale = enorm(vel_u)[:, None] * enorm(vel_v)[None, :]
    regular = np.abs(lam) > REGULAR_TOL * np.maximum(scale, 1e-300)
    tags = (_curve_flat(vel_u, acc_u).astype(int)[:, None]
            + _curve_flat(vel_v, acc_v)[None, :])
    with np.errstate(all="ignore"):
        if data is not None:
            g1, g1p, w1 = _data_axis(data.g1_jet, data.w1_jet, us)
            g2, g2p, w2 = _data_axis(data.g2_jet, data.w2_jet, vs)
            gg = np.multiply.outer(g1, g2)
            proxies = np.abs(gg - 1.0)
            one_m = 1.0 - gg
            # the closed route of gaussian_curvature; off the singular band
            # it raises SingularPoint only where denom is 0
            denom = np.multiply.outer(w1, w2) * one_m ** 4
            k = (4.0 * g1p)[:, None] * g2p[None, :] / denom
            has_k = (proxies > MESH_SINGULAR_TOL) & (denom != 0.0)
            density = (np.multiply.outer(-0.5 * w1, w2) * one_m
                       * np.sqrt(one_m ** 2
                                 + 2.0 * np.add.outer(g1, g2) ** 2))
            densities = tuple(density.ravel().tolist())
        else:
            proxies = np.abs(lam)
            k, has_k = _extrinsic_k(vel_u, acc_u, vel_v, acc_v)
            densities = (None,) * proxies.size
    idx = np.arange(proxies.size).reshape(nu + 1, nv + 1)
    faces = np.stack([idx[:-1, :-1], idx[1:, :-1], idx[1:, 1:],
                      idx[:-1, :-1], idx[1:, 1:], idx[:-1, 1:]], axis=-1)
    return SurfaceMesh(params, positions.reshape(-1, 3), _cells(k, has_k),
                       densities, _cells(tags, regular), proxies.ravel(),
                       faces.reshape(-1, 3), nu, nv)


def _write_text(destination, text: str) -> None:
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def export_obj(m: SurfaceMesh, path) -> None:
    """Wavefront OBJ with full-precision vertices and 1-based face indices."""
    _write_text(path, "".join(
        ["v %.17g %.17g %.17g\n" % tuple(x) for x in m.positions.tolist()]
        + ["f %d %d %d\n" % tuple(f) for f in (m.faces + 1).tolist()]))


def export_fields_csv(m: SurfaceMesh, path) -> None:
    """Per-vertex scalar fields, one row per vertex in row-major grid order.

    Columns: u, v, x0, x1, x2, K, lambda, flat_tag, sing_proxy. Cells whose
    value is withheld on the mesh (K and flat_tag on the singular band,
    lambda for raw curve pairs) are left empty. Rows end in CRLF, as the
    csv module writes them.
    """

    def cell(x) -> str:
        return "" if x is None else "%.17g" % x

    rows = zip(m.params.tolist(), m.positions.tolist(), m.k_values,
               m.area_density, m.flat_tags, m.proxies.tolist())
    _write_text(path, "".join(
        ["u,v,x0,x1,x2,K,lambda,flat_tag,sing_proxy\r\n"]
        + ["%.17g,%.17g,%.17g,%.17g,%.17g,%s,%s,%s,%.17g\r\n"
           % (u, v, x[0], x[1], x[2], cell(k), cell(lam),
              "" if tag is None else tag, proxy)
           for (u, v), x, k, lam, tag, proxy in rows]))
