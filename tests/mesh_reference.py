"""Per-point and per-row references for the mesh layer.

``reference_positions`` is the position loop ``minface.mesh.sample_grid``
ran before it read each axis from its records in one call: one
``phi_delta`` or ``psi_delta`` query per grid parameter, through the scalar
jet closures. ``reference_export_obj`` and ``reference_export_fields_csv``
are the export bodies that formatted every number of every row where it
was written, the coordinates once per file and u and v once per vertex.
The tests compare the library against them byte for byte.
"""

import numpy as np

from minface.surface import as_pair


def reference_positions(d, nu, nv):
    """Vertex positions of the (nu+1) x (nv+1) grid, row-major."""
    pair = as_pair(d)
    us = pair.domain.u_grid(nu + 1)
    vs = pair.domain.v_grid(nv + 1)
    phi = np.array([pair.phi_delta(u) for u in us])
    psi = np.array([pair.psi_delta(v) for v in vs])
    positions = 0.5 * (phi[:, None, :] + psi[None, :, :]) + pair.f0
    return positions.reshape(-1, 3)


def reference_export_obj(m) -> str:
    return "".join(
        ["v %.17g %.17g %.17g\n" % tuple(x) for x in m.positions.tolist()]
        + ["f %d %d %d\n" % tuple(f) for f in (m.faces + 1).tolist()])


def reference_export_fields_csv(m) -> str:
    def cell(x) -> str:
        return "" if x is None else "%.17g" % x

    rows = zip(m.params.tolist(), m.positions.tolist(), m.k_values,
               m.area_density, m.flat_tags, m.proxies.tolist())
    return "".join(
        ["u,v,x0,x1,x2,K,lambda,flat_tag,sing_proxy\r\n"]
        + ["%.17g,%.17g,%.17g,%.17g,%.17g,%s,%s,%s,%.17g\r\n"
           % (u, v, x[0], x[1], x[2], cell(k), cell(lam),
              "" if tag is None else tag, proxy)
           for (u, v), x, k, lam, tag, proxy in rows])
