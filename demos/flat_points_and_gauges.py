"""Flat points, and the gauges that normalize the generating curves.

A point is flat (K = 0) exactly where a generating curve degenerates, i.e.
where the pseudo-norm <gamma'', gamma''> of a curve acceleration vanishes.
If both curves degenerate the point is umbilic; if exactly one does it is
quasi-umbilic, and quasi-umbilic points sweep out a whole line in the
parameter plane. The bundled "kchange" pair has an umbilic point at the
origin and quasi-umbilic lines along both axes.
"""

from minface import gallery
from minface.curvature import (AxisSamples, energy_gauge, flat_classify,
                               gaussian_curvature, sign_prediction)
from minface.surface import get_data

kchange = gallery.get("kchange")
quasi = gallery.get("ce-quasiumbilic")

print("== flat atlas of the sign-changing pair ==")
pts = [(0.0, 0.0), (0.7, 0.0), (0.0, -1.2), (0.7, -1.2), (1.0, 1.0)]
for (u, v) in pts:
    r = flat_classify(kchange, u, v)
    k = gaussian_curvature(kchange, u, v)
    print(f"  ({u:+.1f}, {v:+.1f})  {r.tag.value:12s}  K = {k:+.6f}")

print()
print("== the flat locus is exactly {K = 0} ==")
print("on the u-axis: K(t, 0) recomputed from the second fundamental form")
for t in (-1.0, -0.25, 0.5, 2.0):
    k = gaussian_curvature(kchange, t, 0.0, method="extrinsic")
    print(f"  K({t:+.2f}, 0) = {k!r}")

print()
print("== unit-acceleration gauge ==")
print("after pseudo-arclength reparametrization of the u-curve, the")
print("normalized data satisfy |g1' w1| = 1/2 identically:")
enneper = gallery.get("enneper")
for (surface, name, t) in [(enneper, "enneper", 0.3),
                           (enneper, "enneper", -1.4),
                           (quasi, "ce-quasiumbilic", 0.7)]:
    t_s, _ = AxisSamples(surface, "u", t).gauge_rate()
    data = get_data(surface)
    tilde = data.g1_jet(t).d1 * t_s * data.w1_jet(t).value * t_s
    print(f"  {name:16s} t = {t:+.1f}:  |g1'~ w1~| = {abs(tilde):.12f}")

print()
print("== energy gauge ==")
print("E = eps (1 - g1 g2)^2 / (4 g1'~ g2'~) satisfies K E^2 = eps = +-1")
for (u, v) in [(0.3, -0.2), (1.0, 1.0), (-2.0, 1.1)]:
    k = gaussian_curvature(enneper, u, v)
    e = energy_gauge(enneper, u, v)
    eps = sign_prediction(enneper, u, v)
    print(f"  ({u:+.1f}, {v:+.1f}):  K E^2 = {k * e * e:+.12f}"
          f"   eps = {eps:+d}")
