"""Why the sign of K is a property of the generating curves.

Each generating curve is lightlike, and after a pseudo-arclength
reparametrization its frame determinant det(gamma_s, gamma_ss, gamma_sss)
is +-1 and locally constant. The product of the two signs equals the sign
of the Gaussian curvature at every regular non-flat point, with no
exceptions. The same sign also falls out of a winding-number count of the
tangent indicatrix, in the spirit of Milnor's curvature comparisons.
"""

import numpy as np

from minface import gallery
from minface.curvature import (AxisSamples, curve_orientation,
                               gaussian_curvature, milnor_sign_check,
                               sign_prediction)
from minface.lorentz import det3, mdot
from minface.verify import check_sign_theorem, make_random_poly_data

kchange = gallery.get("kchange")

print("== orientations of the two generators (sign-changing pair) ==")
print("curve phi: det is -64 u^3, so the orientation flips at u = 0")
for t in (-1.5, -0.5, 0.5, 1.5):
    s_u = curve_orientation(kchange, "u", t).sign
    s_v = curve_orientation(kchange, "v", t).sign
    print(f"  t = {t:+.1f}:  eps_phi = {s_u:+d}   eps_psi = {s_v:+d}")

print()
print("== the product predicts sign K on a grid ==")
print("K = -16uv/(1+u^2v^2)^4 for this pair; table shows sgn K | predicted")
for u in (-1.0, -0.3, 0.3, 1.0):
    row = []
    for v in (-1.0, -0.3, 0.3, 1.0):
        k = gaussian_curvature(kchange, u, v)
        p = sign_prediction(kchange, u, v)
        row.append(f"{'+' if k > 0 else '-'}|{'+' if p > 0 else '-'}")
    print("  " + "   ".join(row))

print()
print("== winding-number route to the same sign ==")
enneper = gallery.get("enneper")
for (u, v) in [(0.5, 0.5), (1.0, 1.0), (-2.0, 1.5)]:
    ok = milnor_sign_check(enneper, u, v)
    print(f"  enneper ({u:+.1f}, {v:+.1f}): winding product matches "
          f"sign K: {ok}")

print()
print("== the unit-acceleration gauge behind the theorem ==")
print("at the rate t_s = <gamma'', gamma''>^(-1/4) = 1/(2 sqrt(t)) the")
print("acceleration has unit pseudo-norm, and the frame determinant is")
print("the orientation sign:")
for t in (0.5, 0.8, 1.0):
    rec = AxisSamples(kchange, "u", t)
    t_s, _ = rec.gauge_rate()
    unit = t_s ** 4 * mdot(rec.acc, rec.acc)
    det = t_s ** 6 * det3(rec.vel, rec.acc, rec.jerk)
    print(f"  t = {t:.1f}:  <gamma_ss, gamma_ss> = {unit:.12f}"
          f"   det(gamma_s, gamma_ss, gamma_sss) = {det:+.12f}")

print()
print("== randomized stress test ==")
rng = np.random.default_rng(42)
for k in range(5):
    d = make_random_poly_data(rng)
    res = check_sign_theorem(d, n=100, seed=k)
    print(f"  random data set {k}: {res.line()}")
