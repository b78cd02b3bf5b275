"""Split-complex numbers and where they show up in the surface equations.

The algebra R[j]/(j^2 - 1) plays the role complex numbers play for
Euclidean minimal surfaces. Its square modulus x^2 - y^2 is indefinite,
the plane splits along the zero divisors (1 +- j)/2 into null coordinates,
and splitting diagonalizes multiplication. The surface integrand built
from paraholomorphic data is a null vector with split-complex entries
whose two null components are the velocities of the generating curves.

A split-complex number x + j y is the pair (x, y) below.
"""

from minface.lorentz import mdot
from minface.surface import RealWeierstrassData, Rect, jets_at


def mul(a, b):
    """(x1 + j y1)(x2 + j y2) with j^2 = +1."""
    return (a[0] * b[0] + a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def split(z):
    """The null coordinates (x + y, x - y); they multiply componentwise."""
    return (z[0] + z[1], z[0] - z[1])


def minkowski(z1, z2):
    """The model metric of L^2: -Re(conj(z1) z2) = -(x1 x2 - y1 y2)."""
    return -(z1[0] * z2[0] - z1[1] * z2[1])


J = (0.0, 1.0)

print("== arithmetic ==")
a, b = (2.0, 1.0), (0.5, -1.5)
print(f"a = {a}, b = {b}")
print(f"a*b   = {mul(a, b)}")
print(f"j^2   = {mul(J, J)}")
print(f"|a|^2 = {a[0] ** 2 - a[1] ** 2}, |1+2j|^2 = {1.0 - 2.0 ** 2}"
      "  (indefinite)")
e_plus, e_minus = (0.5, 0.5), (0.5, -0.5)
print(f"zero divisors: e+ * e- = {mul(e_plus, e_minus)}")

print()
print("== splitting diagonalizes the algebra ==")
ap, am = split(a)
bp, bm = split(b)
pp, pm = split(mul(a, b))
print(f"split(a) = ({ap}, {am}),  split(b) = ({bp}, {bm})")
print(f"split(a*b) = ({pp}, {pm}),  componentwise products = "
      f"({ap * bp}, {am * bm})")
print("the model metric -Re(conj(z1) z2) has signature (-, +):")
print(f"  <1, 1> = {minkowski((1.0, 0.0), (1.0, 0.0))},  <j, j> = "
      f"{minkowski(J, J)},  <e+, e+> = {minkowski(e_plus, e_plus)}")

print()
print("== the null integrand of a surface ==")
data = RealWeierstrassData.from_strings("u", "-v", "1/2", "1/2",
                                        Rect(-3, 3, -3, 3))
u, v = 0.7, -0.4
# the paraholomorphic g and w, assembled from their null-coordinate parts
g1, g2 = data.g1_jet(u).value, data.g2_jet(v).value
w1, w2 = data.w1_jet(u).value, data.w2_jet(v).value
g = (0.5 * (g1 + g2), 0.5 * (g1 - g2))
w = (0.5 * (w1 + w2), 0.5 * (w1 - w2))
# (-1 - g^2, j (1 - g^2), 2 g) w: twice the L3-valued integrand
gg = mul(g, g)
comps = (mul((-1.0 - gg[0], -gg[1]), w),
         mul(J, mul((1.0 - gg[0], -gg[1]), w)),
         mul((2.0 * g[0], 2.0 * g[1]), w))
sq = [-x + y + z for x, y, z in zip(*(mul(c, c) for c in comps))]
print(f"componentwise L3 square of the integrand: {sq}  (the zero element)")

phi_vel = [split(c)[0] for c in comps]
psi_vel = [-split(c)[1] for c in comps]
sj = jets_at(data, u, v)
print("split of 2 * integrand vs the surface tangents (f = (phi+psi)/2):")
print(f"  u-part           = {[round(x, 12) for x in phi_vel]}")
print(f"  2 f_u from jets  = {[round(float(x), 12) for x in 2 * sj.f_u]}")
print(f"  -(v-part)        = {[round(x, 12) for x in psi_vel]}")
print(f"  2 f_v from jets  = {[round(float(x), 12) for x in 2 * sj.f_v]}")
print(f"both split parts are lightlike: <phi', phi'> = "
      f"{mdot(phi_vel, phi_vel):.2e}, <psi', psi'> = "
      f"{mdot(psi_vel, psi_vel):.2e}")
