"""Tour of Galois ring construction and exact arithmetic.

Builds Z_9 and GR(4,16), prints each ring with its canonical modulus and
the Teichmuller table, and walks through the digit decomposition,
valuation, Frobenius, and trace maps.
"""
from galois_sums import build_ring

print("== Z_9 = GR(3^2, 3^2) ==")
z9 = build_ring(3, 2, 1)
print("ring:", z9)  # the modulus is the ascending coefficient tuple z9.modulus
print("Teichmuller set:", [t.coords[0] for t in z9.teich_set])

five = z9.scalar(5)
digits = z9.teichmuller_decompose(five)
print("5 =", " + ".join(f"3^{i} * {d.coords[0]}" for i, d in enumerate(digits)))
print("recomposed:", z9.teich_recompose(digits).coords[0])

print("valuation of 6:", z9.valuation(z9.scalar(6))[0], "(6 = 3 * 2)")
print("2^(-1) mod 9:", z9.scalar(2).inv().coords[0])

print()
print("== GR(4, 16) = Z_4[x]/(x^2 + x + 1) ==")
g = build_ring(2, 2, 2)
print("ring:", g)
print("|R| =", g.element_count, " |R*| =", len(g.units()))

xi = g.xi
print("xi^2 =", (xi * xi).coords, " (that is 3*xi + 3, i.e. -xi - 1)")
print("frobenius(xi) =", g.frobenius(xi).coords, "= xi^2")
print("trace(xi) =", g.trace(xi))

print()
print("reduction to the residue field F_4:")
red = g.reduced(1)
print("  ", g, "->", red)
x = g.element((2, 3))
print("  ", x.coords, "->", g.reduce(x, 1).coords)
