"""Characters of a Galois ring: the unit-group basis, triviality levels,
orthogonality, and the section extending the deep-subgroup characters.
"""
from galois_sums import (
    AdditiveCharacter,
    SubgroupCharacter,
    decompose_unit_group,
    enumerate_characters,
    extend_phi,
    build_ring,
)

z9 = build_ring(3, 2, 1)
basis = decompose_unit_group(z9)
print("unit group of Z_9 decomposes as:")
for g, d in zip(basis.generators, basis.orders):
    print(f"  <{g.coords[0]}> of order {d}")

print()
print("the 6 multiplicative characters and their triviality levels:")
for chi in enumerate_characters(z9):
    kind = {0: "trivial", 1: "depth-1", 2: "primitive"}[chi.level]
    print(f"  exponents {chi.exponents}  level {chi.level}  ({kind})")

print()
print("orthogonality: sum of chi over the units, per character:")
for chi in enumerate_characters(z9):
    total = sum(chi.eval_unit(u).to_complex() for u in z9.units())
    print(f"  {chi.exponents}: {total:.3g}")

print()
print("additive character lambda_1 on Z_9:")
lam = AdditiveCharacter(z9, z9.one)
print("  values:", [str(lam.eval(x)) for x in z9.elements()][:4], "...")

print()
print("characters of the subgroup 1 + 3 Z_9 and their chosen extensions:")
field = z9.residue_field()
for a in field.elements():
    pa = SubgroupCharacter(z9, a)
    ext = extend_phi(z9, a)
    vals = [str(pa.eval(w)) for w in (z9.scalar(1), z9.scalar(4), z9.scalar(7))]
    print(f"  a = {a.coords[0]}: restriction values {vals}, extension exponents {ext.exponents}")
