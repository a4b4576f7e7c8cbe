"""Characters of a Galois ring: the unit-group basis, triviality levels,
orthogonality, and the section extending the deep-subgroup characters.

Character values are exact roots of unity, read as exponents: chi(w) is
exp(2 pi i num / L) for the num that character_numerators gives, L the
ring-wide order, and lambda_b(x) is exp(2 pi i tr(bx) / p^n).
"""
import math

import numpy as np

from galois_sums import build_ring, decompose_unit_group, enumerate_characters, extend_phi
from galois_sums.characters import character_exponents, character_numerators, root_table


def root(num: int, order: int) -> str:
    """exp(2 pi i num / order) in lowest terms."""
    num %= order
    g = math.gcd(num, order)
    return "1" if num == 0 else f"e(2pi*{num // g}/{order // g})"


z9 = build_ring(3, 2, 1)
basis = decompose_unit_group(z9)
L = basis.lcm_order
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
nums = character_numerators(z9, character_exponents(z9), z9.unit_indices())
totals = root_table(L)[nums].sum(axis=1)  # one row per character, one column per unit
for chi, total in zip(enumerate_characters(z9), totals):
    print(f"  {chi.exponents}: {total:.3g}")

print()
print("additive character lambda_1 on Z_9:")
print("  values:", [root(z9.trace(x), z9.pn) for x in z9.elements()][:4], "...")

print()
print("characters phi_a of the subgroup 1 + 3 Z_9, phi_a(1 + 3x) = e(2pi*ax/3),")
print("and the values of their chosen extensions there:")
field = z9.residue_field()
ws = z9.index_of(np.array([[1], [4], [7]]))  # 1 + 3x for x = 0, 1, 2
for a in field.elements():
    ext = extend_phi(z9, a)
    phi = [root(a.coords[0] * x, 3) for x in range(3)]
    vals = [root(v, L) for v in character_numerators(z9, ext.exponents, ws).tolist()]
    print(f"  a = {a.coords[0]}: phi_a {phi}, extension {vals}, exponents {ext.exponents}")
