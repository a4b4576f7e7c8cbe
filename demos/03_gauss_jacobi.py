"""Gauss and Jacobi sums: brute force against the closed-form laws.

Every sum is computed twice: term by term over the units, and through the
magnitude/value dispatch.  The two agree on every case below, including the
reduction of non-primitive pairs to the quotient ring (with the corrected
scale factor q^(k(m-1)) per level).
"""
import itertools

from galois_sums import (
    MultCharacter,
    build_ring,
    canonical_twists,
    enumerate_characters,
    gauss_sum,
    jacobi,
    jacobi_brute,
)
from galois_sums.characters import project_exponents

z9 = build_ring(3, 2, 1)
chars = enumerate_characters(z9)

print("Gauss sums over Z_9 (character exponents, twist, value, law):")
for chi in chars[:3]:
    for b in canonical_twists(z9):
        sv = gauss_sum(chi, b)
        print(
            f"  chi {chi.exponents}  b {b.coords[0]}:  G = {sv.value:.4g}"
            f"  [{sv.expected.lemma}]  agree: {sv.agrees(z9.q)}"
        )

print()
print("Jacobi sums over Z_9 for a few pairs:")
for c1, c2 in itertools.islice(itertools.product(chars, repeat=2), 0, 12, 3):
    sv = jacobi([c1, c2], z9.one)
    print(
        f"  {c1.exponents} x {c2.exponents}:  J = {sv.value:.4g}"
        f"  [{sv.expected.lemma}]  agree: {sv.agrees(z9.q)}"
    )

print()
print("a primitive triple with primitive product attains |J| = q^((m-1)n/2) = 9:")
prims = [c for c in chars if c.level == z9.n]
triple = [prims[0], prims[1], prims[0]]
sv = jacobi(triple, z9.one)
print(f"  |J| = {abs(sv.value):.6g}  [{sv.expected.lemma}]")

print()
print("reduction of a non-primitive pair to the quotient ring (scale q^k):")
z27 = build_ring(3, 3, 1)
low = [c for c in enumerate_characters(z27) if c.level <= 2]  # trivial on 1 + 9 Z_27
pair = [low[1], low[1]]
projected = project_exponents(z27, [c.exponents for c in pair], 1)
proj = [MultCharacter(z27.reduced(1), e) for e in projected.tolist()]
lhs = jacobi_brute(pair, z27.one).value
rhs = jacobi_brute(proj, z27.reduce(z27.one, 1)).value
print(f"  J over Z_27 = {lhs:.4g},  q^1 * J over Z_9 = {3 * rhs:.4g}")
