"""The closed-form route: the magnitude laws of Gauss, Jacobi and modified Jacobi sums.

An expectation carries a tagged magnitude (zero, a power of q, an explicit
integer, or an exact complex value) and a token naming the law that produced
it.  A Gauss sum's law is gauss_law(ring, level, b); every law transform, the
rotation by a root of unity (Expected.rotated) and the q^j scale of a digit
reduction, is Expected._times.

The Jacobi dispatch runs over tables: jacobi_expected_table takes C exponent
tuples and one canonical twist a; another twist p^k u is rotated by
chi_1...chi_m(u), read at u's coordinate lift (_twist_scalars).  A field
base ring (n = 1) is summed by brute force.  Otherwise each tuple gets one
class code from per-ring tables: the levels of its characters, of their
product, and chi_m(-1).  The code indexes the ring's class table for (m, a)
(_class_table), whose entries _jacobi_class fills once per class: a constant
shared by the class (all trivial, vanishing, integer pair laws), a Gauss
quotient (brute-force Gauss values read by character index, one kernel call
per twist), a split (a = 0: the sum is symmetric under joint permutation of
characters and coordinates, so one nontrivial character splits off), or a
reduction: every character is trivial on 1 + p^(n-k) R for the maximal
common k >= 1, and the sum reduces to the quotient ring with a digit-count
scale factor of q^(k(m-1)) per level.  The field base and the Gauss
quotients are this route's only reads of the brute-force one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .brute import _gauss_fill, _tuple_sums
from .characters import (
    DEFAULT_TERM_CAP,
    RootOfUnity,
    _check_k,
    _exponent_tuples,
    character_levels,
    character_numerators,
    character_signs,
    decompose_unit_group,
    project_exponents,
)
from .errors import BrokenInvariant
from .ring import GaloisRing, RingElement, ring_table


@dataclass(frozen=True)
class Expected:
    """Closed-form expectation for a character sum.

    kind is one of "zero", "power_of_q" (magnitude q**exponent), "integer"
    (exact signed integer value), "exact" (exact complex value), or
    "unclassified"; value carries the predicted complex number whenever the
    law pins one down.
    """

    kind: str
    lemma: str
    exponent: Fraction | None = None
    integer: int | None = None
    value: complex | None = None

    @classmethod
    def zero(cls, lemma: str) -> Expected:
        return cls("zero", lemma, value=0j)

    @classmethod
    def of_integer(cls, i: int, lemma: str) -> Expected:
        return cls("integer", lemma, integer=i, value=complex(i))

    @classmethod
    def power(cls, exponent: Fraction, lemma: str, value: complex | None = None) -> Expected:
        return cls("power_of_q", lemma, exponent=exponent, value=value)

    @classmethod
    def exact(cls, value: complex, lemma: str) -> Expected:
        return cls("exact", lemma, value=value)

    @classmethod
    def unclassified(cls) -> Expected:
        return cls("unclassified", "none")

    def magnitude(self, q: int) -> float | None:
        if self.kind == "zero":
            return 0.0
        if self.kind == "integer":
            return float(abs(self.integer))
        if self.kind == "power_of_q":
            return float(q) ** float(self.exponent)
        if self.kind == "exact":
            return abs(self.value)
        return None

    def facts(self, q: int) -> tuple[float, complex]:
        """(magnitude, pinned value) for the agreement rule, NaN where the law gives none."""
        mag = self.magnitude(q)
        return math.nan if mag is None else mag, math.nan if self.value is None else self.value

    def _times(self, c, j, lemma: str) -> Expected:
        """Expectation of c * (this sum) for |c| = q**j; an integer law stays one while c is an int."""
        if c == 1 or self.kind == "zero":
            return Expected(self.kind, lemma, self.exponent, self.integer, self.value)
        if self.kind == "integer":
            if isinstance(c, int):
                return Expected.of_integer(self.integer * c, lemma)
            return Expected.exact(self.integer * c, lemma)
        if self.kind == "power_of_q":
            value = None if self.value is None else self.value * c
            return Expected("power_of_q", lemma, self.exponent + j if j else self.exponent, value=value)
        if self.kind == "exact":
            return Expected.exact(self.value * c, lemma)
        return Expected.unclassified()

    def rotated(self, w: RootOfUnity, lemma: str) -> Expected:
        """Expectation of w * (this sum) for a root of unity w (-1 keeps an integer law)."""
        c = 1 if w.is_one else -1 if 2 * w.numerator == w.order else w.to_complex()
        return self._times(c, 0, lemma)

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.exponent is not None:
            out["exponent"] = [self.exponent.numerator, self.exponent.denominator]
        if self.integer is not None:
            out["integer"] = self.integer
        if self.value is not None:
            out["value"] = [self.value.real, self.value.imag]
        return out


def gauss_law(ring: GaloisRing, level: int, b: RingElement) -> Expected:
    """Magnitude law for G(chi, lambda_b), chi of the given level, split by the valuation of b."""
    n = ring.n
    if not level:
        if b.is_zero:
            return Expected.of_integer(ring.unit_count, "trivial-all")
        k, _ = ring.valuation(b)
        if k == n - 1:
            return Expected.of_integer(-(ring.q ** (n - 1)), "trivial-deep-twist")
        return Expected.zero("trivial-shallow-twist")
    if b.is_zero:
        return Expected.zero("nontrivial-zero-twist")
    k, _ = ring.valuation(b)
    if k == 0:
        if level == n:
            return Expected.power(Fraction(n, 2), "primitive-unit-twist")
        return Expected.zero("gauss-vanishing")
    if level == n - k:
        return Expected.power(Fraction(n + k, 2), "matched-ideal-twist")
    return Expected.zero("gauss-vanishing")


# ---------------------------------------------------------------------------
# unit-solution counts


def count_unit_solutions(ring: GaloisRing, m: int, a: RingElement) -> int:
    """Number of unit m-tuples summing to a, by the closed-form count."""
    ring._check_same(a)
    if m < 2:
        raise ValueError("m must be >= 2")
    q, n = ring.q, ring.n
    if a.is_unit:
        body = (q - 1) ** m + (-1) ** (m + 1)
    else:
        body = (q - 1) ** m + (-1) ** m * (q - 1)
    val = Fraction(q) ** (n * m - m - n) * body
    if val.denominator != 1:
        raise BrokenInvariant(f"unit-solution count {val} is not an integer")
    return int(val)


def s_cardinality_qn(q: int, n: int, m: int, k: int) -> int:
    """|S| for the mixed domain (R*)^k x R^(m-k) with a fixed coordinate sum."""
    return (q ** n - q ** (n - 1)) ** _check_k(k, m) * q ** (n * (m - k - 1))


def s_cardinality(ring: GaloisRing, m: int, k: int) -> int:
    return s_cardinality_qn(ring.q, ring.n, m, k)


# ---------------------------------------------------------------------------
# canonicalization: J_a = chi_1...chi_m(t) * J_{p^k}


@ring_table
def _canonical(ring: GaloisRing) -> tuple[tuple[RingElement, ...], frozenset]:
    """The canonical twists and the set of their coordinates, cached per ring."""
    twists = (ring.zero, ring.one) + tuple(ring.p_power(k) for k in range(1, ring.n))
    return twists, frozenset(t.coords for t in twists)


def canonical_twists(ring: GaloisRing) -> list[RingElement]:
    """The canonical right-hand sides {0, 1, p, ..., p^(n-1)}."""
    return list(_canonical(ring)[0])


def is_canonical(a: RingElement) -> bool:
    return a.coords in _canonical(a.ring)[1]


def _twist_scalars(ring: GaloisRing, X, a: RingElement) -> tuple[RingElement, list[RootOfUnity]]:
    """canonicalize for each (m x r) exponent tuple of X: the canonical twist and the scalars."""
    ring._check_same(a)
    if a.is_zero:
        return ring.zero, [RootOfUnity.make(0, 1)] * len(X)
    k, u = ring.valuation(a)  # a = p^k u exactly, u read at its coordinates in R
    canon = _canonical(ring)[0][k + 1]  # 1, p, ..., p^(n-1)
    nums = character_numerators(ring, X.sum(axis=1), [ring._index(u.coords)])[:, 0].tolist()
    L = decompose_unit_group(ring).lcm_order
    return canon, [RootOfUnity.make(v, L) for v in nums]


# ---------------------------------------------------------------------------
# Jacobi sums: the closed-form dispatch


def _gauss_quotient(nums, den: complex, scale: int) -> complex:
    """scale * prod(nums) / den, the numerator multiplied in the order given."""
    num = 1 + 0j
    for g in nums:
        num *= g
    if abs(den) <= 1e-6:
        raise BrokenInvariant("denominator Gauss sum vanished unexpectedly")
    return scale * num / den


@ring_table
def _class_facts(ring: GaloisRing) -> np.ndarray:
    """Per character, the int64 code shares 2^level, 2^(n+1) [chi(-1) = -1] and level 2^(n+2)."""
    n, levels = ring.n, character_levels(ring).astype(np.int64)
    negative = (character_signs(ring) < 0).astype(np.int64)
    return np.stack([1 << levels, negative << (n + 1), levels << (n + 2)])


@ring_table
def _class_table(ring: GaloisRing, m: int, coords: tuple) -> dict:
    """The class table of (m, a), a at coords: _jacobi_class's rule per class code seen."""
    return {}


def _jacobi_class(ring: GaloisRing, m: int, a: RingElement, k: int, code: int):
    """The law of J_a (a canonical, k its valuation; 0 for a = 1) for one class code.

    A tuple's code is the OR of 2^level over its characters, plus 2^(n+1) if
    chi_m(-1) = -1, plus tp 2^(n+2), tp the product's level.  The laws read
    the least level t1, the greatest t2, tp and chi_m(-1) (a pair law reads
    chi_2's level only where chi_2 = conj(chi_1), so t1 = t2).  Returns the
    Expected all rows of the class share, ("split",) (a = 0), ("reduce", j)
    (no character primitive), or ("quotient", lemma, exponent, twist, scale,
    factor, j): a row is worth factor * scale * g(chi_1, 1) ... g(chi_j, 1) /
    g(chi_1 ... chi_j, p^level), twist the coordinates of p^level.
    """
    q, n = ring.q, ring.n
    mask, tp, sign = code & ((2 << n) - 1), code >> (n + 2), -1 if code >> (n + 1) & 1 else 1
    t1, t2 = (mask & -mask).bit_length() - 1, mask.bit_length() - 1

    def quotient(lemma: str, twice_exponent: int, level: int, scale: int, factor, j: int):
        twist = ring.p_power(level).coords
        return ("quotient", lemma, Fraction(twice_exponent, 2), twist, scale, factor, j)

    if not t2:
        return Expected.of_integer(count_unit_solutions(ring, m, a), "all-trivial-count")
    if a.is_zero:
        # pairing x with a - x = -x collapses a pair to a single character sum
        if tp:
            return Expected.zero("zero-twist-pair" if m == 2 else "zero-twist-split")
        if m == 2:
            return Expected.of_integer(sign * ring.unit_count, "zero-twist-pair")
        return ("split",)
    if m == 2 and not (t1 and t2):
        if k == 0 and t1 + t2 == 1:
            return Expected.of_integer(-(q ** (n - 1)), "one-trivial-pair")
        return Expected.zero("one-trivial-pair")
    if m == 2 and not tp:
        if k == 0:
            if t2 <= 1:
                return Expected.of_integer(-sign * q ** (n - 1), "inverse-pair")
            return Expected.zero("inverse-pair")
        if t2 > k + 1:
            return Expected.zero("inverse-pair-ideal")
        if t2 <= k:
            return Expected.of_integer(sign * ring.unit_count, "inverse-pair-ideal")
        return Expected.of_integer(-sign * q ** (n - 1), "inverse-pair-ideal")
    if t2 < n:
        return ("reduce", n - t2)
    if m == 2:
        if k == 0:
            if tp != n:
                return Expected.zero("primitive-pair-vanishing")
            if t1 == t2 == n:
                return quotient("gauss-quotient-pair", n, 0, 1, None, 2)
            return Expected.zero("gauss-quotient-pair")
        if tp == n:
            return Expected.zero("primitive-pair-vanishing")
        if k == n - tp:
            return quotient("gauss-quotient-ideal-pair", n + k, k, q ** k, None, 2)
        return Expected.zero("level-mismatch-zero")
    # m >= 3: only tuples of primitive characters take a Gauss-quotient value
    all_prim = t1 == n
    if k == 0:
        if tp != n:
            return Expected.zero("multi-vanishing")
        if all_prim:
            return quotient("gauss-quotient", (m - 1) * n, 0, 1, None, m)
        return Expected.zero("gauss-quotient")
    if 1 <= tp <= n - 1 and k == n - tp:
        if all_prim:
            return quotient("gauss-quotient-ideal", (m - 1) * n + k, k, q ** k, None, m)
        return Expected.zero("gauss-quotient-ideal")
    if tp == 0 and k == n - 1:
        # the product of the first m - 1 is the inverse of the last: primitive too
        if all_prim:
            return quotient("boundary-split", n * m - 2, 0, 1, -sign * q ** (n - 1), m - 1)
        return Expected.zero("boundary-split")
    return Expected.zero("multi-vanishing")


def jacobi_expected_table(
    ring: GaloisRing, X, a: RingElement, cap: int = DEFAULT_TERM_CAP
) -> list[Expected]:
    """Closed-form value/magnitude of J_a for each (m x r) exponent tuple of X, a canonical.

    Each tuple's class code (see _jacobi_class), from one gather of the
    ring's _class_facts, indexes the ring's class table for (m, a), filled on
    first sight.  Rows of a valueless class share its Expected; a split or
    reduced class recurses as one sub-batch.
    """
    ring._check_same(a)
    if not is_canonical(a):
        raise ValueError(f"{a} is not canonical; use canonicalize() first")
    if not len(X):
        return []
    basis, X = decompose_unit_group(ring), _exponent_tuples(ring, X)
    m = X.shape[1]
    q, n = ring.q, ring.n
    if n == 1:
        # field base case: evaluated directly rather than via field theory
        return [Expected.exact(v, "field-base") for v in _tuple_sums(ring, X, None, a, cap)[0]]

    level_bit, negative, product_level = _class_facts(ring)
    index = X @ basis.radix
    product = X.sum(axis=1) % basis.order_array @ basis.radix
    codes = np.bitwise_or.reduce(level_bit[index], axis=1)
    codes = (codes + negative[index[:, -1]] + product_level[product]).tolist()
    table = _class_table(ring, m, a.coords)
    new = set(codes).difference(table)
    if new:
        k = 0 if a == ring.one else ring.valuation(a)[0]
        for code in new:
            table[code] = _jacobi_class(ring, m, a, k, code)
    out = [table[code] for code in codes]
    pending: dict[int, list[int]] = {}
    for c, (code, rule) in enumerate(zip(codes, out)):
        if rule.__class__ is not Expected:
            pending.setdefault(code, []).append(c)

    split, reduce, quotients, needs, one = [], {}, [], {}, ring.one.coords
    for code, rows in pending.items():
        rule = table[code]
        if rule[0] == "split":
            split += rows
        elif rule[0] == "reduce":
            reduce.setdefault(rule[1], []).extend(rows)
        else:  # the characters' indices, then every Gauss value they read, per twist
            at, twist, count = np.array(rows), rule[3], rule[-1]
            nums = index[at, :count]
            dens = product[at]
            if count < m:  # boundary-split: the product of the first m - 1
                dens = X[at, :-1].sum(axis=1) % basis.order_array @ basis.radix
            needs.setdefault(one, []).extend(nums.ravel().tolist())
            needs.setdefault(twist, []).extend(dens.tolist())
            quotients.append((rule, rows, nums.tolist(), dens.tolist()))
    gauss = {coords: _gauss_fill(ring, coords, indices) for coords, indices in needs.items()}
    for (_, lemma, exponent, twist, scale, factor, _), rows, nums, dens in quotients:
        above, below = gauss[one], gauss[twist]
        for c, num, den in zip(rows, nums, dens):
            value = _gauss_quotient([above[i] for i in num], below[den], scale)
            out[c] = Expected.power(exponent, lemma, value if factor is None else factor * value)

    if split:
        # a = 0 with a trivial product: split off the last nontrivial character
        # (the sum is symmetric under joint permutation of characters and coordinates)
        rows = np.array(split)
        last = m - 1 - np.argmax(X[rows, ::-1].any(axis=2), axis=1)
        keep = np.arange(m) != last[:, None]
        rest = X[rows][keep].reshape(len(rows), m - 1, -1)
        subs = jacobi_expected_table(ring, rest, ring.one, cap)
        zero = Expected.zero("zero-twist-split")
        for c, sign, sub in zip(split, character_signs(ring)[index[rows, last]].tolist(), subs):
            scale = sign * ring.unit_count
            if sub.kind == "zero":
                out[c] = zero
            elif sub.value is not None:
                out[c] = Expected.exact(scale * sub.value, "zero-twist-split")
            else:
                out[c] = Expected.unclassified()

    # no character primitive: every character is trivial on 1 + p^(n-j) R, so
    # the sum is one over GR(p^(n-j), .).  Counting lifts of a unit tuple
    # through the reduction map gives a factor q^(j(m-1)): each of the m
    # fibers has q^j points and the coordinate-sum constraint removes one.
    for j, rows in reduce.items():
        projected = project_exponents(ring, X[rows], j)
        sub = jacobi_expected_table(ring.reduced(j), projected, ring.reduce(a, j), cap)
        shift, scale, shifted = Fraction(j * (m - 1)), q ** (j * (m - 1)), {}
        for c, e in zip(rows, sub):
            # the rows of a shared sub-class share its shifted expectation too
            if id(e) not in shifted:
                shifted[id(e)] = e._times(scale, shift, "digit-reduction")
            out[c] = shifted[id(e)]
    return out


# ---------------------------------------------------------------------------
# modified Jacobi sums over S = (R*)^k x R^(m-k)


def tilde_jacobi_classify_table(
    ring: GaloisRing, X, k: int, a: RingElement, cap: int = DEFAULT_TERM_CAP
) -> list[Expected]:
    """Expected value of the modified sum for each (m x r) exponent tuple of X.

    The split is by which block is trivial.  A trivial character extended by
    1 on the maximal ideal leaves its free coordinate unconstrained, so once
    the whole free block is trivial the sum factorizes over the unit block and
    dies unless every character is trivial.  With no trivial character in the
    free block the sum is a Jacobi sum, canonicalized as a batch.
    """
    ring._check_same(a)
    if not len(X):
        return []
    X = _exponent_tuples(ring, X)
    m = X.shape[1]
    _check_k(k, m)
    nontrivial = X.any(axis=2)
    out = [Expected.zero("mixed-free-block")] * len(X)
    for c in np.flatnonzero(~nontrivial[:, k:].any(axis=1)).tolist():
        if nontrivial[c].any():
            out[c] = Expected.zero("free-block-zero")
        else:
            out[c] = Expected.of_integer(s_cardinality(ring, m, k), "free-block-count")
    restricted = np.flatnonzero(nontrivial[:, k:].all(axis=1))
    if len(restricted):
        canon, scalars = _twist_scalars(ring, X[restricted], a)
        base = jacobi_expected_table(ring, X[restricted], canon, cap)
        for c, scalar, e in zip(restricted.tolist(), scalars, base):
            out[c] = e.rotated(scalar, "unit-restricted")
    return out
