"""Gauss sums, Jacobi sums, and modified Jacobi sums over a Galois ring.

Every sum has two routes: a brute-force summation that counts its terms
exactly per root of unity (so its value depends on no term order), and a
closed-form expectation assembled from the magnitude laws of the theory.
The expectation carries a tagged magnitude (zero, a power of q, an explicit integer, or an exact
complex value) together with a short provenance token naming the law that
produced it.  Verification suites check the two routes against each other;
the closed forms are never fed back into the brute-force side.

The brute-force kernel sums C character tuples over one domain at once into
a (C x M) integer count matrix: row c counts, per j, the terms of tuple c
equal to exp(2 pi i j / M).  Every row becomes complex the same way, over
ascending j, so a sum in a table (jacobi_brute_table, gauss_table) is
bit-identical to the same sum computed alone.  The functions that take one
tuple of MultCharacter objects are each the C = 1 row of a table function.

The closed form is dispatched over tables too: jacobi_expected_table takes
C exponent tuples and one canonical twist a (jacobi_expected is its C = 1
call).  A base ring that is a field (n = 1) is evaluated by brute force.
Otherwise each tuple gets one integer class code from per-ring tables: the
levels of its characters, of their product, and chi_m(-1).  The code
indexes the ring's class table for (m, a), whose entries _jacobi_class
fills once per class from the laws: a constant shared by every row of the
class (all trivial, vanishing, integer pair laws), a Gauss quotient (values
read by character index from the per-twist cache, one kernel call per
twist), a split (a = 0: the sum is symmetric under joint permutation of
characters and coordinates, so one nontrivial character splits off), or a
reduction: every character is trivial on 1 + p^(n-k) R for the maximal
common k >= 1 and the sum reduces to the quotient ring with a digit-count
scale factor of q^(k(m-1)) per reduction level.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .characters import (
    MultCharacter,
    RootOfUnity,
    character_levels,
    character_numerators,
    character_signs,
    decompose_unit_group,
    dlog_matrix,
    exponent_array,
    project_exponents,
    root_table,
)
from .errors import BrokenInvariant, RingMismatch, TooLarge
from .ring import GaloisRing, RingElement, ring_table, trace_form

DEFAULT_TERM_CAP = 10 ** 7
# sizes of the brute-force kernel's tuple chunks and term blocks (see _root_counts)
BLOCK, CHAR_BLOCK = 4096, 64


def term_tolerance(terms: int) -> float:
    """Absolute tolerance for a brute-force sum of the given term count."""
    return max(1e-12 * terms, 1e-9)


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

    def shift_power(self, j: Fraction, c: int, lemma: str) -> Expected:
        """Expectation of c * (this sum) where c = q**j exactly."""
        if self.kind == "power_of_q":
            return Expected(
                "power_of_q",
                lemma,
                exponent=self.exponent + j,
                value=None if self.value is None else self.value * c,
            )
        if self.kind == "zero":
            return Expected.zero(lemma)
        if self.kind == "integer":
            return Expected.of_integer(self.integer * c, lemma)
        if self.kind == "exact":
            return Expected.exact(self.value * c, lemma)
        return Expected.unclassified()

    def rotated(self, w: RootOfUnity, lemma: str) -> Expected:
        """Expectation of w * (this sum) for a root of unity w."""
        if w.is_one or self.kind == "zero":
            return Expected(self.kind, lemma, self.exponent, self.integer, self.value)
        wc = w.to_complex()
        if self.kind == "integer":
            if 2 * w.numerator == w.order:
                return Expected.of_integer(-self.integer, lemma)
            return Expected.exact(self.integer * wc, lemma)
        if self.kind == "power_of_q":
            return Expected(
                "power_of_q",
                lemma,
                exponent=self.exponent,
                value=None if self.value is None else self.value * wc,
            )
        if self.kind == "exact":
            return Expected.exact(self.value * wc, lemma)
        return Expected.unclassified()

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.exponent is not None:
            out["exponent"] = [self.exponent.numerator, self.exponent.denominator]
        if self.integer is not None:
            out["integer"] = self.integer
        if self.value is not None:
            out["value"] = [self.value.real, self.value.imag]
        return out


@dataclass
class SumValue:
    """A computed character sum: complex value, expectation, term count."""

    value: complex
    expected: Expected
    terms: int

    @property
    def tolerance(self) -> float:
        return term_tolerance(self.terms)

    def agrees(self, q: int, tol: float | None = None) -> bool:
        """Within tol of the expected magnitude and, when pinned, the value.

        An unclassified expectation predicts nothing, so it never agrees.
        """
        tol = self.tolerance if tol is None else tol
        mag = self.expected.magnitude(q)
        if mag is None or abs(abs(self.value) - mag) > tol:
            return False
        if self.expected.value is not None and abs(self.value - self.expected.value) > tol:
            return False
        return True

    def to_json(self) -> dict:
        return {
            "value": [self.value.real, self.value.imag],
            "expected": self.expected.to_json(),
            "terms": self.terms,
            "lemma": self.expected.lemma,
        }


# ---------------------------------------------------------------------------
# the brute-force kernel


@ring_table
def _solve_codes(ring: GaloisRing) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Borrow-free packed differences, cached per ring: (high, low, table) per digit group.

    The s digits split into groups of t, t the largest with (2p^n)^t <= 8 |R|
    (one group when s <= 3, at most two).  A group packs an element's digits
    in base 2p^n as low = coords . radix and high = (coords + p^n) . radix, so
    high(x) - low(y) keeps every digit in [1, 2p^n) and borrows nothing; table
    maps that code to the group's share of the element index of x - y.
    """
    s, pn, base, coords = ring.s, ring.pn, 2 * ring.pn, ring.coord_array()
    t = max(w for w in range(1, s + 1) if base ** w <= 8 * ring.element_count)
    groups = []
    for g in range(0, s, t):
        w = min(t, s - g)
        radix = np.zeros(s, dtype=np.int64)
        radix[g : g + w] = base ** np.arange(w - 1, -1, -1)
        share = np.indices((base,) * w).reshape(w, -1).T % pn @ ring._radix()[g : g + w]
        groups.append(((coords + pn) @ radix, coords @ radix, share))
    return groups


def _minus(groups, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Element indices of x - y: per digit group of _solve_codes one subtract, one gather."""
    return functools.reduce(np.add, (t.take(hi.take(x) - lo.take(y)) for hi, lo, t in groups))


def _solved_blocks(ring: GaloisRing, m: int, k: int, a: RingElement, budget: int):
    """{x : x_1..x_k units, x_{k+1}..x_{m-1} arbitrary, x_m = a - sum} in blocks of <= budget rows.

    A block is the prefix rows x_1..x_{m-2} (an index array per coordinate, in
    itertools.product order), a slice y of x_{m-1}, and x_m as a (rows x
    len(y)) index array, each difference taken by _minus.
    """
    units, size, groups = min(k, m - 1), ring.element_count, _solve_codes(ring)
    *prefix, last = [ring.unit_indices()] * units + [np.arange(size)] * (m - 1 - units)
    sizes, step = [len(d) for d in prefix], min(len(last), budget)
    total, rows = math.prod(sizes), max(1, budget // step)
    for p0 in range(0, total, rows):
        at = np.unravel_index(np.arange(p0, min(p0 + rows, total)), sizes) if sizes else ()
        xs = [d.take(i) for d, i in zip(prefix, at)]
        rest = np.array([ring._index(a.coords)])
        for x in xs:
            rest = _minus(groups, rest, x)
        for d0 in range(0, len(last), step):
            y = last[d0 : d0 + step]
            yield xs, y, _minus(groups, rest[:, None], y)


def solved_domain(ring: GaloisRing, m: int, k: int, a: RingElement) -> np.ndarray:
    """The solved domain (see _solved_blocks) as an (rows x m) element-index array."""
    (xs, y, index), = _solved_blocks(ring, m, k, a, ring.element_count ** (m - 1))
    return np.column_stack([x.repeat(len(y)) for x in xs] + [np.tile(y, len(index)), index.ravel()])


def _root_counts(ring: GaloisRing, X: np.ndarray, k: int, a: RingElement, b=None) -> np.ndarray:
    """Exact root counts of the C reduced exponent tuples of X (C x m x r) over the solved domain.

    Row c of the (C x M) int64 result counts per j the terms of tuple c equal
    to exp(2 pi i j / M), alone or in a batch.  Per chunk of tuples, x_i has a
    table of X_i . dlog(x) mod M at every element x (M the lcm of the
    unit-group orders, and of p^n when a twist b adds tr(b x) to x_1's table:
    a Gauss sum is m = 2, k = 1, a = 0, chi_2 trivial), killed on the
    non-units where chi_i is nontrivial and for x_m when k >= m.  Over the
    broadcast blocks of _solved_blocks, whose solve the chunk's tuples share,
    a term costs one gather (none for x_m when its table is all zero, as in a
    Gauss sum), two adds, one compare and one bincount into m M bins per
    tuple, folded mod M.  A chunk takes max(1, BLOCK CHAR_BLOCK // |R|)
    tuples and a block BLOCK min(chunk, CHAR_BLOCK) terms: besides the result
    and the scaled X with its kill mask, temporaries hold (m + 8) max(|R|,
    BLOCK CHAR_BLOCK) + 2 chunk m M int64s.
    """
    basis = decompose_unit_group(ring)
    size, pn, coords, extra = ring.element_count, ring.pn, ring.coord_array(), 0
    M = basis.lcm_order if b is None else math.lcm(basis.lcm_order, pn)
    if b is not None:  # tr(b x) = sum_i x_i tr(b xi^i) over the polynomial-basis coordinates
        extra = coords @ (trace_form(ring) @ b.coords % pn) % pn * (M // pn)
    X = X * (basis.scale * (M // basis.lcm_order))  # the one copy of X
    count, m = X.shape[:2]
    kill, off_unit = X.any(axis=2), ~ring.unit_mask()
    kill[:, -1] |= k >= m
    counts = np.zeros((count, M), dtype=np.int64)
    nb = max(1, BLOCK * CHAR_BLOCK // size)
    buffer = np.empty(m * min(nb, count) * size, dtype=np.int64)  # the tables of a chunk
    for c0 in range(0, count, nb):
        c1 = min(c0 + nb, count)
        dump = (c1 - c0) * m * M  # the bin of killed terms; every live sum lies below it
        tables = buffer[: m * (c1 - c0) * size].reshape(m, -1, size)  # contiguous: no copy in place
        np.matmul(X[c0:c1].swapaxes(0, 1), dlog_matrix(ring).T, out=tables)
        tables[0] += extra
        tables %= M
        tables[kill[c0:c1].T[:, :, None] & off_unit] = dump
        tables[0] += np.arange(c1 - c0)[:, None] * (m * M)
        budget = BLOCK * min(c1 - c0, CHAR_BLOCK) // (c1 - c0)  # domain rows per block
        solved = tables[-1].any()  # else x_m adds nothing, as in a Gauss sum
        for xs, y, index in _solved_blocks(ring, m, k, a, max(1, budget)):
            shape = (c1 - c0, *index.shape)
            terms = tables[-1].take(index, axis=1) if solved else np.zeros(shape, dtype=np.int64)
            terms += tables[-2].take(y, axis=1)[:, None, :]
            if xs:
                terms += sum(t.take(x, axis=1) for t, x in zip(tables, xs))[:, :, None]
            np.minimum(terms, dump, out=terms)
            bins = np.bincount(terms.ravel(), minlength=dump + 1)[:dump]
            counts[c0:c1] += bins.reshape(c1 - c0, m, M).sum(axis=1)
    return counts


def _complex_rows(counts: np.ndarray) -> list[complex]:
    """sum_j counts[c, j] exp(2 pi i j / M) per row c, added over ascending j.

    One sequential cumsum adds left to right, as a loop over the bins from 0j
    would: the first root is exactly 1, and an empty bin adds +-0.0, which
    leaves the running sum (never -0.0) unchanged.
    """
    return np.cumsum(counts * root_table(counts.shape[1]), axis=1)[:, -1].tolist()


def _exponent_tuples(ring: GaloisRing, X) -> np.ndarray:
    """X as a (C x m x r) exponent_array of m >= 2 characters per tuple; ValueError otherwise."""
    X = exponent_array(ring, X)
    if X.ndim != 3 or X.shape[1] < 2:
        raise ValueError("need at least two characters")
    return X


def _domain_sums(ring: GaloisRing, X, k: int | None, a: RingElement, cap: int):
    """Sums over the solved domain for k (None: m) and terms per sum, capped before the kernel."""
    ring._check_same(a)
    if not len(X):
        return [], 0
    X = _exponent_tuples(ring, X)
    m = X.shape[1]
    k = m if k is None else _check_k(k, m)
    terms = ring.unit_count ** min(k, m - 1) * ring.element_count ** max(m - 1 - k, 0)
    if terms > cap:
        raise TooLarge(f"{terms} tuples exceeds cap {cap}")
    return _complex_rows(_root_counts(ring, X, k, a)), terms


def _single(chars) -> tuple[GaloisRing, np.ndarray]:
    """A tuple of MultCharacter as its ring and the (1 x m x r) exponents of a C = 1 table row."""
    chars = list(chars)
    if len(chars) < 2:
        raise ValueError("need at least two characters")
    ring = chars[0].ring
    if any(c.ring.key != ring.key for c in chars[1:]):
        raise RingMismatch("characters over different rings")
    return ring, np.array([[c.exponents for c in chars]], dtype=np.int64)


def _domain_sum(chars, k: int | None, a: RingElement, cap: int) -> SumValue:
    """One character tuple (C = 1) over the solved domain."""
    values, terms = _domain_sums(*_single(chars), k, a, cap)
    return SumValue(value=values[0], expected=Expected.unclassified(), terms=terms)


def jacobi_brute_table(ring: GaloisRing, X, a: RingElement, cap: int = DEFAULT_TERM_CAP):
    """J_a for each (m x r) exponent tuple of X, over one domain; bit-identical to jacobi_brute."""
    return np.array(_domain_sums(ring, X, None, a, cap)[0], dtype=np.complex128)


# ---------------------------------------------------------------------------
# Gauss sums


def _gauss_fill(ring: GaloisRing, coords: tuple, indices) -> dict[int, complex]:
    """The cached Gauss values at the twist with coordinates coords, by character index,
    the characters of indices still missing first computed in one kernel call."""
    values = ring._cache.setdefault(("gauss", coords), {})
    missing = [i for i in dict.fromkeys(indices) if i not in values]
    if missing:
        orders = decompose_unit_group(ring).orders
        X = np.zeros((len(missing), 2, len(orders)), dtype=np.int64)  # x_2 = -x_1
        X[:, 0].T[:] = np.unravel_index(missing, orders)  # row i of the transpose: e_i
        counts = _root_counts(ring, X, 1, ring.zero, ring.element(coords))
        values.update(zip(missing, _complex_rows(counts)))
    return values


def gauss_table(ring: GaloisRing, b: RingElement) -> list[complex]:
    """G(chi, lambda_b) of all chi in enumerate_characters order; the missing in one kernel call."""
    ring._check_same(b)
    count = math.prod(decompose_unit_group(ring).orders)
    values = _gauss_fill(ring, b.coords, range(count))
    return [values[i] for i in range(count)]


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


def expected_gauss(chi: MultCharacter, b: RingElement) -> Expected:
    """Magnitude law for G(chi, lambda_b), split by the valuation of b."""
    return gauss_law(chi.ring, chi.level, b)


def gauss_sum(chi: MultCharacter, b: RingElement) -> SumValue:
    chi.ring._check_same(b)
    index = chi.index
    value = _gauss_fill(chi.ring, b.coords, (index,))[index]
    return SumValue(value, expected_gauss(chi, b), chi.ring.unit_count)


# ---------------------------------------------------------------------------
# unit-solution counts


def count_unit_solutions(ring: GaloisRing, m: int, a: RingElement) -> int:
    """Number of unit m-tuples summing to a, by the closed-form count."""
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


def count_unit_solutions_brute(
    ring: GaloisRing, m: int, a: RingElement, cap: int = DEFAULT_TERM_CAP
) -> int:
    """Number of unit m-tuples summing to a, by enumerating the solved domain."""
    trivial = np.zeros((1, m, len(decompose_unit_group(ring).orders)), dtype=np.int64)
    return int(_domain_sums(ring, trivial, None, a, cap)[0][0].real)


def s_cardinality_qn(q: int, n: int, m: int, k: int) -> int:
    """|S| for the mixed domain (R*)^k x R^(m-k) with a fixed coordinate sum."""
    return (q ** n - q ** (n - 1)) ** _check_k(k, m) * q ** (n * (m - k - 1))


def s_cardinality(ring: GaloisRing, m: int, k: int) -> int:
    return s_cardinality_qn(ring.q, ring.n, m, k)


# ---------------------------------------------------------------------------
# Jacobi sums: brute force


def jacobi_brute(chars, a: RingElement, cap: int = DEFAULT_TERM_CAP) -> SumValue:
    """Direct sum over the unit tuples with coordinate sum a (x_m solved, kept when a unit)."""
    return _domain_sum(chars, None, a, cap)


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
    k, u = ring.valuation(a)
    canon, w = (ring.one, a) if k == 0 else (ring.p_power(k), _lift_unit(ring, u, k))
    nums = character_numerators(ring, X.sum(axis=1), w).tolist()
    return canon, [RootOfUnity.make(v, decompose_unit_group(ring).lcm_order) for v in nums]


def canonicalize(chars, a: RingElement) -> tuple[RingElement, RootOfUnity]:
    """Reduce the twist to {0, 1, p^k} and return the scalar character factor.

    For a unit a the scalar is chi_1...chi_m(a); for a = p^k t with t a unit
    of the quotient ring, t is lifted back via its Teichmuller digit string
    (padded with zeros) and the scalar is the product character at that lift.
    """
    canon, scalars = _twist_scalars(*_single(chars), a)
    return canon, scalars[0]


def _lift_unit(ring: GaloisRing, u: RingElement, k: int) -> RingElement:
    """Lift a unit of GR(p^(n-k), .) into R via its Teichmuller digits."""
    reduced = ring.reduced(k)
    digits = reduced.teichmuller_decompose(u)
    out = ring.zero
    for i, d in enumerate(digits):
        if d.is_zero:
            continue
        e = reduced.dlog_T[d.coords]
        out = out + ring.scalar(ring.p ** i) * ring.xi_powers[e]
    return out


# ---------------------------------------------------------------------------
# Jacobi sums: closed-form dispatch


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
        return [Expected.exact(v, "field-base") for v in _domain_sums(ring, X, None, a, cap)[0]]

    level_bit, negative, product_level = _class_facts(ring)
    index = X @ basis.radix
    product = X.sum(axis=1) % basis.order_array @ basis.radix
    codes = np.bitwise_or.reduce(level_bit[index], axis=1)
    codes = (codes + negative[index[:, -1]] + product_level[product]).tolist()
    table = ring._cache.setdefault((_jacobi_class, m, a.coords), {})  # the class table
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
                shifted[id(e)] = e.shift_power(shift, scale, "digit-reduction")
            out[c] = shifted[id(e)]
    return out


def jacobi_expected(chars, a: RingElement, cap: int = DEFAULT_TERM_CAP) -> Expected:
    """Closed-form value/magnitude of J_a for a canonical twist a (one row of the table)."""
    return jacobi_expected_table(*_single(chars), a, cap)[0]


def jacobi(chars, a: RingElement, cap: int = DEFAULT_TERM_CAP) -> SumValue:
    """Brute-force J_a together with its closed-form expectation, each a C = 1 table row."""
    ring, X = _single(chars)
    values, terms = _domain_sums(ring, X, None, a, cap)
    canon, scalars = _twist_scalars(ring, X, a)
    base = jacobi_expected_table(ring, X, canon, cap)[0]
    return SumValue(value=values[0], expected=base.rotated(scalars[0], base.lemma), terms=terms)


# ---------------------------------------------------------------------------
# modified Jacobi sums over S = (R*)^k x R^(m-k)


def _check_k(k: int, m: int) -> int:
    if not 1 <= k <= m - 1:
        raise ValueError("need 1 <= k <= m - 1")
    return k


def tilde_jacobi_brute(
    chars, k: int, a: RingElement, cap: int = DEFAULT_TERM_CAP
) -> SumValue:
    """Sum of extended character products over the mixed domain S."""
    return _domain_sum(chars, k, a, cap)


def tilde_jacobi_brute_table(
    ring: GaloisRing, X, k: int, a: RingElement, cap: int = DEFAULT_TERM_CAP
) -> np.ndarray:
    """The modified sum for each (m x r) exponent tuple of X over one domain; bit-identical."""
    return np.array(_domain_sums(ring, X, k, a, cap)[0], dtype=np.complex128)


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


def tilde_jacobi_classify(
    chars, k: int, a: RingElement, cap: int = DEFAULT_TERM_CAP
) -> Expected:
    """Expected value of the modified sum (one row of tilde_jacobi_classify_table)."""
    ring, X = _single(chars)
    return tilde_jacobi_classify_table(ring, X, k, a, cap)[0]
