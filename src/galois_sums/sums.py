"""Gauss, Jacobi and modified Jacobi sums over a Galois ring: the two routes paired.

Every sum has two routes, a brute-force summation (brute) and a closed-form
expectation from the magnitude laws (laws), checked against each other; no
closed form feeds the brute-force side.  One agreement rule decides them:
agreement, for one sum in SumValue.agrees and a whole table in agrees_table.
The functions of one MultCharacter tuple are the C = 1 rows of table
functions, and read a character through its exponents, index and level.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .brute import _gauss_fill, _tuple_sums
from .characters import DEFAULT_TERM_CAP, MultCharacter, RootOfUnity
from .errors import RingMismatch
from .laws import (
    Expected,
    _twist_scalars,
    gauss_law,
    jacobi_expected_table,
    tilde_jacobi_classify_table,
)
from .ring import GaloisRing, RingElement


def term_tolerance(terms: int) -> float:
    """Absolute tolerance for a brute-force sum of the given term count."""
    return max(1e-12 * terms, 1e-9)


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
        """The agreement rule for this one sum; tol defaults to its term tolerance."""
        tol = self.tolerance if tol is None else tol
        return bool(agreement(self.value, *self.expected.facts(q), tol))

    def to_json(self) -> dict:
        return {
            "value": [self.value.real, self.value.imag],
            "expected": self.expected.to_json(),
            "lemma": self.expected.lemma,
            "terms": self.terms,
        }


def agreement(values, magnitudes, pinned, tol):
    """The one agreement rule, for one sum (scalars) or per row (arrays).

    A value agrees when |abs(value) - magnitude| <= tol and, where a value
    is pinned (pinned is not NaN), |value - pinned| <= tol too.  A NaN
    magnitude, an unclassified law's, never agrees.
    """
    unpinned = pinned != pinned  # NaN
    return (abs(abs(values) - magnitudes) <= tol) & (unpinned | (abs(values - pinned) <= tol))


def agrees_table(values, expected: list[Expected], q: int, tol) -> np.ndarray:
    """agreement per row of a table of sums and their expectations.

    Each distinct Expected is read once; each magnitude but an exact law's
    once per (kind, exponent, integer), the exponent keyed by its ratio.
    """
    laws = {id(e): e for e in expected}  # the rows of a class share one Expected: read it once
    slot = {key: i for i, key in enumerate(laws)}
    at = np.fromiter([slot[id(e)] for e in expected], dtype=np.intp, count=len(expected))
    sizes: dict = {}
    rows = []
    for e in laws.values():
        if e.kind == "exact":
            rows.append(e.facts(q))
            continue
        key = (e.kind, None if e.exponent is None else e.exponent.as_integer_ratio(), e.integer)
        if key not in sizes:
            sizes[key] = e.facts(q)[0]
        rows.append((sizes[key], math.nan if e.value is None else e.value))
    facts = np.array(rows, dtype=np.complex128).reshape(-1, 2)
    magnitudes, pinned = facts[at].T
    return agreement(np.asarray(values, dtype=np.complex128), magnitudes.real, pinned, tol)


# ---------------------------------------------------------------------------
# one sum at a time: the C = 1 rows of the table functions


def _single(chars) -> tuple[GaloisRing, np.ndarray]:
    """A tuple of MultCharacter as its ring and the (1 x m x r) exponents of a C = 1 table row.

    A MultCharacter holds reduced exponents, so the row needs no _exponent_tuples.
    """
    chars = list(chars)
    if len(chars) < 2:
        raise ValueError("need at least two characters")
    ring = chars[0].ring
    if any(c.ring.key != ring.key for c in chars[1:]):
        raise RingMismatch("characters over different rings")
    return ring, np.array([[c.exponents for c in chars]], dtype=np.int64)


def _domain_sum(chars, k: int | None, a: RingElement, cap: int) -> SumValue:
    """One character tuple (C = 1) over the solved domain."""
    ring, X = _single(chars)
    ring._check_same(a)
    values, terms = _tuple_sums(ring, X, k, a, cap)
    return SumValue(value=values[0], expected=Expected.unclassified(), terms=terms)


def gauss_sum(chi: MultCharacter, b: RingElement) -> SumValue:
    chi.ring._check_same(b)
    index = chi.index
    value = _gauss_fill(chi.ring, b.coords, (index,))[index]
    return SumValue(value, gauss_law(chi.ring, chi.level, b), chi.ring.unit_count)


def jacobi_brute(chars, a: RingElement, cap: int = DEFAULT_TERM_CAP) -> SumValue:
    """Direct sum over the unit tuples with coordinate sum a (x_m solved, kept when a unit)."""
    return _domain_sum(chars, None, a, cap)


def canonicalize(chars, a: RingElement) -> tuple[RingElement, RootOfUnity]:
    """Reduce the twist to {0, 1, p^k} and return the scalar character factor.

    J_a = chi_1...chi_m(u) J_{p^k} for a = p^k u with u a unit of R.  For a
    unit a, u = a; otherwise valuation gives u as a unit of the quotient ring
    with a = p^k u exactly, and its coordinates, read in R, are the lift.  Any
    lift serves where J_{p^k} != 0: substituting x_i -> w x_i for w in
    1 + p^(n-k) R shows the product character is then trivial there, so lifts
    differ in the scalar only for vanishing sums.
    """
    canon, scalars = _twist_scalars(*_single(chars), a)
    return canon, scalars[0]


def jacobi_expected(chars, a: RingElement, cap: int = DEFAULT_TERM_CAP) -> Expected:
    """Closed-form value/magnitude of J_a for a canonical twist a (one row of the table)."""
    return jacobi_expected_table(*_single(chars), a, cap)[0]


def jacobi(chars, a: RingElement, cap: int = DEFAULT_TERM_CAP) -> SumValue:
    """Brute-force J_a together with its closed-form expectation, each a C = 1 table row."""
    ring, X = _single(chars)
    canon, scalars = _twist_scalars(ring, X, a)  # checks a's ring
    values, terms = _tuple_sums(ring, X, None, a, cap)
    base = jacobi_expected_table(ring, X, canon, cap)[0]
    return SumValue(value=values[0], expected=base.rotated(scalars[0], base.lemma), terms=terms)


def tilde_jacobi_brute(
    chars, k: int, a: RingElement, cap: int = DEFAULT_TERM_CAP
) -> SumValue:
    """Sum of extended character products over the mixed domain S."""
    return _domain_sum(chars, k, a, cap)


def tilde_jacobi_classify(
    chars, k: int, a: RingElement, cap: int = DEFAULT_TERM_CAP
) -> Expected:
    """Expected value of the modified sum (one row of tilde_jacobi_classify_table)."""
    ring, X = _single(chars)
    return tilde_jacobi_classify_table(ring, X, k, a, cap)[0]
