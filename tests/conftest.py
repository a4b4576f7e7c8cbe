from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import pytest

from galois_sums import BadLevel, RootOfUnity, build_ring, decompose_unit_group


@lru_cache(maxsize=None)
def ring(p: int, n: int, s: int):
    return build_ring(p, n, s)


# per-element reference sets, for checking the array tables against


@lru_cache(maxsize=None)
def ideal(r, k: int) -> list:
    """The ideal p^k R in lexicographic coordinate order (q^(n-k) elements)."""
    if not 0 <= k <= r.n:
        raise BadLevel(f"k must be in [0, {r.n}]")
    return [r.element(c) for c in itertools.product(range(0, r.pn, r.p ** k), repeat=r.s)]


@lru_cache(maxsize=None)
def one_plus_ideal(r, k: int) -> list:
    """The subgroup 1 + p^k R of the units (k >= 1), in the order of ideal(k)."""
    return [r.one + m for m in ideal(r, k)]


# the per-digit Teichmuller loop and the gcd valuation, for checking the digit
# table (teich_digits) and the unit shortcut of valuation against


def teich_digits_loop(r, x) -> tuple:
    """Digits (c_0, ..., c_{n-1}) in T with x = sum p^i c_i, one residue lookup per digit.

    The remainder minus its digit divides by p exactly, as integers; only the
    remainders' residues mod p are read, so they need no reduction mod p^n.
    """
    teich_of = {tuple(c % r.p for c in t.coords): t for t in r.teich_set}
    digits, rem = [], x.coords
    for _ in range(r.n):
        t = teich_of[tuple(c % r.p for c in rem)]
        digits.append(t)
        rem = [(c - d) // r.p for c, d in zip(rem, t.coords)]
    return tuple(digits)


def valuation_gcd(r, x) -> tuple:
    """(k, x / p^k in GR(p^(n-k), .)) with p^k = gcd(p^n, coordinates); (n, None) for 0."""
    pk = math.gcd(r.pn, *x.coords)
    if pk == r.pn:
        return r.n, None
    k = round(math.log(pk, r.p))
    return k, r.reduced(k).element(tuple(c // pk for c in x.coords))


# per-element character values, each from its definition, for checking the
# exponent arrays (character_numerators and the tables read through it) against


def additive_value(r, b, x) -> RootOfUnity:
    """lambda_b(x) = exp(2 pi i tr(bx) / p^n)."""
    return RootOfUnity.make(r.trace(b * x), r.pn)


def eval_unit(chi, x) -> RootOfUnity:
    """chi(x) at a unit x of chi's ring, over the ring-wide order L.

    chi(prod g_i^(t_i)) = prod exp(2 pi i e_i t_i / d_i) for chi's exponents e
    and x's exponent tuple t in basis.dlog, which has no key for a non-unit.
    """
    r = chi.ring
    r._check_same(x)
    basis = decompose_unit_group(r)
    L, t = basis.lcm_order, basis.dlog[x.coords]
    num = sum(e * ti * (L // d) for e, ti, d in zip(chi.exponents, t, basis.orders))
    return RootOfUnity.make(num, L)


def extended_eval(chi, x) -> complex:
    """chi(x) for units; on the maximal ideal: 1 if chi is trivial, else 0."""
    if x.is_unit:
        return eval_unit(chi, x).to_complex()
    return complex(1.0) if chi.is_trivial else complex(0.0)


def phi_value(r, a, w) -> RootOfUnity:
    """phi_a(w) = exp(2 pi i tr(a x) / p) at w = 1 + p^(n-1) x, for a in the residue field."""
    pk = r.p ** (r.n - 1)
    diff = (w - r.one).coords
    if any(c % pk for c in diff):
        raise ValueError(f"{w} is not in 1 + p^{r.n - 1} R")
    field = r.residue_field()
    x = field.element(tuple(c // pk % r.p for c in diff))
    return RootOfUnity.make(field.trace(a * x), r.p)


def phase(w: RootOfUnity) -> Fraction:
    """The t in [0, 1) with w = exp(2 pi i t): values multiply as their phases add mod 1."""
    return Fraction(w.numerator, w.order)


@pytest.fixture
def z9():
    return ring(3, 2, 1)


@pytest.fixture
def z27():
    return ring(3, 3, 1)


@pytest.fixture
def gr4_16():
    return ring(2, 2, 2)


@pytest.fixture
def gr8_64():
    return ring(2, 3, 2)


@pytest.fixture
def f4():
    return ring(2, 1, 2)
