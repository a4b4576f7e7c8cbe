from __future__ import annotations

import itertools
from functools import lru_cache

import pytest

from galois_sums import BadLevel, build_ring


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
