"""Additive and multiplicative characters of a Galois ring.

Additive characters are twists lambda_b(x) = exp(2 pi i tr(bx) / p^n) of the
canonical character.  Multiplicative characters are stored as exponent tuples
against a fixed basis of the unit group R* = T* x (1 + M); values are exact
roots of unity until a summation kernel converts them to complex doubles.

The unit-group basis is computed generically: the Teichmuller generator xi
spans the T* factor and the p-group 1 + M is decomposed into cyclic factors
by a recursive maximal-order search with explicit quotient cosets.  The full
discrete-log table over R* is built once per ring and cached on the ring,
and dlog_matrix lays it out as a numpy array over element indices for the
vectorized kernels.
"""
from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import RingMismatch
from .ring import GaloisRing, RingElement


@dataclass(frozen=True)
class RootOfUnity:
    """exp(2 pi i numerator / order), kept exact; 0 <= numerator < order."""

    numerator: int
    order: int

    @classmethod
    def make(cls, numerator: int, order: int) -> RootOfUnity:
        return cls(numerator % order, order)

    @property
    def is_one(self) -> bool:
        return self.numerator == 0

    def __mul__(self, other: RootOfUnity) -> RootOfUnity:
        order = math.lcm(self.order, other.order)
        num = self.numerator * (order // self.order) + other.numerator * (
            order // other.order
        )
        return RootOfUnity.make(num, order)

    def conjugate(self) -> RootOfUnity:
        return RootOfUnity.make(-self.numerator, self.order)

    def __pow__(self, e: int) -> RootOfUnity:
        return RootOfUnity.make(self.numerator * e, self.order)

    def reduced(self) -> RootOfUnity:
        """Lowest-terms copy, for display only."""
        g = math.gcd(self.numerator, self.order)
        return RootOfUnity(self.numerator // g, self.order // g)

    def to_complex(self) -> complex:
        if self.numerator == 0:
            return complex(1.0)
        if 2 * self.numerator == self.order:
            return complex(-1.0)
        return cmath.exp(2j * cmath.pi * self.numerator / self.order)

    def __str__(self) -> str:
        r = self.reduced()
        if r.numerator == 0:
            return "1"
        return f"e(2pi*{r.numerator}/{r.order})"


@functools.lru_cache(maxsize=None)
def root_table(order: int) -> tuple[complex, ...]:
    """exp(2 pi i j / order) for j = 0..order-1, one cmath evaluation each.

    The one table the summation kernels and the codebook build convert exact
    exponents with, so equal exponents always give equal floats.
    """
    return tuple(RootOfUnity(j, order).to_complex() for j in range(order))


class AdditiveCharacter:
    """lambda_b : x -> exp(2 pi i tr(bx) / p^n)."""

    __slots__ = ("ring", "b")

    def __init__(self, ring: GaloisRing, b: RingElement):
        ring._check_same(b)
        self.ring = ring
        self.b = b

    def eval(self, x: RingElement) -> RootOfUnity:
        return RootOfUnity.make(self.ring.trace(self.b * x), self.ring.pn)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AdditiveCharacter)
            and self.ring.key == other.ring.key
            and self.b == other.b
        )

    def __hash__(self) -> int:
        return hash(("add", self.b.coords))


# ---------------------------------------------------------------------------
# unit-group basis


@dataclass
class UnitGroupBasis:
    """Generators g_1..g_r with orders d_1..d_r and the full dlog table.

    g_1 = xi spans T*; the remaining generators lie in 1 + M and have p-power
    orders.  Every unit factors uniquely as prod g_i^(e_i); dlog maps the
    coordinate tuple of a unit to its exponent tuple.
    """

    ring: GaloisRing
    generators: tuple[RingElement, ...]
    orders: tuple[int, ...]
    dlog: dict[tuple[int, ...], tuple[int, ...]]
    lcm_order: int


def _group_order(mul, one, g, bound: int) -> int:
    acc = g
    for k in range(1, bound + 1):
        if acc == one:
            return k
        acc = mul(acc, g)
    raise AssertionError("order exceeds group size")


def _abelian_basis(elems: list, mul, one) -> list[tuple[object, int]]:
    """Direct-product basis of a finite abelian group given as an element list.

    Picks a maximal-order element g (first in list order), forms the quotient
    by <g> with canonical coset representatives, recurses, then adjusts each
    lifted generator k by a power of g so that its true order matches its
    quotient order.  The classical divisibility argument guarantees the
    adjustment exponent is integral.
    """
    if len(elems) == 1:
        return []
    bound = len(elems)
    orders = {e: _group_order(mul, one, e, bound) for e in elems}
    d = max(orders.values())
    g = next(e for e in elems if orders[e] == d)
    gpow = [one]
    for _ in range(d - 1):
        gpow.append(mul(gpow[-1], g))
    dlog_g = {e: j for j, e in enumerate(gpow)}
    if d == bound:
        return [(g, d)]

    rep_of: dict = {}
    reps = []
    for e in elems:
        if e in rep_of:
            continue
        reps.append(e)
        for gj in gpow:
            rep_of[mul(e, gj)] = e

    def qmul(a, b):
        return rep_of[mul(a, b)]

    qone = rep_of[one]
    sub = _abelian_basis(reps, qmul, qone)
    out = [(g, d)]
    for k, e in sub:
        acc = k
        for _ in range(e - 1):
            acc = mul(acc, k)
        c = dlog_g[acc]  # k^e lands in <g>
        assert c % e == 0
        shift = gpow[(d - c // e) % d]
        out.append((mul(k, shift), e))
    return out


def decompose_unit_group(ring: GaloisRing) -> UnitGroupBasis:
    """Basis of R* = T* x (1 + M) with a complete dlog table, cached per ring."""
    if "unit_basis" in ring._cache:
        return ring._cache["unit_basis"]

    one = ring.one
    h_elems = ring.one_plus_ideal(1) if ring.n > 1 else [one]

    def mul(a: RingElement, b: RingElement) -> RingElement:
        return a * b

    h_basis = _abelian_basis(h_elems, mul, one)

    h_dlog: dict[tuple[int, ...], tuple[int, ...]] = {one.coords: ()}
    for g, d in h_basis:
        new = {}
        for coords, t in h_dlog.items():
            acc = RingElement(ring, coords)
            for j in range(d):
                new[acc.coords] = t + (j,)
                acc = acc * g
        h_dlog = new
    assert len(h_dlog) == len(h_elems)

    generators = (ring.xi,) + tuple(g for g, _ in h_basis)
    orders = (ring.q - 1,) + tuple(d for _, d in h_basis)

    dlog: dict[tuple[int, ...], tuple[int, ...]] = {}
    q1 = ring.q - 1
    for u in ring.units():
        c0 = ring.teich_lift(u)
        i = ring.dlog_T[c0.coords]
        c0_inv = ring.xi_powers[(q1 - i) % q1]
        v = u * c0_inv
        dlog[u.coords] = (i,) + h_dlog[v.coords]
    assert len(dlog) == ring.unit_count

    basis = UnitGroupBasis(
        ring=ring,
        generators=generators,
        orders=orders,
        dlog=dlog,
        lcm_order=math.lcm(*orders),
    )
    ring._cache["unit_basis"] = basis
    return basis


def dlog_matrix(ring: GaloisRing) -> np.ndarray:
    """Read-only (q^n x r) dlog exponents indexed like ring.coord_array().

    Row i is basis.dlog of element i for a unit and zeros otherwise (mask
    with ring.unit_mask()).  Built on first use and cached on the ring.
    """
    if "dlog_matrix" not in ring._cache:
        basis = decompose_unit_group(ring)
        units = np.flatnonzero(ring.unit_mask())
        table = np.zeros((ring.element_count, len(basis.orders)), dtype=np.int64)
        table[units] = [basis.dlog[u.coords] for u in ring.units()]
        table.flags.writeable = False
        ring._cache["dlog_matrix"] = table
    return ring._cache["dlog_matrix"]


# ---------------------------------------------------------------------------
# multiplicative characters


class MultCharacter:
    """A multiplicative character of R*, stored as exponents against the basis."""

    __slots__ = ("ring", "basis", "exponents", "_level")

    def __init__(self, ring: GaloisRing, exponents):
        self.ring = ring
        self.basis = decompose_unit_group(ring)
        exps = tuple(e % d for e, d in zip(exponents, self.basis.orders))
        if len(exps) != len(self.basis.orders):
            raise ValueError("exponent tuple has wrong length")
        self.exponents = exps
        self._level: int | None = None

    @classmethod
    def trivial(cls, ring: GaloisRing) -> MultCharacter:
        basis = decompose_unit_group(ring)
        return cls(ring, (0,) * len(basis.orders))

    @property
    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def eval_unit(self, x: RingElement) -> RootOfUnity:
        t = self.basis.dlog[x.coords]
        L = self.basis.lcm_order
        num = 0
        for e, ti, d in zip(self.exponents, t, self.basis.orders):
            num += e * ti * (L // d)
        return RootOfUnity.make(num, L)

    def extended_eval(self, x: RingElement) -> complex:
        """chi(x) for units; on the maximal ideal: 1 if trivial, else 0."""
        if x.coords in self.basis.dlog:
            return self.eval_unit(x).to_complex()
        return complex(1.0) if self.is_trivial else complex(0.0)

    def trivial_on_subgroup(self, k: int) -> bool:
        """Trivial on 1 + p^k R; k = 0 is read as the whole unit group."""
        if k <= 0:
            return self.is_trivial
        if k >= self.ring.n:
            return True
        return all(self.eval_unit(w).is_one for w in self.ring.one_plus_ideal(k))

    @property
    def level(self) -> int:
        """Triviality level in {0..n}: least k with chi trivial on 1 + p^k R."""
        if self._level is None:
            lvl = self.ring.n
            for k in range(self.ring.n + 1):
                if self.trivial_on_subgroup(k):
                    lvl = k
                    break
            self._level = lvl
        return self._level

    @property
    def is_primitive(self) -> bool:
        return self.level == self.ring.n

    def __mul__(self, other: MultCharacter) -> MultCharacter:
        if self.ring.key != other.ring.key:
            raise RingMismatch("characters over different rings")
        return MultCharacter(
            self.ring, tuple(a + b for a, b in zip(self.exponents, other.exponents))
        )

    def inverse(self) -> MultCharacter:
        return MultCharacter(self.ring, tuple(-e for e in self.exponents))

    def sign_at_minus_one(self) -> int:
        """chi(-1), always +1 or -1."""
        v = self.eval_unit(-self.ring.one)
        assert 2 * v.numerator % v.order == 0
        return 1 if v.is_one else -1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MultCharacter)
            and self.ring.key == other.ring.key
            and self.exponents == other.exponents
        )

    def __hash__(self) -> int:
        return hash(self.exponents)

    def __repr__(self) -> str:
        return f"MultCharacter{self.exponents}"


def enumerate_characters(ring: GaloisRing) -> list[MultCharacter]:
    """All q^n - q^(n-1) multiplicative characters, exponent tuples in lex order."""
    key = "all_characters"
    if key not in ring._cache:
        basis = decompose_unit_group(ring)
        chars = [
            MultCharacter(ring, exps)
            for exps in itertools.product(*(range(d) for d in basis.orders))
        ]
        ring._cache[key] = chars
    return ring._cache[key]


def product_character(chars) -> MultCharacter:
    chars = list(chars)
    out = chars[0]
    for c in chars[1:]:
        out = out * c
    return out


# ---------------------------------------------------------------------------
# the subgroup characters phi_a and their extension to R*


class SubgroupCharacter:
    """phi_a on 1 + p^(n-1) R: 1 + p^(n-1) x -> exp(2 pi i tr(a tau_1(x)) / p).

    Here a lives in the residue field F_q and tr is the field trace to F_p.
    """

    __slots__ = ("ring", "field", "a")

    def __init__(self, ring: GaloisRing, a: RingElement):
        if ring.n < 2:
            raise ValueError("phi_a needs characteristic exponent n >= 2")
        self.ring = ring
        self.field = ring.residue_field()
        self.field._check_same(a)
        self.a = a

    def eval(self, w: RingElement) -> RootOfUnity:
        pk = self.ring.p ** (self.ring.n - 1)
        diff = (w - self.ring.one).coords
        assert all(c % pk == 0 for c in diff), "element not in 1 + p^(n-1) R"
        x = self.field.element(tuple((c // pk) % self.ring.p for c in diff))
        return RootOfUnity.make(self.field.trace(self.a * x), self.ring.p)


def _section_map(ring: GaloisRing, section: str) -> dict[tuple[int, ...], MultCharacter]:
    """For each a in F_q the chosen character of R* restricting to phi_a.

    section = "lex-min" picks the lexicographically smallest exponent tuple
    with the right restriction (so the a = 0 section is the trivial
    character); "lex-max" picks the largest and exists to demonstrate that
    downstream quantities do not depend on the choice.
    """
    key = ("section", section)
    if key in ring._cache:
        return ring._cache[key]
    if section not in ("lex-min", "lex-max"):
        raise ValueError(f"unknown section {section!r}")
    field = ring.residue_field()
    p = ring.p
    pk = p ** (ring.n - 1)
    ws = []
    for x in field.elements():
        lifted = ring.element(tuple(c % ring.pn for c in x.coords))
        ws.append(ring.one + ring.scalar(pk) * lifted)

    def restriction_sig(chi: MultCharacter) -> tuple[int, ...]:
        sig = []
        for w in ws:
            v = chi.eval_unit(w)
            num = v.numerator * p
            assert num % v.order == 0
            sig.append((num // v.order) % p)
        return tuple(sig)

    chars = enumerate_characters(ring)
    if section == "lex-max":
        chars = list(reversed(chars))
    by_sig: dict[tuple[int, ...], MultCharacter] = {}
    for chi in chars:
        sig = restriction_sig(chi)
        if sig not in by_sig:
            by_sig[sig] = chi

    out: dict[tuple[int, ...], MultCharacter] = {}
    for a in field.elements():
        target = tuple(
            field.trace(a * x) % p for x in field.elements()
        )
        out[a.coords] = by_sig[target]
    assert len(out) == ring.q
    ring._cache[key] = out
    return out


def extend_phi(ring: GaloisRing, a: RingElement, section: str = "lex-min") -> MultCharacter:
    """A character of all of R* whose restriction to 1 + p^(n-1) R is phi_a."""
    field = ring.residue_field()
    field._check_same(a)
    return _section_map(ring, section)[a.coords]


# ---------------------------------------------------------------------------
# transport along the reduction map


def lift_character(psi: MultCharacter, ring: GaloisRing) -> MultCharacter:
    """The character psi o tau of R*, for psi over a quotient of this ring."""
    k = ring.n - psi.ring.n
    if not 1 <= k <= ring.n - 1 or ring.reduced(k).key != psi.ring.key:
        raise RingMismatch(f"{psi.ring} is not a quotient of {ring}")
    basis = decompose_unit_group(ring)
    exps = []
    for g, d in zip(basis.generators, basis.orders):
        v = psi.eval_unit(ring.reduce(g, k))
        num = v.numerator * d
        assert num % v.order == 0
        exps.append((num // v.order) % d)
    return MultCharacter(ring, tuple(exps))


def project_character(chi: MultCharacter, k: int) -> MultCharacter:
    """The character of the quotient ring induced by an (n-k)-or-less-trivial chi."""
    ring = chi.ring
    if not chi.trivial_on_subgroup(ring.n - k):
        raise ValueError(f"character is not trivial on 1 + p^{ring.n - k} R")
    target = ring.reduced(k)
    basis = decompose_unit_group(target)
    exps = []
    for g, d in zip(basis.generators, basis.orders):
        lifted = ring.element(tuple(c % ring.pn for c in g.coords))
        v = chi.eval_unit(lifted)
        num = v.numerator * d
        assert num % v.order == 0
        exps.append((num // v.order) % d)
    return MultCharacter(target, tuple(exps))


# ---------------------------------------------------------------------------
# exports


def character_table_json(ring: GaloisRing) -> list[dict]:
    return [
        {"exponents": list(chi.exponents), "triviality_level": chi.level}
        for chi in enumerate_characters(ring)
    ]


def section_json(ring: GaloisRing, section: str = "lex-min") -> list[dict]:
    field = ring.residue_field()
    smap = _section_map(ring, section)
    return [
        {"a": list(a.coords), "exponents": list(smap[a.coords].exponents)}
        for a in field.elements()
    ]
