"""Additive and multiplicative characters of a Galois ring.

Additive characters are twists lambda_b(x) = exp(2 pi i tr(bx) / p^n) of the
canonical character.  Multiplicative characters are stored as exponent tuples
against a fixed basis of the unit group R* = T* x (1 + M); values are exact
roots of unity until a summation kernel converts them to complex doubles.

The structural tables are whole-array passes over element indices, each
built once per ring and cached on it.  The Teichmuller generator xi spans the
T* factor; the p-group 1 + M is split into cyclic factors over its index
array (element orders by repeated p-th powers, coset representatives as the
least list position of each orbit), making the same choices as the
per-element definition.  dlog_matrix (elements x r) comes from multiplying
out every exponent tuple and is the one dlog representation: a character's
value at a unit reads the unit's row.  character_levels holds the triviality
level of every character, and the section map and the character table are
read from the exponent and dlog arrays.
"""
from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import BrokenInvariant, NotAUnit, NotInSubgroup, RingMismatch
from .ring import GaloisRing, RingElement, ring_table


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
def root_table(order: int) -> np.ndarray:
    """Read-only complex128 exp(2 pi i j / order) for j = 0..order-1, one cmath evaluation each.

    The one table the summation kernels and the codebook build convert exact
    exponents with, so equal exponents always give equal floats.
    """
    roots = np.array([RootOfUnity(j, order).to_complex() for j in range(order)], dtype=complex)
    roots.flags.writeable = False
    return roots


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

# characters per block of the level and section scans, and the first block of
# subgroup rows a level scan checks them on (later blocks double in size)
CHAR_BLOCK = 2048
ROW_BLOCK = 8


@dataclass
class UnitGroupBasis:
    """Generators g_1..g_r with orders d_1..d_r of the unit group.

    g_1 = xi spans T*; the remaining generators lie in 1 + M and have p-power
    orders.  Every unit factors uniquely as prod g_i^(e_i); dlog_matrix holds
    the exponent tuple of every unit (see the function of that name), and
    dlog reads it by coordinate tuple.
    """

    ring: GaloisRing
    generators: tuple[RingElement, ...]
    orders: tuple[int, ...]
    lcm_order: int
    dlog_matrix: np.ndarray = field(repr=False, compare=False)

    @property
    def dlog(self) -> Mapping[tuple[int, ...], tuple[int, ...]]:
        """Coordinate tuple of a unit -> its exponent tuple, a view of dlog_matrix."""
        return _DlogView(self.ring)

    @functools.cached_property
    def radix(self) -> np.ndarray:
        """Place values of the exponents: exponents @ radix is the enumerate_characters index."""
        return np.array([math.prod(self.orders[i + 1 :]) for i in range(len(self.orders))])

    @functools.cached_property
    def scale(self) -> np.ndarray:
        """L / d_i, which scales exponent e_i to the common order L."""
        return self.lcm_order // np.array(self.orders, dtype=np.int64)


def _powers(ring: GaloisRing, g: np.ndarray, d: int) -> np.ndarray:
    """Coordinates of g^0, ..., g^(d-1), one row each, by doubling."""
    out = np.empty((d, ring.s), dtype=np.int64)
    out[0] = ring.one.coords
    k, step = 1, g
    while k < d:
        m = min(k, d - k)
        out[k : k + m] = ring.mul_array(out[:m], step)
        step = ring.mul_array(step, step)
        k *= 2
    return out


def _abelian_basis(
    ring: GaloisRing, elems: np.ndarray, position, rep: np.ndarray
) -> list[tuple[int, int]]:
    """Direct-product basis of the quotient of the p-group 1 + M named by rep.

    elems holds the coordinates of 1 + M in list order (the identity first),
    position maps coordinate rows back to list positions, and rep[i] is the
    least position in the coset of element i, so the quotient's elements are
    the positions with rep[i] == i, in order of first appearance.  Picks the
    first element g of maximal quotient order d (orders by repeated p-th
    powers), takes the coset representatives of <g> as the least position
    over each orbit e * g^j, recurses on that quotient, then adjusts each
    lifted generator k of quotient order e by a power of g so that its order
    here is e.  The classical divisibility argument guarantees the
    adjustment exponent is integral.  Returns (position, order) pairs.
    """
    reps = np.flatnonzero(rep == np.arange(len(rep)))
    if len(reps) == 1:
        return []
    p = ring.p
    order = np.ones(len(reps), dtype=np.int64)
    cur = elems[reps]
    alive = rep[position(cur)] != 0
    while alive.any():
        order[alive] *= p
        cur = ring.pow_array(cur, p)
        alive = rep[position(cur)] != 0
    d = int(order.max())
    g = int(reps[np.argmax(order)])
    if d == len(reps):
        return [(g, d)]

    gpow = _powers(ring, elems[g], d)
    gdlog = np.full(len(rep), -1, dtype=np.int64)
    gdlog[rep[position(gpow)]] = np.arange(d)

    # least position over each orbit of x -> x * g on the quotient, by doubling
    slot = np.full(len(rep), -1, dtype=np.int64)
    slot[reps] = np.arange(len(reps))
    step = slot[rep[position(ring.mul_array(elems[reps], elems[g]))]]
    low = reps.copy()
    span = 1
    while span < d:
        low = np.minimum(low, low[step])
        step = step[step]
        span *= 2
    sub = _abelian_basis(ring, elems, position, low[slot[rep]])

    out = [(g, d)]
    for k, e in sub:
        c = int(gdlog[rep[position(ring.pow_array(elems[k], e))]])
        if c < 0 or c % e:
            raise BrokenInvariant(f"generator power lands at {c}, not a multiple of {e} in <g>")
        shift = gpow[(d - c // e) % d]
        out.append((int(rep[position(ring.mul_array(elems[k], shift))]), e))
    return out


def _one_plus_ideal_coords(ring: GaloisRing, k: int) -> np.ndarray:
    """Coordinates of 1 + p^k R, one row each, 1 + p^k y for y in lexicographic order."""
    m = ring.p ** (ring.n - k)
    radix = m ** np.arange(ring.s - 1, -1, -1, dtype=np.int64)
    coords = ring.p ** k * ((np.arange(m ** ring.s, dtype=np.int64)[:, None] // radix) % m)
    coords[:, 0] += 1
    return coords


@ring_table
def decompose_unit_group(ring: GaloisRing) -> UnitGroupBasis:
    """Basis of R* = T* x (1 + M) with a complete dlog table, cached per ring.

    The dlog table comes from generation: prod g_i^(e_i) over every exponent
    tuple, in lex order, must hit each unit exactly once.
    """
    p = ring.p
    radix = (ring.pn // p) ** np.arange(ring.s - 1, -1, -1, dtype=np.int64)
    e1 = np.array(ring.one.coords, dtype=np.int64)

    def position(coords: np.ndarray) -> np.ndarray:
        return ((coords - e1) // p) @ radix

    if ring.n > 1:
        elems = _one_plus_ideal_coords(ring, 1)
        h_basis = _abelian_basis(ring, elems, position, np.arange(len(elems)))
    else:
        elems, h_basis = None, []

    generators = (ring.xi,) + tuple(
        RingElement(ring, tuple(elems[g].tolist())) for g, _ in h_basis
    )
    orders = (ring.q - 1,) + tuple(d for _, d in h_basis)
    if math.prod(orders) != ring.unit_count:
        raise BrokenInvariant(f"generator orders {orders} do not multiply to {ring.unit_count}")

    exps = np.unravel_index(np.arange(ring.unit_count), orders)
    coords = None
    for g, d, e in zip(generators, orders, exps):
        factor = _powers(ring, np.array(g.coords, dtype=np.int64), d)[e]
        coords = factor if coords is None else ring.mul_array(coords, factor)
    idx = ring.index_of(coords)
    if not np.array_equal(np.bincount(idx, minlength=ring.element_count), ring.unit_mask()):
        raise BrokenInvariant("the generators do not factor every unit exactly once")
    table = np.zeros((ring.element_count, len(orders)), dtype=np.int64)
    table[idx] = np.stack(exps, axis=1)
    table.flags.writeable = False
    return UnitGroupBasis(ring, generators, orders, math.lcm(*orders), table)


def dlog_matrix(ring: GaloisRing) -> np.ndarray:
    """Read-only (q^n x r) dlog exponents indexed like ring.coord_array().

    Row i is the exponent tuple of element i for a unit and zeros otherwise
    (mask with ring.unit_mask()).  Built with the basis and held by it.
    """
    return decompose_unit_group(ring).dlog_matrix


def _dlog_row(ring: GaloisRing, w: RingElement) -> list[int]:
    """The dlog_matrix row of the unit w; NotAUnit on the maximal ideal."""
    ring._check_same(w)
    i = ring._index(w.coords)
    if not ring.unit_mask()[i]:
        raise NotAUnit(f"{w} lies in the maximal ideal")
    return dlog_matrix(ring)[i].tolist()


@dataclass(frozen=True, eq=False)  # equality as a Mapping
class _DlogView(Mapping):
    """UnitGroupBasis.dlog: the units' dlog_matrix rows keyed by coordinate tuple."""

    ring: GaloisRing

    def __getitem__(self, coords) -> tuple[int, ...]:
        r = self.ring
        if len(coords) != r.s or not all(0 <= c < r.pn for c in coords) or not r._is_unit(coords):
            raise KeyError(coords)
        return tuple(_dlog_row(r, RingElement(r, tuple(coords))))

    def __iter__(self):
        return (u.coords for u in self.ring.units())

    def __len__(self) -> int:
        return self.ring.unit_count


def _scaled_exponents(basis: UnitGroupBasis, start: int, stop: int) -> np.ndarray:
    """X_i = e_i * (L / d_i) for characters [start, stop) in enumerate_characters order.

    A character's value at a unit w is exp(2 pi i (X . dlog(w)) / L).
    """
    return np.stack(np.unravel_index(np.arange(start, stop), basis.orders), axis=1) * basis.scale


def _trivial_on(x: np.ndarray, rows: np.ndarray, L: int) -> np.ndarray:
    """Mask of the characters (rows of x) trivial at every dlog row of rows.

    Rows are checked in blocks that double from ROW_BLOCK; only characters
    trivial on every block so far meet the next one, so the survivors were
    checked on every row.
    """
    alive = np.arange(len(x))
    start, size = 0, ROW_BLOCK
    while start < len(rows) and len(alive):
        vals = (x[alive] @ rows[start : start + size].T) % L
        alive = alive[~vals.any(axis=1)]
        start += size
        size *= 2
    mask = np.zeros(len(x), dtype=bool)
    mask[alive] = True
    return mask


@ring_table
def character_levels(ring: GaloisRing) -> np.ndarray:
    """Read-only int8 triviality levels of every character, in enumerate_characters order.

    The level is the least k with the character trivial on 1 + p^k R; k = 0
    is read as the whole unit group, so only the trivial character has level
    0, and every character is trivial on 1 + p^n R = {1}.  Cached per ring.
    """
    basis = decompose_unit_group(ring)
    table = dlog_matrix(ring)
    subgroups = [table[ring.index_of(_one_plus_ideal_coords(ring, k))] for k in range(1, ring.n)]
    count = math.prod(basis.orders)
    levels = np.full(count, ring.n, dtype=np.int8)
    for start in range(0, count, CHAR_BLOCK):
        x = _scaled_exponents(basis, start, min(start + CHAR_BLOCK, count))
        block = levels[start : start + len(x)]
        nontrivial = x.any(axis=1)
        block[~nontrivial] = 0
        pending = np.flatnonzero(nontrivial)
        for k, rows in enumerate(subgroups, start=1):
            hit = _trivial_on(x[pending], rows, basis.lcm_order)
            block[pending[hit]] = k
            pending = pending[~hit]
    return levels


@ring_table
def character_signs(ring: GaloisRing) -> np.ndarray:
    """Read-only int8 chi(-1), +1 or -1, of every character, in enumerate_characters order.

    Cached per ring.
    """
    num = character_numerators(ring, character_exponents(ring), -ring.one)
    if (2 * num % decompose_unit_group(ring).lcm_order).any():
        raise BrokenInvariant("a character takes a value other than +1 or -1 at -1")
    return np.where(num == 0, 1, -1).astype(np.int8)


# ---------------------------------------------------------------------------
# multiplicative characters


class MultCharacter:
    """A multiplicative character of R*, stored as exponents against the basis."""

    __slots__ = ("ring", "basis", "exponents")

    def __init__(self, ring: GaloisRing, exponents):
        self.ring = ring
        self.basis = decompose_unit_group(ring)
        exps = tuple(e % d for e, d in zip(exponents, self.basis.orders))
        if len(exps) != len(self.basis.orders):
            raise ValueError("exponent tuple has wrong length")
        self.exponents = exps

    @classmethod
    def trivial(cls, ring: GaloisRing) -> MultCharacter:
        basis = decompose_unit_group(ring)
        return cls(ring, (0,) * len(basis.orders))

    @property
    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def eval_unit(self, x: RingElement) -> RootOfUnity:
        L, t = self.basis.lcm_order, _dlog_row(self.ring, x)
        num = sum(e * ti * (L // d) for e, ti, d in zip(self.exponents, t, self.basis.orders))
        return RootOfUnity.make(num, L)

    def extended_eval(self, x: RingElement) -> complex:
        """chi(x) for units; on the maximal ideal: 1 if trivial, else 0."""
        self.ring._check_same(x)
        if x.is_unit:
            return self.eval_unit(x).to_complex()
        return complex(1.0) if self.is_trivial else complex(0.0)

    def trivial_on_subgroup(self, k: int) -> bool:
        """Trivial on 1 + p^k R; k = 0 is read as the whole unit group.

        The subgroups shrink as k grows, so by minimality of the level this
        holds exactly when level <= k.
        """
        return self.level <= max(k, 0)

    @property
    def index(self) -> int:
        """Position in enumerate_characters order: the mixed-radix value of the exponents."""
        index = 0
        for e, d in zip(self.exponents, self.basis.orders):
            index = index * d + e
        return index

    @property
    def level(self) -> int:
        """Triviality level in {0..n}: least k with chi trivial on 1 + p^k R (character_levels)."""
        return int(character_levels(self.ring)[self.index])

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
        """chi(-1), always +1 or -1, from character_signs."""
        return int(character_signs(self.ring)[self.index])

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


@ring_table
def enumerate_characters(ring: GaloisRing) -> list[MultCharacter]:
    """All q^n - q^(n-1) multiplicative characters, exponent tuples in lex order."""
    return [MultCharacter(ring, e) for e in character_exponents(ring).tolist()]


def product_character(chars) -> MultCharacter:
    chars = list(chars)
    out = chars[0]
    for c in chars[1:]:
        out = out * c
    return out


# ---------------------------------------------------------------------------
# characters as exponent arrays: the last axis of X holds one exponent tuple


def character_exponents(ring: GaloisRing) -> np.ndarray:
    """(count x r) exponents of every character, in enumerate_characters order."""
    orders = decompose_unit_group(ring).orders
    return np.stack(np.unravel_index(np.arange(math.prod(orders)), orders), axis=-1)


def character_numerators(ring: GaloisRing, X, w: RingElement) -> np.ndarray:
    """chi(w) = exp(2 pi i num / L) at a unit w for each exponent tuple of X: num mod L."""
    basis = decompose_unit_group(ring)
    return (X * basis.scale) @ np.array(_dlog_row(ring, w)) % basis.lcm_order


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
        if any(c % pk for c in diff):
            raise NotInSubgroup(f"{w} is not in 1 + p^{self.ring.n - 1} R")
        x = self.field.element(tuple((c // pk) % self.ring.p for c in diff))
        return RootOfUnity.make(self.field.trace(self.a * x), self.ring.p)


@ring_table
def _section_map(ring: GaloisRing, section: str) -> dict[tuple[int, ...], MultCharacter]:
    """For each a in F_q the chosen character of R* restricting to phi_a.

    section = "lex-min" picks the lexicographically smallest exponent tuple
    with the right restriction (so the a = 0 section is the trivial
    character); "lex-max" picks the largest and exists to demonstrate that
    downstream quantities do not depend on the choice.  A restriction is an
    additive character of F_q, fixed by its values at the s points
    1 + p^(n-1) xi^i, so its signature there is keyed as one integer below q;
    the keys come from the exponent and dlog arrays, in blocks of characters
    scanned from the chosen end until all q keys are seen.
    """
    if section not in ("lex-min", "lex-max"):
        raise ValueError(f"unknown section {section!r}")
    if ring.n < 2:
        raise ValueError("phi_a needs characteristic exponent n >= 2")
    basis = decompose_unit_group(ring)
    field = ring.residue_field()
    p, L = ring.p, basis.lcm_order
    eye = np.eye(field.s, dtype=np.int64)
    points = p ** (ring.n - 1) * eye + eye[0]  # 1 + p^(n-1) xi^i
    w, place = dlog_matrix(ring)[ring.index_of(points)].T, p ** np.arange(field.s)

    count = math.prod(basis.orders)
    starts = range(0, count, CHAR_BLOCK)
    if section == "lex-max":
        starts = reversed(starts)
    by_sig: dict[int, int] = {}
    for start in starts:
        stop = min(start + CHAR_BLOCK, count)
        num = (_scaled_exponents(basis, start, stop) @ w) % L
        if (num * p % L).any():
            raise BrokenInvariant("a character takes a non-p-th root of unity on 1 + p^(n-1) R")
        sig = num * p // L @ place
        if section == "lex-max":
            sig = sig[::-1]
        rows, first = np.unique(sig, return_index=True)
        for row, i in zip(rows.tolist(), first.tolist()):
            by_sig.setdefault(row, start + i if section == "lex-min" else stop - 1 - i)
        if len(by_sig) == ring.q:
            break

    # phi_a's signature tr(a xi^i) at the basis points, by the bilinear form tr(xi^i xi^j)
    form = field.mul_array(eye[:, None], eye[None, :]) @ np.array(field.trace_weights) % p
    targets = (field.coord_array() @ form % p @ place).tolist()

    out: dict[tuple[int, ...], MultCharacter] = {}
    for a, target in zip(field.elements(), targets):
        index = by_sig.get(target)
        if index is None:
            raise BrokenInvariant(f"no character of R* restricts to phi_{a.coords}")
        exps = np.unravel_index(index, basis.orders)
        out[a.coords] = MultCharacter(ring, tuple(int(e) for e in exps))
    return out


def extend_phi(ring: GaloisRing, a: RingElement, section: str = "lex-min") -> MultCharacter:
    """A character of all of R* whose restriction to 1 + p^(n-1) R is phi_a."""
    field = ring.residue_field()
    field._check_same(a)
    return _section_map(ring, section)[a.coords]


# ---------------------------------------------------------------------------
# transport along the reduction map


def _exponents_at(ring: GaloisRing, X, units: np.ndarray, orders) -> np.ndarray:
    """Exponents against orders of the characters X of ring at units (element indices).

    Row c, column i is e with chi_c(units[i]) = exp(2 pi i e / orders[i]);
    BrokenInvariant when a value's order does not divide orders[i].
    """
    basis = decompose_unit_group(ring)
    L, d = basis.lcm_order, np.array(orders, dtype=np.int64)
    num = (X * basis.scale) @ dlog_matrix(ring)[units].T % L * d
    if (num % L).any():
        raise BrokenInvariant(f"a character at a generator has order beyond {d}")
    return num // L % d


def lift_exponents(ring: GaloisRing, X, k: int) -> np.ndarray:
    """Exponents over ring of psi o tau for the exponent tuples X over ring.reduced(k).

    The inverse of project_exponents: each psi's value at the image of each
    generator of this ring's unit group fixes the exponent there.
    """
    target, basis = ring.reduced(k), decompose_unit_group(ring)
    X = np.asarray(X, dtype=np.int64) % decompose_unit_group(target).orders
    images = np.array([g.coords for g in basis.generators], dtype=np.int64) % target.pn
    return _exponents_at(target, X, target.index_of(images), basis.orders)


def lift_character(psi: MultCharacter, ring: GaloisRing) -> MultCharacter:
    """The character psi o tau of R*, for psi over a quotient of this ring."""
    k = ring.n - psi.ring.n
    if not 1 <= k <= ring.n - 1 or ring.reduced(k).key != psi.ring.key:
        raise RingMismatch(f"{psi.ring} is not a quotient of {ring}")
    return MultCharacter(ring, tuple(lift_exponents(ring, [psi.exponents], k)[0].tolist()))


def project_exponents(ring: GaloisRing, X, k: int) -> np.ndarray:
    """Exponents over ring.reduced(k) of the characters given by the exponent tuples of X.

    Each character must be trivial on 1 + p^(n-k) R; its value at the lift of
    each generator of the quotient's unit group fixes the exponent there.
    """
    basis = decompose_unit_group(ring)
    X = np.asarray(X, dtype=np.int64) % basis.orders
    if (character_levels(ring)[X @ basis.radix] > max(ring.n - k, 0)).any():
        raise ValueError(f"character is not trivial on 1 + p^{ring.n - k} R")
    target = decompose_unit_group(ring.reduced(k))
    lifts = ring.index_of(np.array([g.coords for g in target.generators], dtype=np.int64))
    return _exponents_at(ring, X, lifts, target.orders)


def project_character(chi: MultCharacter, k: int) -> MultCharacter:
    """The character of the quotient ring induced by an (n-k)-or-less-trivial chi."""
    exps = project_exponents(chi.ring, [chi.exponents], k)[0]
    return MultCharacter(chi.ring.reduced(k), tuple(exps.tolist()))


# ---------------------------------------------------------------------------
# exports


def character_table_json(ring: GaloisRing) -> list[dict]:
    """Exponents and level of every character, from the exponent and level arrays."""
    exponents = character_exponents(ring).tolist()
    levels = character_levels(ring).tolist()
    return [{"exponents": e, "triviality_level": lv} for e, lv in zip(exponents, levels)]


def section_json(ring: GaloisRing, section: str = "lex-min") -> list[dict]:
    field = ring.residue_field()
    smap = _section_map(ring, section)
    return [
        {"a": list(a.coords), "exponents": list(smap[a.coords].exponents)}
        for a in field.elements()
    ]
