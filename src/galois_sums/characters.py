"""Multiplicative characters of a Galois ring, as exponent arrays.

A character of the unit group R* = T* x (1 + M) is an exponent tuple against
a fixed basis of R*, and its values are integer exponents modulo one
ring-wide order L (character_numerators) until a summation kernel converts
them to complex doubles through root_table.  MultCharacter wraps one tuple
for the functions that take characters one sum at a time; enumerate_characters
makes each from its row of character_exponents, already reduced.  The additive
characters lambda_b(x) = exp(2 pi i tr(bx) / p^n) have no object here: the
Gauss sums read tr(bx) through trace_form.

The structural tables are whole-array passes over element indices, each
built once per ring and cached on it.  The Teichmuller generator xi spans the
T* factor; the p-group 1 + M is split into cyclic factors over its index
array (element orders by repeated p-th powers, coset representatives as the
least list position of each orbit), making the same choices as the
per-element definition.  dlog_matrix (elements x r) is the one dlog
representation: a character's value at a unit reads the unit's row.  It is
built by expanding prod g_i^(e_i) one generator at a time, every product so
far times every power of the next generator, which lists the units in lex
order of their exponent tuples.  Multiplication by h is Z/p^n-linear, so each
expansion is one integer matrix product, the products so far against the
rows xi^i g^j, with every sum below s (p^n)^2 < 2^41.  character_levels
holds the triviality level of every character.  For j >= 1 the layer
(1 + p^j R)/(1 + p^(j+1) R) is isomorphic to R/pR, so 1 + p^k R is generated
by the s(n - k) elements 1 + p^j xi^i (k <= j < n, i < s), and a level is
read at those s(n - 1) generators alone.  They lie in 1 + M, where the xi
exponent reads 0, so the levels are read for the characters of 1 + M alone
and repeat once per xi exponent.  character_numerators is the one array
evaluator of characters (X_i (L / d_i) . dlog(w) mod L): the levels, the
signs chi(-1), the section map (an exponent table, one row per residue-field
element) and the transports along the reduction map read characters through
it, and exponent_array checks every exponent array taken as input.
"""
from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import BrokenInvariant, NotAUnit, RingMismatch
from .ring import GaloisRing, RingElement, as_int, ring_table, trace_form


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

    def to_complex(self) -> complex:
        if self.numerator == 0:
            return complex(1.0)
        if 2 * self.numerator == self.order:
            return complex(-1.0)
        return cmath.exp(2j * cmath.pi * self.numerator / self.order)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=None)
def root_table(order: int) -> np.ndarray:
    """Read-only complex128 exp(2 pi i j / order) for j = 0..order-1, one cmath evaluation each.

    The one table the summation kernels and the codebook build convert exact
    exponents with, so equal exponents always give equal floats: a function of
    the order alone, which all rings share, so it is memoised here, not by ring_table.
    """
    roots = np.array([RootOfUnity(j, order).to_complex() for j in range(order)], dtype=complex)
    roots.flags.writeable = False
    return roots


# ---------------------------------------------------------------------------
# unit-group basis

# characters per block of the level and section scans
CHAR_BLOCK = 2048


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
    # read-only int64 arrays made with the basis: the orders (reduce exponent arrays), their place
    # values (exponents @ radix is the enumerate_characters index), L / d_i (e_i to the order L)
    order_array: np.ndarray = field(init=False, repr=False, compare=False)
    radix: np.ndarray = field(init=False, repr=False, compare=False)
    scale: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.order_array = _read_only(np.array(self.orders, dtype=np.int64))
        places = [math.prod(self.orders[i + 1 :]) for i in range(len(self.orders))]
        self.radix = _read_only(np.array(places, dtype=np.int64))
        self.scale = _read_only(self.lcm_order // self.order_array)

    @property
    def dlog(self) -> Mapping[tuple[int, ...], tuple[int, ...]]:
        """Coordinate tuple of a unit -> its exponent tuple, a view of dlog_matrix."""
        return _DlogView(self.ring)


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


def _times(ring: GaloisRing, rows: np.ndarray) -> np.ndarray:
    """(s x ks) int64 M with (y @ M % p^n)[j s : (j + 1) s] = y * rows[j] for k rows.

    y * h = sum_i y_i (xi^i h), so block j of row i is xi^i rows[j].  An entry
    of y @ M sums s products below (p^n)^2, and s (p^n)^2 < 2^41 under the
    2^20 element cap, far from int64 overflow.
    """
    xi_rows = np.eye(ring.s, dtype=np.int64)  # coordinates of xi^0..xi^(s-1)
    return ring.mul_array(xi_rows[:, None], rows[None]).reshape(ring.s, -1)


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
    step = slot[rep[position(elems[reps] @ _times(ring, elems[g : g + 1]) % ring.pn)]]
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


@ring_table
def decompose_unit_group(ring: GaloisRing) -> UnitGroupBasis:
    """Basis of R* = T* x (1 + M) with a complete dlog table, cached per ring.

    The dlog table comes from generation, one generator at a time: the
    products so far (prod g_j^(e_j), j < i, in lex order) times g_i^0, ...,
    g_i^(d_i - 1), one matrix product (_times), are the products over the
    first i generators, again in lex order.  The last expansion must hit each
    unit exactly once.
    """
    p, m = ring.p, ring.pn // ring.p
    radix = m ** np.arange(ring.s - 1, -1, -1, dtype=np.int64)
    e1 = np.array(ring.one.coords, dtype=np.int64)

    def position(coords: np.ndarray) -> np.ndarray:
        return ((coords - e1) // p) @ radix

    if ring.n > 1:  # 1 + M = 1 + pR, 1 + p y for y in lexicographic order
        elems = p * (np.arange(m ** ring.s, dtype=np.int64)[:, None] // radix % m) + e1
        h_basis = _abelian_basis(ring, elems, position, np.arange(len(elems)))
    else:
        elems, h_basis = None, []

    generators = (ring.xi,) + tuple(
        RingElement(ring, tuple(elems[g].tolist())) for g, _ in h_basis
    )
    orders = (ring.q - 1,) + tuple(d for _, d in h_basis)
    if math.prod(orders) != ring.unit_count:
        raise BrokenInvariant(f"generator orders {orders} do not multiply to {ring.unit_count}")

    coords = e1[None]
    for g, d in zip(generators, orders):
        powers = _powers(ring, np.array(g.coords, dtype=np.int64), d)
        coords = (coords @ _times(ring, powers) % ring.pn).reshape(-1, ring.s)
    idx = ring.index_of(coords)
    if not np.array_equal(np.bincount(idx, minlength=ring.element_count), ring.unit_mask()):
        raise BrokenInvariant("the generators do not factor every unit exactly once")
    table = np.zeros((ring.element_count, len(orders)), dtype=np.int64)
    table[idx] = np.stack(np.unravel_index(np.arange(ring.unit_count), orders), axis=1)
    return UnitGroupBasis(ring, generators, orders, math.lcm(*orders), _read_only(table))


def dlog_matrix(ring: GaloisRing) -> np.ndarray:
    """Read-only (q^n x r) dlog exponents indexed like ring.coord_array().

    Row i is the exponent tuple of element i for a unit and zeros otherwise
    (mask with ring.unit_mask()).  Built with the basis and held by it.
    """
    return decompose_unit_group(ring).dlog_matrix


@dataclass(frozen=True, eq=False)  # equality as a Mapping
class _DlogView(Mapping):
    """UnitGroupBasis.dlog: the units' dlog_matrix rows keyed by coordinate tuple."""

    ring: GaloisRing

    def __getitem__(self, coords) -> tuple[int, ...]:
        r = self.ring
        if len(coords) != r.s or not all(0 <= c < r.pn for c in coords) or not r._is_unit(coords):
            raise KeyError(coords)
        return tuple(dlog_matrix(r)[r._index(coords)].tolist())

    def __iter__(self):
        return self.ring.units()._tuples()

    def __len__(self) -> int:
        return self.ring.unit_count


def _exponent_block(basis: UnitGroupBasis, start: int, stop: int) -> np.ndarray:
    """(stop - start) x r exponents of characters [start, stop) in enumerate_characters order."""
    return np.stack(np.unravel_index(np.arange(start, stop), basis.orders), axis=1)


@ring_table
def character_levels(ring: GaloisRing) -> np.ndarray:
    """Read-only int8 triviality levels of every character, in enumerate_characters order.

    The level is the least k with the character trivial on 1 + p^k R; k = 0
    is read as the whole unit group, so only the trivial character has level
    0, and every character is trivial on 1 + p^n R = {1}.  1 + p^k R is
    generated by the 1 + p^j xi^i with k <= j < n and i < s, so a nontrivial
    character's level is one past the deepest layer j with a generator it
    does not kill, and 1 when it kills them all.  Those generators lie in
    1 + M, so only the characters with xi exponent 0, the first
    prod(orders[1:]) in enumeration order, are read; the rest repeat them.
    Cached per ring.
    """
    basis = decompose_unit_group(ring)
    layers, eye = np.arange(1, ring.n), np.eye(ring.s, dtype=np.int64)
    points = (ring.p ** layers[:, None, None] * eye + eye[0]).reshape(-1, ring.s)
    units = ring.index_of(points)  # s(n - 1) generators, layer by layer
    count = math.prod(basis.orders[1:])  # xi exponent 0, the most significant digit
    levels = np.empty(count, dtype=np.int8)
    for start in range(0, count, CHAR_BLOCK):
        x = _exponent_block(basis, start, min(start + CHAR_BLOCK, count))
        live = character_numerators(ring, x, units).reshape(len(x), -1, ring.s).any(axis=2)
        levels[start : start + len(x)] = 1 + (live * layers).max(axis=1, initial=0)
    levels = np.tile(levels, basis.orders[0])
    levels[0] = 0  # the trivial character
    return levels


@ring_table
def character_signs(ring: GaloisRing) -> np.ndarray:
    """Read-only int8 chi(-1), +1 or -1, of every character, in enumerate_characters order.

    Cached per ring.
    """
    minus_one = [ring._index((-ring.one).coords)]
    num = character_numerators(ring, character_exponents(ring), minus_one)[:, 0]
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
        exponents, r = tuple(exponents), len(self.basis.orders)
        if len(exponents) != r:  # checked before zip could truncate
            raise ValueError(f"exponent tuples over {ring} need r = {r} entries, got {len(exponents)}")
        self.exponents = tuple(as_int(e, "an exponent") % d for e, d in zip(exponents, self.basis.orders))

    @classmethod
    def _of_row(cls, basis: UnitGroupBasis, exponents: tuple[int, ...]) -> MultCharacter:
        """The character of a reduced exponent tuple of basis's ring, taken as it is."""
        chi = cls.__new__(cls)
        chi.ring, chi.basis, chi.exponents = basis.ring, basis, exponents
        return chi

    @classmethod
    def trivial(cls, ring: GaloisRing) -> MultCharacter:
        basis = decompose_unit_group(ring)
        return cls(ring, (0,) * len(basis.orders))

    @property
    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)

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

    def __mul__(self, other: MultCharacter) -> MultCharacter:
        if self.ring.key != other.ring.key:
            raise RingMismatch("characters over different rings")
        return MultCharacter(
            self.ring, tuple(a + b for a, b in zip(self.exponents, other.exponents))
        )

    def inverse(self) -> MultCharacter:
        return MultCharacter(self.ring, tuple(-e for e in self.exponents))

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
    """All q^n - q^(n-1) multiplicative characters, exponent tuples in lex order.

    Each is made from its row of character_exponents, which is already reduced.
    """
    basis = decompose_unit_group(ring)
    return [MultCharacter._of_row(basis, e) for e in map(tuple, character_exponents(ring).tolist())]


# ---------------------------------------------------------------------------
# characters as exponent arrays: the last axis of X holds one exponent tuple

DEFAULT_TERM_CAP = 10 ** 7  # the terms one brute-force sum may take unless its caller sets a cap


def exponent_array(ring: GaloisRing, X) -> np.ndarray:
    """X as a new int64 array reduced mod the generator orders, one exponent tuple per last axis.

    The input contract of every function taking characters as an exponent
    array: ValueError unless the last axis holds exactly r entries.
    """
    basis = decompose_unit_group(ring)
    X, r = np.asarray(X, dtype=np.int64), len(basis.orders)
    if X.shape[-1:] != (r,):
        raise ValueError(f"exponent tuples over {ring} need r = {r} entries, got shape {X.shape}")
    return X % basis.order_array


def _exponent_tuples(ring: GaloisRing, X) -> np.ndarray:
    """X as a (C x m x r) exponent_array of m >= 2 characters per tuple; ValueError otherwise."""
    X = exponent_array(ring, X)
    if X.ndim != 3 or X.shape[1] < 2:
        raise ValueError("need at least two characters")
    return X


def _check_k(k: int, m: int) -> int:
    if not 1 <= k <= m - 1:
        raise ValueError("need 1 <= k <= m - 1")
    return k


def character_exponents(ring: GaloisRing) -> np.ndarray:
    """(count x r) exponents of every character, in enumerate_characters order."""
    basis = decompose_unit_group(ring)
    return _exponent_block(basis, 0, math.prod(basis.orders))


def character_numerators(ring: GaloisRing, X, units) -> np.ndarray:
    """chi(w) = exp(2 pi i num / L) for each exponent tuple of X at each unit w: num mod L.

    units is a 1-D array of element indices, and the result (... x len(units))
    holds X_i (L / d_i) . dlog(w) mod L; NotAUnit when an index is not a unit.
    """
    basis, X = decompose_unit_group(ring), exponent_array(ring, X)
    units = np.asarray(units, dtype=np.int64)
    inside = units[~ring.unit_mask()[units]]
    if inside.size:
        raise NotAUnit(f"element index {inside[0]} of {ring} lies in the maximal ideal")
    X *= basis.scale
    return X @ dlog_matrix(ring)[units].T % basis.lcm_order


# ---------------------------------------------------------------------------
# the extension to R* of the characters phi_a of 1 + p^(n-1) R, where
# phi_a(1 + p^(n-1) x) = exp(2 pi i tr(a tau_1(x)) / p) for a in F_q


# the section choices of _section_map; the first is the default
SECTIONS = ("lex-min", "lex-max")


@ring_table
def _section_map(ring: GaloisRing, section: str) -> np.ndarray:
    """Read-only (q x r) exponents of the chosen character of R* restricting to phi_a.

    Row i is the section at the i-th element of field.elements().  section =
    "lex-min" picks the lexicographically smallest exponent tuple with the
    right restriction (so the a = 0 section is the trivial character);
    "lex-max" picks the largest and exists to demonstrate that downstream
    quantities do not depend on the choice.  A restriction is an
    additive character of F_q, fixed by its values at the s points
    1 + p^(n-1) xi^i, so its signature there is keyed as one integer below q;
    the keys come from the exponent and dlog arrays, in blocks of characters
    scanned from the chosen end until all q keys are seen.
    """
    if section not in SECTIONS:
        raise ValueError(f"unknown section {section!r}")
    if ring.n < 2:
        raise ValueError("phi_a needs characteristic exponent n >= 2")
    basis = decompose_unit_group(ring)
    field = ring.residue_field()
    p, L = ring.p, basis.lcm_order
    eye = np.eye(field.s, dtype=np.int64)
    units = ring.index_of(p ** (ring.n - 1) * eye + eye[0])  # 1 + p^(n-1) xi^i
    place = p ** np.arange(field.s)

    count = math.prod(basis.orders)
    starts = range(0, count, CHAR_BLOCK)
    if section == "lex-max":
        starts = reversed(starts)
    by_sig: dict[int, int] = {}
    for start in starts:
        stop = min(start + CHAR_BLOCK, count)
        num = character_numerators(ring, _exponent_block(basis, start, stop), units)
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
    targets = (field.coord_array() @ trace_form(field) % p @ place).tolist()

    for a, target in zip(field.elements(), targets):
        if target not in by_sig:
            raise BrokenInvariant(f"no character of R* restricts to phi_{a.coords}")
    return np.stack(np.unravel_index([by_sig[t] for t in targets], basis.orders), axis=1)


def extend_phi(ring: GaloisRing, a: RingElement, section: str = "lex-min") -> MultCharacter:
    """A character of all of R* whose restriction to 1 + p^(n-1) R is phi_a."""
    field = ring.residue_field()
    field._check_same(a)
    return MultCharacter(ring, _section_map(ring, section)[field._index(a.coords)].tolist())


# ---------------------------------------------------------------------------
# transport along the reduction map


def _exponents_at(ring: GaloisRing, X, units: np.ndarray, orders) -> np.ndarray:
    """Exponents against orders of the characters X of ring at units (element indices).

    Row c, column i is e with chi_c(units[i]) = exp(2 pi i e / orders[i]);
    BrokenInvariant when a value's order does not divide orders[i].
    """
    L, d = decompose_unit_group(ring).lcm_order, np.array(orders, dtype=np.int64)
    num = character_numerators(ring, X, units) * d
    if (num % L).any():
        raise BrokenInvariant(f"a character at a generator has order beyond {d}")
    return num // L % d


def lift_exponents(ring: GaloisRing, X, k: int) -> np.ndarray:
    """Exponents over ring of psi o tau for the exponent tuples X over ring.reduced(k).

    The inverse of project_exponents: each psi's value at the image of each
    generator of this ring's unit group fixes the exponent there.
    """
    target, basis = ring.reduced(k), decompose_unit_group(ring)
    X = exponent_array(target, X)
    images = np.array([g.coords for g in basis.generators], dtype=np.int64) % target.pn
    return _exponents_at(target, X, target.index_of(images), basis.orders)


def project_exponents(ring: GaloisRing, X, k: int) -> np.ndarray:
    """Exponents over ring.reduced(k) of the characters given by the exponent tuples of X.

    Each character must be trivial on 1 + p^(n-k) R; its value at the lift of
    each generator of the quotient's unit group fixes the exponent there.
    """
    basis, X = decompose_unit_group(ring), exponent_array(ring, X)
    if (character_levels(ring)[X @ basis.radix] > max(ring.n - k, 0)).any():
        raise ValueError(f"character is not trivial on 1 + p^{ring.n - k} R")
    target = decompose_unit_group(ring.reduced(k))
    lifts = ring.index_of(np.array([g.coords for g in target.generators], dtype=np.int64))
    return _exponents_at(ring, X, lifts, target.orders)


# ---------------------------------------------------------------------------
# exports


def character_table_json(ring: GaloisRing) -> list[dict]:
    """Exponents and level of every character, from the exponent and level arrays."""
    exponents = character_exponents(ring).tolist()
    levels = character_levels(ring).tolist()
    return [{"exponents": e, "triviality_level": lv} for e, lv in zip(exponents, levels)]


def section_json(ring: GaloisRing, section: str = "lex-min") -> list[dict]:
    """The section map: each a of the residue field with the exponents of its section."""
    exponents, field = _section_map(ring, section).tolist(), ring.residue_field()
    return [{"a": list(a.coords), "exponents": e} for a, e in zip(field.elements(), exponents)]
