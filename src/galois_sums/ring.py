"""Galois rings GR(p^n, p^ns) with exact arithmetic.

The ring is the quotient Z_{p^n}[x]/(h(x)) where h is a monic degree-s
polynomial whose reduction mod p is primitive over F_p and which divides
x^(p^s - 1) - 1 over Z_{p^n}.  Elements are stored in the polynomial basis
1, xi, ..., xi^(s-1) with coefficients in Z_{p^n}; xi (the class of x) has
multiplicative order p^s - 1.  For s = 1 the ring is Z_{p^n} itself and xi
is the unique Teichmuller generator of the (p-1)-torsion.  One polynomial
arithmetic, _mulmod and _powmod over ascending coefficient tuples modulo a
monic h, serves the elements, the modulus search and its validation, and a
ring holds h as that tuple, Python ints.

The shape is checked once per ring, per build_ring call and per modulus
search (_check_shape), and every modulus coefficient is an integer (as_int).
Structural tables are built eagerly and every invariant is checked at build
time; failures raise InvalidModulus.  The invariants are: the modulus has
degree s, is monic and has reduced coefficients; x has order p^s - 1 modulo
(h, p) (so the reduction is irreducible and primitive); x^(q-1) = 1 modulo
(h, p^n), i.e. h divides x^(q-1) - 1; xi^(q-1) = 1 with q - 1 distinct
powers; and the Teichmuller residues mod p are distinct.  t^q = t then holds
for every t = xi^i (and t = 0).  The tables are the Teichmuller set (0,
then the powers of xi), the Frobenius coordinate map, and the trace as a
linear form: the weights tr(xi^i), each computed once as a Frobenius sum.
Derived tables, among them the numpy index tables that vectorized kernels
use (element index = position in elements(); mul_array multiplies
coordinate arrays row-wise; elements() and units() are read-only views of
coord_array, the units at unit_indices, that keep no RingElement) and the
Teichmuller digits of every element (teich_digits; teichmuller_decompose and
teich_lift read one row of it, and the first digit equals x^(q^(n-1)) on
every element), are built lazily through one memo, ring_table, which keeps
each table in the ring's _cache and makes array tables read-only.  Each entry
is a deterministic function of the ring alone, so rings are safe to share
across threads: a racing recomputation writes the same value.  build_ring,
reduced and from_json return the one ring per key that the process keeps
(_RINGS).  The per-element methods raise RingMismatch on an element of
another ring.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Sequence

import numpy as np

from .errors import (
    BadLevel,
    BrokenInvariant,
    InvalidModulus,
    NotAUnit,
    NotInBaseRing,
    RingMismatch,
    SizeLimit,
    TooLarge,
)

DEFAULT_ELEMENT_CAP = 1 << 20


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, for the group orders q - 1 only."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# Miller-Rabin at the first 13 primes decides every n below MR_BOUND
# (Sorenson and Webster, Math. Comp. 86 (2017) 985-1003)
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < MR_BOUND."""
    if n < 2:
        return False
    for b in MR_BASES:
        if n % b == 0:
            return n == b
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^r with d odd
    d = (n - 1) >> r
    for b in MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _root(q: int, e: int) -> int:
    """floor(q^(1/e)) for q >= 1, by Newton's method on integers from above."""
    x = 1 << -(-q.bit_length() // e)
    while True:
        y = ((e - 1) * x + q // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def is_prime_power(q: int) -> bool:
    """q = p^e for a prime p; TooLarge for q >= MR_BOUND, where the bases no longer decide.

    For the largest e <= log2 q with an exact e-th root r, r is no perfect
    power, so q is a prime power exactly when r is prime.
    """
    if q >= MR_BOUND:
        raise TooLarge(f"q = {q} is past the primality test's bound {MR_BOUND}")
    if q < 2:
        return False
    for e in range(q.bit_length() - 1, 0, -1):
        r = _root(q, e)
        if r ** e == q:
            return _is_prime(r)
    return False


def as_int(value, what: str) -> int:
    """operator.index(value), so numpy ints pass; ValueError for a bool or a non-integer."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _exponent(e) -> int:
    """A power's exponent as a Python int (as_int); ValueError before any loop when it is negative."""
    e = as_int(e, "an exponent")
    if e < 0:
        raise ValueError(f"an exponent must be >= 0, got {e}")
    return e


def _check_shape(p, n, s, element_cap: int | None = None) -> tuple[int, int, int]:
    """p, n and s as Python ints, checked once per ring, per build_ring call and per modulus search.

    In order: integers (as_int); n, s >= 1; at most element_cap elements (None:
    no cap); p prime, TooLarge from MR_BOUND on.  The cap comes before the
    primality test, and since p^(ns) >= 2^(ns), the power is formed with its
    exponent clipped at the cap's bit length.
    """
    p, n, s = as_int(p, "p"), as_int(n, "n"), as_int(s, "s")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if element_cap is not None and p > 1 and p ** min(n * s, int(element_cap).bit_length()) > element_cap:
        raise SizeLimit(f"p = {p}, n = {n}, s = {s} exceeds the cap of {element_cap} elements")
    if p >= MR_BOUND:
        raise TooLarge(f"p = {p} is past the primality test's bound {MR_BOUND}")
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return p, n, s


def _poly_text(h) -> str:
    """The ascending coefficient tuple h as text, highest degree first: x^2 + 11x + 7."""
    terms = []
    for i in range(len(h) - 1, -1, -1):
        if h[i]:
            xs = "" if i == 0 else "x" if i == 1 else f"x^{i}"
            terms.append(xs if h[i] == 1 and i else f"{h[i]}{xs}")
    return " + ".join(terms) or "0"


# ---------------------------------------------------------------------------
# polynomial arithmetic modulo a monic h (ascending coefficient tuples)


def _mulmod(a, b, h, mod: int) -> tuple[int, ...]:
    """a * b reduced modulo the monic h and mod, as deg(h) coefficients.

    a and b may have any degree; the convolution is folded mod h from the top
    degree down, each top coefficient reduced mod `mod` before it is folded.
    """
    s = len(h) - 1
    conv = [0] * max(len(a) + len(b) - 1, s)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                conv[i + j] += ai * bj
    for d in range(len(conv) - 1, s - 1, -1):
        c = conv[d] % mod
        if c:
            for j, hj in zip(range(d - s, d), h):
                conv[j] -= c * hj
    return tuple([c % mod for c in conv[:s]])


def _powmod(a, e: int, h, mod: int) -> tuple[int, ...]:
    """a^e modulo the monic h and mod, by square and multiply."""
    result = (1,) + (0,) * (len(h) - 2)
    while e:
        if e & 1:
            result = _mulmod(result, a, h, mod)
        e >>= 1
        if e:
            a = _mulmod(a, a, h, mod)
    return result


def _x_order_divides(e: int, h, mod: int) -> bool:
    """x^e = 1 modulo the monic h and mod: h divides x^e - 1 over Z_mod."""
    r = _powmod((0, 1), e, h, mod)
    return r[0] == 1 and not any(r[1:])


def _is_primitive(f, p: int) -> bool:
    """f monic of degree s over F_p; the class of x has order p^s - 1.

    That order needs p^s - 1 units in F_p[x]/(f), so f is irreducible too.
    """
    q1 = p ** (len(f) - 1) - 1
    return _x_order_divides(q1, f, p) and not any(
        _x_order_divides(q1 // ell, f, p) for ell in factorize(q1)
    )


def find_basic_primitive_poly(p: int, n: int, s: int) -> tuple[int, ...]:
    """Deterministic monic degree-s modulus for GR(p^n, p^ns).

    The reduction mod p is the lexicographically smallest primitive polynomial
    over F_p (coefficients compared from degree s-1 down to the constant; for
    s = 1, x - g with g the smallest primitive root mod p), and the returned
    polynomial is its unique monic lift dividing x^(p^s - 1) - 1 over
    Z_{p^n}.  The lift is found by Hensel's lemma, one p-adic digit of every
    coefficient per level: at level j the p^s choices of digit j are tried
    against x^(q-1) = 1 mod (h, p^(j+1)), and exactly one passes.  The
    result is the ascending coefficient tuple, the monic 1 last.
    """
    p, n, s = _check_shape(p, n, s)
    q = p ** s
    if s == 1:
        candidates = (((-g) % p, 1) for g in range(1, p))
    else:
        candidates = (d[::-1] + (1,) for d in itertools.product(range(p), repeat=s))
    h = next((f for f in candidates if _is_primitive(f, p)), None)
    if h is None:
        raise BrokenInvariant(f"no primitive polynomial of degree {s} over F_{p}")
    for pj in (p ** j for j in range(1, n)):
        digits = itertools.product(range(0, p * pj, pj), repeat=s)
        lifts = (tuple(map(operator.add, h, d)) + (1,) for d in digits)
        h = next((f for f in lifts if _x_order_divides(q - 1, f, p * pj)), None)
        if h is None:  # pragma: no cover
            raise InvalidModulus(f"no lift of the modulus mod {p * pj} divides x^{q - 1} - 1")
    return h


def _ring_key(p, n, s, modulus, element_cap: int) -> tuple:
    """The key (p, n, s, modulus) of GR(p^n, p^ns): the shape checked (_check_shape), then the
    modulus, the canonical one when None, as a tuple of Python ints against every invariant."""
    p, n, s = _check_shape(p, n, s, element_cap)
    if modulus is None:
        modulus = find_basic_primitive_poly(p, n, s)
    try:
        h = tuple(as_int(c, "a modulus coefficient") for c in modulus)
    except (TypeError, ValueError) as exc:
        raise InvalidModulus(f"modulus must be a sequence of integers: {exc}") from None
    pn, q = p ** n, p ** s
    if len(h) != s + 1:
        raise InvalidModulus(f"modulus degree must be {s}")
    if h[-1] != 1:
        raise InvalidModulus("modulus must be monic")
    if any(not (0 <= c < pn) for c in h):
        raise InvalidModulus(f"coefficients must be reduced mod {pn}")
    if not _is_primitive([c % p for c in h], p):
        raise InvalidModulus("reduction mod p is not a primitive polynomial")
    if not _x_order_divides(q - 1, h, pn):
        raise InvalidModulus(f"{_poly_text(h)} does not divide x^{q - 1} - 1 mod {pn}")
    return p, n, s, h


def ring_table(fn):
    """Memoise fn(ring, *args) in ring._cache, one entry per args; an ndarray is made read-only.

    A hit is one dict lookup.  Each entry is a deterministic function of the
    ring and args, so a racing recomputation stores an equal value.
    """

    @functools.wraps(fn)
    def table(ring, *args):
        key = (fn, *args)
        try:
            return ring._cache[key]
        except KeyError:
            pass
        value = fn(ring, *args)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        ring._cache[key] = value
        return value

    return table


class RingElement:
    """An element of a GaloisRing in polynomial-basis coordinates."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring: GaloisRing, coords: tuple[int, ...]):
        self.ring = ring
        self.coords = coords

    def __add__(self, other: RingElement) -> RingElement:
        self.ring._check_same(other)
        pn = self.ring.pn
        coords = tuple((a + b) % pn for a, b in zip(self.coords, other.coords))
        return RingElement(self.ring, coords)

    def __sub__(self, other: RingElement) -> RingElement:
        self.ring._check_same(other)
        pn = self.ring.pn
        coords = tuple((a - b) % pn for a, b in zip(self.coords, other.coords))
        return RingElement(self.ring, coords)

    def __mul__(self, other: RingElement) -> RingElement:
        self.ring._check_same(other)
        return RingElement(self.ring, self.ring._mul(self.coords, other.coords))

    def __neg__(self) -> RingElement:
        return RingElement(self.ring, tuple((-a) % self.ring.pn for a in self.coords))

    def __pow__(self, e: int) -> RingElement:
        return RingElement(self.ring, self.ring._pow(self.coords, e))

    def inv(self) -> RingElement:
        return RingElement(self.ring, self.ring._inv(self.coords))

    @property
    def is_unit(self) -> bool:
        return self.ring._is_unit(self.coords)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RingElement)
            and self.ring.key == other.ring.key
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"RingElement{self.coords}"


class _ElementView(Sequence):
    """A ring's elements() or units(): a read-only sequence that keeps no element.

    Entry i is made when it is read, from one row of the ring's coord_array:
    row i for elements(), row unit_indices()[i] for units().  Iteration makes
    the entries in order from itertools.product, filtered by unit_mask for
    units().  A slice is a list.
    """

    __slots__ = ("_ring", "_rows", "_positions", "_mask")

    def __init__(self, ring: GaloisRing, positions=None, mask=None):
        self._ring, self._rows = ring, ring.coord_array()
        self._positions, self._mask = positions, mask  # unit_indices and unit_mask, or None

    def __len__(self) -> int:
        return len(self._rows if self._positions is None else self._positions)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = operator.index(i)
        if self._positions is not None:
            i = self._positions[i]
        return RingElement(self._ring, tuple(self._rows[i].tolist()))

    def _tuples(self):
        """The entries' coordinate tuples, in order, with no element made."""
        coords = itertools.product(range(self._ring.pn), repeat=self._ring.s)
        return coords if self._mask is None else itertools.compress(coords, self._mask)

    def __iter__(self):
        return map(RingElement, itertools.repeat(self._ring), self._tuples())


class GaloisRing:
    """Immutable context for GR(p^n, p^ns): modulus, Teichmuller table, Frobenius and trace."""

    def __init__(
        self,
        p: int,
        n: int,
        s: int,
        modulus: Sequence[int] | None = None,
        element_cap: int = DEFAULT_ELEMENT_CAP,
    ):
        self.key = _ring_key(p, n, s, modulus, element_cap)  # equality, hashing and _check_same
        p, n, s, self.modulus = self.key  # the modulus: ascending coefficients, Python ints
        self.p, self.n, self.s = p, n, s
        self.q = p ** s
        self.pn = p ** n
        self.element_count = self.q ** n
        self.unit_count = self.q ** n - self.q ** (n - 1)
        self._place = tuple(self.pn ** (s - 1 - i) for i in range(s))  # index of coords
        self._log_p = {p ** k: k for k in range(n + 1)}
        self._cache: dict = {}  # the ring_table memo

        self.zero = RingElement(self, (0,) * s)
        self.one = RingElement(self, (1,) + (0,) * (s - 1))
        self.xi = RingElement(self, self._mul(self.one.coords, (0, 1)))  # the class of x

        self._build_teichmuller()
        self._build_frobenius()

    # -- construction helpers ------------------------------------------------

    def _build_teichmuller(self) -> None:
        powers = [self.one.coords]
        acc = self.one.coords
        for _ in range(self.q - 2):
            acc = self._mul(acc, self.xi.coords)
            powers.append(acc)
        if self._mul(acc, self.xi.coords) != self.one.coords:
            raise InvalidModulus("xi does not have order q - 1")
        if len(set(powers)) != self.q - 1:
            raise InvalidModulus("powers of xi are not distinct")
        self.xi_powers = [RingElement(self, c) for c in powers]
        self.teich_set = [self.zero] + self.xi_powers
        p = self.p
        if len({tuple(c % p for c in t.coords) for t in self.teich_set}) != self.q:
            raise InvalidModulus("Teichmuller residues mod p are not distinct")

    def _build_frobenius(self) -> None:
        # phi maps sum a_i xi^i to sum a_i xi^(i p); rows give xi^(i p) coords
        rows = []
        for i in range(self.s):
            rows.append(self.xi_powers[(i * self.p) % (self.q - 1)].coords)
        self._frob_rows = rows
        self.trace_weights = tuple(
            self._frobenius_trace(t.coords) for t in self.xi_powers[: self.s]
        )

    def _frobenius_trace(self, coords: tuple[int, ...]) -> int:
        """tr(x) = x + phi(x) + ... + phi^(s-1)(x), which must land in Z_{p^n}."""
        acc = cur = RingElement(self, coords)
        for _ in range(self.s - 1):
            cur = self.frobenius(cur)
            acc = acc + cur
        if any(c != 0 for c in acc.coords[1:]):
            raise NotInBaseRing(f"trace of {coords} is {acc}, not a scalar")
        return acc.coords[0]

    # -- tuple-level arithmetic (performance kernels use these directly) ------

    def _check_same(self, other) -> None:
        ring = other.ring if isinstance(other, RingElement) else other
        if ring is not self and ring.key != self.key:
            raise RingMismatch(f"{ring} is not {self}")

    def _mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return _mulmod(a, b, self.modulus, self.pn)

    def mul_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise products of reduced int64 coordinate arrays (last axis s).

        a and b broadcast against each other.  Each convolution column is
        reduced mod p^n before the modulus is folded in, so with p^n <= 2^20
        no intermediate comes near 2^63.  The columns are folded by
        assignment: for two (s,) rows each one is a numpy scalar.
        """
        s, pn = self.s, self.pn
        if s == 1:
            return (a * b) % pn
        conv = []
        for d in range(2 * s - 1):
            lo, hi = max(0, d - s + 1), min(d, s - 1)
            col = a[..., lo] * b[..., d - lo]
            for i in range(lo + 1, hi + 1):
                col = col + a[..., i] * b[..., d - i]
            conv.append(col % pn)
        for d in range(2 * s - 2, s - 1, -1):
            c = conv[d]
            for j, hj in enumerate(self.modulus[:-1]):
                if hj:
                    conv[d - s + j] = (conv[d - s + j] - c * hj) % pn
        out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
        for i in range(s):
            out[..., i] = conv[i]
        return out

    def pow_array(self, a: np.ndarray, e: int) -> np.ndarray:
        """Row-wise e-th powers of a coordinate array, by square and multiply; e >= 0."""
        e = _exponent(e)
        result = np.broadcast_to(np.array(self.one.coords, dtype=np.int64), a.shape)
        acc = a
        while e > 0:
            if e & 1:
                result = self.mul_array(result, acc)
            e >>= 1
            if e:
                acc = self.mul_array(acc, acc)
        return np.ascontiguousarray(result)

    def _pow(self, a: tuple[int, ...], e: int) -> tuple[int, ...]:
        return _powmod(a, _exponent(e), self.modulus, self.pn)

    def _is_unit(self, a: tuple[int, ...]) -> bool:
        p = self.p
        return any(c % p != 0 for c in a)

    def _inv(self, a: tuple[int, ...]) -> tuple[int, ...]:
        if not self._is_unit(a):
            raise NotAUnit(f"{a} lies in the maximal ideal")
        return self._pow(a, self.unit_count - 1)

    # -- public element API ----------------------------------------------------

    def element(self, coords) -> RingElement:
        """The element with these coordinates, each an integer (as_int) reduced mod p^n."""
        coords = tuple(as_int(c, "a coordinate") % self.pn for c in coords)
        if len(coords) != self.s:
            raise ValueError(f"expected {self.s} coordinates, got {len(coords)}")
        return RingElement(self, coords)

    def scalar(self, c: int) -> RingElement:
        """The integer c (as_int) reduced mod p^n, as an element of the base ring."""
        return RingElement(self, (as_int(c, "a scalar") % self.pn,) + (0,) * (self.s - 1))

    def p_power(self, k: int) -> RingElement:
        """p^k for an integer k (as_int) in [0, n]; p^n is zero."""
        k = as_int(k, "k")
        if not 0 <= k <= self.n:
            raise ValueError(f"k must be in [0, {self.n}]")
        return self.scalar(self.p ** k) if k < self.n else self.zero

    @ring_table
    def elements(self) -> Sequence[RingElement]:
        """All q^n elements in lexicographic coordinate order, a read-only view of coord_array."""
        return _ElementView(self)

    @ring_table
    def coord_array(self) -> np.ndarray:
        """Read-only (q^n x s) coordinates of every element, in elements() order.

        Row i holds the digits of i in base p^n, most significant first, so
        index_of inverts it.
        """
        rows = np.arange(self.element_count, dtype=np.int64)[:, None] // self._radix()
        rows %= self.pn  # in place: one q^n x s array, not two
        return rows

    @ring_table
    def unit_mask(self) -> np.ndarray:
        """Read-only boolean mask of the units, indexed like coord_array."""
        return (self.coord_array() % self.p != 0).any(axis=1)

    @ring_table
    def unit_indices(self) -> np.ndarray:
        """Read-only ascending element indices of the units."""
        return np.flatnonzero(self.unit_mask())

    def index_of(self, coords: np.ndarray) -> np.ndarray:
        """Element indices of reduced coordinate rows (last axis of length s)."""
        return coords @ self._radix()

    def _index(self, coords: tuple[int, ...]) -> int:
        """index_of for one reduced coordinate tuple, in plain Python."""
        return sum(map(operator.mul, coords, self._place))

    def _radix(self) -> np.ndarray:
        return self.pn ** np.arange(self.s - 1, -1, -1, dtype=np.int64)

    @ring_table
    def units(self) -> Sequence[RingElement]:
        """The units in elements() order, a read-only view of coord_array at unit_indices."""
        return _ElementView(self, self.unit_indices(), self.unit_mask())

    # -- Teichmuller structure --------------------------------------------------

    @ring_table
    def teich_digits(self) -> np.ndarray:
        """Read-only (q^n x n) positions in teich_set of every element's Teichmuller digits.

        Row i holds the digits of element i, c_0 first, in the smallest
        unsigned dtype that holds q - 1.  c_0 is read by the residue of x
        mod p.  x - c_0 divides by p exactly, as integers, and any lift y of
        (x - c_0) / p has the digits c_1, ..., c_{n-1} as its first n - 1,
        since digit i depends only on the element mod p^(i+1).  So one pass
        over blocks of 4,096 elements finds c_0 and the index of the lift
        reduced mod p^n, and each later column is the one before it, read
        at those indices.
        """
        p, pn, count, place = self.p, self.pn, self.element_count, self._place
        # int32 holds every index below 2^31, and every coordinate difference
        dtype = np.int32 if count <= 1 << 31 else np.int64
        weights = [p ** k for k in range(self.s - 1, -1, -1)]

        def residue_code(columns):  # the residue mod p of each row, read in base p
            return sum(c % p * w for c, w in zip(columns, weights))

        teich = [np.array(c, dtype=dtype) for c in zip(*(t.coords for t in self.teich_set))]
        position = np.empty(self.q, dtype=np.intp)
        position[residue_code(teich)] = np.arange(self.q)
        out = np.empty((count, self.n), dtype=np.min_scalar_type(self.q - 1))
        shifted = np.empty(count, dtype=dtype)
        for b0 in range(0, count, 4096):
            index = np.arange(b0, min(b0 + 4096, count), dtype=dtype)
            r = [index // w % pn for w in place]
            digit = out[b0:b0 + len(index), 0] = position[residue_code(r)]
            shifted[b0:b0 + len(index)] = sum(
                (c - t[digit]) // p % pn * w for c, t, w in zip(r, teich, place)
            )
        for i in range(1, self.n):
            out[:, i] = out[shifted, i - 1]
        return out

    def teich_lift(self, x: RingElement) -> RingElement:
        """The unique t in T with t = x mod p: the first Teichmuller digit.

        Equal to x^(q^(n-1)) on every element: units lose their 1 + M part,
        and the power is 0 on pR.
        """
        return self.teichmuller_decompose(x)[0]

    def teichmuller_decompose(self, x: RingElement) -> tuple[RingElement, ...]:
        """Digits (c_0, ..., c_{n-1}) in T with x = sum p^i c_i: one row of teich_digits."""
        if x.ring is not self:
            self._check_same(x)
        teich = self.teich_set
        return tuple([teich[i] for i in self.teich_digits()[self._index(x.coords)].tolist()])

    def teich_recompose(self, digits) -> RingElement:
        acc = self.zero
        for i, c in enumerate(digits):
            acc = acc + self.scalar(self.p ** i) * c
        return acc

    def valuation(self, x: RingElement) -> tuple[int, RingElement | None]:
        """Minimal k with x in p^k R, plus the unit part in GR(p^(n-k), .).

        Returns (n, None) for x = 0 by convention, and (0, x) for a unit.
        p^k is the gcd of p^n and the coordinates.
        """
        if x.ring is not self:
            self._check_same(x)
        pk = math.gcd(self.pn, *x.coords)
        if pk == 1:
            return 0, x
        if pk == self.pn:
            return self.n, None
        k = self._log_p[pk]
        return k, RingElement(self.reduced(k), tuple([c // pk for c in x.coords]))

    # -- Frobenius, trace, reduction ---------------------------------------------

    def frobenius(self, x: RingElement) -> RingElement:
        self._check_same(x)
        cols = zip(*self._frob_rows)
        coords = tuple([sum(map(operator.mul, x.coords, c)) % self.pn for c in cols])
        return RingElement(self, coords)

    def trace(self, x: RingElement) -> int:
        """Generalized trace tr_n(x) = x + phi(x) + ... + phi^(s-1)(x) in Z_{p^n}.

        Linear over Z_{p^n}, so it is sum_i x_i tr(xi^i) with the weights
        tr(xi^i) fixed at build time.
        """
        if x.ring is not self:
            self._check_same(x)
        return sum(map(operator.mul, x.coords, self.trace_weights)) % self.pn

    @ring_table
    def reduced(self, k: int) -> GaloisRing:
        """The quotient ring GR(p^(n-k), p^((n-k)s)), cached per level."""
        if k == 0:
            return self
        if not 1 <= k <= self.n - 1:
            raise BadLevel(f"reduction level {k} not in [1, {self.n - 1}]")
        h = tuple(c % self.p ** (self.n - k) for c in self.modulus)
        return build_ring(self.p, self.n - k, self.s, modulus=h)

    def reduce(self, x: RingElement, k: int) -> RingElement:
        """Coordinate-wise reduction mod p^(n-k) into the quotient ring."""
        self._check_same(x)
        target = self.reduced(k)
        return target.element(tuple(c % target.pn for c in x.coords))

    def residue_field(self) -> GaloisRing:
        return self.reduced(self.n - 1) if self.n > 1 else self

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "s": self.s,
            "modulus": list(self.modulus),
        }

    @classmethod
    def from_json(cls, data: dict) -> GaloisRing:
        return build_ring(data["p"], data["n"], data["s"], modulus=data["modulus"])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GaloisRing) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"GR({self.p}^{self.n}, {self.p}^{self.n * self.s}; {_poly_text(self.modulus)})"


@ring_table
def trace_form(ring: GaloisRing) -> np.ndarray:
    """Read-only (s x s) int64 trace form tr(xi^i xi^j) mod p^n, cached per ring.

    tr(b x) = sum_i x_i (form @ b)_i for coordinate vectors b and x.
    """
    traces = np.array([ring.trace(t) for t in ring.xi_powers[: 2 * ring.s - 1]], dtype=np.int64)
    return traces[np.add.outer(np.arange(ring.s), np.arange(ring.s))]


# the registry: the one ring per key that build_ring returns, kept for the life of the process
_RINGS: dict[tuple, GaloisRing] = {}


def build_ring(
    p: int,
    n: int,
    s: int,
    modulus: Sequence[int] | None = None,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> GaloisRing:
    """GR(p^n, p^ns), searching for the canonical modulus if omitted: one ring per key.

    modulus is a sequence of integers, the ascending coefficients of h.  The
    shape, against element_cap, and the modulus are checked before the
    registry is read; GaloisRing(...) makes a ring outside it.
    """
    key = _ring_key(p, n, s, modulus, element_cap)
    if key not in _RINGS:
        _RINGS[key] = GaloisRing(*key, element_cap=element_cap)
    return _RINGS[key]
