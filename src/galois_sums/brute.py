"""The brute-force route: character sums over a Galois ring, counted term by term.

The kernel sums C character tuples over one domain at once into a (C x M)
integer count matrix: row c counts the terms of tuple c equal to
exp(2 pi i j / M) per j, so no value depends on term order, and every row
becomes complex the same way, over ascending j: a sum in a table
(jacobi_brute_table, gauss_table) is bit-identical to the same sum alone.  A
single sum pays its terms and a few array operations, reading the per-ring
plan and the memoised solve at a = 0 that ring_table builds once per key
(see _root_counts).  This route reads no closed form.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .characters import (
    DEFAULT_TERM_CAP,
    _check_k,
    _exponent_tuples,
    _read_only,
    decompose_unit_group,
    dlog_matrix,
    root_table,
)
from .errors import TooLarge
from .ring import GaloisRing, RingElement, ring_table, trace_form

# terms per block of the brute-force kernel, and |R| times its tuples per chunk (see _root_counts)
TERM_BUDGET = 1 << 18


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


def _free_axes(ring: GaloisRing, m: int, units: int) -> list[np.ndarray]:
    """The ranges of x_1..x_{m-1}: the first units coordinates over R*, the rest over R."""
    free = m - 1 - units
    return [ring.unit_indices()] * units + ([np.arange(ring.element_count)] * free if free else [])


@ring_table
def _solved_at_zero(ring: GaloisRing, m: int, units: int) -> np.ndarray:
    """x_m = -(x_1 + ... + x_{m-1}) over the whole domain of _solved_blocks at a = 0."""
    groups, rest = _solve_codes(ring), np.zeros(1, dtype=np.int64)  # index 0 is the zero
    *prefix, last = _free_axes(ring, m, units)
    for d in prefix:
        rest = _minus(groups, rest[:, None], d).ravel()
    return _minus(groups, rest[:, None], last)


# the kernel plan: what a call reads that depends only on the ring, m and units


@ring_table
def _ring_plan(ring: GaloisRing) -> tuple[np.ndarray, np.ndarray]:
    """Read-only dlog_matrix(ring).T, contiguous (r x |R|), and the q^(n-1) non-unit indices."""
    dlog_t = np.ascontiguousarray(dlog_matrix(ring).T)
    return _read_only(dlog_t), _read_only(np.flatnonzero(~ring.unit_mask()))


@ring_table
def _zero_block(ring: GaloisRing, m: int, units: int) -> tuple:
    """The whole domain of _solved_blocks at a = 0 as its one block (xs, y, index), read-only."""
    *prefix, last = _free_axes(ring, m, units)
    sizes = [len(d) for d in prefix]
    at = np.unravel_index(np.arange(math.prod(sizes)), sizes) if sizes else ()
    xs = tuple(_read_only(d[i]) for d, i in zip(prefix, at))
    return xs, _read_only(last), _solved_at_zero(ring, m, units)


def _solved_blocks(ring: GaloisRing, m: int, k: int, a: RingElement, budget: int):
    """{x : x_1..x_k units, x_{k+1}..x_{m-1} arbitrary, x_m = a - sum} in blocks of <= budget rows.

    A block is the prefix rows x_1..x_{m-2} (an index array per coordinate, in
    itertools.product order), a slice y of x_{m-1}, and x_m as a (rows x
    len(y)) index array, each difference taken by _minus.  At a = 0 a domain
    of at most TERM_BUDGET terms is solved once per (ring, m, units), and its
    blocks are slices of that read-only solve (_solved_at_zero); when budget
    holds the whole domain, its one block is the memoised _zero_block.
    """
    units = min(k, m - 1)
    domain = ring.unit_count ** units * ring.element_count ** (m - 1 - units)
    if a.is_zero and domain <= min(budget, TERM_BUDGET):
        return (_zero_block(ring, m, units),)
    return _streamed_blocks(ring, m, units, a, budget)


def _streamed_blocks(ring: GaloisRing, m: int, units: int, a: RingElement, budget: int):
    """The blocks of _solved_blocks, made one at a time."""
    groups = _solve_codes(ring)
    *prefix, last = _free_axes(ring, m, units)
    sizes, step = [len(d) for d in prefix], min(len(last), budget)
    total, rows = math.prod(sizes), max(1, budget // step)
    memo = a.is_zero and total * len(last) <= TERM_BUDGET
    solved = _solved_at_zero(ring, m, units) if memo else None
    for p0 in range(0, total, rows):
        p1 = min(p0 + rows, total)
        at = np.unravel_index(np.arange(p0, p1), sizes) if sizes else ()
        xs = [d.take(i) for d, i in zip(prefix, at)]
        if not memo:
            rest = np.array([ring._index(a.coords)])
            for x in xs:
                rest = _minus(groups, rest, x)
        for d0 in range(0, len(last), step):
            y = last[d0 : d0 + step]
            yield xs, y, solved[p0:p1, d0 : d0 + step] if memo else _minus(groups, rest[:, None], y)


def solved_domain(ring: GaloisRing, m: int, k: int, a: RingElement) -> np.ndarray:
    """The solved domain (see _solved_blocks) as an (rows x m) element-index array."""
    (xs, y, index), = _solved_blocks(ring, m, k, a, ring.element_count ** (m - 1))
    return np.column_stack([x.repeat(len(y)) for x in xs] + [np.tile(y, len(index)), index.ravel()])


def _gather(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """table at index along its last axis: a single tuple's row (1-D) by plain indexing, which
    reads a read-only index in place, and a chunk's (C x |R|) tables by take, which copies it."""
    return table[index] if table.ndim == 1 else table.take(index, axis=1)


def _root_counts(ring: GaloisRing, X: np.ndarray, k: int, a: RingElement, b=None) -> np.ndarray:
    """Exact root counts of the C reduced exponent tuples of X (C x m x r) over the solved domain.

    Row c of the (C x M) int64 result counts per j the terms of tuple c equal
    to exp(2 pi i j / M), alone or in a batch.  Per chunk of tuples, x_i has a
    table of X_i . dlog(x) mod M at every element x (M the lcm of the
    unit-group orders, and of p^n when a twist b adds tr(b x) to x_1's table:
    a Gauss sum is m = 2, k = 1, a = 0, chi_2 trivial), killed on the
    non-units where chi_i is nontrivial and for x_m when k >= m.  The twist
    term is one |R|-long product, x . (tr(b xi^i) mod p^n) M / p^n: each of
    its entries lies below s p^n M, so it stays in int64 until the table's
    one reduction mod M.  The blocks of _solved_blocks are solved at 0, and
    x_m at a is a + x_m(0): one gather through the index of a + w, of x_m's
    chunk table or of each block's index, whichever is smaller.  A term costs
    one gather (none for x_m when its table is all zero, as in a Gauss sum),
    two adds and one bincount into m M bins per tuple, folded mod M.  Killed
    terms lie in [chunk m M, (m + 1) chunk m M), clamped to one bin only where
    that many bins would outnumber the block's terms.

    The kernel plan is what a call reads that depends only on the ring, m and
    units, built once per key through ring_table and read-only: per ring the
    contiguous (r x |R|) transpose of dlog_matrix and the q^(n-1) non-unit
    indices (_ring_plan, (r + 1) |R| int64 at most), and per (m, units) the
    domain at a = 0 as one block when it holds at most TERM_BUDGET terms
    (_zero_block: the memoised solve, at most 2 MB, and m - 2 prefix arrays
    as long as its rows).  The block list depends on the chunk, so only that
    whole-domain block is memoised; a chunk whose block budget holds it
    reads it and enumerates nothing.  A killed table row is marked by one
    assignment at the non-unit indices, never through a (m x chunk x |R|)
    mask.  A single tuple (C = 1) reads its m tables as rows by plain
    indexing (_gather) and takes no row offset.  A chunk takes
    max(1, TERM_BUDGET // |R|) tuples and a block TERM_BUDGET // chunk domain
    rows, so up to TERM_BUDGET terms however few the tuples: besides the
    result, the scaled X with its kill mask and the plan, temporaries (the
    killed rows' index pairs, m chunk q^(n-1) at most, among them) hold
    (m + 8) max(|R|, TERM_BUDGET) + 2 chunk m M int64s.
    """
    basis = decompose_unit_group(ring)
    dlog_t, off_unit = _ring_plan(ring)
    size, pn, extra = ring.element_count, ring.pn, None
    M = basis.lcm_order if b is None else math.lcm(basis.lcm_order, pn)
    if b is not None:  # tr(b x) = sum_i x_i tr(b xi^i) over the polynomial-basis coordinates
        extra = ring.coord_array() @ (trace_form(ring) @ b.coords % pn * (M // pn))
    X = X * (basis.scale * (M // basis.lcm_order))  # the one copy of X
    count, m = X.shape[:2]
    kill = X.any(axis=2)
    if k >= m:
        kill[:, -1] = True
    units, shift = min(k, m - 1), None
    domain = ring.unit_count ** units * size ** (m - 1 - units)  # terms per tuple
    if not a.is_zero:  # the index of a + w: digit sums of the low codes stay below 2 p^n
        i = ring._index(a.coords)
        shift = functools.reduce(np.add, (t.take(lo[i] + lo) for _, lo, t in _solve_codes(ring)))
    counts = np.zeros((count, M), dtype=np.int64)
    nb = max(1, TERM_BUDGET // size)
    buffer = np.empty(m * min(nb, count) * size, dtype=np.int64)  # the tables of a chunk
    for c0 in range(0, count, nb):
        c1 = min(c0 + nb, count)
        chunk, dead = c1 - c0, kill[c0:c1]
        dump = chunk * m * M  # the least killed term; every live sum lies below it
        tables = buffer[: m * chunk * size].reshape(m, chunk, size)  # contiguous: no copy in place
        np.matmul(X[c0:c1].swapaxes(0, 1), dlog_t, out=tables)
        if extra is not None:
            tables[0] += extra
        tables %= M
        killed = dead.T.ravel().nonzero()[0]  # table rows i chunk + c of the killed chi_i
        tables.reshape(-1, size)[killed[:, None], off_unit] = dump
        if chunk > 1:  # tuple c's sums land in bins [c m M, (c + 1) m M)
            tables[0] += np.arange(chunk)[:, None] * (m * M)
        budget = TERM_BUDGET // chunk  # domain rows per block, >= 1 as chunk <= nb
        solved = dead[:, -1].any()  # else x_m's table is all zero, as in a Gauss sum
        moved = solved and shift is not None  # translate x_m's table once, or else each index
        if moved and chunk * size < domain:
            tables[-1] = tables[-1].take(shift, axis=1)
            moved = False
        rows = tables[:, 0] if chunk == 1 else tables  # a single tuple: m tables of |R|
        for xs, y, index in _solved_blocks(ring, m, k, ring.zero, budget):
            if moved:
                index = shift[index]
            if solved:
                terms = _gather(rows[-1], index)
            else:
                terms = np.zeros((*rows.shape[1:-1], *index.shape), dtype=np.int64)
            terms += _gather(rows[-2], y)[..., None, :]
            if xs:
                terms += sum(_gather(t, x) for t, x in zip(rows, xs))[..., None]
            if (m + 1) * dump >= terms.size:
                np.minimum(terms, dump, out=terms)
            bins = np.bincount(terms.ravel(), minlength=dump)[:dump]
            counts[c0:c1] += bins.reshape(chunk, m, M).sum(axis=1)
    return counts


def _complex_rows(counts: np.ndarray) -> list[complex]:
    """sum_j counts[c, j] exp(2 pi i j / M) per row c, added over ascending j.

    One sequential cumsum adds left to right, as a loop over the bins from 0j
    would: the first root is exactly 1, and an empty bin adds +-0.0, which
    leaves the running sum (never -0.0) unchanged.
    """
    return np.cumsum(counts * root_table(counts.shape[1]), axis=1)[:, -1].tolist()


def _domain_sums(ring: GaloisRing, X, k: int | None, a: RingElement, cap: int):
    """Sums over the solved domain for k (None: m) and terms per sum, capped before the kernel."""
    ring._check_same(a)
    if not len(X):
        return [], 0
    return _tuple_sums(ring, _exponent_tuples(ring, X), k, a, cap)


def _tuple_sums(ring: GaloisRing, X: np.ndarray, k: int | None, a: RingElement, cap: int):
    """_domain_sums of checked, reduced exponent tuples (_exponent_tuples or sums._single)."""
    m = X.shape[1]
    k = m if k is None else _check_k(k, m)
    terms = ring.unit_count ** min(k, m - 1) * ring.element_count ** max(m - 1 - k, 0)
    if terms > cap:
        raise TooLarge(f"{terms} tuples exceeds cap {cap}")
    return _complex_rows(_root_counts(ring, X, k, a)), terms


def jacobi_brute_table(ring: GaloisRing, X, a: RingElement, cap: int = DEFAULT_TERM_CAP):
    """J_a for each (m x r) exponent tuple of X, over one domain; bit-identical to jacobi_brute."""
    return np.array(_domain_sums(ring, X, None, a, cap)[0], dtype=np.complex128)


def tilde_jacobi_brute_table(
    ring: GaloisRing, X, k: int, a: RingElement, cap: int = DEFAULT_TERM_CAP
) -> np.ndarray:
    """The modified sum for each (m x r) exponent tuple of X over one domain; bit-identical."""
    return np.array(_domain_sums(ring, X, k, a, cap)[0], dtype=np.complex128)


def count_unit_solutions_brute(
    ring: GaloisRing, m: int, a: RingElement, cap: int = DEFAULT_TERM_CAP
) -> int:
    """Number of unit m-tuples summing to a, by enumerating the solved domain."""
    trivial = np.zeros((1, m, len(decompose_unit_group(ring).orders)), dtype=np.int64)
    return int(_domain_sums(ring, trivial, None, a, cap)[0][0].real)


# ---------------------------------------------------------------------------
# Gauss sums


@ring_table
def _gauss_values(ring: GaloisRing, coords: tuple) -> dict[int, complex]:
    """Gauss values by character index at the twist with coordinates coords (see _gauss_fill)."""
    return {}


def _gauss_fill(ring: GaloisRing, coords: tuple, indices) -> dict[int, complex]:
    """The cached Gauss values at the twist with coordinates coords, by character index,
    the characters of indices still missing first computed in one kernel call."""
    values = _gauss_values(ring, coords)
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
