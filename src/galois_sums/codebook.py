"""Unit-norm codebooks from modified Jacobi sums, with Welch-bound evaluation.

A codebook row is indexed by a tuple of multiplicative characters of the form
lift(psi) * section(a): psi runs over the characters of the quotient ring one
level down, a over the residue field, and section(a) is the fixed extension
of phi_a to the full unit group.  Entries are extended character products
over the mixed domain S = {(x_1..x_m) in (R*)^k x R^(m-k) : sum x_i = a},
scaled by the square root of the support size; the standard basis of the
ambient space is appended.  Zero entries are structural (an extended
character vanishing on the maximal ideal), never a floating-point accident.
"""
from __future__ import annotations

import io
import itertools
import json
import math
import warnings
from dataclasses import asdict, dataclass
from fractions import Fraction
from operator import itemgetter

import numpy as np

from .characters import (
    SECTIONS,
    MultCharacter,
    _section_map,
    character_exponents,
    decompose_unit_group,
    dlog_matrix,
    lift_exponents,
    root_table,
)
from .errors import (
    CodebookError,
    DegenerateDimensions,
    GaloisSumsError,
    NotAUnit,
    NotPrimePower,
    RingMismatch,
    SizeLimit,
    TooLarge,
)
# the primality test lives with the ring's; MR_BOUND is the q from which table2 refuses
from .ring import MR_BOUND, GaloisRing, RingElement, as_int, is_prime_power  # noqa: F401
from .sums import _check_k, s_cardinality_qn, solved_domain

DEFAULT_ENTRY_CAP = 10 ** 8
DEFAULT_PAIR_BUDGET = 10 ** 9
# rows per block in build and export, and per row tile of the scan, whose
# column panels hold 4 BLOCK rows: temporaries stay O(BLOCK x K)
BLOCK = 256
# pairs this close to the peak count as attaining it when naming the witness
WITNESS_TIE = 1e-12


@dataclass
class CodebookParams:
    ring: GaloisRing
    m: int
    k: int
    a: RingElement
    psi0: MultCharacter | None = None
    section: str = "lex-min"

    def __post_init__(self) -> None:
        self.m, self.k = as_int(self.m, "m"), as_int(self.k, "k")
        if self.ring.n < 2:
            raise ValueError("codebook construction needs n >= 2")
        if self.m < 2:
            raise ValueError("m must be >= 2")
        _check_k(self.k, self.m)
        if self.section not in SECTIONS:
            raise ValueError(f"unknown section {self.section!r}")
        self.ring._check_same(self.a)
        quotient = self.ring.reduced(1)
        if self.psi0 is None:
            self.psi0 = MultCharacter.trivial(quotient)
        if self.psi0.ring.key != quotient.key:
            raise RingMismatch(f"psi0 is a character of {self.psi0.ring}, not of {quotient}")


@dataclass
class Codebook:
    params: CodebookParams
    rows: np.ndarray
    row_labels: list
    support_sizes: np.ndarray
    N: int
    K: int
    f_count: int

    def to_json_params(self) -> dict:
        p = self.params
        return {
            "ring": p.ring.to_json(),
            "m": p.m,
            "k": p.k,
            "a": list(p.a.coords),
            "psi0": list(p.psi0.exponents),
            "section": p.section,
            "N": self.N,
            "K": self.K,
        }


@dataclass
class EvalReport:
    imax_measured: float
    imax_formula: float
    welch: float
    ratio: float
    pair_argmax: tuple[int, int]

    def to_json(self, N: int, K: int) -> dict:
        return {
            "N": N,
            "K": K,
            "imax_measured": self.imax_measured,
            "imax_formula": self.imax_formula,
            "welch": self.welch,
            "ratio": self.ratio,
            "argmax": list(self.pair_argmax),
        }


def _row_exponents(params: CodebookParams) -> tuple[list, np.ndarray]:
    """Labels and the (F x m x r) exponent array of the structured rows, in lex order.

    A row's characters are lift(psi0) * section(a_1), then lift(psi_i) *
    section(a_i) for the m - 1 tail factors, in itertools.product order; a
    product of characters adds exponents mod the generator orders.
    """
    ring = params.ring
    orders = decompose_unit_group(ring).order_array
    red_chars = character_exponents(ring.reduced(1))
    fq = ring.residue_field().elements()
    lifts = lift_exponents(ring, red_chars, 1)
    sects = _section_map(ring, params.section)  # row i: the section at fq[i]
    head = sects + lifts[params.psi0.index]
    tail = (lifts[:, None] + sects[None]).reshape(-1, len(orders))
    shape = (len(head),) + (len(tail),) * (params.m - 1)
    at = np.unravel_index(np.arange(math.prod(shape)), shape)
    X = np.stack([head[at[0]]] + [tail[i] for i in at[1:]], axis=1) % orders
    tail_labels = [(tuple(psi), a.coords) for psi in red_chars.tolist() for a in fq]
    labels = [
        ("F", a.coords) + combo
        for a in fq
        for combo in itertools.product(tail_labels, repeat=params.m - 1)
    ]
    return labels, X


# the codebook twists a by name, in the order of the CLI's --a-mode choices
TWIST_MODES = ("unit", "zero", "ideal")


def named_twist(ring: GaloisRing, mode: str) -> RingElement:
    """The twist a named by mode: unit 1, zero 0, ideal p; build with allow_nonunit_a=not a.is_unit."""
    if mode not in TWIST_MODES:
        raise ValueError(f"twist mode must be one of {TWIST_MODES}, got {mode!r}")
    return {"unit": ring.one, "zero": ring.zero, "ideal": ring.p_power(1)}[mode]


def build_codebook(params: CodebookParams, allow_nonunit_a: bool = False) -> Codebook:
    """Assemble the full N x K matrix of the construction.

    The main optimality statement requires a unit twist a; passing a in the
    maximal ideal is allowed only with allow_nonunit_a=True and emits a
    warning since those parameter choices carry no optimality guarantee.

    A structured entry is the product of the row's extended characters over
    its m-tuple of S.  With every exponent scaled to the common order L, its
    exponent is sum_i X_i . dlog(x_i) mod L, exact in integers; the entry is
    zero when some nontrivial character meets a non-unit coordinate, and
    otherwise the single rounded root of unity exp(2 pi i j / L) (one
    cmath evaluation per j) divided by sqrt(support) in float64.
    """
    ring = params.ring
    if not params.a.is_unit:
        if not allow_nonunit_a:
            raise NotAUnit("codebook twist a must be a unit (or pass allow_nonunit_a)")
        warnings.warn(
            "twist a lies in the maximal ideal: the optimality guarantees do not apply",
            stacklevel=2,
        )
    m, k = params.m, params.k
    N, K = codebook_size(ring.q, ring.n, m, k)
    f_count = N - K
    if N * K > DEFAULT_ENTRY_CAP:
        raise TooLarge(f"{N} x {K} entries exceeds cap {DEFAULT_ENTRY_CAP}")

    columns = solved_domain(ring, m, k, params.a)  # S in lexicographic order
    if len(columns) != K:
        raise CodebookError(f"enumerated |S| = {len(columns)}, the formula gives {K}")
    dlog = dlog_matrix(ring)[columns]  # K x m x r
    on_ideal = ~ring.unit_mask()[columns]  # K x m

    basis = decompose_unit_group(ring)
    L = basis.lcm_order
    labels, X = _row_exponents(params)  # X is F x m x r
    nontrivial = X.any(axis=2)
    X *= basis.scale
    # row L is the structural zero
    roots = np.append(root_table(L), 0j).view(np.float64).reshape(L + 1, 2)

    rows = np.zeros((N, K), dtype=np.complex128)
    parts = rows.view(np.float64).reshape(N, K, 2)
    supports = np.ones(N, dtype=np.int64)
    for f0 in range(0, f_count, BLOCK):
        f1 = min(f_count, f0 + BLOCK)
        expo = np.zeros((f1 - f0, K), dtype=np.int64)
        dead = np.zeros((f1 - f0, K), dtype=bool)
        for i in range(m):
            expo += X[f0:f1, i] @ dlog[:, i].T
            dead |= nontrivial[f0:f1, i, None] & on_ideal[None, :, i]
        expo %= L
        expo[dead] = L
        support = K - np.count_nonzero(dead, axis=1)
        if not support.all():
            row = f0 + int(np.argmin(support))
            raise CodebookError(
                f"row {row} {labels[row]} is zero on all of S: each tuple meets a "
                "nontrivial character on the maximal ideal"
            )
        supports[f0:f1] = support
        parts[f0:f1] = roots[expo] / np.sqrt(support)[:, None, None]
    diag = np.arange(K)
    rows[f_count + diag, diag] = 1.0
    labels.extend(("E", j) for j in range(K))
    return Codebook(
        params=params,
        rows=rows,
        row_labels=labels,
        support_sizes=supports,
        N=N,
        K=K,
        f_count=f_count,
    )


# ---------------------------------------------------------------------------
# evaluation


def _gather(rows: np.ndarray, at: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """rows[at][:, cols] as one copy; an ascending run of row indices is sliced."""
    if at.size and at[-1] - at[0] == at.size - 1:
        return rows[at[0]:at[-1] + 1].take(cols, axis=1)
    return rows[np.ix_(at, cols)]


def _upper(mags: np.ndarray, a0: int, c0: int) -> np.ndarray:
    """Mark -1 the pairs c <= a of a tile whose rows start at a0 and columns at c0."""
    if a0 == c0:
        mags[np.tril_indices(mags.shape[0], m=mags.shape[1])] = -1.0
    return mags


class _Witness:
    """The running peak, and the pairs that can still name the final one.

    A pair is kept when its magnitude is within WITNESS_TIE of the peak so
    far, so every pair within WITNESS_TIE of the final peak is kept.  A kept
    pair no larger than some lexicographically smaller kept pair can never
    be the witness, so it is dropped at once.
    """

    def __init__(self) -> None:
        self.peak = 0.0
        self.kept = np.empty((3, 0))  # rows: magnitude, i, j with i < j

    def offer(self, mags: np.ndarray, at_i: np.ndarray, at_j: np.ndarray) -> None:
        """mags[a, b] is |c_i c_j^H| for i = at_i[a], j = at_j[b]; -1 skips a pair."""
        most = float(mags.max(initial=-1.0))
        self.peak = max(self.peak, most)
        if most < self.peak - WITNESS_TIE:
            return
        a, b = np.nonzero(mags >= self.peak - WITNESS_TIE)
        i, j = at_i[a], at_j[b]
        kept = np.concatenate([self.kept, [mags[a, b], np.minimum(i, j), np.maximum(i, j)]], axis=1)
        kept = kept[:, kept[0] >= self.peak - WITNESS_TIE]
        kept = kept[:, np.lexsort((kept[2], kept[1]))]
        rising = np.ones(kept.shape[1], dtype=bool)
        rising[1:] = kept[0, 1:] > np.maximum.accumulate(kept[0])[:-1]
        self.kept = kept[:, rising]

    def pair(self) -> tuple[int, int]:
        """The lexicographically smallest pair within WITNESS_TIE of the peak.

        At a peak of at most WITNESS_TIE every pair ties, (0, 1) included.
        """
        if self.peak <= WITNESS_TIE:
            return 0, 1
        first = int(np.argmax(self.kept[0] >= self.peak - WITNESS_TIE))
        return int(self.kept[1, first]), int(self.kept[2, first])


def _inner_magnitude(u: np.ndarray, v: np.ndarray) -> float:
    """|u v^H| with each part the exactly rounded sum of its 2K float products."""
    re = math.fsum(itertools.chain((u.real * v.real).tolist(), (u.imag * v.imag).tolist()))
    im = math.fsum(itertools.chain((u.imag * v.real).tolist(), (-u.real * v.imag).tolist()))
    return math.hypot(re, im)


def check_pair_budget(N: int, K: int, pair_budget: int) -> None:
    """TooLarge when scanning N rows of K entries would exceed pair_budget pair entries.

    imax_exhaustive checks before its scan; the CLI checks before the build,
    with N and K from codebook_size, so that a refused scan costs no build.
    """
    pairs = N * (N - 1) // 2 * K
    if pairs > pair_budget:
        raise TooLarge(f"pair scan exceeds budget: {pairs} pair entries, budget {pair_budget}")


def imax_exhaustive(cb: Codebook, pair_budget: int = DEFAULT_PAIR_BUDGET) -> EvalReport:
    """Maximum |c_i c_j^H| over all unordered pairs i < j, with a stable witness.

    Every pair is scanned, but only products that can be nonzero are formed.
    Rows are classed by their count of nonzero entries, not by position:
    single (one entry (col, v), as the basis rows), dense (more), or zero
    (none, meeting every row at 0).
    - Dense pairs: a GEMM over the full columns, which every dense row
      fills, plus a GEMM over the other columns among the dense rows nonzero
      there, added into the same tile.  A column panel of 4 BLOCK dense rows
      is gathered once and met by the row tiles of BLOCK rows above its end.
    - Dense i with single (col, v): |c_i[col] v^*|, skipped for a column
      whose largest dense magnitude times |v| falls short of the dense peak.
    - Two singles: |v w^*| in the same column, 0 otherwise.
    Besides index arrays of O(N + K) entries, the temporaries stay below
    (80 K + 256 BLOCK) BLOCK bytes.

    Many pairs attain the peak exactly, so an argmax would be picked by
    rounding noise; the witness is instead the lexicographically smallest
    pair (i, j) with |c_i c_j^H| >= peak - WITNESS_TIE, kept tile by tile in
    the one pass (_Witness).  The reported peak is the witness's |c_i c_j^H|
    summed by math.fsum, so it depends on neither BLAS, its thread count nor
    the tiling.
    """
    N, K = cb.N, cb.K
    check_pair_budget(N, K, pair_budget)
    welch = welch_bound(N, K)
    rows = cb.rows
    filled = np.empty(N, dtype=np.int64)  # nonzero entries of each row
    first = np.empty(N, dtype=np.int64)  # column of each row's first nonzero entry
    fill = np.zeros(K, dtype=np.int64)  # dense rows nonzero in each column
    top = np.zeros(K)  # largest dense magnitude in each column
    for r0 in range(0, N, BLOCK):
        mags = np.abs(rows[r0:r0 + BLOCK])
        nonzero = mags != 0
        filled[r0:r0 + BLOCK] = np.count_nonzero(nonzero, axis=1)
        first[r0:r0 + BLOCK] = np.argmax(nonzero, axis=1)
        lone = filled[r0:r0 + BLOCK] < 2
        mags[lone] = 0.0
        nonzero[lone] = False
        fill += np.count_nonzero(nonzero, axis=0)
        np.maximum(top, mags.max(axis=0), out=top)
    dense = np.flatnonzero(filled > 1)
    full = np.flatnonzero(fill == dense.size)
    partial = np.flatnonzero(fill < dense.size)
    # dense positions nonzero in some partial column: more entries than full columns
    loose = np.flatnonzero(filled[dense] > full.size)
    witness = _Witness()

    for b0 in range(0, dense.size, 4 * BLOCK):
        b1 = min(dense.size, b0 + 4 * BLOCK)
        right = _gather(rows, dense[b0:b1], full)
        np.conjugate(right, out=right)
        lb = loose[np.searchsorted(loose, b0):np.searchsorted(loose, b1)]
        right_loose = _gather(rows, dense[lb], partial)
        np.conjugate(right_loose, out=right_loose)
        for a0 in range(0, b1, BLOCK):
            a1, c0 = min(b1, a0 + BLOCK), max(a0, b0)
            g = _gather(rows, dense[a0:a1], full) @ right[c0 - b0:].T
            la = loose[np.searchsorted(loose, a0):np.searchsorted(loose, a1)]
            lc = np.searchsorted(lb, c0)
            if la.size and lc < lb.size:
                g[np.ix_(la - a0, lb[lc:] - c0)] += _gather(rows, dense[la], partial) @ right_loose[lc:].T
            mags = _upper(np.abs(g), a0, c0)
            del g  # one tile's products alive at a time
            witness.offer(mags, dense[a0:a1], dense[c0:b1])
        del right, right_loose, mags  # before the next panel is gathered

    single = np.flatnonzero(filled == 1)
    at = first[single]
    entry = rows[single, at]
    # the slack covers the rounding of |c_i[col] v^*| against top[col] |v|
    reach = np.flatnonzero(top[at] * np.abs(entry) >= witness.peak - 2 * WITNESS_TIE)
    for s0 in range(0, reach.size, 4 * BLOCK):
        s = reach[s0:s0 + 4 * BLOCK]
        for a0 in range(0, dense.size, BLOCK):
            mags = np.abs(_gather(rows, dense[a0:a0 + BLOCK], at[s]) * entry[s].conj())
            witness.offer(mags, dense[a0:a0 + BLOCK], single[s])

    shared, count = np.unique(at, return_counts=True)
    for col in shared[count > 1]:
        same = np.flatnonzero(at == col)
        for a0 in range(0, same.size, BLOCK):
            for c0 in range(a0, same.size, 4 * BLOCK):
                u, w = same[a0:a0 + BLOCK], same[c0:c0 + 4 * BLOCK]
                mags = np.abs(np.multiply.outer(entry[u], entry[w].conj()))
                witness.offer(_upper(mags, a0, c0), single[u], single[w])

    i, j = witness.pair()
    peak = _inner_magnitude(rows[i], rows[j])
    p = cb.params
    return EvalReport(
        imax_measured=peak,
        imax_formula=imax_formula(p.ring.q, p.ring.n, p.m),
        welch=welch,
        ratio=peak / welch,
        pair_argmax=(i, j),
    )


def _q_power(q: int, num: int) -> float:
    """q**(num/2) with exact integer arithmetic when num is even."""
    if num % 2 == 0:
        return float(q ** (num // 2))
    return math.sqrt(q ** num)


def imax_formula(q: int, n: int, m: int) -> float:
    """The published closed-form peak cross-correlation for a unit twist.

    At n = 2, m = 3 this is 1/(q^2 - 3q + 3).  The exhaustive scan of the
    construction as built attains it at q = 3 (1/3) but measures more from
    q = 4 on: 2/7 at q = 4 and sqrt(5)/13 at q = 5, i.e. sqrt(q)/(q^2 - 3q + 3),
    from rows that differ only in lifted quotient-ring characters and whose
    inner product is a residue-field Jacobi sum of magnitude sqrt(q).
    """
    den = q ** (m * n - m - n) * ((q - 1) ** m + (-1) ** (m + 1))
    return _q_power(q, (m - 1) * n) / den


def imax_remark(q: int, n: int, m: int, case: str) -> float:
    """The published closed-form peaks for the degenerate twists.

    case "a0" is the zero twist, case "aM" a twist in the maximal ideal.
    Neither family is optimal.  Evaluated as written at q = 3, n = 2, m = 3
    they give 1 and sqrt(27)/6.  The q = 3 builds measure a peak of 1 for
    both twists, because each contains rows equal up to phase, so the "aM"
    form falls below its own measurement.
    """
    body = (q - 1) ** m + (-1) ** m * (q - 1)
    if case == "a0":
        return (q ** n - q ** (n - 1)) * _q_power(q, (m - 2) * n) / (
            q ** (m * n - m - n) * body
        )
    if case == "aM":
        return _q_power(q, 2 * m + 2 * n - m * n - 1) / body
    raise ValueError(f"case must be 'a0' or 'aM', got {case!r}")


def welch_bound(N: int, K: int) -> float:
    if not N > K >= 1:
        raise DegenerateDimensions(f"need N > K >= 1, got ({N}, {K})")
    return math.sqrt(float(Fraction(N - K, (N - 1) * K)))


def codebook_size(q: int, n: int, m: int, k: int) -> tuple[int, int]:
    K = s_cardinality_qn(q, n, m, k)
    N = q * (q ** n - q ** (n - 1)) ** (m - 1) + K
    return N, K


def asymptotic_ratio(q: int, n: int, m: int, k: int) -> float:
    """Imax / I_W for the unit-twist construction; tends to 1 as q grows."""
    N, K = codebook_size(q, n, m, k)
    return imax_formula(q, n, m) / welch_bound(N, K)


@dataclass
class Table2Row:
    q: int
    N: int
    K: int
    imax: float
    welch: float
    ratio: float

    def to_json(self) -> dict:
        return asdict(self)


TABLE2_DEFAULT_Q = (11, 19, 31, 53, 81, 121, 179, 256)
TABLE2_NMK = (2, 3, 1)


def table2(q_list=None) -> list[Table2Row]:
    """Analytic parameter table for the (n, m, k) = (2, 3, 1) family."""
    qs = TABLE2_DEFAULT_Q if q_list is None else tuple(q_list)
    n, m, k = TABLE2_NMK
    for q in qs:  # every q checked before any row is computed
        if not is_prime_power(q):
            raise NotPrimePower(f"{q} is not a prime power")
    out = []
    for q in qs:
        N, K = codebook_size(q, n, m, k)
        out.append(
            Table2Row(
                q=q,
                N=N,
                K=K,
                imax=imax_formula(q, n, m),
                welch=welch_bound(N, K),
                ratio=asymptotic_ratio(q, n, m, k),
            )
        )
    return out


# ---------------------------------------------------------------------------
# export / import


def _row_texts(rows: np.ndarray, fmt, sep: bytes):
    """Yield each row's interleaved re, im values formatted by fmt, sep-joined.

    Works a block of rows at a time and formats every distinct float64 bit
    pattern of the block once (the uint64 view keeps -0.0 apart from 0.0).
    """
    flat = np.ascontiguousarray(rows).view(np.float64)
    for r0 in range(0, len(flat), BLOCK):
        block = flat[r0:r0 + BLOCK]
        bits, where = np.unique(block.view(np.uint64), return_inverse=True)
        words = [fmt(v).encode() for v in bits.view(np.float64).tolist()]
        for row in where.reshape(block.shape):
            yield sep.join(itemgetter(*row.tolist())(words))


def export_codebook(cb: Codebook, fmt: str = "csv") -> bytes:
    """CSV (interleaved re,im at 17 significant digits) or JSON with params.

    The text is that of formatting each value with f"{v:.17g}" (CSV) or
    json.dumps (JSON) and joining, as a per-value loop would.
    """
    buf = io.BytesIO()
    if fmt == "csv":
        for text in _row_texts(cb.rows, lambda v: format(v, ".17g"), b","):
            buf.write(text)
            buf.write(b"\n")
        return buf.getvalue()
    if fmt == "json":
        head = json.dumps({"params": cb.to_json_params(), "rows": []})
        buf.write(head[:-2].encode())  # ends in '"rows": ['
        for i, text in enumerate(_row_texts(cb.rows, json.dumps, b", ")):
            buf.write(b", [" if i else b"[")
            buf.write(text)
            buf.write(b"]")
        buf.write(b"]}")
        return buf.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


class _ParsedFloats(dict):
    """float(text) per distinct number text, parsed on first sight and shared.

    A text that overflows to an infinity (1e400) raises CodebookError.
    """

    def __missing__(self, text: str) -> float:
        value = self[text] = float(text)
        if not math.isfinite(value):
            raise CodebookError(f"row entry {text} is not a finite number")
        return value


def _refuse_constant(name: str):
    """parse_constant for json.loads: NaN, Infinity and -Infinity raise CodebookError."""
    raise CodebookError(f"row entry {name} is not a finite number")


def _mentions_true_or_false(data: bytes) -> bool:
    """b"true" or b"false" occurs in data, found from each t and f byte.

    No number text holds a t or an f, so on an export this is a few memchr
    passes, where a substring search for b"true" is several times slower.
    """
    for word in (b"true", b"false"):
        i = data.find(word[:1])
        while i != -1:
            if data.startswith(word, i):
                return True
            i = data.find(word[:1], i + 1)
    return False


def import_codebook(data: bytes) -> Codebook:
    """Rebuild a codebook from its JSON export; round-trips bit-exactly.

    Each distinct number text is parsed once, by float as json does by
    default, and every occurrence shares that float.  Raises CodebookError
    when the data is not a JSON object with the export's parameters (a ring
    or parameters the package refuses included), when N and K disagree with
    the parameters, or when the rows are not N rows of 2K finite numbers
    (true, false, NaN, Infinity and a number that overflows are refused);
    SizeLimit when the ring exceeds the element cap.
    """
    try:
        payload = json.loads(
            data.decode(),
            parse_float=_ParsedFloats().__getitem__,
            parse_constant=_refuse_constant,
        )
        meta = payload["params"]
        ring = GaloisRing.from_json(meta["ring"])
        params = CodebookParams(
            ring=ring,
            m=meta["m"],
            k=meta["k"],
            a=ring.element(meta["a"]),
            psi0=MultCharacter(ring.reduced(1), tuple(meta["psi0"])),
            section=meta["section"],
        )
        N, K = as_int(meta["N"], "N"), as_int(meta["K"], "K")
    except (SizeLimit, CodebookError):
        raise
    except (ValueError, TypeError, KeyError, GaloisSumsError) as exc:
        raise CodebookError(f"not a codebook export: {exc!r}") from None
    size = codebook_size(ring.q, ring.n, params.m, params.k)
    if (N, K) != size:
        raise CodebookError(f"(N, K) = {(N, K)}, but the parameters give {size}")
    rows = payload.pop("rows", None)
    # the export writes no true or false, so only such data pays for this scan
    if _mentions_true_or_false(data) and isinstance(rows, list) and any(
        type(v) is bool for row in rows if isinstance(row, list) for v in row
    ):
        raise CodebookError("rows hold true or false, not numbers")
    try:
        raw = np.array(rows)
    except ValueError as exc:  # ragged nesting
        raise CodebookError(f"rows are not a rectangular array: {exc}") from None
    if raw.dtype.kind not in "fi" or raw.shape != (N, 2 * K):
        raise CodebookError(f"rows must be {N} rows of {2 * K} numbers, got {raw.dtype} {raw.shape}")
    rows = raw.astype(np.float64, copy=False).view(np.complex128)
    return Codebook(
        params=params,
        rows=rows,
        row_labels=[None] * N,
        support_sizes=np.count_nonzero(rows, axis=1).astype(np.int64),
        N=N,
        K=K,
        f_count=N - K,
    )
