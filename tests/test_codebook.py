from __future__ import annotations

import dataclasses
import hashlib
import io
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from galois_sums import (
    CodebookError,
    CodebookParams,
    DegenerateDimensions,
    NotAUnit,
    NotPrimePower,
    TooLarge,
    asymptotic_ratio,
    build_codebook,
    codebook_size,
    count_unit_solutions,
    enumerate_characters,
    export_codebook,
    imax_exhaustive,
    imax_formula,
    imax_remark,
    import_codebook,
    jacobi_expected,
    table2,
    welch_bound,
)
from galois_sums import codebook as codebook_module
from galois_sums.characters import extend_phi, lift_character

from conftest import ring


def build(key, m=3, k=1, a_mode="unit", **kw):
    r = ring(*key)
    a = {"unit": r.one, "zero": r.zero, "ideal": r.p_power(1)}[a_mode]
    params = CodebookParams(ring=r, m=m, k=k, a=a, **kw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_codebook(params, allow_nonunit_a=a_mode != "unit")


def test_dimensions_q3():
    cb = build((3, 2, 1))
    assert (cb.N, cb.K) == (162, 54)
    assert cb.f_count == 3 * 6 ** 2


def test_dimensions_q4():
    cb = build((2, 2, 2))
    assert (cb.N, cb.K) == (768, 192)


def test_parameters_only_large_q():
    assert codebook_size(11, 2, 3, 1) == (146410, 13310)


def test_rows_unit_norm():
    for key in [(3, 2, 1), (2, 2, 2)]:
        cb = build(key)
        norms = np.linalg.norm(cb.rows, axis=1)
        assert float(np.max(np.abs(norms - 1.0))) < 1e-9


def test_basis_rows_orthonormal():
    cb = build((3, 2, 1))
    basis = cb.rows[cb.f_count :]
    gram = basis @ basis.conj().T
    assert np.allclose(gram, np.eye(cb.K), atol=1e-12)


def test_support_bounds_unit_twist():
    for key in [(3, 2, 1), (2, 2, 2)]:
        cb = build(key)
        r = cb.params.ring
        lower = count_unit_solutions(r, 3, r.one)
        supports = cb.support_sizes[: cb.f_count]
        assert supports.min() >= lower
        assert supports.max() <= cb.K


def test_imax_q3_attains_formula():
    cb = build((3, 2, 1))
    rep = imax_exhaustive(cb)
    assert abs(rep.imax_measured - 1 / 3) < 1e-9
    assert abs(rep.imax_formula - 1 / 3) < 1e-15
    assert rep.imax_measured >= rep.welch - 1e-12


def test_imax_q4_measured_above_formula():
    # rows differing only in lifted quotient-ring characters correlate at 2/7;
    # the closed-form peak of 1/7 misses that class
    cb = build((2, 2, 2))
    rep = imax_exhaustive(cb)
    assert abs(rep.imax_formula - 1 / 7) < 1e-15
    assert abs(rep.imax_measured - 2 / 7) < 1e-9
    i, j = rep.pair_argmax
    li, lj = cb.row_labels[i], cb.row_labels[j]
    # witness pair shares every section index, differs in the psi components
    assert li[1] == lj[1] and all(a[1] == b[1] for a, b in zip(li[2:], lj[2:]))


def test_cross_correlations_match_sum_magnitudes():
    # every structured-pair correlation equals a predicted Jacobi magnitude
    for key in [(3, 2, 1), (2, 2, 2)]:
        cb = build(key)
        r = cb.params.ring
        f = cb.f_count
        gram = np.abs(cb.rows[:f] @ cb.rows[:f].conj().T)
        supports = cb.support_sizes[:f].astype(float)
        chars = enumerate_characters(r)
        mags = set()
        for triple in itertools.product(chars, repeat=3):
            e = jacobi_expected(list(triple), r.one)
            mags.add(round(e.magnitude(r.q), 9))
        seen = set()
        for i in range(f):
            for j in range(i + 1, f):
                val = gram[i, j] * math.sqrt(supports[i] * supports[j])
                seen.add(round(val, 6))
        for v in seen:
            assert any(abs(v - m) < 1e-6 for m in mags), v


def test_section_independence():
    base = build((3, 2, 1), section="lex-min")
    alt = build((3, 2, 1), section="lex-max")
    assert (base.N, base.K) == (alt.N, alt.K)
    assert not np.allclose(base.rows, alt.rows)  # rows genuinely differ
    r1 = imax_exhaustive(base)
    r2 = imax_exhaustive(alt)
    assert abs(r1.imax_measured - r2.imax_measured) < 1e-12


def test_psi0_choice_preserves_parameters():
    r = ring(3, 2, 1)
    red = r.reduced(1)
    nontrivial = enumerate_characters(red)[1]
    cb = build((3, 2, 1), psi0=nontrivial)
    rep = imax_exhaustive(cb)
    assert (cb.N, cb.K) == (162, 54)
    assert abs(rep.imax_measured - 1 / 3) < 1e-9


def test_unit_requirement():
    r = ring(3, 2, 1)
    with pytest.raises(NotAUnit):
        build_codebook(CodebookParams(ring=r, m=3, k=1, a=r.zero))
    with pytest.warns(UserWarning):
        build_codebook(CodebookParams(ring=r, m=2, k=1, a=r.zero), allow_nonunit_a=True)


def test_entry_cap():
    r = ring(3, 2, 1)
    with pytest.raises(TooLarge):
        build_codebook(CodebookParams(ring=r, m=3, k=1, a=r.one), entry_cap=100)


def test_remark_formulas_as_written():
    # the closed forms evaluated exactly as stated
    assert abs(imax_remark(3, 2, 3, "a0") - 1.0) < 1e-15
    assert abs(imax_remark(3, 2, 3, "aM") - math.sqrt(27) / 6) < 1e-15
    with pytest.raises(ValueError):
        imax_remark(3, 2, 3, "bad")


def test_degenerate_twist_peaks_measured():
    # both degenerate families contain rows equal up to phase: peak 1
    for mode in ("zero", "ideal"):
        cb = build((3, 2, 1), a_mode=mode)
        rep = imax_exhaustive(cb)
        assert abs(rep.imax_measured - 1.0) < 1e-9
        assert rep.imax_measured > imax_formula(3, 2, 3)


def test_welch_bound():
    assert abs(welch_bound(2, 1) - 1.0) < 1e-15
    assert abs(welch_bound(146410, 13310) - 0.008264491) < 1e-9
    assert abs(welch_bound(2345778, 123462) - 0.002770084) < 1e-9
    with pytest.raises(DegenerateDimensions):
        welch_bound(5, 5)


def test_imax_formula_values():
    assert abs(imax_formula(11, 2, 3) - 0.010989011) < 1e-9
    assert abs(imax_formula(19, 2, 3) - 0.003257329) < 1e-9
    assert abs(imax_formula(3, 2, 3) - 1 / 3) < 1e-15


def test_asymptotic_ratio():
    assert abs(asymptotic_ratio(11, 2, 3, 1) - 1.329665789) < 1e-8
    assert abs(asymptotic_ratio(256, 2, 3, 1) - 1.01181084127) < 1e-9
    qs = [11, 19, 31, 53, 81, 121, 179, 256]
    gaps = [asymptotic_ratio(q, 2, 3, 1) - 1 for q in qs]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_table2_rows():
    rows = {r.q: r for r in table2()}
    assert rows[53].N == 410305012 and rows[53].K == 7741604
    assert abs(rows[81].imax - 0.0001582028) < 1e-10
    assert abs(rows[179].welch - 0.00003121001) < 1e-11
    with pytest.raises(NotPrimePower):
        table2([12])


def test_export_csv_basis_rows():
    cb = build((3, 2, 1), m=2, k=1)
    data = export_codebook(cb, fmt="csv").decode().splitlines()
    assert len(data) == cb.N
    # a basis row is exact zeros and a single exact one
    last = data[-1].split(",")
    assert last.count("1") == 1 and last.count("0") == len(last) - 1


def test_export_import_round_trip():
    cb = build((3, 2, 1))
    blob = export_codebook(cb, fmt="json")
    clone = import_codebook(blob)
    assert (clone.N, clone.K) == (cb.N, cb.K)
    assert np.array_equal(clone.rows, cb.rows)  # bit-exact
    assert export_codebook(clone, fmt="json") == blob
    meta = clone.to_json_params()
    assert meta["section"] == "lex-min"
    assert meta["ring"]["modulus"] == [1, 1]


# ---------------------------------------------------------------------------
# the vectorized kernels against per-entry references


def reference_row_characters(params):
    """Yield (label, chars) for every structured row, one character product at a time."""
    r = params.ring
    red_chars = enumerate_characters(r.reduced(1))
    fq = r.residue_field().elements()
    lifts = {psi.exponents: lift_character(psi, r) for psi in red_chars}
    section = {a.coords: extend_phi(r, a, params.section) for a in fq}
    psi0_lift = lifts[params.psi0.exponents]
    tail_space = list(itertools.product(red_chars, fq))
    for a1 in fq:
        head = psi0_lift * section[a1.coords]
        for combo in itertools.product(tail_space, repeat=params.m - 1):
            chars = [head] + [lifts[psi.exponents] * section[ai.coords] for psi, ai in combo]
            label = (a1.coords,) + tuple((psi.exponents, ai.coords) for psi, ai in combo)
            yield label, chars


def reference_build(params):
    """Per-entry loop: each entry is the product of extended_eval over an S tuple.

    S is enumerated here with ring arithmetic, independently of s_indices.
    Returns (rows, supports, labels) as the construction defines them.
    """
    r, m, k = params.ring, params.m, params.k
    domains = [r.units()] * k + [r.elements()] * (m - 1 - k)
    columns = []
    for free in itertools.product(*domains):
        last = params.a
        for x in free:
            last = last - x
        columns.append(free + (last,))
    tables = {}
    rows, supports, labels = [], [], []
    for label, chars in reference_row_characters(params):
        row = []
        for tup in columns:
            v = 1 + 0j
            for c, x in zip(chars, tup):
                if c.exponents not in tables:
                    tables[c.exponents] = {y.coords: c.extended_eval(y) for y in r.elements()}
                v *= tables[c.exponents][x.coords]
            row.append(v)
        row = np.array(row)
        support = int(np.count_nonzero(row))
        rows.append(row / math.sqrt(support))
        supports.append(support)
        labels.append(("F",) + label)
    K = len(columns)
    rows.extend(np.eye(K, dtype=np.complex128))
    supports.extend([1] * K)
    labels.extend(("E", j) for j in range(K))
    return np.array(rows), np.array(supports), labels


@pytest.mark.parametrize(
    "key, m, k, a_mode",
    [
        ((3, 2, 1), 3, 1, "unit"),
        ((3, 2, 1), 3, 1, "zero"),
        ((3, 2, 1), 3, 1, "ideal"),
        ((2, 2, 2), 3, 1, "unit"),
        ((3, 2, 1), 2, 1, "unit"),
        ((3, 2, 1), 4, 2, "unit"),
    ],
)
def test_build_matches_per_entry_reference(key, m, k, a_mode):
    cb = build(key, m=m, k=k, a_mode=a_mode)
    rows, supports, labels = reference_build(cb.params)
    assert cb.row_labels == labels
    assert np.array_equal(cb.support_sizes, supports)
    assert np.array_equal(cb.rows == 0, rows == 0)  # structural zeros only
    assert float(np.max(np.abs(cb.rows - rows))) <= 1e-15


def old_csv(rows):
    buf = io.StringIO()
    for row in rows:
        buf.write(",".join(f"{v.real:.17g},{v.imag:.17g}" for v in row))
        buf.write("\n")
    return buf.getvalue().encode()


def old_json(cb):
    payload = {
        "params": cb.to_json_params(),
        "rows": [[x for v in row for x in (v.real, v.imag)] for row in cb.rows],
    }
    return json.dumps(payload).encode()


def test_export_bytes_match_per_value_formatters():
    cb = build((3, 2, 1), m=2, k=1)
    rows = cb.rows.copy()
    rows[0, 0] = complex(-0.0, 0.0)
    rows[0, 1] = complex(5e-324, -0.0)  # smallest subnormal
    rows[1, 2] = complex(1e300, -1e300)
    rows[2] = np.exp(1j * np.arange(cb.K)) / 3
    odd = dataclasses.replace(cb, rows=rows)
    for c in (cb, odd):
        assert export_codebook(c, fmt="csv") == old_csv(c.rows)
        blob = export_codebook(c, fmt="json")
        assert blob == old_json(c)
        back = import_codebook(blob)
        assert np.array_equal(back.rows.view(np.uint64), c.rows.view(np.uint64))
    assert b"-0," in export_codebook(odd, fmt="csv").split(b"\n")[0]


def test_import_rejects_malformed_payloads():
    cb = build((3, 2, 1), m=2, k=1)
    good = json.loads(export_codebook(cb, fmt="json"))

    def variant(edit):
        payload = json.loads(json.dumps(good))
        edit(payload)
        return json.dumps(payload).encode()

    bad = [
        lambda d: d["rows"][3].pop(),  # ragged
        lambda d: d["rows"].pop(),  # N - 1 rows
        lambda d: [row.extend([0.0, 0.0]) for row in d["rows"]],  # 2K + 2 numbers
        lambda d: d["rows"][0].__setitem__(0, "0.5"),  # not a number
        lambda d: d["params"].update(N=cb.N + 1),  # N disagrees with the rows
        # rows match N and K, which disagree with the params
        lambda d: (d["rows"].pop(), d["params"].update(N=cb.N - 1)),
        lambda d: (
            [row.__delitem__(slice(-2, None)) for row in d["rows"]],
            d["rows"].pop(),
            d["params"].update(K=cb.K - 1, N=cb.N - 1),
        ),
        lambda d: d["params"].pop("ring"),
        lambda d: d["params"].update(psi0=[0, 0]),  # two exponents over Z/3, whose r is 1
    ]
    blobs = [variant(edit) for edit in bad] + [
        json.dumps(good["rows"]).encode(),  # a list, not an object
        json.dumps({"rows": good["rows"]}).encode(),  # no params
        export_codebook(cb, fmt="json")[:-1],  # not JSON
        b"\xff",  # not UTF-8
    ]
    for blob in blobs:
        with pytest.raises(CodebookError):
            import_codebook(blob)


def test_import_parses_every_spelling_with_float():
    cb = build((3, 2, 1), m=2, k=1)
    spellings = ["1.0", "1e0", "10e-1", "1.00", "-0.0", "0.0", "-0.5", "5e-324", "-1E+2", "0.1"]
    texts = [[spellings[(i + j) % 10] for j in range(2 * cb.K)] for i in range(cb.N)]
    head = json.dumps({"params": cb.to_json_params(), "rows": []})[:-2]
    body = ", ".join("[" + ", ".join(row) + "]" for row in texts)
    back = import_codebook((head + body + "]}").encode())
    want = np.array([[float(t) for t in row] for row in texts])
    assert np.array_equal(back.rows.view(np.uint64), want.view(np.uint64))
    assert np.signbit(back.rows.view(np.float64)[0, 4]) and not np.signbit(want[0, 5])


def test_import_memory_is_a_small_multiple_of_the_rows():
    # one float object per number would cost 5.4x the array at this size
    cb = build((2, 2, 2), m=3, k=1)
    blob = export_codebook(cb, fmt="json")
    tracemalloc.start()
    try:
        import_codebook(blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * cb.rows.nbytes


@pytest.mark.parametrize(
    "key, m, k, csv_digest, json_digest",
    [
        ((3, 2, 1), 3, 1, "564d738fdea887e9", "14076fc01ae025bd"),
        ((2, 2, 2), 3, 1, "a7d6f9895ba17a40", "3d58ea7789b67bf6"),
        ((3, 2, 1), 4, 2, "9d695b434a2997a6", "f34c720991111acc"),
    ],
)
def test_export_bytes_are_pinned(key, m, k, csv_digest, json_digest):
    cb = build(key, m=m, k=k)
    digest = {
        fmt: hashlib.sha256(export_codebook(cb, fmt=fmt)).hexdigest()[:16]
        for fmt in ("csv", "json")
    }
    assert digest == {"csv": csv_digest, "json": json_digest}


def test_enumerated_s_must_match_formula(monkeypatch):
    r = ring(3, 2, 1)
    real = codebook_module.s_cardinality
    monkeypatch.setattr(codebook_module, "s_cardinality", lambda *a: real(*a) + 1)
    with pytest.raises(CodebookError, match="enumerated"):
        build_codebook(CodebookParams(ring=r, m=3, k=1, a=r.one))


def test_row_without_support_raises():
    # over Z/4 with m = 2, k = 1, a = 1 the last coordinate 1 - x_1 is never a
    # unit, so rows nontrivial there vanish on all of S
    r = ring(2, 2, 1)
    with pytest.raises(CodebookError, match="zero on all of S"):
        build_codebook(CodebookParams(ring=r, m=2, k=1, a=r.one))


def smallest_tied_pair(cb):
    gram = np.abs(cb.rows @ cb.rows.conj().T)
    gram[np.tril_indices(cb.N)] = -1.0
    peak = gram.max()
    i, j = np.argwhere(gram >= peak - 1e-12)[0]
    return peak, (int(i), int(j))


@pytest.mark.parametrize("key, a_mode", [((3, 2, 1), "unit"), ((3, 2, 1), "zero"), ((2, 2, 2), "unit")])
def test_witness_is_smallest_tied_pair_and_stable(key, a_mode):
    cb = build(key, a_mode=a_mode)
    rep = imax_exhaustive(cb)
    peak, pair = smallest_tied_pair(cb)
    assert abs(rep.imax_measured - peak) <= 1e-12
    assert rep.pair_argmax == pair
    # one unit phase on every row moves last bits, not exact magnitudes
    turned = dataclasses.replace(cb, rows=cb.rows * np.exp(0.7j))
    assert imax_exhaustive(turned).pair_argmax == pair


def scan_variant(name):
    """Codebooks that take every path of the scan: single rows anywhere, edits, builds."""
    base = build((3, 2, 1))
    f, n = base.f_count, base.N
    if name == "permuted":  # single rows among the dense ones
        order = np.random.default_rng(5).permutation(n)
        return dataclasses.replace(base, rows=base.rows[order])
    if name == "imported":
        return import_codebook(export_codebook(base, fmt="json"))
    if name == "phases":  # a different unit phase on every row
        return dataclasses.replace(base, rows=base.rows * np.exp(1j * np.arange(n))[:, None])
    if name == "duplicate-basis":  # two single rows in one column: peak exactly 1
        rows = base.rows.copy()
        rows[5] = rows[f + 3]
        return dataclasses.replace(base, rows=rows)
    if name == "zero-row":
        rows = base.rows.copy()
        rows[4] = 0
        return dataclasses.replace(base, rows=rows)
    if name == "spiky-row":  # a dense row of two entries: it peaks against a single row
        rows = base.rows.copy()
        rows[6] = 0
        rows[6, [10, 20]] = 0.8, 0.6j
        return dataclasses.replace(base, rows=rows)
    if name == "cross-class-tie":  # a dense-single pair ties with a later dense pair at 1
        rows = base.rows.copy()
        rows[3] = 0
        rows[3, [10, 20]] = 1.0, 0.5  # not unit norm, as an edited codebook may be
        rows[41] = rows[40]
        return dataclasses.replace(base, rows=rows)
    if name == "scaled-basis":  # each single row meets some dense row at the peak, 1
        rows = base.rows.copy()
        rows[f:] /= np.abs(rows[:f]).max(axis=0)[:, None]
        return dataclasses.replace(base, rows=rows)
    if name == "orthogonal":  # every pair is 0, so every pair ties
        rows = np.array([[0, 0], [1, 0], [0, 1j]], dtype=np.complex128)
        return dataclasses.replace(base, rows=rows, N=3, K=2)
    key, m, k, a_mode = {
        "zero-twist": ((3, 2, 1), 3, 1, "zero"),
        "ideal-twist": ((3, 2, 1), 3, 1, "ideal"),
        "q4": ((2, 2, 2), 3, 1, "unit"),
        "m4-k2": ((3, 2, 1), 4, 2, "unit"),
        "m2": ((3, 2, 1), 2, 1, "unit"),
    }[name]
    return build(key, m=m, k=k, a_mode=a_mode)


def assert_scan_matches_gram(cb, monkeypatch, blocks):
    """Run the scan at each BLOCK, recording every pair it offers to the witness.

    Peak and witness must be those of the whole Gram matrix; every offered
    pair must be offered once and match its Gram entry; every pair of two
    dense rows must be offered; a pair left out must fall short of the peak
    (unless the peak is 0, where every pair ties).
    """
    peak, pair = smallest_tied_pair(cb)
    gram = np.abs(cb.rows @ cb.rows.conj().T)
    dense = np.count_nonzero(cb.rows, axis=1) > 1
    upper = np.triu(np.ones((cb.N, cb.N), dtype=bool), 1)
    real_offer = codebook_module._Witness.offer
    for block in blocks:
        seen = np.full((cb.N, cb.N), np.nan)

        def offer(self, mags, at_i, at_j):
            i = np.broadcast_to(at_i[:, None], mags.shape)[mags >= 0]
            j = np.broadcast_to(at_j[None, :], mags.shape)[mags >= 0]
            lo, hi = np.minimum(i, j), np.maximum(i, j)
            assert np.all(lo < hi) and np.all(np.isnan(seen[lo, hi]))
            seen[lo, hi] = mags[mags >= 0]
            real_offer(self, mags, at_i, at_j)

        monkeypatch.setattr(codebook_module, "BLOCK", block)
        monkeypatch.setattr(codebook_module._Witness, "offer", offer)
        rep = imax_exhaustive(cb)
        assert rep.pair_argmax == pair, block
        assert abs(rep.imax_measured - peak) <= 1e-12, block
        offered = upper & ~np.isnan(seen)
        assert np.all(np.abs(seen[offered] - gram[offered]) <= 1e-12), block
        assert np.all(offered[upper & dense[:, None] & dense[None, :]]), block
        assert peak <= 1e-12 or np.all(gram[upper & ~offered] < peak - 1e-12), block
    return rep


@pytest.mark.parametrize(
    "name",
    [
        "permuted", "imported", "phases", "duplicate-basis", "zero-row", "spiky-row",
        "cross-class-tie", "scaled-basis", "orthogonal",
        "zero-twist", "ideal-twist", "q4", "m4-k2", "m2",
    ],
)
def test_scan_matches_the_full_gram(name, monkeypatch):
    """The scan against the whole Gram matrix, at two tilings.

    BLOCK = 7 splits every class into many panels and tiles, so tiles on
    and off the diagonal, loose rows on both sides and single columns in
    several chunks all occur.
    """
    rep = assert_scan_matches_gram(scan_variant(name), monkeypatch, (7, 256))
    if name == "duplicate-basis":
        assert rep.imax_measured == 1.0


@pytest.mark.parametrize("seed", range(8))
def test_scan_matches_the_full_gram_on_random_sparse_rows(seed, monkeypatch):
    """Random supports: most columns partial, most dense rows loose, single and zero rows.

    Even seeds plant a turned copy of one row at a random later position, so
    the peak is a pair whose product runs mostly through partial columns.
    """
    rng = np.random.default_rng(seed)
    n, k = 90, 24
    keep = rng.random((n, k)) < rng.uniform(0.05, 0.9, (n, 1))
    rows = (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) * keep
    norms = np.linalg.norm(rows, axis=1)
    rows[norms > 0] /= norms[norms > 0, None]
    zero, single = np.split(rng.choice(n, 7, replace=False), [3])
    rows[zero] = rows[single] = 0
    rows[single, rng.integers(k, size=4)[[0, 0, 1, 2]]] = np.exp(2j * np.pi * rng.random(4))
    if seed % 2 == 0:
        i, j = np.sort(rng.choice(n, 2, replace=False))
        rows[j] = rows[i] * np.exp(0.3j)
    cb = dataclasses.replace(build((3, 2, 1)), rows=rows, N=n, K=k)
    assert_scan_matches_gram(cb, monkeypatch, (3, 7, 256))


def test_reported_peak_is_the_fsum_of_the_witness_pair(monkeypatch):
    """The peak is the witness's inner product summed exactly, whatever the tiling."""
    cb = build((2, 2, 2))
    reports = []
    for block in (7, 256):
        monkeypatch.setattr(codebook_module, "BLOCK", block)
        reports.append(imax_exhaustive(cb))
    i, j = reports[0].pair_argmax
    u, v = cb.rows[i].tolist(), cb.rows[j].tolist()
    re = math.fsum([a.real * b.real for a, b in zip(u, v)] + [a.imag * b.imag for a, b in zip(u, v)])
    im = math.fsum([a.imag * b.real for a, b in zip(u, v)] + [-a.real * b.imag for a, b in zip(u, v)])
    want = math.hypot(re, im)
    assert [r.pair_argmax for r in reports] == [(i, j)] * 2
    assert [r.imax_measured.hex() for r in reports] == [want.hex()] * 2
    assert reports[1].ratio == want / reports[1].welch


def test_scan_temporaries_stay_within_the_stated_bound(monkeypatch):
    """Peak traced memory of one scan against its docstring's bound.

    Besides index arrays of O(N + K) entries (64 N + 32 K bytes cover them),
    the temporaries stay below (80 K + 256 BLOCK) BLOCK bytes; 16 kB more
    covers the interpreter's own objects.  Gathering the full columns of all
    576 dense rows at once would alone take 1 MB, over the bound.  A codebook
    of equal rows, where every pair ties at the peak, keeps the bound too:
    the witness keeps no more than the pairs that can still win.
    """
    monkeypatch.setattr(codebook_module, "BLOCK", 16)
    cb = build((2, 2, 2))  # N = 768, K = 192, 576 dense rows, 112 full columns
    equal = dataclasses.replace(cb, rows=np.repeat(cb.rows[:1], cb.N, axis=0))
    bound = (80 * cb.K + 256 * 16) * 16 + 64 * cb.N + 32 * cb.K + 16_000
    assert bound < 576 * 112 * 16
    for c in (cb, equal):
        imax_exhaustive(c)
        tracemalloc.start()
        try:
            imax_exhaustive(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)
