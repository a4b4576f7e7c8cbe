from __future__ import annotations

import hashlib
import inspect
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from galois_sums import (
    AdditiveCharacter,
    BrokenInvariant,
    NotAUnit,
    RingMismatch,
    RootOfUnity,
    SubgroupCharacter,
    build_ring,
    character_levels,
    character_table_json,
    decompose_unit_group,
    enumerate_characters,
    extend_phi,
    lift_character,
    product_character,
    project_character,
    section_json,
)
from galois_sums import characters
from galois_sums.characters import dlog_matrix

from conftest import one_plus_ideal, ring


def test_root_of_unity_arithmetic():
    a = RootOfUnity.make(1, 4)
    b = RootOfUnity.make(1, 6)
    assert (a * b) == RootOfUnity.make(5, 12)
    assert a.conjugate() == RootOfUnity.make(3, 4)
    assert abs(abs(a.to_complex()) - 1) < 1e-12
    assert RootOfUnity.make(2, 4).reduced() == RootOfUnity(1, 2)


def test_additive_character_basics(z9, gr4_16):
    for r in (z9, gr4_16):
        lam0 = AdditiveCharacter(r, r.zero)
        assert all(lam0.eval(x).is_one for x in r.elements())
    assert AdditiveCharacter(z9, z9.one).eval(z9.one) == RootOfUnity.make(1, 9)
    assert AdditiveCharacter(gr4_16, gr4_16.one).eval(gr4_16.xi) == RootOfUnity.make(3, 4)


def test_additive_dual_is_complete(z9):
    # distinct twists give distinct characters, q^n of them in total
    sigs = set()
    for b in z9.elements():
        lam = AdditiveCharacter(z9, b)
        sigs.add(tuple(lam.eval(x).numerator for x in z9.elements()))
    assert len(sigs) == z9.element_count


def test_unit_basis_z9(z9):
    basis = decompose_unit_group(z9)
    assert [(g.coords, d) for g, d in zip(basis.generators, basis.orders)] == [
        ((8,), 2),
        ((4,), 3),
    ]
    rows = dlog_matrix(z9)[z9.unit_indices()]
    assert len({tuple(row) for row in rows.tolist()}) == len(rows) == 6


def test_unit_basis_gr4_16(gr4_16):
    basis = decompose_unit_group(gr4_16)
    assert basis.orders == (3, 2, 2)
    one_plus_2t = {(1, 2), (3, 0), (3, 2)}
    assert all(g.coords in one_plus_2t for g in basis.generators[1:])


def test_unit_basis_field(f4):
    basis = decompose_unit_group(f4)
    assert basis.generators == (f4.xi,)
    assert basis.orders == (3,)


@pytest.mark.parametrize(
    "key,count", [((3, 2, 1), 6), ((2, 2, 2), 12), ((3, 3, 1), 18), ((2, 3, 2), 48)]
)
def test_character_counts(key, count):
    assert len(enumerate_characters(ring(*key))) == count


def test_dlog_covers_group_structure(gr8_64):
    basis = decompose_unit_group(gr8_64)
    # the exponent-tuple product map is a bijection onto the units
    total = 1
    for d in basis.orders:
        total *= d
    rows = dlog_matrix(gr8_64)[gr8_64.unit_indices()]
    assert total == gr8_64.unit_count == len({tuple(row) for row in rows.tolist()}) == len(rows)
    for g, d in zip(basis.generators, basis.orders):
        assert (g ** d) == gr8_64.one
        for j in range(1, d):
            assert (g ** j) != gr8_64.one


def test_classify_examples(z9):
    chars = enumerate_characters(z9)
    assert chars[0].level == 0
    two = z9.scalar(2)
    by_value = {}
    for c in chars:
        v = c.eval_unit(two).reduced()
        by_value[(v.numerator, v.order)] = c
    assert by_value[(1, 6)].level == 2  # full-order value at a generator
    assert by_value[(1, 2)].level == 1  # order-2 value: trivial on 1 + 3R


def test_classify_partition_sizes():
    for key in [(3, 2, 1), (2, 2, 2), (3, 3, 1), (2, 3, 2)]:
        r = ring(*key)
        chars = enumerate_characters(r)
        for k in range(1, r.n + 1):
            trivial_on_k = sum(c.trivial_on_subgroup(k) for c in chars)
            assert trivial_on_k == r.q ** k - r.q ** (k - 1)


def test_char_group_operations(z9):
    chars = enumerate_characters(z9)
    for c in chars:
        assert (c * c.inverse()).is_trivial
        assert chars[0] * c == c
    lows = [c for c in chars if c.level <= 1]
    for c1, c2 in itertools.product(lows, repeat=2):
        assert (c1 * c2).level <= 1


def test_char_mul_ring_mismatch(z9, gr4_16):
    with pytest.raises(RingMismatch):
        enumerate_characters(z9)[0] * enumerate_characters(gr4_16)[0]


def test_orthogonality():
    for key in [(3, 2, 1), (2, 2, 2)]:
        r = ring(*key)
        for c in enumerate_characters(r):
            total = sum(c.eval_unit(u).to_complex() for u in r.units())
            if c.is_trivial:
                assert abs(total - r.unit_count) < 1e-9
            else:
                assert abs(total) < 1e-9
        for b in r.elements():
            lam = AdditiveCharacter(r, b)
            total = sum(lam.eval(x).to_complex() for x in r.elements())
            if b.is_zero:
                assert abs(total - r.element_count) < 1e-9
            else:
                assert abs(total) < 1e-9


def test_extended_eval(z9):
    chars = enumerate_characters(z9)
    triv, nontriv = chars[0], chars[1]
    assert triv.extended_eval(z9.zero) == 1
    assert nontriv.extended_eval(z9.scalar(3)) == 0
    for u in z9.units():
        assert abs(abs(nontriv.extended_eval(u)) - 1) < 1e-12


def test_phi_a(z9):
    field = z9.residue_field()
    assert all(SubgroupCharacter(z9, field.zero).eval(w).is_one for w in one_plus_ideal(z9, 1))
    assert SubgroupCharacter(z9, field.scalar(1)).eval(z9.scalar(4)) == RootOfUnity.make(1, 3)
    # distinctness: the q subgroup characters are pairwise different
    sigs = set()
    for a in field.elements():
        pa = SubgroupCharacter(z9, a)
        sigs.add(tuple(pa.eval(w).numerator for w in one_plus_ideal(z9, 1)))
    assert len(sigs) == z9.q


@pytest.mark.parametrize("key", [(3, 2, 1), (2, 2, 2), (3, 3, 1)])
def test_extend_phi_restriction(key):
    r = ring(*key)
    field = r.residue_field()
    pk = r.p ** (r.n - 1)
    for a in field.elements():
        chi = extend_phi(r, a)
        pa = SubgroupCharacter(r, a)
        for x in field.elements():
            lifted = r.element(tuple(c % r.pn for c in x.coords))
            w = r.one + r.scalar(pk) * lifted
            assert (chi.eval_unit(w) * pa.eval(w).conjugate()).is_one


def test_extend_phi_section_properties(z9):
    field = z9.residue_field()
    assert extend_phi(z9, field.zero).is_trivial
    sections = [extend_phi(z9, a) for a in field.elements()]
    assert len({s.exponents for s in sections}) == z9.q
    for a, b in itertools.permutations(field.elements(), 2):
        quot = extend_phi(z9, a) * extend_phi(z9, b).inverse()
        assert quot.is_primitive


def test_lift_and_project(z9):
    field = z9.residue_field()
    field_chars = enumerate_characters(field)
    for psi in field_chars:
        lifted = lift_character(psi, z9)
        assert project_character(lifted, 1) == psi
        if psi.is_trivial:
            assert lifted.is_trivial
        else:
            assert lifted.level == 1
    # the unique nontrivial field character lifts to the unique 1-level character
    nontrivial_lift = lift_character(field_chars[1], z9)
    one_level = [c for c in enumerate_characters(z9) if c.level == 1]
    assert one_level == [nontrivial_lift]


@pytest.mark.parametrize("key", [(3, 2, 1), (2, 2, 2), (2, 3, 2), (3, 3, 1), (2, 4, 1)])
def test_lift_exponents_is_the_per_generator_lift(key):
    """Each row is psi o tau, read at the images of the generators one by one."""
    r = ring(*key)
    basis = decompose_unit_group(r)
    for k in range(1, r.n):
        red = r.reduced(k)
        X = characters.character_exponents(red)
        lifted = characters.lift_exponents(r, X, k)
        for psi, row in zip(enumerate_characters(red), lifted.tolist()):
            values = [psi.eval_unit(r.reduce(g, k)) for g in basis.generators]
            assert all(v.numerator * d % v.order == 0 for v, d in zip(values, basis.orders))
            assert row == [v.numerator * d // v.order for v, d in zip(values, basis.orders)]
        assert characters.project_exponents(r, lifted, k).tolist() == X.tolist()


def test_product_character(z9):
    chars = enumerate_characters(z9)
    rng = random.Random(3)
    for _ in range(20):
        picks = [rng.choice(chars) for _ in range(3)]
        prod = product_character(picks)
        u = rng.choice(z9.units())
        direct = picks[0].eval_unit(u) * picks[1].eval_unit(u) * picks[2].eval_unit(u)
        assert (prod.eval_unit(u) * direct.conjugate()).is_one


def test_json_exports(z9):
    table = character_table_json(z9)
    assert len(table) == 6
    assert {"exponents", "triviality_level"} <= set(table[0])
    sec = section_json(z9)
    assert len(sec) == 3
    json.dumps(table), json.dumps(sec)  # serializable


# ---------------------------------------------------------------------------
# structural tables against per-element definitions

# GR(3^2,3^2), GR(2^3,2^3), GR(2^2,2^4), GR(3,3^2), GR(2^4,2^12), GR(5^2,5^2)
REFERENCE_RINGS = [(3, 2, 1), (2, 3, 1), (2, 2, 2), (3, 1, 2), (2, 4, 3), (5, 2, 1)]


def reference_basis(elems, mul, one):
    """Per-element direct-product basis of a finite abelian group.

    The first element of maximal order g, coset representatives of <g> in
    order of first appearance, recursion on the quotient, then each lifted
    generator k of quotient order e times the power of g that gives it order e.
    """
    if len(elems) == 1:
        return []

    def order(e):
        acc, k = e, 1
        while acc != one:
            acc, k = mul(acc, e), k + 1
        return k

    orders = [order(e) for e in elems]
    d = max(orders)
    g = elems[orders.index(d)]
    if d == len(elems):
        return [(g, d)]
    gpow = [one]
    for _ in range(d - 1):
        gpow.append(mul(gpow[-1], g))
    rep_of, reps = {}, []
    for e in elems:
        if e not in rep_of:
            reps.append(e)
            for gj in gpow:
                rep_of[mul(e, gj)] = e
    out = [(g, d)]
    for k, e in reference_basis(reps, lambda a, b: rep_of[mul(a, b)], one):
        acc = k
        for _ in range(e - 1):
            acc = mul(acc, k)
        c = gpow.index(acc)
        assert c % e == 0
        out.append((mul(k, gpow[(d - c // e) % d]), e))
    return out


def reference_level(chi):
    """Least k with chi trivial on every element of 1 + p^k R (k = 0: on R*)."""
    r = chi.ring
    if chi.is_trivial:
        return 0
    for k in range(1, r.n):
        if all(chi.eval_unit(w).is_one for w in one_plus_ideal(r, k)):
            return k
    return r.n


@pytest.mark.parametrize("key", REFERENCE_RINGS)
def test_basis_matches_per_element_choices(key):
    r = ring(*key)
    basis = decompose_unit_group(r)
    h_elems = one_plus_ideal(r, 1) if r.n > 1 else [r.one]
    want = [(r.xi, r.q - 1)] + reference_basis(h_elems, lambda a, b: a * b, r.one)
    assert [(g.coords, d) for g, d in zip(basis.generators, basis.orders)] == [
        (g.coords, d) for g, d in want
    ]


@pytest.mark.parametrize("key", REFERENCE_RINGS)
def test_every_unit_is_the_product_of_its_dlog_powers(key):
    r = ring(*key)
    basis = decompose_unit_group(r)
    table = dlog_matrix(r)
    unit_rows = {tuple(row) for row in table[r.unit_mask()].tolist()}
    assert len(unit_rows) == r.unit_count
    for x, row in zip(r.elements(), table.tolist()):
        if not x.is_unit:
            assert not any(row)
            continue
        prod = r.one
        for g, e in zip(basis.generators, row):
            prod = prod * g ** e
        assert prod == x


@pytest.mark.parametrize("key", REFERENCE_RINGS)
def test_dlog_view_reads_the_matrix(key):
    """basis.dlog maps unit coordinates to their dlog_matrix rows, in units() order."""
    r = ring(*key)
    basis = decompose_unit_group(r)
    table = dlog_matrix(r)
    assert len(basis.dlog) == r.unit_count
    assert list(basis.dlog) == [u.coords for u in r.units()]
    for x, row in zip(r.elements(), table.tolist()):
        if x.is_unit:
            assert basis.dlog[x.coords] == tuple(row)
        else:
            assert x.coords not in basis.dlog
    assert (r.pn,) + (0,) * (r.s - 1) not in basis.dlog  # unreduced coordinates


def test_eval_unit_at_a_non_unit_raises_not_a_unit(z9, gr4_16):
    chi = enumerate_characters(gr4_16)[5]
    with pytest.raises(NotAUnit):
        chi.eval_unit(gr4_16.element((2, 0)))  # used to raise KeyError
    with pytest.raises(RingMismatch):
        chi.eval_unit(z9.one)
    with pytest.raises(RingMismatch):
        chi.extended_eval(z9.zero)


def test_character_numerators_at_a_non_unit_raise_not_a_unit(z9, gr4_16):
    X = characters.character_exponents(z9)
    with pytest.raises(NotAUnit):
        characters.character_numerators(z9, X, z9.scalar(3))  # used to raise KeyError
    with pytest.raises(RingMismatch):
        characters.character_numerators(z9, X, gr4_16.one)


def test_exponent_tuples_of_the_wrong_width_are_refused(z9, z27):
    for bad in [(1, 2, 3), (1,)]:  # a longer tuple was cut to r by zip
        with pytest.raises(ValueError, match="r = 2 entries"):
            characters.MultCharacter(z9, bad)
    transports = [  # each takes exponent tuples over a ring with r = 2
        lambda X: characters.lift_exponents(z27, X, 1),
        lambda X: characters.project_exponents(z27, X, 2),
        lambda X: characters.character_numerators(z27, X, z27.one),
    ]
    for transport in transports:
        for X in ([[1]], [[1, 0, 0]], [], 1):
            with pytest.raises(ValueError, match="r = 2 entries"):
                transport(X)
    X = characters.exponent_array(z27, [[3, 11], [-1, -1]])
    assert X.dtype == np.int64 and X.tolist() == [[1, 2], [1, 8]]


@pytest.mark.parametrize("key", REFERENCE_RINGS)
def test_levels_match_per_element_definition(key):
    r = ring(*key)
    chars = enumerate_characters(r)
    levels = character_levels(r)
    table = character_table_json(r)
    assert len(levels) == len(table) == len(chars)
    for chi, lv, row in zip(chars, levels.tolist(), table):
        want = reference_level(chi)
        assert chi.level == lv == row["triviality_level"] == want
        assert row["exponents"] == list(chi.exponents)
        for k in range(-1, r.n + 2):
            assert chi.trivial_on_subgroup(k) == (k >= r.n or want <= max(k, 0))


def subgroup_scan_levels(r) -> list[int]:
    """Levels by testing every character at the dlog row of every element of each 1 + p^k R.

    Characters go in blocks of 2,048 and rows in blocks that double from 8;
    only characters trivial on every row block so far meet the next one.
    """
    basis = decompose_unit_group(r)
    table, L = dlog_matrix(r), basis.lcm_order
    subgroups = [table[[r._index(w.coords) for w in one_plus_ideal(r, k)]] for k in range(1, r.n)]
    X = characters.character_exponents(r) * basis.scale
    levels = np.where(X.any(axis=1), r.n, 0)
    for start in range(0, len(X), 2048):
        pending = start + np.flatnonzero(X[start : start + 2048].any(axis=1))
        for k, rows in enumerate(subgroups, start=1):
            alive, row, size = pending, 0, 8
            while row < len(rows) and len(alive):
                alive = alive[~(X[alive] @ rows[row : row + size].T % L).any(axis=1)]
                row, size = row + size, 2 * size
            levels[alive] = k
            pending = np.setdiff1d(pending, alive)
    return levels.tolist()


# the rings of the ring-tables benchmark workload
TABLE_RINGS = [(2, 5, 3), (5, 3, 2), (3, 3, 2), (2, 4, 2), (5, 2, 1)]


@pytest.mark.parametrize("key", REFERENCE_RINGS + [k for k in TABLE_RINGS if k not in REFERENCE_RINGS])
def test_levels_match_the_subgroup_scan(key):
    """Levels read at the generators 1 + p^j xi^i equal the scan over every subgroup element."""
    r = ring(*key)
    assert character_levels(r).tolist() == subgroup_scan_levels(r)


@pytest.mark.parametrize("key", REFERENCE_RINGS)
def test_exponent_arrays_match_per_character_definitions(key):
    """Exponents, indices, signs and values at a unit as arrays, against eval_unit."""
    r = ring(*key)
    chars = enumerate_characters(r)
    basis = decompose_unit_group(r)
    X = characters.character_exponents(r)
    assert X.tolist() == [list(c.exponents) for c in chars]
    assert (X @ basis.radix).tolist() == [c.index for c in chars] == list(range(len(chars)))
    signs = characters.character_signs(r).tolist()
    rng = random.Random(21)
    for w in [-r.one] + rng.sample(r.units(), 3):
        nums = characters.character_numerators(r, X, w).tolist()
        for chi, num, sign in zip(chars, nums, signs):
            v = chi.eval_unit(w)
            assert (v.numerator, v.order) == (num, basis.lcm_order)
            if w == -r.one:
                assert sign == chi.sign_at_minus_one() == (1 if v.is_one else -1)
                assert 2 * v.numerator % v.order == 0


@pytest.mark.parametrize("key", [k for k in REFERENCE_RINGS if k[1] >= 2])
def test_projection_is_the_character_through_the_reduction_map(key):
    """psi = project(chi, k) satisfies psi(x mod p^(n-k)) = chi(x) on every unit x."""
    r = ring(*key)
    chars = enumerate_characters(r)
    units = r.units()
    for k in range(1, r.n):
        eligible = [c for c in chars if c.level <= r.n - k]
        batch = characters.project_exponents(r, [c.exponents for c in eligible], k)
        for chi, exps in zip(eligible, batch.tolist()):
            psi = project_character(chi, k)
            assert list(psi.exponents) == exps and psi.ring == r.reduced(k)
            for x in units[:: max(1, len(units) // 40)]:
                got, want = psi.eval_unit(r.reduce(x, k)), chi.eval_unit(x)
                assert got.numerator * want.order == want.numerator * got.order
        deep = [c for c in chars if c.level > r.n - k]
        with pytest.raises(ValueError):
            characters.project_exponents(r, [deep[0].exponents], k)


@pytest.mark.parametrize("key", [k for k in REFERENCE_RINGS if k[1] >= 2])
@pytest.mark.parametrize("section", ["lex-min", "lex-max"])
def test_sections_are_the_first_restriction_in_scan_order(key, section):
    r = ring(*key)
    field = r.residue_field()
    pk = r.p ** (r.n - 1)
    ws = [r.one + r.scalar(pk) * r.element(x.coords) for x in field.elements()]
    chars = enumerate_characters(r)
    if section == "lex-max":
        chars = chars[::-1]
    for a in field.elements():
        pa = SubgroupCharacter(r, a)
        want = next(
            chi
            for chi in chars
            if all((chi.eval_unit(w) * pa.eval(w).conjugate()).is_one for w in ws)
        )
        assert extend_phi(r, a, section) == want


def test_tables_do_not_depend_on_block_sizes(monkeypatch):
    fresh = build_ring(2, 3, 2)
    levels = character_levels(fresh).tolist()
    sections = [section_json(fresh, sec) for sec in ("lex-min", "lex-max")]
    monkeypatch.setattr(characters, "CHAR_BLOCK", 5)
    small = build_ring(2, 3, 2)
    assert character_levels(small).tolist() == levels
    assert [section_json(small, sec) for sec in ("lex-min", "lex-max")] == sections


def test_character_tables_are_memoised_and_read_only():
    r = build_ring(2, 3, 2)
    for table in (dlog_matrix, character_levels, characters.character_signs):
        assert table(r) is table(r) and not table(r).flags.writeable
    assert enumerate_characters(r) is enumerate_characters(r)
    assert not characters.root_table(12).flags.writeable


def test_character_table_does_not_enumerate_characters(monkeypatch):
    calls = []
    enumerate_all = characters.enumerate_characters
    monkeypatch.setattr(
        characters, "enumerate_characters", lambda r: calls.append(r) or enumerate_all(r)
    )
    fresh = build_ring(5, 2, 1)
    character_table_json(fresh)
    assert calls == []
    characters.enumerate_characters(fresh)  # the spy sees a call
    assert calls == [fresh]


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "key,table,lex_min,lex_max",
    [
        ((2, 5, 3), "f1ffa2398eceaa7e", "b925b680aa6744f7", "c9e59580a472e99d"),
        ((5, 3, 2), "e58bb1bb793e618b", "dfc17481749c1532", "e890aa0f9ced538a"),
        ((2, 4, 3), "8b8a82ad4b6bf7f8", None, "1f57cc45ddd1ba0f"),
    ],
)
def test_structural_exports_are_pinned(key, table, lex_min, lex_max):
    r = ring(*key)
    assert digest(character_table_json(r)) == table
    if lex_min is not None:
        assert digest(section_json(r)) == lex_min
    assert digest(section_json(r, "lex-max")) == lex_max


def test_generators_are_pinned():
    basis = decompose_unit_group(ring(2, 5, 3))
    assert [g.coords for g in basis.generators] == [
        (0, 1, 0), (1, 0, 2), (1, 2, 0), (5, 12, 8), (15, 0, 16)
    ]
    assert basis.orders == (7, 16, 16, 8, 2)


@pytest.mark.parametrize(
    "key,sha",
    [((2, 5, 3), "8304a0ca159a450a"), ((5, 3, 2), "f427b86c3fc29a65"), ((2, 4, 3), "136faebbe085e346")],
)
def test_dlog_tables_are_pinned(key, sha):
    assert hashlib.sha256(dlog_matrix(ring(*key)).tobytes()).hexdigest()[:16] == sha


def run_under_python_O(code: str) -> str:
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def first_generator_twice(basis):
    """basis with every generator after the first replaced by the first, orders kept."""

    def duplicated(*args):
        out = basis(*args)
        return out[:1] + [(out[0][0], d) for _, d in out[1:]]

    return duplicated


def test_a_duplicated_generator_fails_the_factor_once_guard(monkeypatch):
    """GR(2^2,2^4): 1 + M is (Z/2)^2, whose basis needs one recursion that returns
    a single generator, so only the outermost basis changes: (xi, g, g), orders (3, 2, 2)."""
    monkeypatch.setattr(characters, "_abelian_basis", first_generator_twice(characters._abelian_basis))
    with pytest.raises(BrokenInvariant, match="exactly once"):
        decompose_unit_group(build_ring(2, 2, 2))
    code = inspect.getsource(first_generator_twice) + (
        "from galois_sums import BrokenInvariant, build_ring, characters\n"
        "characters._abelian_basis = first_generator_twice(characters._abelian_basis)\n"
        "try:\n"
        "    characters.decompose_unit_group(build_ring(2, 2, 2))\n"
        "except BrokenInvariant as e:\n"
        "    print(e)\n"
    )
    assert run_under_python_O(code) == "the generators do not factor every unit exactly once"


def test_subgroup_character_rejects_outsiders_under_python_O():
    code = (
        "from galois_sums import NotInSubgroup, SubgroupCharacter, build_ring\n"
        "z9 = build_ring(3, 2, 1)\n"
        "phi = SubgroupCharacter(z9, z9.residue_field().one)\n"
        "try:\n"
        "    phi.eval(z9.scalar(2))\n"
        "except NotInSubgroup:\n"
        "    print('NotInSubgroup')\n"
    )
    assert run_under_python_O(code) == "NotInSubgroup"
