from __future__ import annotations

import hashlib
import inspect
import itertools
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import galois_sums.sums as sums_module
from galois_sums import (
    AdditiveCharacter,
    Expected,
    MultCharacter,
    RingMismatch,
    SumValue,
    TooLarge,
    build_ring,
    canonical_twists,
    canonicalize,
    count_unit_solutions,
    count_unit_solutions_brute,
    decompose_unit_group,
    enumerate_characters,
    expected_gauss,
    gauss_sum,
    jacobi,
    jacobi_brute,
    jacobi_expected,
    product_character,
    project_character,
    s_cardinality,
    s_cardinality_qn,
    term_tolerance,
    tilde_jacobi_brute,
    tilde_jacobi_classify,
)
from galois_sums.characters import character_exponents, root_table
from galois_sums.verify import _tuples as verify_tuples

from conftest import ring


def brute_gauss(r, chi, b):
    """Independent accumulation of the Gauss sum, orthogonal to gauss_sum()."""
    lam = AdditiveCharacter(r, b)
    return sum((chi.eval_unit(u) * lam.eval(u)).to_complex() for u in r.units())


def test_gauss_trivial_cases(z9):
    chars = enumerate_characters(z9)
    triv = chars[0]
    sv = gauss_sum(triv, z9.zero)
    assert sv.expected.integer == 6 and abs(sv.value - 6) < 1e-9
    sv = gauss_sum(triv, z9.scalar(3))
    assert sv.expected.integer == -3 and abs(sv.value + 3) < 1e-9
    sv = gauss_sum(triv, z9.one)
    assert sv.expected.kind == "zero" and abs(sv.value) < 1e-9


def test_gauss_primitive_magnitude(z9):
    prim = next(c for c in enumerate_characters(z9) if c.is_primitive)
    sv = gauss_sum(prim, z9.one)
    assert abs(abs(sv.value) - 3.0) < 1e-9
    assert sv.expected.magnitude(z9.q) == 3.0
    assert abs(sv.value - brute_gauss(z9, prim, z9.one)) < 1e-12


def test_gauss_ideal_twist_magnitude(z9):
    one_level = next(c for c in enumerate_characters(z9) if c.level == 1)
    sv = gauss_sum(one_level, z9.scalar(3))
    assert abs(abs(sv.value) - 3 ** 1.5) < 1e-9
    assert abs(sv.expected.magnitude(3) - 3 ** 1.5) < 1e-12


def test_gauss_conjugation_symmetry():
    rng = random.Random(5)
    for key in [(3, 2, 1), (2, 2, 2), (3, 2, 2)]:
        r = ring(*key)
        chars = enumerate_characters(r)
        for _ in range(25):
            chi = rng.choice(chars)
            b = rng.choice(r.elements())
            lhs = gauss_sum(chi.inverse(), -b).value
            rhs = gauss_sum(chi, b).value.conjugate()
            assert abs(lhs - rhs) < 1e-9


def test_count_unit_solutions(z9):
    assert count_unit_solutions(z9, 2, z9.one) == 3
    assert count_unit_solutions_brute(z9, 2, z9.one) == 3
    assert count_unit_solutions(z9, 2, z9.scalar(3)) == 6
    assert count_unit_solutions_brute(z9, 2, z9.scalar(3)) == 6
    assert count_unit_solutions(z9, 2, z9.zero) == len(z9.units())


@pytest.mark.parametrize("key", [(3, 2, 1), (2, 2, 2)])
@pytest.mark.parametrize("m", [2, 3])
def test_count_formula_matches_enumeration(key, m):
    r = ring(*key)
    for a in [r.zero, r.one, r.p_power(1)]:
        assert count_unit_solutions(r, m, a) == count_unit_solutions_brute(r, m, a)


def test_jacobi_trivial_pair_values(z9):
    triv = enumerate_characters(z9)[0]
    sv = jacobi([triv, triv], z9.one)
    assert abs(sv.value - 3) < 1e-9 and sv.expected.integer == 3
    sv = jacobi([triv, triv], z9.scalar(3))
    assert abs(sv.value - 6) < 1e-9 and sv.expected.integer == 6


def test_jacobi_primitive_pair_magnitude(z9):
    chars = enumerate_characters(z9)
    pair = next(
        (c1, c2)
        for c1 in chars
        for c2 in chars
        if c1.is_primitive and c2.is_primitive and (c1 * c2).is_primitive
    )
    sv = jacobi(list(pair), z9.one)
    assert abs(abs(sv.value) - 3.0) < 1e-6
    assert sv.expected.kind == "power_of_q"


def test_jacobi_triple_primitive_magnitude(z9):
    chars = [c for c in enumerate_characters(z9) if c.is_primitive]
    triple = next(
        t for t in itertools.product(chars, repeat=3) if product_character(t).is_primitive
    )
    sv = jacobi(list(triple), z9.one)
    assert abs(abs(sv.value) - 9.0) < 1e-6  # q^((m-1)n/2)


def test_jacobi_ideal_twist_gauss_quotient(z9):
    # a primitive character times one whose product has level 1 gives |J_p| = q^(3/2)
    chars = enumerate_characters(z9)
    found = None
    for c1, c2 in itertools.product(chars, repeat=2):
        if c2.is_primitive and not c1.is_trivial and (c1 * c2).level == 1:
            found = (c1, c2)
            break
    sv = jacobi(list(found), z9.scalar(3))
    assert abs(abs(sv.value) - 3 ** 1.5) < 1e-6
    assert abs(sv.expected.magnitude(3) - 3 ** 1.5) < 1e-9


def test_jacobi_multi_vanishing(z9, gr4_16):
    # product nontrivial on the deepest subgroup kills every ideal twist
    for r in (z9, gr4_16):
        chars = enumerate_characters(r)
        for triple in itertools.product(chars, repeat=3):
            if not any(c.is_primitive for c in triple):
                continue
            if product_character(triple).is_primitive:
                sv = jacobi_brute(list(triple), r.p_power(1))
                assert abs(sv.value) < 1e-6
                break


def test_jacobi_symmetry_under_permutation():
    rng = random.Random(6)
    for key in [(3, 2, 1), (2, 2, 2)]:
        r = ring(*key)
        chars = enumerate_characters(r)
        for _ in range(10):
            tup = [rng.choice(chars) for _ in range(3)]
            a = rng.choice(r.elements())
            base = jacobi_brute(tup, a).value
            perm = list(tup)
            rng.shuffle(perm)
            assert abs(jacobi_brute(perm, a).value - base) < 1e-9


def test_canonicalize_unit(z9):
    chars = enumerate_characters(z9)[1:3]
    canon, scalar = canonicalize(chars, z9.one)
    assert canon == z9.one and scalar.is_one
    canon, scalar = canonicalize(chars, z9.scalar(2))
    assert canon == z9.one
    prod = product_character(chars)
    assert (scalar * prod.eval_unit(z9.scalar(2)).conjugate()).is_one


def test_canonicalize_reduction_identity():
    rng = random.Random(7)
    for key in [(3, 2, 1), (2, 2, 2)]:
        r = ring(*key)
        chars = enumerate_characters(r)
        candidates = [a for a in r.elements() if not a.is_zero]
        for _ in range(15):
            tup = [rng.choice(chars) for _ in range(2)]
            a = rng.choice(candidates)
            canon, scalar = canonicalize(tup, a)
            lhs = jacobi_brute(tup, a).value
            rhs = scalar.to_complex() * jacobi_brute(tup, canon).value
            assert abs(lhs - rhs) < 1e-9


def test_canonicalize_teichmuller_lift_example(z9):
    chars = [enumerate_characters(z9)[1], enumerate_characters(z9)[2]]
    canon, scalar = canonicalize(chars, z9.scalar(6))  # 6 = 3 * 2
    assert canon == z9.scalar(3)
    lhs = jacobi_brute(chars, z9.scalar(6)).value
    rhs = scalar.to_complex() * jacobi_brute(chars, z9.scalar(3)).value
    assert abs(lhs - rhs) < 1e-9


@pytest.mark.parametrize("key", [(3, 2, 1), (2, 2, 2)])
def test_dispatch_complete_and_correct_m2(key):
    r = ring(*key)
    chars = enumerate_characters(r)
    for pair in itertools.product(chars, repeat=2):
        for a in canonical_twists(r):
            e = jacobi_expected(list(pair), a)
            assert e.kind != "unclassified"
            b = jacobi_brute(list(pair), a)
            assert abs(abs(b.value) - e.magnitude(r.q)) < 1e-6
            if e.value is not None:
                assert abs(b.value - e.value) < 1e-6


def test_gauss_quotient_identity(z9, gr4_16):
    # whenever the pair product has level n - k, the ideal-twist sum satisfies
    # J * G(prod, lambda_{p^k}) = q^k G(chi1) G(chi2)
    for r in (z9, gr4_16):
        chars = enumerate_characters(r)
        n = r.n
        for c1, c2 in itertools.product(chars, repeat=2):
            if not c2.is_primitive:
                continue
            prod = c1 * c2
            t = prod.level
            if not 1 <= t <= n - 1:
                continue
            k = n - t
            lhs = jacobi_brute([c1, c2], r.p_power(k)).value * gauss_sum(
                prod, r.p_power(k)
            ).value
            rhs = (
                r.q ** k
                * gauss_sum(c1, r.one).value
                * gauss_sum(c2, r.one).value
            )
            assert abs(lhs - rhs) < 1e-6


def test_reduction_to_quotient_ring():
    # pairs of non-primitive characters reduce with scale q^(k(m-1))
    for key, ks in [((3, 3, 1), (1, 2)), ((2, 3, 2), (1, 2))]:
        r = ring(*key)
        chars = enumerate_characters(r)
        for k in ks:
            eligible = [c for c in chars if c.trivial_on_subgroup(r.n - k)]
            for c1, c2 in itertools.product(eligible, repeat=2):
                proj = [project_character(c, k) for c in (c1, c2)]
                for a in [r.zero, r.one, r.p_power(1), r.p_power(2)]:
                    lhs = jacobi_brute([c1, c2], a).value
                    rhs = jacobi_brute(proj, r.reduce(a, k)).value
                    assert abs(lhs - r.q ** k * rhs) < 1e-6


def test_jacobi_cap():
    r = ring(3, 2, 1)
    chars = enumerate_characters(r)[:2]
    with pytest.raises(TooLarge):
        jacobi_brute(chars, r.one, cap=2)


def test_jacobi_ring_mismatch(z9, gr4_16):
    with pytest.raises(RingMismatch):
        jacobi_brute([enumerate_characters(z9)[0], enumerate_characters(gr4_16)[0]], z9.one)


def test_s_cardinality_values(z9):
    assert s_cardinality_qn(3, 2, 3, 1) == 54
    assert s_cardinality_qn(11, 2, 3, 1) == 13310
    assert s_cardinality(z9, 2, 1) == len(z9.units())


def test_tilde_matches_plain_when_tail_nontrivial(z9):
    chars = enumerate_characters(z9)
    nontrivial = [c for c in chars if not c.is_trivial]
    rng = random.Random(8)
    for _ in range(10):
        tup = [rng.choice(chars), rng.choice(nontrivial), rng.choice(nontrivial)]
        a = rng.choice(z9.elements())
        assert (
            abs(
                tilde_jacobi_brute(tup, 1, a).value
                - jacobi_brute(tup, a).value
            )
            < 1e-9
        )


def test_tilde_all_trivial_counts(z9):
    triv = enumerate_characters(z9)[0]
    sv = tilde_jacobi_brute([triv, triv, triv], 1, z9.one)
    assert abs(sv.value - 54) < 1e-9
    e = tilde_jacobi_classify([triv, triv, triv], 1, z9.one)
    assert e.integer == 54


def test_tilde_zero_cases(z9):
    chars = enumerate_characters(z9)
    triv = chars[0]
    nontriv = chars[1]
    # mixed free block
    e = tilde_jacobi_classify([nontriv, nontriv, triv], 1, z9.one)
    assert e.kind == "zero"
    assert abs(tilde_jacobi_brute([nontriv, nontriv, triv], 1, z9.one).value) < 1e-9
    # trivial free block with a nontrivial unit block
    e = tilde_jacobi_classify([nontriv, triv, triv], 2, z9.one)
    assert e.kind == "zero"
    assert abs(tilde_jacobi_brute([nontriv, triv, triv], 2, z9.one).value) < 1e-9


@pytest.mark.parametrize("key", [(3, 2, 1), (2, 2, 2)])
def test_tilde_random_cross_check(key):
    r = ring(*key)
    chars = enumerate_characters(r)
    rng = random.Random(9)
    for _ in range(100):
        m = rng.choice([2, 3])
        k = rng.randrange(1, m)
        tup = [rng.choice(chars) for _ in range(m)]
        a = rng.choice(r.elements())
        e = tilde_jacobi_classify(tup, k, a)
        b = tilde_jacobi_brute(tup, k, a)
        assert abs(abs(b.value) - e.magnitude(r.q)) < 1e-6
        if e.value is not None:
            assert abs(b.value - e.value) < 1e-6


def test_expected_gauss_field_case(f4):
    chars = enumerate_characters(f4)
    nontriv = chars[1]
    e = expected_gauss(nontriv, f4.one)
    assert e.kind == "power_of_q" and float(e.exponent) == 0.5
    assert abs(abs(gauss_sum(nontriv, f4.one).value) - 2.0) < 1e-9


def test_unclassified_expectation_never_agrees():
    sv = SumValue(0j, Expected.unclassified(), terms=6)
    assert not sv.agrees(3)
    assert not sv.agrees(3, tol=1e9)


# ---------------------------------------------------------------------------
# the root-count kernel against a per-term reference


def reference_domain_sum(chars, k, a):
    """Per-term sum over the solved domain, and the number of rows kept.

    x_1..x_min(k, m-1) run over units and the rest of the free block over
    all elements, in itertools.product order; x_m = a - sum by ring
    subtraction.  A row is kept when its first min(k, m) coordinates are
    units, and adds the product of the characters' extended values on it.
    """
    r, m = chars[0].ring, len(chars)
    head = min(k, m - 1)
    total, kept = 0j, 0
    for free in itertools.product(*([r.units()] * head + [r.elements()] * (m - 1 - head))):
        last = a
        for x in free:
            last = last - x
        row = free + (last,)
        if not all(x.is_unit for x in row[: min(k, m)]):
            continue
        kept += 1
        term = 1 + 0j
        for c, x in zip(chars, row):
            term *= c.extended_eval(x)
        total += term
    return total, kept


@pytest.mark.parametrize(
    "key, m", [((3, 2, 1), 2), ((2, 2, 2), 2), ((3, 2, 1), 3), ((2, 2, 2), 3), ((3, 3, 1), 4)]
)
def test_jacobi_brute_matches_reference(key, m):
    # GR(3^3, 3^3) with m = 4 has 18^3 = 5832 rows, more than one kernel block
    r = ring(*key)
    chars = enumerate_characters(r)
    rng = random.Random(11)
    for _ in range(3 if m == 4 else 8):
        tup = [rng.choice(chars) for _ in range(m)]
        a = rng.choice(r.elements())
        want, kept = reference_domain_sum(tup, m, a)
        sv = jacobi_brute(tup, a)
        assert sv.terms == r.unit_count ** (m - 1)
        assert abs(sv.value - want) <= term_tolerance(sv.terms)
        assert count_unit_solutions_brute(r, m, a) == kept


@pytest.mark.parametrize("key, m", [((3, 2, 1), 3), ((2, 2, 2), 3), ((3, 2, 1), 4)])
def test_tilde_brute_matches_reference(key, m):
    r = ring(*key)
    chars = enumerate_characters(r)
    rng = random.Random(12)
    for k in range(1, m):
        for _ in range(4):
            # one trivial character, so terms with a non-unit there survive
            tup = [rng.choice(chars) for _ in range(m - 1)] + [chars[0]]
            rng.shuffle(tup)
            a = rng.choice(r.elements())
            want, _ = reference_domain_sum(tup, k, a)
            sv = tilde_jacobi_brute(tup, k, a)
            assert sv.terms == r.unit_count ** k * r.element_count ** (m - 1 - k)
            assert abs(sv.value - want) <= term_tolerance(sv.terms)


@pytest.mark.parametrize("key", [(3, 2, 2), (2, 2, 2)])
def test_gauss_sum_matches_reference(key):
    # s = 2: the additive exponent runs through both trace weights tr(b xi^i)
    r = ring(*key)
    rng = random.Random(13)
    twists = canonical_twists(r) + [rng.choice(r.elements()) for _ in range(3)]
    for chi in rng.sample(enumerate_characters(r), 12):
        for b in twists:
            sv = gauss_sum(chi, b)
            assert abs(sv.value - brute_gauss(r, chi, b)) <= term_tolerance(sv.terms)


def test_brute_sums_independent_of_block_size(monkeypatch):
    """Exact root counts: the values are bit-identical for any block size."""

    def sums():
        z27, gr9 = build_ring(3, 3, 1), build_ring(3, 2, 2)  # fresh Gauss caches
        c27, c9 = enumerate_characters(z27), enumerate_characters(gr9)
        return [
            jacobi_brute([c27[1], c27[5], c27[7], c27[16]], z27.scalar(3)).value,
            tilde_jacobi_brute([c27[4], c27[0], c27[9]], 1, z27.scalar(2)).value,
            gauss_sum(c9[29], gr9.element((4, 7))).value,
            count_unit_solutions_brute(z27, 4, z27.scalar(9)),
        ]

    default = sums()
    monkeypatch.setattr(sums_module, "BLOCK", 7)
    assert sums() == default


# ---------------------------------------------------------------------------
# the batched kernel: one (C x M) count matrix per domain


def bits(values):
    """The IEEE bit patterns of complex values, as uint64 pairs."""
    return np.asarray(values, dtype=np.complex128).view(np.uint64)


def tuple_exponents(tuples):
    return np.array([[c.exponents for c in t] for t in tuples], dtype=np.int64)


@pytest.mark.parametrize("key", [(3, 2, 1), (2, 2, 2)])
@pytest.mark.parametrize("m", [2, 3])
def test_jacobi_brute_table_is_bitwise_jacobi_brute(key, m):
    r = ring(*key)
    tuples = list(itertools.product(enumerate_characters(r), repeat=m))
    X = tuple_exponents(tuples)
    for a in canonical_twists(r):
        table = sums_module.jacobi_brute_table(r, X, a)
        single = [jacobi_brute(list(t), a).value for t in tuples]
        assert table.dtype == np.complex128
        assert np.array_equal(bits(table), bits(single))


def test_jacobi_brute_table_is_bitwise_jacobi_brute_m4():
    # GR(3^3, 3^3), m = 4: 5832 rows per sum, two row blocks
    r = ring(3, 3, 1)
    chars = enumerate_characters(r)
    rng = random.Random(14)
    tuples = [[rng.choice(chars) for _ in range(4)] for _ in range(24)]
    X = tuple_exponents(tuples)
    for a in canonical_twists(r):
        table = sums_module.jacobi_brute_table(r, X, a)
        assert np.array_equal(bits(table), bits([jacobi_brute(t, a).value for t in tuples]))


def gauss_table_values(r, twists):
    """gauss_table at each twist on ring r, read back through gauss_sum."""
    chars = enumerate_characters(r)
    for b in twists:
        sums_module.gauss_table(r, b)
    n_cached = cached_gauss_count(r)
    values = [gauss_sum(chi, b).value for b in twists for chi in chars]
    assert cached_gauss_count(r) == n_cached  # all were hits
    return values


def cached_gauss_count(r):
    """Gauss values cached on ring r, over every twist."""
    return sum(len(v) for key, v in r._cache.items() if key[0] == "gauss")


def test_gauss_table_is_bitwise_gauss_value():
    def twists(r):  # a unit, an ideal element and zero
        return [r.element((2, 1)), r.scalar(3), r.zero]

    r = build_ring(3, 2, 2)  # fresh: no Gauss value cached
    table = gauss_table_values(r, twists(r))
    fresh = build_ring(3, 2, 2)
    chars = enumerate_characters(fresh)
    single = [gauss_sum(chi, b).value for b in twists(fresh) for chi in chars]
    assert np.array_equal(bits(table), bits(single))
    for (b, chi), value in zip(itertools.product(twists(r), enumerate_characters(r)), table):
        assert abs(value - brute_gauss(r, chi, b)) <= term_tolerance(r.unit_count)


def test_gauss_sum_fills_only_its_own_entry():
    r = build_ring(2, 2, 2)
    chi = enumerate_characters(r)[5]
    gauss_sum(chi, r.one)
    gauss = {key: list(v) for key, v in r._cache.items() if key[0] == "gauss"}
    assert gauss == {("gauss", r.one.coords): [chi.index]}


@pytest.mark.parametrize("key, m, k", [((3, 2, 1), 3, 1), ((2, 2, 2), 3, 2), ((3, 2, 1), 4, 2)])
def test_root_counts_mixed_domain(key, m, k):
    """Trivial and nontrivial characters in one batch over (R*)^k x R^(m-k)."""
    r = ring(*key)
    chars = enumerate_characters(r)
    rng = random.Random(15)
    tuples = [[chars[0]] * m, [chars[1]] * m]
    tuples += [[rng.choice(chars[:3]) for _ in range(m)] for _ in range(30)]
    X = tuple_exponents(tuples)
    a = r.element((1,) * r.s)
    total = r.unit_count ** k * r.element_count ** (m - 1 - k)
    counts = sums_module._root_counts(r, X, k, a)
    assert counts.shape[0] == len(tuples) and counts.dtype == np.int64
    assert counts[0].sum() == total  # the all-trivial tuple counts every row
    values = sums_module._complex_rows(counts)
    single = [tilde_jacobi_brute(t, k, a).value for t in tuples]
    assert np.array_equal(bits(values), bits(single))
    for t, value in zip(tuples[:6], values):
        want, want_kept = reference_domain_sum(t, k, a)
        assert abs(value - want) <= term_tolerance(total)
        assert want_kept == total


def test_tables_independent_of_block_sizes(monkeypatch):
    def tables():
        z27, gr9 = build_ring(3, 3, 1), build_ring(3, 2, 2)
        c27 = enumerate_characters(z27)
        X = tuple_exponents(itertools.product(c27[:5], repeat=3))
        tilde = sums_module._root_counts(z27, X, 1, z27.one)
        twists = [gr9.element((4, 7)), gr9.scalar(3)]
        return [
            sums_module.jacobi_brute_table(z27, X, z27.scalar(3)),
            sums_module._complex_rows(tilde),
            gauss_table_values(gr9, twists),
        ]

    default = tables()
    monkeypatch.setattr(sums_module, "BLOCK", 7)
    monkeypatch.setattr(sums_module, "CHAR_BLOCK", 3)
    for got, want in zip(tables(), default):
        assert np.array_equal(bits(got), bits(want))


def test_jacobi_brute_table_cap_before_allocation(monkeypatch):
    r = ring(2, 2, 2)
    X = np.zeros((2, 3, len(enumerate_characters(r)[0].exponents)), dtype=np.int64)

    def refuse(*args, **kwargs):
        raise AssertionError("the domain was enumerated")

    monkeypatch.setattr(sums_module, "_root_counts", refuse)
    monkeypatch.setattr(sums_module, "solved_domain", refuse)
    with pytest.raises(TooLarge):
        sums_module.jacobi_brute_table(r, X, r.one, cap=r.unit_count ** 2 - 1)
    with pytest.raises(TooLarge):  # 12^19 terms per sum
        sums_module.jacobi_brute_table(r, np.zeros((1, 20, X.shape[2]), dtype=np.int64), r.one)


# ---------------------------------------------------------------------------
# the table kernel against the per-term references

# n = 1..4, p = 2, 3, 5, s <= 3
KERNEL_RINGS = [
    (2, 1, 3), (2, 2, 1), (2, 3, 1), (2, 4, 1), (2, 2, 2), (3, 1, 2),
    (3, 2, 1), (3, 3, 1), (3, 4, 1), (5, 1, 1), (5, 2, 1), (5, 1, 2),
]
KERNEL_TERMS = 500  # per-term reference work per sum


def kernel_cases(r):
    """(m, k) for m = 2..5 and k = 1..m (k = m: a Jacobi sum) within KERNEL_TERMS terms."""
    cases = []
    for m in range(2, 6):
        for k in range(1, m + 1):
            units = min(k, m - 1)
            if r.unit_count ** units * r.element_count ** (m - 1 - units) <= KERNEL_TERMS:
                cases.append((m, k))
    return cases


def test_kernel_cases_cover_every_m_and_k():
    covered = {case for key in KERNEL_RINGS for case in kernel_cases(ring(*key))}
    assert covered == {(m, k) for m in range(2, 6) for k in range(1, m + 1)}
    assert {key[1] for key in KERNEL_RINGS} == {1, 2, 3, 4}
    assert {key[0] for key in KERNEL_RINGS} == {2, 3, 5}


def kernel_twists(r, rng):
    """Zero, an element of the maximal ideal (zero in a field) and a unit."""
    ideal = r.p_power(1) * rng.choice(r.units()) if r.n > 1 else r.zero
    return {"zero": r.zero, "ideal": ideal, "unit": rng.choice(r.units())}


def kernel_tuples(r, m, rng):
    """Three exponent tuples: all trivial, all of the top level, and a random mix.

    Every character of the top level is nontrivial on the units near 1 (on
    1 + pR when n > 1), and every nontrivial one dies on the maximal ideal.
    """
    chars = enumerate_characters(r)
    top = [c for c in chars if c.level == max(x.level for x in chars)]
    rows = [[chars[0]] * m, [rng.choice(top) for _ in range(m)]]
    rows.append([rng.choice(chars[:1] + top + chars) for _ in range(m)])
    return rows


@pytest.mark.parametrize("sizes", [None, (3, 2)])
@pytest.mark.parametrize("key", KERNEL_RINGS)
def test_kernel_matches_per_term_references(monkeypatch, key, sizes):
    """Jacobi (k = m) and mixed-domain (every k < m) sums for m = 2..5, and Gauss sums.

    sizes=(BLOCK, CHAR_BLOCK) = (3, 2): a chunk holds one tuple (|R| >= 4), so
    every call has several chunks, and the broadcast coordinate (at least 2
    units) runs over several blocks of at most 3 terms; the exact counts keep
    every value bit-identical to the default sizes.
    """
    r = ring(*key)
    rng = random.Random(repr(key))
    names = itertools.cycle(["zero", "ideal", "unit"])
    cases = [(m, k, name) for (m, k), name in zip(kernel_cases(r), names)]
    twists = kernel_twists(r, rng)
    chars = enumerate_characters(r)
    gauss = rng.sample(chars, min(4, len(chars)))

    def values():
        fresh = build_ring(*key)  # no cached Gauss value
        out = []
        for m, k, name in cases:
            X = tuple_exponents(kernel_tuples(r, m, random.Random(m * 10 + k)))
            a = fresh.element(twists[name].coords)
            if k == m:
                out.append(sums_module.jacobi_brute_table(fresh, X, a))
            else:
                out.append(sums_module.tilde_jacobi_brute_table(fresh, X, k, a))
        for b in twists.values():
            b = fresh.element(b.coords)
            out.append([gauss_sum(MultCharacter(fresh, c.exponents), b).value for c in gauss])
        return out

    if sizes is not None:
        default = values()
        monkeypatch.setattr(sums_module, "BLOCK", sizes[0])
        monkeypatch.setattr(sums_module, "CHAR_BLOCK", sizes[1])
    got = values()
    if sizes is not None:
        for g, d in zip(got, default):
            assert np.array_equal(bits(g), bits(d))
        return
    for (m, k, name), table in zip(cases, got):
        for tup, value in zip(kernel_tuples(r, m, random.Random(m * 10 + k)), table):
            want, _ = reference_domain_sum(tup, k, twists[name])
            assert abs(value - want) <= term_tolerance(KERNEL_TERMS), (m, k, name)
    for b, row in zip(twists.values(), got[len(cases):]):
        for chi, value in zip(gauss, row):
            assert abs(value - brute_gauss(r, chi, b)) <= term_tolerance(r.unit_count)


def test_kernel_reduces_exponents_mod_the_generator_orders(z9):
    """A trivial character written with exponents equal to the generator orders is trivial.

    Over Z/9 with m = 3, k = 1 and a = 1 the all-trivial sum counts S: 54
    tuples (6 units times 9 elements); an unreduced tuple read as nontrivial
    was killed on the non-units and gave 27.
    """
    orders = decompose_unit_group(z9).orders
    X = np.array([[orders] * 3, [(0,) * len(orders)] * 3], dtype=np.int64)
    tilde = sums_module.tilde_jacobi_brute_table(z9, X, 1, z9.one)
    assert tilde.tolist() == [54, 54] == [s_cardinality(z9, 3, 1)] * 2
    assert sums_module.tilde_jacobi_classify_table(z9, X[:1], 1, z9.one)[0].integer == 54
    for a in canonical_twists(z9):
        jac = sums_module.jacobi_brute_table(z9, X, a)
        assert np.array_equal(bits(jac[:1]), bits(jac[1:]))
    gauss = sums_module._root_counts(z9, X[:, :2], 1, z9.zero, z9.one)  # the Gauss form
    assert np.array_equal(gauss[0], gauss[1])


def test_kernel_temporaries_stay_within_the_stated_bound(monkeypatch):
    """Peak traced memory of one kernel call against its docstring's bound.

    Besides the (C x M) result, the call holds the reduced copy of X and its
    (C x m) kill mask, and at most (m + 8) max(|R|, BLOCK CHAR_BLOCK) +
    2 chunk m M int64 entries of temporaries; 16 kB more covers the
    interpreter's own objects.  Without blocking the 120 x 1728 terms alone
    would take 1.6 MB.
    """
    monkeypatch.setattr(sums_module, "BLOCK", 256)
    monkeypatch.setattr(sums_module, "CHAR_BLOCK", 4)
    r = ring(2, 2, 2)  # |R| = 16, 12 units, M = L = 6
    X = sampled_tuples(r, 4, 120, 21)
    M, size = decompose_unit_group(r).lcm_order, r.element_count
    chunk = max(1, 256 * 4 // size)
    bound = (4 + 8) * max(size, 256 * 4) + 2 * chunk * 4 * M
    sums_module._root_counts(r, X, 4, r.one)  # tables built, caches warm
    tracemalloc.start()
    try:
        counts = sums_module._root_counts(r, X, 4, r.one)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() > 0
    held = counts.nbytes + X.nbytes + X.shape[0] * X.shape[1]
    assert peak <= held + 8 * bound + 16_000, (peak, held, 8 * bound)

    # the compare sends every killed term to one bin: no bincount grows past chunk m M + 1
    lengths = []

    def bincount(x, *args, **kwargs):
        out = real(x, *args, **kwargs)
        lengths.append(len(out))
        return out

    real = np.bincount
    monkeypatch.setattr(np, "bincount", bincount)
    assert np.array_equal(sums_module._root_counts(r, X, 4, r.one), counts)
    assert lengths and max(lengths) == chunk * 4 * M + 1


# ---------------------------------------------------------------------------
# the packed-difference solve and the count-to-complex conversion, each
# against the loop it replaced

# s = 1 for p = 2, 3, 5, 7; s = 3 and 4 (two digit groups at s = 4 and 6);
# n up to 5; p = 2 with s > 1
SOLVE_RINGS = [
    (2, 1, 1), (3, 1, 1), (5, 1, 1), (7, 1, 1), (2, 5, 1), (3, 4, 1), (5, 2, 1),
    (2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 1, 3), (2, 2, 3), (3, 1, 3),
    (2, 1, 4), (3, 1, 4), (2, 2, 4), (2, 1, 6),
]


def digit_solved_blocks(ring, m, k, a, budget):
    """_solved_blocks with x_m solved digit by digit on the coordinates: the oracle."""
    units, coords, pn = min(k, m - 1), ring.coord_array(), ring.pn
    *prefix, last = [ring.unit_indices()] * units + [np.arange(len(coords))] * (m - 1 - units)
    sizes, step = [len(d) for d in prefix], min(len(last), budget)
    total, rows = int(np.prod(sizes)), max(1, budget // step)
    for p0 in range(0, total, rows):
        at = np.unravel_index(np.arange(p0, min(p0 + rows, total)), sizes) if sizes else ()
        xs = [d.take(i) for d, i in zip(prefix, at)]
        rest = (np.array([a.coords]) - sum(coords.take(x, axis=0) for x in xs)) % pn
        for d0 in range(0, len(last), step):
            y = last[d0 : d0 + step]
            yc = coords.take(y, axis=0).T
            index = (rest[:, 0, None] - yc[0]) % pn
            for j in range(1, ring.s):
                index *= pn
                index += (rest[:, j, None] - yc[j]) % pn
            yield xs, y, index


def solve_twists(r, rng):
    """0, 1, p^k times a unit for every 1 <= k < n, and a random element."""
    twists = [r.zero, r.one]
    twists += [r.p_power(k) * rng.choice(r.units()) for k in range(1, r.n)]
    return twists + [rng.choice(r.elements())]


@pytest.mark.parametrize("key", SOLVE_RINGS)
def test_packed_solve_matches_the_digit_solve(key):
    r = ring(*key)
    rng = random.Random(repr(key))
    x = np.arange(r.element_count)
    want = r.index_of((r.coord_array()[:, None, :] - r.coord_array()[None, :, :]) % r.pn)
    assert np.array_equal(sums_module._minus(sums_module._solve_codes(r), x[:, None], x), want)
    for m in (2, 3, 4):
        for k in range(1, m + 1):
            units = min(k, m - 1)
            if r.unit_count ** units * r.element_count ** (m - 1 - units) > 20_000:
                continue
            for a in solve_twists(r, rng):
                for budget in (5, 4096):
                    got = list(sums_module._solved_blocks(r, m, k, a, budget))
                    oracle = list(digit_solved_blocks(r, m, k, a, budget))
                    assert len(got) == len(oracle)
                    for (xs, y, index), (oxs, oy, oindex) in zip(got, oracle):
                        assert len(xs) == len(oxs) and all(map(np.array_equal, xs, oxs))
                        assert np.array_equal(y, oy) and np.array_equal(index, oindex)


@pytest.mark.parametrize("key", [(2, 1, 1), (7, 1, 1), (2, 5, 1), (2, 2, 2), (3, 1, 3), (2, 1, 4)])
def test_solved_domain_matches_ring_subtraction(key):
    r = ring(*key)
    rng = random.Random(repr(key))
    els = r.elements()
    for m, k in [(2, 1), (2, 2), (3, 1), (3, 3)]:
        for a in solve_twists(r, rng):
            domain = sums_module.solved_domain(r, m, k, a)
            head = min(k, m - 1)
            free = itertools.product(*([r.units()] * head + [els] * (m - 1 - head)))
            want = []
            for row in free:
                last = a
                for x in row:
                    last = last - x
                want.append([r._index(x.coords) for x in row + (last,)])
            assert domain.tolist() == want


def test_solve_tables_stay_within_eight_ring_sizes():
    for key in SOLVE_RINGS:
        r = ring(*key)
        groups = sums_module._solve_codes(r)
        assert len(groups) == (1 if r.s <= 3 else 2), key
        assert all(len(table) <= 8 * r.element_count for _, _, table in groups), key
        assert sums_module._solve_codes(r) is groups  # cached per ring


def loop_complex_rows(counts):
    """sum_j counts[c, j] exp(2 pi i j / M) by a Python loop over the nonzero bins: the oracle."""
    roots = root_table(counts.shape[1])
    values = [0j] * len(counts)
    rows, cols = np.nonzero(counts)
    for c, j, n in zip(rows.tolist(), cols.tolist(), counts[rows, cols].tolist()):
        values[c] += n * roots[j]
    return values


def test_complex_rows_is_bitwise_the_bin_loop():
    rng = np.random.default_rng(18)
    cases = [np.zeros((0, 5), dtype=np.int64), np.array([[5], [0], [1]])]  # C = 0, M = 1
    for M in (2, 3, 4, 6, 7, 12, 120, 600):
        cases.append(np.zeros((2, M), dtype=np.int64))  # zero rows
        cases.append(np.eye(M, dtype=np.int64) * rng.integers(1, 1000, M))  # single bins
        sparse = rng.integers(0, 10 ** 6, (40, M)) * (rng.random((40, M)) < 0.1)
        cases.append(np.vstack([sparse, rng.integers(0, 10 ** 6, (8, M))]))
    # rows that cancel: n (1 - 1) at M = 2 and 6 is exactly 0; n (w^2 + w^5) at M = 6
    # is 0 up to rounding
    cases.append(np.array([[7, 7], [0, 0]]))
    cases.append(np.array([[9, 0, 0, 9, 0, 0], [0, 0, 4, 0, 0, 4]]))
    for counts in cases:
        counts = np.asarray(counts, dtype=np.int64)
        got = sums_module._complex_rows(counts)
        assert isinstance(got, list) and len(got) == len(counts)
        assert np.array_equal(bits(got), bits(loop_complex_rows(counts)))
    for exact_zero in ([[7, 7]], [[9, 0, 0, 9, 0, 0]], [[0, 0, 0]]):
        assert bits(sums_module._complex_rows(np.array(exact_zero))).tolist() == [0, 0]  # +0j


def brute_value_digest():
    """sha256[:16] over the bits of fixed jacobi_brute_table, tilde_jacobi_brute_table
    and gauss_table values: per ring, 30 seeded tuples at each canonical twist, a
    unit and a random element, every k < m, and every character's Gauss value."""
    h = hashlib.sha256()
    for key, m in [
        ((2, 2, 2), 3), ((3, 2, 1), 3), ((2, 3, 1), 4), ((5, 1, 2), 2), ((2, 2, 3), 2),
        ((7, 1, 1), 3), ((2, 1, 4), 3), ((3, 3, 1), 4), ((2, 4, 2), 2),
    ]:
        r = build_ring(*key)  # fresh: no Gauss value cached
        chars = enumerate_characters(r)
        rng = random.Random(m)
        X = tuple_exponents([[rng.choice(chars) for _ in range(m)] for _ in range(30)])
        rng = random.Random(repr(key))
        for a in canonical_twists(r) + [rng.choice(r.units()), rng.choice(r.elements())]:
            h.update(bits(sums_module.jacobi_brute_table(r, X, a)).tobytes())
            for k in range(1, m):
                h.update(bits(sums_module.tilde_jacobi_brute_table(r, X, k, a)).tobytes())
            sums_module.gauss_table(r, a)
            h.update(bits([gauss_sum(chi, a).value for chi in chars]).tobytes())
    return h.hexdigest()[:16]


def test_brute_values_are_pinned():
    """Measured on the digit-by-digit solve and the per-bin loop that the packed
    solve and the cumsum replaced; a change on purpose updates it and says so."""
    assert brute_value_digest() == "40b0a169ac7e9835"


def test_gauss_quotient_vanishing_denominator_under_python_O():
    # G(chi, lambda_0) = 0 for nontrivial chi, so the quotient has no value
    code = (
        "from galois_sums import BrokenInvariant, build_ring, enumerate_characters, gauss_sum\n"
        "from galois_sums.sums import _gauss_quotient\n"
        "z9 = build_ring(3, 2, 1)\n"
        "chi = enumerate_characters(z9)[1]\n"
        "g = gauss_sum(chi, z9.one).value\n"
        "try:\n"
        "    _gauss_quotient([g, g], gauss_sum(chi * chi, z9.zero).value, 1)\n"
        "except BrokenInvariant:\n"
        "    print('BrokenInvariant')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "BrokenInvariant"


# ---------------------------------------------------------------------------
# the closed form over tables: one dispatch, C tuples at a time

SMALL_RINGS = [(3, 2, 1), (2, 2, 2)]


def expected_fields(e):
    """Every field of an expectation, the value as IEEE hex digits."""
    value = None if e.value is None else (e.value.real.hex(), e.value.imag.hex())
    return e.kind, e.lemma, e.exponent, e.integer, value


def all_tuples(r, m):
    return tuple_exponents(itertools.product(enumerate_characters(r), repeat=m))


def sampled_tuples(r, m, count, seed):
    chars = enumerate_characters(r)
    rng = random.Random(seed)
    return tuple_exponents([[rng.choice(chars) for _ in range(m)] for _ in range(count)])


def table_cases():
    """(ring, X) inputs of the table tests: every pair and triple of both small
    rings, an m = 4 sample over GR(3^3, 3^3), and every pair over the field F_4."""
    cases = [(ring(*key), all_tuples(ring(*key), m)) for key in SMALL_RINGS for m in (2, 3)]
    cases.append((ring(3, 3, 1), sampled_tuples(ring(3, 3, 1), 4, 60, 16)))
    cases.append((ring(2, 1, 2), all_tuples(ring(2, 1, 2), 2)))
    return cases


def mismatch_tuples(z27):
    """chi_1 primitive, chi_2 = conj(chi_1) psi with psi of level 1, over Z/27."""
    chars = enumerate_characters(z27)
    prim = [c for c in chars if c.is_primitive]
    level1 = [c for c in chars if c.level == 1]
    return tuple_exponents([[c, c.inverse() * psi] for c in prim for psi in level1])


@pytest.mark.parametrize("case", range(6))
def test_expected_table_is_bitwise_single_calls(case):
    r, X = table_cases()[case]
    for a in canonical_twists(r):
        table = sums_module.jacobi_expected_table(r, X, a)
        assert len(table) == len(X)
        for row, e in zip(X.tolist(), table):
            single = jacobi_expected([MultCharacter(r, exps) for exps in row], a)
            assert expected_fields(e) == expected_fields(single)


def digest_of(expectations):
    """sha256[:16] over one line per expectation: every field, values as IEEE hex."""
    lines = []
    for e in expectations:
        kind, lemma, exponent, integer, value = expected_fields(e)
        v = "None" if value is None else ",".join(value)
        lines.append(f"{kind}|{lemma}|{exponent}|{integer}|{v}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def twist_major(r, X):
    """The expectations of X at every canonical twist: tuple-major, twist-minor."""
    tables = [sums_module.jacobi_expected_table(r, X, a) for a in canonical_twists(r)]
    return [e for row in zip(*tables) for e in row]


def expectation_digest(m):
    """The digest of every expectation of jacobi-m2 (m = 2) or jacobi-m3 (m = 3),
    in the suite's order: ring, tuple in itertools.product order, canonical twist."""
    return digest_of(e for key in SMALL_RINGS for e in twist_major(ring(*key), all_tuples(ring(*key), m)))


@pytest.mark.parametrize("m, digest", [(2, "a614dca08d4fa6ba"), (3, "e1d89d2ab63d4db0")])
def test_jacobi_suite_expectations_are_pinned(m, digest):
    """Measured on the scalar dispatch that the table replaced; a change on
    purpose updates these digests and says so."""
    assert expectation_digest(m) == digest


def every_tuple(r, m):
    """Every m-tuple of r's characters in itertools.product order, as exponents."""
    return verify_tuples(character_exponents(r), m)


def tilde_draw_expectations(seed=1, trials=500):
    """tilde_jacobi_classify_table over the draws of verify's tilde-cases suite at
    this seed, one table per (ring, m, k, a) domain, in draw order."""
    rng = random.Random(seed)
    rings = [ring(*key) for key in SMALL_RINGS]
    char_lists = {r.key: [tuple(e) for e in character_exponents(r).tolist()] for r in rings}
    draws = []
    for _ in range(trials):
        r = rng.choice(rings)
        m = rng.choice([2, 3])
        k = rng.randrange(1, m)
        tup = [rng.choice(char_lists[r.key]) for _ in range(m)]
        draws.append((r, k, tup, rng.choice(r.elements())))
    domains = {}
    for i, (r, k, tup, a) in enumerate(draws):
        domains.setdefault((r.key, len(tup), k, a.coords), []).append(i)
    out = [None] * trials
    for trial in domains.values():
        r, k, _, a = draws[trial[0]]
        X = np.array([draws[i][2] for i in trial])
        for i, e in zip(trial, sums_module.tilde_jacobi_classify_table(r, X, k, a)):
            out[i] = e
    return out


DISPATCH_CASES = {
    "GR(3^3,3^3) m=2": lambda: twist_major(ring(3, 3, 1), every_tuple(ring(3, 3, 1), 2)),
    "GR(3^3,3^3) m=3": lambda: twist_major(ring(3, 3, 1), every_tuple(ring(3, 3, 1), 3)),
    "GR(2^3,2^6) m=2": lambda: twist_major(ring(2, 3, 2), every_tuple(ring(2, 3, 2), 2)),
    "GR(2^3,2^6) m=3": lambda: twist_major(ring(2, 3, 2), every_tuple(ring(2, 3, 2), 3)),
    "Z/27 level mismatch": lambda: twist_major(ring(3, 3, 1), mismatch_tuples(ring(3, 3, 1))),
    "m=4 sample": lambda: twist_major(*table_cases()[4]),
    "tilde-cases draws": tilde_draw_expectations,
}


@pytest.mark.parametrize(
    "case, count, digest",
    [
        ("GR(3^3,3^3) m=2", 1296, "4a5a062b7489c425"),
        ("GR(3^3,3^3) m=3", 23328, "750a3c19dc6a6bf1"),
        ("GR(2^3,2^6) m=2", 9216, "5e7c0d3f02654030"),
        ("GR(2^3,2^6) m=3", 442368, "0863764b6ec1607b"),
        ("Z/27 level mismatch", 48, "811617bd04cdc906"),
        ("m=4 sample", 240, "4404a670e5151324"),
        ("tilde-cases draws", 500, "8ea8a4b221510eef"),
    ],
)
def test_dispatch_expectations_are_pinned(case, count, digest):
    """Every pair and triple over an n = 3 ring of each p at every canonical twist,
    the Z/27 level-mismatch pairs, the m = 4 sample and the mixed-domain draws.
    Measured on the per-row law calls that the class table replaced; a change on
    purpose updates these digests and says so."""
    expectations = DISPATCH_CASES[case]()
    assert len(expectations) == count
    assert digest_of(expectations) == digest


def test_level_mismatch_zero_fires_and_brute_force_agrees(z27):
    X = mismatch_tuples(z27)
    p = z27.p_power(1)
    table = sums_module.jacobi_expected_table(z27, X, p)
    assert {e.lemma for e in table} == {"level-mismatch-zero"}
    brute = sums_module.jacobi_brute_table(z27, X, p)
    assert np.abs(brute).max() <= term_tolerance(z27.unit_count)
    for u in (z27.one, z27.scalar(2), z27.scalar(5)):
        for row in X.tolist()[::5]:
            sv = jacobi([MultCharacter(z27, e) for e in row], p * u)
            assert sv.expected.lemma == "level-mismatch-zero" and sv.agrees(z27.q)


def test_every_dispatch_lemma_fires(z27):
    """The lemmas the table returns over the table-test inputs and the Z/27
    level-mismatch pairs include every lemma string of the dispatch."""
    source = "".join(
        inspect.getsource(f)
        for f in (sums_module.jacobi_expected_table, sums_module._jacobi_class)
    )
    lemmas = set(re.findall(r'"([a-z]+(?:-[a-z]+)+)"', source))
    assert len(lemmas) == 16
    fired = set()
    for r, X in table_cases() + [(z27, mismatch_tuples(z27))]:
        for a in canonical_twists(r):
            fired |= {e.lemma for e in sums_module.jacobi_expected_table(r, X, a)}
    assert lemmas <= fired, sorted(lemmas - fired)


@pytest.mark.parametrize("key", SMALL_RINGS)
def test_mixed_domain_tables_are_bitwise_single_calls(key):
    r = ring(*key)
    rng = random.Random(17)
    for m, k in [(2, 1), (3, 1), (3, 2)]:
        X = sampled_tuples(r, m, 40, m * 10 + k)
        X[:3] = 0  # all trivial: the free-block count
        for a in rng.sample(r.elements(), 4) + [r.zero]:
            tuples = [[MultCharacter(r, exps) for exps in row] for row in X.tolist()]
            brute = sums_module.tilde_jacobi_brute_table(r, X, k, a)
            single = [tilde_jacobi_brute(t, k, a).value for t in tuples]
            assert np.array_equal(bits(brute), bits(single))
            classified = sums_module.tilde_jacobi_classify_table(r, X, k, a)
            for t, e in zip(tuples, classified):
                assert expected_fields(e) == expected_fields(tilde_jacobi_classify(t, k, a))


def test_expected_table_rejects_bad_input(z9):
    X = all_tuples(z9, 2)
    with pytest.raises(ValueError, match="not canonical"):
        sums_module.jacobi_expected_table(z9, X, z9.scalar(2))
    with pytest.raises(ValueError, match="two characters"):
        sums_module.jacobi_expected_table(z9, X[:, :1], z9.one)
    with pytest.raises(RingMismatch):
        sums_module.jacobi_expected_table(z9, X, ring(2, 2, 2).one)
    assert sums_module.jacobi_expected_table(z9, X[:0], z9.one) == []
    with pytest.raises(ValueError, match="r = 2 entries"):
        sums_module.jacobi_expected_table(z9, np.zeros((3, 2, 3), dtype=np.int64), z9.one)


def assert_rejects_bad_input(z9, table):
    """table(X, a) refuses fewer than two characters, a width other than r and a foreign twist."""
    X = all_tuples(z9, 2)
    with pytest.raises(ValueError, match="two characters"):
        table(X[:, :1], z9.one)
    with pytest.raises(ValueError, match="r = 2 entries"):
        table(np.zeros((3, 2, 3), dtype=np.int64), z9.one)
    with pytest.raises(ValueError, match="r = 2 entries"):
        table(np.zeros((3, 2, 1), dtype=np.int64), z9.one)
    with pytest.raises(RingMismatch):
        table(X, ring(2, 2, 2).one)


@pytest.mark.parametrize("k", [None, 1])  # None: jacobi_brute_table, else the mixed domain
def test_brute_tables_reject_bad_input(z9, k):
    def table(X, a=z9.one):
        if k is None:
            return sums_module.jacobi_brute_table(z9, X, a)
        return sums_module.tilde_jacobi_brute_table(z9, X, k, a)

    X = all_tuples(z9, 2)
    empty = table(X[:0])
    assert isinstance(empty, np.ndarray) and empty.shape == (0,) and empty.dtype == np.complex128
    assert table([]).shape == (0,)
    assert_rejects_bad_input(z9, table)


def test_classify_table_rejects_bad_input_as_the_brute_tables_do(z9):
    def table(X, a=z9.one):
        return sums_module.tilde_jacobi_classify_table(z9, X, 1, a)

    assert table(all_tuples(z9, 2)[:0]) == [] and table([]) == []
    assert_rejects_bad_input(z9, table)
    with pytest.raises(ValueError, match="r = 2 entries"):
        table(np.ones((1, 3, 1)))  # was broadcast and classified


def test_canonical_twists_are_cached_copies(z27):
    twists = canonical_twists(z27)
    assert [t.coords for t in twists] == [(0,), (1,), (3,), (9,)]
    twists.append(z27.scalar(2))
    assert len(canonical_twists(z27)) == 4
    assert all(sums_module.is_canonical(t) for t in canonical_twists(z27))
    assert not sums_module.is_canonical(z27.scalar(2))
    assert not sums_module.is_canonical(z27.scalar(6))
