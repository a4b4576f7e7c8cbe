from __future__ import annotations

import itertools
import random
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest

from galois_sums import (
    BadLevel,
    GaloisRing,
    InvalidModulus,
    NotAUnit,
    RingMismatch,
    SizeLimit,
    TooLarge,
    build_ring,
    find_basic_primitive_poly,
)
from galois_sums.ring import MR_BOUND, _is_primitive

from conftest import ideal, ring, teich_digits_loop, valuation_gcd


def poly_mul_plain(a, b, mod):
    """Independent schoolbook polynomial product used as an oracle."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % mod
    return out


def test_params_validation():
    for p in (4, 91, 1, 0, -3):
        with pytest.raises(ValueError, match="prime"):
            build_ring(p, 1, 1)
    # the modulus search makes the same check with no element cap, by the
    # Miller-Rabin of is_prime_power: 3215031751 is a strong pseudoprime to the
    # bases 2, 3, 5 and 7, and from MR_BOUND on no test is made
    with pytest.raises(ValueError, match="prime"):
        find_basic_primitive_poly(3215031751, 1, 1)
    with pytest.raises(TooLarge, match="bound"):
        find_basic_primitive_poly(MR_BOUND + 2, 1, 1)
    with pytest.raises(ValueError, match="must be an integer"):
        find_basic_primitive_poly(3, 2, 1.0)
    with pytest.raises(ValueError, match="n must be"):
        build_ring(3, 0, 1)
    with pytest.raises(ValueError, match="s must be"):
        build_ring(3, 2, 0)
    # p, n and s go through operator.index: a bool, a float or a string is refused
    for shape in [(3, True, 1), (True, 2, 1), (3, 2, False), (3.0, 2, 1), (3, 2.0, 1), (3, 2, "1")]:
        with pytest.raises(ValueError, match="must be an integer"):
            build_ring(*shape)
    with pytest.raises(ValueError, match="must be an integer"):
        GaloisRing.from_json({"p": 3, "n": True, "s": 1, "modulus": [1, 1]})
    # numpy integers pass, and the ring holds Python ints
    r = build_ring(np.int64(3), np.int32(2), np.uint8(1), modulus=np.array([1, 1]))
    assert r == build_ring(3, 2, 1) and repr(r) == "GR(3^2, 3^2; x + 1)"
    assert all(type(v) is int for v in (r.p, r.n, r.s, r.q, r.pn, *r.modulus))
    # coordinates too: 1.5 is refused, not truncated to 1
    for coords in [(1.5,), (True,), (1.0,), ("1",)]:
        with pytest.raises(ValueError, match="coordinate must be an integer"):
            r.element(coords)
    assert r.element((np.int64(10),)).coords == (1,)


def test_modulus_search_quadratic_over_z4():
    h = find_basic_primitive_poly(2, 2, 2)
    assert h == (1, 1, 1)
    # oracle: (x - 1)(x^2 + x + 1) = x^3 - 1 over Z_4
    prod = poly_mul_plain([-1 % 4, 1], list(h), 4)
    assert prod == [3, 0, 0, 1]  # x^3 - 1 mod 4


def test_modulus_search_degenerate_degree_one():
    h = find_basic_primitive_poly(3, 2, 1)
    # x - g with g the Teichmuller generator of order 2 in Z_9
    g = (-h[0]) % 9
    assert g == 8
    assert pow(g, 2, 9) == 1 and g != 1
    assert h == (1, 1)


def test_modulus_search_primitive_cubic_over_f2():
    h = find_basic_primitive_poly(2, 1, 3)
    assert h == (1, 1, 0, 1)  # x^3 + x + 1
    # oracle: the class of x has order 7 in F_2[x]/(h)
    f2 = build_ring(2, 1, 3)
    x = f2.xi
    powers = {(x ** k).coords for k in range(1, 8)}
    assert len(powers) == 7 and (x ** 7) == f2.one


def test_build_ring_teichmuller_set(z9):
    assert [t.coords for t in z9.teich_set] == [(0,), (1,), (8,)]
    # oracle: exhaustively solve t^3 = t in Z_9
    sols = {(t,) for t in range(9) if pow(t, 3, 9) == t % 9}
    assert {t.coords for t in z9.teich_set} == sols


def test_build_ring_sizes(gr4_16):
    assert gr4_16.element_count == 16
    assert len(gr4_16.units()) == 12


def test_build_degenerate_field():
    f4 = build_ring(2, 1, 2)
    assert f4.element_count == 4
    assert len(f4.units()) == 3


def test_build_rejects_bad_modulus():
    with pytest.raises(InvalidModulus):
        build_ring(2, 2, 2, modulus=(1, 0, 1))  # x^2 + 1 is not primitive
    with pytest.raises(InvalidModulus):
        build_ring(2, 2, 2, modulus=[1, 1, 2])  # not monic


@pytest.mark.parametrize(
    "key,coeffs,match",
    [
        ((2, 2, 2), (1, 1, 0, 1), "degree"),
        ((2, 2, 2), (5, 1, 1), "reduced"),  # 5 is not a residue mod 4
        ((2, 1, 2), (1, 0, 1), "primitive"),  # x^2 + 1 = (x + 1)^2 over F_2
        ((3, 1, 2), (1, 0, 1), "primitive"),  # irreducible over F_3; x has order 4, not 8
        ((2, 1, 4), (1, 1, 1, 1, 1), "primitive"),  # irreducible over F_2; x has order 5
        ((7, 1, 1), (5, 1), "primitive"),  # x - 2: 2 has order 3 mod 7, not 6
        ((2, 2, 2), (3, 1, 1), "divide"),  # lifts the primitive x^2 + x + 1, not as (1, 1, 1)
        ((3, 2, 1), (7, 1), "divide"),  # x - 2: 2 generates F_3*, but 2^2 = 4 mod 9
        ((3, 2, 1), (1.0, 1.0), "integers"),  # x + 1 with float coefficients
        ((3, 2, 1), (1, True), "integers"),  # monic only as a bool
        ((3, 2, 1), ("1", "1"), "integers"),
        ((3, 2, 1), 5, "integers"),  # not a sequence
    ],
)
def test_build_rejects_each_bad_modulus(key, coeffs, match):
    with pytest.raises(InvalidModulus, match=match):
        build_ring(*key, modulus=coeffs)


def poly_rem_plain(num, den, p):
    """num mod the monic den over F_p by schoolbook long division, deg(den) coefficients."""
    rem = [c % p for c in num]
    d = len(den) - 1
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        for j, dj in enumerate(den):
            rem[i - d + j] = (rem[i - d + j] - c * dj) % p
    return rem[:d]


def is_irreducible_plain(f, p):
    """Trial division by every monic polynomial of degree 1..deg(f)/2 over F_p."""
    divisors = (
        list(tail) + [1] for d in range(1, (len(f) - 1) // 2 + 1)
        for tail in itertools.product(range(p), repeat=d)
    )
    return all(any(poly_rem_plain(f, g, p)) for g in divisors)


def x_order_plain(f, p):
    """Order of the class of x in F_p[x]/(f) by repeated multiplication; f(0) != 0."""
    one = [1] + [0] * (len(f) - 2)
    cur, k = poly_rem_plain([0, 1], f, p), 1
    while cur != one:
        cur, k = poly_rem_plain([0] + cur, f, p), k + 1
    return k


def test_order_test_is_irreducible_and_full_order():
    # every monic polynomial of degree 2-7 over F_2, 2-5 over F_3, 2-3 over F_5 and F_7
    verdicts = []
    for p, degrees in ((2, range(2, 8)), (3, range(2, 6)), (5, range(2, 4)), (7, range(2, 4))):
        for s in degrees:
            for tail in itertools.product(range(p), repeat=s):
                f = tail + (1,)
                want = is_irreducible_plain(f, p) and x_order_plain(f, p) == p ** s - 1
                assert _is_primitive(f, p) == want, (p, f)
                verdicts.append(want)
    assert (len(verdicts), sum(verdicts)) == (1154, 139)


# moduli of the exhaustive search over all p^((n-1)s) lifts that the Hensel lift
# replaced, each with the ring's repr, which verify labels and the CLI print
MODULUS_PINS = {
    (2, 5, 3): ((31, 5, 6, 1), "GR(2^5, 2^15; x^3 + 6x^2 + 5x + 31)"),
    (5, 3, 2): ((57, 36, 1), "GR(5^3, 5^6; x^2 + 36x + 57)"),
    (3, 3, 2): ((26, 22, 1), "GR(3^3, 3^6; x^2 + 22x + 26)"),
    (2, 4, 2): ((1, 1, 1), "GR(2^4, 2^8; x^2 + x + 1)"),
    (5, 2, 2): ((7, 11, 1), "GR(5^2, 5^4; x^2 + 11x + 7)"),
    (7, 2, 2): ((31, 15, 1), "GR(7^2, 7^4; x^2 + 15x + 31)"),
    (2, 3, 5): ((7, 2, 7, 4, 0, 1), "GR(2^3, 2^15; x^5 + 4x^3 + 7x^2 + 2x + 7)"),
    (2, 1, 12): (
        (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1),
        "GR(2^1, 2^12; x^12 + x^6 + x^4 + x + 1)",
    ),
    (3, 1, 7): ((1, 2, 1, 0, 0, 0, 0, 1), "GR(3^1, 3^7; x^7 + x^2 + 2x + 1)"),
    (5, 2, 1): ((18, 1), "GR(5^2, 5^2; x + 18)"),  # x - 7, 7 the Teichmuller lift of 2
}


@pytest.mark.parametrize("key", list(MODULUS_PINS))
def test_modulus_search_is_pinned(key):
    coeffs, text = MODULUS_PINS[key]
    h = find_basic_primitive_poly(*key)
    assert h == coeffs and all(type(c) is int for c in h)
    assert repr(build_ring(*key)) == text


def test_ring_tables_are_memoised_per_ring_and_read_only():
    r, twin = build_ring(3, 2, 2), build_ring(3, 2, 2)
    for table in ("elements", "units", "coord_array", "unit_mask", "unit_indices"):
        assert getattr(r, table)() is getattr(r, table)()
        assert getattr(r, table)() is not getattr(twin, table)()
    assert r.reduced(1) is r.reduced(1) and r.reduced(1) is not twin.reduced(1)
    assert r.reduced(1) == twin.reduced(1) and r.reduced(0) is r
    for array in (r.coord_array(), r.unit_mask(), r.unit_indices()):
        assert not array.flags.writeable


def test_size_cap():
    with pytest.raises(SizeLimit):
        build_ring(2, 2, 2, element_cap=8)
    # the cap comes before the primality test and before q^n: no 6,000-digit
    # element count, and no primality test of a 17-digit prime
    for shape in [(2, 20, 1000), (10_000_000_000_000_061, 1, 1), (4, 20, 1000)]:
        with pytest.raises(SizeLimit, match="exceeds the cap of 1048576 elements"):
            build_ring(*shape)
    with pytest.raises(ValueError, match="prime"):  # p = 1 is refused, not multiplied
        build_ring(1, 10 ** 18, 1)


def test_scalar_and_p_power_take_integers_only():
    r = build_ring(3, 2, 1)
    for bad in (1.5, 1.0, True, "1"):
        with pytest.raises(ValueError, match="scalar must be an integer"):
            r.scalar(bad)
        with pytest.raises(ValueError, match="k must be an integer"):
            r.p_power(bad)
    assert r.scalar(np.int64(10)).coords == (1,) and type(r.scalar(np.int64(10)).coords[0]) is int
    assert r.p_power(np.int32(1)) == r.scalar(3) and r.p_power(np.uint8(2)) == r.zero
    with pytest.raises(ValueError, match="k must be in"):
        r.p_power(np.int64(3))


@pytest.mark.parametrize("p,n,s", [(3, 2, 1), (3, 2, 2)])
def test_a_negative_or_non_integer_exponent_is_refused(p, n, s):
    r = build_ring(p, n, s)
    x, rows = r.scalar(2), r.coord_array()
    for e in (-1, -5, np.int64(-1)):  # pow_array first: unchecked it returns 1s, while x ** -1 never returns
        with pytest.raises(ValueError, match="exponent must be >= 0"):
            r.pow_array(rows, e)
        with pytest.raises(ValueError, match="exponent must be >= 0"):
            x ** e
    for e in (2.0, True, "2"):
        with pytest.raises(ValueError, match="exponent must be an integer"):
            x ** e
        with pytest.raises(ValueError, match="exponent must be an integer"):
            r.pow_array(rows, e)
    assert x ** np.int64(3) == x * x * x and x ** 0 == r.one
    assert r.pow_array(rows, np.int64(0)).tolist() == [list(r.one.coords)] * len(rows)


def test_inverse_in_z9(z9):
    assert z9.scalar(2).inv() == z9.scalar(5)
    with pytest.raises(NotAUnit):
        z9.scalar(3).inv()


def test_xi_square_in_gr4_16(gr4_16):
    # reduce x^2 mod x^2 + x + 1 over Z_4: x^2 = -x - 1 = 3x + 3
    assert (gr4_16.xi * gr4_16.xi).coords == (3, 3)


def test_additive_inverse_everywhere(z9, gr4_16):
    for r in (z9, gr4_16):
        for x in r.elements():
            assert (x + (-x)).is_zero


def test_teichmuller_decompose_z9(z9):
    five = z9.scalar(5)
    digits = z9.teichmuller_decompose(five)
    assert [d.coords for d in digits] == [(8,), (8,)]
    assert (8 + 3 * 8) % 9 == 5
    # oracle: exhaustive search over T^2
    T = [t.coords[0] for t in z9.teich_set]
    sols = [(c0, c1) for c0 in T for c1 in T if (c0 + 3 * c1) % 9 == 5]
    assert sols == [(8, 8)]


def test_teichmuller_trivial_digits(gr4_16):
    assert all(d.is_zero for d in gr4_16.teichmuller_decompose(gr4_16.zero))
    digits = gr4_16.teichmuller_decompose(gr4_16.xi)
    assert digits[0] == gr4_16.xi and digits[1].is_zero


@pytest.mark.parametrize("p,n,s", [(3, 2, 1), (2, 2, 2), (3, 3, 1), (2, 3, 2), (3, 2, 2)])
def test_teichmuller_round_trip_exhaustive(p, n, s):
    r = ring(p, n, s)
    for x in r.elements():
        digits = r.teichmuller_decompose(x)
        assert all(d.coords in {t.coords for t in r.teich_set} for d in digits)
        assert r.teich_recompose(digits) == x


def test_valuation(z9, gr4_16):
    k, u = z9.valuation(z9.scalar(6))
    assert k == 1 and u.coords == (2,) and u.ring.pn == 3
    assert z9.scalar(5).is_unit
    assert z9.valuation(z9.zero) == (2, None)
    k, u = gr4_16.valuation(gr4_16.element((0, 2)))
    assert k == 1 and u == u.ring.xi  # image of xi in F_4


def test_frobenius(gr4_16, z9):
    assert gr4_16.frobenius(gr4_16.one) == gr4_16.one
    assert gr4_16.frobenius(gr4_16.xi) == gr4_16.xi * gr4_16.xi
    rng = random.Random(0)
    for r in (gr4_16, z9):
        elems = r.elements()
        for _ in range(100):
            x = rng.choice(elems)
            y = r.frobenius(x)
            for _ in range(r.s - 1):
                y = r.frobenius(y)
            assert y == x


def test_frobenius_is_homomorphism():
    rng = random.Random(1)
    for key in [(2, 2, 2), (2, 3, 2), (3, 2, 2)]:
        r = ring(*key)
        elems = r.elements()
        for _ in range(10_000 // 3 + 1):
            x, y = rng.choice(elems), rng.choice(elems)
            assert r.frobenius(x * y) == r.frobenius(x) * r.frobenius(y)
            assert r.frobenius(x + y) == r.frobenius(x) + r.frobenius(y)


def test_trace(gr4_16, z9):
    assert z9.trace(z9.scalar(7)) == 7  # s = 1: identity
    assert gr4_16.trace(gr4_16.xi) == 3  # xi + xi^2 = -1
    assert gr4_16.trace(gr4_16.one) == 2  # s copies of 1
    rng = random.Random(2)
    for _ in range(200):
        x = rng.choice(gr4_16.elements())
        assert gr4_16.trace(gr4_16.frobenius(x)) == gr4_16.trace(x)


def test_reduce(z9, gr4_16):
    assert z9.reduce(z9.scalar(5), 1).coords == (2,)
    assert gr4_16.reduce(gr4_16.element((1, 2)), 1).coords == (1, 0)
    with pytest.raises(BadLevel):
        z9.reduce(z9.one, 2)


def test_reduce_commutes_with_trace(gr4_16):
    red = gr4_16.reduced(1)
    for x in gr4_16.elements():
        assert gr4_16.trace(x) % red.pn == red.trace(gr4_16.reduce(x, 1))


@pytest.mark.parametrize("p,n,s", [(3, 2, 1), (2, 2, 2), (2, 3, 2), (3, 2, 2)])
def test_ring_invariants(p, n, s):
    r = ring(p, n, s)
    # exact division of x^(q-1) - 1 by the modulus is checked at build time,
    # so construction succeeding is the check; re-verify the root order here.
    assert len({t.coords for t in r.teich_set}) == r.q
    assert (r.xi ** (r.q - 1)) == r.one
    for j in range(1, r.q - 1):
        assert (r.xi ** j) != r.one
    assert len(r.units()) == r.q ** n - r.q ** (n - 1)
    for k in range(n + 1):
        assert len(ideal(r, k)) == r.q ** (n - k)


def test_serialization_round_trip(gr4_16):
    data = gr4_16.to_json()
    assert data == {"p": 2, "n": 2, "s": 2, "modulus": [1, 1, 1]}
    clone = GaloisRing.from_json(data)
    assert clone.key == gr4_16.key


# the rings on which the structural tables are checked against per-element
# definitions: GR(3^2,3^2), GR(2^3,2^3), GR(2^2,2^4), GR(3,3^2), GR(2^4,2^12), GR(5^2,5^2)
REFERENCE_RINGS = [(3, 2, 1), (2, 3, 1), (2, 2, 2), (3, 1, 2), (2, 4, 3), (5, 2, 1)]


@pytest.mark.parametrize("p,n,s", REFERENCE_RINGS)
def test_mul_array_matches_scalar_products(p, n, s):
    r = ring(p, n, s)
    rng = random.Random(5)
    xs = [rng.choice(r.elements()) for _ in range(200)]
    ys = [rng.choice(r.elements()) for _ in range(200)]
    a = np.array([x.coords for x in xs], dtype=np.int64)
    b = np.array([y.coords for y in ys], dtype=np.int64)
    assert r.mul_array(a, b).tolist() == [list((x * y).coords) for x, y in zip(xs, ys)]
    # one row broadcast against many, and a power table
    assert r.mul_array(a, b[0]).tolist() == [list((x * ys[0]).coords) for x in xs]
    assert r.pow_array(a, 5).tolist() == [list((x ** 5).coords) for x in xs]
    # two (s,) rows, whose coordinates are numpy scalars while they are folded
    for x, y in zip(xs[:20], ys[:20]):
        row = r.mul_array(np.array(x.coords), np.array(y.coords))
        assert row.shape == (s,) and row.tolist() == list(r._mul(x.coords, y.coords))


@pytest.mark.parametrize("p,n,s", REFERENCE_RINGS)
def test_trace_equals_frobenius_sum_everywhere(p, n, s):
    r = ring(p, n, s)
    for x in r.elements():
        acc = cur = x
        for _ in range(s - 1):
            cur = r.frobenius(cur)
            acc = acc + cur
        assert acc.coords[1:] == (0,) * (s - 1)
        assert r.trace(x) == acc.coords[0]


@pytest.mark.parametrize("p,n,s", REFERENCE_RINGS)
def test_teich_lift_equals_power_map_everywhere(p, n, s):
    r = ring(p, n, s)
    e = r.q ** (n - 1)
    for x in r.elements():
        assert r.teich_lift(x) == x ** e
        assert r.teichmuller_decompose(x)[0] == x ** e



# p = 2, 3, 5, 7; s = 1 to 3; n = 1 to 5; fields and GR(2^5,2^15) included
DIGIT_RINGS = [
    (2, 1, 1), (2, 1, 3), (2, 3, 2), (2, 5, 1), (2, 5, 3),
    (3, 1, 2), (3, 2, 3), (3, 3, 2), (3, 4, 1),
    (5, 1, 1), (5, 2, 2), (5, 3, 1),
    (7, 1, 2), (7, 2, 1), (7, 3, 1),
]


@pytest.mark.parametrize("p,n,s", DIGIT_RINGS)
def test_digit_table_matches_the_per_digit_loop_everywhere(p, n, s):
    r = ring(p, n, s)
    table = r.teich_digits()
    assert table.shape == (r.element_count, n)
    for x, row in zip(r.elements(), table.tolist()):
        want = teich_digits_loop(r, x)
        assert tuple(r.teich_set[i] for i in row) == want
        assert r.teichmuller_decompose(x) == want
        assert r.teich_lift(x) == want[0]
        assert r.valuation(x) == valuation_gcd(r, x)


def test_digit_table_is_read_only_built_once_in_the_smallest_unsigned_dtype():
    r = build_ring(2, 3, 2)  # a fresh ring, so that its table is not built yet
    table = r.teich_digits()
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1
    for x in r.elements():
        r.teichmuller_decompose(x)
        r.teich_lift(x)
    assert r.teich_digits() is table
    assert [getattr(k[0], "__name__", None) for k in r._cache].count("teich_digits") == 1
    assert table.dtype == np.uint8  # q - 1 = 3
    assert ring(2, 1, 8).teich_digits().dtype == np.uint8  # q - 1 = 255
    assert ring(2, 1, 9).teich_digits().dtype == np.uint16  # q - 1 = 511


@pytest.mark.parametrize("p,n,s", [(3, 2, 1), (2, 3, 2), (5, 1, 2)])
def test_valuation_of_a_unit_is_zero_and_the_unit_itself(p, n, s):
    r = ring(p, n, s)
    for x in r.units():
        k, u = r.valuation(x)
        assert k == 0 and u is x


@pytest.mark.parametrize("p,n,s", [(3, 2, 1), (2, 3, 2), (3, 2, 2)])
def test_elements_and_units_are_read_only_views_of_coord_array(p, n, s):
    r = ring(p, n, s)
    rows = r.coord_array().tolist()
    for view, want in ((r.elements(), rows), (r.units(), [rows[i] for i in r.unit_indices().tolist()])):
        assert isinstance(view, Sequence) and len(view) == len(want)
        assert [list(x.coords) for x in view] == want  # iteration, in row order
        assert [list(view[i].coords) for i in range(len(view))] == want
        assert [list(view[-i].coords) for i in range(1, len(view) + 1)] == want[::-1]
        assert all(x.ring is r and all(type(c) is int for c in x.coords) for x in view[:3])
        for i in (len(view), -len(view) - 1):
            with pytest.raises(IndexError):
                view[i]
        for cut in (slice(1, 7, 2), slice(None, None, -3), slice(-4, None), slice(5, 2)):
            assert [list(x.coords) for x in view[cut]] == want[cut]
        assert view[np.int64(2)] == view[2] == r.element(want[2])
        with pytest.raises(TypeError):
            view[1.0]
        with pytest.raises(TypeError):
            view[0] = r.one


def test_walking_every_element_and_unit_keeps_no_element():
    """GR(2^5,2^15): walking its 32,768 elements and 28,672 units holds under 0.1 MiB.

    The coordinate arrays the views read are built first; a list of the
    elements and one of the units would hold 3.99 MiB.
    """
    r = build_ring(2, 5, 3)
    r.coord_array(), r.unit_indices(), r.unit_mask()
    tracemalloc.start()
    try:
        walked = sum(1 for _ in r.elements()) + sum(1 for _ in r.units())
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert walked == r.element_count + r.unit_count
    assert held < 0.1 * 2 ** 20, held


# elements of another ring: GR(2^4,2^8) against rings with other keys


def _foreign():
    return ring(2, 4, 2).element((3, 5))


def test_trace_rejects_an_element_of_another_ring():
    with pytest.raises(RingMismatch):
        ring(2, 5, 3).trace(_foreign())  # used to return 8
    twin = build_ring(2, 4, 2)  # an equal ring, another object
    assert twin.trace(_foreign()) == ring(2, 4, 2).trace(_foreign())


def test_frobenius_rejects_an_element_of_another_ring():
    with pytest.raises(RingMismatch):
        ring(2, 4, 3).frobenius(_foreign())  # used to return 3 coordinates


def test_teich_lift_rejects_an_element_of_another_ring():
    with pytest.raises(RingMismatch):
        ring(2, 3, 2).teich_lift(_foreign())


def test_teichmuller_decompose_rejects_an_element_of_another_ring():
    with pytest.raises(RingMismatch):
        ring(2, 5, 3).teichmuller_decompose(_foreign())  # used to raise KeyError


def test_valuation_rejects_an_element_of_another_ring():
    with pytest.raises(RingMismatch):
        ring(2, 3, 2).valuation(_foreign())


def test_reduce_rejects_an_element_of_another_ring():
    with pytest.raises(RingMismatch):
        ring(2, 3, 2).reduce(_foreign(), 1)
