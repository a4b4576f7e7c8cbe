"""Property tests of the per-element ring API and the character values against their definitions."""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from galois_sums import enumerate_characters
from galois_sums.characters import character_numerators, decompose_unit_group, dlog_matrix

from conftest import eval_unit, ring

# Z/8, GR(2^3,2^6), Z/27, GR(3^2,3^4), GR(2^2,2^4), Z/25, F_8, GR(5^2,5^4)
RINGS = [(2, 3, 1), (2, 3, 2), (3, 3, 1), (3, 2, 2), (2, 2, 2), (5, 2, 1), (2, 1, 3), (5, 2, 2)]

# reproducible runs that write no example database
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

rings = st.sampled_from(RINGS).map(lambda key: ring(*key))


@st.composite
def ring_and_elements(draw, count: int = 1, units: bool = False):
    r = draw(rings)
    pool = r.units() if units else r.elements()
    return (r,) + tuple(draw(st.sampled_from(pool)) for _ in range(count))


@PROPERTY
@given(ring_and_elements(count=2), st.integers(-50, 50), st.integers(-50, 50))
def test_trace_is_linear_over_the_base_ring(args, a, b):
    r, x, y = args
    assert r.trace(r.scalar(a) * x + r.scalar(b) * y) == (a * r.trace(x) + b * r.trace(y)) % r.pn


@PROPERTY
@given(ring_and_elements())
def test_trace_is_the_sum_of_the_frobenius_images(args):
    r, x = args
    acc = cur = x
    for _ in range(r.s - 1):
        cur = r.frobenius(cur)
        acc = acc + cur
    assert acc.coords == (r.trace(x),) + (0,) * (r.s - 1)


@PROPERTY
@given(ring_and_elements())
def test_teichmuller_digits_recompose_and_are_fixed_by_the_q_power(args):
    r, x = args
    digits = r.teichmuller_decompose(x)
    assert len(digits) == r.n
    assert r.teich_recompose(digits) == x
    assert all(t ** r.q == t for t in digits)


@PROPERTY
@given(ring_and_elements())
def test_valuation_agrees_with_the_digits(args):
    r, x = args
    k, u = r.valuation(x)
    digits = r.teichmuller_decompose(x)
    assert k == next((i for i, t in enumerate(digits) if not t.is_zero), r.n)
    if u is None:
        assert x.is_zero
    else:
        assert u.ring == r.reduced(k) and u.is_unit
        assert r.p_power(k) * r.element(u.coords) == x


@PROPERTY
@given(rings)
def test_units_are_the_elements_that_are_units(r):
    assert list(r.units()) == [x for x in r.elements() if x.is_unit]


@PROPERTY
@given(ring_and_elements(count=2, units=True), st.data())
def test_eval_unit_is_multiplicative_and_reads_the_dlog_matrix(args, data):
    r, x, y = args
    chi = data.draw(st.sampled_from(enumerate_characters(r)))
    basis = decompose_unit_group(r)
    L = basis.lcm_order
    points = r.index_of(np.array([x.coords, y.coords, (x * y).coords]))
    at_x, at_y, at_xy = character_numerators(r, chi.exponents, points).tolist()
    assert at_xy == (at_x + at_y) % L
    row = dlog_matrix(r)[r.index_of(np.array(x.coords))].tolist()
    num = sum(e * t * (L // d) for e, t, d in zip(chi.exponents, row, basis.orders))
    assert eval_unit(chi, x).numerator == at_x == num % L
