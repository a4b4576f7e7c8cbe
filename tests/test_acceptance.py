"""Acceptance suite: one test per criterion, one printed line per criterion.

Each criterion runs its named verification suite and prints every check of
it.  Three suites (criteria 4, 6 and 8) also pin published reference
constants that exhaustive computation refutes.  Those checks stay red in
`galois-sums verify`, and their lines are printed here with their witnesses,
but the criterion does not assert them.  Instead each of the three tests
asserts the value that holds, derived by hand in its docstring from
classical finite-field Jacobi-sum magnitudes (Ireland-Rosen, *A Classical
Introduction to Modern Number Theory*, ch. 8), and cross-checks it by a
second route inside the test.  The printed status of a criterion is the
status of exactly what its test asserts.  See the per-suite docstrings in
galois_sums.verify and README "Known discrepancies".
"""
from __future__ import annotations

import numpy as np

from galois_sums.characters import MultCharacter, project_exponents
from galois_sums.codebook import _row_exponents
from galois_sums.sums import count_unit_solutions, jacobi_brute
from galois_sums.verify import (
    PEAK_TOL,
    RECURSION_RINGS,
    Check,
    SuiteResult,
    _build_and_scan,
    cached_ring,
    verify_codebook_attainment,
    verify_counting,
    verify_gauss_laws,
    verify_jacobi_pairs,
    verify_jacobi_triples,
    verify_recursion,
    verify_remark_paths,
    verify_table2,
    verify_tilde_cases,
)


def report(
    num: int,
    title: str,
    result: SuiteResult,
    refuted: tuple[str, ...] = (),
    derived: tuple[Check, ...] = (),
) -> str:
    """Print the criterion's status and every check; return the asserted failures.

    A suite check whose label contains one of `refuted` pins a published
    constant that brute force refutes: it is printed with its witness but
    not asserted.  `derived` holds the test's own cross-checks.  The status
    and the returned failures cover every other suite check plus `derived`.
    """
    def is_refuted(c: Check) -> bool:
        return any(r in c.label for r in refuted)

    def line(c: Check) -> str:
        return c.label + (f" -- {c.detail}" if c.detail else "")

    failures = [c for c in result.checks if not c.ok and not is_refuted(c)]
    failures += [c for c in derived if not c.ok]
    status = "FAIL" if failures else "PASS"
    print(f"[{status}] criterion {num}: {title} ({result.summary})")
    for c in list(result.checks) + list(derived):
        mark = "ok " if c.ok else "FAIL"
        note = " [published constant, not asserted]" if is_refuted(c) else ""
        print(f"    [{mark}] {line(c)}{note}")
    return "; ".join(line(c) for c in failures)


def _class_law(cb, pair):
    """Inner product of two F rows that differ only in lifted quotient characters.

    The rows' characters are those the build used, lift(psi) * section(a)
    (module docstring of galois_sums.codebook).  The ratio characters
    chi_i / chi'_i are trivial on 1 + pR (otherwise project_exponents
    raises), so they project to the residue field F.  When
    the rows vanish off the unit solutions, their inner product is
    J_R(ratio; a) / support, and the fiber count of criterion 4 turns J_R
    into q^((n-1)(m-1)) * J_F(projected ratio; a mod p).
    Returns (projected ratio characters, J_F, inner product).
    """
    params = cb.params
    ring, m = params.ring, params.m
    i, j = pair
    _, X = _row_exponents(params)
    ratio = project_exponents(ring, X[i] - X[j], ring.n - 1)
    projected = [MultCharacter(ring.reduced(ring.n - 1), e) for e in ratio.tolist()]
    j_field = jacobi_brute(projected, ring.reduce(params.a, ring.n - 1)).value
    support = count_unit_solutions(ring, m, params.a)
    assert cb.support_sizes[i] == cb.support_sizes[j] == support
    return projected, j_field, ring.q ** ((ring.n - 1) * (m - 1)) * j_field / support


def test_criterion_1_gauss_laws():
    result = verify_gauss_laws(seed=0)
    failures = report(1, "Gauss-sum magnitude laws on all seven rings", result)
    assert result.passed, failures


def test_criterion_2_jacobi_pairs():
    result = verify_jacobi_pairs()
    failures = report(2, "all character pairs x canonical twists", result)
    assert result.passed, failures


def test_criterion_3_jacobi_triples():
    result = verify_jacobi_triples()
    failures = report(3, "all character triples, dispatch total and correct", result)
    assert result.passed, failures


def test_criterion_4_reduction_scale():
    """Reduction to R' = R/p^(n-k)R scales a Jacobi sum by q^(k(m-1)), not q^(mk).

    Let every chi_i be trivial on 1 + p^(n-k)R, so each factors through the
    reduction R -> R'.  A lift of a unit of R' is a unit of R.  A solution of
    x_1 + ... + x_m = a mod p^(n-k) in R' lifts to exactly q^(k(m-1))
    solutions in R: the first m-1 lifts are free (q^k choices each) and the
    last is then determined.  Every lift carries the same character value,
    so J_R(chi; a) = q^(k(m-1)) * J_R'(chi'; a mod p^(n-k)).

    Hand witness: the all-trivial pair with a = 0 counts the units x_1 with
    x_2 = -x_1, so J_R = |R*| = q^(n-1)(q-1): 18 on GR(3^3, 3^3) and 48 on
    GR(2^3, 2^6).  Likewise J_R' = |R'*| = q^(n-k-1)(q-1), which is 6 for
    k = 1 on GR(3^3, 3^3); the stated factor predicts 3^2 * 6 = 54, not 18.
    The test asserts the four suite checks of q^(k(m-1)) and recomputes this
    witness by brute force against the hand counts.
    """
    result = verify_recursion()
    corrected = [c for c in result.checks if "corrected factor q^(k(m-1))" in c.label]
    assert len(corrected) == 4
    m = 2
    derived = []
    for key, hand in zip(RECURSION_RINGS, (18, 48)):
        ring = cached_ring(*key)
        q, n = ring.q, ring.n
        trivial = MultCharacter.trivial(ring)
        j_ring = jacobi_brute([trivial] * m, ring.zero).value
        derived.append(Check(
            f"{ring} all-trivial J(0) = |R*| = {hand}",
            abs(j_ring - hand) <= 1e-9 and hand == q ** (n - 1) * (q - 1),
            f"brute {j_ring:.6g}",
        ))
        for k in range(1, n):
            red = ring.reduced(k)
            j_red = jacobi_brute([MultCharacter.trivial(red)] * m, red.zero).value
            hand_red = q ** (n - k - 1) * (q - 1)
            derived.append(Check(
                f"{ring} k={k} J' = |R'*| = {hand_red}, J = q^(k(m-1)) J' != q^(mk) J'",
                abs(j_red - hand_red) <= 1e-9
                and abs(j_ring - q ** (k * (m - 1)) * j_red) <= 1e-9
                and abs(j_ring - q ** (m * k) * j_red) > 1e-9,
                f"J={j_ring:.6g}, J'={j_red:.6g}, q^(mk) J'={q ** (m * k) * j_red:.6g}",
            ))
    failures = report(
        4, "reduction to the quotient ring scales by q^(k(m-1))", result,
        refuted=("stated factor q^(mk)",), derived=tuple(derived),
    )
    assert not failures, failures


def test_criterion_5_counting():
    result = verify_counting()
    failures = report(5, "solution counts and mixed-domain cardinalities", result)
    assert result.passed, failures


def test_criterion_6_codebook_attainment():
    """q=3 attains the closed-form peak 1/3; q=4 measures 2/7, not the stated 1/7.

    The unit-twist closed form at n = 2, m = 3 is 1/(q^2 - 3q + 3).  At q = 4
    the build (module docstring of galois_sums.codebook) holds F rows with the
    same section components whose characters differ only in the lifted
    quotient-ring components, e.g. the argmax pair (13, 65): their ratio
    tuple is (1, psi, psi) with psi of order 3 on F_4*, so psi^2 is
    nontrivial.  Both rows are nontrivial on x_2 and x_3, so they vanish off
    the unit solutions of x_1 + x_2 + x_3 = a, a set of size
    q^(2n-3)((q-1)^3 + 1) = 4 * 28 = 112 (the support).  Their inner product
    is J_R(1, psi, psi; a) / 112, and by the fiber count of criterion 4
    J_R = q^((n-1)(m-1)) J_F(1, psi, psi; 1) = 16 J_F.  Summing out x_1 over
    all of F_4 and removing x_1 = 0 gives J_F(1, psi, psi; 1) =
    (sum psi)^2 - J(psi, psi; 1) = -J(psi, psi; 1), whose magnitude is
    sqrt(q) = 2 when psi and psi^2 are nontrivial (Ireland-Rosen ch. 8 §3).
    Here J_F = -2, so the inner product is 16 * (-2) / 112 = -2/7.  In general
    this class peaks at sqrt(q)/(q^2 - 3q + 3) for q >= 4 (sqrt(5)/13 at
    q = 5, sqrt(7)/31 at q = 7).  At q = 3, psi^2 is trivial, |J_F| = 1, and
    the class only ties 1/3.

    The test asserts every suite check except the q = 4 stated peak, and
    asserts the q = 4 peak is 2/7 within the suite's 1e-9, cross-checked by
    the dot product of the witness rows and by the reduced-ring Jacobi sum.
    """
    tol = PEAK_TOL
    result = verify_codebook_attainment()
    cb, rep = _build_and_scan(2, 2, 2, "unit")
    i, j = rep.pair_argmax
    dot = np.vdot(cb.rows[j], cb.rows[i])
    projected, j_field, law = _class_law(cb, (i, j))
    derived = (
        Check("q=4 peak = 2/7", abs(rep.imax_measured - 2 / 7) <= tol,
              f"measured {rep.imax_measured:.12g}, witness rows {(i, j)}"),
        Check("q=4 witness rows: |<r_i, r_j>| = 2/7", abs(abs(dot) - 2 / 7) <= tol,
              f"<r_i, r_j> = {dot:.12g}"),
        Check("q=4 witness rows: 16 J_F(1, psi, psi; 1) / 112 = <r_i, r_j>",
              abs(law - dot) <= tol and abs(j_field + 2) <= tol,
              f"ratio {[c.exponents for c in projected]}, J_F = {j_field:.6g}, "
              f"law {law:.12g}"),
    )
    failures = report(
        6, "q=3 attains the closed-form peak, q=4 measures 2/7", result,
        refuted=(f"{cb.params.ring} peak equals formula",), derived=derived,
    )
    assert not failures, failures


def test_criterion_7_parameter_table():
    result = verify_table2()
    failures = report(7, "published parameter table reproduced analytically", result)
    assert result.passed, failures


def test_criterion_8_degenerate_twists():
    """Both degenerate twists at q = 3 peak at exactly 1, not 0.6 or sqrt(27)/10.

    With the twist a in pR (a = 0 or a = p), the q = 3 build contains unit-norm
    rows equal up to phase; the witness (the smallest pair attaining the
    peak) is (7, 28) for both twists.  By Cauchy-Schwarz |<r_i, r_j>| <= 1, with equality exactly
    when r_i = c r_j, |c| = 1, so both peaks are 1.  For the ideal-twist
    witness the rows differ only in lifted quotient characters, with ratio
    tuple (1, eta, eta), eta the quadratic character of F_3.  Over F_3 every
    unit solution of x_1 + x_2 + x_3 = 0 has x_1 = x_2 = x_3 (a unit triple
    u, u, -u sums to u != 0), so
    eta(x_2 x_3) = eta(x_2)^2 = 1 on every term and J_F(1, eta, eta; 0)
    equals the unit-solution count 2.  The class law of criterion 6 then
    gives q^((n-1)(m-1)) J_F / support = 9 * 2 / 18 = 1.

    The test asserts both peaks are 1 within the suite's 1e-9, that each
    witness pair is equal up to a unit phase, the ideal-twist Jacobi route,
    and both suite checks that the peaks exceed the unit-twist peak 1/3.
    """
    tol = PEAK_TOL
    result = verify_remark_paths()
    scans = {mode: _build_and_scan(3, 2, 1, mode) for mode in ("zero", "ideal")}
    derived = []
    for mode, (cb, rep) in scans.items():
        i, j = rep.pair_argmax
        c = np.vdot(cb.rows[j], cb.rows[i])
        derived.append(Check(
            f"{mode} twist peak = 1", abs(rep.imax_measured - 1) <= tol,
            f"measured {rep.imax_measured:.12g}, witness rows {(i, j)}",
        ))
        derived.append(Check(
            f"{mode} twist witness rows: r_i = c r_j, |c| = 1",
            abs(abs(c) - 1) <= tol and np.max(np.abs(cb.rows[i] - c * cb.rows[j])) <= tol,
            f"c = {c:.12g}",
        ))
    cb, rep = scans["ideal"]
    projected, j_field, law = _class_law(cb, rep.pair_argmax)
    trivial, eta, eta2 = projected
    field = cb.params.ring.residue_field()
    derived.append(Check(
        "ideal twist: ratio (1, eta, eta), J_F(1, eta, eta; 0) = 2 unit solutions, law = 1",
        trivial.is_trivial and eta == eta2 and not eta.is_trivial and (eta * eta).is_trivial
        and abs(j_field - count_unit_solutions(field, 3, field.zero)) <= tol
        and abs(j_field - 2) <= tol and abs(law - 1) <= tol,
        f"ratio {[c.exponents for c in projected]}, J_F = {j_field:.6g}, law {law:.12g}",
    ))
    failures = report(
        8, "zero- and ideal-twist peaks at q=3 are 1, above the unit-twist peak", result,
        refuted=("peak equals stated value",), derived=tuple(derived),
    )
    assert not failures, failures


def test_criterion_9_mixed_domain_cases():
    result = verify_tilde_cases(seed=1)
    failures = report(9, "500 random mixed-domain sums against the case split", result)
    assert result.passed, failures
