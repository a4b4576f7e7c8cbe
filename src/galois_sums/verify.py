"""Named verification suites: brute force against every closed form.

Each suite returns a SuiteResult whose checks carry a label, a boolean, and
a short detail string.  The suites are what the command-line `verify`
subcommand runs and what the acceptance tests run; those tests assert every
check except the pinned published constants below.  Any label that can fail
explains itself.

Each table is decided at once: the Gauss, Jacobi and mixed-domain suites
compare a whole table of brute values with its expectations by the one
agreement rule (sums.agrees_table), and the recursion suite compares its
stated and corrected factors by one array comparison each.  Detail strings
are built only for the rows that fail, in tuple-major, twist-minor order.

Three checks in these suites pin reference constants that brute force
refutes; they are kept as stated rather than patched to pass.  Each such
check is paired with a companion check of the corrected quantity:

* reduction-to-quotient scale factor: the stated q^(mk) is inconsistent with
  the all-trivial count (which forces q^(k(m-1))); the companion verifies the
  corrected factor on every eligible pair;
* the q = 4 peak cross-correlation: rows indexed by character tuples that
  differ only in their quotient-ring components correlate at 2/7, above the
  stated 1/7 peak (their inner product is a reduced-ring Jacobi sum that the
  stated vanishing argument misses);
* the degenerate-twist peaks at q = 3: the same row class collides outright
  (identical rows up to phase), so both measured peaks are 1.
"""
from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field

import numpy as np

from .brute import (
    count_unit_solutions_brute,
    gauss_table,
    jacobi_brute_table,
    solved_domain,
    tilde_jacobi_brute_table,
)
from .characters import (
    character_exponents,
    character_levels,
    project_exponents,
)
from .codebook import (
    CodebookParams,
    build_codebook,
    imax_exhaustive,
    imax_formula,
    imax_remark,
    named_twist,
    table2,
)
from .laws import (
    Expected,
    canonical_twists,
    count_unit_solutions,
    gauss_law,
    jacobi_expected_table,
    s_cardinality,
    tilde_jacobi_classify_table,
)
from .ring import GaloisRing, build_ring
from .sums import agrees_table


@dataclass
class Check:
    label: str
    ok: bool
    detail: str = ""


@dataclass
class SuiteResult:
    suite: str
    checks: list[Check] = field(default_factory=list)

    def add(self, label: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(label, bool(ok), detail))

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def summary(self) -> str:
        good = sum(c.ok for c in self.checks)
        return f"{self.suite}: {good}/{len(self.checks)} checks passed"

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [
                {"label": c.label, "ok": c.ok, "detail": c.detail} for c in self.checks
            ],
        }


GAUSS_RINGS = [(2, 2, 1), (2, 3, 1), (3, 2, 1), (3, 3, 1), (2, 2, 2), (2, 3, 2), (3, 2, 2)]
SMALL_RINGS = [(3, 2, 1), (2, 2, 2)]
RECURSION_RINGS = [(3, 3, 1), (2, 3, 2)]
# agreement tolerance of the sum suites, and of the codebook norms and peaks
SUM_TOL, PEAK_TOL = 1e-6, 1e-9
# random configurations of the mixed-domain suite
TILDE_TRIALS = 500


def verify_gauss_laws(seed: int = 0) -> SuiteResult:
    """Brute |G(chi, lambda_b)| against the magnitude law on all test rings."""
    result = SuiteResult("gauss-laws")
    rng = random.Random(seed)
    for p, n, s in GAUSS_RINGS:
        ring = build_ring(p, n, s)
        units, levels, values, expected = ring.units(), character_levels(ring).tolist(), [], []
        twists = [t for b in canonical_twists(ring) for t in (b, b * rng.choice(units))]
        for b in twists:
            laws = [gauss_law(ring, level, b) for level in range(n + 1)]  # one per level
            values += gauss_table(ring, b)
            expected += [laws[level] for level in levels]
        total = len(expected)
        bad = total - int(agrees_table(values, expected, ring.q, SUM_TOL).sum())
        result.add(f"{ring}", bad == 0, f"{total - bad}/{total} twists agree")
    return result


def _tuples(exponents, m: int) -> np.ndarray:
    """Every m-tuple of the exponent rows, in itertools.product order: (C x m x r)."""
    exponents = np.asarray(exponents)
    at = np.unravel_index(np.arange(len(exponents) ** m), (len(exponents),) * m)
    return np.stack([exponents[i] for i in at], axis=1)


def _jacobi_failures(ring: GaloisRing, m: int) -> tuple[int, int, list]:
    """Brute J_a against its expectation for every m-tuple of characters and canonical twist a.

    Returns the case count, the unclassified count and the failures as
    (tuple index, twist index, message), one table per twist alive at a time.
    """
    X = _tuples(character_exponents(ring), m)
    unclassified, failures = 0, []
    for i, a in enumerate(canonical_twists(ring)):
        brute, expected = jacobi_brute_table(ring, X, a), jacobi_expected_table(ring, X, a)
        for c in np.flatnonzero(~agrees_table(brute, expected, ring.q, SUM_TOL)).tolist():
            e = expected[c]
            unclassified += e.kind == "unclassified"  # never agrees
            failures.append((c, i, _jacobi_miss(ring, complex(brute[c]), e)))
    return len(X) * (ring.n + 1), unclassified, failures


def _jacobi_miss(ring: GaloisRing, brute: complex, e: Expected) -> str:
    """The detail of a brute value that disagrees with its expectation."""
    if e.kind == "unclassified":
        return "unclassified"
    value = "" if e.value is None else f" = {e.value:.6g}"
    return f"brute={brute:.6g} expected |J| = {e.magnitude(ring.q):.6g}{value} ({e.lemma})"


def verify_jacobi_pairs() -> SuiteResult:
    """All ordered character pairs x all canonical twists, brute vs closed form."""
    result = SuiteResult("jacobi-m2")
    for p, n, s in SMALL_RINGS:
        ring = build_ring(p, n, s)
        total, _, failures = _jacobi_failures(ring, 2)
        # the message of the last failure in tuple-major, twist-minor order
        worst = max(failures)[2] if failures else ""
        result.add(f"{ring}", not failures, worst or f"{total} cases agree")
    return result


def verify_jacobi_triples() -> SuiteResult:
    """All character triples x all canonical twists; dispatch never unclassified."""
    result = SuiteResult("jacobi-m3")
    for p, n, s in SMALL_RINGS:
        ring = build_ring(p, n, s)
        total, unclassified, failures = _jacobi_failures(ring, 3)
        failures = [f for f in failures if f[2] != "unclassified"]
        worst = max(failures)[2] if failures else ""
        result.add(f"{ring} agreement", not failures, worst or f"{total} cases agree")
        result.add(f"{ring} fully classified", unclassified == 0, f"{unclassified} unclassified")
    return result


def verify_recursion() -> SuiteResult:
    """Reduction of pairs of non-primitive characters to the quotient ring.

    The "stated factor" checks use the scale q^(mk) that the reference
    constants prescribe; brute force refutes that factor on every pair with a
    nonzero sum (the all-trivial pair already contradicts it), so those
    checks fail by design.  The companion "corrected factor" checks verify
    q^(k(m-1)), which is what the library's dispatch uses.
    """
    result = SuiteResult("recursion")
    m = 2
    for p, n, s in RECURSION_RINGS:
        ring = build_ring(p, n, s)
        q = ring.q
        exponents = character_exponents(ring)
        for k in (1, 2):
            if k > n - 1:
                continue
            X = _tuples(exponents[character_levels(ring) <= n - k], 2)
            twists = canonical_twists(ring)
            projected = project_exponents(ring, X, k)
            # (C x twists): tuple-major, twist-minor, the order of the first witness
            lhs = np.stack([jacobi_brute_table(ring, X, a) for a in twists], axis=1)
            rhs = np.stack(
                [jacobi_brute_table(ring.reduced(k), projected, ring.reduce(a, k)) for a in twists],
                axis=1,
            )
            total = lhs.size
            stated = np.flatnonzero(abs(lhs - q ** (m * k) * rhs) > SUM_TOL)
            stated_bad = len(stated)
            corrected_bad = int((abs(lhs - q ** (k * (m - 1)) * rhs) > SUM_TOL).sum())
            witness = ""
            if stated_bad:
                c, i = divmod(int(stated[0]), len(twists))
                pair, left, right = X[c].tolist(), complex(lhs[c, i]), complex(rhs[c, i])
                witness = (
                    f"chars {tuple(pair[0])},{tuple(pair[1])} a={twists[i].coords}: "
                    f"J={left:.6g} but q^(mk)*J'={q ** (m * k) * right:.6g}"
                )
            result.add(
                f"{ring} k={k} stated factor q^(mk)",
                stated_bad == 0,
                witness or f"{total} cases agree",
            )
            result.add(
                f"{ring} k={k} corrected factor q^(k(m-1))",
                corrected_bad == 0,
                f"{total - corrected_bad}/{total} cases agree",
            )
    return result


def verify_counting() -> SuiteResult:
    """Unit-solution counts and mixed-domain cardinalities against enumeration."""
    result = SuiteResult("counting")
    for p, n, s in SMALL_RINGS:
        ring = build_ring(p, n, s)
        for m in (2, 3):
            for a in [ring.zero, ring.one, ring.p_power(1)]:
                formula = count_unit_solutions(ring, m, a)
                brute = count_unit_solutions_brute(ring, m, a)
                result.add(
                    f"{ring} unit solutions m={m} a={a.coords}",
                    formula == brute,
                    f"formula {formula}, enumerated {brute}",
                )
        for m, k in [(2, 1), (3, 1), (3, 2)]:
            enumerated = len(solved_domain(ring, m, k, ring.one))
            formula = s_cardinality(ring, m, k)
            result.add(
                f"{ring} |S| m={m} k={k}",
                formula == enumerated,
                f"formula {formula}, enumerated {enumerated}",
            )
    return result


def _build_and_scan(p, n, s, mode):
    """The m = 3, k = 1 codebook at the named twist (codebook.named_twist) and its scan."""
    ring = build_ring(p, n, s)
    a = named_twist(ring, mode)
    params = CodebookParams(ring=ring, m=3, k=1, a=a)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cb = build_codebook(params, allow_nonunit_a=not a.is_unit)
    return cb, imax_exhaustive(cb)


def verify_codebook_attainment() -> SuiteResult:
    """Exhaustive peak correlation of the q = 3 and q = 4 builds.

    The q = 4 peak-equals-formula check fails by design: rows whose character
    tuples differ only in lifted quotient-ring components attain 2/7 > 1/7.
    """
    result = SuiteResult("codebook-attainment")
    for (p, n, s), dims in [((3, 2, 1), (162, 54)), ((2, 2, 2), (768, 192))]:
        cb, rep = _build_and_scan(p, n, s, "unit")
        ring = cb.params.ring
        result.add(
            f"{ring} dimensions",
            (cb.N, cb.K) == dims,
            f"(N, K) = ({cb.N}, {cb.K})",
        )
        norms = np.linalg.norm(cb.rows, axis=1)
        result.add(
            f"{ring} unit norms",
            bool(np.max(np.abs(norms - 1.0)) <= PEAK_TOL),
            f"max deviation {np.max(np.abs(norms - 1.0)):.3g}",
        )
        result.add(
            f"{ring} peak equals formula",
            abs(rep.imax_measured - rep.imax_formula) <= PEAK_TOL,
            f"measured {rep.imax_measured:.12g}, formula {rep.imax_formula:.12g}, "
            f"witness rows {rep.pair_argmax}",
        )
        result.add(
            f"{ring} Welch bound holds",
            rep.imax_measured >= rep.welch - 1e-12,
            f"measured {rep.imax_measured:.12g} >= bound {rep.welch:.12g}",
        )
    return result


_TABLE2_PRINTED = [
    # q, N, K, peak, Welch bound, ratio (reference values, printed precision)
    (11, 146410, 13310, "0.010989011", "0.008264491", "1.329665789"),
    (19, 2345778, 123462, "0.003257329", "0.002770084", "1.175895515"),
    (31, 27705630, 893730, "0.0011481056", "0.0010405827", "1.1033294864"),
    (53, 410305012, 7741604, "0.0003769318", "0.0003559986", "1.0588013557"),
    (81, 3443737680, 42515280, "0.0001582028", "0.0001524158", "1.0379686757"),
    (121, 25723065720, 212587320, "0.0000700231", "0.0000683013", "1.0252083187"),
    (179, 182739371218, 1020890342, "0.00003173898", "0.00003121001", "1.01694861459"),
    (256, 1095216660480, 4278190080, "0.00001543901", "0.00001525879", "1.01181084127"),
]


def _matches_printed(value: float, printed: str) -> bool:
    """True when value agrees with the printed decimal to one unit in the last digit."""
    decimals = len(printed.split(".")[1])
    return abs(value - float(printed)) <= 1.0000001 * 10.0 ** (-decimals)


def verify_table2() -> SuiteResult:
    """Analytic parameters against the published reference rows."""
    result = SuiteResult("table2")
    rows = {r.q: r for r in table2()}
    for q, N, K, imax_s, welch_s, ratio_s in _TABLE2_PRINTED:
        row = rows[q]
        ok = (
            row.N == N
            and row.K == K
            and _matches_printed(row.imax, imax_s)
            and _matches_printed(row.welch, welch_s)
            and _matches_printed(row.ratio, ratio_s)
        )
        result.add(
            f"q={q}",
            ok,
            f"N={row.N} K={row.K} imax={row.imax:.10g} welch={row.welch:.10g} ratio={row.ratio:.10g}",
        )
    return result


def verify_remark_paths() -> SuiteResult:
    """Degenerate-twist builds at q = 3 against their stated peaks.

    Both stated peak values fail by design: the zero-twist and ideal-twist
    codebooks contain row pairs that are equal up to phase (measured peak 1),
    which also exceeds every closed-form candidate below it.
    """
    result = SuiteResult("remark-paths")
    stated = {"zero": 0.6, "ideal": 27 ** 0.5 / 10}
    unit_peak = imax_formula(3, 2, 3)
    for mode in ("zero", "ideal"):
        cb, rep = _build_and_scan(3, 2, 1, mode)
        case = "a0" if mode == "zero" else "aM"
        formula = imax_remark(3, 2, 3, case)
        result.add(
            f"{mode} twist peak equals stated value",
            abs(rep.imax_measured - stated[mode]) <= PEAK_TOL,
            f"measured {rep.imax_measured:.12g}, stated {stated[mode]:.12g}, "
            f"closed form as written {formula:.12g}, witness rows {rep.pair_argmax}",
        )
        result.add(
            f"{mode} twist exceeds unit-twist peak",
            rep.imax_measured > unit_peak,
            f"{rep.imax_measured:.6g} > {unit_peak:.6g}",
        )
    return result


def verify_tilde_cases(seed: int = 1) -> SuiteResult:
    """Random mixed-domain sums against the four-way classification.

    Every configuration is drawn first; both routes then run once per
    (ring, m, k, a) domain, on the tuples drawn for it.
    """
    result = SuiteResult("tilde-cases")
    rng = random.Random(seed)
    rings = [build_ring(*t) for t in SMALL_RINGS]
    char_lists = {r.key: [tuple(e) for e in character_exponents(r).tolist()] for r in rings}
    draws = []
    for _ in range(TILDE_TRIALS):
        ring = rng.choice(rings)
        chars_all = char_lists[ring.key]
        m = rng.choice([2, 3])
        k = rng.randrange(1, m)
        tup = [rng.choice(chars_all) for _ in range(m)]
        a = rng.choice(ring.elements())
        draws.append((ring, k, tup, a))
    domains: dict[tuple, list[int]] = {}
    for i, (ring, k, tup, a) in enumerate(draws):
        domains.setdefault((ring.key, len(tup), k, a.coords), []).append(i)
    values: list = [None] * TILDE_TRIALS
    expected: list = [None] * TILDE_TRIALS
    for trial in domains.values():
        ring, k, _, a = draws[trial[0]]
        X = np.array([draws[i][2] for i in trial])
        brute = tilde_jacobi_brute_table(ring, X, k, a).tolist()
        for i, v, e in zip(trial, brute, tilde_jacobi_classify_table(ring, X, k, a)):
            values[i], expected[i] = v, e
    ok = np.empty(TILDE_TRIALS, dtype=bool)
    for ring in rings:  # one table per ring: the magnitude laws read q
        at = [i for i, draw in enumerate(draws) if draw[0] is ring]
        ok[at] = agrees_table([values[i] for i in at], [expected[i] for i in at], ring.q, SUM_TOL)
    cases: dict[str, int] = {}
    for e in expected:
        cases[e.lemma] = cases.get(e.lemma, 0) + 1
    bad = np.flatnonzero(~ok).tolist()
    witness = ""
    if bad:
        (ring, k, tup, a), value, e = draws[bad[0]], values[bad[0]], expected[bad[0]]
        witness = f"{ring} chars={tup} k={k} a={a.coords}: brute {value:.6g} vs {e}"
    split = ", ".join(f"{k}={v}" for k, v in sorted(cases.items()))
    result.add(
        f"{TILDE_TRIALS} random configurations",
        not bad,
        witness or f"all agree; case split: {split}",
    )
    return result


SUITES = {
    "gauss-laws": verify_gauss_laws,
    "jacobi-m2": verify_jacobi_pairs,
    "jacobi-m3": verify_jacobi_triples,
    "recursion": verify_recursion,
    "counting": verify_counting,
    "codebook-attainment": verify_codebook_attainment,
    "table2": verify_table2,
    "remark-paths": verify_remark_paths,
    "tilde-cases": verify_tilde_cases,
}
# the suites that draw their cases from a seed; run_suite passes a seed only to these
SEEDED_SUITES = ("gauss-laws", "tilde-cases")


def run_suite(name: str, seed: int | None = None) -> SuiteResult:
    fn = SUITES[name]
    if seed is not None and name in SEEDED_SUITES:
        return fn(seed=seed)
    return fn()
