"""The four benchmark workloads: seeded inputs, timed bodies, output checks.

Each workload has three parts:

* ``plan(seed)`` makes the inputs from the seed alone, without building a
  ring, so that input generation is part of set-up and all of the package's
  work happens in the timed phase;
* ``run(plan, rec)`` is the timed phase: one client making one call at a
  time, each wrapped in a span of ``rec`` (a no-op when tracing is off).
  Times come from ``rec.clock``; queries and phases are returned as
  (start, seconds);
* ``check(plan, out)`` checks the outputs after the timed phase and returns
  a list of (label, ok, detail) tuples, one per checked operation.

verify-all calls the command line's ``main`` when untraced, as
``galois-sums verify all`` does, and ``run_suite`` per suite when traced.
"""
from __future__ import annotations

import math
import contextlib
import io
import json
import random

import numpy as np

from galois_sums import (
    CodebookParams,
    SumValue,
    build_codebook,
    build_ring,
    canonical_twists,
    canonicalize,
    character_table_json,
    codebook_size,
    decompose_unit_group,
    enumerate_characters,
    export_codebook,
    extend_phi,
    gauss_sum,
    imax_exhaustive,
    import_codebook,
    jacobi_brute,
    jacobi_expected,
    run_suite,
    section_json,
    tilde_jacobi_brute,
    tilde_jacobi_classify,
)
from galois_sums.verify import SUITES

# ---------------------------------------------------------------------------
# sums-mix

# (kind, ring (p, n, s), m, k, queries per session).  168 light and 72 heavy
# queries; fixed counts keep the brute-force work per session the same for
# every seed, and enough queries that the seed-dependent closed-form work
# averages out.  The p90 rank (24th slowest of 240) falls in the middle of
# the m = 3 Jacobi class, below the 12 slower mixed-domain sums: not on a
# class boundary, and not in the class's upper tail, where the cost of the
# closed form's cache fills depends on the characters the seed picks.
SUMS_CLASSES = (
    ("gauss", (5, 2, 2), 1, None, 28),
    ("gauss", (3, 3, 2), 1, None, 28),
    ("gauss", (2, 4, 2), 1, None, 28),
    ("jacobi", (5, 2, 2), 2, None, 24),
    ("jacobi", (3, 3, 2), 2, None, 24),
    ("jacobi", (2, 4, 2), 2, None, 24),
    # a primitive character times a level-1 quotient, at a twist of
    # valuation 1: the dispatch's level-mismatch-zero branch
    ("mismatch", (3, 3, 2), 2, None, 12),
    ("jacobi", (2, 4, 2), 3, None, 24),
    ("tilde", (2, 4, 2), 3, 1, 6),
    ("tilde", (2, 4, 2), 3, 2, 6),
    ("jacobi", (3, 3, 1), 4, None, 36),
)
_BIG = 1 << 30  # indices are drawn here and reduced modulo the real counts


def sums_plan(seed: int) -> list[dict]:
    rng = random.Random(seed)
    queries = []
    for kind, ring, m, k, count in SUMS_CLASSES:
        for _ in range(count):
            queries.append(
                {
                    "kind": kind,
                    "ring": ring,
                    "m": m,
                    "k": k,
                    "chars": [rng.randrange(_BIG) for _ in range(m)],
                    "twist": [rng.randrange(_BIG), rng.randrange(_BIG), rng.random() < 0.5],
                }
            )
    rng.shuffle(queries)
    return queries


def _twist(ring, spec):
    """A canonical twist, times a unit for half of the queries."""
    ci, ui, times_unit = spec
    b = canonical_twists(ring)[ci % (ring.n + 1)]
    if times_unit:
        units = ring.units()
        b = b * units[ui % len(units)]
    return b


def _sum_query(query, ring, chars, levels, rec) -> SumValue:
    kind = query["kind"]
    idx = query["chars"]
    if kind == "gauss":
        chi = chars[idx[0] % len(chars)]
        b = _twist(ring, query["twist"])
        with rec.span("sums.gauss"):
            v = gauss_sum(chi, b)
        rec.count("sums.calls")
        rec.count("sums.terms", v.terms)
        return v
    if kind == "tilde":
        cs = [chars[i % len(chars)] for i in idx]
        els = ring.elements()
        a = els[query["twist"][0] % len(els)]
        with rec.span("sums.tilde_brute"):
            brute = tilde_jacobi_brute(cs, query["k"], a)
        with rec.span("sums.tilde_classify"):
            expected = tilde_jacobi_classify(cs, query["k"], a)
        rec.count("sums.calls", 2)
        rec.count("sums.terms", brute.terms)
        return SumValue(brute.value, expected, brute.terms)
    if kind == "mismatch":
        prim, level1 = levels
        chi1 = prim[idx[0] % len(prim)]
        cs = [chi1, chi1.inverse() * level1[idx[1] % len(level1)]]
        units = ring.units()
        a = ring.p_power(1) * units[query["twist"][1] % len(units)]
    else:
        cs = [chars[i % len(chars)] for i in idx]
        a = _twist(ring, query["twist"])
    # the steps of jacobi(), timed one by one
    with rec.span("sums.jacobi_brute"):
        brute = jacobi_brute(cs, a)
    with rec.span("sums.jacobi_closed"):
        canon, scalar = canonicalize(cs, a)
        base = jacobi_expected(cs, canon)
    rec.count("sums.calls", 3)
    rec.count("sums.terms", brute.terms)
    return SumValue(brute.value, base.rotated(scalar, base.lemma), brute.terms)


def sum_agrees(v: SumValue, q: int) -> tuple[bool, str]:
    if v.expected.kind == "unclassified":
        return False, "unclassified"
    if not v.agrees(q):
        return False, f"brute {v.value:.12g} vs {v.expected.kind} ({v.expected.lemma})"
    return True, v.expected.lemma


def sums_run(plan: list[dict], rec) -> dict:
    keys = sorted({q["ring"] for q in plan})
    rings, chars = {}, {}
    for key in keys:
        with rec.span("ring.build"):
            rings[key] = build_ring(*key)
        with rec.span("characters.table"):
            chars[key] = enumerate_characters(rings[key])
    levels = {}
    for key in sorted({q["ring"] for q in plan if q["kind"] == "mismatch"}):
        n = rings[key].n
        with rec.span("characters.table"):
            levels[key] = (
                [c for c in chars[key] if c.level == n],
                [c for c in chars[key] if c.level == 1],
            )
    queries, results = [], []
    for i, query in enumerate(plan):
        key = query["ring"]
        t0 = rec.clock()
        with rec.span("bench.query"):
            try:
                v = _sum_query(query, rings[key], chars[key], levels.get(key), rec)
                ok, detail = sum_agrees(v, rings[key].q)
            except Exception as exc:  # a failing query is a failed operation
                ok, detail = False, f"{type(exc).__name__}: {exc}"
        queries.append((t0, rec.clock() - t0))
        results.append((f"query {i} {query['kind']} m={query['m']} {key}", ok, detail))
    return {
        "queries": queries,
        "results": results,
        "items": sums_terms(plan),
        "items_s": sum(d for _, d in queries),
    }


def sums_terms(plan: list[dict]) -> int:
    """Brute-force terms summed by one session: fixed by the plan's classes."""
    total = 0
    for q in plan:
        p, n, s = q["ring"]
        size = (p ** s) ** n
        units = size - size // p ** s
        if q["kind"] == "gauss":
            total += units
        elif q["kind"] == "tilde":
            total += units ** q["k"] * size ** (q["m"] - 1 - q["k"])
        else:
            total += units ** (q["m"] - 1)
    return total


def sums_check(plan, out) -> list[tuple[str, bool, str]]:
    """Each query's agreement was checked as part of the query."""
    return out["results"]


# ---------------------------------------------------------------------------
# codebook-q5

CODEBOOK_RING = (5, 2, 1)
CODEBOOK_M, CODEBOOK_K = 3, 1
# N(N-1)/2 * K = 1.56e9 exceeds the default budget of 1e9, which would refuse
# the scan with TooLarge (exit 3 on the command line)
PAIR_BUDGET = 10 ** 10
CODEBOOK_PEAK = math.sqrt(5) / 13
SPOT_PAIRS = 64


def codebook_plan(seed: int) -> dict:
    """The construction is fixed; the seed picks the spot-checked row pairs."""
    rng = random.Random(seed)
    N, _ = codebook_size(5, 2, CODEBOOK_M, CODEBOOK_K)
    return {"pairs": [rng.sample(range(N), 2) for _ in range(SPOT_PAIRS)]}


def codebook_run(plan, rec) -> dict:
    t0 = rec.clock()
    with rec.span("ring.build"):
        ring = build_ring(*CODEBOOK_RING)
        field = ring.residue_field()
    with rec.span("characters.basis"):
        decompose_unit_group(ring)
    with rec.span("characters.section", calls=ring.q):
        for a in field.elements():
            extend_phi(ring, a)
    params = CodebookParams(ring=ring, m=CODEBOOK_M, k=CODEBOOK_K, a=ring.one)
    with rec.span("codebook.build"):
        cb = build_codebook(params)
    with rec.span("codebook.scan"):
        rep = imax_exhaustive(cb, pair_budget=PAIR_BUDGET)
    t_peak = rec.clock()
    with rec.span("codebook.export_csv"):
        csv = export_codebook(cb, "csv")
    with rec.span("codebook.export_json"):
        js = export_codebook(cb, "json")
    with rec.span("codebook.import"):
        back = import_codebook(js)
    t_end = rec.clock()
    rec.count("codebook.entries", cb.N * cb.K)
    rec.count("codebook.scan_macs", cb.N * cb.N * cb.K)
    rec.count("codebook.csv_bytes", len(csv))
    rec.count("codebook.json_bytes", len(js))
    return {
        "cb": cb,
        "rep": rep,
        "csv": csv,
        "imported": back,
        "time_to_peak_s": (t0, t_peak - t0),
        "export_roundtrip_s": (t_peak, t_end - t_peak),
        "items": cb.N * cb.K,
    }


def parse_csv(data: bytes, N: int, K: int) -> np.ndarray:
    tokens = data.replace(b"\n", b",").split(b",")
    if tokens[-1] != b"" or len(tokens) != 2 * N * K + 1:
        raise ValueError(f"{len(tokens) - 1} numbers, expected {2 * N * K}")
    return np.array(tokens[:-1]).astype(np.float64).view(np.complex128).reshape(N, K)


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64)
    )


def codebook_check(plan, out) -> list[tuple[str, bool, str]]:
    cb, rep, rows = out["cb"], out["rep"], out["cb"].rows
    checks = []
    want = codebook_size(5, 2, CODEBOOK_M, CODEBOOK_K)
    checks.append(("dimensions", (cb.N, cb.K) == want, f"{(cb.N, cb.K)} vs {want}"))
    dev = float(np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)))
    checks.append(("unit row norms", dev <= 1e-9, f"max deviation {dev:.3g}"))
    peak = rep.imax_measured
    checks.append(
        ("peak is sqrt(5)/13", abs(peak - CODEBOOK_PEAK) <= 1e-12, f"measured {peak!r}")
    )
    checks.append(("peak >= Welch bound", peak >= rep.welch, f"{peak!r} vs {rep.welch!r}"))
    i, j = rep.pair_argmax
    direct = abs(complex(np.dot(rows[i], rows[j].conj())))
    checks.append(
        ("argmax pair recomputed", abs(direct - peak) <= 1e-12, f"rows {i},{j}: {direct!r}")
    )
    worst = max(abs(complex(np.dot(rows[a], rows[b].conj()))) for a, b in plan["pairs"])
    checks.append(("spot pairs within peak", worst <= peak + 1e-12, f"largest {worst!r}"))
    imp = out["imported"]
    checks.append(
        (
            "JSON import bit-identical",
            (imp.N, imp.K) == (cb.N, cb.K) and _bits_equal(imp.rows, rows),
            "",
        )
    )
    try:
        parsed, detail = parse_csv(out["csv"], cb.N, cb.K), ""
    except ValueError as exc:
        parsed, detail = None, str(exc)
    checks.append(
        ("CSV parse-back bit-identical", parsed is not None and _bits_equal(parsed, rows), detail)
    )
    return checks


# ---------------------------------------------------------------------------
# ring-tables

TABLE_RINGS = ((2, 5, 3), (5, 3, 2), (3, 3, 2), (2, 4, 2), (5, 2, 1))
DIGIT_SAMPLE = 600


def tables_plan(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        key: [rng.randrange((key[0] ** key[2]) ** key[1]) for _ in range(DIGIT_SAMPLE)]
        for key in TABLE_RINGS
    }


def tables_run(plan, rec) -> dict:
    """One query per ring: its build and every table, timed together."""
    out, queries, items = [], [], 0
    for key in TABLE_RINGS:
        t0 = rec.clock()
        with rec.span("ring.build"):
            ring = build_ring(*key)
        with rec.span("characters.basis"):
            basis = decompose_unit_group(ring)
        with rec.span("characters.table"):
            table = character_table_json(ring)
        with rec.span("characters.section"):
            section = section_json(ring)
        els = ring.elements()
        with rec.span("ring.trace", calls=len(els)):
            traces = [ring.trace(x) for x in els]
        sample = [els[i] for i in plan[key]]
        with rec.span("ring.digits", calls=2 * len(sample)):
            digits = [(ring.teichmuller_decompose(x), ring.valuation(x)) for x in sample]
        queries.append((t0, rec.clock() - t0))
        items += len(els) + len(sample)
        out.append((ring, basis, table, section, traces, sample, digits))
    return {"rings": out, "items": items, "queries": queries}


def tables_check(plan, out) -> list[tuple[str, bool, str]]:
    checks = []
    for ring, basis, table, section, traces, sample, digits in out["rings"]:
        q, n, units = ring.q, ring.n, ring.unit_count
        name = f"GR({ring.p}^{n}, {ring.p}^{n * ring.s})"
        sizes = (len(basis.dlog), len(table))
        checks.append((f"{name} dlog and character counts", sizes == (units, units), f"{sizes}"))
        levels = [c["triviality_level"] for c in table]
        got = [sum(lv <= t for lv in levels) for t in range(n + 1)]
        want = [1] + [(q - 1) * q ** (t - 1) for t in range(1, n + 1)]
        checks.append((f"{name} characters per level", got == want, f"{got} vs {want}"))
        checks.append((f"{name} section size", len(section) == q, f"{len(section)}"))
        hist = np.bincount(traces, minlength=ring.pn)
        checks.append(
            (
                f"{name} trace is balanced",
                len(hist) == ring.pn and bool(np.all(hist == len(traces) // ring.pn)),
                f"{hist.min()}..{hist.max()}",
            )
        )
        bad = 0
        for x, (dig, (k, _)) in zip(sample, digits):
            first = next((i for i, d in enumerate(dig) if not d.is_zero), n)
            if ring.teich_recompose(dig) != x or first != k:
                bad += 1
        checks.append((f"{name} digits and valuation", bad == 0, f"{bad} of {len(sample)} wrong"))
    return checks


# ---------------------------------------------------------------------------
# verify-all


def _known_red(suite: str, label: str) -> bool:
    """The deliberate reds of acceptance criteria 4, 6 and 8."""
    if suite == "recursion":
        return "stated factor" in label
    if suite == "codebook-attainment":
        return label.startswith("GR(2^2, 2^4") and label.endswith("peak equals formula")
    if suite == "remark-paths":
        return label.endswith("peak equals stated value")
    return False


KNOWN_REDS = 7


def check_verify(payload: dict, exit_code: int | None) -> list[tuple[str, bool, str]]:
    """Every check green except exactly the seven known reds.

    A known red turning green fails as well as any other red.  exit_code is
    None when the suites ran one by one rather than through the CLI.
    """
    checks = []
    suites = [s["suite"] for s in payload["suites"]]
    checks.append(("all suites ran in order", suites == list(SUITES), f"{suites}"))
    reds = 0
    for s in payload["suites"]:
        for c in s["checks"]:
            red = _known_red(s["suite"], c["label"])
            reds += red
            want = "red" if red else "green"
            checks.append((f"{s['suite']}: {c['label']} is {want}", c["ok"] != red, c["detail"]))
    checks.append(("known reds present", reds == KNOWN_REDS, f"{reds} of {KNOWN_REDS}"))
    if exit_code is not None:
        checks.append(("exit code 4", exit_code == 4, f"exit {exit_code}"))
    return checks


def verify_plan(seed: int) -> dict:
    return {"seed": seed}


def verify_run(plan, rec) -> dict:
    if not rec.enabled:
        return verify_cli_run(plan)
    results = []
    for name in SUITES:
        with rec.span(f"verify.{name}"):
            results.append(run_suite(name, seed=plan["seed"]))
    payload = {"suites": [r.to_json() for r in results]}
    n_checks = sum(len(r.checks) for r in results)
    rec.count("verify.checks", n_checks)
    rec.count("verify.checks_failed", sum(not c.ok for r in results for c in r.checks))
    return {"payload": payload, "items": n_checks, "exit_code": None}


def verify_cli_run(plan) -> dict:
    """`galois-sums verify all --seed S --json`, its output kept in memory."""
    from galois_sums.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["verify", "all", "--seed", str(plan["seed"]), "--json"])
    try:
        payload = json.loads(buf.getvalue())
    except ValueError:
        payload = {"suites": []}
    items = sum(len(s["checks"]) for s in payload["suites"])
    return {"payload": payload, "items": items, "exit_code": code}


def verify_check(plan, out) -> list[tuple[str, bool, str]]:
    return check_verify(out["payload"], out["exit_code"])


def tally(checks) -> dict:
    """Operations attempted and failed, with the first few failures named."""
    failures = [f"{label}: {detail}" for label, ok, detail in checks if not ok]
    return {"attempted": len(checks), "failed": len(failures), "failures": failures[:5]}


PLANS = {
    "sums-mix": sums_plan,
    "codebook-q5": codebook_plan,
    "verify-all": verify_plan,
    "ring-tables": tables_plan,
}
RUNS = {
    "sums-mix": sums_run,
    "codebook-q5": codebook_run,
    "verify-all": verify_run,
    "ring-tables": tables_run,
}
CHECKS = {
    "sums-mix": sums_check,
    "codebook-q5": codebook_check,
    "verify-all": verify_check,
    "ring-tables": tables_check,
}
