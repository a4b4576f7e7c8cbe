"""Self-tests of the benchmark: seeded inputs, output checks, metric names.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import workloads as w  # noqa: E402
from galois_sums import SumValue, build_ring, enumerate_characters, gauss_sum  # noqa: E402
from galois_sums.verify import SUITES  # noqa: E402
from spans import Recorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"] for m in SPEC["end_to_end"]}
LAYER = {m["name"] for m in SPEC["per_layer"]}


def failed(checks) -> int:
    return w.tally(checks)["failed"]


# -- seeded inputs -------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(w.PLANS))
def test_same_seed_same_inputs(workload):
    assert w.PLANS[workload](7) == w.PLANS[workload](7)


def test_seed_changes_sum_queries():
    a, b = w.sums_plan(1), w.sums_plan(2)
    assert a != b
    assert [q["kind"] for q in a] != [q["kind"] for q in b]
    # the class mix, and so the work per session, does not depend on the seed
    assert sorted(q["kind"] for q in a) == sorted(q["kind"] for q in b)
    assert w.sums_terms(a) == w.sums_terms(b)


def test_seed_changes_digit_sample():
    assert w.tables_plan(1) != w.tables_plan(2)


# -- output checks fire on corrupted outputs -----------------------------------


def test_sum_check_fires_on_perturbed_value():
    ring = build_ring(2, 4, 2)
    v = gauss_sum(enumerate_characters(ring)[5], ring.one)
    assert w.sum_agrees(v, ring.q)[0]
    bad = SumValue(v.value + 1e-3, v.expected, v.terms)
    results = [("good", *w.sum_agrees(v, ring.q)), ("bad", *w.sum_agrees(bad, ring.q))]
    assert failed(w.sums_check([], {"results": results})) == 1


def test_sums_session_counts_terms_it_reports():
    plan = w.sums_plan(3)[:12]
    rec = Recorder(True, "t")
    out = w.sums_run(plan, rec)
    assert failed(w.sums_check(plan, out)) == 0
    assert rec.counts["sums.terms"] == out["items"] == w.sums_terms(plan)


@pytest.fixture(scope="module")
def codebook_out():
    plan = w.codebook_plan(1)
    return plan, w.codebook_run(plan, Recorder(False, "t"))


def test_codebook_checks_pass(codebook_out):
    plan, out = codebook_out
    assert failed(w.codebook_check(plan, out)) == 0


def test_codebook_check_fires_on_flipped_bit(codebook_out):
    plan, out = codebook_out
    imported = copy.copy(out["imported"])
    imported.rows = imported.rows.copy()
    imported.rows.view(np.uint64)[17, 3] ^= 1
    checks = w.codebook_check(plan, dict(out, imported=imported))
    assert [label for label, ok, _ in checks if not ok] == ["JSON import bit-identical"]


def test_codebook_check_fires_on_corrupted_csv(codebook_out):
    plan, out = codebook_out
    csv = bytearray(out["csv"])
    csv[csv.index(b"e-")] = ord("E")  # same value: still parses identically
    assert failed(w.codebook_check(plan, dict(out, csv=bytes(csv)))) == 0
    csv[csv.index(b"0.")] = ord("1")
    assert failed(w.codebook_check(plan, dict(out, csv=bytes(csv)))) == 1


def test_codebook_check_fires_on_wrong_peak(codebook_out):
    plan, out = codebook_out
    rep = copy.copy(out["rep"])
    rep.imax_measured += 1e-9
    bad = {label for label, ok, _ in w.codebook_check(plan, dict(out, rep=rep)) if not ok}
    assert bad == {"peak is sqrt(5)/13", "argmax pair recomputed"}


def _verify_payload():
    """A payload with every suite green except the seven known reds."""
    reds = {
        "recursion": [f"GR(3^3, 3^3; x + 1) k={k} stated factor q^(mk)" for k in (1, 2)]
        + [f"GR(2^3, 2^6; x^2 + x + 1) k={k} stated factor q^(mk)" for k in (1, 2)],
        "codebook-attainment": ["GR(2^2, 2^4; x^2 + x + 1) peak equals formula"],
        "remark-paths": [f"{m} twist peak equals stated value" for m in ("zero", "ideal")],
    }
    suites = []
    for name in SUITES:
        checks = [{"label": f"{name} companion", "ok": True, "detail": ""}]
        checks += [{"label": label, "ok": False, "detail": "witness"} for label in reds.get(name, [])]
        suites.append({"suite": name, "passed": name not in reds, "checks": checks})
    return {"suites": suites}


def test_verify_check_accepts_the_known_reds():
    checks = w.check_verify(_verify_payload(), 4)
    assert failed(checks) == 0
    assert len(checks) == len(SUITES) + w.KNOWN_REDS + 3


def test_verify_check_fires_on_unexpected_failure():
    payload = _verify_payload()
    payload["suites"][0]["checks"][0]["ok"] = False
    assert failed(w.check_verify(payload, 4)) == 1


def test_verify_check_fires_when_a_known_red_turns_green():
    payload = _verify_payload()
    recursion = next(s for s in payload["suites"] if s["suite"] == "recursion")
    recursion["checks"][1]["ok"] = True
    assert failed(w.check_verify(payload, 4)) == 1


def test_verify_check_fires_on_exit_code():
    assert failed(w.check_verify(_verify_payload(), 0)) == 1


def test_verify_cli_run_passes_its_checks():
    out = w.verify_run(w.verify_plan(2), Recorder(False, "t"))
    assert out["exit_code"] == 4
    assert failed(w.verify_check({}, out)) == 0


# -- speed scaling -----------------------------------------------------------------


def test_sampler_clock_leaves_out_sampling_time():
    with speed.Sampler(period=0.01) as sampler:
        paused0, clock0, wall0 = sampler.paused, sampler.clock(), time.perf_counter()
        while time.perf_counter() - wall0 < 0.3:
            pass
        paused = sampler.paused - paused0
        clocked = sampler.clock() - clock0
        wall = time.perf_counter() - wall0
    assert len(sampler.samples) >= 5 and paused > 0
    assert abs(clocked + paused - wall) < 0.005


def test_typical_drops_the_extremes():
    assert speed.typical([1.0] * 8 + [100.0, 0.001]) == 1.0
    assert speed.typical([2.0, 4.0]) == 3.0


def test_local_scale_uses_the_samples_near_a_call():
    sampler = speed.Sampler()
    sampler.times = [float(t) for t in range(20)]
    sampler.samples = [1.0] * 10 + [2.0] * 10
    assert sampler.local_scale(2.0, 0.01) == speed.NOMINAL_S / 1.0
    assert sampler.local_scale(15.0, 0.01) == speed.NOMINAL_S / 2.0
    assert sampler.local_scale(0.0, 20.0) == speed.NOMINAL_S / 1.5


# -- metric names ----------------------------------------------------------------


def test_span_and_count_names_are_benchmark_metrics():
    source = (BENCH / "workloads.py").read_text()
    spans = set(re.findall(r'rec\.span\("([^"]+)"', source))
    counts = set(re.findall(r'rec\.count\("([^"]+)"', source))
    names = {s + "_s" for s in spans if not s.startswith("bench.")}
    names |= {f"verify.{s}_s" for s in SUITES} | counts
    assert names <= LAYER
    assert {name.split(".")[0] + ".self_s" for name in names} <= LAYER


def _session(traced, **extra):
    rec = {
        "setup_s": 0.2,
        "wall_s": 2.0,
        "time_to_peak_s": 1.0,
        "export_roundtrip_s": 1.0,
        "items": 10,
        "items_s": 2.0,
        "latencies": [0.5, 1.5],
        "traced": traced,
        "process_s": 2.5,
        "rss_mb": 50.0,
        "layer": {},
    }
    rec.update(extra)
    return rec


def test_workloads_equal_benchmark_json():
    assert {x["name"] for x in SPEC["workloads"]} == set(w.PLANS) == set(w.RUNS) == set(w.CHECKS)


def test_aggregated_names_equal_benchmark_json():
    sessions = [_session(True), _session(False)]
    assert set(run.end_to_end(sessions, [0.1, 0.2], 10, 0)) == E2E
    assert set(run.per_layer(sessions, sorted(LAYER))) == LAYER


def test_percentile_is_a_measured_value():
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 0.5) == 50.0
    assert run.percentile(values, 0.9) == 90.0
    assert run.percentile([3.0], 0.9) == 3.0


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_benchmark_metrics_last(trace):
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sums-mix", "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # a traced run alternates traced and untraced sessions; both count
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(w.sums_plan(5)) * run.MIN_SESSIONS
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == (LAYER if trace else E2E)
    if trace:
        assert metrics["sums.terms"] == w.sums_terms(w.sums_plan(5))
        assert metrics["sums.jacobi_brute_s"] > 0 and metrics["codebook.build_s"] == 0
    else:
        assert all(v > 0 for v in metrics.values())


def test_run_fails_without_the_package():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        r = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sums-mix", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare)
    assert r.returncode != 0
    assert r.stdout == ""
