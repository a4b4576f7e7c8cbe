"""One benchmark session in a fresh interpreter; run.py starts it.

    python3 perfbench/session.py --workload W --seed S --launch T [--trace 1] [--setup-only]

T is time.monotonic() in the parent just before the launch, so set-up time
runs from process launch to the start of the timed phase: interpreter start,
imports and input generation.  Prints one JSON line: the session's timings,
its checked operations and, when traced, its per-layer metrics and spans.
Every time is scaled to the nominal machine speed (see speed.py): set-up
time by reference loops run right after set-up, the rest by the samples
taken during the timed phase.  The raw times are in the record as well.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import speed
from spans import Recorder, span_totals

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def layer_metrics(rec: Recorder, scale: float) -> dict[str, float]:
    out: dict[str, float] = {k: v * scale for k, v in span_totals(rec.spans).items()}
    out.update(rec.counts)
    brute_s = sum(out.get(k, 0.0) for k in ("sums.gauss_s", "sums.jacobi_brute_s", "sums.tilde_brute_s"))
    out["sums.brute_terms_per_s"] = out.get("sums.terms", 0) / brute_s if brute_s else 0.0
    out["trace.spans"] = len(rec.spans)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launch", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--run-id", default="")
    args = ap.parse_args(argv)

    sampler = speed.Sampler()
    rec = Recorder(bool(args.trace), args.run_id, clock=sampler.clock)
    sys.path.insert(0, str(SRC))
    with rec.span("cli.import"):
        import galois_sums.cli
    if SRC.resolve() not in Path(galois_sums.cli.__file__).resolve().parents:
        print(f"error: galois_sums imported from {galois_sums.cli.__file__}, not {SRC}", file=sys.stderr)
        return 3
    import workloads

    plan = workloads.PLANS[args.workload](args.seed)
    raw_setup = time.monotonic() - args.launch
    setup_samples = speed.probe()
    setup_s = raw_setup * speed.scale(setup_samples)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    with sampler:
        t0 = sampler.clock()
        with rec.span("bench.session"):
            out = workloads.RUNS[args.workload](plan, rec)
        raw_wall = sampler.clock() - t0
    scale = speed.scale(sampler.samples)

    def local(start: float, seconds: float) -> float:
        return seconds * sampler.local_scale(start, seconds)

    checks = workloads.CHECKS[args.workload](plan, out)
    result = {
        "setup_s": setup_s,
        "wall_s": raw_wall * scale,
        "time_to_peak_s": local(*out.get("time_to_peak_s", (t0, raw_wall))),
        "export_roundtrip_s": local(*out.get("export_roundtrip_s", (t0, raw_wall))),
        "items": out["items"],
        "items_s": out.get("items_s", raw_wall) * scale,
        "latencies": [local(t, d) for t, d in out.get("queries", [(t0, raw_wall)])],
        "raw_setup_s": raw_setup,
        "raw_wall_s": raw_wall,
        "ref_samples": len(sampler.samples),
        "ref_typical_s": speed.NOMINAL_S / scale,
        **workloads.tally(checks),
    }
    if rec.enabled:
        result["layer"] = layer_metrics(rec, scale)
        result["spans"] = rec.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
