"""galois-sums benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a checkout.  Workloads: sums-mix, codebook-q5,
verify-all, ring-tables (see perfbench/README.md).  Every session runs in a
fresh interpreter, one at a time, so no session sees another's caches.
Sessions repeat the same seeded inputs until T seconds have passed, at least
three times; metrics are medians over sessions.  Times are scaled to a
nominal machine speed measured alongside them (see speed.py).  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics; the metrics are the end-to-end ones of BENCHMARK.json, or with
--trace 1 the per-layer ones.
The run's sessions and spans are written to perfbench/out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
SETUP_PROBES = 5
MIN_SESSIONS = 3  # a median of three resists one session hit by a slow spell
SESSION_TIMEOUT_S = 60
ENV_KEYS = (
    "GALOIS_SUMS_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "PYTHONHASHSEED",
)


class SessionFailed(Exception):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args: list[str]) -> tuple[int, bytes, float, float]:
    """Run one child to completion: (exit code, stdout, wall s, peak RSS MB).

    `args` follow the interpreter; "{launch}" in them is replaced by the
    monotonic launch time.  The child is killed after SESSION_TIMEOUT_S.
    """
    t0 = time.monotonic()
    cmd = [sys.executable] + [a.replace("{launch}", repr(t0)) for a in args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=_child_env())
    timer = threading.Timer(SESSION_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out, time.monotonic() - t0, usage.ru_maxrss / 1024


def _last_json(out: bytes) -> dict:
    lines = out.decode(errors="replace").strip().splitlines()
    if not lines:
        raise SessionFailed("no output")
    return json.loads(lines[-1])


def setup_probe(workload: str, seed: int) -> float:
    rc, out, _, _ = spawn(
        ["perfbench/session.py", "--workload", workload, "--seed", str(seed),
         "--launch", "{launch}", "--setup-only"]
    )
    if rc != 0:
        raise SessionFailed(f"set-up probe exited {rc}")
    return _last_json(out)["setup_s"]


def session(workload: str, seed: int, traced: bool, index: int) -> dict:
    """One session in a fresh interpreter, measured from outside as well."""
    rc, out, wall, rss = spawn(
        ["perfbench/session.py", "--workload", workload, "--seed", str(seed),
         "--launch", "{launch}", "--trace", str(int(traced)),
         "--run-id", f"{workload}/{seed}/{index}"]
    )
    if rc != 0:
        raise SessionFailed(f"session exited {rc}")
    rec = _last_json(out)
    rec.update(traced=traced, process_s=wall, rss_mb=rss)
    return rec


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: a value as measured, never interpolated."""
    s = sorted(values)
    return s[max(0, math.ceil(p * len(s)) - 1)]


def end_to_end(sessions: list[dict], setups: list[float], attempted: int, failed: int) -> dict:
    med = statistics.median
    latencies = [x for s in sessions for x in s["latencies"]]
    return {
        "wall_s": med(s["wall_s"] for s in sessions),
        "setup_s": med(setups),
        "peak_rss_mb": med(s["rss_mb"] for s in sessions),
        "ok_frac": 1.0 - failed / attempted,
        "query_p50_ms": 1000 * percentile(latencies, 0.5),
        "query_p90_ms": 1000 * percentile(latencies, 0.9),
        "terms_per_s": med(s["items"] / s["items_s"] for s in sessions),
        "time_to_peak_s": med(s["time_to_peak_s"] for s in sessions),
        "export_roundtrip_s": med(s["export_roundtrip_s"] for s in sessions),
    }


def per_layer(sessions: list[dict], names: list[str]) -> dict:
    traced = [s for s in sessions if s["traced"]]
    plain = [s for s in sessions if not s["traced"]]
    out = {
        name: statistics.median(s["layer"].get(name, 0) for s in traced)
        for name in names
        if name != "trace.overhead_s"
    }
    out["trace.overhead_s"] = statistics.median(s["wall_s"] for s in traced) - statistics.median(
        s["wall_s"] for s in plain
    )
    return out


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "galois_sums").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            r = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = r.stdout.strip() or None
        except OSError:  # git not installed: the source digest still identifies the code
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in ENV_KEYS},
        "machine": platform.machine(),
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "galois_sums" / "__init__.py").is_file():
        print(f"error: no galois_sums package under {SRC}", file=sys.stderr)
        return 2
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    sys.path[:0] = [str(BENCH_DIR), str(SRC)]
    import speed

    env = environment(args.seed)
    attempted = failed = 0
    failures: list[str] = []
    setups, sessions = [], []
    try:
        for _ in range(SETUP_PROBES):
            setups.append(setup_probe(args.workload, args.seed))
        deadline = time.monotonic() + args.seconds
        while True:
            traced = bool(args.trace) and len(sessions) % 2 == 0
            try:
                rec = session(args.workload, args.seed, traced, len(sessions))
            except (SessionFailed, ValueError, KeyError) as exc:
                attempted += 1
                failed += 1
                failures.append(f"session {len(sessions)}: {exc}")
                break
            sessions.append(rec)
            attempted += rec["attempted"]
            failed += rec["failed"]
            failures += rec["failures"]
            kinds = {s["traced"] for s in sessions}
            if (
                time.monotonic() >= deadline
                and len(sessions) >= MIN_SESSIONS
                and (not args.trace or len(kinds) == 2)
            ):
                break
    except SessionFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not sessions or (args.trace and len({s["traced"] for s in sessions}) < 2):
        print("error: no complete session; " + "; ".join(failures), file=sys.stderr)
        return 1
    setups += [s["setup_s"] for s in sessions]

    if args.trace:
        metrics = per_layer(sessions, list(units))
    else:
        metrics = end_to_end(sessions, setups, attempted, failed)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json", file=sys.stderr)
        return 1

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    record = {"env": env, "workload": args.workload, "setups": setups, "sessions": sessions, "metrics": metrics}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    print("env " + json.dumps(env))
    queries = sum(len(s["latencies"]) for s in sessions)
    print(f"workload {args.workload}: {len(sessions)} sessions, {queries} queries, {len(setups)} set-ups")
    raw = statistics.median(s["raw_wall_s"] for s in sessions)
    ref = statistics.median(s["ref_typical_s"] for s in sessions)
    print(f"unscaled wall_s {raw!r} s; reference loop {ref!r} s, nominal {speed.NOMINAL_S!r} s")
    for f in failures[:20]:
        print(f"FAILED {f}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
