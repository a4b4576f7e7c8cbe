"""In-memory span recorder for the benchmark's client code.

A span wraps one call (or one loop of identical calls) that the benchmark
makes into a public function of galois_sums.  Span names are
"<layer>.<step>", so a span's layer is the part before the first dot.  Spans
are kept in memory and handed back when the session ends; nothing is written
while the session runs.  A disabled recorder keeps no spans and no counts.
``clock`` is the session's timer; the workloads time their queries with it
too, so that spans and latencies leave out the same paused time.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    def __init__(self, enabled: bool, run_id: str, clock=time.perf_counter):
        self.enabled = enabled
        self.run_id = run_id
        self.clock = clock
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, calls: int = 1):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        rec = {
            "id": sid,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "calls": calls,
            "run": self.run_id,
            "start": self.clock(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = self.clock()

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] += n


def span_totals(spans: list[dict]) -> dict[str, float]:
    """Total seconds per span name, plus self seconds per layer.

    A span's self time is its duration minus the durations of its direct
    children; spans of one session never overlap except by nesting.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        dur = s["end"] - s["start"]
        totals[s["name"] + "_s"] += dur
        layer = s["name"].split(".", 1)[0]
        totals[layer + ".self_s"] += dur - child_time[s["id"]]
    return dict(totals)
