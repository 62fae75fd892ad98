"""In-memory span recorder for the traced benchmark run.

A span is a named interval with a parent; the spans of one operation share
a trace id.  Spans stay in memory until the run ends and are then written
as one JSON file.  A layer's self time is its span's duration minus the
durations of its child spans (children never overlap: the benchmark is one
thread and calls layers one after another).
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._trace_id = 0

    @contextmanager
    def operation(self, name, **counts):
        """Root span of a new trace (one benchmark operation or probe)."""
        if self._stack:
            raise RuntimeError("operation() opened inside another span")
        self._trace_id += 1
        tracemalloc.start()
        try:
            with self.span(name, **counts) as rec:
                yield rec
        finally:
            tracemalloc.stop()

    @contextmanager
    def span(self, name, peak=False, **counts):
        """Child span around one call into a layer.

        peak=True records the tracemalloc peak above the allocation level at
        span start; use it on leaf spans only, because it resets the peak.
        """
        rec = {
            "trace": self._trace_id,
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "counts": counts,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        if peak:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if peak:
                rec["peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
            self._stack.pop()

    def self_times(self):
        """Span id -> duration minus the time covered by child spans."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def layer_metrics(self):
        """Per span name: median self time per call, median counts per call,
        counts per second of self time, and median tracemalloc peak."""
        own = self.self_times()
        by_name = {}
        for s in self.spans:
            by_name.setdefault(s["name"], []).append(s)
        out = {}
        for name, group in by_name.items():
            busy = [own[s["id"]] for s in group]
            out[f"{name}.busy_s"] = statistics.median(busy)
            for key in group[0]["counts"]:
                values = [s["counts"][key] for s in group]
                out[f"{name}.{key}"] = statistics.median(values)
                out[f"{name}.{key}_per_s"] = sum(values) / sum(busy)
            peaks = [s["peak_mb"] for s in group if "peak_mb" in s]
            if peaks:
                out[f"{name}.peak_mb"] = statistics.median(peaks)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh, indent=1)
            fh.write("\n")
