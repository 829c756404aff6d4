"""In-memory spans recorded around calls into the library.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
id of the span that was open when it started, and a run id shared by every
span of one traced pass.  Nothing is written until the benchmark asks for
the records at the end of the run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self.run_id = None

    @contextmanager
    def span(self, name):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name):
        """Durations in seconds of the closed spans called ``name`` in the current run."""
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and s["run"] == self.run_id and s["end"] is not None
        ]

    def total(self, name):
        return sum(self.durations(name))


def no_span(name):
    """Stand-in for ``Tracer.span`` when tracing is off."""
    return nullcontext()


def self_times(spans):
    """Per span name: count, total seconds and self seconds.

    Self time is a span's duration minus the time its direct children
    cover.  Spans are recorded from one thread, so children never overlap
    and their durations add up.
    """
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + (s["end"] - s["start"])
    out = {}
    for s in spans:
        duration = s["end"] - s["start"]
        row = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time.get(s["id"], 0.0)
    return out
