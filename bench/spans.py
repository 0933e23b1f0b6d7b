"""In-memory spans for timing nested calls, with self time computed at the end.

A span has a name, a start and an end (perf_counter seconds), the index of
its parent span and a trace id shared by every span of one work item.  The
current span travels in a ContextVar, so nesting follows the call stack.
Nothing is written while spans are recorded; `dump` writes them once, when
the run ends.
"""

from __future__ import annotations

import contextvars
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# (index of the current span or -1, trace id of the current item)
_CURRENT: contextvars.ContextVar[tuple[int, int]] = contextvars.ContextVar(
    "bench_current_span", default=(-1, 0))


class Spans:
    """Recorder of (name, start, end, parent, trace_id) tuples."""

    def __init__(self):
        self.records: list = []
        self._next_trace = 1

    @contextmanager
    def span(self, name: str, new_item: bool = False):
        """Time the body as a child of the current span.

        With new_item the span starts a new trace id, so it and everything
        below it are one work item.
        """
        parent, trace_id = _CURRENT.get()
        if new_item:
            trace_id = self._next_trace
            self._next_trace += 1
        idx = len(self.records)
        self.records.append(None)
        token = _CURRENT.set((idx, trace_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            self.records[idx] = (name, start, end, parent, trace_id)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive busy time and self time."""
        child_time = [0.0] * len(self.records)
        for name, start, end, parent, _ in self.records:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, _, _) in enumerate(self.records):
            row = out[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child_time[idx]
        return dict(out)

    def root_time(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(end - start for _, start, end, parent, _ in self.records
                   if parent < 0)

    def dump(self, path) -> None:
        """Write the spans as JSON: a name table and one row per span."""
        names: dict[str, int] = {}
        rows = []
        origin = self.records[0][1] if self.records else 0.0
        for name, start, end, parent, trace_id in self.records:
            rows.append([names.setdefault(name, len(names)),
                         round((start - origin) * 1e6),
                         round((end - origin) * 1e6), parent, trace_id])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_us", "end_us", "parent",
                                  "trace_id"],
                       "names": list(names), "spans": rows}, fh,
                      separators=(",", ":"))
