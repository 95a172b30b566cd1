"""In-memory spans recorded by the benchmark around its calls into gwolab.

A span holds its name, start and end (``time.perf_counter``, which reads
the system-wide monotonic clock on Linux, so spans reported by child
processes line up with the parent's), the index of its parent span and
the id of the pass it belongs to.  Nothing is written until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.pass_id: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        parent = self._stack[-1] if self._stack else None
        self.add(name, time.perf_counter(), None, parent)
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end, parent) -> None:
        """Record a span; a finished one may come from a child process."""
        self.spans.append(
            {"name": name, "start": start, "end": end, "parent": parent, "pass": self.pass_id}
        )

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its children cover.

        Children of one parent never overlap here (one caller, one call
        at a time), so their durations can simply be summed.
        """
        own = [s["end"] - s["start"] for s in self.spans]
        out = list(own)
        for s, dur in zip(self.spans, own):
            if s["parent"] is not None:
                out[s["parent"]] -= dur
        return out

    def self_time_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for s, t in zip(self.spans, self.self_times()):
            totals[s["name"]] = totals.get(s["name"], 0.0) + t
        return totals

    def export(self) -> list[dict]:
        return [dict(s, self_s=t) for s, t in zip(self.spans, self.self_times())]
