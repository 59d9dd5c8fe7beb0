"""In-memory span recorder used by the traced benchmark passes.

A span is one call into a layer's public function, recorded from the
benchmark's side of the call: name, start, end, parent span and request id.
Spans stay in memory until the run ends and are written out once.  Self time
is a span's duration minus the part of its interval that its children cover;
children that ran in parallel on pool threads are merged before subtracting.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter_ns


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    request: int | None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """Thread-safe span collector.

    Nesting is tracked per thread; work handed to a pool thread passes its
    parent span and request id explicitly.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, int | None]]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, request: int | None = None, parent: int | None = None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][0]
        if request is None and stack:
            request = stack[-1][1]
        with self._lock:
            sid = next(self._ids)
        stack.append((sid, request))
        start = perf_counter_ns()
        try:
            yield sid
        finally:
            end = perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, request))

    def as_dicts(self) -> list[dict]:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.id)]


def _covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Total length of the union of half-open intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time in ns of every span, keyed by span id."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is None:
            continue
        start = max(s.start_ns, parent.start_ns)
        end = min(s.end_ns, parent.end_ns)
        if end > start:
            children.setdefault(parent.id, []).append((start, end))
    return {s.id: s.duration_ns - _covered_ns(children.get(s.id, [])) for s in spans}


def layer_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total and self seconds, mean self seconds per call."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration_ns / 1e9
        row["self_s"] += selfs[s.id] / 1e9
    for row in table.values():
        row["mean_self_s"] = row["self_s"] / row["calls"]
    return table
