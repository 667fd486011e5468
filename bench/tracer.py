"""In-memory spans for the benchmark's traced run.

A span records one call into a layer: its name, start and end, the span
that was open when it began, and the window being encoded at the time.
Spans stay in memory and are written out once, after the run. A span's
self time is its duration minus the durations of its direct children;
spans nest strictly because the program runs on one thread.
"""

from __future__ import annotations

import contextlib
import csv
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    window: int  # id of the window being encoded when the span opened, -1 before any


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.window = -1
        self._open: list[int] = []
        self._clock = clock

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self._clock(), 0.0, parent, self.window))
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index].end = self._clock()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def write(self, path) -> None:
        own = self_times(self.spans)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "parent", "window", "start_s", "end_s", "self_ms"])
            origin = self.spans[0].start if self.spans else 0.0
            for i, s in enumerate(self.spans):
                writer.writerow([i, s.name, s.parent, s.window, f"{s.start - origin:.6f}",
                                 f"{s.end - origin:.6f}", f"{own[i] * 1000.0:.4f}"])


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + own
    return totals


def total_time_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for s in spans:
        totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start)
    return totals

