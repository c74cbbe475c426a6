"""In-memory spans for the traced benchmark run.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
id of the span that was open when it started, and the id of the run it
belongs to.  Spans stay in memory until the run writes them out at exit.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str


class Tracer:
    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, time.perf_counter(), float("nan"), parent, self.run)
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()


def no_span(name: str):
    """Stand-in for ``Tracer.span`` in the untraced replay."""
    return contextlib.nullcontext()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    result = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[s.id] = (s.end - s.start) - covered
    return result


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for sid, t in self_times(spans).items():
        totals[spans[sid].name] += t
    return dict(totals)
