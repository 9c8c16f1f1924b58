"""In-memory spans and counters recorded around the benchmark's own calls
into backedge.

Counters (calls, nodes, conflicts, cells, ...) are read from the values the
public functions return, so they are collected in every run.  Spans (name,
start, end, parent span, job id) are recorded only when tracing is on, kept
in a list, and aggregated when the run ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from typing import Callable, Optional


_NO_SPAN = nullcontext()


class Span:
    __slots__ = ("name", "start", "end", "parent", "job")

    def __init__(self, name: str, parent: int, job: Optional[str]):
        self.name = name
        self.parent = parent
        self.job = job
        self.start = time.perf_counter()
        self.end = self.start

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    """Counters always; spans only when `enabled`."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.job: Optional[str] = None
        self._open: list[int] = []
        self._closed = -1

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def span(self, name: str):
        """Context manager timing a block that makes several calls."""
        return self._timed(name) if self.enabled else _NO_SPAN

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call `fn` inside a span named `name`."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self._timed(name):
            return fn(*args, **kwargs)

    def label(self, outcome: str) -> None:
        """Append ``.outcome`` (e.g. ``sat``) to the span that closed last."""
        if self.enabled:
            self.spans[self._closed].name += f".{outcome}"

    @contextmanager
    def _timed(self, name: str):
        index = len(self.spans)
        self.spans.append(Span(name, self._open[-1] if self._open else -1, self.job))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self._closed = index
            self.spans[index].end = time.perf_counter()


def aggregate(spans: list[Span]) -> tuple[dict[str, float], dict[str, float]]:
    """Per span name: total duration.  Per top-level module (the part of the
    name before the first dot): total self time, a span's duration minus the
    time its direct children cover."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    busy: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        duration = span.end - span.start
        busy[span.name] += duration
        self_time[span.name.split(".", 1)[0]] += duration - child_time[index]
    return dict(busy), dict(self_time)
