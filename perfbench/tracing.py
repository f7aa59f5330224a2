"""In-memory spans and counts for the traced benchmark run.

A span records name, start, end, parent span and the iteration it belongs
to.  Spans are opened only by the benchmark's own code, around its calls
into one module of so21, so the trace stops at the module boundary.  The
untraced run uses :data:`NULL` instead, whose spans cost one attribute
lookup and two no-op method calls.
"""

from __future__ import annotations

import statistics
import time


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Tracer that records nothing; used for every untraced measurement."""

    enabled = False
    _SPAN = _NullSpan()

    def span(self, name):
        return self._SPAN

    def begin_iteration(self, label):
        pass


NULL = NullTracer()


class _Span:
    __slots__ = ("tracer", "name", "start", "parent", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.parent = tr._stack[-1] if tr._stack else None
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        tr.spans[self.index] = (self.name, self.start, end, self.parent, tr.iteration)
        return False


class Tracer:
    """Records spans and counts in memory; :meth:`summary` aggregates them."""

    enabled = True

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self.iteration = None
        self._stack: list = []
        self._iterations = 0

    def span(self, name):
        return _Span(self, name)

    def count(self, name, value):
        self.counts[name] = value

    def begin_iteration(self, label):
        """Tag the spans that follow with a fresh iteration id."""
        self._iterations += 1
        self.iteration = f"{label}#{self._iterations}"

    def durations(self, name) -> list[float]:
        return [end - start for (n, start, end, _, _) in self.spans if n == name]

    def self_times(self) -> dict:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; the benchmark's spans never overlap their siblings.
        """
        child_total = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_total[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_total[i]
        return out

    def median(self, name) -> float:
        values = self.durations(name)
        if not values:
            raise KeyError(f"no span named {name!r} was recorded")
        return statistics.median(values)

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "iteration": it}
            for (n, s, e, p, it) in self.spans
        ]
