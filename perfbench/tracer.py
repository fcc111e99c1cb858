"""In-memory span recorder for the benchmark's traced runs.

A span is ``(name, start, end, parent)``: ``parent`` is the index of the
enclosing span in the same thread, or -1 for a top-level span.  Spans
are kept in one list and written out once, when the run ends.  The
layer of a span is the part of its name before the first dot
(``core.advance`` belongs to ``core``); a layer's self time is its
spans' durations minus the part their child spans cover.
"""

from __future__ import annotations

import json
import threading
import time

NO_PARENT = -1


class _Span:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        stack = tracer._stack()
        parent = stack[-1] if stack else NO_PARENT
        self._index = len(tracer.spans)
        tracer.spans.append([self._name, time.perf_counter(), 0.0, parent])
        stack.append(self._index)
        return self

    def __exit__(self, *exc: object) -> None:
        tracer = self._tracer
        tracer.spans[self._index][2] = time.perf_counter()
        tracer._stack().pop()


class Tracer:
    """Records nested spans; one stack of open spans per thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span under the innermost open one."""
        stack = self._stack()
        self.spans.append([name, start, end, stack[-1] if stack else NO_PARENT])

    def mark(self) -> int:
        """Position to pass to :meth:`summary` to cover later spans only."""
        return len(self.spans)

    def summary(self, since: int = 0, until: "int | None" = None) -> dict:
        """Totals and self time per span name, and top-level time.

        Covers the spans recorded between two :meth:`mark` positions.
        """
        spans = self.spans[since:until]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= since:
                child[parent - since] += end - start
        totals: dict[str, float] = {}
        self_time: dict[str, float] = {}
        top_level = 0.0
        for index, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            totals[name] = totals.get(name, 0.0) + duration
            self_time[name] = (
                self_time.get(name, 0.0) + duration - child[index]
            )
            if parent == NO_PARENT:
                top_level += duration
        return {
            "totals": totals,
            "self": self_time,
            "top_level": top_level,
            "spans": len(spans),
        }

    def write(self, path: str) -> None:
        """Write every span as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                },
                handle,
            )


class TimedStream:
    """Proxy for a geometry stream that records each call as a span.

    The scanline host calls ``next_top``/``fetch``/``labels`` on the
    stream it is handed; everything else (``stats``, ``chip_bbox``)
    passes through untimed.
    """

    def __init__(self, stream: object, tracer: Tracer, name: str) -> None:
        self._stream = stream
        self._tracer = tracer
        self._name = name

    def next_top(self):
        start = time.perf_counter()
        value = self._stream.next_top()
        self._tracer.record(self._name, start, time.perf_counter())
        return value

    def fetch(self, y):
        start = time.perf_counter()
        value = self._stream.fetch(y)
        self._tracer.record(self._name, start, time.perf_counter())
        return value

    def labels(self):
        start = time.perf_counter()
        value = self._stream.labels()
        self._tracer.record(self._name, start, time.perf_counter())
        return value

    def __getattr__(self, name: str):
        return getattr(self._stream, name)
