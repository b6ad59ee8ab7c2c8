"""Lightweight tracing spans for the campaign/ensemble hot paths.

A :class:`Tracer` hands out context-managed spans — named, attributed,
nested timers — and keeps the most recent completed spans in a bounded
ring buffer.  Spans serve two purposes:

* **Latency attribution** — a span can observe its duration straight into a
  :class:`polygraphmr.metrics.Histogram`, so per-trial / per-load latency
  distributions come for free.
* **Structure** — parent/child links reconstruct where time went inside a
  trial (assemble → decide → inject) without a logging dependency.

Spans are strictly out-of-band, like metrics: they never touch journal or
checkpoint bytes.  Each process has its own tracer (:func:`get_tracer`);
forked campaign workers reset theirs post-fork.  Span stacks are
thread-local, so a watchdog-abandoned trial thread cannot corrupt the main
thread's span nesting.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["SpanRecord", "Span", "Tracer", "get_tracer", "set_tracer"]

DEFAULT_MAX_SPANS = 4096


@dataclass
class SpanRecord:
    """One completed span; ``start_s`` is relative to the tracer's epoch."""

    span_id: int
    parent_id: int | None
    name: str
    start_s: float
    duration_s: float
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": round(self.start_s, 6),
            "duration_s": round(self.duration_s, 6),
            "attrs": dict(self.attrs),
        }


class Span:
    """Mutable handle yielded inside ``with tracer.span(...)``."""

    __slots__ = ("span_id", "parent_id", "name", "attrs")

    def __init__(self, span_id: int, parent_id: int | None, name: str, attrs: dict):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs

    def set(self, **attrs: object) -> Span:
        """Attach attributes discovered mid-span (e.g. the trial outcome)."""

        self.attrs.update(attrs)
        return self


class Tracer:
    """Collects completed spans into a bounded, per-process ring buffer."""

    def __init__(self, *, max_spans: int = DEFAULT_MAX_SPANS):
        self.max_spans = max_spans
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and restart the epoch (post-fork / per test)."""

        with self._lock:
            self._finished: deque[SpanRecord] = deque(maxlen=self.max_spans)
            self._ids = itertools.count(1)
            self._epoch = time.perf_counter()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, *, observe=None, **attrs: object):
        """Time a block; optionally ``observe`` the duration into a histogram.

        Nesting is tracked per thread: a span opened while another is active
        records that span as its parent.
        """

        with self._lock:
            span_id = next(self._ids)
        stack = self._stack()
        parent_id = stack[-1] if stack else None
        stack.append(span_id)
        handle = Span(span_id, parent_id, name, dict(attrs))
        start = time.perf_counter()
        try:
            yield handle
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            record = SpanRecord(
                span_id=span_id,
                parent_id=parent_id,
                name=name,
                start_s=start - self._epoch,
                duration_s=duration,
                attrs=handle.attrs,
            )
            with self._lock:
                self._finished.append(record)
            if observe is not None:
                observe.observe(duration)

    def finished(self) -> list[SpanRecord]:
        with self._lock:
            return list(self._finished)

    def to_dicts(self) -> list[dict]:
        """Completed spans, oldest first — what the metrics JSON export embeds."""

        return [r.to_dict() for r in self.finished()]


_default_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer the library's hot paths record into."""

    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-global tracer (returns the previous one)."""

    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer
    return previous
