"""Nested, labelled span tracing — the measurement substrate of the repo.

The paper's method is measurement-driven: kernel profiles motivate the
Figure 2 placement, per-pattern costs drive the Figure 4b hybrid split, and
the Figure 6 ladder is a sequence of measured deltas.  :class:`Tracer` makes
those measurements first-class: a stack of labelled spans, each carrying the
tags the rest of the repo speaks in (pattern id A-H, kernel name, mesh-point
type, element count, estimated bytes moved).

Spans come from two clocks:

* *wall* spans (``tracer.span(...)`` as a context manager) time real NumPy
  kernel executions with ``time.perf_counter``, relative to the tracer's
  creation so numbers stay small and exportable;
* *simulated* spans (``tracer.add_span(...)`` with explicit times) record
  the discrete-event timelines of :mod:`repro.hybrid.executor`, which have
  their own model time axis.

A process-wide tracer (:func:`get_tracer`) is installed but *disabled* by
default; every instrumentation site checks ``enabled`` first and returns a
shared no-op span, so an untraced run pays one attribute check and one
no-op context manager per kernel call (far below 1% of kernel cost).

Any thread may record: each keeps its own stack of open spans, so a span
opened on a plan lane or an ensemble worker nests under that thread's open
spans (the first one a thread opens is a root; no parent link crosses
threads), and carries the tracer's ordinal for that thread as its ``thread``
tag (0 for the first thread that records).  Indices are assigned and spans
appended under one lock, taken only while enabled.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "SpanRecord",
    "Tracer",
    "NULL_SPAN",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "trace_span",
]


class SpanRecord:
    """One completed (or in-flight) span.

    ``start``/``end`` are seconds on the owning tracer's time axis;
    ``end`` is ``None`` while the span is still open.  ``parent`` is the
    index of the enclosing span in ``tracer.spans`` (``None`` at the root),
    ``depth`` the nesting level, and ``tags`` an arbitrary mapping — by
    convention ``pattern``, ``kind``, ``kernel``, ``point``, ``n_points``
    and ``bytes_est`` for pattern spans, and always ``thread``: the ordinal
    of the thread that recorded it, whose open span ``parent`` is.
    """

    __slots__ = ("index", "name", "category", "start", "end", "parent", "depth", "tags")

    def __init__(
        self,
        index: int,
        name: str,
        category: str,
        start: float,
        end: float | None,
        parent: int | None,
        depth: int,
        tags: dict,
    ) -> None:
        self.index = index
        self.name = name
        self.category = category
        self.start = start
        self.end = end
        self.parent = parent
        self.depth = depth
        self.tags = tags

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "depth": self.depth,
            "tags": dict(self.tags),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dur = "open" if self.end is None else f"{self.duration * 1e3:.3f} ms"
        return f"SpanRecord({self.name!r}, {self.category}, {dur}, depth={self.depth})"


class _NullSpan:
    """Shared no-op context manager returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager that finalizes one :class:`SpanRecord` on exit."""

    __slots__ = ("_tracer", "_record", "_stack")

    def __init__(self, tracer: "Tracer", record: SpanRecord, stack: list[int]) -> None:
        self._tracer = tracer
        self._record = record
        self._stack = stack

    def __enter__(self) -> SpanRecord:
        return self._record

    def __exit__(self, *exc) -> bool:
        self._record.end = self._tracer.now()
        stack = self._stack  # the opening thread's; an exception may unwind several
        while stack and stack[-1] >= self._record.index:
            stack.pop()
        return False


class Tracer:
    """Records nested spans on a private time axis starting at creation."""

    def __init__(self, enabled: bool = True, clock=time.perf_counter) -> None:
        self.enabled = enabled
        self._clock = clock
        self._t0 = clock()
        self.spans: list[SpanRecord] = []
        self._lock = threading.Lock()
        self._local = threading.local()  # .stack, .ordinal
        self._threads = 0

    # ------------------------------------------------------------------ time
    def now(self) -> float:
        """Seconds since tracer creation (the wall-span time axis)."""
        return self._clock() - self._t0

    # ----------------------------------------------------------------- spans
    def _record(self, name: str, category: str, start: float, end: float | None, tags: dict):
        """Append a span under the calling thread's innermost open span;
        returns that thread's stack and the record."""
        local = self._local
        with self._lock:
            if not hasattr(local, "stack"):
                local.stack, local.ordinal, self._threads = [], self._threads, self._threads + 1
            stack = local.stack
            tags.setdefault("thread", local.ordinal)
            record = SpanRecord(
                len(self.spans), name, category, start, end,
                stack[-1] if stack else None, len(stack), tags,
            )
            self.spans.append(record)
        return stack, record

    def span(self, name: str, category: str = "kernel", **tags):
        """Open a nested span; use as ``with tracer.span(...):``."""
        if not self.enabled:
            return NULL_SPAN
        stack, record = self._record(name, category, self.now(), None, tags)
        stack.append(record.index)
        return _ActiveSpan(self, record, stack)

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        category: str = "sim",
        **tags,
    ) -> SpanRecord | None:
        """Record a span with explicit times (simulated timelines).

        Returns the record, or ``None`` when tracing is disabled.
        """
        if not self.enabled:
            return None
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts")
        return self._record(name, category, start, end, tags)[1]

    def merge_records(self, records: list[dict], **extra_tags) -> int:
        """Absorb finished spans exported by another tracer (``to_dict``).

        The cross-process half of tracing: pool workers export their
        finished spans as dicts and the parent merges them here with
        ``extra_tags`` (conventionally ``rank=r``).  Parent/child tracers
        have different time origins, so merged spans keep their own time
        axis and are appended as roots (parent links inside one worker are
        not preserved — aggregation is by name/tag, which survives).
        Returns the number of spans merged; no-op while disabled.
        """
        if not self.enabled:
            return 0
        merged = 0
        for rec in records:
            if rec.get("end") is None:
                continue
            tags = dict(rec.get("tags", {}))
            tags.update(extra_tags)
            self.add_span(
                rec["name"],
                rec["start"],
                rec["end"],
                category=rec.get("category", "kernel"),
                **tags,
            )
            merged += 1
        return merged

    # ------------------------------------------------------------ inspection
    def finished(self) -> list[SpanRecord]:
        return [s for s in self.spans if s.end is not None]

    def roots(self) -> list[SpanRecord]:
        return [s for s in self.spans if s.parent is None]

    def children(self, record: SpanRecord) -> list[SpanRecord]:
        return [s for s in self.spans if s.parent == record.index]

    def aggregate(self, tag: str, category: str | None = None) -> dict[str, float]:
        """Total duration of finished spans, grouped by one tag's value."""
        totals: dict[str, float] = {}
        for s in self.finished():
            if category is not None and s.category != category:
                continue
            key = s.tags.get(tag)
            if key is None:
                continue
            key = str(key)
            totals[key] = totals.get(key, 0.0) + s.duration
        return totals

    def aggregate_names(self, category: str | None = None) -> dict[str, float]:
        """Total duration of finished spans, grouped by span name."""
        totals: dict[str, float] = {}
        for s in self.finished():
            if category is not None and s.category != category:
                continue
            totals[s.name] = totals.get(s.name, 0.0) + s.duration
        return totals

    def clear(self) -> None:
        """Drop every span and the calling thread's open-span stack."""
        with self._lock:
            self.spans.clear()
        if hasattr(self._local, "stack"):
            self._local.stack.clear()

    def __len__(self) -> int:
        return len(self.spans)


# -------------------------------------------------------------- global tracer
_GLOBAL = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-wide tracer (disabled unless one was installed)."""
    return _GLOBAL


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-wide tracer; returns the old one."""
    global _GLOBAL
    old = _GLOBAL
    _GLOBAL = tracer
    return old


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Temporarily install ``tracer`` as the process-wide tracer."""
    old = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(old)


def trace_span(name: str, category: str = "kernel", **tags):
    """Open a span on the process-wide tracer (no-op when disabled)."""
    t = _GLOBAL
    if not t.enabled:
        return NULL_SPAN
    return t.span(name, category=category, **tags)
