"""Process-wide metrics: counters, gauges and timers with tagged series.

Every ``(name, tags)`` combination is one *series*; the registry creates a
series on first touch and accumulates into it thereafter, so call sites can
write ``registry.counter("halo.bytes", ranks=4).inc(n)`` unconditionally.
Unlike the tracer there is no disabled state — a metric update is one dict
lookup plus an addition, cheap enough to leave on always — which also makes
autotuning trajectories and halo traffic replayable after the fact.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
]


def _series_key(name: str, tags: dict) -> tuple:
    return (name, tuple(sorted((k, str(v)) for k, v in tags.items())))


#: Serializes every counter and timer update: the ensemble's member-block
#: threads touch the same series (``engine.plan.compile``, the ``engine.plan``
#: timers), and an unlocked read-modify-write can lose an update.
_UPDATE_LOCK = threading.Lock()


class Counter:
    """Monotonically increasing total (bytes moved, exchanges performed)."""

    __slots__ = ("name", "tags", "value")
    kind = "counter"

    def __init__(self, name: str, tags: dict) -> None:
        self.name = name
        self.tags = tags
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with _UPDATE_LOCK:
            self.value += amount

    def snapshot(self) -> dict:
        return {"value": self.value}


class Gauge:
    """Last-written value (a split fraction, a trial makespan)."""

    __slots__ = ("name", "tags", "value")
    kind = "gauge"

    def __init__(self, name: str, tags: dict) -> None:
        self.name = name
        self.tags = tags
        self.value = math.nan

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> dict:
        return {"value": self.value}


class Timer:
    """Observation statistics (count / total / min / max / mean)."""

    __slots__ = ("name", "tags", "count", "total", "min", "max")
    kind = "timer"

    def __init__(self, name: str, tags: dict) -> None:
        self.name = name
        self.tags = tags
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, seconds: float) -> None:
        with _UPDATE_LOCK:
            self.count += 1
            self.total += seconds
            self.min = min(self.min, seconds)
            self.max = max(self.max, seconds)

    def absorb(self, count: int, total: float, min_s: float, max_s: float) -> None:
        """Fold another timer's statistics into this one (cross-process merge)."""
        if count <= 0:
            return
        with _UPDATE_LOCK:
            self.count += int(count)
            self.total += total
            self.min = min(self.min, min_s)
            self.max = max(self.max, max_s)

    @contextmanager
    def time(self) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - t0)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else math.nan,
            "max": self.max if self.count else math.nan,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Get-or-create home of all tagged series in one process."""

    def __init__(self) -> None:
        self._series: dict[tuple, object] = {}
        self._create = threading.Lock()

    def _get(self, cls, name: str, tags: dict):
        key = _series_key(name, tags)
        series = self._series.get(key)
        if series is None:
            # Under a lock: concurrent first touches must share one object.
            with self._create:
                series = self._series.setdefault(key, cls(name, tags))
        if not isinstance(series, cls):
            raise TypeError(
                f"series {name!r} {tags!r} already registered as {series.kind}"
            )
        return series

    def counter(self, name: str, **tags) -> Counter:
        return self._get(Counter, name, tags)

    def gauge(self, name: str, **tags) -> Gauge:
        return self._get(Gauge, name, tags)

    def timer(self, name: str, **tags) -> Timer:
        return self._get(Timer, name, tags)

    # ------------------------------------------------------------ inspection
    def series(self, name: str | None = None) -> list:
        """All series, optionally filtered by metric name."""
        out = [s for s in self._series.values() if name is None or s.name == name]
        return sorted(out, key=lambda s: _series_key(s.name, s.tags))

    def snapshot(self) -> list[dict]:
        """JSON-ready dump of every series (exporter input)."""
        return [
            {
                "metric": s.name,
                "kind": s.kind,
                "tags": {k: v for k, v in s.tags.items()},
                **s.snapshot(),
            }
            for s in self.series()
        ]

    def merge_snapshot(self, snapshot: list[dict], **extra_tags) -> int:
        """Fold a :meth:`snapshot` from another registry into this one.

        The cross-process half of observability: worker processes snapshot
        their private registry and ship the list over a pipe; the parent
        merges each series here, with ``extra_tags`` (conventionally
        ``rank=r``) appended so per-worker series stay distinguishable.
        Counters accumulate, gauges keep the last merged value, timers fold
        their full statistics.  Returns the number of series merged.
        """
        for record in snapshot:
            tags = dict(record["tags"])
            tags.update(extra_tags)
            kind = record["kind"]
            if kind == "counter":
                self.counter(record["metric"], **tags).inc(record["value"])
            elif kind == "gauge":
                self.gauge(record["metric"], **tags).set(record["value"])
            elif kind == "timer":
                self.timer(record["metric"], **tags).absorb(
                    record["count"], record["total"], record["min"], record["max"]
                )
            else:  # pragma: no cover - future kinds must be handled explicitly
                raise ValueError(f"cannot merge series of kind {kind!r}")
        return len(snapshot)

    def clear(self) -> None:
        self._series.clear()

    def __len__(self) -> int:
        return len(self._series)


# ------------------------------------------------------------ global registry
_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _GLOBAL


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` process-wide; returns the old one."""
    global _GLOBAL
    old = _GLOBAL
    _GLOBAL = registry
    return old


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Temporarily install ``registry`` process-wide."""
    old = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(old)
