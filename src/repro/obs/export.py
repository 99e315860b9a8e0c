"""Trace/metric exporters: JSON-lines and Chrome ``chrome://tracing``.

Two formats, two audiences:

* **JSON-lines** — one self-describing JSON object per line (``type``:
  ``span`` | ``metric``), trivially greppable/streamable and loss-free:
  :func:`read_jsonl` round-trips everything :func:`write_jsonl` emits.
* **Chrome trace-event** — the ``{"traceEvents": [...]}`` JSON that
  ``chrome://tracing`` (or https://ui.perfetto.dev) renders as a flame
  chart.  Wall spans land on one track per recording thread; simulated
  executor spans land on one track per model resource (``cpu``, ``mic``,
  ``pcie_up``, ...), so a hybrid schedule reads exactly like Figure 4b.

Timestamps are microseconds (the Chrome convention) on the tracer's own
axis; tags ride along in each event's ``args``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Iterator

from .metrics import MetricsRegistry
from .trace import SpanRecord, Tracer

__all__ = [
    "write_jsonl",
    "read_jsonl",
    "chrome_trace_events",
    "write_chrome_trace",
    "validate_chrome_trace",
]

_US = 1e6  # seconds -> microseconds


# ------------------------------------------------------------------ JSON-lines
def jsonl_records(
    tracer: Tracer, registry: MetricsRegistry | None = None
) -> Iterator[dict]:
    """All export records: finished spans, then metric series."""
    for span in tracer.finished():
        yield {"type": "span", **span.to_dict()}
    if registry is not None:
        for rec in registry.snapshot():
            yield {"type": "metric", **rec}


def write_jsonl(
    tracer: Tracer,
    target: str | Path | IO[str],
    registry: MetricsRegistry | None = None,
) -> int:
    """Write one JSON object per line; returns the record count."""
    n = 0
    if hasattr(target, "write"):
        for rec in jsonl_records(tracer, registry):
            target.write(json.dumps(rec) + "\n")
            n += 1
        return n
    with open(target, "w") as fh:
        for rec in jsonl_records(tracer, registry):
            fh.write(json.dumps(rec) + "\n")
            n += 1
    return n


def read_jsonl(source: str | Path | IO[str]) -> tuple[list[SpanRecord], list[dict]]:
    """Parse a JSON-lines export back into span records and metric dicts."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = Path(source).read_text().splitlines()
    spans: list[SpanRecord] = []
    metrics: list[dict] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        kind = rec.pop("type", None)
        if kind == "span":
            spans.append(
                SpanRecord(
                    index=rec["index"],
                    name=rec["name"],
                    category=rec["category"],
                    start=rec["start"],
                    end=rec["end"],
                    parent=rec["parent"],
                    depth=rec["depth"],
                    tags=rec["tags"],
                )
            )
        elif kind == "metric":
            metrics.append(rec)
        else:
            raise ValueError(f"unknown JSONL record type {kind!r}")
    return spans, metrics


# ----------------------------------------------------------- Chrome trace JSON
def _tid_of(span: SpanRecord) -> str:
    """Track name: simulated spans go on their model resource's track, wall
    spans on their thread's (``wall:<ordinal>``)."""
    if span.category in ("sim", "halo-sim"):
        return f"sim:{span.tags.get('resource', 'model')}"
    return f"wall:{span.tags.get('thread', 0)}"


def chrome_trace_events(
    tracer: Tracer, registry: MetricsRegistry | None = None
) -> list[dict]:
    """The ``traceEvents`` list for one tracer (+ optional counter events)."""
    tids: dict[str, int] = {}
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "repro-mpas-hybrid"},
        }
    ]

    def tid(label: str) -> int:
        if label not in tids:
            tids[label] = len(tids)
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": tids[label],
                    "args": {"name": label},
                }
            )
        return tids[label]

    for span in tracer.finished():
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.start * _US,
                "dur": span.duration * _US,
                "pid": 0,
                "tid": tid(_tid_of(span)),
                "args": dict(span.tags),
            }
        )
    if registry is not None:
        for rec in registry.snapshot():
            if rec["kind"] not in ("counter", "gauge"):
                continue
            value = rec["value"]
            if value != value:  # skip never-set NaN gauges
                continue
            tag_str = ",".join(f"{k}={v}" for k, v in sorted(rec["tags"].items()))
            name = rec["metric"] + (f"{{{tag_str}}}" if tag_str else "")
            events.append(
                {
                    "name": name,
                    "ph": "C",
                    "ts": 0,
                    "pid": 0,
                    "args": {"value": value},
                }
            )
    return events


def write_chrome_trace(
    tracer: Tracer,
    target: str | Path | IO[str],
    registry: MetricsRegistry | None = None,
) -> int:
    """Write the Chrome trace JSON; returns the event count."""
    doc = {
        "traceEvents": chrome_trace_events(tracer, registry),
        "displayTimeUnit": "ms",
    }
    if hasattr(target, "write"):
        json.dump(doc, target)
    else:
        with open(target, "w") as fh:
            json.dump(doc, fh)
    return len(doc["traceEvents"])


def validate_chrome_trace(source: str | Path | IO[str] | dict) -> int:
    """Validate a Chrome trace document; returns the number of events.

    Checks the invariants ``chrome://tracing`` relies on: a ``traceEvents``
    list, known phases, non-negative ``ts``/``dur`` on complete events, and
    proper nesting (no partially-overlapping ``X`` events on one track).
    Raises :class:`ValueError` on the first violation.
    """
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        doc = json.loads(Path(source).read_text())
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("not a Chrome trace: missing 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")

    eps = 1e-6  # microsecond round-off slack
    by_tid: dict[tuple, list[tuple[float, float, str]]] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict) or "ph" not in ev or "name" not in ev:
            raise ValueError(f"event {i} lacks 'ph'/'name'")
        ph = ev["ph"]
        if ph not in ("X", "B", "E", "M", "C", "I"):
            raise ValueError(f"event {i} has unsupported phase {ph!r}")
        if ph in ("X", "C", "I") and ev.get("ts", 0) < 0:
            raise ValueError(f"event {i} has negative ts")
        if ph == "X":
            if ev.get("dur", -1.0) < 0:
                raise ValueError(f"event {i} ({ev['name']!r}) has negative dur")
            key = (ev.get("pid", 0), ev.get("tid", 0))
            by_tid.setdefault(key, []).append(
                (ev["ts"], ev["ts"] + ev["dur"], ev["name"])
            )
    for key, intervals in by_tid.items():
        intervals.sort()
        stack: list[tuple[float, float, str]] = []
        for start, end, name in intervals:
            while stack and start >= stack[-1][1] - eps:
                stack.pop()
            if stack and end > stack[-1][1] + eps:
                raise ValueError(
                    f"track {key}: {name!r} [{start:.3f},{end:.3f}] partially "
                    f"overlaps {stack[-1][2]!r} [..,{stack[-1][1]:.3f}]"
                )
            stack.append((start, end, name))
    return len(events)
