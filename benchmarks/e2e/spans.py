"""Harness-side span recorder for the traced run.

Spans are recorded here, around the harness's calls into each layer's public
functions, not inside the program: the benchmark defines its own boundaries
and stays independent of what ``repro.obs`` instruments.  Records are kept in
memory and written once, at exit, as ``trace.jsonl`` (one span per line) and a
Chrome ``trace.json``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    """Nested spans sharing one workload id."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **tags):
        record = {
            "id": len(self.records),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
            "tags": tags,
        }
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` under a span; return ``(seconds, result)``."""
        with self.span(name) as record:
            result = fn(*args, **kwargs)
        return record["end"] - record["start"], result

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part its direct children cover.

        Children of one parent never overlap here (the harness is single
        threaded), so the covered part is the sum of their durations.
        """
        covered: dict[int, float] = {}
        for r in self.records:
            if r["parent"] is not None and r["end"] is not None:
                covered[r["parent"]] = covered.get(r["parent"], 0.0) + (
                    r["end"] - r["start"]
                )
        return {
            r["id"]: (r["end"] - r["start"]) - covered.get(r["id"], 0.0)
            for r in self.records
            if r["end"] is not None
        }

    def self_time_by_name(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        by_id = self.self_times()
        out: dict[str, float] = {}
        for r in self.records:
            if r["id"] in by_id:
                out[r["name"]] = out.get(r["name"], 0.0) + by_id[r["id"]]
        return out

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        self_times = self.self_times()
        with open(directory / "trace.jsonl", "w", encoding="utf-8") as fh:
            for r in self.records:
                fh.write(json.dumps({**r, "self": self_times.get(r["id"])}) + "\n")
        origin = min((r["start"] for r in self.records), default=0.0)
        events = [
            {
                "name": r["name"],
                "cat": r["name"].split(".")[0],
                "ph": "X",
                "pid": 0,
                "tid": 0,
                "ts": (r["start"] - origin) * 1e6,
                "dur": (r["end"] - r["start"]) * 1e6,
                "args": {"workload": r["workload"], "parent": r["parent"], **r["tags"]},
            }
            for r in self.records
            if r["end"] is not None
        ]
        with open(directory / "trace.json", "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
