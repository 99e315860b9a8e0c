"""Unified observability: tracing, metrics, exporters and cost reports.

The measurement layer every perf decision in this repo rests on (see
``docs/observability.md``):

* :mod:`repro.obs.trace` — nested, labelled spans (pattern id A-H, kernel,
  point type, element count, estimated bytes) with a process-wide tracer
  that is free when disabled;
* :mod:`repro.obs.metrics` — process-wide counters/gauges/timers with
  tagged series (halo traffic, split ratios, autotune trials);
* :mod:`repro.obs.export` — JSON-lines and Chrome ``chrome://tracing``
  trace-event output;
* :mod:`repro.obs.report` — per-pattern measured-vs-modeled cost tables
  joining the tracer with :mod:`repro.machine.cost`, plus the
  ``python -m repro.obs.report`` CLI.
"""

from .instrument import kernel_span, pattern_span
from .metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    Timer,
    get_registry,
    set_registry,
    use_registry,
)
from .trace import (
    NULL_SPAN,
    SpanRecord,
    Tracer,
    get_tracer,
    set_tracer,
    trace_span,
    use_tracer,
)

__all__ = [
    "kernel_span",
    "pattern_span",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "Timer",
    "get_registry",
    "set_registry",
    "use_registry",
    "NULL_SPAN",
    "SpanRecord",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "trace_span",
    "use_tracer",
]
