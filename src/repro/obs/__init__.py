"""Observability: nested-span tracing, metrics, Chrome-trace export.

The subsystem is dependency-free and always importable; instrumentation
call sites use :func:`span` unconditionally and pay a near-zero no-op
cost until a tracer is installed (``--trace-out`` on the CLI, or a
``"trace": true`` request flag on the serve protocol).
"""

from .metrics import (
    BUCKETS,
    Histogram,
    MetricsRegistry,
    registry,
    reset_counters,
)
from .trace import (
    NULL_SPAN,
    SpanRecord,
    Tracer,
    activated,
    annotate,
    chrome_events,
    get_tracer,
    leaf_span,
    set_process_tracer,
    span,
    tracing_active,
    write_chrome_trace,
)

__all__ = [
    "BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "SpanRecord",
    "Tracer",
    "activated",
    "annotate",
    "chrome_events",
    "get_tracer",
    "leaf_span",
    "registry",
    "reset_counters",
    "set_process_tracer",
    "span",
    "tracing_active",
    "write_chrome_trace",
]
