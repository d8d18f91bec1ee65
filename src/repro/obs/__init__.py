"""repro.obs: structured tracing and metrics for every pipeline.

The observability layer the selection systems report through — the
one place to ask *where time and work go* inside a run:

* :func:`span` — hierarchical trace spans (``span("catapult.
  cluster")``) recording wall time, parent/child structure, and
  arbitrary counters; they record only inside a capture and cost
  one context-variable read outside one.
* :func:`capture` — bound one run and collect its finished trace
  tree; ``force=True`` (the per-run ``config.trace`` switch) starts
  a trace private to the calling thread's context.
* :func:`attach_record` — merge serializable span records shipped
  back from :func:`repro.perf.pmap` workers, so a parallel run's
  trace is identical to the serial one up to wall-clock fields.
* :func:`snapshot` / :func:`reset` — the process-local metrics
  registry plus the live matching-stack counters: the one stats
  endpoint of the library.
* :func:`format_trace` / :func:`write_trace` — human-readable and
  JSON export (``repro-vqi build --trace out.json``).

Stdlib-only; heavier repro modules are imported lazily inside
:func:`snapshot`/:func:`reset` so this package sits below everything
else in the import graph.
"""

from repro.obs.export import (
    TRACE_FORMAT_VERSION,
    WIRE_SCHEMA,
    format_trace,
    read_trace,
    stage_breakdown,
    trace_envelope,
    trace_to_json,
    write_trace,
)
from repro.obs.metrics import (
    MetricsRegistry,
    inc,
    matching_snapshot,
    observe,
    registry,
    reset,
    set_gauge,
    snapshot,
)
from repro.obs.tracing import (
    NULL_SPAN,
    Span,
    SpanRecord,
    add,
    attach_record,
    capture,
    new_record,
    span,
    strip_wall_clock,
    tracing_enabled,
)

__all__ = [
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "SpanRecord",
    "TRACE_FORMAT_VERSION",
    "WIRE_SCHEMA",
    "add",
    "attach_record",
    "capture",
    "format_trace",
    "inc",
    "matching_snapshot",
    "new_record",
    "observe",
    "read_trace",
    "registry",
    "reset",
    "set_gauge",
    "snapshot",
    "span",
    "stage_breakdown",
    "strip_wall_clock",
    "trace_envelope",
    "trace_to_json",
    "tracing_enabled",
    "write_trace",
]
