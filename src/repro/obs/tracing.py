"""Hierarchical trace spans, recorded per run.

A *span* is one timed region of a pipeline run — ``span("catapult.
cluster")`` — recording wall time, parent/child structure, and
arbitrary counters.  Spans nest through the open-span stack of the
current context, so the call tree of an instrumented run falls out of
ordinary ``with`` nesting; :func:`capture` bounds one run and hands
back the finished root record.

Tracing belongs to the run, not the process: spans record only inside
a ``capture(..., force=True)``, which is how ``config.trace=True`` and
``--trace`` work.  The open-span stack lives in one
:class:`contextvars.ContextVar` whose ``None`` means "off", so each
thread's capture is private and an untraced thread records nothing.
While off, ``span()`` returns one shared no-op context manager and
every other entry point bails on one context-variable read.

Span records are plain dicts — ``{"name", "duration", "counters",
"children"}`` — deliberately, so they pickle across
:func:`repro.perf.pmap` worker boundaries: a worker captures its
item's subtree, ships the record back with the result, and the parent
re-attaches it with :func:`attach_record` in input order.  A merged
trace is therefore identical at every worker count up to the
wall-clock fields.
"""

from __future__ import annotations

import time
from contextvars import ContextVar, Token
from typing import Dict, List, Optional, Union

#: Counter values are numbers (tallies) or strings (annotations).
CounterValue = Union[int, float, str]

#: A finished span: name, duration (seconds), counters, children.
SpanRecord = Dict[str, object]

#: Open spans of this context, innermost last; ``None`` while no
#: capture is open.  Threads start with it unset, and pool workers
#: trace their own items and ship the records back by value.
_trace_stack: "ContextVar[Optional[List[SpanRecord]]]" = ContextVar(
    "repro_trace_stack", default=None)

#: Bound once, so the off path skips an attribute lookup: this call
#: is all a span costs while tracing is off.
_open_stack = _trace_stack.get


def tracing_enabled() -> bool:
    """Whether a capture is open in this context."""
    return _open_stack() is not None


def new_record(name: str,
               counters: Optional[Dict[str, CounterValue]] = None
               ) -> SpanRecord:
    """A fresh, unfinished span record."""
    return {"name": name, "duration": 0.0,
            "counters": dict(counters or {}), "children": []}


def _bump(counters: Dict[str, CounterValue], key: str,
          value: CounterValue) -> None:
    if isinstance(value, str):
        counters[key] = value
    else:
        counters[key] = counters.get(key, 0) + value


class _NullSpan:
    """Shared do-nothing span returned while tracing is off (and the
    idle :func:`capture`, whose ``record`` stays ``None``)."""

    __slots__ = ()

    record = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def add(self, key: str, value: CounterValue = 1) -> None:
        """No-op counter update."""

    def annotate(self, **counters: CounterValue) -> None:
        """No-op annotation."""


NULL_SPAN = _NullSpan()


class Span:
    """A live span; use via :func:`span` or :func:`capture`.

    ``record`` is this span's own subtree.  Entered with no capture
    open, the span is a root: it starts this context's trace and
    resets it on exit, also when the block raises.
    """

    __slots__ = ("record", "_start", "_token")

    def __init__(self, name: str,
                 counters: Optional[Dict[str, CounterValue]] = None
                 ) -> None:
        self.record = new_record(name, counters)
        self._start = 0.0
        self._token: Optional[Token] = None

    def __enter__(self) -> "Span":
        stack = _open_stack()
        if stack is None:
            self._token = _trace_stack.set([self.record])
        else:
            stack.append(self.record)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.record["duration"] = time.perf_counter() - self._start
        if self._token is not None:
            _trace_stack.reset(self._token)
            return False
        stack = _open_stack()
        popped = stack.pop()
        # stack discipline: a span must close in the frame it opened
        while popped is not self.record and stack:
            popped = stack.pop()
        if stack:
            stack[-1]["children"].append(self.record)
        return False

    def add(self, key: str, value: CounterValue = 1) -> None:
        """Accumulate a numeric counter (or set a string annotation)."""
        _bump(self.record["counters"], key, value)

    def annotate(self, **counters: CounterValue) -> None:
        for key, value in counters.items():
            self.add(key, value)


def span(name: str, **counters: CounterValue):
    """Context manager recording one timed region of a pipeline.

    Outside a capture this returns a shared no-op object — the
    instrumentation's only cost is one context-variable read.
    """
    if _open_stack() is None:
        return NULL_SPAN
    return Span(name, counters)


def add(key: str, value: CounterValue = 1) -> None:
    """Bump a counter on the innermost open span, if any."""
    stack = _open_stack()
    if stack:
        _bump(stack[-1]["counters"], key, value)


def attach_record(record: SpanRecord) -> None:
    """Merge a serialized span record (for example one shipped back
    from a :func:`repro.perf.pmap` worker) into the current trace.

    The record becomes a child of the innermost open span, preserving
    call order.  No-op outside a capture.
    """
    stack = _open_stack()
    if stack:
        stack[-1]["children"].append(record)


def capture(name: str, force: bool = False, **counters: CounterValue):
    """Record one run as a trace tree rooted at ``name``.

    ``force=True`` starts a trace in this context (the per-run
    ``config.trace`` switch).  Inside an open capture this joins as a
    child span whose ``.record`` is still this run's own subtree, so
    nested pipelines compose.  Otherwise it is :data:`NULL_SPAN`, a
    no-op with ``record=None``.
    """
    if force or _open_stack() is not None:
        return Span(name, counters)
    return NULL_SPAN


def strip_wall_clock(record: SpanRecord) -> SpanRecord:
    """Copy of a record with wall-clock fields removed, recursively.

    Two traces of the same deterministic run — for example at
    different ``workers`` counts — compare equal after stripping.
    """
    return {
        "name": record["name"],
        "counters": dict(record["counters"]),
        "children": [strip_wall_clock(child)
                     for child in record["children"]],
    }
