"""Structural validator for ``repro/v1`` wire JSON (stdlib only).

Used by ``make bench-smoke`` (and importable from tests) to check
that a trace file written by ``benchmarks/bench_runner.py --trace``
or ``repro-vqi build --trace`` matches the documented shape::

    {"schema": "repro/v1", "version": 1, "traces": [<record>, ...]}

where every record is ``{"name": str, "duration": float >= 0,
"counters": {str: int|float|str}, "children": [<record>, ...]}``.

:func:`validate_service_body` checks the other ``repro/v1`` payload
family — response bodies of the :mod:`repro.service` HTTP layer —
which carry the same ``schema`` tag plus either result fields or a
structured ``error`` object.

Usage::

    python tests/trace_schema.py TRACE_smoke.json
"""

from __future__ import annotations

import json
import sys
from typing import List, Sequence

COUNTER_TYPES = (int, float, str)

#: The one wire-schema tag every exported JSON body carries; must
#: match ``repro.obs.export.WIRE_SCHEMA`` (kept literal here so this
#: validator stays stdlib-only and runnable standalone).
WIRE_SCHEMA = "repro/v1"


def validate_schema_tag(payload: dict) -> List[str]:
    """Problems with the ``schema`` tag (empty list = valid)."""
    schema = payload.get("schema")
    if schema is None:
        return [f"missing schema tag (expected {WIRE_SCHEMA!r})"]
    if schema != WIRE_SCHEMA:
        return [f"schema is {schema!r}, expected {WIRE_SCHEMA!r}"]
    return []


def validate_record(record: object, path: str = "trace") -> List[str]:
    """Problems found in one span record (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(record, dict):
        return [f"{path}: record is {type(record).__name__}, not dict"]
    for key in ("name", "duration", "counters", "children"):
        if key not in record:
            problems.append(f"{path}: missing key {key!r}")
    name = record.get("name")
    if "name" in record and (not isinstance(name, str) or not name):
        problems.append(f"{path}: name must be a non-empty string")
    duration = record.get("duration")
    if "duration" in record:
        if isinstance(duration, bool) \
                or not isinstance(duration, (int, float)):
            problems.append(f"{path}: duration must be a number")
        elif duration < 0:
            problems.append(f"{path}: duration must be >= 0")
    counters = record.get("counters")
    if "counters" in record:
        if not isinstance(counters, dict):
            problems.append(f"{path}: counters must be a dict")
        else:
            for key, value in counters.items():
                if not isinstance(key, str):
                    problems.append(
                        f"{path}: counter key {key!r} is not a string")
                if isinstance(value, bool) \
                        or not isinstance(value, COUNTER_TYPES):
                    problems.append(
                        f"{path}: counter {key!r} has type "
                        f"{type(value).__name__}")
    children = record.get("children")
    if "children" in record:
        if not isinstance(children, list):
            problems.append(f"{path}: children must be a list")
        else:
            label = name if isinstance(name, str) else "?"
            for i, child in enumerate(children):
                problems.extend(validate_record(
                    child, path=f"{path}.{label}[{i}]"))
    return problems


def validate_envelope(payload: object) -> List[str]:
    """Problems found in a trace envelope (empty list = valid)."""
    if not isinstance(payload, dict):
        return ["envelope must be a JSON object"]
    problems: List[str] = validate_schema_tag(payload)
    version = payload.get("version")
    if isinstance(version, bool) or not isinstance(version, int):
        problems.append("envelope version must be an integer")
    traces = payload.get("traces")
    if not isinstance(traces, list):
        problems.append("envelope traces must be a list")
    elif not traces:
        problems.append("envelope holds no traces")
    else:
        for i, record in enumerate(traces):
            problems.extend(validate_record(record,
                                            path=f"traces[{i}]"))
    return problems


def validate_service_body(payload: object) -> List[str]:
    """Problems found in one service response body (empty = valid).

    Every body — success or error — must be a ``repro/v1``-tagged
    object.  Error bodies additionally carry ``{"error": {"type",
    "message", "status"}}`` with an HTTP status code; embedded trace
    envelopes (``/v1/build`` with tracing on) are validated as
    traces.
    """
    if not isinstance(payload, dict):
        return ["service body must be a JSON object"]
    problems = validate_schema_tag(payload)
    error = payload.get("error")
    if "error" in payload:
        if not isinstance(error, dict):
            problems.append("error must be an object")
        else:
            if not isinstance(error.get("type"), str) \
                    or not error.get("type"):
                problems.append("error.type must be a non-empty "
                                "string")
            if not isinstance(error.get("message"), str):
                problems.append("error.message must be a string")
            status = error.get("status")
            if isinstance(status, bool) \
                    or not isinstance(status, int) \
                    or not 400 <= status <= 599:
                problems.append("error.status must be an HTTP error "
                                "status code")
    trace = payload.get("trace")
    if trace is not None:
        problems.extend(f"trace: {p}"
                        for p in validate_envelope(trace))
    return problems


def main(argv: Sequence[str] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 1:
        print("usage: python tests/trace_schema.py TRACE.json",
              file=sys.stderr)
        return 2
    try:
        with open(argv[0], "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {argv[0]}: {exc}", file=sys.stderr)
        return 2
    problems = validate_envelope(payload)
    if problems:
        for problem in problems:
            print(f"INVALID {argv[0]}: {problem}")
        return 1
    count = len(payload["traces"])
    print(f"{argv[0]}: valid trace envelope "
          f"(version {payload['version']}, {count} trace(s))")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
