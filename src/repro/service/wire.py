"""Wire format of the pattern service: ``repro/v1`` JSON bodies.

Every response body the service emits is stamped with the same
``schema: "repro/v1"`` tag the :mod:`repro.obs.export` trace envelope
carries, so a traced service request and a traced library run are the
same schema to consumers.  This module is the *only* place request
and response dicts are shaped: handlers build results with the
functions here, and the byte-identity contract the service makes —
a ``/v1/build`` body equals the serialization of the corresponding
direct :func:`repro.core.pipeline.run_catapult` /
:func:`~repro.core.pipeline.run_tattoo` call — holds because both
sides go through :func:`build_body`.

:func:`strip_volatile` is the comparison normaliser: it removes the
per-request and wall-clock fields (request id, snapshot id, stage
timings, span durations) so deterministic replays and
workers-1-vs-4 runs compare byte-identical, mirroring
:func:`repro.obs.strip_wall_clock` for trace records.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.core.pipeline import PipelineConfig
from repro.errors import GraphInputError, OptionError
from repro.graph.graph import Graph
from repro.graph.io import graph_from_dict, graph_to_dict
from repro.obs.export import WIRE_SCHEMA, trace_envelope
from repro.patterns.base import Pattern, PatternBudget, PatternSet
from repro.patterns.topologies import classify_topology

#: Keys stripped by :func:`strip_volatile` — everything that varies
#: between two byte-identical *logical* responses: identifiers minted
#: per request or per state change, and wall-clock measurements.
VOLATILE_KEYS = frozenset({
    "request_id", "snapshot", "timings", "duration", "elapsed_s",
    "retry_after_s", "uptime_s", "latency_s", "session",
})


def envelope(body: Mapping[str, object],
             request_id: Optional[str] = None) -> Dict[str, object]:
    """A response body in the versioned wire shape."""
    data: Dict[str, object] = {"schema": WIRE_SCHEMA}
    if request_id is not None:
        data["request_id"] = request_id
    data.update(body)
    return data


def error_body(error: BaseException, status: int,
               request_id: Optional[str] = None) -> Dict[str, object]:
    """The structured body every non-2xx response carries."""
    detail: Dict[str, object] = {
        "type": type(error).__name__,
        "message": str(error),
        "status": status,
    }
    retry_after = getattr(error, "retry_after_s", None)
    if retry_after is not None:
        detail["retry_after_s"] = retry_after
    completion = getattr(error, "completion", None)
    if completion is not None:
        detail["completion"] = completion
    return envelope({"error": detail}, request_id)


def pattern_to_dict(pattern: Pattern) -> Dict[str, object]:
    """One canned pattern: its graph, provenance, and identity code."""
    return {
        "graph": graph_to_dict(pattern.graph),
        "source": pattern.source,
        "code": pattern.code,
        "topology": classify_topology(pattern.graph).value,
    }


def patterns_to_list(patterns: PatternSet) -> List[Dict[str, object]]:
    return [pattern_to_dict(pattern) for pattern in patterns]


def build_body(result: Any) -> Dict[str, object]:
    """The ``/v1/build`` response payload for a pipeline result.

    A pure function of the :class:`repro.core.pipeline.
    PipelineResult` — the service and a direct library call produce
    identical payloads from identical results (`strip_volatile`
    handles the wall-clock ``timings`` inside ``stats``).
    """
    body: Dict[str, object] = {
        "degraded": bool(result.degraded),
        "stats": result.stats,
        "patterns": patterns_to_list(result.patterns),
    }
    if result.trace is not None:
        # the same versioned envelope ``repro-vqi build --trace``
        # writes, so a traced service response and a traced library
        # run validate against one schema (tests/trace_schema.py)
        body["trace"] = trace_envelope([result.trace])
    return body


def graphs_from_payload(payload: object,
                        context: str) -> List[Graph]:
    """Parse a list of graph dicts from a request body field."""
    if not isinstance(payload, list) or not payload:
        raise GraphInputError(
            f"{context} must be a non-empty list of graph objects")
    graphs = []
    for index, item in enumerate(payload):
        if not isinstance(item, dict):
            raise GraphInputError(
                f"{context}[{index}] is not a graph object")
        graphs.append(graph_from_dict(item))
    return graphs


def config_from_payload(payload: object) -> PipelineConfig:
    """A :class:`PipelineConfig` from the request body's ``config``.

    The wire shape mirrors the dataclass: ``budget`` is
    ``{"max_patterns": k, "min_size": n, "max_size": m}``, everything
    else maps 1:1 (``options`` stays a plain mapping).  Unknown keys
    raise :class:`repro.errors.OptionError` → HTTP 400, an
    unsatisfiable budget :class:`repro.errors.BudgetError` (also
    400); invalid ``options`` and values of the wrong type raise
    :class:`repro.errors.PipelineError` (also 400) when
    :func:`repro.config.stage_config` validates them at build time.
    """
    if payload is None:
        payload = {}
    if not isinstance(payload, dict):
        raise OptionError("config must be a JSON object")
    data = dict(payload)
    budget_data = data.pop("budget", None)
    budget = None
    if budget_data is not None:
        if not isinstance(budget_data, dict):
            raise OptionError("config.budget must be a JSON object")
        try:
            budget = PatternBudget(
                int(budget_data["max_patterns"]),
                min_size=int(budget_data.get("min_size", 4)),
                max_size=int(budget_data.get("max_size", 8)))
        except (KeyError, TypeError, ValueError) as exc:
            raise OptionError(
                f"malformed config.budget: {exc}") from exc
    allowed = {"seed", "workers", "use_cache", "trace",
               "max_embeddings", "deadline_s", "max_retries",
               "options"}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise OptionError(
            "unknown config key(s): " + ", ".join(unknown))
    options = data.pop("options", {})
    if not isinstance(options, dict):
        raise OptionError("config.options must be a JSON object")
    try:
        return PipelineConfig(budget=budget, options=options, **data)
    except TypeError as exc:
        raise OptionError(f"malformed config: {exc}") from exc


def budget_to_dict(budget: PatternBudget) -> Dict[str, int]:
    return {"max_patterns": budget.max_patterns,
            "min_size": budget.min_size,
            "max_size": budget.max_size}


def embeddings_to_list(embeddings: Sequence[Mapping[int, int]]
                       ) -> List[List[List[int]]]:
    """Embeddings as sorted ``[query_node, data_node]`` pair lists
    (JSON objects cannot key on ints)."""
    return [[[q, t] for q, t in sorted(embedding.items())]
            for embedding in embeddings]


def strip_volatile(value: object) -> object:
    """Recursively drop per-request and wall-clock fields.

    The response-body counterpart of :func:`repro.obs.
    strip_wall_clock`: two logically identical responses — the same
    build at workers 1 and 4, a live request and its log replay —
    compare equal after stripping.  Dict keys in :data:`VOLATILE_KEYS`
    are removed at any depth; list structure is preserved.
    """
    if isinstance(value, dict):
        return {key: strip_volatile(item)
                for key, item in value.items()
                if key not in VOLATILE_KEYS}
    if isinstance(value, list):
        return [strip_volatile(item) for item in value]
    return value


def dumps(body: Mapping[str, object]) -> bytes:
    """Canonical response encoding: sorted keys, compact separators."""
    return (json.dumps(body, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")
