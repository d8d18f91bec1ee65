"""Route handlers, one section per concern.

Handlers are free functions ``(service, request) -> body dict``; the
terminal middleware wraps the dict in a 200 response and every
failure path raises a typed :class:`repro.errors.ReproError` that
the error-mapping middleware translates.  Handlers never touch the
HTTP layer and never format JSON — :mod:`repro.service.wire` owns
the shapes — so the same functions serve live traffic, the request-
log replay, and direct in-process calls from tests.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.core.pipeline import run_catapult, run_tattoo
from repro.datasets.evolving import UpdateBatch
from repro.errors import OptionError, PipelineError
from repro.graph.graph import Graph
from repro.graph.io import graph_from_dict, graph_to_dict
from repro.obs import snapshot as obs_snapshot
from repro.service import wire
from repro.service.middleware import Request

# ---------------------------------------------------------------- health


def handle_health(service, request: Request) -> Dict[str, object]:
    snapshot = service.snapshots.current()
    return {
        "status": "ok",
        "snapshot": snapshot.snapshot_id,
        "generator": snapshot.generator,
        "patterns": len(snapshot.patterns),
        "graphs": len(snapshot.repository),
        "sessions": service.sessions.count(),
        "snapshots": service.snapshots.ids(),
        "pinned": snapshot.verify_pinned(),
        "uptime_s": service.uptime_s(),
    }


# --------------------------------------------------------------- metrics


def handle_metrics(service, request: Request) -> Dict[str, object]:
    """The one documented stats surface, served over the wire:
    :func:`repro.obs.snapshot` (registry + matching stack)."""
    return {"metrics": obs_snapshot()}


# -------------------------------------------------------------- patterns


def handle_patterns(service, request: Request) -> Dict[str, object]:
    snapshot = service.snapshots.resolve(
        _optional_str(request.body, "snapshot"))
    return {
        "snapshot": snapshot.snapshot_id,
        "generator": snapshot.generator,
        "budget": wire.budget_to_dict(service.pipeline.budget),
        "patterns": wire.patterns_to_list(snapshot.patterns),
    }


def handle_maintain(service, request: Request) -> Dict[str, object]:
    """Apply one MIDAS :class:`UpdateBatch`, then publish a new
    snapshot.  Reads keep serving the old snapshot throughout.

    On a durable backend the batch is write-ahead-logged (fsync'd)
    before it is applied and the published snapshot is committed
    after — :meth:`repro.service.app.PatternService.
    apply_maintenance` owns that ordering."""
    added = [graph_from_dict(item) for item in
             _list_of_dicts(request.body.get("add", []), "add")]
    removed = [str(name) for name
               in _string_list(request.body.get("remove", []),
                               "remove")]
    snapshot, report = service.apply_maintenance(
        UpdateBatch(added=added, removed=removed))
    return {
        "snapshot": snapshot.snapshot_id,
        "degraded": bool(report.degraded),
        "report": report.stats,
    }


# ----------------------------------------------------------------- build


def handle_build(service, request: Request) -> Dict[str, object]:
    """Run a selection pipeline and publish its pattern set.

    The response body is byte-identical (modulo
    :func:`repro.service.wire.strip_volatile`) to serializing the
    same :func:`run_catapult` / :func:`run_tattoo` call made
    directly against the library, because both go through
    :func:`wire.build_body`.
    """
    body = request.body
    config = wire.config_from_payload(body.get("config"))
    if config.budget is None:
        config = replace(config, budget=service.pipeline.budget)
    if config.deadline_s is None \
            and request.deadline.seconds is not None:
        # the client's admission deadline also bounds the pipeline:
        # whatever budget survived admission becomes the anytime
        # budget, so an accepted request always answers in time
        config = replace(config,
                         deadline_s=request.deadline.remaining())
    if "repository" in body and "network" in body:
        raise OptionError(
            "pass either repository or network, not both")
    if "repository" in body:
        data: object = wire.graphs_from_payload(body["repository"],
                                                "repository")
    elif "network" in body:
        if not isinstance(body["network"], dict):
            raise PipelineError("network must be a graph object")
        data = graph_from_dict(body["network"])
    else:
        snapshot = service.snapshots.current()
        data = snapshot.network if snapshot.is_network \
            else snapshot.repository
    if isinstance(data, Graph):
        result = run_tattoo(data, config)
        generator = "tattoo"
    else:
        result = run_catapult(list(data), config)
        generator = "catapult"
    published = service.publish_build(data, result.patterns,
                                      generator)
    response = wire.build_body(result)
    response["pipeline"] = generator
    response["snapshot"] = published.snapshot_id
    return response


# ----------------------------------------------------------------- query


def handle_query(service, request: Request) -> Dict[str, object]:
    body = request.body
    session = None
    if body.get("session") is not None:
        session = service.sessions.get(body["session"])
    explicit = _optional_str(body, "snapshot")
    if explicit is not None:
        snapshot = service.snapshots.resolve(explicit)
    elif session is not None:
        snapshot = session.snapshot
    else:
        snapshot = service.snapshots.current()
    if body.get("query") is not None:
        if not isinstance(body["query"], dict):
            raise OptionError("query must be a graph object")
        query = graph_from_dict(body["query"])
    elif session is not None:
        with session.lock:
            # private copy: the engine must not observe concurrent
            # session edits mid-match
            query = graph_from_dict(graph_to_dict(
                session.builder.query))
    else:
        raise OptionError("pass a query graph or a session id")
    max_embeddings = _int_field(body, "max_embeddings",
                                service.pipeline.max_embeddings, low=1)
    max_matches = body.get("max_matches")
    if max_matches is not None:
        max_matches = _int_field(body, "max_matches", 0, low=1)
    results = snapshot.engine.run(
        query, max_embeddings_per_graph=max_embeddings,
        max_matches=max_matches)
    return {
        "snapshot": snapshot.snapshot_id,
        "graphs_searched": results.graphs_searched,
        "graphs_pruned": results.graphs_pruned,
        "match_count": results.match_count(),
        "embedding_count": results.embedding_count(),
        "matches": [
            {
                "graph_index": match.graph_index,
                "graph_name": match.graph.name,
                "embeddings": wire.embeddings_to_list(
                    match.embeddings),
            }
            for match in results.matches
        ],
    }


# --------------------------------------------------------------- suggest


def handle_suggest(service, request: Request) -> Dict[str, object]:
    body = request.body
    top_k = _int_field(body, "top_k", 5, low=1)
    if body.get("session") is not None:
        session = service.sessions.get(body["session"])
        snapshot = session.snapshot
        node = _int_field(body, "node", -1)
        with session.lock:
            ranked = snapshot.suggester.suggest_for_query(
                session.builder, node, top_k=top_k,
                answerable_only=bool(body.get("answerable_only",
                                              False)))
    elif body.get("label") is not None:
        snapshot = service.snapshots.resolve(
            _optional_str(body, "snapshot"))
        ranked = snapshot.suggester.suggest_extensions(
            str(body["label"]), top_k=top_k)
    else:
        raise OptionError(
            "pass a session id and node, or a node label")
    return {
        "snapshot": snapshot.snapshot_id,
        "suggestions": [
            {"edge_label": edge_label, "node_label": node_label,
             "count": count}
            for edge_label, node_label, count in ranked
        ],
    }


# -------------------------------------------------------------- sessions


def handle_session_create(service,
                          request: Request) -> Dict[str, object]:
    snapshot = service.snapshots.resolve(
        _optional_str(request.body, "snapshot"))
    session = service.sessions.create(snapshot)
    return session.state()


def handle_session_get(service, request: Request) -> Dict[str, object]:
    return service.sessions.get(request.params["session_id"]).state()


def handle_session_actions(service,
                           request: Request) -> Dict[str, object]:
    session = service.sessions.get(request.params["session_id"])
    actions = request.body.get("actions")
    if not isinstance(actions, list) or not actions:
        raise OptionError("actions must be a non-empty list")
    results: List[object] = []
    with session.lock:
        for action in actions:
            results.append(session.apply_action(action))
    state = session.state()
    state["results"] = results
    return state


def handle_session_delete(service,
                          request: Request) -> Dict[str, object]:
    session_id = request.params["session_id"]
    service.sessions.remove(session_id)
    return {"session": session_id, "deleted": True}


# -------------------------------------------------------------- helpers


def _optional_str(body: Dict[str, object], key: str):
    value = body.get(key)
    return None if value is None else str(value)


def _int_field(body: Dict[str, object], key: str, default: int,
               low: Optional[int] = None) -> int:
    """``body[key]`` as an int of at least ``low``; anything else is
    the client's mistake (:class:`OptionError`, HTTP 400)."""
    value = body.get(key, default)
    try:
        number = int(value)  # type: ignore[arg-type]
    except (TypeError, ValueError, OverflowError) as exc:
        raise OptionError(f"{key} must be an integer, "
                          f"got {value!r}") from exc
    if low is not None and number < low:
        raise OptionError(f"{key} must be at least {low}, got {number}")
    return number


def _list_of_dicts(value: object, context: str) -> List[Dict[str, object]]:
    if not isinstance(value, list) \
            or any(not isinstance(item, dict) for item in value):
        raise OptionError(f"{context} must be a list of graph objects")
    return value


def _string_list(value: object, context: str) -> List[str]:
    if not isinstance(value, list) \
            or any(not isinstance(item, str) for item in value):
        raise OptionError(f"{context} must be a list of names")
    return value
