"""Tests for repro.service: the concurrent pattern-as-a-service layer.

The headline suites pin the service's concurrency contract:

* **mixed traffic** — ≥32 threads of interleaved build/query/suggest/
  session/maintain/health traffic produce zero unhandled 500s; every
  failure is a typed error mapped to a structured 4xx/5xx body;
* **snapshot isolation** — a query pinned to a snapshot returns a
  byte-identical body while a MIDAS batch republishes concurrently;
* **policy** — token-bucket 429s carry ``retry_after_s``; admission
  503s carry a zero-work :class:`repro.resilience.CompletionReport`;
* **build equivalence** — a ``/v1/build`` body equals the direct
  :func:`repro.core.pipeline.run_catapult` / ``run_tattoo`` call with
  the same config, at ``REPRO_WORKERS`` 1 and 4, modulo
  :func:`repro.service.wire.strip_volatile`;
* **replay** — a JSONL request log re-driven against a fresh,
  identically-constructed service reproduces every replayable
  response.
"""

import json
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from trace_schema import validate_service_body  # noqa: E402

from repro.catapult import pipeline as catapult_pipeline  # noqa: E402
from repro.core.pipeline import (  # noqa: E402
    PipelineConfig,
    run_catapult,
    run_tattoo,
)
from repro import obs  # noqa: E402
from repro.datasets import (  # noqa: E402
    NetworkConfig,
    generate_chemical_repository,
    generate_network,
    generate_network_workload,
)
from repro.graph.io import graph_to_dict  # noqa: E402
from repro.obs import strip_wall_clock  # noqa: E402
from repro.patterns.base import PatternBudget  # noqa: E402
from repro.service import (  # noqa: E402
    PatternService,
    ServiceClient,
    ServiceConfig,
    TokenBucket,
    WIRE_SCHEMA,
    build_body,
    replay,
    serve_in_thread,
    shutdown_gracefully,
    strip_volatile,
)
from repro.service import wire  # noqa: E402
from repro.service.server import MAX_BODY_BYTES  # noqa: E402
from repro.store import DiskBackend  # noqa: E402

BUDGET = PatternBudget(4, min_size=4, max_size=7)

#: Statuses the service may legitimately return under this suite's
#: traffic; 500 is deliberately absent (zero-unhandled-errors).
EXPECTED_STATUSES = frozenset({200, 400, 404, 409, 429, 503})


def make_repo(size=10, seed=7):
    return generate_chemical_repository(size, seed=seed)


def make_service(size=10, seed=7, config=None, **service_kwargs):
    return PatternService(
        make_repo(size, seed),
        PipelineConfig(budget=BUDGET, seed=3),
        config or ServiceConfig(**service_kwargs))


def canonical_bytes(body):
    return wire.dumps(strip_volatile(body))


def unhandled_errors(svc):
    metrics = svc.dispatch("GET", "/v1/metrics").body["metrics"]
    return metrics["counters"].get("service.errors.unhandled", 0)


def network_body(config):
    network = generate_network(NetworkConfig(nodes=60), seed=5)
    return {"network": graph_to_dict(network), "config": config}


#: ``/v1/build`` bodies whose config is malformed, each with the typed
#: error it must map to: the checks run where configs enter, before
#: any pipeline work.
MALFORMED_BUILDS = {
    "workers-string": ({"config": {"workers": "x"}}, "OptionError"),
    "max_retries-string": ({"config": {"max_retries": "x"}},
                           "PipelineError"),
    "max_embeddings-string": ({"config": {"max_embeddings": "x"}},
                              "PipelineError"),
    "deadline_s-string": ({"config": {"deadline_s": "x"}},
                          "PipelineError"),
    "seed-string": ({"config": {"seed": "abc"}}, "PipelineError"),
    "budget-zero-patterns": (
        {"config": {"budget": {"max_patterns": 0}}}, "BudgetError"),
    "budget-min-above-max": (
        {"config": {"budget": {"max_patterns": 4, "min_size": 9,
                               "max_size": 2}}}, "BudgetError"),
    "walks_per_cluster-string": (
        {"config": {"options": {"walks_per_cluster": "x"}}},
        "PipelineError"),
    "clusters-string": ({"config": {"options": {"clusters": "x"}}},
                        "PipelineError"),
    "truss_threshold-string": (
        network_body({"options": {"truss_threshold": "x"}}),
        "PipelineError"),
    "samples_scale-string": (
        network_body({"options": {"samples_scale": "x"}}),
        "PipelineError"),
    "classes-unknown": (network_body({"options": {"classes": ["nope"]}}),
                        "PipelineError"),
}


#: Integer request fields outside their range, one per route and
#: field: ``1e999`` parses as infinity, which ``int()`` overflows on.
OUT_OF_RANGE = [
    ("/v1/query", "max_matches", 0),
    ("/v1/query", "max_matches", -3),
    ("/v1/query", "max_matches", json.loads("1e999")),
    ("/v1/query", "max_embeddings", 0),
    ("/v1/query", "max_embeddings", -1),
    ("/v1/query", "max_embeddings", json.loads("1e999")),
    ("/v1/suggest", "top_k", 0),
    ("/v1/suggest", "top_k", -1),
    ("/v1/suggest", "top_k", json.loads("1e999")),
]


#: Graph payloads whose name or first node/edge label is not a
#: string, one per route that decodes graphs: (path, part, value).
NON_STRING_GRAPHS = [
    ("/v1/query", "nodes", ["C"]),
    ("/v1/query", "name", 7),
    ("/v1/build", "edges", 2),
    ("/v1/patterns/maintain", "nodes", 6),
    ("/v1/patterns/maintain", "edges", 1),
    ("/v1/patterns/maintain", "name", ["mol"]),
]


def non_string_body(path, part, value):
    item = graph_to_dict(make_repo(11, seed=9)[10])
    item["name"] = "fresh"
    if part == "name":
        item["name"] = value
    else:
        item[part][0]["label"] = value
    if path == "/v1/query":
        return {"query": item}
    key = "repository" if path == "/v1/build" else "add"
    return {key: [item]}


@pytest.fixture()
def service():
    svc = make_service()
    yield svc
    svc.close()


class TestRoutesAndBodies:
    def test_health_names_the_current_snapshot(self, service):
        response = service.dispatch("GET", "/v1/health")
        assert response.status == 200
        assert response.body["status"] == "ok"
        assert response.body["snapshot"] == "snap-0"
        assert response.body["pinned"] is True
        assert response.body["schema"] == WIRE_SCHEMA

    def test_patterns_lists_the_published_panel(self, service):
        response = service.dispatch("GET", "/v1/patterns")
        assert response.status == 200
        patterns = response.body["patterns"]
        assert 0 < len(patterns) <= BUDGET.max_patterns
        for entry in patterns:
            assert entry["code"]
            assert entry["topology"]
            assert entry["graph"]["nodes"]

    def test_unknown_route_is_a_structured_404(self, service):
        response = service.dispatch("GET", "/v1/nope")
        assert response.status == 404
        assert response.body["error"]["type"] == "RouteNotFound"
        assert validate_service_body(response.body) == []

    def test_malformed_config_is_a_structured_400(self, service):
        response = service.dispatch(
            "POST", "/v1/build", {"config": {"bogus_knob": 1}})
        assert response.status == 400
        assert response.body["error"]["type"] == "OptionError"
        assert "bogus_knob" in response.body["error"]["message"]

    @pytest.mark.parametrize("case", sorted(MALFORMED_BUILDS))
    def test_malformed_build_config_is_a_typed_400(self, service, case):
        body, error_type = MALFORMED_BUILDS[case]
        before = unhandled_errors(service)
        response = service.dispatch("POST", "/v1/build", body)
        assert response.status == 400, response.body
        assert response.body["error"]["type"] == error_type
        assert unhandled_errors(service) == before

    @pytest.mark.parametrize("path, field, value", OUT_OF_RANGE)
    def test_out_of_range_integer_is_a_typed_400(self, service, path,
                                                 field, value):
        panel = service.dispatch("GET", "/v1/patterns").body["patterns"]
        body = ({"query": panel[0]["graph"]} if path == "/v1/query"
                else {"label": "C"})
        body[field] = value
        before = unhandled_errors(service)
        response = service.dispatch("POST", path, body)
        assert response.status == 400, response.body
        assert response.body["error"]["type"] == "OptionError"
        assert field in response.body["error"]["message"]
        assert unhandled_errors(service) == before

    @pytest.mark.parametrize("path, part, value", NON_STRING_GRAPHS)
    def test_non_string_graph_field_is_a_typed_400(self, service, path,
                                                   part, value):
        before = unhandled_errors(service)
        response = service.dispatch("POST", path,
                                    non_string_body(path, part, value))
        assert response.status == 400, response.body
        assert response.body["error"]["type"] == "GraphInputError"
        assert unhandled_errors(service) == before

    def test_non_string_label_leaves_a_durable_store_bootable(
            self, tmp_path):
        def boot():
            return PatternService(make_repo(),
                                  PipelineConfig(budget=BUDGET, seed=3),
                                  backend=DiskBackend(str(tmp_path)))

        svc = boot()
        expected = canonical_bytes(svc.dispatch("GET",
                                                "/v1/patterns").body)
        response = svc.dispatch("POST", "/v1/patterns/maintain",
                                non_string_body("/v1/patterns/maintain",
                                                "nodes", 6))
        assert response.status == 400, response.body
        assert response.body["error"]["type"] == "GraphInputError"
        svc.close()
        rebooted = boot()
        assert canonical_bytes(rebooted.dispatch(
            "GET", "/v1/patterns").body) == expected
        rebooted.close()

    def test_every_body_carries_the_wire_schema(self, service):
        for method, path, body in [
            ("GET", "/v1/health", None),
            ("GET", "/v1/patterns", None),
            ("POST", "/v1/query", {"bad": True}),
            ("GET", "/v1/missing", None),
            ("POST", "/v1/sessions", None),
        ]:
            response = service.dispatch(method, path, body)
            assert validate_service_body(response.body) == [], \
                f"{path} body fails repro/v1 validation"

    def test_request_ids_are_deterministic(self, service):
        first = service.dispatch("GET", "/v1/health")
        second = service.dispatch("GET", "/v1/health")
        n1 = int(first.body["request_id"].split("-")[1])
        n2 = int(second.body["request_id"].split("-")[1])
        assert n2 == n1 + 1
        assert first.headers["X-Repro-Request"] == \
            first.body["request_id"]

    def test_metrics_exposes_service_counters(self, service):
        service.dispatch("GET", "/v1/health")
        response = service.dispatch("GET", "/v1/metrics")
        counters = response.body["metrics"]["counters"]
        assert counters["service.requests"] >= 2
        assert "service.requests.health" in counters


class TestSessions:
    def test_session_lifecycle(self, service):
        created = service.dispatch("POST", "/v1/sessions")
        sid = created.body["session"]
        assert created.body["snapshot"] == "snap-0"

        acted = service.dispatch(
            "POST", f"/v1/sessions/{sid}/actions",
            {"actions": [{"op": "add_pattern", "index": 0},
                         {"op": "add_node", "label": "C"}]})
        assert acted.status == 200
        assert acted.body["steps"] == 2
        assert acted.body["query"]["nodes"]

        fetched = service.dispatch("GET", f"/v1/sessions/{sid}")
        assert fetched.body["query"] == acted.body["query"]

        deleted = service.dispatch("DELETE", f"/v1/sessions/{sid}")
        assert deleted.body["deleted"] is True
        gone = service.dispatch("GET", f"/v1/sessions/{sid}")
        assert gone.status == 404
        assert gone.body["error"]["type"] == "UnknownNameError"

    @pytest.mark.parametrize("action, field", [
        ({"op": "add_edge", "v": 1}, "u"),
        ({"op": "add_edge", "u": "x", "v": 1}, "u"),
        ({"op": "add_pattern"}, "index"),
        ({"op": "merge_nodes", "remove": 1}, "keep"),
        ({"op": "delete_node"}, "node"),
    ], ids=["add_edge-missing-u", "add_edge-non-integer-u",
            "add_pattern-missing-index", "merge_nodes-missing-keep",
            "delete_node-missing-node"])
    def test_malformed_action_is_a_structured_400(self, service, action,
                                                   field):
        sid = service.dispatch("POST", "/v1/sessions").body["session"]
        before = unhandled_errors(service)
        response = service.dispatch(
            "POST", f"/v1/sessions/{sid}/actions", {"actions": [action]})
        assert response.status == 400
        error = response.body["error"]
        assert error["type"] == "OptionError"
        assert action["op"] in error["message"]
        assert repr(field) in error["message"]
        assert unhandled_errors(service) == before

    #: Each wire op on the query 0-1-2 (edges 0-1 and 1-2), with a
    #: variant of it the session rejects (a missing node, edge or
    #: panel index; an unknown op for add_node, which cannot miss).
    @pytest.mark.parametrize("action, rejected", [
        ({"op": "add_node", "label": "C"}, {"op": "add_nodes"}),
        ({"op": "add_edge", "u": 0, "v": 2},
         {"op": "add_edge", "u": 0, "v": 9}),
        ({"op": "add_pattern", "index": 0},
         {"op": "add_pattern", "index": 99}),
        ({"op": "set_node_label", "node": 0, "label": "N"},
         {"op": "set_node_label", "node": 9, "label": "N"}),
        ({"op": "set_edge_label", "u": 0, "v": 1, "label": "d"},
         {"op": "set_edge_label", "u": 0, "v": 2, "label": "d"}),
        ({"op": "merge_nodes", "keep": 0, "remove": 2},
         {"op": "merge_nodes", "keep": 0, "remove": 9}),
        ({"op": "delete_node", "node": 2}, {"op": "delete_node", "node": 9}),
        ({"op": "delete_edge", "u": 1, "v": 2},
         {"op": "delete_edge", "u": 0, "v": 2}),
    ], ids=lambda action: action["op"])
    def test_every_op_is_one_recorded_step(self, service, action,
                                           rejected):
        sid = service.dispatch("POST", "/v1/sessions").body["session"]
        path = f"/v1/sessions/{sid}/actions"
        before = service.dispatch("POST", path, {"actions": [
            {"op": "add_node", "label": "C"},
            {"op": "add_node", "label": "C"},
            {"op": "add_node", "label": "O"},
            {"op": "add_edge", "u": 0, "v": 1},
            {"op": "add_edge", "u": 1, "v": 2}]}).body
        after = service.dispatch("POST", path, {"actions": [action]})
        assert after.status == 200
        kind = action["op"]
        assert after.body["steps"] == before["steps"] + 1
        assert after.body["actions"][kind] == \
            before["actions"].get(kind, 0) + 1

        refused = service.dispatch("POST", path, {"actions": [rejected]})
        assert refused.status in (400, 404)
        # nor does a valid action that a rejected one follows
        batch = service.dispatch("POST", path, {"actions": [
            {"op": "add_node", "label": "C"}, rejected]})
        assert batch.status == refused.status
        assert batch.body["error"]["type"] == \
            refused.body["error"]["type"]
        state = service.dispatch("GET", f"/v1/sessions/{sid}").body
        assert state["steps"] == after.body["steps"]
        assert state["actions"] == after.body["actions"]
        assert state["query"] == after.body["query"]

    def test_a_rejected_batch_leaves_the_session_as_it_was(self, service):
        sid = service.dispatch("POST", "/v1/sessions").body["session"]
        path = f"/v1/sessions/{sid}/actions"
        adds = [{"op": "add_node", "label": "C"},
                {"op": "add_node", "label": "C"}]
        refused = service.dispatch("POST", path, {"actions": adds + [
            {"op": "delete_node", "node": 9}]})
        assert refused.status == 400
        assert refused.body["error"]["type"] == "NodeNotFoundError"
        state = service.dispatch("GET", f"/v1/sessions/{sid}").body
        assert state["steps"] == 0
        assert state["query"]["nodes"] == []
        # a retry without the bad action gets the ids it would have
        retried = service.dispatch("POST", path, {"actions": adds})
        assert retried.body["results"] == [0, 1]
        assert retried.body["steps"] == 2

    def test_session_query_and_suggest(self, service):
        sid = service.dispatch("POST", "/v1/sessions").body["session"]
        service.dispatch(
            "POST", f"/v1/sessions/{sid}/actions",
            {"actions": [{"op": "add_pattern", "index": 0}]})
        queried = service.dispatch("POST", "/v1/query",
                                   {"session": sid})
        assert queried.status == 200
        assert queried.body["match_count"] > 0
        suggested = service.dispatch(
            "POST", "/v1/suggest", {"session": sid, "node": 0})
        assert suggested.status == 200
        assert isinstance(suggested.body["suggestions"], list)


class TestBuildEquivalence:
    """The API-consolidation contract: the HTTP layer adds nothing to
    and loses nothing from the library call it fronts."""

    def expected(self, result, pipeline):
        body = build_body(result)
        body["pipeline"] = pipeline
        body["schema"] = WIRE_SCHEMA
        return canonical_bytes(body)

    def test_build_matches_run_catapult_at_1_and_4_workers(
            self, service, monkeypatch):
        config = PipelineConfig(budget=BUDGET, seed=3)
        for workers in ("1", "4"):
            monkeypatch.setenv("REPRO_WORKERS", workers)
            response = service.dispatch("POST", "/v1/build",
                                        {"config": {"seed": 3}})
            assert response.status == 200
            direct = run_catapult(make_repo(), config)
            assert canonical_bytes(response.body) == \
                self.expected(direct, "catapult"), \
                f"service/library divergence at workers={workers}"

    def test_build_matches_run_tattoo_for_networks(self, monkeypatch):
        network_config = NetworkConfig(nodes=60)
        config = PipelineConfig(budget=BUDGET, seed=3)
        svc = PatternService(generate_network(network_config, seed=5),
                             config)
        for workers in ("1", "4"):
            monkeypatch.setenv("REPRO_WORKERS", workers)
            response = svc.dispatch("POST", "/v1/build",
                                    {"config": {"seed": 3}})
            assert response.status == 200
            assert response.body["pipeline"] == "tattoo"
            direct = run_tattoo(
                generate_network(network_config, seed=5), config)
            assert canonical_bytes(response.body) == \
                self.expected(direct, "tattoo")

    def test_deadline_build_degrades_with_200(self, service):
        response = service.dispatch(
            "POST", "/v1/build",
            {"config": {"seed": 3, "deadline_s": 1e-9}})
        assert response.status == 200
        assert response.body["degraded"] is True
        assert "completion" in response.body["stats"]

    def test_traced_build_embeds_a_valid_envelope(self, service):
        response = service.dispatch(
            "POST", "/v1/build", {"config": {"trace": True}})
        assert response.status == 200
        trace = response.body["trace"]
        assert trace["schema"] == WIRE_SCHEMA
        assert trace["traces"][0]["name"]
        assert validate_service_body(response.body) == []


class TestTracedBuildIsolation:
    """A traced build's trace is private to its request thread."""

    TRACED = {"config": {"seed": 3, "trace": True}}

    def test_overlapping_untraced_build_leaves_the_trace_alone(
            self, monkeypatch):
        # the traced build enters first; the untraced one waits inside
        # its run until the traced response is back, then finishes
        svc = make_service(max_inflight=2)
        before = unhandled_errors(svc)
        traced_in, untraced_in, traced_done = (
            threading.Event() for _ in range(3))
        summarize = catapult_pipeline.summarize_clusters

        def gated_summarize(*args, **kwargs):
            name = threading.current_thread().name
            if name == "traced":
                traced_in.set()
                assert untraced_in.wait(30)
            elif name == "untraced":
                untraced_in.set()
                assert traced_done.wait(30)
            return summarize(*args, **kwargs)

        monkeypatch.setattr(catapult_pipeline, "summarize_clusters",
                            gated_summarize)
        replies = {}

        def traced():
            replies["traced"] = svc.dispatch("POST", "/v1/build",
                                             self.TRACED)
            traced_done.set()

        def untraced():
            replies["untraced"] = svc.dispatch(
                "POST", "/v1/build", {"config": {"seed": 3}})

        threads = [threading.Thread(target=traced, name="traced")]
        threads[0].start()
        assert traced_in.wait(30)
        threads.append(threading.Thread(target=untraced,
                                        name="untraced"))
        threads[1].start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        assert {name: reply.status for name, reply in replies.items()} \
            == {"traced": 200, "untraced": 200}
        assert unhandled_errors(svc) == before

        alone = make_service().dispatch("POST", "/v1/build", self.TRACED)
        assert alone.status == 200
        (trace,) = replies["traced"].body["trace"]["traces"]
        (expected,) = alone.body["trace"]["traces"]
        assert strip_wall_clock(trace) == strip_wall_clock(expected)
        assert "trace" not in replies["untraced"].body


class TestSnapshotIsolation:
    def test_pinned_query_is_byte_identical_across_midas_batch(self):
        svc = make_service(size=12)
        query = graph_to_dict(
            svc.snapshots.current().patterns[0].graph)
        pinned = {"query": query, "snapshot": "snap-0"}

        before = svc.dispatch("POST", "/v1/query", dict(pinned))
        assert before.status == 200
        assert before.body["snapshot"] == "snap-0"
        baseline = canonical_bytes(before.body)

        removed = svc.snapshots.current().repository[0].name
        batch = {"add": [graph_to_dict(g) for g in
                         generate_chemical_repository(2, seed=99)],
                 "remove": [removed]}

        mismatches = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                reply = svc.dispatch("POST", "/v1/query", dict(pinned))
                if reply.status != 200 \
                        or canonical_bytes(reply.body) != baseline:
                    mismatches.append(reply.status)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        maintained = svc.dispatch("POST", "/v1/patterns/maintain",
                                  batch)
        stop.set()
        for thread in threads:
            thread.join()

        assert maintained.status == 200
        assert maintained.body["snapshot"] == "snap-1"
        assert mismatches == [], \
            "pinned queries diverged during maintenance"
        after = svc.dispatch("POST", "/v1/query", dict(pinned))
        assert canonical_bytes(after.body) == baseline
        # and the *unpinned* view did move:
        assert svc.dispatch("GET", "/v1/health").body["snapshot"] \
            == "snap-1"

    def test_evicted_snapshot_is_a_404(self):
        svc = make_service(config=ServiceConfig(retain_snapshots=1))
        svc.dispatch("POST", "/v1/build", {"config": {"seed": 4}})
        response = svc.dispatch("POST", "/v1/query", {
            "query": {"nodes": [], "edges": []},
            "snapshot": "snap-0"})
        assert response.status == 404
        assert response.body["error"]["type"] == "UnknownNameError"


class TestPolicy:
    def test_rate_limit_returns_structured_429(self):
        svc = make_service(rate=1e-6, burst=1)
        assert svc.dispatch("GET", "/v1/health").status == 200
        limited = svc.dispatch("GET", "/v1/health")
        assert limited.status == 429
        error = limited.body["error"]
        assert error["type"] == "RateLimited"
        assert error["retry_after_s"] > 0
        assert "Retry-After" in limited.headers
        assert validate_service_body(limited.body) == []

    def test_expired_deadline_sheds_with_completion_report(
            self, service):
        for budget in ("0", "-1"):  # a negative budget is spent too
            shed = service.dispatch("POST", "/v1/build", {},
                                    headers={"X-Repro-Deadline": budget})
            assert shed.status == 503
            error = shed.body["error"]
            assert error["type"] == "Overloaded"
            completion = error["completion"]
            assert completion["build"]["complete"] is False
            assert completion["build"]["done"] == 0

    def test_nan_deadline_is_ignored_like_an_unparsable_one(self):
        # NaN compares false with everything, so it used to pass
        # admission and then bound the pipeline at 0 s
        panels = []
        for headers in ({}, {"X-Repro-Deadline": "nan"}):
            svc = make_service()
            try:
                built = svc.dispatch("POST", "/v1/build",
                                     {"config": {"seed": 3}},
                                     headers=headers)
                assert built.status == 200
                assert built.body["degraded"] is False
                panels.append(canonical_bytes(
                    svc.dispatch("GET", "/v1/patterns").body))
            finally:
                svc.close()
        assert panels[0] == panels[1]

    def test_full_build_slots_shed_with_503(self, service):
        assert service.heavy_slots.acquire(blocking=False)
        try:
            shed = service.dispatch("POST", "/v1/build",
                                    {"config": {"seed": 3}})
        finally:
            service.heavy_slots.release()
        assert shed.status == 503
        assert shed.body["error"]["type"] == "Overloaded"
        assert "slot" in shed.body["error"]["message"]

    def test_light_routes_are_never_shed(self, service):
        assert service.heavy_slots.acquire(blocking=False)
        try:
            for headers in ({}, {"X-Repro-Deadline": "-1"}):
                assert service.dispatch(
                    "GET", "/v1/health", headers=headers).status == 200
                assert service.dispatch(
                    "GET", "/v1/patterns", headers=headers).status == 200
        finally:
            service.heavy_slots.release()

    def test_token_bucket_refills(self):
        bucket = TokenBucket(rate=10_000.0, burst=1)
        assert bucket.acquire() is None
        retry_after = bucket.acquire()
        if retry_after is not None:  # immediate re-acquire may refill
            assert retry_after < 1.0


class TestMixedTrafficConcurrency:
    THREADS = 40

    def test_no_unhandled_errors_under_mixed_load(self):
        svc = make_service(size=12)
        session = svc.dispatch("POST", "/v1/sessions").body["session"]
        query = graph_to_dict(
            svc.snapshots.current().patterns[0].graph)
        extra = [graph_to_dict(g) for g in
                 generate_chemical_repository(3, seed=41)]
        first_graph = svc.snapshots.current().repository[0]
        label = first_graph.node_label(
            next(iter(first_graph.nodes())))

        barrier = threading.Barrier(self.THREADS)
        results = []
        results_lock = threading.Lock()

        def work(index):
            kind = index % 8
            barrier.wait()
            if kind == 0:
                reply = svc.dispatch(
                    "POST", "/v1/build", {"config": {"seed": 3}})
            elif kind == 1:
                reply = svc.dispatch(
                    "POST", "/v1/patterns/maintain",
                    {"add": [extra[index % len(extra)]]})
            elif kind == 2:
                reply = svc.dispatch(
                    "POST", "/v1/query",
                    {"query": query, "snapshot": "snap-0"})
            elif kind == 3:
                reply = svc.dispatch("POST", "/v1/suggest",
                                     {"label": label})
            elif kind == 4:
                created = svc.dispatch("POST", "/v1/sessions",
                                       {"snapshot": "snap-0"})
                sid = created.body["session"]
                reply = svc.dispatch(
                    "POST", f"/v1/sessions/{sid}/actions",
                    {"actions": [{"op": "add_pattern", "index": 0}]})
            elif kind == 5:
                reply = svc.dispatch("GET", "/v1/health")
            elif kind == 6:
                reply = svc.dispatch("POST", "/v1/query",
                                     {"session": session})
            else:
                reply = svc.dispatch("GET", "/v1/nowhere")
            with results_lock:
                results.append((index, reply))

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(results) == self.THREADS
        for index, reply in results:
            assert reply.status in EXPECTED_STATUSES, \
                f"thread {index}: unexpected {reply.status} " \
                f"{reply.body}"
            assert reply.status != 500
            if reply.status >= 400:
                error = reply.body["error"]
                assert error["type"]
                assert error["status"] == reply.status
            assert validate_service_body(reply.body) == []
        statuses = {reply.status for _, reply in results}
        assert 200 in statuses
        assert 404 in statuses  # the deliberate bad route
        metrics = svc.dispatch("GET",
                               "/v1/metrics").body["metrics"]
        assert "service.errors.unhandled" \
            not in metrics["counters"]


class TestConcurrentMatching:
    """Handler threads share the served network's candidate-pool memo
    (two threads that miss together both build equal pools), so eight
    threads of queries and answerable suggests must answer and count
    exactly like one."""

    THREADS = 8
    NETWORK = NetworkConfig(nodes=150, cliques=3, petals=2, flowers=2)
    KERNEL = ("feasibility_checks", "recursive_calls",
              "candidates_pruned")

    def jobs(self, svc, network):
        panel = len(svc.dispatch("GET", "/v1/patterns").body["patterns"])
        queries = [("query", graph_to_dict(query)) for query in
                   generate_network_workload(network, 24, seed=5)]
        suggests = [("suggest", index % panel) for index in range(16)]
        return queries + suggests

    def answer(self, svc, job):
        kind, arg = job
        if kind == "query":
            reply = svc.dispatch("POST", "/v1/query", {"query": arg})
        else:
            sid = svc.dispatch("POST", "/v1/sessions").body["session"]
            svc.dispatch("POST", f"/v1/sessions/{sid}/actions", {
                "actions": [{"op": "add_pattern", "index": arg}]})
            reply = svc.dispatch("POST", "/v1/suggest", {
                "session": sid, "node": 0, "answerable_only": True})
            svc.dispatch("DELETE", f"/v1/sessions/{sid}")
        assert reply.status == 200, reply.body
        return canonical_bytes(reply.body)

    def run(self, threads):
        """Bodies and kernel counts of every job on a fresh service."""
        network = generate_network(self.NETWORK, seed=5)
        svc = PatternService(network,
                             PipelineConfig(budget=BUDGET, seed=3))
        jobs = self.jobs(svc, network)
        obs.reset()
        bodies = [None] * len(jobs)
        barrier = threading.Barrier(threads, timeout=60)

        def work(first):
            barrier.wait()
            for index in range(first, len(jobs), threads):
                bodies[index] = self.answer(svc, jobs[index])

        workers = [threading.Thread(target=work, args=(first,))
                   for first in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        stats = obs.matching_snapshot()
        svc.close()
        return bodies, {key: stats[key] for key in self.KERNEL}

    def test_threads_answer_and_count_like_one(self):
        serial_bodies, serial_counts = self.run(1)
        bodies, counts = self.run(self.THREADS)
        assert None not in bodies
        assert bodies == serial_bodies
        assert counts == serial_counts
        assert serial_counts["feasibility_checks"] > 0


class TestRequestLogReplay:
    def drive_traffic(self, svc):
        svc.dispatch("GET", "/v1/patterns")
        svc.dispatch("POST", "/v1/build", {"config": {"seed": 5}})
        sid = svc.dispatch("POST", "/v1/sessions").body["session"]
        svc.dispatch("POST", f"/v1/sessions/{sid}/actions",
                     {"actions": [{"op": "add_pattern", "index": 0}]})
        svc.dispatch("POST", "/v1/query", {"session": sid})
        svc.dispatch("POST", "/v1/patterns/maintain",
                     {"add": [graph_to_dict(g) for g in
                              generate_chemical_repository(
                                  2, seed=13)]})
        svc.dispatch("GET", "/v1/health")          # non-replayable
        svc.dispatch("GET", "/v1/nowhere")         # 404, replayable
        svc.dispatch("POST", "/v1/build", {},
                     headers={"X-Repro-Deadline": "0"})  # policy 503

    def test_replay_reproduces_every_replayable_response(
            self, tmp_path):
        log_path = str(tmp_path / "requests.jsonl")
        original = make_service(request_log=log_path)
        self.drive_traffic(original)
        original.close()

        fresh = make_service()
        report = replay(log_path, fresh)
        assert report.ok, report.mismatches
        assert report.total == 9
        assert report.skipped == 2  # health + the shed 503
        assert report.compared == report.total - report.skipped

    def test_replay_flags_a_diverging_service(self, tmp_path):
        log_path = str(tmp_path / "requests.jsonl")
        original = make_service(request_log=log_path)
        self.drive_traffic(original)
        original.close()

        different = make_service(seed=8)  # different repository
        report = replay(log_path, different)
        assert not report.ok


class TestHTTPRoundTrip:
    def test_live_server_end_to_end(self):
        svc = make_service(size=8)
        server, _thread = serve_in_thread(svc)
        host, port = server.server_address[:2]
        client = ServiceClient(host, port)
        try:
            status, body = client.health()
            assert status == 200 and body["status"] == "ok"

            status, body = client.build({"config": {"seed": 3}})
            assert status == 200
            assert body["patterns"]

            status, body = client.patterns()
            assert status == 200

            status, created = client.create_session()
            sid = created["session"]
            status, acted = client.session_actions(
                sid, [{"op": "add_pattern", "index": 0}])
            assert status == 200 and acted["steps"] == 1
            status, queried = client.query({"session": sid})
            assert status == 200 and queried["match_count"] >= 0

            status, body = client.get("/v1/definitely-not-a-route")
            assert status == 404
            assert body["error"]["type"] == "RouteNotFound"

            status, body = client.request(
                "POST", "/v1/build", body={},
                headers={"X-Repro-Deadline": "0"})
            assert status == 503
            assert body["error"]["type"] == "Overloaded"

            status, body = client.post("/v1/query", {"query": 7})
            assert status == 400
        finally:
            server.shutdown()
            server.server_close()
            svc.close()

    def raw_exchange(self, request: bytes) -> bytes:
        """Send raw bytes on one connection; read until the server
        closes it (a kept-alive connection times out the read)."""
        svc = make_service(size=8)
        server, _thread = serve_in_thread(svc)
        try:
            with socket.create_connection(server.server_address[:2],
                                          timeout=5) as sock:
                sock.sendall(request)
                reply = b""
                while True:
                    try:
                        chunk = sock.recv(65536)
                    except ConnectionResetError:
                        # closing with unread request bytes may reset
                        return reply
                    if not chunk:
                        return reply
                    reply += chunk
        finally:
            server.shutdown()
            server.server_close()
            svc.close()

    def test_oversized_body_400_closes_the_connection(self):
        smuggled = b"GET /v1/health HTTP/1.1\r\nHost: t\r\n\r\n"
        reply = self.raw_exchange(
            b"POST /v1/query HTTP/1.1\r\nHost: t\r\n"
            + f"Content-Length: {MAX_BODY_BYTES + 1}".encode()
            + b"\r\n\r\n" + smuggled)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert reply.count(b"HTTP/1.1 ") == 1  # the body was not served
        assert b"\r\nConnection: close\r\n" in reply

    @pytest.mark.parametrize("length", [b"twelve", b"-5"])
    def test_malformed_content_length_is_a_400(self, length):
        reply = self.raw_exchange(
            b"POST /v1/query HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: " + length + b"\r\n\r\n{}")
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close\r\n" in head + b"\r\n"
        assert json.loads(body)["error"]["type"] == "GraphInputError"

    def test_concurrent_http_clients(self):
        svc = make_service(size=8)
        server, _thread = serve_in_thread(svc)
        host, port = server.server_address[:2]
        results = []
        lock = threading.Lock()

        def hit(index):
            client = ServiceClient(host, port)
            if index % 3 == 0:
                status, body = client.build({"config": {"seed": 3}})
            elif index % 3 == 1:
                status, body = client.health()
            else:
                status, body = client.patterns()
            with lock:
                results.append((status, body))

        threads = [threading.Thread(target=hit, args=(i,))
                   for i in range(12)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            server.shutdown()
            server.server_close()
            svc.close()

        assert len(results) == 12
        for status, body in results:
            assert status in EXPECTED_STATUSES
            assert body["schema"] == WIRE_SCHEMA


class TestWireHelpers:
    def test_strip_volatile_removes_nested_keys(self):
        body = {"request_id": "r-1", "snapshot": "snap-2",
                "stats": {"timings": {"total": 1.0}, "kept": 3},
                "items": [{"duration": 0.5, "name": "x"}]}
        stripped = strip_volatile(body)
        assert stripped == {"stats": {"kept": 3},
                            "items": [{"name": "x"}]}

    def test_config_round_trip(self):
        config = wire.config_from_payload(
            {"seed": 9, "deadline_s": 1.5,
             "budget": {"max_patterns": 6, "min_size": 3,
                        "max_size": 9}})
        assert config.seed == 9
        assert config.deadline_s == 1.5
        assert config.budget.max_patterns == 6
        assert wire.budget_to_dict(config.budget) == {
            "max_patterns": 6, "min_size": 3, "max_size": 9}

    def test_dumps_is_canonical(self):
        assert wire.dumps({"b": 1, "a": 2}) == b'{"a":2,"b":1}\n'


class TestGracefulShutdown:
    """shutdown_gracefully stops accepting, drains, then closes."""

    def gate_dispatch(self, svc):
        """Make every dispatch block until ``release`` is set."""
        entered, release = threading.Event(), threading.Event()
        original = svc._chain

        def gated(request):
            entered.set()
            assert release.wait(10)
            return original(request)

        svc._chain = gated
        return entered, release

    def test_shutdown_drains_in_flight_requests(self):
        svc = make_service()
        server, _ = serve_in_thread(svc)
        entered, release = self.gate_dispatch(svc)
        results = []
        worker = threading.Thread(
            target=lambda: results.append(
                svc.dispatch("GET", "/v1/health")))
        worker.start()
        assert entered.wait(10)
        assert svc.drain(0.05) is False  # request is mid-dispatch
        verdicts = []
        stopper = threading.Thread(
            target=lambda: verdicts.append(
                shutdown_gracefully(server)))
        stopper.start()
        stopper.join(0.2)
        assert stopper.is_alive()  # draining, not abandoning
        release.set()
        worker.join(10)
        stopper.join(10)
        assert verdicts == [True]
        assert results and results[0].status == 200
        assert svc.drain(0.0) is True

    def test_drain_verdict_is_false_when_requests_overstay(self):
        svc = make_service()
        server, _ = serve_in_thread(svc)
        entered, release = self.gate_dispatch(svc)
        worker = threading.Thread(
            target=lambda: svc.dispatch("GET", "/v1/health"))
        worker.start()
        assert entered.wait(10)
        try:
            assert shutdown_gracefully(
                server, drain_timeout_s=0.05) is False
        finally:
            release.set()
            worker.join(10)


class TestWorkersEnvIndependence:
    """dispatch honors REPRO_WORKERS exactly like the library does."""

    def test_worker_count_does_not_change_the_panel(self, monkeypatch):
        panels = {}
        for workers in ("1", "4"):
            monkeypatch.setenv("REPRO_WORKERS", workers)
            svc = make_service(size=8)
            reply = svc.dispatch("GET", "/v1/patterns")
            panels[workers] = canonical_bytes(reply.body)
            svc.close()
        assert panels["1"] == panels["4"]

    def test_a_build_cannot_choose_how_many_processes_fork(
            self, monkeypatch):
        svc = PatternService(make_repo(12), PipelineConfig(
            budget=BUDGET, seed=3, workers=1))
        pools = []

        def recorder(max_workers=None, **kwargs):
            pools.append(max_workers)
            raise OSError("this test forks no pool")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            recorder)
        monkeypatch.setenv("REPRO_WORKERS", "4")
        response = svc.dispatch("POST", "/v1/build",
                                {"config": {"workers": 64}})
        assert response.status == 400
        assert response.body["error"]["type"] == "OptionError"
        # a build runs at the service's own worker count
        response = svc.dispatch("POST", "/v1/build",
                                {"config": {"seed": 3}})
        assert response.status == 200
        assert pools == []
        svc.close()


class TestServePathImports:
    def test_a_server_start_imports_no_numpy(self):
        # only repro.vqi.layout's spring_layout uses numpy, and no
        # route lays anything out, so serving must not import it
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        code = ("import sys\n"
                "import repro.cli, repro.service, repro.service.server, "
                "repro.store\n"
                "print('numpy' in sys.modules)\n")
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True,
                                timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
