"""End-to-end metrics from untraced runs, per-layer metrics from spans.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.  Spans come from the launcher; work
counts come from ``/v1/metrics`` differences and response bodies.
A per-layer metric whose layer a workload never reaches reads 0.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, List, Tuple

from harness import median, quantile

Metrics = Dict[str, Tuple[float, str]]

#: Percentiles a route tail is picked from, highest first.
TAIL_LADDER = (0.99, 0.95, 0.9, 0.75, 0.5)


def end_to_end(workload, phase) -> Metrics:
    latencies = [op.latency for op in phase.ops]
    return {
        "setup_s": (median(phase.setups), "s"),
        "op_p50_ms": (1000 * median(latencies), "ms"),
        "op_tail_ms": (1000 * quantile(latencies, workload.tail_q), "ms"),
        "ops_per_s": (len(phase.ops) / phase.wall, "1/s"),
        "server_rss_mb": (phase.rss_mb, "MB"),
    }


def supported_tail(count: int) -> float:
    """Highest ladder percentile with at least ten samples beyond."""
    for q in TAIL_LADDER:
        if count * (1 - q) >= 10:
            return q
    return 0.5


def _latency(values: List[float], q: float) -> float:
    return 1000 * quantile(values, q) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _reports(phase) -> List[dict]:
    """MIDAS reports of the window's maintenance batches."""
    return [op.body.get("report", {}) for op in phase.ops
            if op.kind == "maintain" and op.status == 200]


def _major_frac(reports: List[dict]) -> float:
    return _ratio(sum(report.get("kind") == "major"
                      for report in reports), len(reports))


def _late_ms(phase) -> float:
    return 1000 * max(phase.late, default=0.0)


def route_metrics(phase) -> Metrics:
    """The service as each route's callers see it (untraced)."""
    by_kind = defaultdict(list)
    for op in phase.ops:
        by_kind[op.kind].append(op.latency)
    metrics: Metrics = {}
    for kind in ("query", "interact", "maintain"):
        values = by_kind[kind]
        metrics[f"service.{kind}_p50_ms"] = (_latency(values, 0.5), "ms")
        metrics[f"service.{kind}_tail_ms"] = (
            _latency(values, supported_tail(len(values))), "ms")
    reads = len(by_kind["query"]) + len(by_kind["interact"])
    metrics["service.read_rps"] = (_ratio(reads, phase.wall), "req/s")
    metrics["service.maintain_bps"] = (
        _ratio(len(by_kind["maintain"]), phase.wall), "batches/s")
    metrics["service.schedule_late_ms"] = (_late_ms(phase), "ms")
    metrics["service.response_kb"] = (
        _mean(op.nbytes / 1024 for op in phase.ops), "KB")
    return metrics


class SpanSet:
    """Spans of every server process of one traced phase."""

    def __init__(self, paths) -> None:
        self.files = []
        self.builds = []
        for incarnation, path in enumerate(paths):
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
            spans = data["spans"]
            children = defaultdict(list)
            for index, span in enumerate(spans):
                span["incarnation"] = incarnation
                if span["parent"] is not None:
                    children[span["parent"]].append(index)
            for index, span in enumerate(spans):
                span["self"] = _self_time(span, [spans[child] for child
                                                 in children[index]])
                root = span
                while root["parent"] is not None:
                    root = spans[root["parent"]]
                span["root"] = root
            self.files.append(spans)
            self.builds.extend(data["builds"])

    def named(self, name: str, start: float = float("-inf"),
              end: float = float("inf")):
        return [span for spans in self.files for span in spans
                if span["name"] == name and span["start"] >= start
                and span["end"] <= end]


def _self_time(span, children) -> float:
    covered = 0.0
    cursor = span["start"]
    for child in sorted(children, key=lambda item: item["start"]):
        low, high = max(child["start"], cursor), min(child["end"],
                                                      span["end"])
        if high > low:
            covered += high - low
            cursor = high
    return span["end"] - span["start"] - covered


def _ms(spans) -> float:
    """Mean span duration in milliseconds."""
    return 1000 * _mean(span["end"] - span["start"] for span in spans)


def _self_ms(spans) -> float:
    """Mean span self time in milliseconds."""
    return 1000 * _mean(span["self"] for span in spans)


def span_metrics(phase) -> Metrics:
    """Per-layer times of the traced phase's measured window."""
    spans = SpanSet(phase.spans)
    window = (phase.start, phase.end)
    dispatch = spans.named("service.dispatch", *window)
    served = {(span["incarnation"], span["request"]):
              span["end"] - span["start"] for span in dispatch}
    transport = [op.done - op.sent - served[(op.server, op.request_id)]
                 for op in phase.ops
                 if (op.server, op.request_id) in served]
    matching_calls = sum(1 for op in phase.ops
                         if op.route.startswith("query")
                         or op.route == "suggest")
    embed = spans.named("matching.embed", *window)
    maintain_roots = {id(span["root"]) for span in
                      spans.named("midas.apply", *window)}
    fsyncs = [span for span in spans.named("store.fsync", *window)
              if id(span["root"]) in maintain_roots]
    batches = len(maintain_roots)
    metrics: Metrics = {
        "service.transport_ms": (1000 * _mean(transport), "ms"),
        "service.dispatch_self_ms": (_self_ms(dispatch), "ms"),
        "service.snapshot_swap_ms": (
            _ms(spans.named("service.snapshot_swap")), "ms"),
        "query.engine_self_ms": (
            _self_ms(spans.named("query.engine", *window)), "ms"),
        "query.suggest_ms": (
            _ms(spans.named("query.suggest", *window)), "ms"),
        "matching.embed_ms": (
            1000 * _ratio(sum(span["end"] - span["start"]
                              for span in embed), matching_calls), "ms"),
        "midas.engine_build_ms": (
            _ms(spans.named("midas.engine_build", *window)), "ms"),
        "midas.apply_ms": (_ms(spans.named("midas.apply", *window)), "ms"),
        "store.wal_append_ms": (
            _ms(spans.named("store.wal_append", *window)), "ms"),
        "store.commit_ms": (_ms(spans.named("store.commit", *window)),
                            "ms"),
        "store.fsync_ms": (_ms(fsyncs), "ms"),
        "store.fsyncs_per_batch": (_ratio(len(fsyncs), batches), "count"),
        "store.load_ms": (_ms(spans.named("store.load")), "ms"),
    }
    stages = spans.builds[0] if spans.builds else {}
    for pipeline, names in (("catapult", ("cluster", "summarize",
                                          "candidates", "select")),
                            ("tattoo", ("decompose", "extract",
                                        "select"))):
        for name in names:
            metrics[f"{pipeline}.{name}_s"] = (
                stages.get(f"{pipeline}.{name}", 0.0), "s")
    return metrics


def count_metrics(phase) -> Metrics:
    """Work counts from response bodies and ``/v1/metrics`` deltas."""
    queries = [op.body for op in phase.ops
               if op.kind == "query" and op.status == 200]
    counters = phase.counters
    build = dict(phase.setup_counters[-1])
    for key, value in counters.items():
        build[key] = build.get(key, 0) + value
    reports = _reports(phase)
    swaps = [report["swap"] for report in reports if "swap" in report]
    hits = counters.get("matching.hits", 0)
    memo = counters.get("matching.canonical_memo_hits", 0)
    evaluations = build.get("patterns.greedy.evaluations", 0)
    lazy = build.get("patterns.greedy.lazy_hits", 0)
    return {
        "query.graphs_searched": (
            _mean(body["graphs_searched"] for body in queries), "count"),
        "query.prune_frac": (_mean(
            _ratio(body["graphs_pruned"],
                   body["graphs_pruned"] + body["graphs_searched"])
            for body in queries), "ratio"),
        "query.match_frac": (_mean(
            _ratio(body["match_count"], body["graphs_searched"])
            for body in queries), "ratio"),
        "matching.feasibility_checks": (_ratio(
            counters.get("matching.feasibility_checks", 0),
            len(queries)), "count"),
        "matching.recursive_calls": (_ratio(
            counters.get("matching.recursive_calls", 0), len(queries)),
            "count"),
        "matching.candidates_pruned": (_ratio(
            counters.get("matching.candidates_pruned", 0),
            len(queries)), "count"),
        "perf.cache_hit_rate": (_ratio(
            hits, hits + counters.get("matching.misses", 0)), "ratio"),
        "perf.vf2_calls": (_ratio(counters.get("matching.vf2_calls", 0),
                                  len(phase.ops)), "count"),
        "perf.cache_evictions": (_ratio(
            counters.get("matching.evictions", 0), len(phase.ops)),
            "count"),
        "perf.canonical_memo_hit_rate": (_ratio(
            memo, memo + counters.get("matching.canonical_memo_misses",
                                      0)), "ratio"),
        "patterns.greedy_evaluations": (evaluations, "count"),
        "patterns.lazy_hit_frac": (_ratio(lazy, lazy + evaluations),
                                   "ratio"),
        "patterns.pairs_pruned": (
            build.get("patterns.coverage.pairs_pruned", 0), "count"),
        "midas.major_frac": (_major_frac(reports), "ratio"),
        "midas.swap_accept_frac": (_ratio(
            sum(swap["swaps"] for swap in swaps),
            sum(swap["considered"] for swap in swaps)), "ratio"),
        "store.bytes_per_batch": (_ratio(
            phase.store_bytes[-1] - phase.store_bytes[0], len(reports))
            if phase.store_bytes else 0.0, "B"),
        "store.replayed_batches": (phase.replayed, "count"),
        "store.recover_s": (median(phase.recoveries)
                            if phase.recoveries else 0.0, "s"),
        "store.space_amp": (phase.space_amp, "ratio"),
    }


def per_layer(workload, untraced, traced, e2e: Metrics) -> Metrics:
    metrics: Metrics = {}
    metrics.update(route_metrics(untraced))
    metrics.update(count_metrics(untraced))
    metrics.update(span_metrics(traced))
    traced_e2e = end_to_end(workload, traced)
    for name, (value, _) in e2e.items():
        metrics[f"obs.trace_overhead_frac.{name}"] = (
            _ratio(traced_e2e[name][0], value) - 1, "ratio")
    return metrics


def properties(workload, phase) -> Metrics:
    """Workload properties later caching and incrementality claims
    can cite, recorded for every run."""
    sampled = sum(op.route == "query_sampled" for op in phase.ops)
    panel = sum(op.route == "query_panel" for op in phase.ops)
    reports = _reports(phase)
    values: Metrics = dict(phase.properties)
    values.update({
        "samples": (len(phase.ops), "count"),
        "tail_percentile": (100 * workload.tail_q, "%"),
        "samples_beyond_tail": (
            len(phase.ops) * (1 - workload.tail_q), "count"),
        "panel_query_frac": (_ratio(panel, panel + sampled), "ratio"),
        "distinct_sampled_queries": (
            min(sampled, len(getattr(workload, "queries", []))),
            "count"),
        "batches": (len(reports), "count"),
        "major_batch_frac": (_major_frac(reports), "ratio"),
        "schedule_late_max_ms": (_late_ms(phase), "ms"),
    })
    return values
