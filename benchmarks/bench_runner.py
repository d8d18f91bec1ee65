"""Perf-layer benchmark: wall time and cache effect at 1 vs 4 workers.

Runs E2/E4/E6-shaped workloads (CATAPULT selection, TATTOO network
extraction, MIDAS maintenance) at ``workers in {1, 4}`` and writes a
JSON report with wall times, per-worker-count match-cache hit rates,
compact-vs-legacy pickled payload sizes, peak RSS, and the gates CI
actually enforces:

* **determinism** — every worker count produced the identical
  pattern set (byte-identical codes);
* **cache invariance** — the merged hit rate at 4 workers is within
  one point of the serial run's (workers never start cold and the
  delta-replay accounting is worker-count invariant);
* **payload** — a pickled graph (compact wire form) is smaller than
  the nested-dict payload it replaced
  (:func:`tests.oracles.legacy_pickle_payload`);
* **speedup** — catapult and tattoo run faster at 4 workers than at
  1.  This is the only hardware-dependent gate: it hard-fails where
  ``os.cpu_count() > 1`` and is recorded as skipped (with the
  reason) on single-core runners, where a speedup is physically
  impossible;
* **durable vs memory** — one 5-in/5-out batch stream through a
  memory-backed and a durable (:class:`repro.store.DiskBackend`)
  service: both serve identical panels through the first engine
  epoch, and (full run only, 120 graphs) the durable batch p50 is at
  most :data:`DURABLE_RATIO_BOUND` times the memory one.

With ``--trace out.json`` each experiment adds one traced run (via
``PipelineConfig(trace=True)``), writes every span record into one
:mod:`repro.obs` trace envelope, and reports the per-stage wall-time
breakdown plus the fraction of the root span its stages account for.

The kernel and selection oracle comparisons on these workloads are
tier-1 tests (``tests/test_lazy_selection.py``, ``PipelineOracles``).

Usage::

    PYTHONPATH=src python benchmarks/bench_runner.py --smoke \
        --out BENCH_perf.json --trace TRACE_perf.json
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import statistics
import sys
import tempfile
import time
from typing import Dict, List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from repro.core import pipeline
from repro.core.pipeline import PipelineConfig
from repro.datasets import (
    EvolvingRepository,
    NetworkConfig,
    generate_chemical_repository,
    generate_network,
    generate_update_stream,
)
from repro import obs
from repro.obs import matching_snapshot, stage_breakdown, write_trace
from repro.patterns import PatternBudget
from repro.service import DEFAULT_BUDGET, PatternService, strip_volatile, wire
from repro.service.app import EPOCH_BATCHES
from repro.store import DiskBackend, MemoryBackend
from tests.oracles import legacy_pickle_payload

WORKER_COUNTS = (1, 4)

#: Maximum allowed |hit_rate(workers=4) - hit_rate(workers=1)|.
HIT_RATE_TOLERANCE = 0.01

#: Durable batch p50 over memory batch p50 the full run accepts.
DURABLE_RATIO_BOUND = 1.5


def _cache_delta(before: Dict[str, float],
                 after: Dict[str, float]) -> Dict[str, float]:
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    total = hits + misses
    return {
        "hits": int(hits),
        "misses": int(misses),
        "hit_rate": hits / total if total else 0.0,
        "vf2_calls": int(after["vf2_calls"] - before["vf2_calls"]),
        "pairs_pruned": int(after["pairs_pruned"]
                            - before["pairs_pruned"]),
    }


def _peak_rss_kb() -> int:
    """Process high-water-mark RSS in kB (monotonic: per-experiment
    values report the peak reached *by the end of* that experiment)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _payload_profile(graphs, reps: int = 5) -> Dict[str, object]:
    """Pickled-size and encode/decode cost of shipping ``graphs``.

    ``compact_bytes`` is what :func:`pickle.dumps` now produces (the
    flat encoded tuple via ``Graph.__reduce__``); ``legacy_bytes`` is
    the nested-dict payload the pickle path used to ship.  Times are
    best-of-``reps`` for the whole graph list.
    """
    compact_bytes = sum(len(pickle.dumps(g)) for g in graphs)
    legacy_bytes = sum(len(pickle.dumps(legacy_pickle_payload(g)))
                       for g in graphs)
    encode_s = min(_timed(lambda: [pickle.dumps(g) for g in graphs])[1]
                   for _ in range(reps))
    wire = [pickle.dumps(g) for g in graphs]
    decode_s = min(_timed(lambda: [pickle.loads(b) for b in wire])[1]
                   for _ in range(reps))
    return {
        "graphs": len(graphs),
        "compact_bytes": compact_bytes,
        "legacy_bytes": legacy_bytes,
        "bytes_ratio": (compact_bytes / legacy_bytes
                        if legacy_bytes else 0.0),
        "encode_seconds": encode_s,
        "decode_seconds": decode_s,
    }


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _stage_profile(record: Dict[str, object]) -> Dict[str, object]:
    """Per-stage seconds plus the fraction of the root they cover."""
    stages = stage_breakdown(record)
    total = float(record["duration"]) or 0.0
    covered = sum(stages.values())
    return {
        "root": record["name"],
        "total_seconds": total,
        "stage_seconds": stages,
        "stage_coverage": covered / total if total else 0.0,
    }


def run_catapult(smoke: bool,
                 traces: Optional[List[Dict[str, object]]]
                 ) -> Dict[str, object]:
    """E2-shaped: CATAPULT selection over a chemical repository."""
    size = 30 if smoke else 150
    repo = generate_chemical_repository(size, seed=7)
    budget = PatternBudget(5, min_size=4, max_size=8)
    walks = 10 if smoke else 30
    runs = {}
    for workers in WORKER_COUNTS:
        obs.reset(clear_cache_entries=True)
        before = matching_snapshot()
        config = PipelineConfig(budget=budget, seed=1, workers=workers,
                                options={"walks_per_cluster": walks})
        result, wall = _timed(
            lambda: pipeline.run_catapult(repo, config))
        runs[str(workers)] = {
            "wall_seconds": wall,
            "pattern_codes": sorted(result.patterns.codes()),
            "cache": _cache_delta(before, matching_snapshot()),
        }
    experiment = _finish("catapult_e2", {"repository_size": size}, runs)
    experiment["payload"] = _payload_profile(list(repo))
    experiment["peak_rss_kb"] = _peak_rss_kb()
    if traces is not None:
        obs.reset(clear_cache_entries=True)
        config = PipelineConfig(budget=budget, seed=1, trace=True,
                                options={"walks_per_cluster": walks})
        result = pipeline.run_catapult(repo, config)
        traces.append(result.trace)
        experiment["trace"] = _stage_profile(result.trace)
    return experiment


def run_tattoo(smoke: bool,
               traces: Optional[List[Dict[str, object]]]
               ) -> Dict[str, object]:
    """E4-shaped: TATTOO extraction + selection on one network."""
    nodes = 150 if smoke else 600
    network = generate_network(NetworkConfig(nodes=nodes, cliques=4,
                                             petals=3, flowers=3), seed=2)
    budget = PatternBudget(5, min_size=4, max_size=8)
    runs = {}
    for workers in WORKER_COUNTS:
        obs.reset(clear_cache_entries=True)
        before = matching_snapshot()
        config = PipelineConfig(budget=budget, seed=1, workers=workers)
        result, wall = _timed(
            lambda: pipeline.run_tattoo(network, config))
        runs[str(workers)] = {
            "wall_seconds": wall,
            "pattern_codes": sorted(result.patterns.codes()),
            "cache": _cache_delta(before, matching_snapshot()),
        }
    experiment = _finish("tattoo_e4", {"network_nodes": nodes}, runs)
    experiment["payload"] = _payload_profile([network])
    experiment["peak_rss_kb"] = _peak_rss_kb()
    if traces is not None:
        obs.reset(clear_cache_entries=True)
        config = PipelineConfig(budget=budget, seed=1, trace=True)
        result = pipeline.run_tattoo(network, config)
        traces.append(result.trace)
        experiment["trace"] = _stage_profile(result.trace)
    return experiment


def run_midas(smoke: bool,
              traces: Optional[List[Dict[str, object]]]
              ) -> Dict[str, object]:
    """E6-shaped: MIDAS maintenance over an update stream.

    The match cache is the point here: every batch rebuilds its
    coverage index, so from batch 2 onward hits should dominate.
    """
    initial = 30 if smoke else 100
    batches = 2 if smoke else 5
    budget = PatternBudget(5, min_size=4, max_size=8)

    def drive(workers: int, trace: bool):
        obs.reset(clear_cache_entries=True)
        before = matching_snapshot()
        repo = generate_chemical_repository(initial, seed=31)
        config = PipelineConfig(budget=budget, seed=2, workers=workers,
                                trace=trace)
        midas = pipeline.run_midas(repo, config)
        evolving = EvolvingRepository([g.copy() for g in repo])
        stream = generate_update_stream(evolving, batches=batches,
                                        batch_size=8, seed=32)
        reports = []
        for batch in stream:
            evolving.apply(batch)
            reports.append(midas.apply_batch(batch))
        return midas, reports, _cache_delta(before, matching_snapshot())

    runs = {}
    for workers in WORKER_COUNTS:
        (midas, _, cache), wall = _timed(lambda: drive(workers, False))
        runs[str(workers)] = {
            "wall_seconds": wall,
            "pattern_codes": sorted(midas.patterns.codes()),
            "cache": cache,
        }
    experiment = _finish("midas_e6",
                         {"initial_size": initial, "batches": batches},
                         runs)
    experiment["payload"] = _payload_profile(
        list(generate_chemical_repository(initial, seed=31)))
    experiment["peak_rss_kb"] = _peak_rss_kb()
    if traces is not None:
        midas, reports, _ = drive(WORKER_COUNTS[0], True)
        records = [midas.trace] + [r.trace for r in reports]
        traces.extend(records)
        experiment["trace"] = [_stage_profile(r) for r in records]
    return experiment


def run_deadline(smoke: bool) -> Dict[str, object]:
    """Anytime-pipeline smoke: CATAPULT under shrinking deadlines.

    Measures a fault-free run, then re-runs with ``deadline_s`` at 50%
    and 25% of that wall time.  The contract under test: a deadline
    never crashes the pipeline and never yields an empty panel — worst
    case is a smaller, ``degraded``-flagged pattern set with a
    per-stage completion report.
    """
    size = 30 if smoke else 150
    repo = generate_chemical_repository(size, seed=7)
    budget = PatternBudget(5, min_size=4, max_size=8)
    walks = 10 if smoke else 30

    obs.reset(clear_cache_entries=True)
    config = PipelineConfig(budget=budget, seed=1,
                            options={"walks_per_cluster": walks})
    full, wall = _timed(lambda: pipeline.run_catapult(repo, config))
    runs: Dict[str, Dict[str, object]] = {
        "full": {
            "wall_seconds": wall,
            "patterns": len(full.patterns),
            "degraded": full.degraded,
        },
    }
    nonempty = len(full.patterns) > 0
    for fraction in (0.5, 0.25):
        obs.reset(clear_cache_entries=True)
        bounded = PipelineConfig(budget=budget, seed=1,
                                 deadline_s=max(wall * fraction, 1e-4),
                                 options={"walks_per_cluster": walks})
        result, bounded_wall = _timed(
            lambda: pipeline.run_catapult(repo, bounded))
        nonempty = nonempty and len(result.patterns) > 0
        runs[f"{int(fraction * 100)}pct"] = {
            "wall_seconds": bounded_wall,
            "deadline_seconds": bounded.deadline_s,
            "patterns": len(result.patterns),
            "degraded": result.degraded,
            "completion": result.stats["completion"],
        }
    return {
        "name": "deadline_anytime",
        "params": {"repository_size": size},
        "runs": runs,
        "nonempty_under_deadline": nonempty,
    }


def run_durable_vs_memory(smoke: bool) -> Dict[str, object]:
    """One batch stream through a memory-backed and a durable service.

    The stream is the service benchmark's ``repo-durable`` shape
    (5 graphs in, 5 out, additions drifting from batch 12), one
    engine epoch long.  Each backend starts from a cold match cache
    and its own copy of the data; ``batch_ms`` times each
    ``apply_maintenance`` call, WAL and commit included.
    """
    size = 30 if smoke else 120

    def stream():
        repo = generate_chemical_repository(size, seed=1)
        evolving = EvolvingRepository([g.copy() for g in repo])
        batches = []
        for batch in generate_update_stream(
                evolving, EPOCH_BATCHES, 5, seed=2,
                removal_fraction=1.0, drift_after=12):
            evolving.apply(batch)
            batches.append(batch)
        return repo, batches

    def drive(backend):
        obs.reset(clear_cache_entries=True)
        repo, batches = stream()
        service = PatternService(
            repo, PipelineConfig(budget=DEFAULT_BUDGET, seed=0,
                                 workers=1), backend=backend)
        panels, times = [], []
        for batch in batches:
            _, wall = _timed(lambda: service.apply_maintenance(batch))
            times.append(1000 * wall)
            body = service.dispatch("GET", "/v1/patterns").body
            panels.append(wire.dumps(strip_volatile(body)))
        service.close()
        return panels, {"batch_ms": times,
                        "batch_p50_ms": statistics.median(times)}

    memory_panels, memory = drive(MemoryBackend())
    with tempfile.TemporaryDirectory() as root:
        durable_panels, durable = drive(DiskBackend(root))
    return {
        "name": "durable_vs_memory",
        "params": {"repository_size": size, "batches": EPOCH_BATCHES,
                   "batch_size": 5},
        "runs": {"memory": memory, "durable": durable},
        "ratio": durable["batch_p50_ms"] / memory["batch_p50_ms"],
        "panels_identical": durable_panels == memory_panels,
    }


def _finish(name: str, params: Dict[str, object],
            runs: Dict[str, Dict[str, object]]) -> Dict[str, object]:
    codes = [run["pattern_codes"] for run in runs.values()]
    deterministic = all(c == codes[0] for c in codes)
    serial = runs[str(WORKER_COUNTS[0])]
    parallel = runs[str(WORKER_COUNTS[-1])]
    return {
        "name": name,
        "params": params,
        "runs": runs,
        "deterministic_across_workers": deterministic,
        "speedup": (serial["wall_seconds"] / parallel["wall_seconds"]
                    if parallel["wall_seconds"] else 0.0),
        "hit_rate_delta": abs(parallel["cache"]["hit_rate"]
                              - serial["cache"]["hit_rate"]),
    }


def _gates(experiments: Dict[str, Dict[str, object]],
           multi_core: bool, smoke: bool) -> List[Dict[str, object]]:
    """Evaluate the CI gates over the finished experiments.

    Each gate is ``{"name", "status": passed|failed|skipped,
    "detail"}``.  Two gates read wall times: on a single-core runner
    a 4-worker speedup is physically impossible, so the speedup gate
    is recorded as skipped (with the measured value) instead of
    asserting a number the machine cannot produce, and the
    durable-vs-memory ratio is gated on the full run's 120 graphs
    only (the smoke run records it as skipped).
    """
    gates = []
    for name in ("catapult_e2", "tattoo_e4", "midas_e6"):
        exp = experiments[name]
        gates.append({
            "name": f"{name}.deterministic",
            "status": ("passed" if exp["deterministic_across_workers"]
                       else "failed"),
            "detail": "identical pattern codes at every worker count",
        })
        delta = exp["hit_rate_delta"]
        gates.append({
            "name": f"{name}.cache_invariance",
            "status": ("passed" if delta <= HIT_RATE_TOLERANCE
                       else "failed"),
            "detail": (f"|hit_rate(4w) - hit_rate(1w)| = {delta:.4f} "
                       f"(tolerance {HIT_RATE_TOLERANCE})"),
        })
        payload = exp["payload"]
        gates.append({
            "name": f"{name}.payload",
            "status": ("passed" if payload["compact_bytes"]
                       < payload["legacy_bytes"] else "failed"),
            "detail": (f"compact {payload['compact_bytes']}B vs "
                       f"legacy {payload['legacy_bytes']}B "
                       f"(x{payload['bytes_ratio']:.2f})"),
        })
    for name in ("catapult_e2", "tattoo_e4"):
        speedup = experiments[name]["speedup"]
        if multi_core:
            status = "passed" if speedup > 1.0 else "failed"
            detail = f"x{speedup:.2f} at {WORKER_COUNTS[-1]} workers"
        else:
            status = "skipped"
            detail = (f"single-core runner (measured x{speedup:.2f}); "
                      "speedup requires cpu_count > 1")
        gates.append({"name": f"{name}.speedup",
                      "status": status, "detail": detail})
    gates.append({
        "name": "deadline_anytime.nonempty",
        "status": ("passed"
                   if experiments["deadline_anytime"]
                   ["nonempty_under_deadline"] else "failed"),
        "detail": "bounded runs still return patterns",
    })
    durable = experiments["durable_vs_memory"]
    gates.append({
        "name": "durable_vs_memory.panels",
        "status": "passed" if durable["panels_identical"] else "failed",
        "detail": f"identical panels after each of "
                  f"{durable['params']['batches']} batches (one epoch)",
    })
    size = durable["params"]["repository_size"]
    ratio = durable["ratio"]
    if smoke:
        status = "skipped"
        detail = (f"gated on the full run's 120 graphs (measured "
                  f"x{ratio:.2f} at {size})")
    else:
        status = "passed" if ratio <= DURABLE_RATIO_BOUND else "failed"
        detail = (f"durable batch p50 x{ratio:.2f} memory at {size} "
                  f"graphs (bound x{DURABLE_RATIO_BOUND})")
    gates.append({"name": "durable_vs_memory.ratio",
                  "status": status, "detail": detail})
    return gates


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_perf.json",
                        help="output JSON path")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs for CI (seconds, not minutes)")
    parser.add_argument("--trace", default=None,
                        help="also run each experiment once with "
                             "tracing on and write the span records "
                             "here as one trace envelope")
    args = parser.parse_args(argv)

    report = {
        "smoke": args.smoke,
        "cpu_count": os.cpu_count(),
        "worker_counts": list(WORKER_COUNTS),
        "experiments": [],
    }
    traces: Optional[List[Dict[str, object]]] = \
        [] if args.trace else None
    for runner in (run_catapult, run_tattoo, run_midas):
        experiment = runner(args.smoke, traces)
        report["experiments"].append(experiment)
        cache = experiment["runs"][str(WORKER_COUNTS[-1])]["cache"]
        print(f"{experiment['name']}: "
              f"speedup x{experiment['speedup']:.2f} "
              f"hit_rate {cache['hit_rate']:.2f} "
              f"rss {experiment['peak_rss_kb']}kB")
    report["experiments"].append(run_deadline(args.smoke))
    durable = run_durable_vs_memory(args.smoke)
    report["experiments"].append(durable)
    print(f"durable_vs_memory: batch p50 "
          f"{durable['runs']['durable']['batch_p50_ms']:.1f} ms durable, "
          f"{durable['runs']['memory']['batch_p50_ms']:.1f} ms memory "
          f"(x{durable['ratio']:.2f})")

    by_name = {exp["name"]: exp for exp in report["experiments"]}
    gates = _gates(by_name, multi_core=(os.cpu_count() or 1) > 1,
                   smoke=args.smoke)
    report["gates"] = gates
    failures = [gate["name"] for gate in gates
                if gate["status"] == "failed"]
    for gate in gates:
        print(f"  gate {gate['name']}: {gate['status']} "
              f"({gate['detail']})")

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    if args.trace:
        write_trace(traces, args.trace)
        print(f"wrote {args.trace} ({len(traces)} trace(s))")
    if failures:
        print(f"smoke gates FAILED: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
