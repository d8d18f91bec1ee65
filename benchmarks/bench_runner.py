"""The benchmark harness: pipeline experiments, then the scale ladder.

One run writes one ``repro-bench/v1`` report::

    {"schema": "repro-bench/v1",
     "env": {"cpu_count", "python", "smoke", "worker_counts"},
     "rows": [...],                             # one per experiment/tier
     "gates": [{"name", "status", "detail"}]}   # passed|failed|skipped

and exits 1 if and only if a gate failed.

**Pipeline experiments.**  E2/E4/E6-shaped workloads (CATAPULT
selection, TATTOO network extraction, MIDAS maintenance) each run
from a cold match cache at every one of :data:`WORKER_COUNTS`.  Their
rows record wall times, pattern codes, match-cache deltas,
compact-vs-legacy pickled payload sizes and peak RSS, and are gated
on:

* **deterministic** — every worker count produced the identical
  pattern set (byte-identical codes);
* **cache invariance** — the hit rate at 4 workers is within
  :data:`HIT_RATE_TOLERANCE` of the serial run's (workers never start
  cold and the delta-replay accounting is worker-count invariant);
* **payload** — a pickled graph (compact wire form) is smaller than
  the nested-dict payload it replaced
  (:func:`tests.oracles.legacy_pickle_payload`);
* **speedup** — catapult and tattoo run faster at 4 workers than at
  1.  The only hardware-dependent gates: they hard-fail where
  ``os.cpu_count() > 1`` and are skipped (with the measured value)
  on single-core runners, where a speedup is physically impossible.

``deadline_anytime`` re-runs CATAPULT under deadlines of 50% and 25%
of its wall time and gates that the panel is never empty.
``durable_vs_memory`` drives :data:`DURABLE_BATCHES` 5-in/5-out batches
through a memory-backed and a durable
(:class:`repro.store.DiskBackend`) service: both must serve
identical panels after every batch, and (full run only, 120 graphs)
the durable batch p50 is at most :data:`DURABLE_RATIO_BOUND` times
the memory one.

**Selection scale ladder.**  :data:`TIERS` step greedy selection
from 1k to 50k repository graphs and from 10k to 100k-node networks,
with covered-edge maps installed through
:meth:`repro.patterns.index.CoverageIndex.seed_cover` — running the
subgraph matcher for every (pattern, graph) pair at these sizes
would benchmark the matcher, not the sweep.  Covers are seeded,
overlapping (marginal gains genuinely shrink round over round) and
deterministic.  Each tier's lazy (CELF) sweep is gated on its wall
and RSS budgets and on workers-1-vs-4 determinism.  Oracle tiers
also run the quadratic :func:`tests.oracles.naive_selection` sweep
and gate byte-identity (codes, bitwise scores, trajectories) and the
evaluations reduction in :data:`REDUCTION_FLOORS`.  The 50k-graph
and 100k-node tiers run lazy-only; their asymptotic win is
extrapolated from the oracle tiers, which the byte-identity gate
makes sound.

``--smoke`` shrinks the pipeline inputs and runs the
:data:`SMOKE_TIERS` only.  ``--trace out.json`` adds one traced run
per pipeline experiment (``PipelineConfig(trace=True)``), writes
every span record into one :mod:`repro.obs` trace envelope, and
records each traced root's per-stage wall times and the fraction of
the root its stages cover.  The kernel and selection oracle
comparisons on the pipeline workloads are tier-1 tests
(``tests/test_lazy_selection.py``, ``PipelineOracles``).

Usage::

    PYTHONPATH=src python benchmarks/bench_runner.py   # BENCH_perf.json
    PYTHONPATH=src python benchmarks/bench_runner.py --smoke \\
        --out BENCH_ci.json --trace TRACE_smoke.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import pickle
import platform
import random
import resource
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
from repro.graph import path_graph
from repro.obs import matching_snapshot, stage_breakdown, write_trace
from repro.patterns import (
    CoverageIndex,
    Pattern,
    PatternBudget,
    SetScorer,
    greedy_select,
)
from repro.service import DEFAULT_BUDGET, PatternService, strip_volatile, wire
from repro.store import DiskBackend, MemoryBackend
from tests.oracles import legacy_pickle_payload, naive_selection

SCHEMA = "repro-bench/v1"

#: Worker counts every experiment and ladder tier compares.
WORKER_COUNTS = (1, 4)

#: Maximum allowed |hit_rate(workers=4) - hit_rate(workers=1)|.
HIT_RATE_TOLERANCE = 0.01

#: Batches ``durable_vs_memory`` streams through each backend.
DURABLE_BATCHES = 16

#: Durable batch p50 over memory batch p50 the full run accepts.
DURABLE_RATIO_BOUND = 1.5

#: The panel budget of the pipeline experiments.
PIPELINE_BUDGET = PatternBudget(5, min_size=4, max_size=8)

#: Candidates per ladder tier and the panel budget the sweep fills.
N_CANDIDATES = 256
LADDER_BUDGET = PatternBudget(12, min_size=3, max_size=8)

#: tier name -> (kind, size, oracle?, wall budget s, RSS budget MB).
#: Budgets are deliberately loose (~5x a dev-box run): the gate
#: catches complexity regressions, not scheduler jitter.
TIERS = {
    "repo-1k": ("repo", 1_000, True, 30.0, 2048),
    "repo-10k": ("repo", 10_000, True, 120.0, 3072),
    "repo-50k": ("repo", 50_000, False, 300.0, 6144),
    "net-10k": ("network", 10_000, True, 120.0, 3072),
    "net-100k": ("network", 100_000, False, 300.0, 6144),
}

#: The tiers ``--smoke`` runs: one oracle tier of each kind, small
#: enough for a shared CI runner.
SMOKE_TIERS = ("repo-1k", "net-10k")

#: Minimum naive/lazy exact-evaluation ratio per oracle tier.
REDUCTION_FLOORS = {"repo-1k": 3.0, "repo-10k": 10.0, "net-10k": 3.0}

Row = Dict[str, object]
Gate = Dict[str, object]
Traces = Optional[List[Dict[str, object]]]


def _gate(name: str, passed: Optional[bool], detail: str) -> Gate:
    """One ``{name, status, detail}`` gate; ``passed=None`` skips it."""
    status = ("skipped" if passed is None
              else "passed" if passed else "failed")
    return {"name": name, "status": status, "detail": detail}


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _peak_rss_kb() -> int:
    """Process high-water-mark RSS in kB (monotonic: each row reports
    the peak reached *by the end of* that row)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


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


# ---------------------------------------------------- pipeline experiments

#: ``run(workers, trace)`` -> (pattern set, the run's trace records)
Run = Callable[[int, bool], Tuple[object, List[Dict[str, object]]]]


def _across_workers(name: str, params: Dict[str, object], run: Run,
                    payload_graphs, traces: Traces,
                    gate_speedup: bool) -> Tuple[Row, List[Gate]]:
    """Run ``run`` cold at every worker count; returns the row and its
    gates.  With ``traces`` set, one more serial run is traced."""
    runs = {}
    for workers in WORKER_COUNTS:
        obs.reset(clear_cache_entries=True)
        before = matching_snapshot()
        (patterns, _), wall = _timed(lambda: run(workers, False))
        runs[str(workers)] = {
            "wall_seconds": wall,
            "pattern_codes": sorted(patterns.codes()),
            "cache": _cache_delta(before, matching_snapshot()),
        }
    serial = runs[str(WORKER_COUNTS[0])]
    parallel = runs[str(WORKER_COUNTS[-1])]
    speedup = (serial["wall_seconds"] / parallel["wall_seconds"]
               if parallel["wall_seconds"] else 0.0)
    delta = abs(parallel["cache"]["hit_rate"]
                - serial["cache"]["hit_rate"])
    payload = _payload_profile(payload_graphs)
    row = {
        "name": name,
        "params": params,
        "runs": runs,
        "deterministic_across_workers": all(
            entry["pattern_codes"] == serial["pattern_codes"]
            for entry in runs.values()),
        "speedup": speedup,
        "hit_rate_delta": delta,
        "payload": payload,
        "peak_rss_kb": _peak_rss_kb(),
    }
    if traces is not None:
        obs.reset(clear_cache_entries=True)
        _, records = run(WORKER_COUNTS[0], True)
        traces.extend(records)
        row["trace"] = [_stage_profile(record) for record in records]

    gates = [
        _gate(f"{name}.deterministic",
              row["deterministic_across_workers"],
              "identical pattern codes at every worker count"),
        _gate(f"{name}.cache_invariance", delta <= HIT_RATE_TOLERANCE,
              f"|hit_rate(4w) - hit_rate(1w)| = {delta:.4f} "
              f"(tolerance {HIT_RATE_TOLERANCE})"),
        _gate(f"{name}.payload",
              payload["compact_bytes"] < payload["legacy_bytes"],
              f"compact {payload['compact_bytes']}B vs "
              f"legacy {payload['legacy_bytes']}B "
              f"(x{payload['bytes_ratio']:.2f})"),
    ]
    if gate_speedup:
        if (os.cpu_count() or 1) > 1:
            gates.append(_gate(
                f"{name}.speedup", speedup > 1.0,
                f"x{speedup:.2f} at {WORKER_COUNTS[-1]} workers"))
        else:
            gates.append(_gate(
                f"{name}.speedup", None,
                f"single-core runner (measured x{speedup:.2f}); "
                "speedup requires cpu_count > 1"))
    return row, gates


def run_catapult(smoke: bool, traces: Traces) -> Tuple[Row, List[Gate]]:
    """E2-shaped: CATAPULT selection over a chemical repository."""
    size = 30 if smoke else 150
    walks = 10 if smoke else 30
    repo = generate_chemical_repository(size, seed=7)

    def run(workers: int, trace: bool):
        result = pipeline.run_catapult(repo, PipelineConfig(
            budget=PIPELINE_BUDGET, seed=1, workers=workers, trace=trace,
            options={"walks_per_cluster": walks}))
        return result.patterns, [result.trace]

    return _across_workers(
        "catapult_e2",
        {"repository_size": size, "repository_seed": 7, "seed": 1},
        run, list(repo), traces, gate_speedup=True)


def run_tattoo(smoke: bool, traces: Traces) -> Tuple[Row, List[Gate]]:
    """E4-shaped: TATTOO extraction + selection on one network."""
    nodes = 150 if smoke else 600
    network = generate_network(NetworkConfig(nodes=nodes, cliques=4,
                                             petals=3, flowers=3), seed=2)

    def run(workers: int, trace: bool):
        result = pipeline.run_tattoo(network, PipelineConfig(
            budget=PIPELINE_BUDGET, seed=1, workers=workers, trace=trace))
        return result.patterns, [result.trace]

    return _across_workers(
        "tattoo_e4", {"network_nodes": nodes, "network_seed": 2, "seed": 1},
        run, [network], traces, gate_speedup=True)


def run_midas(smoke: bool, traces: Traces) -> Tuple[Row, List[Gate]]:
    """E6-shaped: MIDAS maintenance over an update stream.

    The match cache is the point here: every batch rebuilds its
    coverage index, so from batch 2 onward hits should dominate.
    """
    initial = 30 if smoke else 100
    batches = 2 if smoke else 5

    def run(workers: int, trace: bool):
        repo = generate_chemical_repository(initial, seed=31)
        midas = pipeline.run_midas(repo, PipelineConfig(
            budget=PIPELINE_BUDGET, seed=2, workers=workers, trace=trace))
        evolving = EvolvingRepository([g.copy() for g in repo])
        records = [midas.trace]
        for batch in generate_update_stream(evolving, batches=batches,
                                            batch_size=8, seed=32):
            evolving.apply(batch)
            records.append(midas.apply_batch(batch).trace)
        return midas.patterns, records

    return _across_workers(
        "midas_e6",
        {"initial_size": initial, "batches": batches,
         "repository_seed": 31, "stream_seed": 32, "seed": 2},
        run, list(generate_chemical_repository(initial, seed=31)),
        traces, gate_speedup=False)


def run_deadline(smoke: bool) -> Tuple[Row, List[Gate]]:
    """Anytime-pipeline smoke: CATAPULT under shrinking deadlines.

    Measures a fault-free run, then re-runs with ``deadline_s`` at 50%
    and 25% of that wall time.  The contract under test: a deadline
    never crashes the pipeline and never yields an empty panel — worst
    case is a smaller, ``degraded``-flagged pattern set with a
    per-stage completion report.
    """
    size = 30 if smoke else 150
    walks = 10 if smoke else 30
    repo = generate_chemical_repository(size, seed=7)

    def run(deadline_s: Optional[float]):
        obs.reset(clear_cache_entries=True)
        config = PipelineConfig(budget=PIPELINE_BUDGET, seed=1,
                                deadline_s=deadline_s,
                                options={"walks_per_cluster": walks})
        return _timed(lambda: pipeline.run_catapult(repo, config))

    full, wall = run(None)
    runs: Dict[str, Dict[str, object]] = {
        "full": {
            "wall_seconds": wall,
            "patterns": len(full.patterns),
            "degraded": full.degraded,
        },
    }
    for fraction in (0.5, 0.25):
        deadline_s = max(wall * fraction, 1e-4)
        result, bounded_wall = run(deadline_s)
        runs[f"{int(fraction * 100)}pct"] = {
            "wall_seconds": bounded_wall,
            "deadline_seconds": deadline_s,
            "patterns": len(result.patterns),
            "degraded": result.degraded,
            "completion": result.stats["completion"],
        }
    nonempty = all(entry["patterns"] > 0 for entry in runs.values())
    row = {
        "name": "deadline_anytime",
        "params": {"repository_size": size, "repository_seed": 7,
                   "seed": 1},
        "runs": runs,
        "nonempty_under_deadline": nonempty,
    }
    return row, [_gate("deadline_anytime.nonempty", nonempty,
                       "bounded runs still return patterns")]


def run_durable_vs_memory(smoke: bool) -> Tuple[Row, List[Gate]]:
    """One batch stream through a memory-backed and a durable service.

    The stream is the service benchmark's ``repo-durable`` shape
    (5 graphs in, 5 out, additions drifting from batch 12),
    :data:`DURABLE_BATCHES` long.  Each backend starts from a cold
    match cache and its own copy of the data; ``batch_ms`` times each
    ``apply_maintenance`` call, WAL and commit included.  The ratio
    is gated on the full run's 120 graphs only.
    """
    size = 30 if smoke else 120

    def stream():
        repo = generate_chemical_repository(size, seed=1)
        evolving = EvolvingRepository([g.copy() for g in repo])
        batches = []
        for batch in generate_update_stream(
                evolving, DURABLE_BATCHES, 5, seed=2,
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
    ratio = durable["batch_p50_ms"] / memory["batch_p50_ms"]
    identical = durable_panels == memory_panels
    row = {
        "name": "durable_vs_memory",
        "params": {"repository_size": size, "batches": DURABLE_BATCHES,
                   "batch_size": 5, "repository_seed": 1,
                   "stream_seed": 2, "seed": 0},
        "runs": {"memory": memory, "durable": durable},
        "ratio": ratio,
        "panels_identical": identical,
    }
    gates = [_gate("durable_vs_memory.panels", identical,
                   f"identical panels after each of {DURABLE_BATCHES} "
                   "batches")]
    if smoke:
        gates.append(_gate(
            "durable_vs_memory.ratio", None,
            f"gated on the full run's 120 graphs (measured "
            f"x{ratio:.2f} at {size})"))
    else:
        gates.append(_gate(
            "durable_vs_memory.ratio", ratio <= DURABLE_RATIO_BOUND,
            f"durable batch p50 x{ratio:.2f} memory at {size} "
            f"graphs (bound x{DURABLE_RATIO_BOUND})"))
    return row, gates


# ------------------------------------------------- selection scale ladder


def _candidates(seed: int) -> List[Pattern]:
    """Distinct 4-node candidates (one label class per candidate)."""
    return [Pattern(path_graph(4, label=f"C{i:03d}"))
            for i in range(N_CANDIDATES)]


def _edge_pool(graph) -> List[frozenset]:
    """Every non-empty subset of a template graph's edges, shared so
    seeded covers reuse a handful of frozensets instead of allocating
    one per (candidate, graph) entry."""
    edges = list(graph.edges())
    pool = []
    for r in range(1, len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            pool.append(frozenset(combo))
    return pool


def build_repo_instance(n_graphs: int, seed: int):
    """A repository tier: ``n_graphs`` copies of a tiny template with
    seeded, overlapping candidate covers.

    Cover sizes are Zipfian (candidate ``i`` covers ``~n/16 /
    (1+i)^0.7`` graphs): real candidate pools are heavy-tailed — a
    few motifs cover much of the repository, a long tail covers
    little — and that heterogeneity is exactly the regime lazy
    evaluation exploits.  Covers are drawn from a shared prefix of
    the graph list so the big candidates overlap and marginal gains
    genuinely shrink round over round.
    """
    template = path_graph(4, label="T")
    index = CoverageIndex([template] * n_graphs)
    candidates = _candidates(seed)
    pool = _edge_pool(template)
    shared = max(64, n_graphs // 4)
    for i, pattern in enumerate(candidates):
        rng = random.Random(seed * 1_000_003 + i)
        per_candidate = max(4, int(n_graphs / 16 / (1 + i) ** 0.7))
        cover = {idx: pool[rng.randrange(len(pool))]
                 for idx in rng.sample(range(shared), per_candidate)}
        index.seed_cover(pattern, cover)
    return index, candidates


def build_network_instance(n_nodes: int, seed: int):
    """A network tier: one large graph, candidate covers sampled from
    a shared slice of its edges so gains overlap."""
    config = NetworkConfig(nodes=n_nodes, cliques=8, petals=4,
                           flowers=4)
    network = generate_network(config, seed=seed)
    index = CoverageIndex([network])
    candidates = _candidates(seed)
    edges = list(itertools.islice(network.edges(), 8_192))
    for i, pattern in enumerate(candidates):
        rng = random.Random(seed * 1_000_003 + i)
        per_candidate = max(16, int(4_096 / (1 + i) ** 0.8))
        cover = {0: frozenset(rng.sample(edges, per_candidate))}
        index.seed_cover(pattern, cover)
    return index, candidates


def _sweep(mode: str, index: CoverageIndex,
           candidates: Sequence[Pattern],
           workers: Optional[int] = None) -> Dict[str, object]:
    """One timed greedy sweep (``"lazy"``, or the ``"naive"``
    oracle) against a fresh scorer."""
    with naive_selection() if mode == "naive" else nullcontext():
        scorer = SetScorer(index)
        selection, wall = _timed(lambda: greedy_select(
            candidates, LADDER_BUDGET, scorer, workers=workers))
    return {
        "mode": mode,
        "workers": workers if workers is not None else 1,
        "wall_seconds": round(wall, 4),
        "evaluations": selection.evaluations,
        "selected": len(selection.patterns),
        "score": selection.score,
        "trajectory": selection.trajectory,
        "pattern_codes": [p.code for p in selection.patterns],
    }


def run_tier(name: str, seed: int = 11) -> Tuple[Row, List[Gate]]:
    """One ladder tier: lazy sweeps at every worker count, plus the
    naive oracle on oracle tiers; returns the row and its gates."""
    kind, size, oracle, wall_budget, rss_budget_mb = TIERS[name]
    build = (build_repo_instance if kind == "repo"
             else build_network_instance)
    (index, candidates), build_wall = _timed(lambda: build(size, seed))

    runs = {f"lazy-w{workers}": _sweep("lazy", index, candidates,
                                       workers=workers)
            for workers in WORKER_COUNTS}
    if oracle:
        runs["naive"] = _sweep("naive", index, candidates)
    lazy = runs[f"lazy-w{WORKER_COUNTS[0]}"]
    parallel = runs[f"lazy-w{WORKER_COUNTS[-1]}"]
    row = {
        "name": name,
        "params": {"kind": kind, "size": size,
                   "candidates": len(candidates),
                   "budget": LADDER_BUDGET.max_patterns, "seed": seed},
        "build_wall_seconds": round(build_wall, 4),
        "wall_budget_seconds": wall_budget,
        "rss_budget_mb": rss_budget_mb,
        "peak_rss_kb": _peak_rss_kb(),
        "runs": runs,
        "deterministic_across_workers": (
            lazy["pattern_codes"] == parallel["pattern_codes"]
            and lazy["score"] == parallel["score"]),
    }
    gates = [
        _gate(f"{name}.wall_budget", lazy["wall_seconds"] <= wall_budget,
              f"lazy sweep {lazy['wall_seconds']}s <= {wall_budget}s"),
        _gate(f"{name}.rss_budget",
              row["peak_rss_kb"] <= rss_budget_mb * 1024,
              f"peak {row['peak_rss_kb']} kB <= {rss_budget_mb} MB"),
        _gate(f"{name}.determinism", row["deterministic_across_workers"],
              f"workers {WORKER_COUNTS[0]} vs {WORKER_COUNTS[-1]} "
              "codes+score byte-identical"),
    ]
    if oracle:
        naive = runs["naive"]
        row["byte_identical"] = (
            lazy["pattern_codes"] == naive["pattern_codes"]
            and lazy["score"] == naive["score"]
            and lazy["trajectory"] == naive["trajectory"])
        row["evaluations_reduction"] = reduction = (
            naive["evaluations"] / lazy["evaluations"]
            if lazy["evaluations"] else 0.0)
        floor = REDUCTION_FLOORS.get(name, 1.0)
        gates += [
            _gate(f"{name}.byte_identity", row["byte_identical"],
                  "lazy == naive codes, scores, trajectories"),
            _gate(f"{name}.evaluations_reduction", reduction >= floor,
                  f"{reduction:.1f}x >= {floor}x "
                  f"(naive {naive['evaluations']} / "
                  f"lazy {lazy['evaluations']})"),
        ]
    return row, gates


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small pipeline inputs and the ladder "
                             f"tiers {SMOKE_TIERS} (CI: seconds, not "
                             "minutes)")
    parser.add_argument("--out", default="BENCH_perf.json",
                        help="report path")
    parser.add_argument("--trace", default=None,
                        help="also run each pipeline experiment once "
                             "with tracing on and write the span "
                             "records here as one trace envelope")
    args = parser.parse_args(argv)

    smoke = args.smoke
    traces: Traces = [] if args.trace else None
    jobs = [partial(run_catapult, smoke, traces),
            partial(run_tattoo, smoke, traces),
            partial(run_midas, smoke, traces),
            partial(run_deadline, smoke),
            partial(run_durable_vs_memory, smoke)]
    jobs += [partial(run_tier, name)
             for name in (SMOKE_TIERS if smoke else TIERS)]
    rows: List[Row] = []
    gates: List[Gate] = []
    for job in jobs:
        row, row_gates = job()
        rows.append(row)
        gates.extend(row_gates)
        for gate in row_gates:
            print(f"gate {gate['name']}: {gate['status']} "
                  f"({gate['detail']})", flush=True)

    report = {
        "schema": SCHEMA,
        "env": {"cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "smoke": smoke,
                "worker_counts": list(WORKER_COUNTS)},
        "rows": rows,
        "gates": gates,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    if args.trace:
        write_trace(traces, args.trace)
        print(f"wrote {args.trace} ({len(traces)} trace(s))")
    failures = [gate["name"] for gate in gates
                if gate["status"] == "failed"]
    if failures:
        print(f"gates FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
